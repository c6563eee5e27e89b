"""Experiment: temporal snapshots — incremental updates vs full rebuilds.

The paper evaluates static graphs, but the motivating applications
(protein-interaction confidence updates, social-network edge churn) are
temporal: edges arrive, disappear, and change probability.  This experiment
replays a seeded stream of edge-update batches against each dataset analogue
and, after every batch, maintains the nucleus decomposition twice —

* **incrementally**, via :func:`repro.index.incremental.apply_updates`
  (delta triangle/4-clique enumeration + localized κ-score repair), and
* **from scratch**, rebuilding the index over the updated graph with
  :func:`repro.index.builders.build_local_index`

— reporting the per-batch wall-clock of both, their speedup, and the
**parity** bit: whether the incremental index is bit-identical (same content
fingerprint, same arrays) to the rebuilt one.  Parity is the experiment's
correctness gate — a ``False`` anywhere means the incremental engine
diverged from the ground truth; the randomized tier-2 sweep
(``tests/test_incremental_sweep.py``) pins the same invariant at scale.

Timing rows vary run to run, so like Figure 4 the spec is ``cacheable=False``
(it must recompute exactly what it measures) and has no golden report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.experiments.datasets import load_dataset
from repro.experiments.formatting import Column, render_plain
from repro.experiments.pipeline import (
    DecompositionCache,
    ExperimentSpec,
    RunConfig,
    run_spec_rows,
)
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index.builders import build_local_index
from repro.index.incremental import EdgeUpdate, apply_updates
from repro.obs.timing import timer

__all__ = [
    "SPEC",
    "IncrementalUpdateRow",
    "random_update_batch",
    "run_incremental_updates",
    "format_incremental_updates",
]


@dataclass(frozen=True)
class IncrementalUpdateRow:
    """One replayed batch: maintenance cost both ways, plus the parity bit."""

    dataset: str
    batch: int
    num_updates: int
    incremental_seconds: float
    rebuild_seconds: float
    speedup: float
    parity: bool
    revision: int


COLUMNS = (
    Column("dataset", 8),
    Column("batch", 5),
    Column("ops", 4, key="num_updates"),
    Column("incr (s)", 9, ".4f", key="incremental_seconds"),
    Column("rebuild (s)", 11, ".4f", key="rebuild_seconds"),
    Column("speedup", 7, ".1f"),
    Column("parity", 6, key=lambda row: "ok" if row.parity else "FAIL"),
    Column("rev", 3, key="revision"),
)


def random_update_batch(
    edges: dict[tuple, float],
    labels: list,
    rng: random.Random,
    size: int,
    insert_fraction: float = 0.3,
    delete_fraction: float = 0.2,
) -> list[EdgeUpdate]:
    """Draw one seeded batch of edge updates valid for the current edge set.

    ``edges`` maps canonical ``(u, v)`` pairs to probabilities and is
    **mutated** to reflect the batch, so successive calls replay a coherent
    stream.  Inserts pick non-adjacent pairs of existing vertices, deletes
    and probability changes pick live edges; each edge is touched at most
    once per batch (the contract of ``apply_updates``).
    """
    updates: list[EdgeUpdate] = []
    touched: set[tuple] = set()
    for _ in range(size):
        roll = rng.random()
        if roll < insert_fraction:
            for _ in range(50):  # rejection-sample a currently-absent pair
                u, v = rng.sample(labels, 2)
                key = tuple(sorted((u, v), key=repr))
                if key not in edges and key not in touched:
                    p = round(rng.uniform(0.2, 1.0), 6)
                    updates.append(EdgeUpdate("insert", key[0], key[1], p))
                    edges[key] = p
                    touched.add(key)
                    break
            continue
        candidates = [e for e in edges if e not in touched]
        if not candidates:
            continue
        key = candidates[rng.randrange(len(candidates))]
        if roll < insert_fraction + delete_fraction:
            updates.append(EdgeUpdate("delete", key[0], key[1]))
            del edges[key]
        else:
            p = round(rng.uniform(0.2, 1.0), 6)
            updates.append(EdgeUpdate("change", key[0], key[1], p))
            edges[key] = p
        touched.add(key)
    return updates


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    datasets = overrides.get("datasets", ("krogan", "flickr"))
    if isinstance(datasets, str):
        datasets = (datasets,)
    cells = []
    for position, dataset in enumerate(datasets):
        cell = {
            "dataset": dataset,
            "theta": overrides.get("theta", 0.05),
            "num_batches": overrides.get("num_batches", 5),
            "batch_size": overrides.get("batch_size", 4),
            "seed": config.seed * 7919 + position,
        }
        if overrides.get("graph") is not None:
            cell["graph"] = overrides["graph"]  # test-only injection; serial path
        cells.append(cell)
    return cells


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[IncrementalUpdateRow]:
    graph = params.get("graph")
    dataset = params["dataset"]
    if graph is None:
        graph = load_dataset(dataset, config.scale)
    theta = params["theta"]
    rng = random.Random(params["seed"])

    labels = sorted(graph.vertices(), key=repr)
    edges = {
        tuple(sorted((u, v), key=repr)): p for u, v, p in graph.edges()
    }
    index = build_local_index(graph, theta)

    rows: list[IncrementalUpdateRow] = []
    for batch in range(1, params["num_batches"] + 1):
        updates = random_update_batch(edges, labels, rng, params["batch_size"])
        if not updates:
            continue

        with timer() as incremental_timer:
            index = apply_updates(index, updates)
        incremental_seconds = incremental_timer.seconds

        updated = ProbabilisticGraph([(u, v, p) for (u, v), p in edges.items()])
        for label in labels:  # the vertex set is fixed under edge updates
            updated.add_vertex(label)
        with timer() as rebuild_timer:
            rebuilt = build_local_index(updated, theta)
        rebuild_seconds = rebuild_timer.seconds

        parity = index.fingerprint == rebuilt.fingerprint and all(
            index.arrays[name].tobytes() == rebuilt.arrays[name].tobytes()
            for name in index.arrays
        )
        rows.append(
            IncrementalUpdateRow(
                dataset=dataset,
                batch=batch,
                num_updates=len(updates),
                incremental_seconds=incremental_seconds,
                rebuild_seconds=rebuild_seconds,
                speedup=rebuild_seconds / max(incremental_seconds, 1e-12),
                parity=parity,
                revision=index.revision,
            )
        )
    return rows


def format_incremental_updates(rows: list[IncrementalUpdateRow]) -> str:
    """Render the replay as one table (a row per batch, datasets stacked)."""
    return render_plain(COLUMNS, rows)


SPEC = ExperimentSpec(
    name="incremental_updates",
    title="Temporal snapshots: incremental index maintenance vs full rebuilds",
    paper_reference="Section 7 (temporal extension)",
    row_type=IncrementalUpdateRow,
    grid=_grid,
    run_cell=_run_cell,
    formatter=format_incremental_updates,
    columns=COLUMNS,
    cacheable=False,  # timing experiment: must recompute what it measures
)


def run_incremental_updates(
    datasets=("krogan", "flickr"),
    theta: float = 0.05,
    num_batches: int = 5,
    batch_size: int = 4,
    scale: str = "small",
    graph: ProbabilisticGraph | None = None,
) -> list[IncrementalUpdateRow]:
    """Replay seeded update streams and compare incremental vs rebuild costs.

    Parameters
    ----------
    datasets, scale:
        Registry datasets to replay against (ignored when ``graph`` is given).
    theta:
        Decomposition threshold.
    num_batches, batch_size:
        Length of the replayed stream and updates per batch.
    graph:
        Optional pre-built graph, used by tests.
    """
    config = RunConfig(scale=scale)
    return run_spec_rows(
        SPEC,
        config,
        overrides={
            "datasets": datasets,
            "theta": theta,
            "num_batches": num_batches,
            "batch_size": batch_size,
            "graph": graph,
        },
    )


def main() -> None:  # pragma: no cover - thin CLI wrapper
    print(format_incremental_updates(run_incremental_updates()))


if __name__ == "__main__":  # pragma: no cover
    main()
