"""Benchmark: incremental index maintenance vs rebuild-from-scratch.

Builds a :class:`repro.index.NucleusIndex` for each bundled dataset analogue
and then replays a seeded stream of **single-edge updates** — probability
changes, deletes and inserts, weighted six re-prices per insert/delete pair
(see ``_UPDATE_CYCLE``).  After every update the index is maintained twice —

* **incremental** — :func:`repro.index.incremental.apply_updates`: canonical
  CSR delta, splice of the triangle/4-clique index, localized κ-score
  repair, snapshot;
* **rebuild** — ``build_local_index`` over the updated graph from scratch

— and the two indexes are asserted bit-identical (same content fingerprint,
same arrays) before the next update is drawn, so the timing comparison is
between two paths producing the same answer.

The first ``apply_updates`` call on a freshly built index is reported
separately as ``warmup_seconds`` and left out of the per-update rows, which
measure steady-state maintenance, what a temporal deployment pays per batch.
It splices the triangle/4-clique index the build handed over, like every
later update, but pays the first call's one-off costs.

Results are printed as a table, with the median incremental and rebuild
times of each update kind (change, insert, delete) in a second one, and
written to ``BENCH_incremental.json`` (those medians under each row's
``by_op``).  After the timed loop the stream is replayed once on a fresh
build with telemetry on, and a third table gives the median time of each
phase of an update — the ``index.splice``, ``peel.repair`` and
``index.snapshot`` spans (``docs/OBSERVABILITY.md``) — also under each row's
``phase_median_seconds``; the timed loop runs with telemetry off.  A fourth
table splits the ``peel.repair`` span by update kind (``repair_by_op``):
its median seconds, its median ``closure`` size, and how many repairs grew
no closure at all (a delete or a re-price that lowers ``p`` has no rising
seed).  CI's
``bench-smoke`` job uploads the report and gates with
``--min-speedup 5``: across the benchmarked datasets the *geometric mean* of
the per-dataset speedups must be at least 5x.  The default dataset list is
the two largest bundled analogues (pokec, ljournal) at the low-threshold
``theta=0.001`` regime — the deepest decompositions, where a single-edge
update genuinely stays local.  The smaller analogues (krogan, dblp, biomine,
flickr) are measurable via ``--datasets`` but excluded from the default: at
``scale=small`` a typical re-price there reaches a large fraction of the few
hundred triangles, so both paths are dominated by snapshot assembly and the
comparison measures overhead, not locality.  Standalone usage::

    python benchmarks/bench_incremental.py --scale small --min-speedup 5
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import statistics
import sys
from pathlib import Path

try:
    from repro.index import build_local_index
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.index import build_local_index

from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.index.incremental import EdgeUpdate, apply_updates
from repro.obs.spans import capture
from repro.obs.timing import timer

DEFAULT_JSON = "BENCH_incremental.json"
DEFAULT_DATASETS = ("pokec", "ljournal")
DEFAULT_THETA = 0.001
DEFAULT_UPDATES = 16

# Six probability re-prices per insert/delete pair: in the uncertain-graph
# settings the paper targets (PPI confidence scores, influence weights) edge
# probabilities are continually re-estimated while the topology itself churns
# slowly, so a temporal stream is dominated by re-prices.
_UPDATE_CYCLE = ("change",) * 6 + ("delete", "insert")
_UPDATE_KINDS = ("change", "insert", "delete")

#: The children of the ``index.update`` span, in the order an update runs them.
_PHASES = ("index.splice", "peel.repair", "index.snapshot")


def _single_edge_update(edges, labels, rng, step) -> EdgeUpdate:
    """Draw one edge update, following the weighted ``_UPDATE_CYCLE``.

    ``edges`` (canonical pair -> probability) is mutated to stay in sync
    with the stream, keeping every drawn update valid for the live graph.
    """
    op = _UPDATE_CYCLE[step % len(_UPDATE_CYCLE)]
    if op == "insert":
        while True:
            u, v = rng.sample(labels, 2)
            key = tuple(sorted((u, v), key=repr))
            if key not in edges:
                break
        p = round(rng.uniform(0.2, 1.0), 6)
        edges[key] = p
        return EdgeUpdate("insert", key[0], key[1], p)
    key = list(edges)[rng.randrange(len(edges))]
    if op == "delete":
        del edges[key]
        return EdgeUpdate("delete", key[0], key[1])
    # Re-prices model probability re-estimation: the confidence of an
    # existing edge is refined by up to ±10%, not redrawn from scratch.
    p = round(min(1.0, max(0.05, edges[key] * rng.uniform(0.9, 1.1))), 6)
    edges[key] = p
    return EdgeUpdate("change", key[0], key[1], p)


def _assert_parity(incremental, rebuilt, dataset: str, step: int) -> None:
    assert incremental.fingerprint == rebuilt.fingerprint, (
        f"{dataset} update {step}: incremental index fingerprint diverged "
        "from the from-scratch rebuild"
    )
    for name in incremental.arrays:
        assert (
            incremental.arrays[name].tobytes() == rebuilt.arrays[name].tobytes()
        ), f"{dataset} update {step}: array {name!r} diverged from the rebuild"


def _phase_medians(graph, theta: float, stream: list) -> tuple[dict, dict]:
    """Median seconds of each update phase over a traced replay of ``stream``.

    The replay starts from a fresh build and, like the timed loop, leaves
    the first update out of the medians.  Also returns, per update kind, the
    ``peel.repair`` span's median seconds and closure size and the number
    of repairs with an empty closure.
    """
    index = apply_updates(build_local_index(graph, theta), stream[:1])
    with capture(enable=True) as sink:
        for update in stream[1:]:
            index = apply_updates(index, [update])
    seconds = {phase: [] for phase in _PHASES}
    repairs = {op: [] for op in _UPDATE_KINDS}
    for update, trace in zip(stream[1:], sink.traces()):
        for child in trace["children"]:
            if child["name"] in seconds:
                seconds[child["name"]].append(child["wall_seconds"])
            if child["name"] == "peel.repair":
                repairs[update.op].append((child["wall_seconds"], child["attrs"]["closure"]))
    by_op = {
        op: {
            "count": len(rows),
            "median_seconds": statistics.median(wall for wall, _ in rows),
            "median_closure": statistics.median(closure for _, closure in rows),
            "closure_free": sum(closure == 0 for _, closure in rows),
        }
        for op, rows in repairs.items()
        if rows
    }
    return {phase: statistics.median(values) for phase, values in seconds.items()}, by_op


def _bench_dataset(
    dataset: str, scale: str, theta: float, num_updates: int, seed: int
) -> dict:
    graph = load_dataset(dataset, scale=scale)
    rng = random.Random(seed)
    labels = sorted(graph.vertices(), key=repr)
    edges = {tuple(sorted((u, v), key=repr)): p for u, v, p in graph.edges()}

    with timer() as build_timer:
        index = build_local_index(graph, theta)
    build_seconds = build_timer.seconds

    # The first update is timed apart: it pays the first call's one-off
    # costs.  Its triangle index comes from the build, not from enumerating.
    warm = _single_edge_update(edges, labels, rng, step=0)
    with timer() as warm_timer:
        index = apply_updates(index, [warm])
    warmup_seconds = warm_timer.seconds

    stream = [warm]
    updates = []
    incremental_total = 0.0
    rebuild_total = 0.0
    from repro.graph.probabilistic_graph import ProbabilisticGraph

    for step in range(1, num_updates + 1):
        update = _single_edge_update(edges, labels, rng, step)
        stream.append(update)

        with timer() as incremental_timer:
            index = apply_updates(index, [update])
        incremental_seconds = incremental_timer.seconds

        updated = ProbabilisticGraph([(u, v, p) for (u, v), p in edges.items()])
        for label in labels:  # the vertex set is fixed under edge updates
            updated.add_vertex(label)
        with timer() as rebuild_timer:
            rebuilt = build_local_index(updated, theta)
        rebuild_seconds = rebuild_timer.seconds

        _assert_parity(index, rebuilt, dataset, step)
        updates.append(
            {
                "op": update.op,
                "incremental_seconds": incremental_seconds,
                "rebuild_seconds": rebuild_seconds,
                "speedup": rebuild_seconds / max(incremental_seconds, 1e-12),
            }
        )
        incremental_total += incremental_seconds
        rebuild_total += rebuild_seconds

    by_op = {}
    for op in _UPDATE_KINDS:
        rows = [row for row in updates if row["op"] == op]
        if rows:
            by_op[op] = {
                "count": len(rows),
                "incremental_median_seconds": statistics.median(
                    row["incremental_seconds"] for row in rows
                ),
                "rebuild_median_seconds": statistics.median(
                    row["rebuild_seconds"] for row in rows
                ),
            }
    phase_medians, repair_by_op = _phase_medians(graph, theta, stream)
    return {
        "dataset": dataset,
        "num_vertices": index.num_vertices,
        "num_triangles": index.num_triangles,
        "build_seconds": build_seconds,
        "warmup_seconds": warmup_seconds,
        "num_updates": num_updates,
        "incremental_seconds": incremental_total,
        "rebuild_seconds": rebuild_total,
        "speedup": rebuild_total / max(incremental_total, 1e-12),
        "revision": index.revision,
        "by_op": by_op,
        "phase_median_seconds": phase_medians,
        "repair_by_op": repair_by_op,
        "updates": updates,
    }


def run_incremental(
    datasets=DEFAULT_DATASETS,
    scale: str = "small",
    theta: float = DEFAULT_THETA,
    num_updates: int = DEFAULT_UPDATES,
    seed: int = 0,
) -> dict:
    """Replay the update stream on every dataset; returns the report dict."""
    rows = [
        _bench_dataset(dataset, scale, theta, num_updates, seed + position)
        for position, dataset in enumerate(datasets)
    ]
    speedups = [row["speedup"] for row in rows]
    return {
        "benchmark": "incremental",
        "scale": scale,
        "theta": theta,
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
        "summary": {
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "geomean_speedup": math.exp(
                sum(math.log(s) for s in speedups) / len(speedups)
            ),
        },
    }


def format_incremental(report: dict) -> str:
    lines = [
        f"scale={report['scale']} theta={report['theta']} seed={report['seed']} "
        "(parity asserted after every update)",
        f"{'dataset':<10} {'tris':>6} {'updates':>7} {'incr (s)':>9} "
        f"{'rebuild (s)':>11} {'speedup':>8} {'warmup (s)':>11}",
        "-" * 68,
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['dataset']:<10} {row['num_triangles']:>6} "
            f"{row['num_updates']:>7} {row['incremental_seconds']:>9.4f} "
            f"{row['rebuild_seconds']:>11.4f} {row['speedup']:>7.1f}x "
            f"{row['warmup_seconds']:>11.4f}"
        )
    lines += [
        "",
        "median per update kind",
        f"{'dataset':<10} {'kind':<7} {'updates':>7} {'incr (ms)':>10} "
        f"{'rebuild (ms)':>12} {'speedup':>8}",
        "-" * 59,
    ]
    for row in report["rows"]:
        for op, kind in row["by_op"].items():
            incremental = kind["incremental_median_seconds"]
            rebuild = kind["rebuild_median_seconds"]
            lines.append(
                f"{row['dataset']:<10} {op:<7} {kind['count']:>7} "
                f"{1e3 * incremental:>10.2f} {1e3 * rebuild:>12.2f} "
                f"{rebuild / max(incremental, 1e-12):>7.1f}x"
            )
    lines += [
        "",
        "median per phase of an update (traced replay)",
        f"{'dataset':<10} {'splice (ms)':>11} {'repair (ms)':>11} {'snapshot (ms)':>13}",
        "-" * 48,
    ]
    for row in report["rows"]:
        splice, repair, snapshot = (row["phase_median_seconds"][phase] for phase in _PHASES)
        lines.append(
            f"{row['dataset']:<10} {1e3 * splice:>11.2f} {1e3 * repair:>11.2f} "
            f"{1e3 * snapshot:>13.2f}"
        )
    lines += [
        "",
        "peel.repair per update kind (traced replay)",
        f"{'dataset':<10} {'kind':<7} {'updates':>7} {'repair (ms)':>11} "
        f"{'closure':>8} {'no closure':>10}",
        "-" * 58,
    ]
    for row in report["rows"]:
        for op, kind in row["repair_by_op"].items():
            lines.append(
                f"{row['dataset']:<10} {op:<7} {kind['count']:>7} "
                f"{1e3 * kind['median_seconds']:>11.2f} {kind['median_closure']:>8g} "
                f"{kind['closure_free']:>10}"
            )
    return "\n".join(lines)


def test_incremental(benchmark, bench_scale, tmp_path):
    from conftest import run_once

    report = run_once(benchmark, run_incremental, scale=bench_scale)
    (tmp_path / DEFAULT_JSON).write_text(json.dumps(report, indent=2))
    # Parity is asserted inside the run; the headline only gates at small
    # scale — tiny graphs are snapshot-bound and measure overhead.
    if bench_scale == "small":
        assert report["summary"]["geomean_speedup"] >= 5.0
    print()
    print(format_incremental(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", nargs="+", choices=DATASET_NAMES, default=list(DEFAULT_DATASETS)
    )
    parser.add_argument("--scale", choices=("tiny", "small"), default="small")
    parser.add_argument("--theta", type=float, default=DEFAULT_THETA)
    parser.add_argument("--updates", type=int, default=DEFAULT_UPDATES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", default=DEFAULT_JSON, metavar="PATH",
        help=f"write the machine-readable report here (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="exit non-zero unless the geometric mean of the per-dataset "
             "speedups is at least X (CI acceptance gate)",
    )
    args = parser.parse_args(argv)

    report = run_incremental(
        datasets=args.datasets,
        scale=args.scale,
        theta=args.theta,
        num_updates=args.updates,
        seed=args.seed,
    )
    Path(args.json).write_text(json.dumps(report, indent=2))
    print(format_incremental(report))
    summary = report["summary"]
    print(
        f"\ngeomean speedup {summary['geomean_speedup']:.1f}x · "
        f"min {summary['min_speedup']:.1f}x · "
        f"max {summary['max_speedup']:.1f}x · report -> {args.json}"
    )

    if args.min_speedup is not None and summary["geomean_speedup"] < args.min_speedup:
        print(
            f"GATE FAILURE: geometric-mean incremental speedup "
            f"{summary['geomean_speedup']:.1f}x is below the required "
            f"{args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
