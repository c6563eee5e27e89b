"""Benchmark: world-matrix Monte-Carlo verification for g-/w-NuDecomp.

Times the sampling/verification stage of the global (Algorithm 2) and
weakly-global (Algorithm 3) decompositions on every bundled dataset analogue,
with the local pruning stage computed once and excluded (matching the
paper's framing of FG/WG as post-processing).  The world-matrix engine
(:mod:`repro.sampling.world_matrix`) samples all ``n_worlds`` worlds of a
candidate in one RNG call and verifies them batch-wise.

Results are printed as a table and written to a machine-readable JSON file
(default ``BENCH_global_sampling.json``).  Global rows also report the
seconds spent inside ``global_decisions`` (``verify (s)``, the world blocks'
cuts, draws and predicates; the rest of ``matrix (s)`` builds the
candidates), how many of Algorithm 2's candidates the loop verified and how
many of them fall in runs of two or more consecutive candidates with one
edge set, which ``global_decisions`` verifies as one stacked batch per run.

Usable under the pytest-benchmark harness
(``pytest benchmarks/bench_global_sampling.py``) and standalone::

    python benchmarks/bench_global_sampling.py --scale tiny --n-worlds 200
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

try:
    from repro.core.global_nucleus import global_nucleus_decomposition
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.core.global_nucleus import global_nucleus_decomposition

import repro.core.global_nucleus as global_module
from repro.core.local import local_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.experiments.datasets import DATASET_NAMES, SCALES, load_dataset
from repro.obs.timing import timer

DEFAULT_JSON = "BENCH_global_sampling.json"

#: Monte-Carlo sample count of the paper's experiments (ε = δ = 0.1, rounded up).
DEFAULT_N_WORLDS = 200


def _timed(function, *args, **kwargs):
    with timer() as t:
        result = function(*args, **kwargs)
    return result, t.seconds


@contextmanager
def candidate_runs():
    """Record the candidates each global decomposition verifies.

    Yields a dict that collects ``candidates`` (closures verified),
    ``stacked`` (those in runs of two or more consecutive closures with one
    edge set), read from the closures the driver passes to
    ``global_decisions``, and ``verify_seconds``, the time spent inside it.
    """
    tally = {"candidates": 0, "stacked": 0, "verify_seconds": 0.0}
    decisions = global_module.global_decisions

    def recording(index, closures, *args, **kwargs):
        edge_sets = (np.unique(index.clique_edges[cliques]).tobytes() for cliques in closures)
        runs = [len(list(run)) for _, run in itertools.groupby(edge_sets)]
        tally["candidates"] += len(closures)
        tally["stacked"] += sum(length for length in runs if length > 1)
        result, seconds = _timed(decisions, index, closures, *args, **kwargs)
        tally["verify_seconds"] += seconds
        return result

    global_module.global_decisions = recording
    try:
        yield tally
    finally:
        global_module.global_decisions = decisions


def time_sampling(
    graph,
    theta: float,
    n_worlds: int,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("global", "weak"),
):
    """Time the world-matrix verification stage on one graph.

    Returns one row dict per algorithm.
    """
    local = local_nucleus_decomposition(graph, theta)
    k = max(1, local.max_score)
    runners = {"global": global_nucleus_decomposition, "weak": weak_nucleus_decomposition}
    rows = []
    for algorithm in algorithms:
        with candidate_runs() as tally:
            result, seconds = _timed(
                runners[algorithm], graph, k=k, theta=theta, n_samples=n_worlds,
                local_result=local, seed=seed,
            )
        row = {
            "algorithm": algorithm,
            "k": k,
            "triangles": local.num_triangles,
            "matrix_seconds": seconds,
            "matrix_nuclei": len(result),
        }
        if algorithm == "global":
            row["verify_seconds"] = tally["verify_seconds"]
            row["candidates"] = tally["candidates"]
            row["stacked_candidates"] = tally["stacked"]
        rows.append(row)
    return rows


def run_global_sampling(
    scale: str = "tiny",
    theta: float = 0.01,
    n_worlds: int = DEFAULT_N_WORLDS,
    seed: int = 0,
) -> list[dict]:
    """Benchmark every bundled dataset analogue; returns flat row dicts."""
    rows: list[dict] = []
    for name in DATASET_NAMES:
        graph = load_dataset(name, scale=scale)
        for row in time_sampling(graph, theta, n_worlds, seed=seed):
            rows.append({"dataset": name, **row})
    return rows


def build_report(rows: list[dict], scale: str, theta: float, n_worlds: int) -> dict:
    """Assemble the machine-readable benchmark report."""
    return {
        "benchmark": "global_sampling",
        "scale": scale,
        "theta": theta,
        "n_worlds": n_worlds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
    }


def format_global_sampling(rows: list[dict]) -> str:
    lines = [
        f"{'dataset':<12} {'algo':<7} {'k':>2} {'triangles':>9} {'matrix (s)':>10} "
        f"{'verify (s)':>10} {'nuclei':>6} {'candidates':>10} {'stacked':>7}",
        "-" * 82,
    ]
    for row in rows:
        verify = row.get("verify_seconds")
        lines.append(
            f"{row['dataset']:<12} {row['algorithm']:<7} {row['k']:>2} "
            f"{row['triangles']:>9} {row['matrix_seconds']:>10.3f} "
            f"{'-' if verify is None else f'{verify:.3f}':>10} "
            f"{row['matrix_nuclei']:>6} {row.get('candidates', '-'):>10} "
            f"{row.get('stacked_candidates', '-'):>7}"
        )
    return "\n".join(lines)


def test_global_sampling(benchmark, bench_scale, tmp_path):
    from conftest import run_once

    rows = run_once(benchmark, run_global_sampling, scale=bench_scale)
    assert rows
    report = build_report(rows, bench_scale, theta=0.01, n_worlds=DEFAULT_N_WORLDS)
    (tmp_path / DEFAULT_JSON).write_text(json.dumps(report, indent=2))
    print()
    print(format_global_sampling(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=SCALES, default="tiny")
    parser.add_argument("--theta", type=float, default=0.01)
    parser.add_argument("--n-worlds", type=int, default=DEFAULT_N_WORLDS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", default=DEFAULT_JSON, metavar="PATH",
        help=f"write the machine-readable report here (default: {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)

    rows = run_global_sampling(
        scale=args.scale, theta=args.theta, n_worlds=args.n_worlds, seed=args.seed
    )
    report = build_report(rows, args.scale, args.theta, args.n_worlds)
    Path(args.json).write_text(json.dumps(report, indent=2))
    print(format_global_sampling(rows))
    print(f"\nreport -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
