"""Benchmark: adaptive (sequential early-stopping) vs fixed-n Monte-Carlo sampling.

Times the verification stage of the global (Algorithm 2) and weakly-global
(Algorithm 3) decompositions on every bundled dataset analogue, comparing the
fixed ``n_worlds = 200`` per-candidate batches of the paper's experiments
against the adaptive engine of :mod:`repro.sampling.adaptive` (geometric
world chunks + anytime-valid Hoeffding / empirical-Bernstein stopping at the
default 0.95 confidence).  Both paths run on the world-matrix engine with
the local pruning stage computed once and excluded,
so the measured delta is exactly the worlds the sequential test avoids
drawing.

Every row also checks *equal accuracy*: the two runs must report identical
nuclei (edge-set equality).  The ``--min-speedup X`` CI gate fails when the
geometric-mean speedup across the **global**-algorithm rows falls below X or
when any global row's results disagree — the headline claim is "same answer,
X times faster", not "faster".

Results are printed as a table and written to a machine-readable JSON file
(default ``BENCH_adaptive_sampling.json``) that the CI ``bench-smoke`` job
uploads as an artifact.

Usable under the pytest-benchmark harness
(``pytest benchmarks/bench_adaptive_sampling.py``) and standalone::

    python benchmarks/bench_adaptive_sampling.py --scale small --min-speedup 2
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from pathlib import Path

try:
    from repro.core.global_nucleus import global_nucleus_decomposition
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.core.global_nucleus import global_nucleus_decomposition

from repro.core.local import local_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.obs.timing import timer

DEFAULT_JSON = "BENCH_adaptive_sampling.json"

#: Monte-Carlo sample count of the paper's experiments (ε = δ = 0.1, rounded up).
DEFAULT_N_WORLDS = 200

#: Default threshold: high enough that candidate probabilities sit on both
#: sides of it, which is where sequential stopping has decisions to make.
DEFAULT_THETA = 0.4

#: Decision confidence of the adaptive runs.
DEFAULT_CONFIDENCE = 0.95


def _nuclei_key(nuclei) -> list:
    return sorted(
        sorted((u, v) for u, v, _ in nucleus.subgraph.edges()) for nucleus in nuclei
    )


def _timed(function, *args, **kwargs):
    with timer() as t:
        result = function(*args, **kwargs)
    return result, t.seconds


def compare_sampling_strategies(
    graph,
    theta: float,
    n_worlds: int,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("global", "weak"),
):
    """Time fixed vs adaptive sampling on one graph; one row dict per algorithm."""
    local = local_nucleus_decomposition(graph, theta)
    k = max(1, local.max_score)
    runners = {"global": global_nucleus_decomposition, "weak": weak_nucleus_decomposition}
    rows = []
    for algorithm in algorithms:
        run = runners[algorithm]
        fixed_result, fixed_seconds = _timed(
            run, graph, k=k, theta=theta, n_samples=n_worlds,
            local_result=local, seed=seed,
        )
        adaptive_result, adaptive_seconds = _timed(
            run, graph, k=k, theta=theta, n_samples=n_worlds,
            local_result=local, seed=seed,
            sampling="adaptive", confidence=confidence,
        )
        rows.append(
            {
                "algorithm": algorithm,
                "k": k,
                "triangles": local.num_triangles,
                "fixed_seconds": fixed_seconds,
                "adaptive_seconds": adaptive_seconds,
                "speedup": fixed_seconds / max(adaptive_seconds, 1e-9),
                "agree": _nuclei_key(fixed_result) == _nuclei_key(adaptive_result),
                "fixed_nuclei": len(fixed_result),
                "adaptive_nuclei": len(adaptive_result),
            }
        )
    return rows


def run_adaptive_sampling(
    scale: str = "tiny",
    theta: float = DEFAULT_THETA,
    n_worlds: int = DEFAULT_N_WORLDS,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
) -> list[dict]:
    """Benchmark every bundled dataset analogue; returns flat row dicts."""
    rows: list[dict] = []
    for name in DATASET_NAMES:
        graph = load_dataset(name, scale=scale)
        for row in compare_sampling_strategies(
            graph, theta, n_worlds, confidence=confidence, seed=seed
        ):
            rows.append({"dataset": name, **row})
    return rows


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(rows: list[dict]) -> dict:
    """Aggregate speedups per algorithm; the global rows carry the CI gate."""
    global_rows = [row for row in rows if row["algorithm"] == "global"]
    weak_rows = [row for row in rows if row["algorithm"] == "weak"]
    return {
        "global_geomean_speedup": _geomean([r["speedup"] for r in global_rows]),
        "weak_geomean_speedup": _geomean([r["speedup"] for r in weak_rows]),
        "geomean_speedup": _geomean([r["speedup"] for r in rows]),
        "global_all_agree": all(r["agree"] for r in global_rows),
        "agree_fraction": sum(r["agree"] for r in rows) / len(rows),
    }


def build_report(
    rows: list[dict], scale: str, theta: float, n_worlds: int, confidence: float
) -> dict:
    """Assemble the machine-readable benchmark report."""
    return {
        "benchmark": "adaptive_sampling",
        "scale": scale,
        "theta": theta,
        "n_worlds": n_worlds,
        "confidence": confidence,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
        "summary": summarize(rows),
    }


def format_adaptive_sampling(rows: list[dict]) -> str:
    lines = [
        f"{'dataset':<12} {'algo':<7} {'k':>2} {'triangles':>9} "
        f"{'fixed (s)':>9} {'adaptive (s)':>12} {'speedup':>8} {'agree':>5} {'nuclei':>9}",
        "-" * 82,
    ]
    for row in rows:
        nuclei = f"{row['fixed_nuclei']}/{row['adaptive_nuclei']}"
        agree = "yes" if row["agree"] else "NO"
        lines.append(
            f"{row['dataset']:<12} {row['algorithm']:<7} {row['k']:>2} "
            f"{row['triangles']:>9} {row['fixed_seconds']:>9.3f} "
            f"{row['adaptive_seconds']:>12.3f} {row['speedup']:>7.2f}x "
            f"{agree:>5} {nuclei:>9}"
        )
    return "\n".join(lines)


def test_adaptive_sampling(benchmark, bench_scale, tmp_path):
    from conftest import run_once

    rows = run_once(benchmark, run_adaptive_sampling, scale=bench_scale)
    assert rows
    report = build_report(
        rows, bench_scale, theta=DEFAULT_THETA,
        n_worlds=DEFAULT_N_WORLDS, confidence=DEFAULT_CONFIDENCE,
    )
    (tmp_path / DEFAULT_JSON).write_text(json.dumps(report, indent=2))
    # The acceptance headline: same global nuclei, faster verification.
    summary = report["summary"]
    assert summary["global_all_agree"], "adaptive global results diverged from fixed-n"
    assert summary["global_geomean_speedup"] > 1.0, (
        f"expected an adaptive speedup, got {summary['global_geomean_speedup']:.2f}x"
    )
    print()
    print(format_adaptive_sampling(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("tiny", "small"), default="tiny")
    parser.add_argument("--theta", type=float, default=DEFAULT_THETA)
    parser.add_argument("--n-worlds", type=int, default=DEFAULT_N_WORLDS)
    parser.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", default=DEFAULT_JSON, metavar="PATH",
        help=f"write the machine-readable report here (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="exit non-zero unless the geometric-mean speedup across the "
        "global-algorithm rows is at least X with every global row agreeing "
        "(the equal-accuracy CI gate)",
    )
    args = parser.parse_args(argv)

    rows = run_adaptive_sampling(
        scale=args.scale, theta=args.theta, n_worlds=args.n_worlds,
        confidence=args.confidence, seed=args.seed,
    )
    report = build_report(rows, args.scale, args.theta, args.n_worlds, args.confidence)
    Path(args.json).write_text(json.dumps(report, indent=2))
    print(format_adaptive_sampling(rows))
    summary = report["summary"]
    print(
        f"\nglobal geomean {summary['global_geomean_speedup']:.2f}x · "
        f"weak geomean {summary['weak_geomean_speedup']:.2f}x · "
        f"agree {summary['agree_fraction']:.0%} · report -> {args.json}"
    )

    if args.min_speedup is not None:
        failed = False
        if not summary["global_all_agree"]:
            for row in rows:
                if row["algorithm"] == "global" and not row["agree"]:
                    print(
                        f"ACCURACY: {row['dataset']}/global adaptive nuclei differ "
                        "from the fixed-n baseline",
                        file=sys.stderr,
                    )
            failed = True
        if summary["global_geomean_speedup"] < args.min_speedup:
            print(
                f"REGRESSION: global geomean speedup "
                f"{summary['global_geomean_speedup']:.2f}x is below the "
                f"{args.min_speedup:.2f}x gate",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
