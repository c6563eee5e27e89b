"""Benchmark: the array-native peel engine, with and without telemetry.

Times the CSR peel pipeline (:mod:`repro.core.peel`: flat incidence arrays +
level-synchronous rounds, label translation only for the final score dictionary) on
every bundled dataset analogue.

The benchmark pins the cost of the observability layer: every dataset is
peeled with telemetry disabled and enabled (``REPRO_OBS`` spans +
counters), the two alternating within each repeat, and the median over the
repeats of each repeat's instrumented / uninstrumented ratio is reported as
``obs_overhead``.  Pairing the two runs of a repeat cancels the host's
slow spells, which a ratio of fastest runs (one lucky run per side) does
not.  The instrumented peel must return the engine's scores (asserted).

Results are printed as a table (with the fastest run of each side) and
written to ``BENCH_peel_engine.json``; CI's ``bench-smoke`` job runs this
with ``--repeats 31 --max-obs-overhead 1.03`` (instrumentation may cost at
most 3% geomean over the uninstrumented engine).  Standalone usage::

    python benchmarks/bench_peel_engine.py --scale small --theta 0.3
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
from pathlib import Path

try:
    from repro.core.local import _csr_engine_arrays
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.core.local import _csr_engine_arrays

from repro.core.approximations import DynamicProgrammingEstimator
from repro.core.hybrid import HybridEstimator
from repro.deterministic.cliques import label_triangles
from repro.experiments.datasets import DATASET_NAMES, SCALES, load_dataset
from repro.graph.csr import CSRProbabilisticGraph
from repro.obs import capture as obs_capture
from repro.obs import timer

DEFAULT_JSON = "BENCH_peel_engine.json"
DEFAULT_THETA = 0.3


def engine_csr_scores(csr: CSRProbabilisticGraph, theta: float, estimator) -> dict:
    """The current CSR path: flat level-synchronous peel + one label translation."""
    index, scores = _csr_engine_arrays(csr, theta, estimator)
    return dict(zip(label_triangles(index.triangles, csr.vertex_labels), scores.tolist()))


def _timed(function, *args, instrumented: bool):
    """Return ``(result, seconds)`` of one run.

    ``instrumented=True`` runs with telemetry switched on (a private capture
    sink per run), which is how the obs-overhead ratio is measured against
    the default disabled-mode timing.
    """
    if instrumented:
        with obs_capture(enable=True):
            with timer() as t:
                result = function(*args)
    else:
        with timer() as t:
            result = function(*args)
    return result, t.seconds


def _best_of_both(function, *args, repeats: int = 3) -> tuple[dict, float]:
    """Per side (``False``: uninstrumented, ``True``: instrumented), the result
    and the fastest seconds of ``repeats`` runs, and the median over the
    repeats of each repeat's instrumented / uninstrumented ratio.

    The two sides alternate within each repeat, and the side that runs first
    alternates from one repeat to the next, so that a slowdown of the host
    lands on both sides alike instead of on whichever group of repeats ran
    during it.
    """
    best = {False: (None, math.inf), True: (None, math.inf)}
    ratios = []
    for repeat in range(repeats):
        seconds = {}
        for instrumented in (False, True) if repeat % 2 == 0 else (True, False):
            result, seconds[instrumented] = _timed(function, *args, instrumented=instrumented)
            best[instrumented] = (result, min(best[instrumented][1], seconds[instrumented]))
        ratios.append(seconds[True] / seconds[False])
    return best, statistics.median(ratios)


def run_peel_engine(
    scale: str = "tiny",
    theta: float = DEFAULT_THETA,
    estimator_name: str = "dp",
    repeats: int = 3,
) -> dict:
    """Time the engine peel, with and without telemetry, on every dataset analogue."""
    factory = HybridEstimator if estimator_name == "hybrid" else DynamicProgrammingEstimator
    rows = []
    for name in DATASET_NAMES:
        csr = load_dataset(name, scale=scale).to_csr()
        best, overhead = _best_of_both(
            engine_csr_scores, csr, theta, factory(), repeats=repeats
        )
        (engine, engine_seconds), (obs_engine, obs_seconds) = best[False], best[True]
        assert obs_engine == engine, f"instrumented peel diverged on {name}"
        rows.append(
            {
                "dataset": name,
                "triangles": len(engine),
                "engine_seconds": engine_seconds,
                "obs_seconds": obs_seconds,
                "obs_overhead": overhead,
            }
        )
    overheads = [row["obs_overhead"] for row in rows]
    return {
        "benchmark": "peel_engine",
        "scale": scale,
        "theta": theta,
        "estimator": estimator_name,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
        "summary": {
            "geomean_obs_overhead": math.exp(
                sum(math.log(o) for o in overheads) / len(overheads)
            ),
        },
    }


def format_peel_engine(report: dict) -> str:
    lines = [
        f"scale={report['scale']} theta={report['theta']} "
        f"estimator={report['estimator']} repeats={report['repeats']} "
        "(ovh: median paired ratio)",
        f"{'dataset':<12} {'triangles':>9} "
        f"{'engine (s)':>11} {'obs (s)':>9} {'ovh':>6}",
        "-" * 52,
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['dataset']:<12} {row['triangles']:>9} "
            f"{row['engine_seconds']:>11.4f} "
            f"{row['obs_seconds']:>9.4f} {row['obs_overhead']:>5.2f}x"
        )
    return "\n".join(lines)


def test_peel_engine(benchmark, bench_scale, tmp_path):
    from conftest import run_once

    report = run_once(benchmark, run_peel_engine, scale=bench_scale)
    (tmp_path / DEFAULT_JSON).write_text(json.dumps(report, indent=2))
    print()
    print(format_peel_engine(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=SCALES, default="tiny")
    parser.add_argument("--theta", type=float, default=DEFAULT_THETA)
    parser.add_argument("--estimator", choices=("dp", "hybrid"), default="dp")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        metavar="PATH",
        help=f"write the machine-readable report here (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless the geomean instrumented/uninstrumented "
        "peel ratio stays at or below X (CI acceptance gate)",
    )
    args = parser.parse_args(argv)

    report = run_peel_engine(
        scale=args.scale,
        theta=args.theta,
        estimator_name=args.estimator,
        repeats=args.repeats,
    )
    Path(args.json).write_text(json.dumps(report, indent=2))
    print(format_peel_engine(report))
    summary = report["summary"]
    print(
        f"\nobs overhead {summary['geomean_obs_overhead']:.3f}x · report -> {args.json}"
    )

    if args.max_obs_overhead is not None:
        overhead = summary["geomean_obs_overhead"]
        if overhead > args.max_obs_overhead:
            print(
                f"GATE FAILURE: geomean obs overhead {overhead:.3f}x exceeds "
                f"the allowed {args.max_obs_overhead:.3f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
