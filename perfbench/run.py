"""Benchmark of the repro library: one workload per run, seeded inputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload local --seed 1 --seconds 8 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it describe the run (commit, versions,
engine, workload parameters, sample counts).  See ``perfbench/README.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
WORKER = "PERFBENCH_WORKER"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is the smoke-test size")
    return parser.parse_args(argv)


def _worker_environment() -> dict:
    """A fixed hash seed, telemetry off, one BLAS thread, this checkout's ``src``."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(SOURCE)
    env[WORKER] = "1"
    return env


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _engine() -> dict:
    """The engine the facade resolves for the benchmark's calls (description only)."""
    import inspect

    import repro

    try:
        from repro.kernels import resolve_kernel
        from repro.sampling import hoeffding_sample_size

        defaults = inspect.signature(repro.global_nucleus_decomposition).parameters
        kernel = defaults["kernel"].default
        return {
            "backend": "csr",
            "kernel_requested": kernel,
            "kernel_resolved": resolve_kernel(kernel, warn=False),
            "sampling": defaults["sampling"].default,
            "worlds_per_candidate": hoeffding_sample_size(0.1, 0.1),
            "n_jobs": defaults["n_jobs"].default,
        }
    except (ImportError, AttributeError, KeyError) as exc:  # knobs renamed or removed
        return {"backend": "csr", "unresolved": f"{type(exc).__name__}: {exc}"}


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _measure(workload, seconds: float, tracer=None) -> list:
    """Repeat the workload while the next repetition is expected to end in time."""
    from workloads import Calibrator

    workload.calibrator = Calibrator()
    reps = []
    start = time.perf_counter()
    while True:
        gc.collect()
        reps.append(workload.run(tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def _scaled(rep) -> list[float]:
    """A repetition's operation latencies at calibration speed."""
    from workloads import CALIBRATION_S

    return [x * CALIBRATION_S / c for x, c in zip(rep.latencies, rep.calibrations)]


def _op_p50(reps, cpu_bound: bool) -> float:
    """Median operation latency in seconds.

    CPU-bound: the median over repetitions of the median scaled latency.
    Otherwise: the median latency of the fastest repetition, the one least
    disturbed by the host.
    """
    if cpu_bound:
        return statistics.median(statistics.median(_scaled(rep)) for rep in reps)
    return statistics.median(_fastest(reps).latencies)


def _ops_per_s(reps, cpu_bound: bool) -> float:
    """Operations per second of timed time, chosen as in :func:`_op_p50`."""
    if cpu_bound:
        return statistics.median(rep.attempted / sum(_scaled(rep)) for rep in reps)
    best = _fastest(reps)
    return best.attempted / best.seconds


def _fastest(reps):
    return min(reps, key=lambda rep: rep.seconds / rep.attempted)


def _end_to_end(reps, setup_s: float, cpu_bound: bool) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (_op_p50(reps, cpu_bound) * 1000.0, "ms"),
        "ops_per_s": (_ops_per_s(reps, cpu_bound), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _service_metrics(reps, tracer) -> dict:
    """Serve-layer metrics read from the service (zero on other workloads)."""
    import tracing

    batching = [rep.service["batching"] for rep in reps if rep.service]
    cache = [rep.service["cache"] for rep in reps if rep.service]
    if not batching:
        return {name: 0.0 for name in tracing.SERVICE_METRICS}
    hits = sum(c["hits"] for c in cache)
    lookups = hits + sum(c["misses"] for c in cache)
    _, total, calls = tracer.self_and_total()
    engine_s = sum(t for name, t in total.items() if name.startswith("query."))
    engine_calls = sum(n for name, n in calls.items() if name.startswith("query."))
    latencies = [x for rep in reps for x in rep.latencies]
    return {
        "query.cache_hit_rate": hits / lookups if lookups else 0.0,
        "serve.batch_mean": sum(b["requests_batched"] for b in batching)
        / max(1, sum(b["batches_flushed"] for b in batching)),
        "serve.fallback_batches": sum(b["fallback_batches"] for b in batching) / len(reps),
        "serve.wait_p50_ms": (statistics.median(latencies)
                              - engine_s / max(1, engine_calls)) * 1000.0,
    }


def _traced(workload, seconds: float) -> tuple[list, list, dict, dict]:
    """Untraced then traced repetitions; returns both, the metrics and a report."""
    import tracing

    plain = _measure(workload, seconds / 2)
    tracer = tracing.Tracer()
    hooks = tracing.HookSet(tracer)
    hooks.install()
    try:
        traced = _measure(workload, seconds / 2, tracer)
    finally:
        hooks.remove()
    operations = sum(rep.attempted for rep in traced)
    metrics = tracing.layer_metrics(tracer, operations)
    metrics.update(_service_metrics(traced, tracer))
    metrics["trace.overhead"] = _op_p50(traced, workload.cpu_bound) / _op_p50(
        plain, workload.cpu_bound
    )
    calls = tracing.hook_calls(tracer)
    idle = [span for span, n in calls.items()
            if n and span.startswith(tracing.IDLE.get(workload.family, ()))]
    _, total, _ = tracer.self_and_total()
    op_seconds = sum(x for rep in traced for x in rep.latencies) / operations
    report = {
        "hook_calls": calls,
        "unresolved_hooks": hooks.unresolved,
        "idle_hooks_fired": idle,
        "inclusive_share_of_op": {
            name: seconds_ / operations / op_seconds
            for name, seconds_ in sorted(total.items()) if not name.startswith("op.")
        },
        "spans": tracer.export(),
    }
    return plain, traced, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SOURCE}; run from a checkout", file=sys.stderr)
        return 2
    if os.environ.get(WORKER) != "1":
        # A fresh interpreter with a fixed environment for every run.
        argv = sys.argv[1:] if argv is None else list(argv)
        os.execve(sys.executable, [sys.executable, __file__, *argv], _worker_environment())

    sys.path.insert(0, str(SOURCE))
    import numpy

    import repro
    import tracing
    import workloads

    if not Path(repro.__file__).resolve().is_relative_to(SOURCE):
        print(f"error: repro imported from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    factory = workloads.WORKLOADS.get(args.workload)
    if factory is None:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up is CPU-bound: each set-up is scaled by the calibration around it.
    calibrate = workloads.calibrate
    calibrate()  # the first call pays for numpy's and the allocator's warm-up
    calibrations = [calibrate()]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = factory(args.seed, args.size)
        workload.prepare()
        workload.warm_up()
        setups.append(time.perf_counter() - start)
        calibrations.append(calibrate())
    scaled = [
        elapsed * 2 * workloads.CALIBRATION_S / (before + after)
        for elapsed, before, after in zip(setups, calibrations, calibrations[1:])
    ]
    setup_s = import_s * workloads.CALIBRATION_S / calibrations[0] + statistics.median(scaled)
    failed = workload.reference_failures()
    gc.collect()
    gc.freeze()

    report = {}
    if args.trace:
        plain, reps, metrics, report = _traced(workload, args.seconds)
        units = {m["name"]: m["unit"] for m in tracing.per_layer_catalogue()}
        result_metrics = {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}
    else:
        plain = reps = _measure(workload, args.seconds)
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, (value, unit)
                          in _end_to_end(reps, setup_s, factory.cpu_bound).items()}
    attempted = 1 + sum(rep.attempted for rep in plain + (reps if args.trace else []))
    failed += sum(rep.failed for rep in plain + (reps if args.trace else []))

    latencies = [x for rep in plain for x in rep.latencies]
    description = {
        "workload": args.workload,
        "family": factory.family,
        "why": factory.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "engine": _engine(),
        "parameters": workload.describe(),
        "calibration_speed": factory.cpu_bound,
        "samples": {
            "setups": len(setups),
            "setup_s_each_raw": setups,
            "import_s_raw": import_s,
            "setup_calibration_ms": [c * 1000.0 for c in calibrations],
            "calibration_ms": [c * 1000.0 for rep in plain for c in rep.calibrations],
            "repetitions": len(plain),
            "operations": len(latencies),
            "op_p99_ms_raw": _percentile(latencies, 0.99) * 1000.0,
            "repetition_p50_ms_raw": [statistics.median(rep.latencies) * 1000.0
                                      for rep in plain],
        },
    }
    for key, value in description.items():
        print(f"# {key}: {json.dumps(value)}")
    for key in ("hook_calls", "unresolved_hooks", "idle_hooks_fired"):
        if key in report:
            print(f"# {key}: {json.dumps(report[key])}")
    if report.get("unresolved_hooks") or report.get("idle_hooks_fired"):
        print("warning: hooks unresolved or fired where predicted idle; see above",
              file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**description, **report, "metrics": result_metrics}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
