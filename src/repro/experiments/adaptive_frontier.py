"""Experiment: adaptive-sampling accuracy-vs-speed frontier.

The adaptive Monte-Carlo engine (:mod:`repro.sampling.adaptive`) stops each
candidate's world sampling as soon as anytime-valid confidence bounds settle
its θ decision.  This experiment charts the trade the confidence knob buys:
for every dataset analogue and a sweep of confidence levels, it runs the
global (FG) and weakly-global (WG) decompositions once with the fixed
``n = 200``-world baseline and once adaptively, and reports the speedup,
whether the two runs report identical nuclei (the equal-accuracy check — by
construction the adaptive trajectory errs with probability at most
``1 − confidence`` per candidate), the mean worlds drawn per candidate, and
the fraction of candidates whose decision settled before the world cap.
The fixed baseline is timed once per algorithm and is the reference of every
confidence row; the pruning local decomposition comes from the pipeline's
decomposition cache and is excluded from the timings, as in Figure 5.

World consumption is read from the ``repro_sampling_worlds_per_candidate``
histogram and the early-stop/exhausted counters the engine records, by
diffing the telemetry registry around the adaptive run (telemetry is
force-enabled for the cell and restored afterwards).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.timing import timer
from repro.sampling.adaptive import WORLD_COUNT_BUCKETS

__all__ = ["SPEC", "AdaptiveFrontierRow"]

#: Confidence levels swept against the fixed baseline.
DEFAULT_CONFIDENCES = (0.9, 0.95, 0.99)


@dataclass(frozen=True)
class AdaptiveFrontierRow:
    """One (dataset, algorithm, confidence) point of the frontier."""

    dataset: str
    algorithm: str
    theta: float
    k: int
    confidence: float
    fixed_seconds: float
    adaptive_seconds: float
    speedup: float
    agree: bool
    candidates: int
    mean_worlds: float
    early_stop_fraction: float


COLUMNS = (
    Column("dataset", 10),
    Column("algo", 6, key="algorithm"),
    Column("k", 3),
    Column("conf", 5, ".2f", key="confidence"),
    Column("fixed (s)", 9, ".3f", key="fixed_seconds"),
    Column("adapt (s)", 9, ".3f", key="adaptive_seconds"),
    Column("speedup", 8, ".2f", key="speedup"),
    Column("agree", 5),
    Column("mean worlds", 11, ".1f", key="mean_worlds"),
    Column("early%", 6, ".2f", key="early_stop_fraction"),
)


def _nuclei_key(nuclei) -> list:
    """Canonical edge-set signature of a decomposition result."""
    return sorted(
        sorted((u, v) for u, v, _ in nucleus.subgraph.edges()) for nucleus in nuclei
    )


def _worlds_histogram(model: str):
    return obs_registry.histogram(
        "repro_sampling_worlds_per_candidate",
        buckets=WORLD_COUNT_BUCKETS,
        model=model,
    )


def _telemetry_state(model: str) -> tuple[int, float, float, float]:
    histogram = _worlds_histogram(model)
    early = obs_registry.counter("repro_sampling_early_stops_total", model=model)
    exhausted = obs_registry.counter("repro_sampling_exhausted_total", model=model)
    return histogram.count, histogram.sum, early.value, exhausted.value


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    names = overrides.get("names", DATASET_NAMES)
    return [
        {
            "dataset": name,
            "theta": overrides.get("theta", 0.4),
            "n_samples": overrides.get("n_samples", 200),
            "confidences": list(overrides.get("confidences", DEFAULT_CONFIDENCES)),
            "seed": overrides.get("seed", config.seed),
        }
        for name in names
    ]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[AdaptiveFrontierRow]:
    graph = load_dataset(params["dataset"], config.scale)
    theta, n_samples, seed = params["theta"], params["n_samples"], params["seed"]
    local = cache.local(
        graph, theta, dataset=params["dataset"], kernel=config.kernel
    )
    k = max(1, local.max_score)
    runners = {"global": global_nucleus_decomposition, "weak": weak_nucleus_decomposition}

    rows: list[AdaptiveFrontierRow] = []
    was_enabled = obs_config.enabled()
    obs_config.configure(enabled=True)
    try:
        for algorithm, run in runners.items():
            with timer() as fixed_timer:
                fixed = run(
                    graph, k=k, theta=theta, n_samples=n_samples,
                    local_result=local, seed=seed,
                )
            fixed_key = _nuclei_key(fixed)
            for confidence in params["confidences"]:
                before = _telemetry_state(algorithm)
                with timer() as adaptive_timer:
                    adaptive = run(
                        graph, k=k, theta=theta, n_samples=n_samples,
                        local_result=local, seed=seed,
                        sampling="adaptive", confidence=confidence,
                        n_worlds_max=config.n_worlds_max,
                    )
                after = _telemetry_state(algorithm)
                candidates = after[0] - before[0]
                worlds = after[1] - before[1]
                early = after[2] - before[2]
                rows.append(
                    AdaptiveFrontierRow(
                        dataset=params["dataset"],
                        algorithm=algorithm,
                        theta=theta,
                        k=k,
                        confidence=confidence,
                        fixed_seconds=fixed_timer.seconds,
                        adaptive_seconds=adaptive_timer.seconds,
                        speedup=fixed_timer.seconds / max(adaptive_timer.seconds, 1e-9),
                        agree=_nuclei_key(adaptive) == fixed_key,
                        candidates=candidates,
                        mean_worlds=worlds / candidates if candidates else 0.0,
                        early_stop_fraction=early / candidates if candidates else 0.0,
                    )
                )
    finally:
        obs_config.configure(enabled=was_enabled)
    return rows


SPEC = ExperimentSpec(
    name="adaptive_frontier",
    title="Adaptive-sampling accuracy-vs-speed frontier (confidence sweep)",
    paper_reference="Section 5.2 (beyond the paper)",
    row_type=AdaptiveFrontierRow,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
    cacheable=True,
)
