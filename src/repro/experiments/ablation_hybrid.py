"""Ablation A — hybrid selector vs single-approximation estimators.

The §5.3 hybrid estimator is the paper's "AP" algorithm.  This ablation (an
extension beyond the paper's figures) quantifies what each individual
approximation would achieve on its own, compared against the hybrid and the
exact DP, on a real dataset analogue:

* the average absolute nucleus-score error versus DP,
* the percentage of triangles with any error,
* the wall-clock time of the full decomposition.

It also reports how often each branch of the hybrid selector fired, which
shows how much work escapes to the DP fallback.  Because the reported times
*are* the measurement, the cells bypass the decomposition cache entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.approximations import (
    BinomialEstimator,
    DynamicProgrammingEstimator,
    NormalEstimator,
    PoissonEstimator,
    SupportEstimator,
    TranslatedPoissonEstimator,
)
from repro.core.hybrid import HybridEstimator
from repro.core.local import local_nucleus_decomposition
from repro.experiments.datasets import load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.obs.timing import timer

__all__ = ["SPEC", "AblationHybridRow"]


@dataclass(frozen=True)
class AblationHybridRow:
    """Accuracy and runtime of one estimator relative to exact DP."""

    dataset: str
    theta: float
    estimator: str
    seconds: float
    average_error: float
    percent_with_error: float
    selections: dict[str, int] = field(default_factory=dict)


def _selections_text(row: AblationHybridRow) -> str:
    if not row.selections:
        return "-"
    return ", ".join(f"{k}={v}" for k, v in sorted(row.selections.items()))


COLUMNS = (
    Column("estimator", 20),
    Column("time (s)", 9, ".4f", key="seconds"),
    Column("avg error", 10, ".4f", key="average_error"),
    Column("% error", 8, ".2f", key="percent_with_error"),
    Column("selections", 0, key=_selections_text),
)


def _default_estimators() -> list[SupportEstimator]:
    return [
        DynamicProgrammingEstimator(),
        HybridEstimator(),
        PoissonEstimator(),
        TranslatedPoissonEstimator(),
        NormalEstimator(),
        BinomialEstimator(),
    ]


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    cell = {
        "dataset": overrides.get("dataset", "flickr"),
        "theta": overrides.get("theta", 0.2),
    }
    if overrides.get("graph") is not None:
        cell["graph"] = overrides["graph"]  # test-only injection; serial path
    if overrides.get("estimators") is not None:
        cell["estimators"] = overrides["estimators"]
    return [cell]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[AblationHybridRow]:
    graph = params.get("graph")
    if graph is None:
        graph = load_dataset(params["dataset"], config.scale)
    theta = params["theta"]
    estimators = (
        list(params["estimators"])
        if params.get("estimators") is not None
        else _default_estimators()
    )

    with timer() as dp_timer:
        exact = local_nucleus_decomposition(
            graph,
            theta,
            estimator=DynamicProgrammingEstimator(),
            kernel=config.kernel,
        )
    dp_seconds = dp_timer.seconds

    rows: list[AblationHybridRow] = []
    for estimator in estimators:
        if isinstance(estimator, DynamicProgrammingEstimator):
            seconds, result = dp_seconds, exact
        else:
            with timer() as t:
                result = local_nucleus_decomposition(
                    graph, theta, estimator=estimator, kernel=config.kernel,
                )
            seconds = t.seconds
        total = len(exact.scores)
        errors = [
            abs(exact.scores[t] - result.scores.get(t, exact.scores[t]))
            for t in exact.scores
        ]
        differing = sum(1 for e in errors if e > 0)
        rows.append(
            AblationHybridRow(
                dataset=params["dataset"],
                theta=theta,
                estimator=estimator.name,
                seconds=seconds,
                average_error=(sum(errors) / total) if total else 0.0,
                percent_with_error=(100.0 * differing / total) if total else 0.0,
                selections=dict(result.estimator_selections),
            )
        )
    return rows


SPEC = ExperimentSpec(
    name="ablation_hybrid",
    title="Hybrid selector vs single-approximation estimators (accuracy + time)",
    paper_reference="Ablation A (beyond the paper)",
    row_type=AblationHybridRow,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
    cacheable=False,
)
