"""Experiment: Table 2 — accuracy of the approximate algorithm (AP) vs exact DP.

Table 2 of the paper compares the final nucleus scores computed by AP (the
hybrid statistical approximation) with the exact scores of DP for
θ ∈ {0.2, 0.4}: the average absolute score error over all triangles and the
percentage of triangles whose score differs at all.  The paper finds average
errors well below 0.06 and error percentages below 6% on every dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hybrid import HybridEstimator
from repro.core.result import LocalNucleusDecomposition
from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.graph.probabilistic_graph import ProbabilisticGraph

__all__ = ["SPEC", "Table2Row", "compare_scores", "DEFAULT_THETAS"]

#: Thresholds reported in the paper's Table 2.
DEFAULT_THETAS = (0.2, 0.4)


@dataclass(frozen=True)
class Table2Row:
    """Accuracy of AP on one (dataset, θ) pair."""

    dataset: str
    theta: float
    num_triangles: int
    average_error: float
    percent_with_error: float


COLUMNS = (
    Column("dataset", 10),
    Column("theta", 5, ".2f"),
    Column("#triangles", 10, key="num_triangles"),
    Column("avg error", 10, ".4f", key="average_error"),
    Column("% with error", 12, ".2f", key="percent_with_error"),
)


def _score_comparison(
    dp: LocalNucleusDecomposition, ap: LocalNucleusDecomposition
) -> tuple[int, float, float]:
    """Compare two score maps over the DP triangle set (legacy semantics)."""
    total = len(dp.scores)
    if total == 0:
        return 0, 0.0, 0.0
    absolute_errors = [
        abs(dp.scores[triangle] - ap.scores.get(triangle, dp.scores[triangle]))
        for triangle in dp.scores
    ]
    differing = sum(1 for error in absolute_errors if error > 0)
    return total, sum(absolute_errors) / total, 100.0 * differing / total


def compare_scores(graph: ProbabilisticGraph, theta: float) -> tuple[int, float, float]:
    """Run DP and AP on ``graph`` and compare their nucleus scores.

    Returns
    -------
    (num_triangles, average_error, percent_with_error):
        ``average_error`` is the mean absolute difference between the AP and
        DP scores over all triangles; ``percent_with_error`` is the share of
        triangles (in percent) whose scores differ.
    """
    cache = DecompositionCache()
    dp = cache.local(graph, theta, estimator=None)
    ap = cache.local(graph, theta, estimator=HybridEstimator())
    return _score_comparison(dp, ap)


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    names = overrides.get("names", DATASET_NAMES)
    thetas = overrides.get("thetas", DEFAULT_THETAS)
    return [
        {"dataset": name, "theta": theta} for name in names for theta in thetas
    ]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[Table2Row]:
    graph = load_dataset(params["dataset"], config.scale)
    theta = params["theta"]
    dp = cache.local(graph, theta, estimator=None, dataset=params["dataset"])
    ap = cache.local(graph, theta, estimator=HybridEstimator(), dataset=params["dataset"])
    total, average_error, percent = _score_comparison(dp, ap)
    return [
        Table2Row(
            dataset=params["dataset"],
            theta=theta,
            num_triangles=total,
            average_error=average_error,
            percent_with_error=percent,
        )
    ]


SPEC = ExperimentSpec(
    name="table2",
    title="Accuracy of AP vs exact DP nucleus scores",
    paper_reference="Table 2",
    row_type=Table2Row,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
)
