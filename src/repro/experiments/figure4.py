"""Experiment: Figure 4 — running time of local decomposition, DP vs AP.

The paper's Figure 4 plots, for each dataset, the running time of the exact
dynamic-programming algorithm (DP) and of the statistically-approximated
algorithm (AP) for thresholds θ ∈ {0.1, 0.2, 0.3, 0.4, 0.5}.  The headline
observations are that (a) AP is never slower than DP and the gap widens on
the largest datasets and smallest thresholds, and (b) both runtimes shrink as
θ grows because fewer triangles survive the threshold.

This module reruns the same sweep on the dataset analogues and reports the
series in seconds.  Each cell also records the maximum nucleus score so the
accuracy experiments can confirm DP and AP agree.  Because the experiment
*measures* decomposition runtime, its cells never consult the decomposition
cache — every timing is a fresh run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.approximations import DynamicProgrammingEstimator
from repro.core.hybrid import HybridEstimator
from repro.core.local import local_nucleus_decomposition
from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.obs.timing import timer

__all__ = ["SPEC", "Figure4Row", "DEFAULT_THETAS"]

#: Threshold sweep used by the paper.
DEFAULT_THETAS = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class Figure4Row:
    """One (dataset, θ) cell of Figure 4."""

    dataset: str
    theta: float
    dp_seconds: float
    ap_seconds: float
    dp_max_score: int
    ap_max_score: int

    @property
    def speedup(self) -> float:
        """DP time divided by AP time (>1 means AP is faster)."""
        if self.ap_seconds <= 0.0:
            return float("inf")
        return self.dp_seconds / self.ap_seconds


COLUMNS = (
    Column("dataset", 10),
    Column("theta", 5, ".2f"),
    Column("DP (s)", 9, ".4f", key="dp_seconds"),
    Column("AP (s)", 9, ".4f", key="ap_seconds"),
    Column("speedup", 7, ".2f", key="speedup"),
    Column("kmax", 4, key="dp_max_score"),
)


def _time_decomposition(
    graph: ProbabilisticGraph, theta: float, estimator
) -> tuple[float, int]:
    with timer() as t:
        result = local_nucleus_decomposition(graph, theta, estimator=estimator)
    return t.seconds, result.max_score


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    names = overrides.get("names", DATASET_NAMES)
    thetas = overrides.get("thetas", DEFAULT_THETAS)
    return [
        {"dataset": name, "theta": theta} for name in names for theta in thetas
    ]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[Figure4Row]:
    graph = load_dataset(params["dataset"], config.scale)
    theta = params["theta"]
    dp_seconds, dp_max = _time_decomposition(graph, theta, DynamicProgrammingEstimator())
    ap_seconds, ap_max = _time_decomposition(graph, theta, HybridEstimator())
    return [
        Figure4Row(
            dataset=params["dataset"],
            theta=theta,
            dp_seconds=dp_seconds,
            ap_seconds=ap_seconds,
            dp_max_score=dp_max,
            ap_max_score=ap_max,
        )
    ]


SPEC = ExperimentSpec(
    name="figure4",
    title="Running time of the local decomposition, DP vs AP",
    paper_reference="Figure 4",
    row_type=Figure4Row,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
    cacheable=False,
)
