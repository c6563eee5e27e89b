"""Experiment: Figure 6 — accuracy of the individual approximations vs DP.

Figure 6 of the paper analyses the relative error of each statistical
approximation against the exact DP under controlled conditions on the number
of 4-cliques ``c_△`` and the range of the clique probabilities ``Pr(E_i)``:

* **6a** — ``Pr(E_i) ∈ (0, 0.1]`` and ``c_△ ∈ {25, 50, 100}``: Binomial and
  Poisson beat the CLT when the probabilities are small.
* **6b** — ``c_△ = 50`` and ``Pr(E_i)`` drawn from ranges with upper bounds
  {0.1, 0.25, 0.5, 1.0}: plain Poisson degrades as the probabilities grow
  while the Translated Poisson stays accurate.
* **6c** — probabilities close to each other and ``c_△ ∈ {25, 50, 100}``:
  the Binomial approximation remains accurate whenever its variance-matching
  condition holds.

The error of a sampled triangle profile is
``|κ_approx − κ_dp| / max(1, κ_dp)`` where κ is the largest ``k`` whose
threshold condition holds at θ; the figure reports the average over the
sampled profiles.

Each panel draws its profiles from one sequential RNG stream (later
``c_△`` values continue the stream of earlier ones), so the pipeline grid
has exactly one cell per panel — the finest independent unit.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.approximations import (
    BinomialEstimator,
    DynamicProgrammingEstimator,
    NormalEstimator,
    PoissonEstimator,
    SupportEstimator,
    TranslatedPoissonEstimator,
)
from repro.experiments.formatting import Column
from repro.experiments.pipeline import DecompositionCache, ExperimentSpec, RunConfig

__all__ = [
    "SPEC",
    "Figure6Row",
    "relative_support_error",
    "run_figure6a",
    "run_figure6b",
    "run_figure6c",
]


@dataclass(frozen=True)
class Figure6Row:
    """Average relative error of one estimator under one condition."""

    panel: str
    estimator: str
    condition: str
    average_relative_error: float
    num_profiles: int


COLUMNS = (
    Column("panel", 5),
    Column("estimator", 20),
    Column("condition", 45),
    Column("avg rel error", 13, ".4f", key="average_relative_error"),
)


def relative_support_error(
    estimator: SupportEstimator,
    clique_probabilities: Sequence[float],
    theta: float,
    triangle_probability: float = 1.0,
    exact: SupportEstimator | None = None,
) -> float:
    """Return ``|κ_approx − κ_dp| / max(1, κ_dp)`` for one triangle profile."""
    exact = exact or DynamicProgrammingEstimator()
    kappa_exact = exact.max_k(triangle_probability, clique_probabilities, theta)
    kappa_approx = estimator.max_k(triangle_probability, clique_probabilities, theta)
    return abs(kappa_approx - kappa_exact) / max(1, kappa_exact)


def _sample_profiles(
    rng: random.Random,
    num_profiles: int,
    c_delta: int,
    low: float,
    high: float,
) -> list[list[float]]:
    return [
        [rng.uniform(low, high) for _ in range(c_delta)] for _ in range(num_profiles)
    ]


def _average_error(
    estimator: SupportEstimator,
    profiles: list[list[float]],
    theta: float,
) -> float:
    exact = DynamicProgrammingEstimator()
    errors = [
        relative_support_error(estimator, profile, theta, exact=exact)
        for profile in profiles
    ]
    return sum(errors) / len(errors) if errors else 0.0


def run_figure6a(
    c_deltas: Sequence[int] = (25, 50, 100),
    theta: float = 0.3,
    num_profiles: int = 200,
    seed: int = 0,
) -> list[Figure6Row]:
    """Panel (a): small ``Pr(E_i)`` — Binomial / CLT / Poisson vs ``c_△``."""
    rng = random.Random(seed)
    estimators = (BinomialEstimator(), NormalEstimator(), PoissonEstimator())
    rows = []
    for c_delta in c_deltas:
        profiles = _sample_profiles(rng, num_profiles, c_delta, 0.001, 0.1)
        for estimator in estimators:
            rows.append(
                Figure6Row(
                    panel="6a",
                    estimator=estimator.name,
                    condition=f"c={c_delta}, Pr(Ei) in (0, 0.1]",
                    average_relative_error=_average_error(estimator, profiles, theta),
                    num_profiles=num_profiles,
                )
            )
    return rows


def run_figure6b(
    probability_ranges: Sequence[float] = (0.1, 0.25, 0.5, 1.0),
    c_delta: int = 50,
    theta: float = 0.3,
    num_profiles: int = 200,
    seed: int = 1,
) -> list[Figure6Row]:
    """Panel (b): ``c_△ = 50`` — Poisson vs Translated Poisson as ``Pr(E_i)`` grows."""
    rng = random.Random(seed)
    estimators = (PoissonEstimator(), TranslatedPoissonEstimator())
    rows = []
    for upper in probability_ranges:
        profiles = _sample_profiles(rng, num_profiles, c_delta, 0.001, upper)
        for estimator in estimators:
            rows.append(
                Figure6Row(
                    panel="6b",
                    estimator=estimator.name,
                    condition=f"c={c_delta}, Pr(Ei) in (0, {upper}]",
                    average_relative_error=_average_error(estimator, profiles, theta),
                    num_profiles=num_profiles,
                )
            )
    return rows


def run_figure6c(
    c_deltas: Sequence[int] = (25, 50, 100),
    theta: float = 0.3,
    num_profiles: int = 200,
    spread: float = 0.05,
    seed: int = 2,
) -> list[Figure6Row]:
    """Panel (c): ``Pr(E_i)`` close to each other — Binomial vs ``c_△``."""
    rng = random.Random(seed)
    estimator = BinomialEstimator()
    rows = []
    for c_delta in c_deltas:
        profiles = []
        for _ in range(num_profiles):
            center = rng.uniform(0.1, 0.9)
            low = max(0.001, center - spread)
            high = min(1.0, center + spread)
            profiles.append([rng.uniform(low, high) for _ in range(c_delta)])
        rows.append(
            Figure6Row(
                panel="6c",
                estimator=estimator.name,
                condition=f"c={c_delta}, Pr(Ei) within ±{spread} of a common value",
                average_relative_error=_average_error(estimator, profiles, theta),
                num_profiles=num_profiles,
            )
        )
    return rows


_PANELS = {
    "6a": run_figure6a,
    "6b": run_figure6b,
    "6c": run_figure6c,
}

#: Seed offset of each panel relative to the base seed (legacy convention).
_PANEL_SEED_OFFSETS = {"6a": 0, "6b": 1, "6c": 2}


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    panels = overrides.get("panels", ("6a", "6b", "6c"))
    seed = overrides.get("seed", config.seed)
    return [
        {
            "panel": panel,
            "theta": overrides.get("theta", 0.3),
            "num_profiles": overrides.get("num_profiles", 200),
            "seed": seed + _PANEL_SEED_OFFSETS[panel],
        }
        for panel in panels
    ]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[Figure6Row]:
    runner = _PANELS[params["panel"]]
    return runner(
        theta=params["theta"],
        num_profiles=params["num_profiles"],
        seed=params["seed"],
    )


SPEC = ExperimentSpec(
    name="figure6",
    title="Relative error of the statistical approximations vs exact DP",
    paper_reference="Figure 6",
    row_type=Figure6Row,
    grid=_grid,
    run_cell=_run_cell,
    columns=COLUMNS,
    cacheable=False,
)
