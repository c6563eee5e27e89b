"""Registry of every experiment spec (one per table/figure of the paper).

The registry is the single source the CLI, the pipeline's worker processes,
and the benchmark harness resolve experiment names through.  Specs are
declared next to their computation in the per-experiment modules and
collected here in the paper's reporting order.
"""

from __future__ import annotations

from repro.experiments import (
    ablation_hybrid,
    ablation_sampling,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    incremental_updates,
    table1,
    table2,
    table3,
)
from repro.experiments.pipeline import ExperimentSpec

__all__ = ["SPECS", "EXPERIMENT_NAMES", "get_spec", "all_specs"]

#: Name -> spec, in the paper's reporting order.
SPECS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        table1.SPEC,
        table2.SPEC,
        table3.SPEC,
        figure4.SPEC,
        figure5.SPEC,
        figure6.SPEC,
        figure7.SPEC,
        figure8.SPEC,
        ablation_hybrid.SPEC,
        ablation_sampling.SPEC,
        incremental_updates.SPEC,
    )
}

#: All registered experiment names, reporting order.
EXPERIMENT_NAMES: tuple[str, ...] = tuple(SPECS)


def get_spec(name: str) -> ExperimentSpec:
    """Return the spec registered under ``name``.

    Raises
    ------
    KeyError
        With the list of valid names, for unknown experiments.
    """
    try:
        return SPECS[name]
    except KeyError:
        valid = ", ".join(sorted(SPECS))
        raise KeyError(f"unknown experiment {name!r}; valid names: {valid}") from None


def all_specs() -> list[ExperimentSpec]:
    """Every registered spec, in reporting order."""
    return list(SPECS.values())
