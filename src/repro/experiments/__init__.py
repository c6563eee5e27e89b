"""Experiment harness: a declarative pipeline over the paper's evaluation.

Every table/figure of the paper, and every ablation, is described by one
:class:`~repro.experiments.pipeline.ExperimentSpec` (parameter grid with the
experiment's defaults, per-cell computation, row schema, report columns)
registered in :mod:`repro.experiments.registry` and executed by the shared
pipeline of :mod:`repro.experiments.pipeline` — one code path with a
:class:`~repro.experiments.pipeline.RunConfig` (scale/seed/jobs),
decomposition snapshots cached as :class:`~repro.index.NucleusIndex` files,
parallel grid cells, and ``EXPERIMENTS_<name>.json`` artifacts.  There is
one way to run an experiment: programmatically,
``run_spec(get_spec(name), RunConfig(...), overrides)`` (or
:func:`~repro.experiments.pipeline.run_pipeline` for a suite), and from the
shell, the ``python -m repro.experiments`` / ``repro-experiments`` command
line of :mod:`repro.experiments.runner`.
"""

from repro.experiments.datasets import (
    DATASET_NAMES,
    SCALES,
    DatasetSpec,
    dataset_spec,
    load_all,
    load_dataset,
)
from repro.experiments.pipeline import (
    DecompositionCache,
    ExperimentSpec,
    ExperimentRun,
    RunConfig,
    run_pipeline,
    run_spec,
    write_artifact,
)

__all__ = [
    "DATASET_NAMES",
    "SCALES",
    "DatasetSpec",
    "dataset_spec",
    "load_all",
    "load_dataset",
    "DecompositionCache",
    "ExperimentSpec",
    "ExperimentRun",
    "RunConfig",
    "run_pipeline",
    "run_spec",
    "write_artifact",
]
