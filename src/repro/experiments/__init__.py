"""Experiment harness: a declarative pipeline over the paper's evaluation.

Every table/figure of the paper is described by an
:class:`~repro.experiments.pipeline.ExperimentSpec` (parameter grid, per-cell
computation, row schema, paper-layout formatter) registered in
:mod:`repro.experiments.registry` and executed by the shared pipeline of
:mod:`repro.experiments.pipeline` — one code path with a
:class:`~repro.experiments.pipeline.RunConfig` (scale/seed/jobs),
decomposition snapshots cached as :class:`~repro.index.NucleusIndex` files,
parallel grid cells, and ``EXPERIMENTS_<name>.json`` artifacts.  The legacy
``run_*``/``format_*`` functions remain as thin wrappers;
:mod:`repro.experiments.runner` wires everything to the
``python -m repro.experiments`` command line.
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
