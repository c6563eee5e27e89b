"""Declarative experiment pipeline over the CSR / index stack.

Every table and figure of the paper's evaluation, and every ablation, is one
spec run by one execution path:

* :class:`ExperimentSpec` — the declarative description of one experiment:
  its parameter grid (which declares the experiment's defaults), the
  per-cell computation, the row schema, and the report columns (rendered by
  :mod:`repro.experiments.formatting`).
* :class:`RunConfig` — the knobs threaded end to end: dataset scale, base
  seed, ``n_jobs`` for parallel grid cells, the artifact output directory,
  the decomposition cache and the grid filter.
* :class:`DecompositionCache` — decompositions snapshotted as
  :class:`~repro.index.NucleusIndex` files keyed by (graph fingerprint, mode,
  θ, estimator), so the many specs sharing a (dataset, decomposition) cell
  compute it once and every other cell — including cells of *other*
  experiments in the same invocation — rehydrates it via
  :func:`repro.index.builders.local_result_from_index`.
* :func:`run_spec` / :func:`run_pipeline` — execute one spec / a suite of
  specs, fanning independent grid cells out over a process pool with
  deterministic per-cell parameters, and emit structured
  ``EXPERIMENTS_<name>.json`` artifacts (rows, per-cell timings, config,
  git / graph fingerprints, cache counters).

Programmatic use goes through the registry::

    from repro.experiments.pipeline import RunConfig, run_spec
    from repro.experiments.registry import get_spec

    run = run_spec(get_spec("table2"), RunConfig(scale="tiny"), {"thetas": (0.2,)})
    print(run.report)

The ``overrides`` dict replaces grid defaults by key; the golden parity
tests pin every report byte-identical to the pre-pipeline harness.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any

from repro.exceptions import _require_positive_int
from repro.experiments.formatting import render_plain
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.metrics import snapshot as obs_snapshot
from repro.obs.spans import capture as obs_capture
from repro.obs.spans import span
from repro.obs.timing import timer

__all__ = [
    "ARTIFACT_FORMAT",
    "RunConfig",
    "ExperimentSpec",
    "CellResult",
    "ExperimentRun",
    "DecompositionCache",
    "run_spec",
    "run_pipeline",
    "write_artifact",
]

#: Format marker written into every ``EXPERIMENTS_<name>.json`` artifact.
ARTIFACT_FORMAT = "repro-experiments-artifact-v1"


@dataclass(frozen=True)
class RunConfig:
    """Execution knobs shared by every experiment, threaded end to end.

    Attributes
    ----------
    scale:
        Dataset registry scale (``"tiny"`` or ``"small"``).
    seed:
        Base seed; grids derive their per-cell seeds from it exactly the way
        the legacy harness did, so runs are reproducible and independent of
        ``n_jobs`` and cell scheduling.
    n_jobs:
        Maximum number of grid cells executed concurrently (process pool).
        ``1`` runs in-process.  A positive integer; this is not the retired
        ``n_jobs`` of the decomposition drivers, and cells never pass it on.
    output_dir:
        When set, ``EXPERIMENTS_<name>.json`` artifacts are written here.
    use_cache / cache_dir:
        Decomposition-cache switch and its on-disk location.  Without a
        ``cache_dir`` the cache lives in memory (shared across the specs of
        one :func:`run_pipeline` call, invisible to worker processes).
    grid_filter:
        ``(key, value)`` pairs; a grid cell survives only if
        ``str(cell[key]) == value`` for every pair (the CLI's ``--filter``).
    """

    scale: str = "small"
    seed: int = 0
    n_jobs: int = 1
    output_dir: str | None = None
    use_cache: bool = True
    cache_dir: str | None = None
    grid_filter: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        _require_positive_int("n_jobs", self.n_jobs)

    def matches(self, params: dict) -> bool:
        """Return ``True`` when ``params`` passes every ``grid_filter`` pair."""
        return all(
            key in params and str(params[key]) == value
            for key, value in self.grid_filter
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one paper experiment.

    Attributes
    ----------
    name:
        Registry key (``"table1"`` … ``"ablation_sampling"``).
    title:
        One-line human description shown by ``repro-experiments list``.
    paper_reference:
        Which table/figure of the paper the spec reproduces.
    row_type:
        Dataclass of the result rows (the artifact's row schema).
    grid:
        ``(config, overrides) -> list[dict]``: the independent parameter
        cells.  The grid is the one place an experiment declares its
        defaults; ``overrides`` replaces them by key.  Every cell dict must
        be JSON-safe for parallel execution and artifact emission; object
        overrides (pre-built graphs, estimator instances) force the serial
        path.
    run_cell:
        ``(params, config, cache) -> list[row_type]``: compute one cell.
    columns:
        :class:`~repro.experiments.formatting.Column` specs of the report:
        the plain report is :func:`~repro.experiments.formatting.render_plain`
        over them and ``--format markdown`` renders the same columns.
    formatter:
        Optional bespoke plain-text renderer for the full row list, used
        instead of the columns when a report's layout does not fit them
        (Table 1's dashed layout, whose widths follow the data).
    cacheable:
        Whether cells consult the decomposition cache.  Timing experiments
        (Figure 4, the hybrid ablation) must recompute what they measure and
        set this to ``False``.
    """

    name: str
    title: str
    paper_reference: str
    row_type: type
    grid: Callable[[RunConfig, dict], list[dict]]
    run_cell: Callable[[dict, RunConfig, "DecompositionCache"], list]
    columns: tuple
    formatter: Callable[[list], str] | None = None
    cacheable: bool = True


@dataclass
class CellResult:
    """Outcome of one grid cell: rows plus execution metadata."""

    index: int
    params: dict
    rows: list
    seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: tuple[str, ...] = ()
    #: The cell's ``pipeline.cell`` span tree when observability was on.
    trace: dict | None = None
    #: The worker's per-cell metrics snapshot (pool execution only): the
    #: registry is process-local, so the parent merges these back in.
    obs: dict | None = None


@dataclass
class ExperimentRun:
    """Everything produced by running one spec through the pipeline."""

    spec: ExperimentSpec
    config: RunConfig
    cells: list[CellResult]
    total_seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: tuple[str, ...] = ()
    artifact_path: Path | None = None

    @property
    def rows(self) -> list:
        """All rows in deterministic grid order."""
        return [row for cell in self.cells for row in cell.rows]

    @property
    def report(self) -> str:
        """The paper-layout plain-text report."""
        if self.spec.formatter is not None:
            return self.spec.formatter(self.rows)
        return render_plain(self.spec.columns, self.rows)

    def to_artifact(self) -> dict:
        """Build the JSON-safe ``EXPERIMENTS_<name>.json`` payload."""
        row_fields = [f.name for f in dataclasses.fields(self.spec.row_type)]
        return {
            "format": ARTIFACT_FORMAT,
            "experiment": self.spec.name,
            "title": self.spec.title,
            "paper_reference": self.spec.paper_reference,
            "config": {
                "scale": self.config.scale,
                "seed": self.config.seed,
                "n_jobs": self.config.n_jobs,
                "use_cache": self.config.use_cache,
                "grid_filter": [list(pair) for pair in self.config.grid_filter],
            },
            "row_fields": row_fields,
            "num_rows": len(self.rows),
            "rows": [_jsonify(dataclasses.asdict(row)) for row in self.rows],
            "cells": [
                {
                    "index": cell.index,
                    "params": _jsonify(cell.params),
                    "seconds": cell.seconds,
                    "cache_hits": cell.cache_hits,
                    "cache_misses": cell.cache_misses,
                    **({"trace": cell.trace} if cell.trace is not None else {}),
                }
                for cell in self.cells
            ],
            "timings": {
                "total_seconds": self.total_seconds,
                "cell_seconds_sum": sum(cell.seconds for cell in self.cells),
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "entries": sorted(self.cache_entries),
            },
            "obs": obs_snapshot(),
            "fingerprints": {
                "git_commit": _git_commit(),
                "datasets": self._dataset_fingerprints(),
            },
            "report": self.report,
        }

    def _dataset_fingerprints(self) -> dict[str, str]:
        names = sorted(
            {
                cell.params["dataset"]
                for cell in self.cells
                if isinstance(cell.params.get("dataset"), str)
            }
        )
        return {
            name: _dataset_fingerprint(name, self.config.scale) for name in names
        }


def _jsonify(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serialisable primitives."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonify(dataclasses.asdict(value))
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return _jsonify(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def _json_safe(value: Any) -> bool:
    """Return ``True`` when ``value`` is built purely from JSON primitives.

    Grid cells must pass this to be eligible for process-pool execution and
    verbatim artifact emission; cells carrying live objects (test-injected
    graphs, estimator instances) fail it and force the serial path.
    """
    if isinstance(value, dict):
        return all(isinstance(k, str) and _json_safe(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(_json_safe(v) for v in value)
    return isinstance(value, (str, int, float, bool)) or value is None


def _git_commit() -> str | None:
    """Best-effort commit hash of the working tree (``None`` outside git)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


@lru_cache(maxsize=None)
def _dataset_fingerprint(name: str, scale: str) -> str:
    from repro.experiments.datasets import load_dataset
    from repro.index.fingerprint import graph_fingerprint

    return graph_fingerprint(load_dataset(name, scale))


# --------------------------------------------------------------------- #
# decomposition cache
# --------------------------------------------------------------------- #
class DecompositionCache:
    """Compute-once store for decompositions, snapshotted as nucleus indexes.

    Keys are ``(graph fingerprint, mode, θ, estimator descriptor)`` —
    everything a local decomposition's output depends on.  The estimator
    descriptor is its name plus, for parameterised estimators (the hybrid's
    §5.3 thresholds), a digest of their ``parameters`` object, so two
    differently-tuned instances of one class never share a snapshot.  With a
    ``directory`` the store is a shared on-disk pool of ``.npz`` snapshots
    (written atomically, safe for concurrent worker processes); without one
    it memoises in memory only.

    ``hits`` / ``misses`` count rehydrations vs fresh computations and are
    surfaced in the run artifacts — CI's experiments-smoke job fails when a
    suite that should share decompositions never hits the cache.

    Disk rehydration rebuilds the score dictionary in sorted triangle order
    — the same order a fresh decomposition produces, so a disk hit is
    indistinguishable from a recompute (pinned by the warm-vs-cold pipeline
    tests).  In-memory hits return the original result object and are
    always exact.
    """

    def __init__(
        self, directory: str | Path | None = None, enabled: bool = True
    ) -> None:
        self.directory = Path(directory) if directory is not None and enabled else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        #: ``False`` (``--no-cache``) disables *all* reuse — every lookup
        #: recomputes, including repeats within one run — so disabled runs
        #: reproduce the seed-era execution model exactly.
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._memory: dict[str, Any] = {}
        self._touch_log: list[str] = []

    @property
    def touch_count(self) -> int:
        """How many lookups this handle has served (marker for deltas)."""
        return len(self._touch_log)

    def touched_since(self, start: int = 0) -> tuple[str, ...]:
        """The distinct cache keys looked up since the ``start`` marker.

        Used for artifact provenance: a run records ``touch_count`` before
        executing its cells and reports exactly the keys *it* touched, even
        when the handle is shared across the specs of one pipeline call.
        """
        return tuple(sorted(set(self._touch_log[start:])))

    @staticmethod
    def _estimator_descriptor(estimator) -> str:
        """Name plus a parameter digest for parameterised estimators."""
        parameters = getattr(estimator, "parameters", None)
        if parameters is None:
            return str(estimator.name)
        import hashlib

        digest = hashlib.sha256(repr(parameters).encode("utf-8")).hexdigest()[:8]
        return f"{estimator.name}-{digest}"

    def local(
        self,
        graph,
        theta: float,
        estimator=None,
        dataset: str | None = None,
    ):
        """Return the local decomposition of ``graph`` at ``theta``, cached.

        On a miss the decomposition runs and is snapshotted
        (memory, plus disk when the cache has a directory); on a hit the
        snapshot is rehydrated against the live ``graph`` via
        :func:`repro.index.builders.local_result_from_index`.  ``dataset``
        only makes the snapshot filename self-describing.
        """
        from repro.core.local import local_nucleus_decomposition, resolve_local_options
        from repro.index.fingerprint import graph_fingerprint

        estimator = resolve_local_options(theta, estimator)
        fingerprint = graph_fingerprint(graph)
        descriptor = self._estimator_descriptor(estimator)
        key = f"local-{fingerprint[:16]}-theta{theta!r}-{descriptor}"
        self._touch_log.append(key)

        if not self.enabled:
            self.misses += 1
            return local_nucleus_decomposition(graph, theta, estimator=estimator)

        if key in self._memory:
            self.hits += 1
            return self._memory[key]

        path = None
        if self.directory is not None:
            prefix = f"{dataset}-" if dataset else ""
            path = self.directory / f"{prefix}{key}.npz"
            index = self._load_snapshot(path, graph)
            if index is not None:
                from repro.index.builders import local_result_from_index

                result = local_result_from_index(index, graph)
                self._memory[key] = result
                self.hits += 1
                return result

        result = local_nucleus_decomposition(graph, theta, estimator=estimator)
        self._memory[key] = result
        self.misses += 1
        if path is not None:
            self._save_snapshot(result, path)
        return result

    @staticmethod
    def _load_snapshot(path: Path, graph):
        from repro.exceptions import IndexCompatibilityError, IndexFormatError
        from repro.index.nucleus_index import NucleusIndex

        if not path.exists():
            return None
        try:
            return NucleusIndex.load(path, graph)
        except (IndexFormatError, IndexCompatibilityError, OSError):
            return None  # corrupt or stale snapshot: fall through to recompute

    @staticmethod
    def _save_snapshot(result, path: Path) -> None:
        from repro.index.nucleus_index import NucleusIndex

        index = NucleusIndex.from_local_result(result)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
        try:
            index.save(tmp)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
def _is_registered(spec: ExperimentSpec) -> bool:
    """Whether worker processes would resolve ``spec.name`` back to ``spec``.

    Pool workers re-import the spec from the registry by name, so an
    unregistered spec (or one shadowed by a registered spec of the same
    name) must run serially — otherwise the workers would crash on the
    lookup or silently execute the registered spec's cells instead.
    """
    from repro.experiments.registry import SPECS

    return SPECS.get(spec.name) is spec


def _timed_cell(spec, index: int, params: dict, config: RunConfig, cache):
    """Run one grid cell under the shared timer; returns (rows, seconds, trace).

    With observability on the cell runs inside a ``pipeline.cell`` span whose
    finished tree (covering any nested peel/sampling/index spans) is captured
    privately and folded into the cell's artifact record; with it off this is
    just the timed ``run_cell`` call.
    """
    if not obs_config._ENABLED:
        with timer() as t:
            rows = spec.run_cell(params, config, cache)
        return rows, t.seconds, None
    with obs_capture() as sink:
        with span("pipeline.cell", experiment=spec.name, cell=index):
            with timer() as t:
                rows = spec.run_cell(params, config, cache)
    traces = sink.traces()
    return rows, t.seconds, traces[-1] if traces else None


def _cell_worker(spec_name: str, index: int, params: dict, config: RunConfig) -> CellResult:
    """Execute one grid cell (entry point for pool workers)."""
    from repro.experiments.registry import get_spec

    spec = get_spec(spec_name)
    cache = DecompositionCache(config.cache_dir, enabled=config.use_cache)
    telemetry = obs_config._ENABLED
    if telemetry:
        # Start from an empty worker registry so the snapshot returned to
        # the parent is exactly this cell's delta (forked workers inherit
        # the parent's counts; reused workers carry the previous cell's).
        obs_registry.reset()
    rows, seconds, trace = _timed_cell(spec, index, params, config, cache)
    return CellResult(
        index=index,
        params=params,
        rows=list(rows),
        seconds=seconds,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_entries=cache.touched_since(),
        trace=trace,
        obs=obs_snapshot() if telemetry else None,
    )


def run_spec(
    spec: ExperimentSpec,
    config: RunConfig | None = None,
    overrides: dict | None = None,
    cache: DecompositionCache | None = None,
) -> ExperimentRun:
    """Run one experiment spec under ``config`` and return its rows + metadata.

    Grid cells are executed in parallel over a process pool when
    ``config.n_jobs > 1``, the spec is resolvable from the registry (pool
    workers re-import it by name), and every cell is JSON-safe (cells
    carrying live objects such as pre-built graphs run serially).  Rows are
    always assembled in grid order, so the output is independent of worker
    scheduling.  ``overrides`` replaces the spec's grid defaults by key.
    """
    config = config or RunConfig()
    grid = [dict(params) for params in spec.grid(config, dict(overrides or {}))]
    if config.grid_filter:
        grid = [params for params in grid if config.matches(params)]

    # Entered manually: the measured region ends mid-function, before the
    # ExperimentRun is assembled, so a with-block would mis-scope it.
    total_timer = timer()
    total_timer.__enter__()
    parallel = (
        config.n_jobs > 1
        and len(grid) > 1
        and _is_registered(spec)
        and all(_json_safe(params) for params in grid)
    )
    if parallel:
        with ProcessPoolExecutor(max_workers=min(config.n_jobs, len(grid))) as pool:
            cells = list(
                pool.map(
                    _cell_worker,
                    [spec.name] * len(grid),
                    range(len(grid)),
                    grid,
                    [config] * len(grid),
                )
            )
        hits = sum(cell.cache_hits for cell in cells)
        misses = sum(cell.cache_misses for cell in cells)
        entries = tuple(
            sorted({key for cell in cells for key in cell.cache_entries})
        )
        if obs_config._ENABLED:
            # Worker registries die with the pool: fold their per-cell
            # snapshots into the parent so the artifact's obs block covers
            # parallel runs too.
            for cell in cells:
                if cell.obs is not None:
                    obs_registry.merge_snapshot(cell.obs)
    else:
        own_cache = cache or DecompositionCache(
            config.cache_dir, enabled=config.use_cache
        )
        hits_before, misses_before = own_cache.hits, own_cache.misses
        touch_marker = own_cache.touch_count
        cells = []
        for index, params in enumerate(grid):
            cell_hits, cell_misses = own_cache.hits, own_cache.misses
            rows, seconds, trace = _timed_cell(spec, index, params, config, own_cache)
            cells.append(
                CellResult(
                    index=index,
                    params=params,
                    rows=list(rows),
                    seconds=seconds,
                    cache_hits=own_cache.hits - cell_hits,
                    cache_misses=own_cache.misses - cell_misses,
                    trace=trace,
                )
            )
        hits = own_cache.hits - hits_before
        misses = own_cache.misses - misses_before
        entries = own_cache.touched_since(touch_marker)
    total_timer.__exit__(None, None, None)
    total_seconds = total_timer.seconds

    return ExperimentRun(
        spec=spec,
        config=config,
        cells=cells,
        total_seconds=total_seconds,
        cache_hits=hits,
        cache_misses=misses,
        cache_entries=entries,
    )


def write_artifact(run: ExperimentRun, directory: str | Path) -> Path:
    """Write ``EXPERIMENTS_<name>.json`` for ``run`` and return its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"EXPERIMENTS_{run.spec.name}.json"
    path.write_text(json.dumps(run.to_artifact(), indent=2, sort_keys=False) + "\n")
    run.artifact_path = path
    return path


def run_pipeline(
    names: Sequence[str],
    config: RunConfig | None = None,
    overrides: dict[str, dict] | None = None,
) -> dict[str, ExperimentRun]:
    """Run a suite of experiments through one shared pipeline invocation.

    Specs run sequentially (their grid cells fan out per ``config.n_jobs``)
    and share one decomposition cache, so later specs rehydrate snapshots
    built by earlier ones — e.g. Figure 8 reloads the θ = 0.001 local
    decompositions Figure 5 just built.  When ``config.output_dir`` is set an
    ``EXPERIMENTS_<name>.json`` artifact is written per spec.  Parallel runs
    without an explicit ``cache_dir`` get a shared temporary snapshot
    directory for the lifetime of the call.
    """
    import tempfile

    from repro.experiments.registry import get_spec

    config = config or RunConfig()
    overrides = overrides or {}
    specs = [get_spec(name) for name in names]

    scratch: tempfile.TemporaryDirectory | None = None
    if config.use_cache and config.cache_dir is None and config.n_jobs > 1:
        scratch = tempfile.TemporaryDirectory(prefix="repro-exp-cache-")
        config = dataclasses.replace(config, cache_dir=scratch.name)

    runs: dict[str, ExperimentRun] = {}
    try:
        shared = DecompositionCache(config.cache_dir, enabled=config.use_cache)
        for spec in specs:
            run = run_spec(spec, config, overrides.get(spec.name), cache=shared)
            if config.output_dir is not None:
                write_artifact(run, config.output_dir)
            runs[spec.name] = run
    finally:
        if scratch is not None:
            scratch.cleanup()
    return runs
