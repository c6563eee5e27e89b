"""Build-once helpers: run a decomposition and snapshot it into an index.

These are the wiring between the three decomposition entry points of
:mod:`repro.core` and the persistent :class:`~repro.index.NucleusIndex`:

* :func:`build_local_index` — the local decomposition → index with every
  level ``0 … max_score``, snapshotted *directly* from the peel engine's
  output arrays (:mod:`repro.core.peel`), with no label-space result object
  in between;
* :func:`build_global_index` / :func:`build_weak_index` — Algorithm 2 / 3 at
  one ``k`` → index with that single level;
* :func:`build_index` — mode-dispatching convenience used by the
  ``repro-index`` CLI.

``LocalNucleusDecomposition.build_index()`` offers the same snapshot directly
on an already-computed result object.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.components import _nucleus_level_groups
from repro.core.global_nucleus import check_retired_knob, global_nucleus_decomposition
from repro.core.local import _csr_engine_arrays, check_backend, resolve_local_options
from repro.core.result import LocalNucleusDecomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.deterministic.cliques import label_triangles
from repro.exceptions import InvalidParameterError
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index.nucleus_index import NucleusIndex
from repro.kernels import resolve_kernel
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.obs.timing import timer
from repro.sampling.adaptive import DEFAULT_CHUNK_GROWTH, DEFAULT_CHUNK_INITIAL

__all__ = [
    "build_index",
    "build_local_index",
    "build_global_index",
    "build_weak_index",
    "load_index",
    "local_result_from_index",
]

load_index = NucleusIndex.load


def build_local_index(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator | None = None,
    backend: str = "csr",
    local_result: LocalNucleusDecomposition | None = None,
    kernel: str = "numpy",
) -> NucleusIndex:
    """Run the local decomposition (unless ``local_result`` is given) and index it.

    The decomposition runs on the array-native peel engine and the index is
    snapshotted straight from its output arrays — no per-triangle
    label-space objects are built on the way to the ``.npz``.  The result is
    bit-identical to snapshotting the equivalent
    :class:`~repro.core.result.LocalNucleusDecomposition` (pinned in
    ``tests/test_nucleus_index.py``).  ``backend`` is the retired engine
    switch; see :func:`~repro.core.local.check_backend`.
    """
    check_backend(backend)
    if local_result is not None:
        return NucleusIndex.from_local_result(local_result)
    estimator = resolve_local_options(theta, estimator)
    csr = graph if isinstance(graph, CSRProbabilisticGraph) else graph.to_csr()
    index, scores = _csr_engine_arrays(csr, theta, estimator, kernel=kernel)
    rows = np.asarray(index.triangles, dtype=np.int64).reshape(len(index.triangles), 3)
    params = {"estimator": estimator.name}
    params.update(_engine_params(kernel))
    return NucleusIndex.from_triangle_arrays(
        csr,
        rows,
        scores,
        _nucleus_level_groups(scores, index),
        mode="local",
        theta=theta,
        params=params,
    )


def _sampling_params(sampling: str, confidence: float, n_worlds_max: int | None) -> dict:
    """The sampling-strategy block recorded into ``.npz`` param headers.

    ``sampling="fixed"`` (the v1 layout) records nothing, so fixed-path
    archives stay byte-identical to pre-adaptive builds and old archives
    (which lack the keys entirely) read back as fixed.
    """
    if sampling == "fixed":
        return {}
    return {
        "sampling": sampling,
        "confidence": confidence,
        "n_worlds_max": n_worlds_max,
    }


#: Monte-Carlo knobs of the global/weak drivers that move their answer, with
#: the drivers' defaults: ``epsilon``/``delta`` set the world count when
#: ``n_samples`` is ``None``, and the chunk schedule shapes adaptive sampling.
_MONTE_CARLO_DEFAULTS = {
    "epsilon": 0.1,
    "delta": 0.1,
    "chunk_initial": DEFAULT_CHUNK_INITIAL,
    "chunk_growth": DEFAULT_CHUNK_GROWTH,
}


def _monte_carlo_params(kwargs: dict) -> dict:
    """The :data:`_MONTE_CARLO_DEFAULTS` knobs of ``kwargs`` that differ from them.

    Same empty-at-defaults contract as :func:`_sampling_params`: a default
    build records nothing, keeping its header byte-identical to earlier
    releases.  :func:`~repro.index.incremental.apply_updates` passes the
    recorded knobs back when it rebuilds a global or weak index.
    """
    return {
        name: kwargs[name]
        for name, default in _MONTE_CARLO_DEFAULTS.items()
        if name in kwargs and kwargs[name] != default
    }


def _estimator_params(estimator: SupportEstimator | None) -> dict:
    """The pruning-estimator entry recorded into global and weak ``.npz`` headers.

    Same empty-at-defaults contract as :func:`_sampling_params`: the exact DP
    (``None`` or its instance) records nothing, keeping default headers
    byte-identical to earlier releases; any other estimator records its
    ``name``, which :func:`~repro.index.incremental.apply_updates` maps back
    to an instance when it rebuilds the index.
    """
    if estimator is None or estimator.name == DynamicProgrammingEstimator.name:
        return {}
    return {"estimator": estimator.name}


def _engine_params(kernel: str) -> dict:
    """The compute-engine block recorded into ``.npz`` param headers.

    Same empty-at-defaults contract as :func:`_sampling_params`: the default
    ``kernel="numpy"`` records nothing, keeping default-path archives
    byte-identical to pre-kernel builds.  A non-default kernel records both
    the request and what it resolved to on the building machine
    (``kernel_resolved``), so an archive built with the numpy fallback is
    distinguishable from one whose loops actually compiled.  Archives of
    earlier releases may also carry a ``partitions`` entry; it loads as an
    ordinary param.
    """
    params: dict = {}
    if kernel != "numpy":
        params["kernel"] = kernel
        params["kernel_resolved"] = resolve_kernel(kernel, warn=False)
    return params


def build_global_index(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    k: int,
    theta: float,
    backend: str = "csr",
    n_samples: int | None = None,
    rng: random.Random | np.random.Generator | None = None,
    seed: int | None = None,
    sampling: str = "fixed",
    confidence: float = 0.95,
    n_worlds_max: int | None = None,
    kernel: str = "numpy",
    partitions: int = 1,
    **kwargs,
) -> NucleusIndex:
    """Run the global decomposition at ``k`` and index the verified nuclei.

    ``partitions`` is a retired knob; see
    :func:`~repro.core.global_nucleus.check_retired_knob`.
    """
    check_backend(backend)
    check_retired_knob("partitions", partitions)
    sampling_kwargs = _sampling_params(sampling, confidence, n_worlds_max)
    engine_kwargs = _engine_params(kernel)
    nuclei = global_nucleus_decomposition(
        graph,
        k,
        theta,
        n_samples=n_samples,
        rng=rng,
        seed=seed,
        kernel=kernel,
        **sampling_kwargs,
        **kwargs,
    )
    params = {"k": k, "n_samples": n_samples, "seed": seed}
    params.update(sampling_kwargs)
    params.update(_monte_carlo_params(kwargs))
    params.update(_estimator_params(kwargs.get("estimator")))
    params.update(engine_kwargs)
    return NucleusIndex.from_nuclei(
        graph, nuclei, k=k, theta=theta, mode="global", params=params
    )


def build_weak_index(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    k: int,
    theta: float,
    backend: str = "csr",
    n_samples: int | None = None,
    rng: random.Random | np.random.Generator | None = None,
    seed: int | None = None,
    sampling: str = "fixed",
    confidence: float = 0.95,
    n_worlds_max: int | None = None,
    kernel: str = "numpy",
    partitions: int = 1,
    **kwargs,
) -> NucleusIndex:
    """Run the weakly-global decomposition at ``k`` and index the resulting nuclei.

    ``partitions`` is a retired knob; see
    :func:`~repro.core.global_nucleus.check_retired_knob`.
    """
    check_backend(backend)
    check_retired_knob("partitions", partitions)
    sampling_kwargs = _sampling_params(sampling, confidence, n_worlds_max)
    engine_kwargs = _engine_params(kernel)
    nuclei = weak_nucleus_decomposition(
        graph,
        k,
        theta,
        n_samples=n_samples,
        rng=rng,
        seed=seed,
        kernel=kernel,
        **sampling_kwargs,
        **kwargs,
    )
    params = {"k": k, "n_samples": n_samples, "seed": seed}
    params.update(sampling_kwargs)
    params.update(_monte_carlo_params(kwargs))
    params.update(_estimator_params(kwargs.get("estimator")))
    params.update(engine_kwargs)
    return NucleusIndex.from_nuclei(
        graph, nuclei, k=k, theta=theta, mode="weakly-global", params=params
    )


def local_result_from_index(
    index: NucleusIndex,
    graph: ProbabilisticGraph | None = None,
) -> LocalNucleusDecomposition:
    """Rehydrate a ``mode="local"`` snapshot into a result object.

    This is the reuse half of the snapshot round-trip used by the experiment
    pipeline's decomposition cache: a :class:`NucleusIndex` built once (per
    dataset fingerprint, θ, estimator) is loaded back as a
    :class:`LocalNucleusDecomposition` that downstream code — nuclei
    extraction, Algorithm 2/3 pruning, the quality metrics — consumes exactly
    like a freshly-computed one.

    When ``graph`` is given it becomes the result's graph after a fingerprint
    check (:meth:`NucleusIndex.verify_against`), so nucleus subgraphs carry
    the caller's live edge objects; otherwise the graph is reconstructed from
    the snapshot.  The score dictionary is rebuilt in the index's sorted
    triangle order, which is the same insertion order
    :func:`~repro.core.local.local_nucleus_decomposition` produces — a
    rehydrated result is therefore interchangeable with a fresh
    decomposition, down to dict iteration order.  Hybrid estimator selection
    counts are not snapshotted and come back empty.
    """
    if index.mode != "local":
        raise InvalidParameterError(
            f'only mode="local" snapshots can be rehydrated, got {index.mode!r}'
        )
    if graph is not None:
        index.verify_against(graph)
    else:
        graph = index.to_probabilistic_graph()
    triangles = label_triangles(index.arrays["triangles"], index.vertex_labels)
    return LocalNucleusDecomposition(
        graph=graph,
        theta=index.theta,
        scores=dict(zip(triangles, index.arrays["triangle_scores"].tolist())),
        estimator_name=str(index.params.get("estimator", "dp")),
    )


def build_index(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    mode: str = "local",
    theta: float = 0.3,
    k: int | None = None,
    **kwargs,
) -> NucleusIndex:
    """Build a :class:`NucleusIndex` for any of the three decomposition modes.

    ``mode="local"`` ignores ``k`` (all levels are indexed); ``"global"`` and
    ``"weak"``/``"weakly-global"`` require it.  Remaining keyword arguments
    are forwarded to the underlying decomposition entry point.
    """
    with span("index.build", mode=mode, theta=theta), timer() as t:
        index = _build_index(graph, mode, theta, k, **kwargs)
    if obs_config._ENABLED:
        obs_registry.histogram(
            "repro_index_build_seconds",
            "Wall-clock seconds per build_index call, labelled by mode.",
            mode=mode,
        ).observe(t.seconds)
    return index


def _build_index(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    mode: str,
    theta: float,
    k: int | None,
    **kwargs,
) -> NucleusIndex:
    if mode == "local":
        return build_local_index(graph, theta, **kwargs)
    if mode in ("global", "weak", "weakly-global"):
        if k is None:
            raise InvalidParameterError(f"mode {mode!r} requires an explicit k")
        if mode == "global":
            return build_global_index(graph, k, theta, **kwargs)
        return build_weak_index(graph, k, theta, **kwargs)
    raise InvalidParameterError(f'mode must be "local", "global" or "weak", got {mode!r}')
