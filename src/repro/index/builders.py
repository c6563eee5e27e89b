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

from repro.core.approximations import SupportEstimator
from repro.core.batch import CSRTriangleIndex
from repro.core.components import _root_groups, _union_batches
from repro.core.global_nucleus import check_partitions, global_nucleus_decomposition
from repro.core.local import _csr_engine_arrays, check_backend, resolve_local_options
from repro.core.result import LocalNucleusDecomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.deterministic.cliques import canonical_triangle
from repro.exceptions import InvalidParameterError
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index.nucleus_index import NucleusIndex
from repro.kernels import resolve_kernel
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.obs.timing import timer

__all__ = [
    "build_index",
    "build_local_index",
    "build_global_index",
    "build_weak_index",
    "load_index",
    "local_result_from_index",
]

load_index = NucleusIndex.load


def _nucleus_level_groups(
    scores: np.ndarray, index: CSRTriangleIndex
) -> dict[int, list[np.ndarray]]:
    """Compute the per-level nucleus components from the engine's arrays.

    Id-space replica of
    :func:`repro.deterministic.nucleus.k_nucleus_triangle_groups` for every
    level ``0 … max ν``: a 4-clique connects its members at level ``k`` only
    when all four member triangles score at least ``k`` (equivalently, its
    minimum member score is at least ``k``), a triangle belongs to a
    component only when at least one such clique covers it, and the
    components are the union-find closure over the allowed cliques.

    Because the allowed-clique sets are nested downwards (a clique allowed
    at ``k`` is allowed at every smaller level), one descending sweep
    suffices: cliques enter a single union-find forest in batches at the
    level equal to their minimum member score
    (:func:`~repro.core.components._union_batches`).  A triangle is covered
    at ``k`` exactly when some clique containing it has entered by then,
    i.e. when its best containing-clique level (``cover_level``, one
    ``maximum.at`` scatter) is at least ``k`` — which also implies its own
    score is.  Each level then snapshots the components of its covered
    triangles with one stable argsort over the flattened roots
    (:func:`~repro.core.components._root_groups`); levels where no clique
    entered share the previous level's groups unchanged.  Groups come out
    exactly as
    :meth:`NucleusIndex.from_local_result` sorts them — ordered by smallest
    member, members ascending — so the resulting snapshot is identical to
    :meth:`NucleusIndex.from_local_result` of the same decomposition.
    """
    num_triangles = scores.size
    max_score = int(scores.max()) if num_triangles else -1
    level_groups: dict[int, list[np.ndarray]] = {}
    if max_score < 0:
        return level_groups

    clique_triangles = index.clique_triangles
    clique_min_score = (
        scores[clique_triangles].min(axis=1)
        if clique_triangles.shape[0]
        else np.empty(0, dtype=np.int64)
    )
    entry_order = np.argsort(-clique_min_score, kind="stable")
    entry_levels = clique_min_score[entry_order]
    entry_members = clique_triangles[entry_order]
    cover_level = np.full(num_triangles, -1, dtype=np.int64)
    if clique_triangles.shape[0]:
        np.maximum.at(
            cover_level, clique_triangles.ravel(), np.repeat(clique_min_score, 4)
        )

    parent = np.arange(num_triangles, dtype=np.int64)
    next_entry = 0
    for k in range(max_score, -1, -1):
        # Cliques whose minimum member score is >= k enter here (the entry
        # list descends, so they form the next contiguous slice).
        stop = int(np.searchsorted(-entry_levels, -k, side="right"))
        if stop > next_entry:
            batch = entry_members[next_entry:stop]
            parent = _union_batches(
                parent, np.repeat(batch[:, 0], 3), batch[:, 1:].ravel()
            )
            next_entry = stop
        elif k + 1 in level_groups:
            level_groups[k] = level_groups[k + 1]
            continue
        ids = np.flatnonzero(cover_level >= k)
        if ids.size == 0:
            level_groups[k] = []
            continue
        # Ordered by smallest member: the lexicographic sort key of the
        # reference ordering.
        level_groups[k] = _root_groups(parent, ids)
    return level_groups


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
    :func:`~repro.core.global_nucleus.check_partitions`.
    """
    check_backend(backend)
    check_partitions(partitions)
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
    :func:`~repro.core.global_nucleus.check_partitions`.
    """
    check_backend(backend)
    check_partitions(partitions)
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
    triangle order, which is the same insertion order the peel engine's
    :func:`~repro.core.local._label_space_scores` produces — a rehydrated
    result is therefore interchangeable with a fresh decomposition, down to
    dict iteration order.  Hybrid estimator selection
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
    labels = index.vertex_labels
    rows = index.arrays["triangles"]
    values = index.arrays["triangle_scores"].tolist()
    try:
        plainly_sorted = all(labels[i] <= labels[i + 1] for i in range(len(labels) - 1))
    except TypeError:
        plainly_sorted = False
    scores: dict = {}
    for (u, v, w), score in zip(rows.tolist(), values):
        lu, lv, lw = labels[u], labels[v], labels[w]
        triangle = (lu, lv, lw) if plainly_sorted else canonical_triangle(lu, lv, lw)
        scores[triangle] = score
    return LocalNucleusDecomposition(
        graph=graph,
        theta=index.theta,
        scores=scores,
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
