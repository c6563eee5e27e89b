"""Incremental edge updates over a persistent nucleus index.

Every index in the repo is build-once: a single edge insert, delete, or
probability change invalidates the graph fingerprint and forces a full
redecomposition.  This module makes :class:`~repro.index.NucleusIndex`
maintainable instead — :func:`apply_updates` takes a batch of
:class:`EdgeUpdate` records and produces the index of the updated graph by
touching only the affected region:

1. the CSR graph absorbs the batch through
   :meth:`~repro.graph.csr.CSRProbabilisticGraph.with_edge_deltas` (canonical
   rebuild of the edge arrays — bit-identical to recompiling the updated
   graph);
2. the triangle ⇄ 4-clique incidence is patched by
   :func:`~repro.core.batch.delta_triangle_extension_index`, which enumerates
   only the triangles/4-cliques containing a changed edge and reassembles
   arrays bit-identical to a full enumeration;
3. nucleus scores are repaired by
   :func:`~repro.core.peel.repair_kappa_scores` — a localized
   greatest-fixed-point recomputation seeded at the triangles whose κ-inputs
   changed, exact for the unit-drop DP oracle.  It runs in synchronous
   rounds, each one batch of the κ-init DP kernel: closure rounds gather
   the triangles whose score may have risen, then fixed-point rounds lower
   every queued score together until none moves;
4. the per-level component groups and the snapshot itself are rebuilt with
   the same code paths as a from-scratch build, so the resulting index's
   arrays are **bit-identical** to rebuilding over the updated graph
   (the differential parity pinned by ``tests/test_incremental.py`` and the
   randomized tier-2 sweep).

The incremental path requires ``mode="local"`` with the exact DP estimator
(the only oracle whose peel scores are order-independent) on a graph small
enough for composite-key ids; every other configuration — global /
weakly-global modes, §5.3 approximations — falls back to a deterministic
full rebuild driven by the parameters recorded in the index header, so
``apply_updates`` is total over every index the builders produce.

Update lineage
--------------
The content fingerprint of an updated index is the fingerprint of its *new*
graph (so :meth:`~repro.index.NucleusIndex.verify_against` keeps working),
and three header fields carry the version history: ``base_fingerprint`` (the
revision-0 graph), ``revision`` (number of applied batches), and
``update_log_digest`` (a SHA-256 chain over the canonicalised batches).
:attr:`~repro.index.NucleusIndex.cache_key` folds them into one key, so
query-engine caches distinguish every revision without discarding entries
for the revisions they already answered.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from numbers import Real

import numpy as np

from repro.core.approximations import (
    BinomialEstimator,
    DynamicProgrammingEstimator,
    NormalEstimator,
    PoissonEstimator,
    TranslatedPoissonEstimator,
)
from repro.core.batch import (
    build_triangle_extension_index,
    clique_vertex_rows,
    delta_triangle_extension_index,
)
from repro.core.components import _nucleus_level_groups
from repro.core.hybrid import HybridEstimator
from repro.core.peel import EstimatorKappaRepair, repair_kappa_scores
from repro.deterministic.cliques import _members_of_sorted_mask
from repro.exceptions import EdgeNotFoundError, InvalidParameterError
from repro.graph.probabilistic_graph import Vertex
from repro.index.fingerprint import graph_fingerprint
from repro.index.nucleus_index import (
    FORMAT_NAME,
    FORMAT_VERSION,
    NucleusIndex,
    _component_aggregates,
)

__all__ = ["EdgeUpdate", "apply_updates", "chain_update_digest"]

#: Largest vertex count for which composite triangle/edge keys fit in int64.
_MAX_COMPOSITE_VERTICES = 2_000_000

#: Estimator classes by recorded header name, for the fallback rebuild.
_ESTIMATOR_FACTORIES = {
    DynamicProgrammingEstimator.name: DynamicProgrammingEstimator,
    PoissonEstimator.name: PoissonEstimator,
    TranslatedPoissonEstimator.name: TranslatedPoissonEstimator,
    NormalEstimator.name: NormalEstimator,
    BinomialEstimator.name: BinomialEstimator,
    HybridEstimator.name: HybridEstimator,
}

_OPS = ("insert", "delete", "change")


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation in original vertex-label space.

    ``op`` is ``"insert"`` (new edge with ``probability``), ``"delete"``
    (existing edge removed, ``probability`` must be ``None``), or
    ``"change"`` (existing edge's probability replaced).  The vertex set of
    the graph is fixed: both endpoints must already be vertices of the
    indexed graph.
    """

    op: str
    u: Vertex
    v: Vertex
    probability: float | None = None


def chain_update_digest(previous: str, updates: list[EdgeUpdate]) -> str:
    """Advance an update-log digest by one canonicalised batch.

    The digest is a SHA-256 chain: each link hashes the previous hex digest
    plus the canonical JSON of the batch (records sorted, endpoints in a
    deterministic orientation), so two indexes share a digest exactly when
    they received the same batches in the same order.
    """
    records = sorted(
        json.dumps(
            [update.op, update.u, update.v, update.probability],
            sort_keys=True,
            separators=(",", ":"),
        )
        for update in updates
    )
    link = hashlib.sha256()
    link.update(previous.encode("utf-8"))
    link.update("\n".join(records).encode("utf-8"))
    return link.hexdigest()


def _canonicalise(
    csr, updates
) -> tuple[list[EdgeUpdate], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate a batch against the index's CSR graph and split it into id arrays.

    Returns ``(updates, inserted, deleted, changed, added_probabilities)``:
    normalized :class:`EdgeUpdate` records with endpoints in canonical id
    orientation, the ``(k, 2)`` id arrays per operation, and the
    probabilities parallel to ``inserted`` stacked over ``changed``.  Each
    normalized endpoint is the index's own label of the vertex and each
    probability a ``float``, so a batch spelled with numpy scalars
    (``np.int64`` labels, an ``np.float32`` probability) normalizes — and
    digests — exactly like the same batch in plain Python numbers.
    """
    labels = csr.vertex_labels
    normalized: list[EdgeUpdate] = []
    seen: set[tuple[int, int]] = set()
    ins: list[tuple[int, int, float]] = []
    dele: list[tuple[int, int]] = []
    chg: list[tuple[int, int, float]] = []
    for update in updates:
        if not isinstance(update, EdgeUpdate):
            update = EdgeUpdate(*update)
        if update.op not in _OPS:
            raise InvalidParameterError(
                f"unknown update op {update.op!r}; expected one of {_OPS}"
            )
        i, j = csr.index_of(update.u), csr.index_of(update.v)
        if i == j:
            raise InvalidParameterError(
                f"self-loop update on vertex {update.u!r} is not a valid edge"
            )
        if i > j:
            i, j = j, i
        update = EdgeUpdate(update.op, labels[i], labels[j], update.probability)
        if (i, j) in seen:
            raise InvalidParameterError(
                f"edge ({update.u!r}, {update.v!r}) appears more than once in "
                "one update batch"
            )
        seen.add((i, j))
        exists = csr.has_edge_ids(i, j)
        if update.op == "delete":
            if update.probability is not None:
                raise InvalidParameterError(
                    "delete updates must not carry a probability"
                )
            if not exists:
                raise EdgeNotFoundError(update.u, update.v)
            dele.append((i, j))
        else:
            p = update.probability
            if isinstance(p, bool) or not isinstance(p, Real) or not (0.0 < float(p) <= 1.0):
                raise InvalidParameterError(
                    f"{update.op} updates require a probability in (0, 1], got {p!r}"
                )
            update = EdgeUpdate(update.op, update.u, update.v, float(p))
            if update.op == "insert":
                if exists:
                    raise InvalidParameterError(
                        f"edge ({update.u!r}, {update.v!r}) already exists; use "
                        'op="change" to update its probability'
                    )
                ins.append((i, j, float(p)))
            else:
                if not exists:
                    raise EdgeNotFoundError(update.u, update.v)
                chg.append((i, j, float(p)))
        normalized.append(update)
    inserted = np.array([(i, j) for i, j, _ in ins], dtype=np.int64).reshape(-1, 2)
    deleted = np.array(dele, dtype=np.int64).reshape(-1, 2)
    changed = np.array([(i, j) for i, j, _ in chg], dtype=np.int64).reshape(-1, 2)
    added_probabilities = np.array(
        [p for _, _, p in ins] + [p for _, _, p in chg], dtype=np.float64
    )
    return normalized, inserted, deleted, changed, added_probabilities


def _pairs_touching(rows: np.ndarray, edge_keys: np.ndarray, n: int) -> np.ndarray:
    """Mask of rows (vertex triples or quadruples) containing a listed edge."""
    count = rows.shape[0]
    if count == 0 or edge_keys.size == 0:
        return np.zeros(count, dtype=bool)
    width = rows.shape[1]
    keys = np.concatenate(
        [
            rows[:, i] * n + rows[:, j]
            for i in range(width)
            for j in range(i + 1, width)
        ]
    )
    pair_count = (width * (width - 1)) // 2
    return _members_of_sorted_mask(keys, edge_keys).reshape(pair_count, count).any(axis=0)


def _rebase_scores_and_seeds(
    old_index,
    old_rows: np.ndarray,
    old_scores: np.ndarray,
    new_index,
    new_rows: np.ndarray,
    n: int,
    inserted: np.ndarray,
    deleted: np.ndarray,
    changed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map old scores onto the new triangle rows and find the dirty seeds.

    Returns ``(base_scores, seeds, reusable)``.  ``base_scores``/``seeds``
    feed :func:`~repro.core.peel.repair_kappa_scores`: a triangle is a seed
    when its κ-inputs changed — it is newborn, its triangle probability
    changed (contains an inserted/changed edge), it gained or re-priced a
    4-clique (member of a new clique containing an inserted/changed edge),
    or it lost one (member of an old clique containing a deleted edge).

    ``reusable`` marks the triangles whose *snapshot inputs* are untouched:
    they survived with the same vertex triple and none of their three edges
    was re-priced, so their edge probabilities are bit-identical to the old
    graph's.  If such a triangle's repaired score also comes back equal to
    its old score, every per-component aggregate it contributes to reads
    unchanged inputs — the condition under which the snapshot assembly may
    copy the old component aggregates instead of recomputing them.
    """

    def triple_keys(rows: np.ndarray) -> np.ndarray:
        return (rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2]

    new_keys = triple_keys(new_rows)
    num_new = new_rows.shape[0]
    if old_rows.shape[0]:
        old_keys = triple_keys(old_rows)
        positions = np.clip(np.searchsorted(old_keys, new_keys), 0, old_keys.size - 1)
        survived = old_keys[positions] == new_keys
        base = np.where(survived, old_scores[positions], -1).astype(np.int64)
    else:
        survived = np.zeros(num_new, dtype=bool)
        base = np.full(num_new, -1, dtype=np.int64)

    def edge_keys(pairs: np.ndarray) -> np.ndarray:
        if pairs.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(pairs[:, 0] * n + pairs[:, 1])

    repriced = edge_keys(np.vstack([inserted, changed]))
    removed = edge_keys(deleted)

    repriced_triangles = _pairs_touching(new_rows, repriced, n)
    reusable = survived & ~repriced_triangles
    seed_mask = ~survived
    seed_mask |= repriced_triangles
    new_quads = clique_vertex_rows(new_index, new_rows)
    quad_mask = _pairs_touching(new_quads, repriced, n)
    if quad_mask.any():
        seed_mask[new_index.clique_triangles[quad_mask].ravel()] = True
    if removed.size and num_new:
        old_quads = clique_vertex_rows(old_index, old_rows)
        dead = _pairs_touching(old_quads, removed, n)
        if dead.any():
            quads = old_quads[dead]
            # The four member triples of each dead clique; the ones that do
            # not themselves contain a deleted edge survive and lost a
            # posting.
            triples = np.concatenate(
                [
                    quads[:, [1, 2, 3]],
                    quads[:, [0, 2, 3]],
                    quads[:, [0, 1, 3]],
                    quads[:, [0, 1, 2]],
                ]
            )
            triples = triples[~_pairs_touching(triples, removed, n)]
            if triples.size:
                triples = np.unique(triples, axis=0)
                keys = triple_keys(triples)
                positions = np.clip(np.searchsorted(new_keys, keys), 0, num_new - 1)
                found = new_keys[positions] == keys
                seed_mask[positions[found]] = True
    return base, np.flatnonzero(seed_mask), reusable


def _component_reuse_hook(old_index: NucleusIndex, old_keys, new_keys, clean):
    """Build the aggregate-reuse callback handed to ``NucleusIndex._build``.

    ``clean`` marks (in new triangle-row space) the triangles whose snapshot
    inputs — vertex triple, edge probabilities, repaired score — are all
    bit-identical to the previous revision's.  A new component copies the
    old component's stored aggregates exactly when every member is clean and
    an old component at the same level has the identical member-triple-key
    array; recomputing those aggregates would read identical inputs, so the
    copied floats equal the recomputed ones bit for bit.
    """
    arrays = old_index.arrays
    old_level = arrays["comp_level"]
    old_indptr = arrays["comp_indptr"]
    if old_level.size == 0:
        return None
    old_member_keys = old_keys[arrays["comp_triangles"]]
    old_sizes = np.diff(old_indptr)
    first_of: dict[tuple[int, int], int] = {}
    for comp_id, (level, key) in enumerate(
        zip(old_level.tolist(), old_member_keys[old_indptr[:-1]].tolist())
    ):
        first_of[(level, key)] = comp_id

    def comp_reuse(comp_level, comp_indptr, comp_triangles):
        c_count = comp_level.size
        flat_keys = new_keys[comp_triangles]
        sizes = np.diff(comp_indptr)
        all_clean = np.bitwise_and.reduceat(clean[comp_triangles], comp_indptr[:-1])
        candidates = np.fromiter(
            (
                first_of.get((level, key), -1)
                for level, key in zip(
                    comp_level.tolist(), flat_keys[comp_indptr[:-1]].tolist()
                )
            ),
            dtype=np.int64,
            count=c_count,
        )
        matched = candidates >= 0
        safe = np.where(matched, candidates, 0)
        ok = all_clean & matched & (sizes == old_sizes[safe])
        if not ok.any():
            return None
        # Elementwise member comparison against the candidate's postings;
        # positions are clipped so the (discarded) rows of unmatched
        # components never index out of bounds.
        within = np.arange(comp_triangles.size, dtype=np.int64) - np.repeat(
            comp_indptr[:-1], sizes
        )
        old_flat = np.repeat(old_indptr[safe], sizes) + within
        old_flat = np.clip(old_flat, 0, old_member_keys.size - 1)
        members_equal = np.bitwise_and.reduceat(
            flat_keys == old_member_keys[old_flat], comp_indptr[:-1]
        )
        reused = ok & members_equal
        if not reused.any():
            return None
        gather = np.where(reused, candidates, 0)
        return (
            reused,
            arrays["comp_n_vertices"][gather],
            arrays["comp_n_edges"][gather],
            arrays["comp_sum_edge_prob"][gather],
            arrays["comp_log_reliability"][gather],
            arrays["comp_max_score"][gather],
        )

    return comp_reuse


def _reprice_snapshot(index: NucleusIndex, new_csr, dirty: np.ndarray) -> NucleusIndex:
    """Snapshot fast path for probability-only batches with unchanged scores.

    When a batch contains no inserts or deletes and every repaired κ-score
    comes back bit-equal to the old one, the triangle set, postings, sort
    orders and component layout of the new snapshot are all identical to the
    previous revision's — rebuilding them would recompute the same arrays
    from the same inputs.  Only the probability-dependent pieces change: the
    CSR value array, the undirected edge records, and the two edge-probability
    aggregates (``comp_sum_edge_prob`` / ``comp_log_reliability``) of the
    components containing a re-priced triangle.  ``dirty`` marks those
    triangles (row space is shared between revisions here).  The recomputed
    aggregates go through :func:`~repro.index.nucleus_index._component_aggregates`
    — the same reduction a full rebuild runs — so the result stays
    bit-identical to building from scratch.
    """
    old = index.arrays
    n = new_csr.num_vertices
    edge_u, edge_v, edge_prob = new_csr.undirected_edge_arrays()
    edge_keys = edge_u * n + edge_v
    comp_indptr = old["comp_indptr"]
    comp_triangles = old["comp_triangles"]
    comp_sum_edge_prob = old["comp_sum_edge_prob"].copy()
    comp_log_reliability = old["comp_log_reliability"].copy()
    rows = old["triangles"]
    scores = old["triangle_scores"]
    if comp_triangles.size:
        dirty_comps = np.flatnonzero(
            np.bitwise_or.reduceat(dirty[comp_triangles], comp_indptr[:-1])
        )
    else:
        dirty_comps = np.empty(0, dtype=np.int64)
    for i in dirty_comps.tolist():
        members = comp_triangles[comp_indptr[i] : comp_indptr[i + 1]]
        (_, _, comp_sum_edge_prob[i], comp_log_reliability[i], _) = _component_aggregates(
            rows[members], scores[members], n, edge_keys, edge_prob
        )
    fingerprint = graph_fingerprint(new_csr)
    header = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "mode": index.mode,
        "theta": float(index.theta),
        "params": index.params,
        "fingerprint": fingerprint,
        "base_fingerprint": fingerprint,
        "update_log_digest": "",
        "revision": 0,
        "vertex_labels": index.header["vertex_labels"],
    }
    arrays = dict(old)
    arrays.update(
        indptr=new_csr.indptr,
        indices=new_csr.indices,
        probabilities=new_csr.probabilities,
        edge_u=edge_u,
        edge_v=edge_v,
        edge_prob=edge_prob,
        comp_sum_edge_prob=comp_sum_edge_prob,
        comp_log_reliability=comp_log_reliability,
    )
    return NucleusIndex(header, arrays)


def _incremental_local(index: NucleusIndex, csr, inserted, deleted, changed, added_p):
    """The incremental path: delta-index + localized score repair + snapshot."""
    state = getattr(index, "_incremental_state", None)
    if state is None:
        tri_index = build_triangle_extension_index(csr)
        rows = np.asarray(tri_index.triangles, dtype=np.int64).reshape(-1, 3)
        scores = index.arrays["triangle_scores"]
        cached_groups = None
    else:
        tri_index = state["tri_index"]
        rows = state["rows"]
        scores = state["scores"]
        cached_groups = state.get("level_groups")

    structural = bool(inserted.size or deleted.size)
    removed_all = np.vstack([deleted, changed])
    added_all = np.vstack([inserted, changed])
    new_csr = csr.with_edge_deltas(removed_all, added_all, added_p)
    new_tri_index = delta_triangle_extension_index(
        tri_index, new_csr, inserted, deleted, rows
    )
    new_rows = (
        np.asarray(new_tri_index.triangles, dtype=np.int64).reshape(-1, 3)
        if structural
        else rows  # probability-only batches keep the triangle set
    )
    base, seeds, reusable = _rebase_scores_and_seeds(
        tri_index,
        rows,
        scores,
        new_tri_index,
        new_rows,
        new_csr.num_vertices,
        inserted,
        deleted,
        changed,
    )
    repairer = EstimatorKappaRepair(
        DynamicProgrammingEstimator(), new_tri_index.triangle_probabilities, index.theta
    )
    new_scores = repair_kappa_scores(new_tri_index, base, seeds, repairer)
    if not structural and np.array_equal(new_scores, scores):
        # Same triangles, same cliques, same scores: the snapshot differs
        # from the previous revision only in its probability-dependent
        # arrays, so re-price the old one instead of reassembling it.
        level_groups = cached_groups
        result = _reprice_snapshot(index, new_csr, ~reusable)
    else:
        level_groups = _nucleus_level_groups(new_scores, new_tri_index)
        n = new_csr.num_vertices

        def triple_keys(r: np.ndarray) -> np.ndarray:
            return (r[:, 0] * n + r[:, 1]) * n + r[:, 2]

        clean = reusable & (new_scores == base)
        comp_reuse = _component_reuse_hook(
            index, triple_keys(rows), triple_keys(new_rows), clean
        )
        # Direct _build call: the delta enumeration hands over canonical
        # arrays by construction, so from_triangle_arrays' sortedness
        # re-validation is redundant here; the vertex set never changes, so
        # the previous revision's JSON-safe label list is reused as-is.
        result = NucleusIndex._build(
            new_csr,
            new_rows,
            np.ascontiguousarray(new_scores, dtype=np.int64),
            level_groups,
            "local",
            index.theta,
            dict(index.params),
            comp_reuse=comp_reuse,
            labels=index.header["vertex_labels"],
        )
    result._incremental_state = {
        "csr": new_csr,
        "tri_index": new_tri_index,
        "rows": new_rows,
        "scores": new_scores,
        "level_groups": level_groups,
    }
    return result


def _rebuild_fallback(index: NucleusIndex, csr, inserted, deleted, changed, added_p):
    """Deterministic full rebuild for configurations without an incremental path."""
    from repro.index.builders import (
        _MONTE_CARLO_DEFAULTS,
        build_global_index,
        build_local_index,
        build_weak_index,
    )

    new_csr = csr.with_edge_deltas(
        np.vstack([deleted, changed]), np.vstack([inserted, changed]), added_p
    )
    params = index.params
    name = str(params.get("estimator", DynamicProgrammingEstimator.name))
    factory = _ESTIMATOR_FACTORIES.get(name)
    if factory is None:
        raise InvalidParameterError(
            f"cannot rebuild a {index.mode} index with unknown estimator {name!r}; "
            "rebuild it explicitly with build_index"
        )
    # A header without an estimator or kernel entry was built with the default.
    engine = {"estimator": factory(), "kernel": str(params.get("kernel", "numpy"))}
    if index.mode == "local":
        return build_local_index(new_csr, index.theta, **engine)
    builder = build_global_index if index.mode == "global" else build_weak_index
    sampling = str(params.get("sampling", "fixed"))
    sampling_kwargs = {}
    if sampling != "fixed":
        # v2 headers record the adaptive knobs; v1 archives lack the keys
        # entirely and rebuild on the fixed path exactly as before.
        sampling_kwargs = {
            "sampling": sampling,
            "confidence": float(params.get("confidence", 0.95)),
            "n_worlds_max": params.get("n_worlds_max"),
        }
    # Recorded only when they differ from the defaults; see _monte_carlo_params.
    monte_carlo = {name: params[name] for name in _MONTE_CARLO_DEFAULTS if name in params}
    return builder(
        new_csr.to_probabilistic(),
        int(params["k"]),
        index.theta,
        n_samples=params.get("n_samples"),
        seed=params.get("seed"),
        **engine,
        **sampling_kwargs,
        **monte_carlo,
    )


def apply_updates(index: NucleusIndex, updates) -> NucleusIndex:
    """Apply a batch of edge updates to an index and return the updated index.

    The result is bit-identical (same arrays, same content fingerprint) to
    building a fresh index over the updated graph with the same
    configuration, except for the lineage header fields — ``revision``
    advances by one, ``base_fingerprint`` is carried over, and
    ``update_log_digest`` chains the batch — so caches keyed by
    :attr:`~repro.index.NucleusIndex.cache_key` see a new key.

    Local indexes built with the exact DP estimator are maintained
    incrementally; everything else is rebuilt from scratch with the
    parameters recorded in the header (deterministic whenever the original
    build was, i.e. when global/weak indexes recorded a ``seed``).  An empty
    batch returns ``index`` unchanged without advancing the revision.
    """
    updates = list(updates)
    if not updates:
        return index
    state = getattr(index, "_incremental_state", None)
    csr = state["csr"] if state is not None else index.to_csr_graph()
    updates, inserted, deleted, changed, added_p = _canonicalise(csr, updates)
    fast = (
        index.mode == "local"
        and str(index.params.get("estimator", "")) == DynamicProgrammingEstimator.name
        and index.num_vertices <= _MAX_COMPOSITE_VERTICES
    )
    if fast:
        result = _incremental_local(index, csr, inserted, deleted, changed, added_p)
    else:
        result = _rebuild_fallback(index, csr, inserted, deleted, changed, added_p)
    result.header["base_fingerprint"] = index.base_fingerprint
    result.header["update_log_digest"] = chain_update_digest(
        index.update_log_digest, updates
    )
    result.header["revision"] = index.revision + 1
    return result
