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
2. the triangle ⇄ 4-clique incidence is spliced by
   :func:`~repro.core.batch.delta_triangle_extension_index`: it finds only
   the triangles/4-cliques on a changed edge, drops the dead rows, inserts
   the born ones at their sorted places and re-gathers only the
   probabilities that changed, so the arrays are bit-identical to a full
   enumeration; the old → new row map and the touched rows it returns give
   the repair its base scores and its seeds, and its ``lowered`` rows are
   the seeds whose κ inputs only fell;
3. nucleus scores are repaired by
   :func:`~repro.core.peel.repair_kappa_scores` — a localized
   greatest-fixed-point recomputation seeded at the triangles whose κ-inputs
   changed, exact for the unit-drop DP oracle.  It runs in synchronous
   rounds, each one batch of the κ-init DP kernel: closure rounds, rooted at
   the seeds whose inputs may have risen, gather the triangles whose score
   may have risen, then fixed-point rounds lower every queued score
   together until none moves.  The ``lowered`` seeds enter the fixed point
   at their old score, so a delete or a re-price that lowers ``p`` runs no
   closure round — unless some ``Pr(△)`` lies on θ, where the float κ is
   not monotone and every seed roots the closure;
4. only the batch's *region* is regrouped: the rows whose score or
   4-cliques changed, grown to the whole previous components that hold them
   (:func:`_regrouped_levels`).  The region gets the from-scratch build's
   own descending sweep
   (:func:`~repro.core.components._nucleus_level_groups`); every other
   previous component is carried into its level with its stored
   aggregates, and the snapshot computes the region's.  A probability-only
   batch that kept every score re-prices the previous snapshot instead.
   The resulting index's arrays are **bit-identical** to rebuilding over the
   updated graph (the differential parity pinned by
   ``tests/test_incremental.py`` and the randomized tier-2 sweep).

Steps 2–4 run in an ``index.update`` span, as its children ``index.splice``,
``peel.repair`` and ``index.snapshot`` (``docs/OBSERVABILITY.md``).  An index
from :func:`~repro.index.builders.build_local_index` hands its peel's
triangle index to its first update; a loaded one enumerates it on its first
update.

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
    _MAX_KEYED_VERTICES,
    _postings_of,
    build_triangle_extension_index,
    delta_triangle_extension_index,
)
from repro.core.components import _nucleus_level_groups
from repro.core.hybrid import HybridEstimator
from repro.core.peel import EstimatorKappaRepair, _on_theta, repair_kappa_scores
from repro.exceptions import EdgeNotFoundError, InvalidParameterError
from repro.graph.probabilistic_graph import Vertex
from repro.index.fingerprint import graph_fingerprint
from repro.index.nucleus_index import (
    FORMAT_NAME,
    FORMAT_VERSION,
    NucleusIndex,
    _component_aggregates,
)
from repro.obs.spans import span

__all__ = ["EdgeUpdate", "apply_updates", "chain_update_digest"]

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


def _regrouped_levels(previous: dict, splice, scores: np.ndarray, base: np.ndarray):
    """The level groups of the spliced index, regrouping only the batch's region.

    The region starts from the rows whose grouping inputs may have changed:
    the splice's ``touched`` rows, the rows whose score moved, and every
    member of a 4-clique holding a moved row.  A 4-clique that was born,
    died or changed its minimum score thus has all its surviving members
    there, and so has every row whose cover level changed.  The region then
    takes in all members of each previous component, at any level, that
    holds one of those rows or a dead row.  Components nest downwards, so the
    region is a union of whole components at every level, before the batch
    and after it: one :func:`~repro.core.components._nucleus_level_groups`
    sweep of the region regroups it, and every previous component outside it
    is a component of the new index at the same level, with the same
    members, scores and edge probabilities.  Those are carried through the
    monotone ``row_map`` and merged into their level by smallest member.

    ``previous`` holds the previous snapshot's arrays.  Returns the level
    groups, the previous component each one carries (``-1`` where it was
    regrouped, in level order) and the ``index.snapshot`` span's counts.
    """
    index = splice.index
    moved = np.flatnonzero(scores != base)
    # The slot past the last row stands for the dead rows (row_map's -1).
    in_region = np.zeros(index.num_triangles + 1, dtype=bool)
    in_region[-1] = True
    in_region[splice.touched] = True
    in_region[moved] = True
    positions, _ = _postings_of(index.tri_clique_indptr, moved)
    in_region[index.clique_triangles[index.tri_cliques[positions]]] = True

    comp_level = previous["comp_level"]
    comp_indptr = previous["comp_indptr"]
    members = splice.row_map[previous["comp_triangles"]]
    if members.size:
        dirty = np.logical_or.reduceat(in_region[members], comp_indptr[:-1])
        in_region[members[np.repeat(dirty, np.diff(comp_indptr))]] = True
    region = np.flatnonzero(in_region[:-1])
    carried = np.flatnonzero(~in_region[members[comp_indptr[:-1]]])

    # Per level: (smallest member, previous component or -1, members).
    entries = {
        k: [(int(group[0]), -1, group) for group in groups]
        for k, groups in _nucleus_level_groups(scores, index, region).items()
    }
    for comp, start, stop in zip(
        carried.tolist(), comp_indptr[carried].tolist(), comp_indptr[carried + 1].tolist()
    ):
        entries[int(comp_level[comp])].append((int(members[start]), comp, members[start:stop]))
    level_groups: dict[int, list[np.ndarray]] = {}
    sources: list[int] = []
    for k in sorted(entries):
        level = sorted(entries[k], key=lambda entry: entry[0])
        level_groups[k] = [group for _, _, group in level]
        sources += [source for _, source, _ in level]
    counts = {
        "carried": int(carried.size),
        "regrouped": len(sources) - int(carried.size),
        "region_rows": int(region.size),
    }
    return level_groups, np.array(sources, dtype=np.int64), counts


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


@span("index.update")
def _incremental_local(index: NucleusIndex, csr, inserted, deleted, changed, added_p):
    """The incremental path: splice the triangle index, repair the scores, snapshot."""
    state = index._incremental_state
    tri_index = build_triangle_extension_index(csr) if state is None else state["tri_index"]
    scores = index.arrays["triangle_scores"]

    structural = bool(inserted.size or deleted.size)
    removed_all = np.vstack([deleted, changed])
    added_all = np.vstack([inserted, changed])
    new_csr = csr.with_edge_deltas(removed_all, added_all, added_p)
    with span("index.splice") as splice_span:
        splice = delta_triangle_extension_index(
            tri_index, csr, new_csr, inserted, deleted, changed
        )
        splice_span.annotate(**splice.counts)
    new_tri_index = splice.index
    # A triangle is a seed when its κ inputs changed; the others, and the
    # seeds whose inputs only fell, keep their old score as the repair's
    # upper bound.  That needs a monotone κ, which the float DP lacks where
    # some Pr(△) lies on θ: there every seed roots the increase closure.
    base = splice.base_scores(scores)
    repairer = EstimatorKappaRepair(
        DynamicProgrammingEstimator(), new_tri_index.triangle_probabilities, index.theta
    )
    tied = _on_theta(new_tri_index.triangle_probabilities, index.theta)
    new_scores = repair_kappa_scores(
        new_tri_index, base, splice.touched, repairer, lowered=() if tied else splice.lowered
    )
    with span("index.snapshot") as snapshot_span:
        if not structural and np.array_equal(new_scores, scores):
            # Same triangles, same cliques, same scores: the snapshot differs
            # from the previous revision only in its probability-dependent
            # arrays, so re-price the old one instead of reassembling it.
            repriced = np.zeros(new_tri_index.num_triangles, dtype=bool)
            repriced[splice.repriced] = True
            result = _reprice_snapshot(index, new_csr, repriced)
            counts = {"carried": index.num_components, "regrouped": 0, "region_rows": 0}
        else:
            level_groups, sources, counts = _regrouped_levels(
                index.arrays, splice, new_scores, base
            )
            # Direct _build call: the splice hands over canonical arrays by
            # construction, so from_triangle_arrays' sortedness re-validation
            # is redundant here; the vertex set never changes, so the
            # previous revision's JSON-safe label list is reused as-is.
            result = NucleusIndex._build(
                new_csr,
                new_tri_index.triangles,
                np.ascontiguousarray(new_scores, dtype=np.int64),
                level_groups,
                "local",
                index.theta,
                dict(index.params),
                labels=index.header["vertex_labels"],
                carried=(sources, index.arrays),
            )
        snapshot_span.annotate(**counts)
    result._incremental_state = {"csr": new_csr, "tri_index": new_tri_index}
    return result


def _rebuild_fallback(index: NucleusIndex, csr, inserted, deleted, changed, added_p):
    """Deterministic full rebuild for configurations without an incremental path."""
    from repro.index.builders import (
        _MONTE_CARLO_KNOBS,
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
    # A header without an estimator entry was built with the default.  Older
    # headers may carry ``kernel`` entries, or the adaptive-sampling entries
    # (``sampling``, ``confidence``, ``n_worlds_max``, ``chunk_initial``,
    # ``chunk_growth``); there is one peel and one fixed-n loop, so none is
    # passed on.
    estimator = factory()
    if index.mode == "local":
        return build_local_index(new_csr, index.theta, estimator=estimator)
    builder = build_global_index if index.mode == "global" else build_weak_index
    # Recorded only when they differ from the defaults; see _monte_carlo_params.
    monte_carlo = {name: params[name] for name in _MONTE_CARLO_KNOBS if name in params}
    return builder(
        new_csr.to_probabilistic(),
        int(params["k"]),
        index.theta,
        n_samples=params.get("n_samples"),
        seed=params.get("seed"),
        estimator=estimator,
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
    state = index._incremental_state
    csr = index.to_csr_graph() if state is None else state["csr"]
    updates, inserted, deleted, changed, added_p = _canonicalise(csr, updates)
    fast = (
        index.mode == "local"
        and str(index.params.get("estimator", "")) == DynamicProgrammingEstimator.name
        and index.num_vertices <= _MAX_KEYED_VERTICES
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
