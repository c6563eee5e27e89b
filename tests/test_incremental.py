"""Differential-parity tests for incremental index maintenance.

The contract under test (``repro.index.incremental``): applying a batch of
edge updates to a :class:`~repro.index.NucleusIndex` yields arrays
**bit-identical** to rebuilding the index from scratch over the updated
graph, while the lineage header fields (``base_fingerprint`` / ``revision``
/ ``update_log_digest``) version the history for query-engine caches.  The
reference oracle throughout is a plain ``build_local_index`` over an
independently re-assembled graph — the dict-of-edges bookkeeping is the
parity oracle, the incremental path is the implementation under test.

The randomized wide sweep (hundreds of batches, all modes) lives in
``tests/test_incremental_sweep.py`` under the ``tier2`` marker; this module
is the fast tier-1 pin of every code path and failure mode.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from graph_factories import (
    assert_same_triangle_index,
    pathological_graph,
    small_er_graph,
    two_cliques_sharing_an_edge,
)

import repro.core.batch as batch_module
import repro.index.incremental as incremental
from repro.core.approximations import NormalEstimator, PoissonEstimator
from repro.core.batch import build_triangle_extension_index, clique_vertex_rows
from repro.core.components import _nucleus_level_groups
from repro.core.local import local_nucleus_decomposition
from repro.exceptions import (
    EdgeNotFoundError,
    IndexCompatibilityError,
    IndexFormatError,
    InvalidParameterError,
    VertexNotFoundError,
)
from repro.graph.generators import planted_nucleus_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index import (
    EdgeUpdate,
    apply_updates,
    build_global_index,
    build_local_index,
    build_weak_index,
    load_index,
    versioned_fingerprint,
)
from repro.index.incremental import chain_update_digest
from repro.index.nucleus_index import FORMAT_VERSION, NucleusIndex, _component_aggregates
from repro.query import NucleusQueryEngine

THETA = 0.05


# --------------------------------------------------------------------------- #
# helpers: dict-of-edges bookkeeping as the parity oracle
# --------------------------------------------------------------------------- #
def edge_dict(graph) -> dict:
    return {tuple(sorted((u, v), key=repr)): p for u, v, p in graph.edges()}


def apply_to_edges(edges: dict, updates) -> dict:
    """Replay a batch on the plain edge dictionary (the reference model)."""
    edges = dict(edges)
    for update in updates:
        key = tuple(sorted((update.u, update.v), key=repr))
        if update.op == "insert":
            assert key not in edges
            edges[key] = update.probability
        elif update.op == "delete":
            del edges[key]
        else:
            assert key in edges
            edges[key] = update.probability
    return edges


def graph_from(edges: dict, labels) -> ProbabilisticGraph:
    graph = ProbabilisticGraph([(u, v, p) for (u, v), p in edges.items()])
    for label in labels:  # apply_updates keeps the vertex set fixed
        graph.add_vertex(label)
    return graph


#: Monte-Carlo knobs a global/weak index header records when they differ from
#: the defaults, so that the fallback rebuild of ``apply_updates`` replays them.
MONTE_CARLO_KNOBS = {
    "epsilon": {"epsilon": 0.3},
    "delta": {"delta": 0.9},
}


#: The pruning estimators a global/weak index header records by name, so
#: that the fallback rebuild of ``apply_updates`` prunes with them again.
ESTIMATOR_KNOBS = {
    "estimator=poisson": {"estimator": PoissonEstimator()},
    "estimator=clt": {"estimator": NormalEstimator()},
}


def planted_communities_graph(low: float = 0.8, spread: float = 0.2) -> ProbabilisticGraph:
    """Three planted 7-cliques (p in [low, low + spread]) over a sparse background."""
    return planted_nucleus_graph(
        num_communities=3,
        community_size=7,
        intra_density=1.0,
        background_vertices=10,
        background_density=0.15,
        bridges_per_community=2,
        probability_model=lambda r: low + spread * r.random(),
        seed=4,
    )


def assert_same_content(actual: NucleusIndex, expected: NucleusIndex) -> None:
    """Bit-for-bit array equality plus matching content fingerprint."""
    assert actual.fingerprint == expected.fingerprint
    assert set(actual.arrays) == set(expected.arrays)
    for name, want in expected.arrays.items():
        got = actual.arrays[name]
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def checked_apply(index, graph_labels, edges, updates, theta=THETA):
    """apply_updates plus the from-scratch parity assertions; returns both.

    The snapshot must equal a fresh build, and so must the spliced triangle
    index the updated index keeps for its next batch.
    """
    new_index = apply_updates(index, updates)
    new_edges = apply_to_edges(edges, updates)
    graph = graph_from(new_edges, graph_labels)
    assert_same_content(new_index, build_local_index(graph, theta))
    assert_same_triangle_index(
        new_index._incremental_state["tri_index"],
        build_triangle_extension_index(graph.to_csr()),
    )
    return new_index, new_edges


# --------------------------------------------------------------------------- #
# batch validation
# --------------------------------------------------------------------------- #
class TestBatchValidation:
    @pytest.fixture
    def index(self, triangle_graph):
        return build_local_index(triangle_graph, THETA)

    def test_unknown_op_rejected(self, index):
        with pytest.raises(InvalidParameterError, match="unknown update op"):
            apply_updates(index, [EdgeUpdate("upsert", 0, 1, 0.5)])

    def test_self_loop_rejected(self, index):
        with pytest.raises(InvalidParameterError, match="self-loop"):
            apply_updates(index, [EdgeUpdate("change", 1, 1, 0.5)])

    def test_unknown_vertex_rejected(self, index):
        with pytest.raises(VertexNotFoundError):
            apply_updates(index, [EdgeUpdate("insert", 0, 99, 0.5)])

    def test_duplicate_edge_in_batch_rejected(self, index):
        # The second record targets the same edge in the opposite
        # orientation; canonicalisation must still catch the collision.
        batch = [EdgeUpdate("change", 0, 1, 0.4), EdgeUpdate("change", 1, 0, 0.6)]
        with pytest.raises(InvalidParameterError, match="more than once"):
            apply_updates(index, batch)

    def test_delete_with_probability_rejected(self, index):
        with pytest.raises(InvalidParameterError, match="must not carry"):
            apply_updates(index, [EdgeUpdate("delete", 0, 1, 0.5)])

    def test_delete_missing_edge_rejected(self, triangle_graph):
        graph = triangle_graph
        graph.add_vertex(3)
        index = build_local_index(graph, THETA)
        with pytest.raises(EdgeNotFoundError):
            apply_updates(index, [EdgeUpdate("delete", 0, 3)])

    def test_change_missing_edge_rejected(self, triangle_graph):
        graph = triangle_graph
        graph.add_vertex(3)
        index = build_local_index(graph, THETA)
        with pytest.raises(EdgeNotFoundError):
            apply_updates(index, [EdgeUpdate("change", 0, 3, 0.5)])

    def test_insert_existing_edge_rejected(self, index):
        with pytest.raises(InvalidParameterError, match="already exists"):
            apply_updates(index, [EdgeUpdate("insert", 0, 1, 0.5)])

    @pytest.mark.parametrize(
        "probability", [0.0, -0.5, 1.5, None, True, "0.5", float("nan"), np.True_]
    )
    def test_bad_probabilities_rejected(self, index, probability):
        with pytest.raises(InvalidParameterError, match="probability"):
            apply_updates(index, [EdgeUpdate("change", 0, 1, probability)])

    def test_failed_batch_leaves_index_usable(self, index):
        before = index.cache_key
        with pytest.raises(InvalidParameterError):
            apply_updates(index, [EdgeUpdate("change", 0, 1, 2.0)])
        assert index.cache_key == before
        assert index.revision == 0

    def test_numpy_scalars_match_plain_numbers(self, paper_figure1_graph):
        # numpy labels and probabilities normalize to the index's own labels
        # and plain floats: same arrays, same lineage digest.
        index = build_local_index(paper_figure1_graph, THETA)
        plain = [
            EdgeUpdate("insert", 5, 6, 0.75),
            EdgeUpdate("delete", 1, 7),
            EdgeUpdate("change", 3, 5, 0.5),
        ]
        spelled = [
            EdgeUpdate("insert", np.int64(5), np.int64(6), np.float64(0.75)),
            EdgeUpdate("delete", np.int32(7), np.int64(1)),
            EdgeUpdate("change", np.int64(5), np.int64(3), np.float32(0.5)),
        ]
        expected = apply_updates(index, plain)
        updated = apply_updates(index, spelled)
        assert_same_content(updated, expected)
        assert updated.update_log_digest == expected.update_log_digest
        assert updated.cache_key == expected.cache_key

    def test_plain_tuples_accepted(self, triangle_graph, index):
        updated, _ = checked_apply(
            index, triangle_graph.vertices(), edge_dict(triangle_graph),
            [EdgeUpdate("change", 0, 1, 0.75)],
        )
        via_tuple = apply_updates(index, [("change", 0, 1, 0.75)])
        assert_same_content(via_tuple, updated)
        assert via_tuple.cache_key == updated.cache_key


# --------------------------------------------------------------------------- #
# differential parity of the incremental path
# --------------------------------------------------------------------------- #
class TestIncrementalParity:
    def test_mixed_batch_on_paper_graph(self, paper_figure1_graph):
        graph = paper_figure1_graph
        edges = edge_dict(graph)
        index = build_local_index(graph, THETA)
        batch = [
            EdgeUpdate("insert", 5, 6, 0.9),
            EdgeUpdate("delete", 1, 7),
            EdgeUpdate("change", 3, 5, 0.95),
        ]
        updated, _ = checked_apply(index, graph.vertices(), edges, batch)
        assert updated.revision == 1
        assert updated.base_fingerprint == index.fingerprint

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chained_batches_on_er_graphs(self, seed):
        graph = small_er_graph(16, 0.4, seed=seed, probabilities=(0.3, 1.0))
        labels = graph.vertices()
        edges = edge_dict(graph)
        index = build_local_index(graph, THETA)
        base_fingerprint = index.fingerprint
        batches = [
            [EdgeUpdate("change", *list(edges)[seed], 0.42)],
            [
                EdgeUpdate("delete", *list(edges)[2 * seed + 1]),
                EdgeUpdate("change", *list(edges)[2 * seed + 3], 0.9),
            ],
            [EdgeUpdate("insert", *_missing_pair(edges, labels), 0.8)],
        ]
        for revision, batch in enumerate(batches, start=1):
            index, edges = checked_apply(index, labels, edges, batch)
            assert index.revision == revision
            assert index.base_fingerprint == base_fingerprint

    def test_pathological_shared_edge_graph(self):
        graph = pathological_graph("two_triangles_shared_edge")
        edges = edge_dict(graph)
        index = build_local_index(graph, THETA)
        # Deleting the shared edge kills both triangles at once.
        index, edges = checked_apply(index, graph.vertices(), edges, [EdgeUpdate("delete", 1, 2)])
        # Re-inserting it resurrects them.
        checked_apply(index, graph.vertices(), edges, [EdgeUpdate("insert", 1, 2, 0.8)])

    def test_empty_batch_is_identity(self, triangle_graph):
        index = build_local_index(triangle_graph, THETA)
        assert apply_updates(index, []) is index
        assert index.revision == 0

    def test_updates_via_method(self, triangle_graph):
        index = build_local_index(triangle_graph, THETA)
        via_method = index.apply_updates([EdgeUpdate("change", 0, 1, 0.5)])
        via_function = apply_updates(index, [EdgeUpdate("change", 0, 1, 0.5)])
        assert_same_content(via_method, via_function)
        assert via_method.cache_key == via_function.cache_key


# --------------------------------------------------------------------------- #
# the triangle-index splice at its edge cases
# --------------------------------------------------------------------------- #
def _complete_graph_without(size: int, missing) -> ProbabilisticGraph:
    """K_size at p = 0.9 without the ``missing`` edges."""
    return ProbabilisticGraph(
        [
            (u, v, 0.9)
            for u, v in itertools.combinations(range(size), 2)
            if (u, v) not in missing
        ]
    )


def _dense_edge(graph) -> tuple:
    """The labels of the first two vertices of the graph's first 4-clique row."""
    csr = graph.to_csr()
    a, b = clique_vertex_rows(build_triangle_extension_index(csr))[0, :2].tolist()
    return csr.vertex_labels[a], csr.vertex_labels[b]


class TestSplice:
    """Every batch goes through ``checked_apply``: snapshot and triangle index."""

    @staticmethod
    def replay(graph, batches):
        index, edges = build_local_index(graph, THETA), edge_dict(graph)
        for batch in batches:
            index, edges = checked_apply(index, graph.vertices(), edges, batch)
        return index._incremental_state["tri_index"]

    def test_born_postings_at_one_offset_sort_by_row_then_vertex(self):
        # Inserting (0, 3) into K5 without it: the born triangle (0, 3, 4),
        # with postings 1 and 2, sorts just before the surviving (1, 2, 3),
        # which gains posting 0 ahead of its old posting 4.  All three born
        # postings go before the same old posting.
        tri = self.replay(
            _complete_graph_without(5, {(0, 3)}), [[EdgeUpdate("insert", 0, 3, 0.8)]]
        )
        row = tri.triangles.tolist().index([0, 3, 4])
        assert tri.triangles[row + 1].tolist() == [1, 2, 3]
        start, stop = tri.tri_clique_indptr[row], tri.tri_clique_indptr[row + 2]
        assert tri.tri_completing[start:stop].tolist() == [1, 2, 0, 4]

    def test_insert_and_reprice_edges_of_one_born_clique(self):
        # (0, 1) closes the 4-clique {0, 1, 2, 3} while the same batch
        # re-prices its edge (2, 3), which the surviving 4-clique
        # {2, 3, 4, 5} holds too.
        graph = ProbabilisticGraph(
            [(0, 2, 0.9), (0, 3, 0.8), (1, 2, 0.7), (1, 3, 0.95), (2, 3, 0.6), (2, 4, 0.9),
             (3, 4, 0.85), (2, 5, 0.8), (3, 5, 0.75), (4, 5, 0.9)]
        )
        tri = self.replay(
            graph, [[EdgeUpdate("insert", 0, 1, 0.85), EdgeUpdate("change", 2, 3, 0.75)]]
        )
        assert tri.num_cliques == 2

    @pytest.mark.parametrize("row", [0, -1])
    def test_delete_an_edge_of_the_first_or_last_clique_row(self, row):
        graph = planted_communities_graph()
        csr = graph.to_csr()
        a, b = clique_vertex_rows(build_triangle_extension_index(csr))[row, :2].tolist()
        u, v = csr.vertex_labels[a], csr.vertex_labels[b]
        self.replay(graph, [[EdgeUpdate("delete", u, v)]])

    def test_delete_every_clique_then_create_the_first(self):
        # Both 4-cliques contain the shared edge (2, 3).
        graph = two_cliques_sharing_an_edge()
        assert self.replay(graph, [[EdgeUpdate("delete", 2, 3)]]).num_cliques == 0
        tri = self.replay(
            graph, [[EdgeUpdate("delete", 2, 3)], [EdgeUpdate("insert", 2, 3, 0.9)]]
        )
        assert tri.num_cliques == 2

    @pytest.mark.parametrize("op", ["insert", "delete", "change"])
    def test_warm_batch_gathers_only_the_structures_on_its_edge(self, op, monkeypatch):
        graph = planted_communities_graph()
        labels = list(graph.vertices())
        u, v = _dense_edge(graph)
        # The warm-up batch leaves the triangle index in the index's state.
        if op == "insert":
            warm = EdgeUpdate("delete", u, v)
        else:
            warm = EdgeUpdate("change", u, v, 0.7)
        index, edges = checked_apply(
            build_local_index(graph, THETA), labels, edge_dict(graph), [warm]
        )
        batch = [EdgeUpdate(op, u, v, None if op == "delete" else 0.9)]

        gathered = []
        gather = batch_module._gathered_probabilities

        def spy(csr, triangles, cliques):
            gathered.append((triangles.tolist(), cliques.tolist()))
            return gather(csr, triangles, cliques)

        monkeypatch.setattr(batch_module, "_gathered_probabilities", spy)
        monkeypatch.setattr(
            batch_module,
            "_assemble_triangle_index",
            lambda *args: pytest.fail("a warm batch reassembled the triangle index"),
        )
        updated = apply_updates(index, batch)
        monkeypatch.undo()

        new_edges = apply_to_edges(edges, batch)
        rebuilt = build_local_index(graph_from(new_edges, labels), THETA)
        assert_same_content(updated, rebuilt)
        if op == "delete":
            assert gathered == []
            return
        csr = graph_from(new_edges, labels).to_csr()
        fresh = build_triangle_extension_index(csr)
        x, y = csr.index_of(u), csr.index_of(v)

        def on_edge(rows):
            return [row for row in rows.tolist() if x in row and y in row]

        ((triangles, cliques),) = gathered
        assert triangles == on_edge(fresh.triangles)
        assert cliques == on_edge(clique_vertex_rows(fresh))
        assert cliques


def _missing_pair(edges: dict, labels):
    for u in labels:
        for v in labels:
            if repr(u) < repr(v) and (u, v) not in edges:
                return u, v
    raise AssertionError("graph is complete")


# --------------------------------------------------------------------------- #
# the regroup: only the batch's region is swept, the rest is carried
# --------------------------------------------------------------------------- #
#: Per-component aggregate arrays, in ``_component_aggregates`` order.
AGGREGATES = (
    "comp_n_vertices",
    "comp_n_edges",
    "comp_sum_edge_prob",
    "comp_log_reliability",
    "comp_max_score",
)


def _structures_graph(*extra) -> ProbabilisticGraph:
    """Separate structures at p = 0.95, plus the ``extra`` edges.

    The 4-cliques {0, 1, 2, 3} and {2, 3, 4, 5} share the edge (2, 3) but no
    triangle: two components at levels 0 and 1.  K6 on 10–15 without
    (14, 15) and K5 on 20–24 score 2 throughout: one component each at
    levels 0, 1 and 2.
    """
    pairs = set()
    for group in ((0, 1, 2, 3), (2, 3, 4, 5), range(10, 16), range(20, 25)):
        pairs.update(itertools.combinations(group, 2))
    pairs.discard((14, 15))
    pairs.update(extra)
    return ProbabilisticGraph([(u, v, 0.95) for u, v in sorted(pairs)])


def _components_on(index, level: int, vertices) -> int:
    """The number of components at ``level`` whose triangles lie in ``vertices``."""
    rows, labels = index.arrays["triangles"], index.vertex_labels
    return sum(
        {labels[i] for i in rows[index.component_triangle_positions(c)].ravel()}
        <= set(vertices)
        for c in index.components_at_level(level).tolist()
    )


def regrouped_apply(graph, updates, monkeypatch):
    """Build, then ``checked_apply`` and the regroup against a grouping from scratch.

    The components must be those of ``_nucleus_level_groups`` over a fresh
    triangle index of the new graph, member for member and in order, and
    every carried component's stored aggregates must be what
    ``_component_aggregates`` recomputes.  Returns the built index, the
    updated one and the ``index.snapshot`` counts.
    """
    calls = []
    regroup = incremental._regrouped_levels

    def spy(*args):
        calls.append(regroup(*args))
        return calls[-1]

    index = build_local_index(graph, THETA)
    with monkeypatch.context() as patch:
        patch.setattr(incremental, "_regrouped_levels", spy)
        updated, _ = checked_apply(index, graph.vertices(), edge_dict(graph), updates)
    ((_, sources, counts),) = calls
    a = updated.arrays
    fresh_index = build_triangle_extension_index(updated.to_csr_graph())
    fresh = _nucleus_level_groups(a["triangle_scores"], fresh_index)
    assert [(k, group.tolist()) for k in sorted(fresh) for group in fresh[k]] == [
        (int(a["comp_level"][c]), updated.component_triangle_positions(c).tolist())
        for c in range(updated.num_components)
    ]
    assert updated.levels == tuple(sorted(fresh))
    n = updated.num_vertices
    edges_of = (a["edge_u"] * n + a["edge_v"], a["edge_prob"])
    for c in np.flatnonzero(sources >= 0).tolist():
        members = updated.component_triangle_positions(c)
        rows, scores = a["triangles"][members], a["triangle_scores"][members]
        recomputed = _component_aggregates(rows, scores, n, *edges_of)
        assert tuple(a[name][c] for name in AGGREGATES) == recomputed
    assert counts["carried"] == int((sources >= 0).sum())
    assert counts["carried"] + counts["regrouped"] == updated.num_components
    return index, updated, counts


class TestRegroup:
    """Every batch goes through ``regrouped_apply``."""

    def test_born_k6_raises_the_top_level(self, monkeypatch):
        index, updated, counts = regrouped_apply(
            _structures_graph(), [EdgeUpdate("insert", 14, 15, 0.95)], monkeypatch
        )
        assert (max(index.levels), max(updated.levels)) == (2, 3)
        assert _components_on(updated, 3, range(10, 16)) == 1
        # The two 4-cliques and the K5 ride along, at every level they hold.
        assert counts == {"carried": 7, "regrouped": 4, "region_rows": 20}

    def test_dead_k6_edge_empties_the_top_level(self, monkeypatch):
        index, updated, counts = regrouped_apply(
            _structures_graph((14, 15)), [EdgeUpdate("delete", 14, 15)], monkeypatch
        )
        assert (max(index.levels), max(updated.levels)) == (3, 2)
        assert counts == {"carried": 7, "regrouped": 3, "region_rows": 16}

    def test_born_clique_merges_two_components(self, monkeypatch):
        # (1, 4) closes the 4-clique {1, 2, 3, 4}, which holds the triangle
        # (1, 2, 3) of one 4-clique and (2, 3, 4) of the other.
        index, updated, counts = regrouped_apply(
            _structures_graph(), [EdgeUpdate("insert", 1, 4, 0.95)], monkeypatch
        )
        assert _components_on(index, 1, range(6)) == 2
        assert _components_on(updated, 1, range(6)) == 1
        assert counts == {"carried": 6, "regrouped": 2, "region_rows": 10}

    def test_dead_bridge_edge_splits_the_component(self, monkeypatch):
        # Deleting (1, 4), which only the bridging 4-clique holds, splits the
        # component it joined back into the two 4-cliques.
        index, updated, counts = regrouped_apply(
            _structures_graph((1, 4)), [EdgeUpdate("delete", 1, 4)], monkeypatch
        )
        assert _components_on(index, 1, range(6)) == 1
        assert _components_on(updated, 1, range(6)) == 2
        assert counts == {"carried": 6, "regrouped": 4, "region_rows": 8}

    def test_dead_shared_edge_kills_every_clique(self, monkeypatch):
        # Both 4-cliques hold the shared edge (2, 3).
        index, updated, counts = regrouped_apply(
            two_cliques_sharing_an_edge(), [EdgeUpdate("delete", 2, 3)], monkeypatch
        )
        assert index.num_components == 2
        assert updated._incremental_state["tri_index"].num_cliques == 0
        assert updated.num_components == 0
        assert counts == {"carried": 0, "regrouped": 0, "region_rows": 4}

    def test_dead_edges_kill_a_whole_component(self, monkeypatch):
        # Deleting two opposite edges of the K4 on 30–33 kills its four
        # triangles: its components die without a surviving row.
        index, updated, counts = regrouped_apply(
            _structures_graph(*itertools.combinations(range(30, 34), 2)),
            [EdgeUpdate("delete", 30, 31), EdgeUpdate("delete", 32, 33)],
            monkeypatch,
        )
        assert _components_on(index, 1, range(30, 34)) == 1
        assert _components_on(updated, 0, range(30, 34)) == 0
        assert counts == {"carried": 10, "regrouped": 0, "region_rows": 0}

    def test_reprice_that_moves_a_score(self, monkeypatch):
        # At p = 0.05 the K5's three triangles on (20, 21) fall below θ; the
        # other seven form two K4s sharing (22, 23, 24), at ν = 1.
        index, updated, counts = regrouped_apply(
            _structures_graph(), [EdgeUpdate("change", 20, 21, 0.05)], monkeypatch
        )
        moved = index.arrays["triangle_scores"] != updated.arrays["triangle_scores"]
        assert moved.sum() == 10
        assert counts == {"carried": 7, "regrouped": 2, "region_rows": 10}


def _listing(nuclei) -> list[tuple]:
    """Each nucleus as its triangles and its subgraph's vertices and edges, in order."""
    return [
        (n.triangles, list(n.subgraph.vertices()), list(n.subgraph.edges())) for n in nuclei
    ]


def _engine_index_bytes(result) -> dict:
    """Every array of a local result's engine index, as bytes."""
    csr, tri_index = result.engine_index
    arrays = {name: getattr(csr, name) for name in ("indptr", "indices", "probabilities")}
    arrays.update((f.name, getattr(tri_index, f.name)) for f in dataclasses.fields(tri_index))
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in arrays.items()}


class TestWarmStart:
    """A fresh build hands its peel's triangle index to the first update."""

    def test_first_update_enumerates_nothing(self, monkeypatch):
        graph = planted_communities_graph()
        index = build_local_index(graph, THETA)
        assert_same_triangle_index(
            index._incremental_state["tri_index"],
            build_triangle_extension_index(graph.to_csr()),
        )
        u, v = _dense_edge(graph)
        with monkeypatch.context() as patch:
            patch.setattr(
                incremental,
                "build_triangle_extension_index",
                lambda csr: pytest.fail("the first update enumerated the triangle index"),
            )
            patch.setattr(
                NucleusIndex,
                "to_csr_graph",
                lambda self: pytest.fail("the first update rebuilt the CSR graph"),
            )
            checked_apply(
                index, graph.vertices(), edge_dict(graph), [EdgeUpdate("delete", u, v)]
            )

    @pytest.mark.parametrize("op", ["delete", "change", "insert"])
    @pytest.mark.parametrize("route", ["build_index", "local_result"])
    def test_a_results_snapshot_splices_the_results_engine_index(
        self, route, op, monkeypatch
    ):
        # result.build_index() and build_local_index(local_result=...) hand
        # the result's engine index to the first update, which must leave
        # the arrays it shares with the result as they were.
        graph = planted_communities_graph()
        result = local_nucleus_decomposition(graph, THETA)
        if route == "build_index":
            index = result.build_index()
        else:
            index = build_local_index(graph, THETA, local_result=result)
        csr, tri_index = result.engine_index
        assert index._incremental_state == {"csr": csr, "tri_index": tri_index}
        levels = range(result.max_score + 1)
        nuclei = {k: _listing(result.nuclei(k)) for k in levels}
        shared = _engine_index_bytes(result)
        edges = edge_dict(graph)
        u, v = _dense_edge(graph) if op != "insert" else _missing_pair(edges, graph.vertices())
        p = {"delete": None, "change": 0.3, "insert": 0.9}[op]
        with monkeypatch.context() as patch:
            patch.setattr(
                incremental,
                "build_triangle_extension_index",
                lambda csr: pytest.fail("the first update enumerated the triangle index"),
            )
            checked_apply(index, graph.vertices(), edges, [EdgeUpdate(op, u, v, p)])
        assert _engine_index_bytes(result) == shared
        assert {k: _listing(result.nuclei(k)) for k in levels} == nuclei
        fresh = local_nucleus_decomposition(graph, THETA)
        assert {k: _listing(fresh.nuclei(k)) for k in levels} == nuclei

    def test_loaded_index_updates_to_the_same_arrays(self, monkeypatch, tmp_path):
        graph = planted_communities_graph()
        index = build_local_index(graph, THETA)
        loaded = load_index(index.save(tmp_path / "index.npz"))
        assert loaded._incremental_state is None
        u, v = _dense_edge(graph)
        batch = [EdgeUpdate("delete", u, v)]
        enumerations = []
        enumerate_index = incremental.build_triangle_extension_index

        def spy(csr):
            enumerations.append(csr)
            return enumerate_index(csr)

        with monkeypatch.context() as patch:
            patch.setattr(incremental, "build_triangle_extension_index", spy)
            from_load, _ = checked_apply(loaded, graph.vertices(), edge_dict(graph), batch)
        assert len(enumerations) == 1
        assert_same_content(from_load, apply_updates(index, batch))


# --------------------------------------------------------------------------- #
# the two probability-only fast paths
# --------------------------------------------------------------------------- #
class TestProbabilityOnlyFastPaths:
    def test_reprice_snapshot_path_shares_structural_arrays(self, monkeypatch):
        """A re-price that keeps every κ-score hits the snapshot fast path."""
        import repro.index.incremental as incremental

        calls = []
        original = incremental._reprice_snapshot

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(incremental, "_reprice_snapshot", spy)
        # Two triangles, no 4-cliques: every κ-score is 0 as long as the
        # triangle probabilities stay above theta, so a mild re-price cannot
        # change any score.
        graph = pathological_graph("two_triangles_shared_edge")
        edges = edge_dict(graph)
        index = build_local_index(graph, THETA)
        index = apply_updates(index, [EdgeUpdate("change", 0, 1, 0.85)])  # warm state
        updated, _ = checked_apply(
            index, graph.vertices(), apply_to_edges(edges, [EdgeUpdate("change", 0, 1, 0.85)]),
            [EdgeUpdate("change", 0, 1, 0.8)],
        )
        assert calls, "expected the re-price fast path to run"
        # Structure-describing arrays are carried over by reference.
        assert updated.arrays["triangles"] is index.arrays["triangles"]
        assert updated.arrays["comp_triangles"] is index.arrays["comp_triangles"]

    def test_score_changing_reprice_takes_rebuild_path(self, monkeypatch):
        """A drastic re-price that drops κ-scores must re-assemble the snapshot."""
        import repro.index.incremental as incremental

        monkeypatch.setattr(
            incremental,
            "_reprice_snapshot",
            lambda *a, **k: pytest.fail("snapshot fast path taken for changed scores"),
        )
        graph = pathological_graph("certain_five_clique")
        edges = edge_dict(graph)
        index = build_local_index(graph, 0.5)
        assert max(index.levels) >= 1
        # 1.0 -> 0.05 collapses every clique probability through theta=0.5.
        checked_apply(
            index, graph.vertices(), edges, [EdgeUpdate("change", 0, 1, 0.05)], theta=0.5
        )


# --------------------------------------------------------------------------- #
# update lineage: fingerprints, digests, cache keys
# --------------------------------------------------------------------------- #
class TestLineage:
    def test_versioned_fingerprint_is_deterministic_and_injective_in_inputs(self):
        key = versioned_fingerprint("base", 1, "digest")
        assert key == versioned_fingerprint("base", 1, "digest")
        assert key != versioned_fingerprint("base", 2, "digest")
        assert key != versioned_fingerprint("base", 1, "other")
        assert key != versioned_fingerprint("other", 1, "digest")

    def test_chain_digest_is_order_insensitive_within_a_batch(self):
        a = EdgeUpdate("change", 0, 1, 0.5)
        b = EdgeUpdate("delete", 2, 3)
        assert chain_update_digest("", [a, b]) == chain_update_digest("", [b, a])
        assert chain_update_digest("", [a, b]) != chain_update_digest("", [a])

    def test_chain_digest_is_order_sensitive_across_batches(self):
        a = EdgeUpdate("change", 0, 1, 0.5)
        b = EdgeUpdate("delete", 2, 3)
        ab = chain_update_digest(chain_update_digest("", [a]), [b])
        ba = chain_update_digest(chain_update_digest("", [b]), [a])
        assert ab != ba

    def test_cache_key_tracks_revisions(self, paper_figure1_graph):
        graph = paper_figure1_graph
        index = build_local_index(graph, THETA)
        assert index.cache_key == index.fingerprint
        first = apply_updates(index, [EdgeUpdate("change", 3, 5, 0.6)])
        assert first.revision == 1
        assert first.cache_key != index.cache_key
        second = apply_updates(first, [EdgeUpdate("change", 3, 5, 0.5)])
        assert second.revision == 2
        assert len({index.cache_key, first.cache_key, second.cache_key}) == 3

    def test_equal_histories_share_cache_keys(self, paper_figure1_graph):
        graph = paper_figure1_graph
        batch = [EdgeUpdate("change", 3, 5, 0.6), EdgeUpdate("delete", 1, 7)]
        one = apply_updates(build_local_index(graph, THETA), batch)
        # The same batch given in reversed record order and flipped edge
        # orientation is canonically the same history.
        flipped = [EdgeUpdate("delete", 7, 1), EdgeUpdate("change", 5, 3, 0.6)]
        two = apply_updates(build_local_index(graph, THETA), flipped)
        assert one.cache_key == two.cache_key
        assert one.update_log_digest == two.update_log_digest

    def test_round_trip_back_to_original_graph_keeps_distinct_key(self, triangle_graph):
        """Undoing an update restores the content fingerprint, not the lineage."""
        index = build_local_index(triangle_graph, THETA)
        there = apply_updates(index, [EdgeUpdate("change", 0, 1, 0.5)])
        back = apply_updates(there, [EdgeUpdate("change", 0, 1, 0.9)])
        assert back.fingerprint == index.fingerprint  # same graph again
        assert back.revision == 2
        assert back.cache_key != index.cache_key  # different history


# --------------------------------------------------------------------------- #
# persistence of updated indexes and version compatibility
# --------------------------------------------------------------------------- #
class TestPersistenceAndCompat:
    def test_updated_index_round_trips_through_save_load(self, paper_figure1_graph, tmp_path):
        index = build_local_index(paper_figure1_graph, THETA)
        updated = apply_updates(index, [EdgeUpdate("change", 3, 5, 0.6)])
        loaded = load_index(updated.save(tmp_path / "updated.npz"))
        assert loaded == updated
        assert loaded.revision == 1
        assert loaded.cache_key == updated.cache_key
        assert loaded.header["format_version"] == FORMAT_VERSION

    def test_version1_archive_still_loads(self, paper_figure1_graph, tmp_path):
        """Format 2 only adds lineage header fields; v1 archives stay readable."""
        index = build_local_index(paper_figure1_graph, THETA)
        header = {
            key: value
            for key, value in index.header.items()
            if key not in ("base_fingerprint", "update_log_digest", "revision")
        }
        header["format_version"] = 1
        legacy = NucleusIndex(header, index.arrays)
        loaded = load_index(legacy.save(tmp_path / "legacy.npz"))
        assert loaded.revision == 0
        assert loaded.base_fingerprint == loaded.fingerprint
        assert loaded.update_log_digest == ""
        assert loaded.cache_key == loaded.fingerprint
        # And it is updatable: the first batch promotes it to the live format.
        updated = apply_updates(loaded, [EdgeUpdate("change", 3, 5, 0.6)])
        assert updated.revision == 1
        assert updated.header["format_version"] == FORMAT_VERSION

    def test_future_version_archive_rejected_on_load(self, paper_figure1_graph, tmp_path):
        import io
        import json
        import zipfile

        index = build_local_index(paper_figure1_graph, THETA)
        path = index.save(tmp_path / "future.npz")
        header = dict(index.header, format_version=FORMAT_VERSION + 1)
        rewritten = tmp_path / "future2.npz"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(rewritten, "w") as dst:
            for item in src.namelist():
                if item == "__header__.npy":
                    buffer = io.BytesIO()
                    np.save(buffer, np.array(json.dumps(header, sort_keys=True)))
                    dst.writestr(item, buffer.getvalue())
                else:
                    dst.writestr(item, src.read(item))
        with pytest.raises(IndexFormatError, match="version"):
            load_index(rewritten)

    def test_truncated_archive_rejected(self, paper_figure1_graph, tmp_path):
        index = build_local_index(paper_figure1_graph, THETA)
        path = index.save(tmp_path / "whole.npz")
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(IndexFormatError):
            load_index(clipped)


# --------------------------------------------------------------------------- #
# query-engine refresh across revisions
# --------------------------------------------------------------------------- #
class TestEngineRefresh:
    def test_refresh_swaps_revision_and_keeps_cache(self, paper_figure1_graph):
        graph = paper_figure1_graph
        index = build_local_index(graph, THETA)
        engine = NucleusQueryEngine(index, graph)
        before = engine.nucleus_of([1], k=1)
        assert engine.cache_info()["size"] >= 1

        updated = apply_updates(index, [EdgeUpdate("change", 3, 5, 0.99)])
        assert engine.refresh(updated) is engine
        assert engine.cache_info()["size"] >= 1  # old entries kept, keyed per revision
        after = engine.nucleus_of([1], k=1)

        fresh = NucleusQueryEngine(updated)
        expected = fresh.nucleus_of([1], k=1)
        assert set(after.vertices()) == set(expected.vertices())
        assert set(before.vertices()) == set(after.vertices())  # same nucleus here

    def test_refresh_answers_match_fresh_engine_everywhere(self, paper_figure1_graph):
        graph = paper_figure1_graph
        index = build_local_index(graph, THETA)
        engine = NucleusQueryEngine(index)
        engine.max_score(list(graph.vertices()))
        updated = apply_updates(index, [EdgeUpdate("delete", 1, 7)])
        engine.refresh(updated)
        fresh = NucleusQueryEngine(updated)
        vertices = sorted(graph.vertices())
        assert np.array_equal(
            engine.max_score(vertices), fresh.max_score(vertices)
        )
        for k in updated.levels:
            assert np.array_equal(
                engine.contains(vertices, k), fresh.contains(vertices, k)
            )

    def test_refresh_verifies_against_live_graph(self, paper_figure1_graph):
        graph = paper_figure1_graph
        index = build_local_index(graph, THETA)
        engine = NucleusQueryEngine(index, graph)
        updated = apply_updates(index, [EdgeUpdate("change", 3, 5, 0.6)])
        with pytest.raises(IndexCompatibilityError):
            engine.refresh(updated, graph)  # stale graph: fingerprints differ
        assert engine.index is index  # failed refresh leaves the engine untouched


# --------------------------------------------------------------------------- #
# fallback rebuild for non-incremental configurations
# --------------------------------------------------------------------------- #
class TestFallbackModes:
    def test_local_with_approximate_estimator_falls_back(self, paper_figure1_graph):
        graph = paper_figure1_graph
        edges = edge_dict(graph)
        index = build_local_index(graph, THETA, estimator=PoissonEstimator())
        batch = [EdgeUpdate("change", 3, 5, 0.6)]
        updated = apply_updates(index, batch)
        rebuilt = build_local_index(
            graph_from(apply_to_edges(edges, batch), graph.vertices()),
            THETA,
            estimator=PoissonEstimator(),
        )
        assert_same_content(updated, rebuilt)
        assert updated.params == rebuilt.params
        assert updated.revision == 1
        assert updated.params["estimator"] == PoissonEstimator.name

    def test_unknown_estimator_name_raises(self, triangle_graph):
        index = build_local_index(triangle_graph, THETA)
        index.header["params"] = dict(index.header["params"], estimator="bogus")
        with pytest.raises(InvalidParameterError, match="unknown estimator"):
            apply_updates(index, [EdgeUpdate("change", 0, 1, 0.5)])

    @pytest.mark.parametrize("knob", ["n_samples", *MONTE_CARLO_KNOBS, *ESTIMATOR_KNOBS])
    @pytest.mark.parametrize("builder", [build_global_index, build_weak_index])
    def test_seeded_global_and_weak_indexes_rebuild_deterministically(self, builder, knob):
        if knob == "n_samples":
            graph = small_er_graph(9, 0.6, seed=4)
            theta, settings = 0.4, {"n_samples": 40, "seed": 11}
            batch = [EdgeUpdate("delete", *list(edge_dict(graph))[0])]
        elif knob in ESTIMATOR_KNOBS:
            # On these weaker communities an approximate estimator prunes to
            # other candidates than the exact DP, so a rebuild that dropped
            # it would differ from the fresh build.
            graph = planted_communities_graph(low=0.45, spread=0.4)
            theta, settings = 0.1, {"seed": 2, **ESTIMATOR_KNOBS[knob]}
            (u, v), p = next(iter(edge_dict(graph).items()))
            batch = [EdgeUpdate("change", u, v, max(0.05, p - 0.3))]
        else:
            # At these θ every knob moves the updated graph's answer in both
            # modes, so a rebuild that dropped a knob would differ from the
            # fresh build.
            graph = planted_communities_graph()
            theta = 0.3 if builder is build_global_index else 0.4
            settings = {"seed": 1, **MONTE_CARLO_KNOBS[knob]}
            (u, v), p = next(iter(edge_dict(graph).items()))
            batch = [EdgeUpdate("change", u, v, p - 0.3)]
        edges = edge_dict(graph)
        index = builder(graph, k=1, theta=theta, **settings)
        updated = apply_updates(index, batch)
        rebuilt = builder(
            graph_from(apply_to_edges(edges, batch), graph.vertices()),
            k=1,
            theta=theta,
            **settings,
        )
        assert_same_content(updated, rebuilt)
        assert updated.params == rebuilt.params
        recorded = {name: getattr(value, "name", value) for name, value in settings.items()}
        assert recorded.items() <= updated.params.items()
        assert updated.mode == index.mode
        assert updated.revision == 1
