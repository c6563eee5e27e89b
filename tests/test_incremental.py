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

import numpy as np
import pytest
from graph_factories import pathological_graph, small_er_graph

from repro.core.approximations import NormalEstimator, PoissonEstimator
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
from repro.index.nucleus_index import FORMAT_VERSION, NucleusIndex
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
    "chunk_schedule": {"sampling": "adaptive", "chunk_initial": 4, "chunk_growth": 1.0},
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
    """apply_updates plus the from-scratch parity assertion; returns both."""
    new_index = apply_updates(index, updates)
    new_edges = apply_to_edges(edges, updates)
    rebuilt = build_local_index(graph_from(new_edges, graph_labels), theta)
    assert_same_content(new_index, rebuilt)
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


def _missing_pair(edges: dict, labels):
    for u in labels:
        for v in labels:
            if repr(u) < repr(v) and (u, v) not in edges:
                return u, v
    raise AssertionError("graph is complete")


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
    @pytest.mark.filterwarnings('ignore:kernel="numba" requested:RuntimeWarning')
    def test_local_with_approximate_estimator_falls_back(self, paper_figure1_graph):
        graph = paper_figure1_graph
        edges = edge_dict(graph)
        index = build_local_index(graph, THETA, estimator=PoissonEstimator(), kernel="numba")
        batch = [EdgeUpdate("change", 3, 5, 0.6)]
        updated = apply_updates(index, batch)
        rebuilt = build_local_index(
            graph_from(apply_to_edges(edges, batch), graph.vertices()),
            THETA,
            estimator=PoissonEstimator(),
            kernel="numba",
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
