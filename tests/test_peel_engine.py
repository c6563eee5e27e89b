"""Tests for the array-native peel engine (repro.core.peel) and its helpers.

Pins the tentpole guarantees: the level-synchronous rounds of the exact DP
produce exactly the dict oracle's scores on every edge case (empty graph,
triangle-free graph, θ = 1, θ → 0, all-sentinel graphs), the batched
exact repair equals the scalar DP it replaces, the localized repair behind
incremental updates returns the full peel's scores, the :class:`KappaRepair`
hooks plug interchangeably into both loops, and the shared
:class:`~repro.peeling.LazyMinHeap` implements the lazy-deletion protocol
the dict-based loops rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from graph_factories import assert_same_triangle_index, bundled_graph

import repro.core.approximations as approximations
from repro.core.batch import (
    _dp_tails,
    _max_k_from_tails,
    batched_initial_kappas,
    build_triangle_extension_index,
    delta_triangle_extension_index,
)
from repro.core.hybrid import HybridEstimator
from repro.core.local import local_nucleus_decomposition
from repro.core.peel import (
    EstimatorKappaRepair,
    KappaRepair,
    _on_theta,
    peel_kappa_scores,
    repair_kappa_scores,
)
from repro.core.approximations import DynamicProgrammingEstimator
from repro.core.support_dp import (
    NO_VALID_K,
    max_k_at_threshold,
    support_tail_probabilities,
)
from repro.exceptions import InvalidParameterError
from repro.graph.generators import clique_graph, planted_nucleus_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index import EdgeUpdate, build_local_index
from repro.index.incremental import _canonicalise
from repro.obs import capture
from repro.peeling import LazyMinHeap

import oracle
from oracle.deterministic import nucleus_decomposition

#: The dict oracle and the production engine, keyed as the retired backends.
ENGINES = {
    "dict": oracle.local_nucleus_decomposition,
    "csr": local_nucleus_decomposition,
}


def engine_scores(graph: ProbabilisticGraph, theta: float) -> dict:
    """Run the engine directly on the flat arrays and map scores to labels."""
    csr = graph.to_csr()
    index = build_triangle_extension_index(csr)
    estimator = DynamicProgrammingEstimator()
    kappas = batched_initial_kappas(index, theta, estimator)
    repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, theta)
    scores = peel_kappa_scores(index, kappas, repair)
    labels = csr.vertex_labels
    return {
        (labels[u], labels[v], labels[w]): score
        for (u, v, w), score in zip(index.triangles.tolist(), scores.tolist())
    }


def mixed_support_graph() -> ProbabilisticGraph:
    """Uncertain near-cliques of 4–12 vertices beside a certain K6.

    Posting counts run over several power-of-two size classes, peeling the
    near-cliques cascades, and the certain K6 keeps κ non-trivial at θ = 1.
    """
    communities = planted_nucleus_graph(
        community_sizes=[4, 7, 12],
        intra_density=0.85,
        background_vertices=10,
        background_density=0.2,
        bridges_per_community=2,
        seed=5,
    )
    certain = [(100 + u, 100 + v, 1.0) for u in range(6) for v in range(u + 1, 6)]
    return ProbabilisticGraph(list(communities.edges()) + certain)


class SupportCountRepair(KappaRepair):
    """κ = number of surviving cliques — the θ→0 limit of the exact DP."""

    name = "support-count"

    def __init__(self, unit_drop: bool = True):
        self.unit_drop = unit_drop  # a death lowers the count by exactly one
        self.calls = 0

    def recompute(self, triangle, surviving_probabilities):
        self.calls += 1
        return len(surviving_probabilities)


def prepared(graph: ProbabilisticGraph, theta: float):
    """``(index, initial κ, exact repair)`` of ``graph`` at ``theta``."""
    index = build_triangle_extension_index(graph.to_csr())
    estimator = DynamicProgrammingEstimator()
    kappas = batched_initial_kappas(index, theta, estimator)
    return index, kappas, EstimatorKappaRepair(estimator, index.triangle_probabilities, theta)


class TestLazyMinHeap:
    def test_pops_in_value_order(self):
        heap = LazyMinHeap([(3, "c"), (1, "a"), (2, "b")])
        values = {"a": 1, "b": 2, "c": 3}
        popped = []
        while (entry := heap.pop(values.get)) is not None:
            popped.append(entry)
        assert popped == [(1, "a"), (2, "b"), (3, "c")]

    def test_stale_entries_are_refreshed(self):
        heap = LazyMinHeap([(5, "x"), (2, "y")])
        values = {"x": 3, "y": 2}  # "x" decreased after insertion
        assert heap.pop(values.get) == (2, "y")
        # The stale (5, "x") entry is re-pushed with the fresh value and
        # returned once it is current.
        assert heap.pop(values.get) == (3, "x")
        assert heap.pop(values.get) is None

    def test_dead_items_are_dropped(self):
        heap = LazyMinHeap([(1, "dead"), (2, "alive")])
        current = lambda item: None if item == "dead" else 2  # noqa: E731
        assert heap.pop(current) == (2, "alive")
        assert not heap

    def test_push_during_drain(self):
        heap = LazyMinHeap([(1, "a")])
        values = {"a": 1, "b": 0}
        assert heap.pop(values.get) == (1, "a")
        heap.push(0, "b")
        assert len(heap) == 1
        assert heap.pop(values.get) == (0, "b")


class TestEngineMatchesDictBackend:
    """The level-synchronous engine reproduces the dict peel exactly."""

    @pytest.mark.parametrize("theta", [0.01, 0.3, 0.7])
    def test_fixture_scores(self, paper_figure1_graph, theta):
        expected = local_nucleus_decomposition(paper_figure1_graph, theta).scores
        assert engine_scores(paper_figure1_graph, theta) == expected

    def test_planted_scores(self, planted_graph):
        expected = local_nucleus_decomposition(planted_graph, 0.2).scores
        assert engine_scores(planted_graph, 0.2) == expected

    def test_scores_are_parallel_to_index_rows(self, four_clique_graph):
        csr = four_clique_graph.to_csr()
        index = build_triangle_extension_index(csr)
        estimator = DynamicProgrammingEstimator()
        kappas = batched_initial_kappas(index, 0.3, estimator)
        repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, 0.3)
        scores = peel_kappa_scores(index, kappas, repair)
        assert scores.shape == (len(index.triangles),)
        assert scores.dtype == np.int64

    def test_rejects_mismatched_kappas(self, four_clique_graph):
        index = build_triangle_extension_index(four_clique_graph.to_csr())
        estimator = DynamicProgrammingEstimator()
        repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, 0.3)
        with pytest.raises(InvalidParameterError):
            peel_kappa_scores(index, np.zeros(99, dtype=np.int64), repair)


class TestEdgeCases:
    """Empty, triangle-free, θ = 1, θ → 0, and all-sentinel inputs."""

    @pytest.mark.parametrize("backend", ENGINES)
    def test_empty_graph(self, empty_graph, backend):
        result = ENGINES[backend](empty_graph, 0.5)
        assert result.scores == {}
        assert result.max_score == -1

    @pytest.mark.parametrize("backend", ENGINES)
    def test_triangle_free_graph(self, backend):
        path = ProbabilisticGraph([(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        result = ENGINES[backend](path, 0.2)
        assert result.scores == {}

    @pytest.mark.parametrize("backend", ENGINES)
    def test_theta_one_probabilistic_graph_is_all_sentinel(
        self, four_clique_graph, backend
    ):
        # p = 0.9 edges cannot reach θ = 1, so every triangle gets −1.
        result = ENGINES[backend](four_clique_graph, 1.0)
        assert set(result.scores.values()) == {NO_VALID_K}

    @pytest.mark.parametrize("backend", ENGINES)
    def test_theta_one_certain_graph_keeps_full_support(
        self, five_clique_graph, backend
    ):
        # All-certain edges survive θ = 1; every triangle has support 2.
        result = ENGINES[backend](five_clique_graph, 1.0)
        assert set(result.scores.values()) == {2}

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("theta", [0.0, 1e-12])
    def test_theta_to_zero_reduces_to_deterministic_nucleusness(self, backend, theta):
        # With θ → 0 every κ equals the residual support count, so the peel
        # is exactly the deterministic nucleus decomposition.
        graph = planted_nucleus_graph(
            num_communities=2,
            community_size=5,
            intra_density=1.0,
            background_vertices=6,
            background_density=0.2,
            bridges_per_community=2,
            seed=9,
        )
        result = ENGINES[backend](graph, theta)
        assert result.scores == nucleus_decomposition(graph)

    @pytest.mark.parametrize("backend", ENGINES)
    def test_every_triangle_sentinel(self, disconnected_graph, backend):
        # Triangle probabilities are 0.9³ ≈ 0.73 and 0.8³ ≈ 0.51, both < 0.8.
        result = ENGINES[backend](disconnected_graph, 0.8)
        assert len(result.scores) == 2
        assert set(result.scores.values()) == {NO_VALID_K}
        assert result.nuclei(0) == []

    def test_backends_agree_on_all_edge_cases(self, empty_graph, disconnected_graph):
        for graph, theta in [
            (empty_graph, 0.4),
            (disconnected_graph, 0.8),
            (clique_graph(4, probability=0.5), 1.0),
            (clique_graph(6, probability=1.0), 0.0),
        ]:
            expected = oracle.local_nucleus_decomposition(graph, theta)
            actual = local_nucleus_decomposition(graph, theta)
            assert actual.scores == expected.scores


class TestKappaRepairHooks:
    def test_estimator_repair_name_follows_estimator(self):
        probs = np.asarray([0.5])
        repair = EstimatorKappaRepair(DynamicProgrammingEstimator(), probs, 0.3)
        assert repair.name == "dp"
        assert repair.recompute(0, [1.0, 1.0]) == 2
        assert repair.recompute(0, []) == 0

    @pytest.mark.parametrize("unit_drop", [False, True])
    def test_custom_repair_plugs_into_the_loop(self, unit_drop):
        # unit_drop=True runs the rounds, whose default recompute_rows loops
        # the scalar hook; False replays the heap.
        graph = mixed_support_graph()
        csr = graph.to_csr()
        index = build_triangle_extension_index(csr)
        repair = SupportCountRepair(unit_drop)
        sizes = np.diff(index.tri_clique_indptr)
        scores = peel_kappa_scores(index, sizes.astype(np.int64), repair)
        assert repair.calls > 0
        expected = nucleus_decomposition(graph)
        labels = csr.vertex_labels
        assert scores.tolist() == [
            expected[(labels[u], labels[v], labels[w])] for u, v, w in index.triangles.tolist()
        ]


class TestInputValidation:
    """Bad κ inputs and repair knobs fail up front, naming the knob."""

    def test_float_initial_kappas_rejected(self):
        index, kappas, repair = prepared(clique_graph(6, probability=0.9), 0.3)
        with pytest.raises(InvalidParameterError, match="initial_kappas"):
            peel_kappa_scores(index, kappas.astype(np.float64), repair)

    def test_kappas_below_the_sentinel_rejected(self):
        index, kappas, repair = prepared(clique_graph(6, probability=0.9), 0.3)
        with pytest.raises(InvalidParameterError, match="initial_kappas"):
            peel_kappa_scores(index, kappas - 5, repair)
        kappas[3] = NO_VALID_K - 1
        with pytest.raises(InvalidParameterError, match="initial_kappas"):
            peel_kappa_scores(index, kappas, repair)

    def test_int32_initial_kappas_accepted(self, planted_graph):
        index, kappas, repair = prepared(planted_graph, 0.2)
        expected = peel_kappa_scores(index, kappas, repair)
        narrow = peel_kappa_scores(index, kappas.astype(np.int32), repair)
        assert narrow.dtype == np.int64
        assert narrow.tolist() == expected.tolist()

    @pytest.mark.parametrize("theta", [1.5, "0.3", None, True])
    def test_repairs_validate_theta_at_construction(self, theta):
        probabilities = np.asarray([0.5])
        with pytest.raises(InvalidParameterError, match="theta"):
            EstimatorKappaRepair(DynamicProgrammingEstimator(), probabilities, theta)


class TestRepairInputValidation:
    """``repair_kappa_scores`` checks its inputs up front, naming each one."""

    @staticmethod
    def peeled():
        """``(index, full-peel scores, exact repair)`` of an uncertain K6."""
        index, kappas, repair = prepared(clique_graph(6, probability=0.9), 0.3)
        return index, peel_kappa_scores(index, kappas, repair), repair

    def test_non_unit_drop_repair_rejected(self):
        index, scores, _ = self.peeled()
        repair = EstimatorKappaRepair(HybridEstimator(), index.triangle_probabilities, 0.3)
        with pytest.raises(InvalidParameterError, match="unit-drop"):
            repair_kappa_scores(index, scores, [0], repair)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda scores: scores[:-1],
            lambda scores: scores.reshape(1, -1),
            lambda scores: scores + 0.7,
            lambda scores: scores.astype(bool),
            lambda scores: np.where(np.arange(scores.size) == 3, -5, scores),
        ],
        ids=["short", "two-dimensional", "float", "bool", "below-sentinel"],
    )
    def test_bad_base_scores_rejected(self, corrupt):
        index, scores, repair = self.peeled()
        with pytest.raises(InvalidParameterError, match="base_scores"):
            repair_kappa_scores(index, corrupt(scores), [0], repair)

    @pytest.mark.parametrize(
        "seeds",
        [[0.9, True], np.array([True, False]), np.array([0.0, 1.0]), [-1], [20]],
        ids=["float-and-bool", "bool", "float", "negative", "past-the-end"],
    )
    def test_bad_seeds_rejected(self, seeds):
        index, scores, repair = self.peeled()
        assert index.num_triangles == 20
        with pytest.raises(InvalidParameterError, match="seeds"):
            repair_kappa_scores(index, scores, seeds, repair)

    @pytest.mark.parametrize(
        "lowered",
        [[0.9, True], np.array([True, False]), np.array([0.0, 1.0]), [-1], [20]],
        ids=["float-and-bool", "bool", "float", "negative", "past-the-end"],
    )
    def test_bad_lowered_rejected(self, lowered):
        index, scores, repair = self.peeled()
        with pytest.raises(InvalidParameterError, match="lowered"):
            repair_kappa_scores(index, scores, [0], repair, lowered=lowered)

    def test_narrow_integers_and_empty_seeds_accepted(self):
        index, scores, repair = self.peeled()
        repaired = repair_kappa_scores(
            index, scores.astype(np.int32), np.array([[3, 0]], dtype=np.int8), repair
        )
        assert repaired.dtype == np.int64
        assert repaired.tolist() == scores.tolist()
        unchanged = repair_kappa_scores(index, scores, [], repair)
        assert unchanged.tolist() == scores.tolist() and unchanged is not scores
        lowered = repair_kappa_scores(
            index, scores, [3], repair, lowered=np.array([[3, 0]], dtype=np.int8)
        )
        assert lowered.tolist() == scores.tolist()


class TestBatchedExactRepair:
    """The invariants the level-synchronous loop rests on."""

    @staticmethod
    def dp_rows(seed: int, count: int = 400, width: int = 12):
        """Random DP rows: live postings interleaved with dead ones entered as
        ``p = 0``, then zero padding up to ``width``.

        Returns the padded matrix, each row's live probabilities, and one
        triangle probability per row (every third is 1.0; every fifth row
        is all-certain, so θ = 1 keeps non-trivial answers).
        """
        rng = np.random.default_rng(seed)
        matrix = np.zeros((count, width))
        live_rows = []
        for i in range(count):
            postings = int(rng.integers(0, width + 1))
            values = np.ones(postings) if i % 5 == 0 else rng.random(postings)
            alive = rng.random(postings) < 0.7
            matrix[i, :postings] = np.where(alive, values, 0.0)
            live_rows.append(values[alive].tolist())
        triangle_probabilities = rng.random(count)
        triangle_probabilities[::3] = 1.0
        return matrix, live_rows, triangle_probabilities

    @pytest.mark.parametrize(
        "count, width",
        [(400, 12), (0, 12), (40, 0)] + [(40, width) for width in range(1, 65)],
        ids=lambda value: str(value),
    )
    def test_masked_dp_tails_equal_the_scalar_dp(self, count, width):
        matrix, live_rows, _ = self.dp_rows(seed=1, count=count, width=width)
        tails = _dp_tails(matrix)
        assert tails.shape == (count, width + 1)
        for row, live in zip(tails.tolist(), live_rows):
            expected = support_tail_probabilities(live)
            assert row[: len(expected)] == expected
            assert not any(row[len(expected):])

    @staticmethod
    def capped_kappas(triangle_probabilities, matrix, live_counts, theta):
        """Production's κ of each row: the batched max-k capped at its live postings."""
        best = _max_k_from_tails(triangle_probabilities, _dp_tails(matrix), theta)
        return np.minimum(best, live_counts)

    @pytest.mark.parametrize("theta", [0.0, 0.001, 0.1, 0.3, 0.9])
    def test_lower_inputs_never_raise_kappa(self, theta):
        # Lowering Pr(△) or one posting's probability, scaled or by one ulp,
        # and dropping a posting must each keep κ at or below the original:
        # the property that lets a repair keep such rows' old scores as
        # upper bounds.  It fails only where a Pr(△) lies on θ (`_on_theta`,
        # and TestLocalizedRepair's tie case), which random rows miss.
        rng = np.random.default_rng(int(theta * 1000) + 11)
        count, width = 150, 10
        sizes = rng.integers(0, width + 1, count)
        matrix = np.where(np.arange(width) < sizes[:, None], rng.random((count, width)), 0.0)
        matrix[::4, :3] = np.where(np.arange(3) < sizes[::4, None], 1.0, 0.0)
        probabilities = rng.random(count)
        probabilities[::3] = 1.0
        base = self.capped_kappas(probabilities, matrix, sizes, theta)

        rows, columns = np.nonzero(np.arange(width) < sizes[:, None])
        for lower in (
            lambda p: p * rng.random(p.size),
            lambda p: np.nextafter(p, 0.0),
            lambda p: np.zeros(p.size),  # dropped: the posting enters as p = 0
        ):
            variants = matrix[rows].copy()
            variants[np.arange(rows.size), columns] = lower(matrix[rows, columns])
            dropped = variants[np.arange(rows.size), columns] == 0.0
            lowered = self.capped_kappas(
                probabilities[rows], variants, sizes[rows] - dropped, theta
            )
            assert (lowered <= base[rows]).all()
        for lower in (lambda p: p * rng.random(p.size), lambda p: np.nextafter(p, 0.0)):
            lowered = self.capped_kappas(lower(probabilities), matrix, sizes, theta)
            assert (lowered <= base).all()

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    def test_capped_max_k_equals_the_scalar_search(self, theta):
        matrix, live_rows, probabilities = self.dp_rows(seed=2)
        best = _max_k_from_tails(probabilities, _dp_tails(matrix), theta)
        capped = np.minimum(best, [len(live) for live in live_rows])
        expected = [
            max_k_at_threshold(p, live, theta)
            for p, live in zip(probabilities.tolist(), live_rows)
        ]
        assert capped.tolist() == expected

    def test_uncapped_max_k_overshoots_at_theta_zero(self):
        # Padding and dead postings add zero tails, which qualify at θ = 0.
        matrix, live_rows, probabilities = self.dp_rows(seed=2)
        best = _max_k_from_tails(probabilities, _dp_tails(matrix), 0.0)
        expected = [
            max_k_at_threshold(p, live, 0.0)
            for p, live in zip(probabilities.tolist(), live_rows)
        ]
        assert best.tolist() != expected

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    def test_recompute_rows_equals_the_scalar_recompute(self, theta):
        index, _, repair = prepared(mixed_support_graph(), theta)
        sizes = np.diff(index.tri_clique_indptr)
        assert len(set(np.frexp(sizes.astype(float))[1].tolist())) >= 4
        live = np.random.default_rng(3).random(index.tri_cliques.size) < 0.6
        rows = np.random.default_rng(4).permutation(index.num_triangles)
        indptr = index.tri_clique_indptr.tolist()
        expected = [
            repair.recompute(
                t,
                index.tri_extension_probabilities[indptr[t]:indptr[t + 1]][
                    live[indptr[t]:indptr[t + 1]]
                ].tolist(),
            )
            for t in rows.tolist()
        ]
        batched = repair.recompute_rows(index, rows, live)
        assert batched.dtype == np.int64
        assert batched.tolist() == expected
        if theta == 1.0:
            assert max(expected) > 0  # the certain K6 keeps support at θ = 1


class TestExactPeelSpy:
    """The exact peel reaches the DP only through the batched kernel."""

    @staticmethod
    def spy(monkeypatch) -> dict:
        calls = {"recompute": 0, "recompute_rows": 0, "max_k_at_threshold": 0}

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        for name in ("recompute", "recompute_rows"):
            monkeypatch.setattr(
                EstimatorKappaRepair,
                name,
                counting(name, getattr(EstimatorKappaRepair, name)),
            )
        monkeypatch.setattr(
            approximations,
            "max_k_at_threshold",
            counting("max_k_at_threshold", approximations.max_k_at_threshold),
        )
        return calls

    def test_exact_peel_never_calls_the_scalar_dp(self, planted_graph, monkeypatch):
        calls = self.spy(monkeypatch)
        result = local_nucleus_decomposition(planted_graph, 0.2)
        assert calls["recompute_rows"] > 0
        assert calls["recompute"] == 0
        assert calls["max_k_at_threshold"] == 0
        assert result.scores == oracle.local_nucleus_decomposition(planted_graph, 0.2).scores

    def test_heap_path_calls_the_scalar_repair_for_an_approximation(
        self, planted_graph, monkeypatch
    ):
        calls = self.spy(monkeypatch)
        local_nucleus_decomposition(planted_graph, 0.2, estimator=HybridEstimator())
        assert calls["recompute_rows"] == 0
        assert calls["recompute"] > 0
        assert calls["max_k_at_threshold"] > 0


def planted_repair_graph() -> ProbabilisticGraph:
    """Three uncertain near-cliques (8, 10 and 12 vertices) over a sparse fringe."""
    return planted_nucleus_graph(
        community_sizes=[8, 10, 12],
        intra_density=0.85,
        background_vertices=20,
        background_density=0.1,
        bridges_per_community=3,
        seed=3,
    )


def by_degree(graph: ProbabilisticGraph, vertices) -> list:
    return sorted(vertices, key=lambda v: (-graph.degree(v), v))


#: Graphs of the direct repair tests, each with the dense vertices its
#: updates land on, highest degree first: the planted graph's 12-vertex
#: community, and the twelve highest-degree vertices of the bundled
#: ljournal analogue.
REPAIR_GRAPHS = {
    "planted": (planted_repair_graph, lambda graph: by_degree(graph, range(18, 30))),
    "ljournal": (
        lambda: bundled_graph("ljournal", scale="small"),
        lambda graph: by_degree(graph, graph.vertices())[:12],
    ),
}


def dense_batch(name: str, ops) -> tuple[ProbabilisticGraph, list[EdgeUpdate]]:
    """A repair graph and one update per op, each on its own pair of dense vertices.

    ``"change"`` re-prices to 0.35, ``"lower"`` halves the probability and
    ``"raise"`` halves its distance to 1 (on an uncertain edge).
    """
    factory, dense = REPAIR_GRAPHS[name]
    graph = factory()
    vertices = dense(graph)
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    batch = []
    for op in ops:
        if op == "insert":
            u, v = next(pair for pair in pairs if not graph.has_edge(*pair))
            update = EdgeUpdate("insert", u, v, 0.9)
        else:
            u, v = next(
                pair
                for pair in pairs
                if graph.has_edge(*pair)
                and (op != "raise" or graph.edge_probability(*pair) < 1)
            )
            p = graph.edge_probability(u, v)
            probability = {"change": 0.35, "lower": p / 2, "raise": (1 + p) / 2}.get(op)
            update = EdgeUpdate("delete" if op == "delete" else "change", u, v, probability)
        pairs.remove((u, v))
        batch.append(update)
    return graph, batch


def repair_inputs(graph, batch, make_repair, initial_kappas):
    """``(updated index, base scores, seeds, lowered)`` of ``batch`` applied to ``graph``.

    The base scores are a full peel of ``graph`` with ``make_repair(index)``
    from ``initial_kappas(index)``, carried onto the updated rows by the
    incremental path's own splice, which also finds the seeds and the rows
    among them whose inputs only fell.  The spliced index must equal a fresh
    build of the updated graph.
    """
    csr = graph.to_csr()
    old = build_triangle_extension_index(csr)
    _, inserted, deleted, changed, added = _canonicalise(csr, batch)
    new_csr = csr.with_edge_deltas(
        np.vstack([deleted, changed]), np.vstack([inserted, changed]), added
    )
    splice = delta_triangle_extension_index(old, csr, new_csr, inserted, deleted, changed)
    assert_same_triangle_index(splice.index, build_triangle_extension_index(new_csr))
    old_scores = peel_kappa_scores(old, initial_kappas(old), make_repair(old))
    return splice.index, splice.base_scores(old_scores), splice.touched, splice.lowered


def exact_case(name: str, ops, theta: float):
    """``(updated index, base, seeds, lowered, exact repair, initial κ)`` of a batch."""
    estimator = DynamicProgrammingEstimator()

    def make_repair(index):
        return EstimatorKappaRepair(estimator, index.triangle_probabilities, theta)

    def initial_kappas(index):
        return batched_initial_kappas(index, theta, estimator)

    graph, batch = dense_batch(name, [ops] if isinstance(ops, str) else ops)
    index, base, seeds, lowered = repair_inputs(graph, batch, make_repair, initial_kappas)
    return index, base, seeds, lowered, make_repair(index), initial_kappas(index)


def repair_span(index, base, seeds, repair, lowered) -> tuple[np.ndarray, dict]:
    """The repaired scores and the attributes of the ``peel.repair`` span."""
    with capture(enable=True) as sink:
        scores = repair_kappa_scores(index, base, seeds, repair, lowered=lowered)
    (trace,) = sink.traces()
    assert trace["name"] == "peel.repair"
    return scores, trace["attrs"]


class TestLocalizedRepair:
    """``repair_kappa_scores`` against the full peel: called directly, and
    through ``apply_updates`` where a triangle lands on θ."""

    @pytest.mark.parametrize("theta", [0.0, 0.001, 0.3])
    @pytest.mark.parametrize("op", ["insert", "delete", "change"])
    @pytest.mark.parametrize("name", sorted(REPAIR_GRAPHS))
    def test_repair_equals_the_full_peel(self, name, op, theta):
        index, base, seeds, lowered, repair, kappas = exact_case(name, op, theta)
        assert seeds.size
        expected = peel_kappa_scores(index, kappas, repair)
        for rows in ((), lowered):
            repaired = repair_kappa_scores(index, base, seeds, repair, lowered=rows)
            assert repaired.dtype == np.int64
            assert np.array_equal(repaired, expected)

    @pytest.mark.parametrize("theta", [0.0, 0.001, 0.3])
    @pytest.mark.parametrize(
        "ops, direction",
        [
            (["lower"], "all"),
            (["raise"], "none"),
            (["insert", "lower", "delete"], "some"),
        ],
        ids=["lowering-reprice", "raising-reprice", "mixed"],
    )
    @pytest.mark.parametrize("name", sorted(REPAIR_GRAPHS))
    def test_direction_aware_repair_equals_the_full_peel(self, name, ops, direction, theta):
        index, base, seeds, lowered, repair, kappas = exact_case(name, ops, theta)
        assert np.isin(lowered, seeds).all()
        assert {
            "all": np.array_equal(lowered, seeds),
            "none": lowered.size == 0,
            "some": 0 < lowered.size < seeds.size,
        }[direction]
        repaired = repair_kappa_scores(index, base, seeds, repair, lowered=lowered)
        assert np.array_equal(repaired, peel_kappa_scores(index, kappas, repair))

    @pytest.mark.parametrize(
        "op, grows", [("delete", False), ("lower", False), ("insert", True), ("raise", True)]
    )
    def test_only_rising_inputs_grow_a_closure(self, op, grows):
        index, base, seeds, lowered, repair, kappas = exact_case("planted", op, 0.001)
        scores, attrs = repair_span(index, base, seeds, repair, lowered)
        assert np.array_equal(scores, peel_kappa_scores(index, kappas, repair))
        assert attrs["seeds"] == seeds.size
        assert (attrs["closure"] > 0) is grows

    def test_a_triangle_on_theta_roots_every_seed(self):
        # Triangle (0, 1, 2) has four 4-cliques, one per vertex z = 3…6, whose
        # postings are p(0, z).  Re-pricing (0, 1) from 1 to 0.5 puts its
        # Pr(△) on θ = 0.5, where the float tail is not monotone: that of all
        # four postings rounds below 1 at k = 0, that of the first three does
        # not.  The peel starts the row at its initial κ -1 and keeps it
        # there; a fixed point from its old score 1 would settle on three
        # postings at 1.  So the update path withholds `lowered` and every
        # seed roots the closure, which starts the row at its initial κ.
        postings = [1.0, 0.683, 0.52, 0.298016]
        assert max_k_at_threshold(0.5, postings, 0.5) == NO_VALID_K
        assert max_k_at_threshold(0.5, postings[:3], 0.5) == 1

        def graph(p01):
            edges = [(0, 1, p01), (0, 2, 1.0), (1, 2, 1.0)]
            for z, p in enumerate(postings, start=3):
                edges += [(0, z, p), (1, z, 1.0), (2, z, 1.0)]
            return ProbabilisticGraph(edges)

        index = build_local_index(graph(1.0), 0.5)
        assert index.arrays["triangle_scores"][0] == 1
        assert not _on_theta(index._incremental_state["tri_index"].triangle_probabilities, 0.5)
        with capture(enable=True) as sink:
            updated = index.apply_updates([EdgeUpdate("change", 0, 1, 0.5)])
        (trace,) = sink.traces()
        (repair,) = [child for child in trace["children"] if child["name"] == "peel.repair"]
        assert repair["attrs"]["closure"] >= repair["attrs"]["seeds"] > 0
        assert _on_theta(updated._incremental_state["tri_index"].triangle_probabilities, 0.5)
        fresh = build_local_index(graph(0.5), 0.5)
        assert fresh.arrays["triangle_scores"][0] == NO_VALID_K
        assert np.array_equal(
            updated.arrays["triangle_scores"], fresh.arrays["triangle_scores"]
        )

    @pytest.mark.parametrize(
        "probability, theta, tied",
        [
            (0.5, 0.5, True),
            (np.nextafter(0.5, 1.0), 0.5, True),
            (np.nextafter(0.5, 0.0), 0.5, False),
            (0.5 * (1 + 1e-8), 0.5, False),
            (1.0, 1.0, True),
            (0.0, 0.0, False),
        ],
    )
    def test_on_theta_finds_probabilities_in_the_band_above_theta(
        self, probability, theta, tied
    ):
        assert _on_theta(np.array([0.9, probability]), theta) is tied
        assert not _on_theta(np.empty(0), theta)

    def test_exact_repair_never_calls_the_scalar_dp(self, monkeypatch):
        index, base, seeds, _, repair, kappas = exact_case("planted", "delete", 0.001)
        expected = peel_kappa_scores(index, kappas, repair)
        assert not np.array_equal(base, expected)  # the repair has work to do
        calls = TestExactPeelSpy.spy(monkeypatch)
        assert np.array_equal(repair_kappa_scores(index, base, seeds, repair), expected)
        assert calls["recompute_rows"] > 0
        assert calls["recompute"] == 0
        assert calls["max_k_at_threshold"] == 0

    @pytest.mark.parametrize("op", ["insert", "delete", "change"])
    def test_custom_unit_drop_repair(self, op):
        # The support count runs through the base class's recompute_rows,
        # which loops the scalar hook.
        def initial_kappas(index):
            return np.diff(index.tri_clique_indptr)

        graph, batch = dense_batch("planted", [op])
        index, base, seeds, _ = repair_inputs(
            graph, batch, lambda _: SupportCountRepair(), initial_kappas
        )
        repair = SupportCountRepair()
        repaired = repair_kappa_scores(index, base, seeds, repair)
        assert repair.calls > 0
        expected = peel_kappa_scores(index, initial_kappas(index), SupportCountRepair())
        assert np.array_equal(repaired, expected)
