"""Tests for the vectorized possible-world sampling engine.

Three layers of guarantees:

1. **Exact verification parity** — for any boolean world-matrix row, the
   batched predicates agree with the dict-backed reference predicates of
   the oracle (:func:`oracle.deterministic.is_k_nucleus`, and
   :func:`k_nucleus_triangle_groups` under the oracle's heap-peel
   nucleusness) on the materialized world, world by world.
2. **Statistical sampling parity** — the dict sampler and the matrix sampler
   draw from the same distribution, so their per-triangle probability
   estimates agree within the Hoeffding bound (and, on graphs small enough
   to enumerate, with the exact probability).
3. **Block invariance** — the one fixed-``n`` verification loop
   (:func:`~repro.sampling.verification.global_verify`,
   :func:`~repro.sampling.verification.weak_scores`) draws its worlds in
   memory-bounded row blocks; any split returns the counts, the nuclei and
   the generator state of one monolithic draw.  The tier-2 memory smoke
   runs the loop where one monolithic draw cannot fit.  (Algorithm 2's
   candidates also share world blocks; ``tests/test_global_candidates.py``
   pins that loop to the one-candidate calls.)

It also pins the loop itself (the point-estimate decision, triangle-free
candidates, per-seed determinism, the sampled-candidate counter), the
knob rules of the engine (``k``, ``seed`` and ``n_samples`` validation),
and the retired ``partitions=`` and ``n_jobs=`` aliases, which warn and run
the one serial loop.
"""

from __future__ import annotations

import itertools
import random
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from graph_factories import figure3a_graph, two_cliques_sharing_an_edge

import repro
import repro.sampling.verification as verification
from repro.cli import main as index_main
from repro.core.global_nucleus import candidate_closure, global_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.deterministic.cliques import triangle_clique_index
from repro.deterministic.nucleus import (
    is_k_nucleus,
    k_nucleus_subgraphs,
    k_nucleus_triangle_groups,
)
from repro.exceptions import InvalidParameterError
from repro.experiments.runner import main as experiments_main
from repro.graph.generators import (
    beta_probability,
    clique_graph,
    confidence_probability,
    planted_nucleus_graph,
)
from repro.graph.io import write_edge_list
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.hardness.reductions import (
    global_indicator_probability,
    weak_indicator_probability,
)
from repro.index import NucleusIndex, build_index, load_index
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.verification import block_rows, blocked_counts, global_verify, weak_scores
from repro.sampling.monte_carlo import hoeffding_error_bound
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldBlock,
    _padded_lists,
    _per_segment,
    _reduce_lists,
    as_numpy_generator,
    global_triangle_counts,
    nucleus_world_mask,
    sample_world_matrix,
    weak_membership_counts,
    world_from_row,
)

import oracle
from oracle.deterministic import is_k_nucleus as dict_is_k_nucleus
from oracle.deterministic import nucleus_decomposition as dict_nucleusness
from oracle.possible_worlds import enumerate_worlds


@pytest.fixture
def paper_example1_graph() -> ProbabilisticGraph:
    return figure3a_graph()


def dict_groups(world: ProbabilisticGraph, k: int) -> list:
    """The reference k-nuclei of a world: its triangle groups under the
    oracle's heap-peel nucleusness."""
    return k_nucleus_triangle_groups(world, k, nucleusness=dict_nucleusness(world))


def all_worlds(num_edges: int) -> np.ndarray:
    """Every possible world of ``num_edges`` edges, one per row (2^m rows)."""
    codes = np.arange(2**num_edges)[:, None]
    return (codes >> np.arange(num_edges)) & 1 == 1


def small_planted() -> ProbabilisticGraph:
    return planted_nucleus_graph(
        num_communities=2,
        community_size=5,
        intra_density=1.0,
        background_vertices=6,
        background_density=0.2,
        bridges_per_community=2,
        seed=9,
    )


def tiny_flickr() -> ProbabilisticGraph:
    """The tiny flickr analogue of the repo benchmark (``perfbench``)."""
    return planted_nucleus_graph(
        community_sizes=[7, 6, 5],
        intra_density=0.95,
        background_vertices=30,
        background_density=0.04,
        bridges_per_community=5,
        probability_model=confidence_probability(mode=0.9, concentration=20.0),
        background_probability_model=beta_probability(alpha=1.2, beta=9.0),
        seed=37,
    )


BLOCK_GRAPHS = {
    "K5": lambda: clique_graph(5, probability=0.9),
    "K6": lambda: clique_graph(6, probability=0.9),
    "figure3a": figure3a_graph,
    "tiny-flickr": tiny_flickr,
}


class TestSampleWorldMatrix:
    def test_shape_and_dtype(self, four_clique_graph):
        index = CandidateWorldIndex.from_graph(four_clique_graph)
        worlds = index.sample(50, seed=0)
        assert worlds.shape == (50, index.num_edges)
        assert worlds.dtype == np.bool_

    def test_marginals_match_edge_probabilities(self):
        graph = ProbabilisticGraph([("a", "b", 0.9), ("b", "c", 0.5), ("a", "c", 0.1)])
        index = CandidateWorldIndex.from_graph(graph)
        worlds = sample_world_matrix(index.edge_probabilities, 4000, seed=3)
        frequencies = worlds.mean(axis=0)
        epsilon = hoeffding_error_bound(4000, delta=0.01)
        for frequency, probability in zip(frequencies, index.edge_probabilities):
            assert abs(frequency - probability) <= epsilon

    def test_certain_edges_always_present(self):
        graph = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.5)])
        index = CandidateWorldIndex.from_graph(graph)
        worlds = index.sample(64, seed=1)
        certain_columns = np.flatnonzero(index.edge_probabilities == 1.0)
        assert certain_columns.size == 2
        assert worlds[:, certain_columns].all()

    def test_rejects_non_positive_world_count(self, four_clique_graph):
        index = CandidateWorldIndex.from_graph(four_clique_graph)
        with pytest.raises(InvalidParameterError):
            index.sample(0)

    def test_generator_conversions(self):
        assert isinstance(as_numpy_generator(seed=3), np.random.Generator)
        generator = np.random.default_rng(5)
        assert as_numpy_generator(generator) is generator
        # A seeded random.Random converts deterministically.
        first = as_numpy_generator(random.Random(11)).random()
        second = as_numpy_generator(random.Random(11)).random()
        assert first == second
        with pytest.raises(InvalidParameterError):
            as_numpy_generator(rng="not an rng")

    def test_seed_must_be_a_non_negative_integer(self):
        for good in (0, 7, np.int64(3), np.uint8(2)):
            assert isinstance(as_numpy_generator(seed=good), np.random.Generator)
        for bad in (-3, np.int64(-1), "x", True, 1.5):
            message = re.escape(f"seed must be a non-negative integer, got {bad!r}")
            with pytest.raises(InvalidParameterError, match=message):
                as_numpy_generator(seed=bad)


class TestCandidateWorldIndex:
    def test_structure_counts_match_dict_enumeration(self):
        graph = small_planted()
        index = CandidateWorldIndex.from_graph(graph)
        by_triangle, by_clique = triangle_clique_index(graph)
        assert index.num_triangles == len(by_triangle)
        assert index.num_cliques == len(by_clique)
        assert set(index.triangle_labels()) == set(by_triangle)

    def test_triangle_edges_are_consistent(self, five_clique_graph):
        index = CandidateWorldIndex.from_graph(five_clique_graph)
        for row, (u, v, w) in zip(index.triangle_edges, index.triangles):
            endpoints = {
                (int(index.edge_u[column]), int(index.edge_v[column])) for column in row
            }
            assert endpoints == {(int(u), int(v)), (int(u), int(w)), (int(v), int(w))}

    def test_world_from_row_round_trip(self, four_clique_graph):
        index = CandidateWorldIndex.from_graph(four_clique_graph)
        worlds = index.sample(10, seed=2)
        for i in range(10):
            world = world_from_row(index, worlds[i])
            assert world.num_edges == int(worlds[i].sum())
            assert set(world.vertices()) == set(four_clique_graph.vertices())

    def test_counts_of_no_worlds_are_zero(self):
        index = CandidateWorldIndex.from_graph(clique_graph(5, probability=0.9))
        none = np.zeros((0, index.num_edges), dtype=bool)
        for count in (global_triangle_counts, weak_membership_counts):
            assert count(index, none, 1).tolist() == [0] * index.num_triangles
        assert nucleus_world_mask(index, none, 1).shape == (0,)

    def test_triangle_free_graph_has_empty_index(self):
        graph = ProbabilisticGraph([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        index = CandidateWorldIndex.from_graph(graph)
        assert index.num_triangles == 0 and index.num_cliques == 0
        worlds = index.sample(8, seed=0)
        assert not nucleus_world_mask(index, worlds, 1).any()
        assert weak_membership_counts(index, worlds, 1).size == 0


class TestExactVerificationParity:
    """The batched predicates agree with the dict predicates world-by-world."""

    @pytest.mark.parametrize(
        "graph_builder,k",
        [
            (lambda: clique_graph(4, probability=0.8), 1),
            (lambda: clique_graph(5, probability=0.7), 2),
            (lambda: clique_graph(6, probability=0.6), 1),
            (small_planted, 1),
        ],
    )
    def test_nucleus_mask_matches_is_k_nucleus(self, graph_builder, k):
        index = CandidateWorldIndex.from_graph(graph_builder())
        worlds = index.sample(150, seed=13)
        mask = nucleus_world_mask(index, worlds, k)
        for i in range(worlds.shape[0]):
            world = world_from_row(index, worlds[i])
            assert bool(mask[i]) == dict_is_k_nucleus(world, k), f"world {i}"

    @pytest.mark.parametrize(
        "graph_builder,k",
        [
            (lambda: clique_graph(5, probability=0.7), 1),
            (lambda: clique_graph(5, probability=0.7), 2),
            (small_planted, 1),
        ],
    )
    def test_weak_membership_matches_triangle_groups(self, graph_builder, k):
        index = CandidateWorldIndex.from_graph(graph_builder())
        worlds = index.sample(120, seed=17)
        labels = index.triangle_labels()
        counts = np.zeros(index.num_triangles, dtype=np.int64)
        for i in range(worlds.shape[0]):
            world = world_from_row(index, worlds[i])
            groups = dict_groups(world, k)
            for group in groups:
                for triangle in group:
                    counts[labels.index(triangle)] += 1
        batched = weak_membership_counts(index, worlds, k)
        assert batched.tolist() == counts.tolist()

    @pytest.mark.parametrize(
        "graph_builder",
        [
            lambda: clique_graph(4, probability=0.5),
            lambda: clique_graph(5, probability=0.5),
            figure3a_graph,
            two_cliques_sharing_an_edge,
        ],
        ids=["K4", "K5", "figure3a", "two-cliques-one-edge"],
    )
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_every_possible_world(self, graph_builder, k):
        index = CandidateWorldIndex.from_graph(graph_builder())
        assert index.num_edges <= 11
        worlds = all_worlds(index.num_edges)
        position = {triangle: t for t, triangle in enumerate(index.triangle_labels())}
        mask = nucleus_world_mask(index, worlds, k)
        members = np.zeros((worlds.shape[0], index.num_triangles), dtype=np.int64)
        for i in range(worlds.shape[0]):
            world = world_from_row(index, worlds[i])
            assert bool(mask[i]) == dict_is_k_nucleus(world, k), f"world {i}"
            for group in dict_groups(world, k):
                members[i, [position[t] for t in group]] = 1
            row = worlds[i : i + 1]
            assert weak_membership_counts(index, row, k).tolist() == members[i].tolist()
        batched = weak_membership_counts(index, worlds, k)
        assert batched.tolist() == members.sum(axis=0).tolist()

    @pytest.mark.parametrize("k", [1, 2])
    def test_absent_cliques_join_no_components(self, k):
        # Every world made of two 4-cliques of K6.  Two that share only an
        # edge are disconnected, also where a third 4-clique, absent from
        # the world, shares a triangle with each.
        index = CandidateWorldIndex.from_graph(clique_graph(6, probability=0.5))
        pairs = list(itertools.combinations(range(index.num_cliques), 2))
        worlds = np.zeros((len(pairs), index.num_edges), dtype=bool)
        for row, pair in enumerate(pairs):
            worlds[row, index.clique_edges[list(pair)].ravel()] = True
        expected = [dict_is_k_nucleus(world_from_row(index, world), k) for world in worlds]
        assert nucleus_world_mask(index, worlds, k).tolist() == expected
        assert k > 1 or 0 < sum(expected) < len(pairs)

    def test_counts_threshold_reproduces_dict_decision(self, paper_example1_graph):
        index = CandidateWorldIndex.from_graph(paper_example1_graph)
        worlds = index.sample(400, seed=3)
        counts = global_triangle_counts(index, worlds, 1)
        # The only nucleus world is the full clique (probability 0.5), so
        # every triangle's estimate must clear θ = 0.42 comfortably.
        assert np.all(counts / 400 >= 0.42)


def _contains_triangle(world: ProbabilisticGraph, triangle) -> bool:
    u, v, w = triangle
    return world.has_edge(u, v) and world.has_edge(u, w) and world.has_edge(v, w)


class TestStatisticalParity:
    """Dict sampling and matrix sampling agree within the Hoeffding bound."""

    def test_global_estimates_within_hoeffding_of_exact(self):
        graph = clique_graph(4, probability=0.8)
        k, n_samples, delta = 1, 2000, 0.01
        epsilon = hoeffding_error_bound(n_samples, delta)

        index = CandidateWorldIndex.from_graph(graph)
        labels = index.triangle_labels()

        # Exact per-triangle probability by exhaustive world enumeration.
        exact = dict.fromkeys(labels, 0.0)
        for world, probability in enumerate_worlds(graph):
            if not dict_is_k_nucleus(world, k):
                continue
            for triangle in labels:
                if _contains_triangle(world, triangle):
                    exact[triangle] += probability

        # Matrix estimate.
        worlds = index.sample(n_samples, seed=29)
        matrix_estimates = dict(
            zip(labels, (global_triangle_counts(index, worlds, k) / n_samples).tolist())
        )

        # Dict estimate with the reference one-world-at-a-time sampler.
        rng = random.Random(31)
        dict_counts = dict.fromkeys(labels, 0)
        for _ in range(n_samples):
            world = sample_world(graph, rng=rng)
            if not dict_is_k_nucleus(world, k):
                continue
            for triangle in labels:
                if _contains_triangle(world, triangle):
                    dict_counts[triangle] += 1

        for triangle in labels:
            dict_estimate = dict_counts[triangle] / n_samples
            assert abs(matrix_estimates[triangle] - exact[triangle]) <= epsilon
            assert abs(dict_estimate - exact[triangle]) <= epsilon
            assert abs(matrix_estimates[triangle] - dict_estimate) <= 2 * epsilon

    def test_weak_scores_within_hoeffding(self):
        graph = clique_graph(5, probability=0.7)
        k, n_samples, delta = 1, 1500, 0.01
        epsilon = hoeffding_error_bound(n_samples, delta)
        dict_scores = oracle.triangle_weak_scores(graph, k, n_samples, random.Random(23))
        index = CandidateWorldIndex.from_graph(graph)
        estimates, _ = weak_scores(index, k, 1.0, n_samples, seed=37)
        matrix_scores = dict(zip(index.triangle_labels(), estimates.tolist()))
        assert set(dict_scores) == set(matrix_scores)
        for triangle, score in dict_scores.items():
            assert abs(score - matrix_scores[triangle]) <= 2 * epsilon


def _nuclei_key(nuclei) -> list:
    return sorted(
        (sorted(map(repr, n.triangles)), sorted(map(repr, n.subgraph.edges()))) for n in nuclei
    )


def reduceat_lists(reduce, lists, values, empty, dtype):
    """The reduceat kernel the padded lists replaced, as the reference.

    ``values`` is world-major, one column per 4-clique; column ``i`` of the
    result reduces the columns ``lists[i]``: one gather of the concatenated
    lists, reduced with ``reduceat`` along the worlds' rows over the
    non-empty lists.  Empty lists get ``empty``.
    """
    indptr = np.cumsum([0] + [len(members) for members in lists])
    gathered = values[:, np.array([c for members in lists for c in members], dtype=np.intp)]
    starts = indptr[:-1]
    nonempty = indptr[1:] > starts
    out = np.full((values.shape[0], starts.size), empty, dtype=dtype)
    if nonempty.any():
        out[:, nonempty] = reduce.reduceat(gathered, starts[nonempty], axis=1, dtype=dtype)
    return out


#: Member rows ``(q, w)`` over ``size`` items whose inverse lists have
#: empty rows, none at all, width 1, or skewed widths.
MEMBER_ROWS = {
    "random": lambda rng: (rng.integers(0, 40, (30, 6)), 45),
    "all-empty": lambda rng: (np.zeros((0, 4), dtype=np.int64), 12),
    "width-1": lambda rng: (rng.permutation(25)[:, None], 30),
    "skewed": lambda rng: (
        np.column_stack([np.zeros(40, dtype=np.int64), rng.integers(1, 60, (40, 3))]),
        60,
    ),
}


class TestListReductions:
    """The padded worlds-last reductions equal the reduceat reductions."""

    CASES = {
        "minimum-uint8": (np.minimum, np.uint8, None),
        "minimum-uint16": (np.minimum, np.uint16, None),
        "add-uint8": (np.add, np.uint8, bool),
        "add-uint16": (np.add, np.uint16, bool),
        "logical_or-bool": (np.logical_or, bool, bool),
    }

    @pytest.mark.parametrize("n_worlds", [0, 1, 7])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("shape", MEMBER_ROWS)
    def test_padded_lists_equal_reduceat(self, shape, case, n_worlds):
        reduce, dtype, value_dtype = self.CASES[case]
        rng = np.random.default_rng(sorted(MEMBER_ROWS).index(shape))
        members, size = MEMBER_ROWS[shape](rng)
        q = members.shape[0]
        lists = [[] for _ in range(size)]
        for row, held in enumerate(members.tolist()):
            for item in held:
                lists[item].append(row)
        table = _padded_lists(members, size)
        assert table.shape == (max(map(len, lists)), size)
        if value_dtype is None:  # labels: 4-clique rows and the sentinel q
            empty = q
            values = rng.integers(0, q + 1, (n_worlds, q)).astype(dtype)
        else:
            empty = 0 if reduce is np.add else False
            values = rng.random((n_worlds, q)) < 0.5
        expected = reduceat_lists(reduce, lists, values, empty, dtype)
        padded = _reduce_lists(reduce, table, np.ascontiguousarray(values.T), empty, dtype)
        assert padded.dtype == expected.dtype
        np.testing.assert_array_equal(padded.T, expected)

    @pytest.mark.parametrize("n_worlds", [0, 1, 7])
    @pytest.mark.parametrize("sizes", [[9], [0], [3, 0, 5, 1], [0, 4, 0]])
    def test_segments_equal_reduceat(self, sizes, n_worlds):
        offsets = np.cumsum([0] + sizes)
        values = np.random.default_rng(len(sizes)).integers(0, 9, (n_worlds, offsets[-1]))
        segments = [list(range(a, b)) for a, b in zip(offsets[:-1], offsets[1:])]
        for reduce, empty in ((np.minimum, 9), (np.maximum, 0), (np.add, 0)):
            values = values.astype(np.uint8)
            expected = reduceat_lists(reduce, segments, values, empty, np.uint8)
            last = np.ascontiguousarray(values.T)
            got = _per_segment(reduce, last, offsets, empty, np.uint8)
            np.testing.assert_array_equal(got.T, expected)


class TestWorldBlocks:
    """Row blocks change neither the stream, the counts nor the nuclei."""

    def test_default_budget_keeps_small_candidates_in_one_block(self):
        index = CandidateWorldIndex.from_graph(tiny_flickr())
        assert block_rows(index) >= 400

    @pytest.mark.parametrize("name", BLOCK_GRAPHS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_block_counts_equal_one_shot_counts(self, monkeypatch, name, k):
        index = CandidateWorldIndex.from_graph(BLOCK_GRAPHS[name]())
        # The padded triangle → 4-clique and edge → 4-clique lists count at
        # their longest list's width.
        padded = sum(
            rows * max(Counter(members.ravel().tolist()).values())
            for rows, members in (
                (index.num_triangles, index.clique_triangles),
                (index.num_edges, index.clique_edges),
            )
        )
        row_bytes = 8 * index.num_edges + 24 * index.num_cliques + 4 * padded
        monkeypatch.setattr(verification, "WORLD_BLOCK_BYTES", 7 * row_bytes)
        assert block_rows(index) == 7
        for count in (global_triangle_counts, weak_membership_counts):
            blocked_rng, one_shot_rng = np.random.default_rng(5), np.random.default_rng(5)
            blocked = blocked_counts(count, index, 50, k, rng=blocked_rng)
            one_shot = count(index, index.sample(50, rng=one_shot_rng), k)
            assert blocked.tolist() == one_shot.tolist()
            assert blocked_rng.random() == one_shot_rng.random()

    @pytest.mark.parametrize("name", BLOCK_GRAPHS)
    @pytest.mark.parametrize("mode", ["global", "weak"])
    def test_one_world_blocks_return_the_same_nuclei(self, monkeypatch, name, mode):
        graph = BLOCK_GRAPHS[name]()
        kwargs = dict(mode=mode, theta=0.3, n_samples=24, seed=3)
        expected = {k: _nuclei_key(repro.decompose(graph, k=k, **kwargs)) for k in (1, 2)}
        drawn = set()
        # Weak draws through its candidate's index, global through the world
        # blocks of its candidates.
        for owner in (CandidateWorldIndex, WorldBlock):
            sample = owner.sample

            def spy(index, n_worlds, _owner=owner.__name__, _sample=sample, **options):
                drawn.add((_owner, n_worlds, getattr(index, "num_segments", 1)))
                return _sample(index, n_worlds, **options)

            monkeypatch.setattr(owner, "sample", spy)
        monkeypatch.setattr(verification, "WORLD_BLOCK_BYTES", 1)
        for k in (1, 2):
            assert _nuclei_key(repro.decompose(graph, k=k, **kwargs)) == expected[k]
        # Every block held one world of one candidate, so each candidate's
        # 24 worlds split into 24 blocks.
        owner = "WorldBlock" if mode == "global" else "CandidateWorldIndex"
        assert drawn == {(owner, 1, 1)}


class TestFixedLoop:
    """Every candidate draws exactly ``n_samples`` worlds; the point estimate decides."""

    @staticmethod
    def _index(p: float = 0.8) -> CandidateWorldIndex:
        return CandidateWorldIndex.from_graph(clique_graph(4, probability=p))

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.45, 0.6, 1.0])
    def test_decisions_are_the_point_estimates_of_the_blocked_counts(self, theta):
        index = self._index()
        counts = blocked_counts(global_triangle_counts, index, 150, 1, seed=7)
        expected = bool(np.all(counts / 150 >= theta))
        assert global_verify(index, 1, theta, 150, seed=7) is expected
        counts = blocked_counts(weak_membership_counts, index, 150, 1, seed=7)
        estimates, qualifying = weak_scores(index, 1, theta, 150, seed=7)
        assert estimates.tolist() == (counts / 150).tolist()
        assert qualifying.tolist() == (counts / 150 >= theta).tolist()

    def test_decision_divides_before_comparing(self, monkeypatch):
        # 7 / 25 >= 0.28 holds, 7 >= 0.28 * 25 (= 7.000000000000001) does not.
        # Weak counts through blocked_counts, global per verification of a
        # block (one row of counts per repeat).
        monkeypatch.setattr(verification, "blocked_counts", lambda *args, **kw: np.array([7]))
        monkeypatch.setattr(
            verification, "_stacked_counts", lambda *args, **kw: np.array([[7]])
        )
        index = CandidateWorldIndex.from_graph(clique_graph(3, probability=0.5))
        assert global_verify(index, 0, 0.28, 25, seed=0) is True
        assert weak_scores(index, 0, 0.28, 25, seed=0)[1].tolist() == [True]

    def test_triangle_free_candidate_fails_without_sampling(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a world was drawn")

        index = CandidateWorldIndex.from_graph(clique_graph(2, probability=1.0))  # one edge
        monkeypatch.setattr(CandidateWorldIndex, "sample", no_draw)
        assert global_verify(index, 1, 0.5, 150, seed=0) is False
        estimates, qualifying = weak_scores(index, 1, 0.5, 150, seed=0)
        assert estimates.size == 0 and qualifying.size == 0 and qualifying.dtype == bool

    def test_deterministic_per_seed(self):
        index = self._index()
        assert [global_verify(index, 1, 0.4, 150, seed=s) for s in range(8)] == [
            global_verify(index, 1, 0.4, 150, seed=s) for s in range(8)
        ]
        first = weak_scores(index, 1, 0.4, 150, seed=3)
        second = weak_scores(index, 1, 0.4, 150, seed=3)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True])
    def test_n_samples_errors_name_n_samples(self, n_samples):
        message = re.escape(f"n_samples must be a positive integer, got {n_samples!r}")
        for run in (global_nucleus_decomposition, weak_nucleus_decomposition):
            with pytest.raises(InvalidParameterError, match=f"^{message}$"):
                run(small_planted(), k=1, theta=0.4, n_samples=n_samples)
        for verify in (global_verify, weak_scores):
            with pytest.raises(InvalidParameterError, match=f"^{message}$"):
                verify(self._index(), 1, 0.4, n_samples, seed=0)


class TestCandidateCounter:
    """``repro_sampling_candidates_total`` counts every sampled candidate."""

    @staticmethod
    def _state(model):
        return obs_registry.counter("repro_sampling_candidates_total", model=model).value

    @staticmethod
    def _run():
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
        empty = CandidateWorldIndex.from_graph(clique_graph(2, probability=1.0))
        global_verify(index, 1, 0.5, 150, seed=0)
        global_verify(empty, 1, 0.5, 150, seed=0)  # draws nothing, records nothing
        weak_scores(index, 1, 0.5, 24, seed=0)

    def test_counts_each_sampled_candidate_when_enabled(self):
        was_enabled = obs_config.enabled()
        obs_config.configure(enabled=True)
        try:
            before = {model: self._state(model) for model in ("global", "weak")}
            self._run()
            after = {model: self._state(model) for model in ("global", "weak")}
            names = {metric["name"] for metric in obs_registry.snapshot()["metrics"]}
        finally:
            obs_config.configure(enabled=was_enabled)
        assert after["global"] - before["global"] == 1
        assert after["weak"] - before["weak"] == 1
        assert "repro_sampling_candidates_total" in names

    def test_silent_when_disabled(self):
        was_enabled = obs_config.enabled()
        obs_config.configure(enabled=False)
        try:
            before = {model: self._state(model) for model in ("global", "weak")}
            self._run()
            after = {model: self._state(model) for model in ("global", "weak")}
        finally:
            obs_config.configure(enabled=was_enabled)
        assert after == before


class TestLevelValidation:
    """One ``k`` rule, ``check_level``, below the drivers too."""

    @pytest.mark.parametrize("bad", [1.5, True, -1])
    def test_k_must_be_a_non_negative_integer(self, bad):
        graph = clique_graph(6, probability=0.9)
        index = CandidateWorldIndex.from_graph(graph)
        worlds = index.sample(8, seed=0)
        message = re.escape(f"k must be a non-negative integer, got {bad!r}")
        for predicate in (nucleus_world_mask, global_triangle_counts, weak_membership_counts):
            with pytest.raises(InvalidParameterError, match=message):
                predicate(index, worlds, bad)
        by_triangle, _ = triangle_clique_index(graph)
        with pytest.raises(InvalidParameterError, match=message):
            candidate_closure(graph, (0, 1, 2), bad, by_triangle)

    @pytest.mark.parametrize("bad", [1.5, True, -1])
    def test_k_rule_outside_the_drivers(self, bad):
        graph = clique_graph(4, probability=0.9)
        message = re.escape(f"k must be a non-negative integer, got {bad!r}")
        calls = (
            lambda: k_nucleus_triangle_groups(graph, bad),
            lambda: k_nucleus_subgraphs(graph, bad),
            lambda: is_k_nucleus(graph, bad),
            lambda: global_indicator_probability(graph, (0, 1, 2), bad),
            lambda: weak_indicator_probability(graph, (0, 1, 2), bad),
            lambda: NucleusIndex.from_nuclei(graph, [], k=bad, theta=0.3, mode="global"),
        )
        for call in calls:
            with pytest.raises(InvalidParameterError, match=message):
                call()


class TestRetiredPartitions:
    """``partitions=`` and ``n_jobs=`` are retired aliases of ``__api_version__ = "1"``.

    The CLI-flag and old-archive cases are ``partitions``-only: ``n_jobs``
    has no decomposition CLI flag and was never recorded in a header.
    """

    RUNS = {
        "global_nucleus_decomposition": lambda g, **kw: global_nucleus_decomposition(
            g, 1, 0.3, n_samples=20, seed=3, **kw
        ),
        "weak_nucleus_decomposition": lambda g, **kw: weak_nucleus_decomposition(
            g, 1, 0.3, n_samples=20, seed=3, **kw
        ),
        "build_index(global)": lambda g, **kw: build_index(
            g, mode="global", theta=0.3, k=1, n_samples=20, seed=3, **kw
        ),
        "build_index(weak)": lambda g, **kw: build_index(
            g, mode="weak", theta=0.3, k=1, n_samples=20, seed=3, **kw
        ),
    }
    KNOBS = ["partitions", "n_jobs"]
    EXPERIMENTS = [
        "run",
        "table2",
        "--scale",
        "tiny",
        "--filter",
        "dataset=krogan",
        "--filter",
        "theta=0.1",
    ]

    @staticmethod
    def _signature(result):
        if isinstance(result, NucleusIndex):
            return {name: array.tobytes() for name, array in result.arrays.items()}
        return _nuclei_key(result)

    @pytest.mark.parametrize("knob", KNOBS)
    @pytest.mark.parametrize("name", RUNS)
    def test_one_is_silent_and_others_warn_and_run_the_one_loop(self, name, knob):
        graph = small_planted()
        run = self.RUNS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = self._signature(run(graph, **{knob: 1}))
        with pytest.warns(DeprecationWarning, match=f"{knob}= is deprecated") as record:
            result = run(graph, **{knob: 4})
        assert sum(issubclass(w.category, DeprecationWarning) for w in record) == 1
        assert self._signature(result) == expected
        if isinstance(result, NucleusIndex):
            assert knob not in result.params

    @pytest.mark.parametrize("knob", KNOBS)
    @pytest.mark.parametrize("name", RUNS)
    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, "2"])
    def test_invalid_values_name_the_knob(self, name, bad, knob):
        message = f"^{knob} must be a positive integer, got {bad!r}$"
        with pytest.raises(InvalidParameterError, match=message):
            self.RUNS[name](clique_graph(4, probability=0.9), **{knob: bad})

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_index_cli_flag(self, tmp_path, capsys, mode):
        graph_file = tmp_path / "graph.txt"
        write_edge_list(clique_graph(5, probability=0.9), graph_file)
        argv = ["build", str(graph_file), "--mode", mode, "--k", "1", "--seed", "0"]
        with pytest.warns(DeprecationWarning, match="partitions="):
            assert index_main([*argv, "-o", str(tmp_path / "a.npz"), "--partitions", "2"]) == 0
        assert "partitions" not in load_index(tmp_path / "a.npz").params
        capsys.readouterr()
        assert index_main([*argv, "-o", str(tmp_path / "b.npz"), "--partitions", "0"]) == 2
        stderr = capsys.readouterr().err
        assert "InvalidParameterError" in stderr and "partitions" in stderr
        assert not (tmp_path / "b.npz").exists()

    def test_experiments_cli_flag(self, capsys):
        with pytest.warns(DeprecationWarning, match="partitions="):
            assert experiments_main([*self.EXPERIMENTS, "--partitions", "2"]) == 0
        with pytest.raises(InvalidParameterError, match="partitions"):
            experiments_main([*self.EXPERIMENTS, "--partitions", "0"])

    def test_old_archives_with_the_entry_still_load(self, tmp_path, capsys):
        graph = clique_graph(5, probability=0.9)
        nuclei = global_nucleus_decomposition(graph, 1, 0.3, n_samples=20, seed=3)
        params = {"k": 1, "n_samples": 20, "seed": 3, "partitions": 2}
        path = tmp_path / "old.npz"
        index = NucleusIndex.from_nuclei(
            graph, nuclei, k=1, theta=0.3, mode="global", params=params
        )
        index.save(path)
        assert load_index(path).params == params
        assert index_main(["info", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("partitions:") for line in lines)


class TestBackendEndToEnd:
    def test_paper_example1_global_nucleus_csr_backend(self, paper_example1_graph):
        nuclei = global_nucleus_decomposition(
            paper_example1_graph, k=1, theta=0.42, n_samples=400, seed=3
        )
        assert len(nuclei) == 1
        assert set(nuclei[0].subgraph.vertices()) == {1, 2, 3, 5}
        assert nuclei[0].mode == "global"

    def test_numpy_generator_accepted_by_dict_backend(self, five_clique_graph):
        # A numpy Generator is converted to the dict oracle's random.Random.
        nuclei = oracle.global_nucleus_decomposition(
            five_clique_graph,
            k=2,
            theta=0.9,
            n_samples=30,
            rng=np.random.default_rng(8),
        )
        assert len(nuclei) == 1

    def test_random_random_accepted_by_csr_backend(self, five_clique_graph):
        nuclei = weak_nucleus_decomposition(
            five_clique_graph,
            k=2,
            theta=0.9,
            n_samples=30,
            rng=random.Random(4),
        )
        assert len(nuclei) == 1


MEMORY_SMOKE_SCRIPT = textwrap.dedent(
    """
    import resource
    import sys

    import numpy as np

    from repro.graph.csr import CSRProbabilisticGraph
    from repro.sampling.verification import blocked_counts, global_verify, weak_scores
    from repro.sampling.world_matrix import (
        CandidateWorldIndex,
        global_triangle_counts,
        weak_membership_counts,
    )

    TAIL = 400_000  # cycle edges; the worlds matrix spans 400_006 columns
    N_WORLDS = 512

    # A small dense core (one certain 4-clique: 4 triangles, 1 clique) plus a
    # long triangle-free cycle so the edge count dwarfs memory without
    # inflating the candidate-sized presence matrices.
    core = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64)
    n = 4 + TAIL
    tail_u = np.arange(4, n - 1, dtype=np.int64)
    edges_u = np.concatenate([core[:, 0], tail_u, np.array([4], dtype=np.int64)])
    edges_v = np.concatenate([core[:, 1], tail_u + 1, np.array([n - 1], dtype=np.int64)])
    probs = np.concatenate([np.ones(6), np.full(TAIL, 0.9)])

    directed_u = np.concatenate([edges_u, edges_v])
    directed_v = np.concatenate([edges_v, edges_u])
    directed_p = np.concatenate([probs, probs])
    order = np.lexsort((directed_v, directed_u))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(directed_u, minlength=n), out=indptr[1:])
    graph = CSRProbabilisticGraph(
        indptr, directed_v[order], directed_p[order], list(range(n))
    )
    index = CandidateWorldIndex.from_graph(graph)
    assert index.num_edges == TAIL + 6, index.num_edges
    assert index.num_triangles == 4 and index.num_cliques == 1

    # Cap the address space a few hundred MB above the current footprint:
    # enough headroom for the default world blocks, nowhere near the ~1.6 GB
    # float draw of the monolithic (N_WORLDS, num_edges) sample.
    with open("/proc/self/status") as status:
        vm_kb = next(
            int(line.split()[1]) for line in status if line.startswith("VmSize")
        )
    limit = vm_kb * 1024 + 300 * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    try:
        index.sample(N_WORLDS)
    except MemoryError:
        print("MONOLITHIC_MEMORYERROR")
    else:
        sys.exit("monolithic sampling unexpectedly fit in the capped address space")

    # The loop of both drivers: N_WORLDS worlds per candidate, drawn in
    # memory-bounded blocks.
    means, qualifying = weak_scores(index, 1, 0.5, N_WORLDS, seed=7)
    assert (means == 1.0).all() and qualifying.all()
    assert not global_verify(index, 1, 0.5, N_WORLDS, seed=7)

    weak = blocked_counts(weak_membership_counts, index, N_WORLDS, 1, seed=7)
    assert weak.shape == (4,) and (weak == N_WORLDS).all(), weak
    global_counts = blocked_counts(global_triangle_counts, index, N_WORLDS, 1, seed=7)
    # Present cycle edges are never clique-covered, so no sampled world is a
    # 1-nucleus of the whole graph: the count must be exactly zero.
    assert global_counts.shape == (4,) and (global_counts == 0).all(), global_counts
    print("BLOCKED_OK")
    """
)


@pytest.mark.tier2
def test_memory_smoke_larger_than_ram_graph():
    """Monolithic sampling must MemoryError where the blocked loop runs."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", MEMORY_SMOKE_SCRIPT],
        capture_output=True,
        text=True,
        timeout=600,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert "MONOLITHIC_MEMORYERROR" in result.stdout
    assert "BLOCKED_OK" in result.stdout
