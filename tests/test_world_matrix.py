"""Tests for the vectorized possible-world sampling engine.

Three layers of guarantees:

1. **Exact verification parity** — for any boolean world-matrix row, the
   batched predicates agree with the dict-backed reference predicates
   (:func:`is_k_nucleus`, :func:`k_nucleus_triangle_groups`) on the
   materialized world, world by world.
2. **Statistical sampling parity** — the dict sampler and the matrix sampler
   draw from the same distribution, so their per-triangle probability
   estimates agree within the Hoeffding bound (and, on graphs small enough
   to enumerate, with the exact probability).
3. **Block invariance** — the one verification loop draws every chunk in
   memory-bounded row blocks; any split returns the counts, the nuclei and
   the generator state of one monolithic draw.  The tier-2 memory smoke
   runs the loop where one monolithic draw cannot fit.

It also pins the knob rules of the engine: ``k`` and ``seed`` validation,
and the retired ``partitions=`` and ``n_jobs=`` aliases, which warn and run
the one serial loop.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.sampling.adaptive as adaptive
from repro.cli import main as index_main
from repro.core.global_nucleus import candidate_closure, global_nucleus_decomposition
from repro.core.weak_nucleus import (
    triangle_weak_scores_matrix,
    weak_nucleus_decomposition,
)
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
from repro.graph.possible_worlds import enumerate_worlds, sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.hardness.reductions import (
    global_indicator_probability,
    weak_indicator_probability,
)
from repro.index import NucleusIndex, build_index, load_index
from repro.sampling.adaptive import block_rows, blocked_counts
from repro.sampling.monte_carlo import hoeffding_error_bound
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    as_numpy_generator,
    global_triangle_counts,
    nucleus_world_mask,
    sample_world_matrix,
    weak_membership_counts,
    world_from_row,
)

import oracle


def figure3a_graph() -> ProbabilisticGraph:
    """Figure 3a: the 4-clique {1, 2, 3, 5} with one 0.5-probability edge."""
    graph = ProbabilisticGraph()
    edges = [(1, 2, 1.0), (1, 3, 1.0), (1, 5, 1.0), (2, 3, 1.0), (2, 5, 1.0), (3, 5, 0.5)]
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return graph


@pytest.fixture
def paper_example1_graph() -> ProbabilisticGraph:
    return figure3a_graph()


def two_cliques_sharing_an_edge() -> ProbabilisticGraph:
    """4-cliques {0, 1, 2, 3} and {2, 3, 4, 5}: 11 edges, one shared.

    Every edge is covered and every triangle supported, but the cliques
    share no triangle, so the full world is not 4-clique-connected.
    """
    graph = ProbabilisticGraph()
    for clique in ((0, 1, 2, 3), (2, 3, 4, 5)):
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v, 0.5)
    return graph


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
            assert bool(mask[i]) == is_k_nucleus(world, k), f"world {i}"

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
            groups = k_nucleus_triangle_groups(world, k)
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
            assert bool(mask[i]) == is_k_nucleus(world, k), f"world {i}"
            for group in k_nucleus_triangle_groups(world, k):
                members[i, [position[t] for t in group]] = 1
            row = worlds[i : i + 1]
            assert weak_membership_counts(index, row, k).tolist() == members[i].tolist()
        batched = weak_membership_counts(index, worlds, k)
        assert batched.tolist() == members.sum(axis=0).tolist()

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
            if not is_k_nucleus(world, k):
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
            if not is_k_nucleus(world, k):
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
        matrix_scores = triangle_weak_scores_matrix(graph, k, n_samples, seed=37)
        assert set(dict_scores) == set(matrix_scores)
        for triangle, score in dict_scores.items():
            assert abs(score - matrix_scores[triangle]) <= 2 * epsilon


def _nuclei_key(nuclei) -> list:
    return sorted(
        (sorted(map(repr, n.triangles)), sorted(map(repr, n.subgraph.edges()))) for n in nuclei
    )


class TestWorldBlocks:
    """Row blocks change neither the stream, the counts nor the nuclei."""

    def test_default_budget_keeps_small_candidates_in_one_block(self):
        index = CandidateWorldIndex.from_graph(tiny_flickr())
        assert block_rows(index) >= 400

    @pytest.mark.parametrize("name", BLOCK_GRAPHS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_block_counts_equal_one_shot_counts(self, monkeypatch, name, k):
        index = CandidateWorldIndex.from_graph(BLOCK_GRAPHS[name]())
        row_bytes = 8 * index.num_edges + 64 * index.num_cliques
        monkeypatch.setattr(adaptive, "WORLD_BLOCK_BYTES", 7 * row_bytes)
        assert block_rows(index) == 7
        for count in (global_triangle_counts, weak_membership_counts):
            blocked_rng, one_shot_rng = np.random.default_rng(5), np.random.default_rng(5)
            blocked = blocked_counts(count, index, 50, k, rng=blocked_rng)
            one_shot = count(index, index.sample(50, rng=one_shot_rng), k)
            assert blocked.tolist() == one_shot.tolist()
            assert blocked_rng.random() == one_shot_rng.random()

    @pytest.mark.parametrize("name", BLOCK_GRAPHS)
    @pytest.mark.parametrize("sampling", ["fixed", "adaptive"])
    @pytest.mark.parametrize("mode", ["global", "weak"])
    def test_one_world_blocks_return_the_same_nuclei(self, monkeypatch, name, sampling, mode):
        graph = BLOCK_GRAPHS[name]()
        kwargs = dict(mode=mode, theta=0.3, n_samples=24, seed=3, sampling=sampling)
        expected = {k: _nuclei_key(repro.decompose(graph, k=k, **kwargs)) for k in (1, 2)}
        drawn = []
        sample = CandidateWorldIndex.sample

        def spy(index, n_worlds, **options):
            drawn.append(n_worlds)
            return sample(index, n_worlds, **options)

        monkeypatch.setattr(CandidateWorldIndex, "sample", spy)
        monkeypatch.setattr(adaptive, "WORLD_BLOCK_BYTES", 1)
        for k in (1, 2):
            assert _nuclei_key(repro.decompose(graph, k=k, **kwargs)) == expected[k]
        # Every block held one world, so every chunk (≥ 16 worlds) split into
        # at least 16 blocks.
        assert drawn and set(drawn) == {1}


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
    from repro.sampling.adaptive import (
        adaptive_global_verify,
        adaptive_weak_scores,
        blocked_counts,
        resolve_adaptive_settings,
    )
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

    # The default loop of both drivers: one chunk of N_WORLDS worlds, drawn
    # in memory-bounded blocks.
    settings = resolve_adaptive_settings("fixed", n_samples=N_WORLDS)
    means, qualifying, outcome = adaptive_weak_scores(index, 1, 0.5, settings, seed=7)
    assert outcome.worlds == N_WORLDS and (means == 1.0).all() and qualifying.all()
    passes, outcome = adaptive_global_verify(index, 1, 0.5, settings, seed=7)
    assert not passes and outcome.worlds == N_WORLDS, (passes, outcome)

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
