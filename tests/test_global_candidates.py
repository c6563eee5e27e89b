"""The id-space candidate loop of Algorithm 2 against the label-space loop.

:func:`repro.core.global_nucleus._verified_nuclei` compiles the union ``C``
of the local nuclei once, grows every candidate as a 4-clique-id closure
over ``C``'s arrays (:func:`~repro.core.global_nucleus._closure_ids`) and
verifies it on :meth:`CandidateWorldIndex.restrict` of ``C``'s index.  These
tests pin each step to the label-space loop kept in ``oracle.global_nucleus``:
the closure to :func:`~repro.core.global_nucleus.candidate_closure`, the
restriction to a compile of the candidate subgraph, and the sampled answers
to the label-space loop driven by the production verifier on an identically
seeded generator.  The weak driver's array grouping is pinned to the dict
4-clique components.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from oracle.global_nucleus import verified_nuclei
from repro.core.global_nucleus import (
    _closure_ids,
    _verified_nuclei,
    candidate_closure,
    global_nucleus_decomposition,
    union_of_nuclei,
    validate_sampling_options,
)
from repro.core.local import local_nucleus_decomposition
from repro.core.weak_nucleus import _weak_nuclei
from repro.deterministic.cliques import (
    canonical_four_clique,
    triangle_clique_index,
    triangle_connected_components,
)
from repro.experiments.datasets import load_dataset
from repro.graph.generators import (
    beta_probability,
    confidence_probability,
    planted_nucleus_graph,
)
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.sampling.adaptive import adaptive_global_verify
from repro.sampling.world_matrix import CandidateWorldIndex

TINY = ("krogan", "dblp", "flickr", "pokec", "biomine", "ljournal")

#: ``planted_nucleus_graph`` arguments of the full-size verify graphs of the
#: repo benchmark (``perfbench/inputs.py``).
PERFBENCH = {
    "perfbench-flickr": dict(
        community_sizes=[16, 13, 11, 9, 8, 7, 6, 6, 5, 5],
        background_vertices=180,
        background_density=0.04,
        bridges_per_community=5,
        seed=37,
    ),
    "perfbench-dense": dict(
        community_sizes=[9, 8, 7, 6],
        background_vertices=30,
        background_density=0.05,
        bridges_per_community=3,
        seed=3,
    ),
}


def _perfbench_graph(name: str) -> ProbabilisticGraph:
    """A benchmark verify graph under the benchmark's seed-1 vertex permutation."""
    base = planted_nucleus_graph(
        intra_density=0.95,
        probability_model=confidence_probability(mode=0.9, concentration=20.0),
        background_probability_model=beta_probability(alpha=1.2, beta=9.0),
        **PERFBENCH[name],
    )
    vertices = sorted(base.vertices())
    images = random.Random(1).sample(range(len(vertices)), len(vertices))
    mapping = dict(zip(vertices, images))
    graph = ProbabilisticGraph()
    for v in vertices:
        graph.add_vertex(mapping[v])
    for u, v, p in base.edges():
        graph.add_edge(mapping[u], mapping[v], p)
    return graph


def two_mixed_k4s() -> ProbabilisticGraph:
    """Disjoint K4s on the ints {2, 10, 11, 12} and on the strings a–d.

    The edges at 2 (at "a") have p = 0.99, the others 0.72, so each K4 is a
    1-nucleus with probability ≈ 0.362: just above θ = 0.35, so that 20
    sampled worlds decide, and uneven, so that the order of the edge
    columns decides which worlds are drawn.
    """
    graph = ProbabilisticGraph()
    for group in ([2, 10, 11, 12], ["a", "b", "c", "d"]):
        for u, v in itertools.combinations(group, 2):
            graph.add_edge(u, v, 0.99 if u == group[0] else 0.72)
    return graph


@functools.lru_cache(maxsize=None)
def _case(name: str) -> tuple[ProbabilisticGraph, float, object]:
    """``(graph, θ, local decomposition)``: θ = 0.1 on the tiny datasets, the
    benchmark's 0.3 on its graphs."""
    if name in TINY:
        graph, theta = load_dataset(name, scale="tiny"), 0.1
    else:
        graph, theta = _perfbench_graph(name), 0.3
    return graph, theta, local_nucleus_decomposition(graph, theta)


@functools.lru_cache(maxsize=None)
def _union(name: str, k: int) -> tuple[ProbabilisticGraph, CandidateWorldIndex]:
    _, _, local = _case(name)
    union = union_of_nuclei(local.nuclei(k))
    return union, CandidateWorldIndex.from_graph(union)


def _edge_pairs(index: CandidateWorldIndex) -> list[tuple]:
    labels = index.labels
    return [
        (labels[u], labels[v]) for u, v in zip(index.edge_u.tolist(), index.edge_v.tolist())
    ]


def _assert_same_index(restricted: CandidateWorldIndex, compiled: CandidateWorldIndex):
    assert restricted.labels == compiled.labels
    for field in ("edge_u", "edge_v", "edge_probabilities", "triangles", "triangle_edges"):
        got, want = getattr(restricted, field), getattr(compiled, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field

    def cliques(index):
        return {
            (tuple(row), tuple(edges), tuple(triangles))
            for row, edges, triangles in zip(
                index.cliques.tolist(),
                index.clique_edges.tolist(),
                index.clique_triangles.tolist(),
            )
        }

    assert cliques(restricted) == cliques(compiled)


class TestClosure:
    @pytest.mark.parametrize(
        "name,k",
        [(name, k) for name in TINY for k in (1, 2)]
        + [("perfbench-dense", 1), ("perfbench-dense", 2), ("perfbench-flickr", 1)],
    )
    def test_closure_ids_match_candidate_closure(self, name, k):
        union, index = _union(name, k)
        by_triangle, _ = triangle_clique_index(union)
        row_of = {t: row for row, t in enumerate(index.triangle_labels())}
        labels = index.labels
        clique_labels = [
            canonical_four_clique(*(labels[v] for v in row)) for row in index.cliques.tolist()
        ]
        for seed in by_triangle:
            ids = _closure_ids(index, row_of[seed], k)
            expected = candidate_closure(union, seed, k, by_triangle)
            assert {clique_labels[i] for i in ids.tolist()} == expected


class TestRestriction:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", TINY + tuple(PERFBENCH))
    def test_every_candidate_restricts_to_its_compiled_subgraph(self, name, k):
        graph = _case(name)[0]
        _, index = _union(name, k)
        masks = {}
        for row in range(index.num_triangles):
            cliques = _closure_ids(index, row, k)
            if cliques.size:
                mask = np.zeros(index.num_edges, dtype=bool)
                mask[index.clique_edges[cliques]] = True
                masks[mask.tobytes()] = mask
        pairs = _edge_pairs(index)
        for mask in masks.values():
            edges = [pair for pair, keep in zip(pairs, mask) if keep]
            compiled = CandidateWorldIndex.from_graph(graph.edge_subgraph(edges))
            _assert_same_index(index.restrict(mask), compiled)

    def test_restriction_follows_the_candidates_own_vertex_order(self):
        graph = two_mixed_k4s()
        index = CandidateWorldIndex.from_graph(graph)
        # Ints and strings do not compare: the union falls back to the
        # (type-name, str) order, which puts 2 after 12.
        assert _edge_pairs(index)[:3] == [(10, 11), (10, 12), (10, 2)]
        pairs = _edge_pairs(index)
        ints = np.array([isinstance(u, int) for u, _ in pairs])
        restricted = index.restrict(ints)
        # The int-only candidate sorts naturally, and so do its edge columns.
        assert restricted.labels == [2, 10, 11, 12]
        assert _edge_pairs(restricted)[:2] == [(2, 10), (2, 11)]
        edges = [pair for pair, keep in zip(pairs, ints) if keep]
        _assert_same_index(restricted, CandidateWorldIndex.from_graph(graph.edge_subgraph(edges)))

    def test_empty_mask_restricts_to_an_empty_index(self):
        index = CandidateWorldIndex.from_graph(two_mixed_k4s())
        empty = index.restrict(np.zeros(index.num_edges, dtype=bool))
        _assert_same_index(empty, CandidateWorldIndex.from_graph(ProbabilisticGraph()))


def _label_space_answers(graph, local, k, theta, n_samples, seed, sampling):
    """The label-space loop driven by the production verifier and seed."""
    settings = validate_sampling_options(sampling=sampling, n_samples=n_samples)
    rng = np.random.default_rng(seed)

    def verify(subgraph):
        index = CandidateWorldIndex.from_graph(subgraph)
        passes, _ = adaptive_global_verify(index, k, theta, settings, rng=rng)
        return passes, index.triangle_labels()

    return verified_nuclei(graph, local.nuclei(k), k, theta, verify)


class TestStreamParity:
    @pytest.mark.parametrize("sampling", ["fixed", "adaptive"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", TINY + ("perfbench-dense",))
    def test_id_space_loop_replays_the_label_space_loop(self, name, k, sampling):
        graph, theta, local = _case(name)
        expected = _label_space_answers(graph, local, k, theta, 50, 7, sampling)
        actual = global_nucleus_decomposition(
            graph, k, theta, n_samples=50, seed=7, sampling=sampling, local_result=local
        )
        assert actual == expected

    def test_mixed_labels_keep_their_stream(self):
        graph = two_mixed_k4s()
        local = local_nucleus_decomposition(graph, 0.35)
        answers = set()
        for seed in range(40):
            expected = _label_space_answers(graph, local, 1, 0.35, 20, seed, "fixed")
            actual = global_nucleus_decomposition(
                graph, 1, 0.35, n_samples=20, seed=seed, local_result=local
            )
            assert actual == expected
            answers.add(len(actual))
        assert len(answers) > 1  # borderline candidates: the stream decides


class TestCallCounts:
    def test_one_compile_per_decomposition(self, monkeypatch):
        graph, theta, local = _case("flickr")
        compiles = []
        from_graph = CandidateWorldIndex.from_graph.__func__

        def counting(cls, candidate):
            compiles.append(candidate)
            return from_graph(cls, candidate)

        monkeypatch.setattr(CandidateWorldIndex, "from_graph", classmethod(counting))
        nuclei = global_nucleus_decomposition(graph, 1, theta, seed=3, local_result=local)
        assert nuclei
        assert len(compiles) == 1

    def test_subgraphs_only_for_accepted_candidates(self, monkeypatch):
        graph, theta, local = _case("flickr")
        local_nuclei = local.nuclei(1)
        settings = validate_sampling_options(n_samples=100)
        rng = np.random.default_rng(3)
        verified, accepted = [], set()

        def verify(candidate):
            passes, _ = adaptive_global_verify(candidate, 1, theta, settings, rng=rng)
            verified.append(candidate)
            if passes:
                accepted.add(frozenset(_edge_pairs(candidate)))
            return passes

        subgraphs = []
        edge_subgraph = ProbabilisticGraph.edge_subgraph

        def counting(self, edges):
            subgraphs.append(edges)
            return edge_subgraph(self, edges)

        monkeypatch.setattr(ProbabilisticGraph, "edge_subgraph", counting)
        nuclei = _verified_nuclei(graph, local_nuclei, 1, theta, verify)
        assert nuclei and len(accepted) < len(verified)
        assert len(subgraphs) == len(accepted)


class TestWeakGrouping:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", TINY + ("perfbench-dense",))
    def test_groups_match_dict_components(self, name, k):
        # Random qualifying masks: a 0.6 keep rate splits several candidates
        # into more than one component.
        graph, theta, local = _case(name)
        rng = random.Random(f"{name}-{k}")
        expected = Counter()

        def qualifying(subgraph):
            index = CandidateWorldIndex.from_graph(subgraph)
            mask = np.array([rng.random() < 0.6 for _ in range(index.num_triangles)], bool)
            chosen = {t for t, keep in zip(index.triangle_labels(), mask) if keep}
            by_triangle, by_clique = triangle_clique_index(subgraph)
            allowed = {c for c, members in by_clique.items() if set(members) <= chosen}
            covered = {t for t in chosen if any(c in allowed for c in by_triangle[t])}
            for component in triangle_connected_components(covered, by_triangle, allowed):
                expected[frozenset(component)] += 1
            return index, mask

        nuclei = _weak_nuclei(graph, local.nuclei(k), k, theta, qualifying)
        assert Counter(nucleus.triangles for nucleus in nuclei) == expected
