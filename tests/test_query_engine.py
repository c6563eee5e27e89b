"""Parity tests for the serve-time query engine (repro.query).

Every query must return exactly what recomputing the decomposition and
inspecting its result objects returns — for both graph backends and all
three decomposition modes — plus LRU cache behaviour, batched-vs-scalar
agreement, and the typed error paths.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.local import local_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.exceptions import (
    InvalidParameterError,
    LevelNotIndexedError,
    NucleusNotFoundError,
    TriangleNotFoundError,
    VertexNotFoundError,
)
from repro.experiments.datasets import load_dataset
from repro.graph.generators import planted_nucleus_graph
from repro.index import NucleusIndex, build_local_index
from repro.metrics.density import probabilistic_density
from repro.query import LRUCache, NucleusQueryEngine

import oracle

THETA = 0.3
PARITY_DATASETS = ("krogan", "flickr")
#: The dict oracle and the production engine, keyed as the retired backends.
ENGINES = {
    "dict": oracle.local_nucleus_decomposition,
    "csr": local_nucleus_decomposition,
}


@functools.lru_cache(maxsize=None)
def parity_setup(name: str, backend: str):
    graph = load_dataset(name, scale="tiny")
    result = ENGINES[backend](graph, THETA)
    engine = NucleusQueryEngine(build_local_index(graph, THETA, local_result=result))
    return graph, result, engine


@functools.lru_cache(maxsize=None)
def planted_graph():
    return planted_nucleus_graph(
        num_communities=2,
        community_size=6,
        intra_density=1.0,
        background_vertices=8,
        background_density=0.1,
        bridges_per_community=2,
        probability_model=lambda rng: 0.9,
        seed=3,
    )


def nucleus_key(nucleus):
    return (nucleus.num_vertices, nucleus.num_edges, sorted(nucleus.triangles))


# --------------------------------------------------------------------------- #
# engine vs recompute, local mode
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", PARITY_DATASETS)
@pytest.mark.parametrize("backend", ENGINES)
class TestLocalParity:
    def test_vertex_max_score(self, name, backend):
        graph, result, engine = parity_setup(name, backend)
        vertices = sorted(graph.vertices())
        batch = engine.max_score(vertices)
        for vertex, from_batch in zip(vertices, batch.tolist()):
            assert engine.max_score(vertex) == result.max_score_of(vertex) == from_batch

    def test_nuclei_every_level(self, name, backend):
        graph, result, engine = parity_setup(name, backend)
        for k in range(0, result.max_score + 2):
            recomputed = {n.triangles: n for n in result.nuclei(k)}
            served = {n.triangles: n for n in engine.nuclei(k)}
            assert served.keys() == recomputed.keys()
            for triangles, nucleus in served.items():
                assert nucleus == recomputed[triangles]

    def test_nucleus_of_single_seed(self, name, backend):
        graph, result, engine = parity_setup(name, backend)
        k = max(0, result.max_score)
        members = sorted({v for n in result.nuclei(k) for v in n.subgraph.vertices()})
        assert members, "parity dataset must have a nucleus at max level"
        for seed in members[:10]:
            expected = min(
                (n for n in result.nuclei(k) if seed in n.subgraph),
                key=nucleus_key,
            )
            assert engine.nucleus_of(seed, k) == expected

    def test_nucleus_of_multi_seed(self, name, backend):
        graph, result, engine = parity_setup(name, backend)
        k = max(0, result.max_score)
        nucleus = result.nuclei(k)[0]
        seeds = sorted(nucleus.subgraph.vertices())[:3]
        candidates = [
            n for n in result.nuclei(k)
            if all(s in n.subgraph for s in seeds)
        ]
        expected = min(candidates, key=nucleus_key)
        assert engine.nucleus_of(seeds, k) == expected

    def test_contains(self, name, backend):
        graph, result, engine = parity_setup(name, backend)
        for k in range(0, result.max_score + 1):
            member_sets = [set(n.subgraph.vertices()) for n in result.nuclei(k)]
            vertices = sorted(graph.vertices())
            batch = engine.contains(vertices, k)
            for vertex, from_batch in zip(vertices, batch.tolist()):
                expected = any(vertex in s for s in member_sets)
                assert engine.contains(vertex, k) is expected
                assert from_batch is expected

    def test_smallest_nucleus(self, name, backend):
        graph, result, engine = parity_setup(name, backend)
        k = max(0, result.max_score)
        vertices = sorted(graph.vertices())
        components = engine.smallest_nucleus(vertices, k)
        for vertex, component in zip(vertices, components.tolist()):
            assert engine.smallest_nucleus(vertex, k) == component  # scalar ≡ batch
            if component < 0:
                with pytest.raises(NucleusNotFoundError):
                    engine.nucleus_of(vertex, k)
            else:
                assert engine.index.component_nucleus(component) == engine.nucleus_of(vertex, k)

    def test_rank_values(self, name, backend):
        graph, result, engine = parity_setup(name, backend)
        for k in range(0, result.max_score + 1):
            nuclei = engine.nuclei(k)
            components, densities = engine.rank_table(k=k, by="density")
            assert np.all(np.diff(densities) <= 0)
            by_component = dict(zip(components.tolist(), densities.tolist()))
            _, scores = engine.rank_table(k=k, by="score")
            for component, nucleus in zip(
                engine.index.components_at_level(k).tolist(), nuclei
            ):
                assert math.isclose(
                    by_component[component],
                    probabilistic_density(nucleus.subgraph),
                    rel_tol=1e-12,
                )
                reliability = math.prod(p for _, _, p in nucleus.subgraph.edges())
                _, reliabilities = engine.rank_table(k=k, by="reliability")
                assert any(
                    math.isclose(r, reliability, rel_tol=1e-9)
                    for r in reliabilities.tolist()
                )
            top = engine.top_nuclei(n=3, k=k, by="score")
            assert [n.triangles for n in top] == [
                engine.index.component_nucleus(int(c)).triangles
                for c in engine.rank_table(k=k, by="score")[0][:3]
            ]
            assert scores.size == len(nuclei)


# --------------------------------------------------------------------------- #
# engine vs recompute, global / weakly-global modes
# --------------------------------------------------------------------------- #
class TestMonteCarloParity:
    @pytest.mark.parametrize(
        "decompose, mode",
        [
            (global_nucleus_decomposition, "global"),
            (weak_nucleus_decomposition, "weakly-global"),
        ],
    )
    def test_nuclei_match_decomposition(self, decompose, mode):
        graph = planted_graph()
        nuclei = decompose(graph, k=1, theta=THETA, seed=7, n_samples=40)
        index = NucleusIndex.from_nuclei(graph, nuclei, k=1, theta=THETA, mode=mode)
        engine = NucleusQueryEngine(index, graph=graph)
        recomputed = {n.triangles: n for n in nuclei}
        served = {n.triangles: n for n in engine.nuclei(1)}
        assert served.keys() == recomputed.keys()
        for triangles, nucleus in served.items():
            assert nucleus == recomputed[triangles]
        # Vertex scores: k for members, -1 for everyone else.
        member_vertices = {v for n in nuclei for v in n.subgraph.vertices()}
        for vertex in graph.vertices():
            expected = 1 if vertex in member_vertices else -1
            assert engine.max_score(vertex) == expected

    def test_empty_decomposition_serves_empty_answers(self):
        graph = planted_graph()
        engine = NucleusQueryEngine(
            NucleusIndex.from_nuclei(graph, [], k=9, theta=THETA, mode="global")
        )
        assert engine.nuclei(9) == []
        assert engine.contains(0, 9) is False
        assert engine.max_score(0) == -1
        with pytest.raises(NucleusNotFoundError):
            engine.nucleus_of(0, 9)

    def test_unindexed_level_raises(self):
        graph = planted_graph()
        nuclei = weak_nucleus_decomposition(graph, k=1, theta=THETA, seed=7, n_samples=40)
        engine = NucleusQueryEngine(
            NucleusIndex.from_nuclei(graph, nuclei, k=1, theta=THETA, mode="weakly-global")
        )
        with pytest.raises(LevelNotIndexedError):
            engine.nuclei(2)
        with pytest.raises(LevelNotIndexedError):
            engine.nucleus_of(0, 0)


# --------------------------------------------------------------------------- #
# error paths
# --------------------------------------------------------------------------- #
class TestErrors:
    def engine(self) -> NucleusQueryEngine:
        return NucleusQueryEngine(build_local_index(planted_graph(), THETA))

    def test_unknown_vertex(self):
        engine = self.engine()
        with pytest.raises(VertexNotFoundError):
            engine.max_score("missing")
        with pytest.raises(VertexNotFoundError):
            engine.max_score([0, "missing"])
        with pytest.raises(VertexNotFoundError):
            engine.nucleus_of(["missing"], 0)
        with pytest.raises(VertexNotFoundError):
            engine.contains("missing", 0)

    def test_invalid_k(self):
        engine = self.engine()
        with pytest.raises(InvalidParameterError):
            engine.nuclei(-1)
        with pytest.raises(InvalidParameterError):
            engine.nucleus_of(0, -2)

    def test_no_containing_nucleus(self):
        engine = self.engine()
        # Level beyond max_score: indexed (local mode) but empty.
        beyond = max(engine.index.levels, default=0) + 1
        assert engine.nuclei(beyond) == []
        with pytest.raises(NucleusNotFoundError):
            engine.nucleus_of(0, beyond)

    def test_empty_seed_list(self):
        with pytest.raises(InvalidParameterError):
            self.engine().nucleus_of([], 0)

    def test_bad_rank_key(self):
        with pytest.raises(InvalidParameterError):
            self.engine().top_nuclei(by="popularity")


# --------------------------------------------------------------------------- #
# unified scalar-or-array surface + deprecated *_batch aliases
# --------------------------------------------------------------------------- #
class TestUnifiedSurface:
    def engine(self) -> NucleusQueryEngine:
        return NucleusQueryEngine(build_local_index(planted_graph(), THETA))

    def test_scalar_and_array_shapes_match(self):
        engine = self.engine()
        k = max(engine.index.levels)
        vertices = sorted(planted_graph().vertices())[:5]
        scores = engine.max_score(vertices)
        membership = engine.contains(vertices, k)
        components = engine.smallest_nucleus(vertices, k)
        assert isinstance(scores, np.ndarray) and scores.shape == (5,)
        assert membership.dtype == bool and components.dtype == np.int64
        for vertex, score, member, component in zip(
            vertices, scores.tolist(), membership.tolist(), components.tolist()
        ):
            assert engine.max_score(vertex) == score
            assert isinstance(engine.max_score(vertex), int)
            assert engine.contains(vertex, k) is member
            assert engine.smallest_nucleus(vertex, k) == component

    @pytest.mark.parametrize(
        "alias, unified, extra",
        [
            ("max_score_batch", "max_score", ()),
            ("contains_batch", "contains", (0,)),
            ("smallest_nucleus_batch", "smallest_nucleus", (0,)),
        ],
    )
    def test_deprecated_batch_aliases(self, alias, unified, extra):
        engine = self.engine()
        vertices = sorted(planted_graph().vertices())[:4]
        with pytest.deprecated_call(match=f"{alias}.. is deprecated"):
            from_alias = getattr(engine, alias)(vertices, *extra)
        from_unified = getattr(engine, unified)(vertices, *extra)
        assert isinstance(from_alias, np.ndarray)
        assert np.array_equal(from_alias, from_unified)


# --------------------------------------------------------------------------- #
# LRU cache
# --------------------------------------------------------------------------- #
class TestCache:
    def test_hot_queries_hit(self):
        engine = NucleusQueryEngine(build_local_index(planted_graph(), THETA))
        k = max(engine.index.levels)
        first = engine.nucleus_of(0, k)
        assert engine.cache_info()["hits"] == 0
        assert engine.nucleus_of(0, k) is first
        assert engine.cache_info()["hits"] == 1
        assert engine.top_nuclei(2) is not engine.top_nuclei(2)  # copies …
        assert engine.top_nuclei(2) == engine.top_nuclei(2)  # … of one cached list
        assert engine.cache_info()["hits"] >= 4

    def test_keys_carry_fingerprint(self):
        engine = NucleusQueryEngine(build_local_index(planted_graph(), THETA))
        engine.max_score(0)
        assert all(key[0] == engine.index.fingerprint for key in engine.cache._entries)

    def test_eviction_and_clear(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b" (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert len(cache) == 2 and cache.stats()["evictions"] == 1
        cache.clear()
        assert len(cache) == 0 and cache.stats() == {
            "size": 0, "maxsize": 2, "hits": 0, "misses": 0, "evictions": 0,
            "hit_rate": 0.0,
        }

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            LRUCache(maxsize=0)


# --------------------------------------------------------------------------- #
# result-container API (satellite: dunders + typed errors)
# --------------------------------------------------------------------------- #
class TestResultContainers:
    def result(self):
        return local_nucleus_decomposition(planted_graph(), THETA)

    def test_nucleus_dunders(self):
        nucleus = self.result().max_nucleus()[0]
        assert len(nucleus) == nucleus.num_vertices
        assert set(iter(nucleus)) == set(nucleus.vertices())
        some_vertex = next(iter(nucleus))
        assert some_vertex in nucleus
        assert "missing" not in nucleus
        assert [] not in nucleus  # unhashable probes are simply absent

    def test_score_of(self):
        result = self.result()
        triangle, score = next(iter(result.scores.items()))
        u, v, w = triangle
        assert result.score_of(w, u, v) == score  # any vertex order
        with pytest.raises(TriangleNotFoundError):
            result.score_of(-1, -2, -3)

    def test_max_score_of_unknown_vertex(self):
        with pytest.raises(VertexNotFoundError):
            self.result().max_score_of("missing")

    def test_reprs_are_consistent(self):
        result = self.result()
        assert repr(result).startswith("LocalNucleusDecomposition(")
        assert repr(result.max_nucleus()[0]).startswith("ProbabilisticNucleus(")
