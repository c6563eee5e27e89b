"""Tests for the stable top-level facade (repro.__init__).

The public API contract: ``repro.decompose`` / ``repro.build_index`` /
``repro.load_index`` / ``repro.query`` / ``repro.serve``, an explicit
``__all__`` where every name resolves, and ``__api_version__`` naming the
contract.  ``repro.query`` and ``repro.serve`` are callable modules — both
the module-ness (submodule imports) and the callable-ness are pinned here.
"""

from __future__ import annotations

import asyncio
import itertools
import re

import numpy as np
import pytest

import repro
import repro.query
import repro.serve
from repro.core.approximations import PoissonEstimator
from repro.deterministic.cliques import canonical_triangle
from repro.deterministic.ktruss import truss_decomposition
from repro.exceptions import InvalidParameterError
from repro.graph.generators import clique_graph
from repro.graph.probabilistic_graph import canonical_edge, sorted_labels
from repro.index.builders import local_result_from_index
from repro.query import NucleusQueryEngine
from repro.serve import QueryService

from oracle.deterministic import nucleus_decomposition as heap_nucleus_decomposition

THETA = 0.4


@pytest.fixture(scope="module")
def graph():
    return clique_graph(6, probability=0.9)


@pytest.fixture(scope="module")
def index(graph):
    return repro.build_index(graph, mode="local", theta=THETA)


class TestSurface:
    def test_api_version_is_declared(self):
        assert repro.__api_version__ == "1"
        assert "__api_version__" in repro.__all__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing name {name}"

    def test_facade_entry_points_exported(self):
        for name in ("decompose", "build_index", "load_index", "query", "serve"):
            assert name in repro.__all__

    def test_star_import_is_clean(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert "decompose" in namespace and "ProbabilisticGraph" in namespace


class TestDecompose:
    def test_local_is_the_default(self, graph):
        result = repro.decompose(graph, theta=THETA)
        assert result.max_score == repro.local_nucleus_decomposition(
            graph, THETA
        ).max_score

    def test_global_and_weak_require_k(self, graph):
        for mode in ("global", "weak", "weakly-global"):
            with pytest.raises(InvalidParameterError, match="requires an explicit k"):
                repro.decompose(graph, mode=mode, theta=THETA)
        # k must be an int: a float is not rounded, a bool is not 0/1.
        local = repro.decompose(graph, theta=THETA)
        for bad in (1.5, True, np.bool_(True)):
            message = re.escape(f"k must be a non-negative integer, got {bad!r}")
            for mode in ("global", "weak"):
                with pytest.raises(InvalidParameterError, match=message):
                    repro.decompose(graph, mode=mode, theta=THETA, k=bad, seed=1)
                with pytest.raises(InvalidParameterError, match=message):
                    repro.build_index(
                        graph, mode=mode, theta=THETA, k=bad, n_samples=60, seed=1
                    )
            with pytest.raises(InvalidParameterError, match=message):
                local.nuclei(bad)

    def test_theta_must_be_a_real_number_in_the_unit_interval(self, graph):
        for bad in ("0.3", None, True, 1.5):
            message = re.escape(f"theta must be a real number in [0, 1], got {bad!r}")
            for mode in ("local", "global", "weak"):
                k = None if mode == "local" else 1
                sampling = {} if mode == "local" else {"n_samples": 10, "seed": 1}
                with pytest.raises(InvalidParameterError, match=message):
                    repro.decompose(graph, mode=mode, theta=bad, k=k, **sampling)
                with pytest.raises(InvalidParameterError, match=message):
                    repro.build_index(graph, mode=mode, theta=bad, k=k, **sampling)

    def test_seed_must_be_a_non_negative_integer(self, graph):
        # Validated where every driver resolves its RNG, so the message
        # names the knob instead of numpy's SeedSequence internals.
        for bad in (-3, "x", True):
            message = re.escape(f"seed must be a non-negative integer, got {bad!r}")
            for mode in ("global", "weak"):
                with pytest.raises(InvalidParameterError, match=message):
                    repro.decompose(graph, mode=mode, theta=THETA, k=1, seed=bad)
                with pytest.raises(InvalidParameterError, match=message):
                    repro.build_index(
                        graph, mode=mode, theta=THETA, k=1, n_samples=10, seed=bad
                    )

    @pytest.mark.parametrize(
        "knob, bad",
        [
            ("estimator", "dp"),
            ("estimator", 5),
            ("estimator", PoissonEstimator),  # the class, not an instance
            ("local_result", 5),
            ("epsilon", True),
            ("epsilon", np.bool_(True)),
            ("epsilon", "0.1"),
            ("n_samples", np.bool_(True)),
            ("delta", True),
            ("delta", "0.1"),
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else None,
    )
    def test_bad_knobs_are_named_before_the_engine_runs(self, graph, knob, bad):
        # Without n_samples, epsilon and delta size the Hoeffding budget.
        modes = ("local", "global", "weak") if knob == "estimator" else ("global", "weak")
        for mode in modes:
            k = None if mode == "local" else 1
            for entry_point in (repro.decompose, repro.build_index):
                with pytest.raises(InvalidParameterError, match=f"^{knob} must be"):
                    entry_point(graph, mode=mode, theta=THETA, k=k, **{knob: bad})

    @pytest.mark.parametrize("knob, bad", [("epsilon", "x"), ("delta", 2), ("epsilon", 0)])
    @pytest.mark.parametrize("mode", ["global", "weak"])
    def test_epsilon_and_delta_are_checked_beside_n_samples(self, graph, mode, knob, bad):
        # n_samples replaces the Hoeffding budget, not the check of ε and δ.
        for entry_point in (repro.decompose, repro.build_index):
            with pytest.raises(InvalidParameterError, match=f"^{knob} must be"):
                entry_point(graph, mode=mode, theta=THETA, k=1, n_samples=5, **{knob: bad})

    @pytest.mark.parametrize("mode", ["global", "weak"])
    @pytest.mark.parametrize(
        "knob, value",
        [
            ("k", np.int64(1)),
            ("seed", np.int64(3)),
            ("n_samples", np.int64(50)),
            ("epsilon", np.float32(0.2)),
            ("delta", np.float32(0.2)),
        ],
        ids=str,
    )
    def test_numpy_scalar_knobs_run_as_their_python_numbers(
        self, graph, tmp_path, mode, knob, value
    ):
        # At θ = 0.3 every case finds nuclei, and the global ones move with
        # each knob's value.
        def run(entry_point, number):
            settings = {"k": 1, "seed": 5, knob: number}
            return entry_point(graph, mode=mode, theta=0.3, **settings)

        nuclei, expected = run(repro.decompose, value), run(repro.decompose, value.item())
        assert nuclei
        assert [sorted(n.triangles) for n in nuclei] == [sorted(n.triangles) for n in expected]
        assert all(type(n.k) is int for n in nuclei)
        saved = [
            run(repro.build_index, number).save(tmp_path / f"{i}.npz").read_bytes()
            for i, number in enumerate((value, value.item()))
        ]
        assert saved[0] == saved[1]

    def test_numpy_levels_extract_and_query_as_python_ints(self, graph, index):
        local = repro.decompose(graph, theta=THETA)
        nuclei = local.nuclei(np.int64(0))
        assert [n.triangles for n in nuclei] == [n.triangles for n in local.nuclei(0)]
        assert all(type(n.k) is int for n in nuclei)
        engine, vertices = NucleusQueryEngine(index), sorted(graph.vertices())
        assert list(engine.contains(vertices, k=np.int64(1))) == list(
            engine.contains(vertices, k=1)
        )

    def test_global_dispatch(self, graph):
        nuclei = repro.decompose(graph, mode="global", theta=THETA, k=1, seed=11)
        assert all(n.mode == "global" for n in nuclei)

    def test_weak_dispatch(self, graph):
        nuclei = repro.decompose(graph, mode="weak", theta=THETA, k=1, seed=11)
        assert all(n.mode == "weakly-global" for n in nuclei)

    def test_unknown_mode_is_typed_error(self, graph):
        with pytest.raises(InvalidParameterError, match="mode must be"):
            repro.decompose(graph, mode="banana")

    def test_kwargs_forward(self, graph):
        result = repro.decompose(graph, theta=THETA, backend="csr")
        assert result.max_score == repro.decompose(graph, theta=THETA).max_score


class TestCallableQuery:
    def test_query_module_still_imports(self):
        # Callable-module magic must not break normal package semantics.
        assert repro.query.NucleusQueryEngine is NucleusQueryEngine

    def test_query_against_index(self, index):
        engine = NucleusQueryEngine(index)
        vertices = index.vertex_labels[:3]
        assert repro.query(index, "max_score", vertices=vertices) == [
            engine.max_score(v) for v in vertices
        ]

    def test_query_against_engine_service_and_path(self, index, tmp_path):
        engine = NucleusQueryEngine(index)
        service = QueryService(index)
        path = tmp_path / "facade.idx.npz"
        index.save(path, compress=False)
        expected = [engine.max_score(index.vertex_labels[0])]
        for target in (engine, service, str(path), path):
            assert repro.query(target, "max_score", vertices=index.vertex_labels[:1]) == expected

    def test_query_rejects_bad_target(self):
        with pytest.raises(InvalidParameterError, match="query target"):
            repro.query(42, "ping")


class TestCallableServe:
    def test_serve_module_still_imports(self):
        assert repro.serve.QueryService is QueryService

    def test_serve_returns_query_service(self, index):
        service = repro.serve(index, batching=repro.serve.BatchingConfig(max_batch=1))
        assert isinstance(service, QueryService)

        async def drive():
            return await service.call("ping")

        assert asyncio.run(drive()) == "pong"

    def test_serve_from_path_mmaps_by_default(self, index, tmp_path):
        path = tmp_path / "served.idx.npz"
        index.save(path, compress=False)
        service = repro.serve(path)
        assert service.index.mmapped


class TestLoadIndex:
    def test_load_index_mmap_kwarg(self, index, tmp_path):
        path = tmp_path / "loaded.idx.npz"
        index.save(path, compress=False)
        assert repro.load_index(path, mmap=True).mmapped
        assert not repro.load_index(path).mmapped


#: K5 over a mix of int and str labels: the labels do not sort against each
#: other, which the retired dict heap could not handle.
MIXED_LABELS = (0, 1, "a", 3, "b")


@pytest.fixture(scope="module")
def mixed_graph():
    graph = repro.ProbabilisticGraph()
    for u, v in itertools.combinations(MIXED_LABELS, 2):
        graph.add_edge(u, v, 0.95)
    return graph


@pytest.mark.parametrize("mode", ["local", "global", "weak"])
def test_mixed_int_str_labels_through_every_verb(mixed_graph, mode):
    k = None if mode == "local" else 1
    sampling = {} if mode == "local" else {"n_samples": 50, "seed": 5}
    result = repro.decompose(mixed_graph, mode=mode, theta=THETA, k=k, **sampling)
    nuclei = result.nuclei(1) if mode == "local" else result
    assert set().union(*(n.subgraph.vertices() for n in nuclei)) == set(MIXED_LABELS)

    engine = NucleusQueryEngine(
        repro.build_index(mixed_graph, mode=mode, theta=THETA, k=k, **sampling)
    )
    # Every triangle of the certain-ish K5 reaches level 2 locally (each lies
    # in two 4-cliques); global/weak indexes hold the single level k = 1.
    top = 2 if mode == "local" else 1
    assert engine.max_score(list(MIXED_LABELS)).tolist() == [top] * len(MIXED_LABELS)
    assert engine.contains(list(MIXED_LABELS), 1).all()
    assert {0, "a"} <= set(engine.nucleus_of([0, "a"], 1).vertices())
    assert engine.top_nuclei(n=1, k=1)


#: The heap-based dict peels, each with the canonical form of its items
#: (vertices, edges or triangles) for mapping a relabelled result back.  The
#: deterministic nucleus peel is the test oracle's: the library's runs on
#: the engine.
DICT_PEELS = {
    "eta-core": (lambda g: repro.probabilistic_core_decomposition(g, 0.3), None),
    "gamma-truss": (lambda g: repro.probabilistic_truss_decomposition(g, 0.3), canonical_edge),
    "truss": (truss_decomposition, canonical_edge),
    "nucleus": (heap_nucleus_decomposition, canonical_triangle),
}


@pytest.mark.parametrize("peel", DICT_PEELS)
def test_dict_peels_break_ties_on_mixed_labels(peel):
    # Equal scores tie on every item of a K5; the heap ranks items by their
    # vertices' positions in label order instead of comparing 0 with "a".
    run, canonical = DICT_PEELS[peel]
    labels = sorted_labels([0, 1, 2, "a", "b"])
    pairs = list(itertools.combinations(range(len(labels)), 2))
    relabelled = repro.ProbabilisticGraph([(u, v, 0.9) for u, v in pairs])
    graph = repro.ProbabilisticGraph([(labels[u], labels[v], 0.9) for u, v in pairs])

    def original(item):
        return labels[item] if canonical is None else canonical(*(labels[i] for i in item))

    assert run(graph) == {original(item): value for item, value in run(relabelled).items()}


#: K5 whose int labels sort differently as ints (9 < 10) and under the
#: (type name, str) key of a mixed label set ("10" < "9").
STR_ORDERED_INTS = (9, 10, 11, 12, "a")


@pytest.fixture(scope="module")
def str_ordered_graph():
    graph = repro.ProbabilisticGraph()
    for u, v in itertools.combinations(STR_ORDERED_INTS, 2):
        graph.add_edge(u, v, 0.95)
    return graph


@pytest.mark.parametrize("mode", ["local", "global", "weak"])
def test_engine_names_triangles_like_decompose(str_ordered_graph, mode):
    k = None if mode == "local" else 1
    sampling = {} if mode == "local" else {"n_samples": 50, "seed": 5}
    result = repro.decompose(str_ordered_graph, mode=mode, theta=THETA, k=k, **sampling)
    engine = NucleusQueryEngine(
        repro.build_index(str_ordered_graph, mode=mode, theta=THETA, k=k, **sampling)
    )
    levels = range(result.max_score + 1) if mode == "local" else [1]
    for level in levels:
        expected = result.nuclei(level) if mode == "local" else result
        served = engine.nuclei(level)
        assert expected
        subgraphs = {n.triangles: n.subgraph for n in expected}
        assert {n.triangles: n.subgraph for n in served} == subgraphs
        for nucleus in served:
            assert all(t == canonical_triangle(*t) for t in nucleus.triangles)
    if mode == "local":
        rehydrated = local_result_from_index(engine.index)
        assert list(rehydrated.scores.items()) == list(result.scores.items())
