"""Tests for the persistent nucleus index (repro.index).

Covers the save()/load() round trip over every bundled dataset analogue, the
graph fingerprint, corrupted/mismatched file handling, and the index built
from each of the three decomposition modes.
"""

from __future__ import annotations

import functools
import io
import json
import os
import subprocess
import sys
import textwrap
import zipfile
from pathlib import Path

import numpy as np
import pytest
from graph_factories import perfbench_graph

from repro.core.local import local_nucleus_decomposition
from repro.core.result import LocalNucleusDecomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.deterministic.cliques import triangle_clique_index
from repro.deterministic.nucleus import k_nucleus_triangle_groups
from repro.exceptions import (
    IndexCompatibilityError,
    IndexFormatError,
    InvalidParameterError,
)
from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.experiments.pipeline import DecompositionCache
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.generators import clique_graph, planted_nucleus_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index import (
    EdgeUpdate,
    NucleusIndex,
    apply_updates,
    build_global_index,
    build_index,
    build_local_index,
    build_weak_index,
    graph_fingerprint,
    load_index,
)
from repro.core.global_nucleus import global_nucleus_decomposition
from repro.query import NucleusQueryEngine

import oracle

THETA = 0.3


@functools.lru_cache(maxsize=None)
def local_index_for(name: str) -> tuple[ProbabilisticGraph, NucleusIndex]:
    graph = load_dataset(name, scale="tiny")
    result = local_nucleus_decomposition(graph, THETA)
    return graph, result.build_index()


@pytest.fixture
def planted() -> ProbabilisticGraph:
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


# --------------------------------------------------------------------------- #
# fingerprint
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_insertion_order_invariant(self):
        a = ProbabilisticGraph([(1, 2, 0.5), (2, 3, 0.25), (1, 3, 0.125)])
        b = ProbabilisticGraph([(1, 3, 0.125), (2, 3, 0.25), (1, 2, 0.5)])
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_substrate_invariant(self):
        graph = clique_graph(5, probability=0.7)
        assert graph_fingerprint(graph) == graph_fingerprint(graph.to_csr())

    def test_sensitive_to_probability_change(self):
        a = ProbabilisticGraph([(1, 2, 0.5), (2, 3, 0.25)])
        b = ProbabilisticGraph([(1, 2, 0.5), (2, 3, 0.250001)])
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_sensitive_to_structure_change(self):
        a = clique_graph(5, probability=0.7)
        b = clique_graph(5, probability=0.7)
        b.add_vertex(99)
        assert graph_fingerprint(a) != graph_fingerprint(b)


# --------------------------------------------------------------------------- #
# round trip over every bundled generator
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_save_load_bit_identical(self, name, tmp_path):
        graph, index = local_index_for(name)
        path = index.save(tmp_path / f"{name}.npz")
        loaded = load_index(path, graph=graph)
        assert loaded == index
        # A second generation of the cycle is also identical.
        again = load_index(loaded.save(tmp_path / f"{name}2.npz"))
        assert again == index
        for key, array in index.arrays.items():
            assert np.array_equal(loaded.arrays[key], array), key
            assert loaded.arrays[key].dtype == array.dtype, key
        assert loaded.header == index.header

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_snapshot_matches_decomposition(self, name):
        graph, index = local_index_for(name)
        result = local_nucleus_decomposition(graph, THETA)
        assert index.mode == "local"
        assert index.theta == THETA
        assert index.fingerprint == graph_fingerprint(graph)
        assert index.num_triangles == result.num_triangles
        assert index.num_vertices == graph.num_vertices
        assert index.num_edges == graph.num_edges
        assert list(index.levels) == list(range(0, result.max_score + 1))
        assert index.to_probabilistic_graph() == graph
        # Scores survive the id translation exactly.
        labels = index.vertex_labels
        snapshot = {
            tuple(labels[i] for i in row): score
            for row, score in zip(
                index.arrays["triangles"].tolist(),
                index.arrays["triangle_scores"].tolist(),
            )
        }
        assert snapshot == result.scores

    def test_triangle_rows_sorted_and_ranked(self, planted):
        index = build_local_index(planted, THETA)
        rows = [tuple(r) for r in index.arrays["triangles"].tolist()]
        assert rows == sorted(rows)
        scores = index.arrays["triangle_scores"]
        ranked = scores[index.arrays["triangle_order"]]
        assert np.all(np.diff(ranked) <= 0)

    def test_empty_graph_round_trips(self, tmp_path):
        index = build_index(ProbabilisticGraph(), mode="local", theta=0.5)
        assert index.num_triangles == 0 and index.levels == ()
        loaded = load_index(index.save(tmp_path / "empty.npz"))
        assert loaded == index

    def test_save_normalises_suffixless_path(self, planted, tmp_path):
        index = build_local_index(planted, THETA)
        # numpy appends .npz on its own; save() must return the real file.
        written = index.save(tmp_path / "graph.idx")
        assert written == tmp_path / "graph.idx.npz"
        assert written.exists()
        assert load_index(written) == index


# --------------------------------------------------------------------------- #
# the three builder entry points
# --------------------------------------------------------------------------- #
class TestBuilders:
    def test_build_index_dispatches_local(self, planted):
        index = build_index(planted, mode="local", theta=THETA)
        assert index.mode == "local"

    def test_global_index(self, planted, tmp_path):
        index = build_global_index(planted, k=1, theta=THETA, seed=7, n_samples=40)
        assert index.mode == "global"
        assert index.levels == (1,)
        loaded = load_index(index.save(tmp_path / "g.npz"), graph=planted)
        assert loaded == index

    def test_empty_decomposition_still_indexes_its_level(self, planted):
        # A k with no nuclei must be answerable (empty), not "not indexed".
        index = NucleusIndex.from_nuclei(
            planted, [], k=9, theta=THETA, mode="global"
        )
        assert index.levels == (9,)
        assert index.num_components == 0
        assert index.num_triangles == 0

    def test_weak_index_matches_decomposition(self, planted, tmp_path):
        nuclei = weak_nucleus_decomposition(planted, k=1, theta=THETA, seed=7, n_samples=40)
        index = build_weak_index(planted, k=1, theta=THETA, seed=7, n_samples=40)
        assert index.mode == "weakly-global"
        assert index.num_components == len(nuclei)
        loaded = load_index(index.save(tmp_path / "w.npz"), graph=planted)
        assert loaded == index

    def test_modes_require_k(self, planted):
        with pytest.raises(InvalidParameterError):
            build_index(planted, mode="global", theta=THETA)
        with pytest.raises(InvalidParameterError):
            build_index(planted, mode="nonsense", theta=THETA)

    def test_from_nuclei_rejects_bad_arguments(self, planted):
        with pytest.raises(InvalidParameterError):
            NucleusIndex.from_nuclei(planted, [], k=1, theta=THETA, mode="local")
        with pytest.raises(InvalidParameterError):
            NucleusIndex.from_nuclei(planted, [], k=-1, theta=THETA, mode="global")

    def test_unserialisable_labels_rejected(self):
        graph = ProbabilisticGraph([((1, 2), (3, 4), 0.5)])
        with pytest.raises(IndexFormatError):
            build_local_index(graph, THETA)


# --------------------------------------------------------------------------- #
# the direct array-snapshot path (no label-space result detour)
# --------------------------------------------------------------------------- #
class TestLegacyBackendHeaders:
    """Archives written while the dict engine existed record ``backend``."""

    @staticmethod
    def _changed(graph: ProbabilisticGraph, u, v, probability: float) -> ProbabilisticGraph:
        changed = ProbabilisticGraph()
        for vertex in graph.vertices():
            changed.add_vertex(vertex)
        for a, b, p in graph.edges():
            changed.add_edge(a, b, probability if {a, b} == {u, v} else p)
        return changed

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_local_archive_loads_answers_and_updates(self, planted, tmp_path, backend):
        legacy = NucleusIndex.from_local_result(
            local_nucleus_decomposition(planted, THETA), params={"backend": backend}
        )
        loaded = load_index(legacy.save(tmp_path / "legacy.npz"))
        assert loaded.params["backend"] == backend
        vertices = sorted(planted.vertices())
        fresh = build_local_index(planted, THETA)
        assert np.array_equal(
            NucleusQueryEngine(loaded).max_score(vertices),
            NucleusQueryEngine(fresh).max_score(vertices),
        )
        u, v, _ = next(iter(planted.edges()))
        updated = apply_updates(loaded, [EdgeUpdate("change", u, v, 0.5)])
        rebuilt = build_local_index(self._changed(planted, u, v, 0.5), THETA)
        assert updated.revision == 1
        for name in rebuilt.arrays:
            assert np.array_equal(updated.arrays[name], rebuilt.arrays[name]), name

    def test_global_dict_archive_rebuilds_on_the_engine(self, planted, tmp_path):
        params = {"k": 1, "backend": "dict", "n_samples": 20, "seed": 3}
        nuclei = global_nucleus_decomposition(planted, 1, THETA, n_samples=20, seed=3)
        legacy = NucleusIndex.from_nuclei(
            planted, nuclei, k=1, theta=THETA, mode="global", params=params
        )
        loaded = load_index(legacy.save(tmp_path / "legacy.npz"))
        assert NucleusQueryEngine(loaded).top_nuclei(n=1, k=1)
        u, v, _ = next(iter(planted.edges()))
        updated = apply_updates(loaded, [EdgeUpdate("change", u, v, 0.5)])
        rebuilt = build_global_index(
            self._changed(planted, u, v, 0.5), 1, THETA, n_samples=20, seed=3
        )
        assert "backend" not in updated.params
        for name in rebuilt.arrays:
            assert np.array_equal(updated.arrays[name], rebuilt.arrays[name]), name


class TestDirectArraySnapshot:
    @pytest.mark.parametrize("name", DATASET_NAMES[:3])
    def test_csr_build_equals_dict_result_detour(self, name):
        graph = load_dataset(name, scale="tiny")
        result = local_nucleus_decomposition(graph, THETA)
        direct = build_local_index(graph, THETA)
        assert direct == NucleusIndex.from_local_result(result)
        assert direct == oracle.dict_snapshot(result)

    def test_csr_input_snapshots_in_canonical_label_order(self, planted):
        csr = planted.to_csr()
        # The same arrays under descending labels: ids out of label order.
        relabelled = CSRProbabilisticGraph(
            csr.indptr, csr.indices, csr.probabilities, [-i for i in range(csr.num_vertices)]
        )
        result = local_nucleus_decomposition(relabelled, THETA)
        expected = build_local_index(relabelled.to_probabilistic(), THETA)
        assert NucleusIndex.from_local_result(result) == expected

    def test_csr_and_dict_backends_agree_on_arrays(self, planted):
        direct = build_local_index(planted, THETA)
        result = oracle.local_nucleus_decomposition(planted, THETA)
        # Every array (graph, scores, components, postings) of the engine's
        # direct snapshot must equal the dict oracle's snapshot, and the
        # array snapshot of the oracle's result must too.
        for via_dict in (oracle.dict_snapshot(result), NucleusIndex.from_local_result(result)):
            for name in direct.arrays:
                assert np.array_equal(direct.arrays[name], via_dict.arrays[name]), name
            assert direct.fingerprint == via_dict.fingerprint
            assert direct.params["estimator"] == via_dict.params["estimator"]

    def test_from_local_result_needs_scores_for_exactly_its_triangles(self, planted):
        result = local_nucleus_decomposition(planted, THETA)
        dropped = next(iter(result.scores))
        missing = dict(result.scores)
        del missing[dropped]
        extra = dict(result.scores)
        extra[("x", "y", "z")] = 0
        for scores, message in ((missing, "miss triangle"), (extra, "does not have")):
            broken = LocalNucleusDecomposition(
                planted, THETA, scores, estimator_name=result.estimator_name
            )
            with pytest.raises(InvalidParameterError, match=message):
                NucleusIndex.from_local_result(broken)

    def test_snapshots_of_a_result_skip_the_dict_grouping(
        self, planted, tmp_path, monkeypatch
    ):
        calls: list[str] = []
        for function in (triangle_clique_index, k_nucleus_triangle_groups):
            def spy(*args, _function=function, **kwargs):
                calls.append(_function.__name__)
                return _function(*args, **kwargs)

            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    getattr(module, function.__name__, None) is function
                ):
                    monkeypatch.setattr(module, function.__name__, spy)

        result = local_nucleus_decomposition(planted, THETA)
        snapshots = [
            result.build_index(),
            build_local_index(planted, THETA, local_result=result),
        ]
        cache = DecompositionCache(tmp_path)
        cache.local(planted, THETA)
        assert [path.name for path in tmp_path.glob("*.npz")]
        assert calls == []
        assert all(snapshot == build_local_index(planted, THETA) for snapshot in snapshots)
        assert result.nuclei(1) and result.nuclei(result.max_score)
        assert calls == []
        # The spy is live: the candidate accessor of the global and weak
        # decompositions still groups in dict space.
        result._dict_nuclei(1)
        assert set(calls) == {"triangle_clique_index", "k_nucleus_triangle_groups"}

    def test_csr_graph_input_uses_direct_path(self, planted, tmp_path):
        index = build_local_index(planted.to_csr(), THETA)
        assert index.mode == "local"
        loaded = load_index(index.save(tmp_path / "direct.npz"), graph=planted)
        assert loaded == index

    def test_direct_path_validates_theta_and_backend(self, planted):
        # The no-detour path must reject the same bad parameters the
        # decomposition entry point rejects.
        with pytest.raises(InvalidParameterError):
            build_local_index(planted, 1.5)
        with pytest.raises(InvalidParameterError):
            build_local_index(planted.to_csr(), -0.1)
        with pytest.raises(InvalidParameterError):
            build_local_index(planted, THETA, backend="bogus")

    def test_from_triangle_arrays_validates_input(self, planted):
        csr = planted.to_csr()
        rows = np.array([[0, 1, 2], [0, 1, 3]], dtype=np.int64)
        scores = np.zeros(2, dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            NucleusIndex.from_triangle_arrays(
                csr, rows, np.zeros(3, dtype=np.int64), {}, mode="local", theta=0.3
            )
        with pytest.raises(InvalidParameterError):
            NucleusIndex.from_triangle_arrays(
                csr, rows[::-1].copy(), scores, {}, mode="local", theta=0.3
            )
        descending_row = np.array([[2, 1, 0]], dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            NucleusIndex.from_triangle_arrays(
                csr,
                descending_row,
                np.zeros(1, dtype=np.int64),
                {},
                mode="local",
                theta=0.3,
            )
        with pytest.raises(InvalidParameterError):
            NucleusIndex.from_triangle_arrays(
                csr, rows, scores, {}, mode="sideways", theta=0.3
            )


# --------------------------------------------------------------------------- #
# failure modes of load()
# --------------------------------------------------------------------------- #
def _listing(nuclei) -> list[tuple]:
    """Each nucleus as its triangles and its subgraph's vertices and edges, in order."""
    return [
        (n.triangles, list(n.subgraph.vertices()), list(n.subgraph.edges())) for n in nuclei
    ]


#: Every bundled dataset at both bundled scales, and the benchmark's
#: local-index graph.
COMPONENT_GRAPHS = [
    *(f"{name}-{scale}" for scale in ("tiny", "small") for name in DATASET_NAMES),
    "perfbench-planted",
]


class TestComponentNuclei:
    """An indexed component materialises as the local result's own nucleus."""

    @pytest.mark.parametrize("name", COMPONENT_GRAPHS)
    def test_component_nuclei_are_the_results_nuclei(self, name):
        if name == "perfbench-planted":
            graph = perfbench_graph(name)
        else:
            dataset, scale = name.rsplit("-", 1)
            graph = load_dataset(dataset, scale=scale)
        result = local_nucleus_decomposition(graph, 0.1)
        index = build_local_index(graph, 0.1)
        assert index.levels == tuple(range(result.max_score + 1))
        for k in index.levels:
            served = [index.component_nucleus(int(c)) for c in index.components_at_level(k)]
            expected = result.nuclei(k)
            assert served == expected, k
            # Down to the insertion order of every subgraph's vertices and edges.
            assert _listing(served) == _listing(expected), k

    def test_served_nuclei_do_not_depend_on_the_hash_seed(self):
        # String labels: a subgraph built from a set of edges inserts them in
        # an order that follows the hash seed.
        script = textwrap.dedent(
            """
            import hashlib
            from repro.experiments.datasets import load_dataset
            from repro.graph.probabilistic_graph import ProbabilisticGraph
            from repro.index import build_index
            from repro.query import NucleusQueryEngine

            dblp = load_dataset("dblp", scale="tiny")
            graph = ProbabilisticGraph((f"v{u}", f"v{v}", p) for u, v, p in dblp.edges())
            engine = NucleusQueryEngine(build_index(graph, mode="local", theta=0.1))
            for k in engine.index.levels:
                listing = [
                    (sorted(n.triangles), list(n.subgraph.vertices()),
                     list(n.subgraph.edges()))
                    for n in engine.nuclei(k)
                ]
                print(k, len(listing), hashlib.sha256(repr(listing).encode()).hexdigest())
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout.splitlines())
        assert max(int(line.split()[1]) for line in outputs[0]) >= 3
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestLoadFailures:
    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "headerless.npz"
        np.savez(path, some_array=np.arange(3))
        with pytest.raises(IndexFormatError, match="missing header"):
            load_index(path)

    def test_missing_array_entry(self, planted, tmp_path):
        index = build_local_index(planted, THETA)
        original = index.save(tmp_path / "ok.npz")
        stripped = tmp_path / "stripped.npz"
        with zipfile.ZipFile(original) as src, zipfile.ZipFile(stripped, "w") as dst:
            for item in src.namelist():
                if item != "triangle_scores.npy":
                    dst.writestr(item, src.read(item))
        with pytest.raises(IndexFormatError, match="triangle_scores"):
            load_index(stripped)

    def test_corrupted_header_json(self, planted, tmp_path):
        index = build_local_index(planted, THETA)
        path = index.save(tmp_path / "ok.npz")
        bad = tmp_path / "badheader.npz"
        buffer = io.BytesIO()
        np.save(buffer, np.array("{this is not json"))
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(bad, "w") as dst:
            for item in src.namelist():
                data = buffer.getvalue() if item == "__header__.npy" else src.read(item)
                dst.writestr(item, data)
        with pytest.raises(IndexFormatError, match="corrupted header"):
            load_index(bad)

    def test_unsupported_version(self, planted, tmp_path):
        index = build_local_index(planted, THETA)
        header = dict(index.header, format_version=999)
        with pytest.raises(IndexFormatError, match="version"):
            NucleusIndex(header, index.arrays)

    def test_fingerprint_mismatch(self, planted, tmp_path):
        index = build_local_index(planted, THETA)
        path = index.save(tmp_path / "idx.npz")
        other = clique_graph(6, probability=0.5)
        with pytest.raises(IndexCompatibilityError):
            load_index(path, graph=other)
        # Loading without a graph defers the check; verify_against still fails.
        loaded = load_index(path)
        with pytest.raises(IndexCompatibilityError):
            loaded.verify_against(other)
        loaded.verify_against(planted)

    def test_mutated_array_breaks_equality(self, planted):
        a = build_local_index(planted, THETA)
        b = build_local_index(planted, THETA)
        assert a == b
        b.arrays["triangle_scores"] = b.arrays["triangle_scores"] + 1
        assert a != b


# --------------------------------------------------------------------------- #
# header / describe
# --------------------------------------------------------------------------- #
class TestHeader:
    def test_describe_is_json_able(self, planted):
        index = build_local_index(planted, THETA)
        description = json.loads(json.dumps(index.describe()))
        assert description["mode"] == "local"
        assert description["format_version"] == 2
        assert description["num_triangles"] == index.num_triangles

    def test_repr_mentions_shape(self, planted):
        index = build_local_index(planted, THETA)
        text = repr(index)
        assert "mode='local'" in text and f"triangles={index.num_triangles}" in text
