"""The retired ``backend=`` knob, accepted for ``__api_version__ = "1"``.

Every decomposition runs on the CSR engine.  One helper,
:func:`repro.core.local.check_backend`, serves the six decomposition and
index-builder entry points and the ``--backend`` flags of ``repro-index
build`` and ``repro-experiments``: ``"csr"`` is silent, ``"dict"`` warns
with a :class:`DeprecationWarning` and runs CSR, anything else raises
:class:`~repro.exceptions.InvalidParameterError` naming ``backend``.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cli import main as index_main
from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.local import local_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.exceptions import InvalidParameterError
from repro.experiments.runner import main as experiments_main
from repro.graph.generators import planted_nucleus_graph
from repro.graph.io import write_edge_list
from repro.index import (
    NucleusIndex,
    build_global_index,
    build_local_index,
    build_weak_index,
    load_index,
)

import oracle

THETA = 0.3
SAMPLING = {"n_samples": 20, "seed": 3}

ENTRY_POINTS = {
    "local_nucleus_decomposition": lambda g, **kw: local_nucleus_decomposition(
        g, THETA, **kw
    ),
    "global_nucleus_decomposition": lambda g, **kw: global_nucleus_decomposition(
        g, 1, THETA, **SAMPLING, **kw
    ),
    "weak_nucleus_decomposition": lambda g, **kw: weak_nucleus_decomposition(
        g, 1, THETA, **SAMPLING, **kw
    ),
    "build_local_index": lambda g, **kw: build_local_index(g, THETA, **kw),
    "build_global_index": lambda g, **kw: build_global_index(g, 1, THETA, **SAMPLING, **kw),
    "build_weak_index": lambda g, **kw: build_weak_index(g, 1, THETA, **SAMPLING, **kw),
}


@pytest.fixture(scope="module")
def graph():
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


@pytest.fixture(scope="module")
def graph_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("alias") / "graph.txt"
    write_edge_list(graph, path)
    return path


def _signature(result):
    """Comparable view of any entry point's output."""
    if isinstance(result, NucleusIndex):
        return {name: array.tobytes() for name, array in result.arrays.items()}
    if isinstance(result, list):
        return [sorted(n.triangles) for n in result]
    return result.scores


def _index_scores(index: NucleusIndex) -> dict:
    labels = index.vertex_labels
    return {
        tuple(sorted(labels[i] for i in row)): score
        for row, score in zip(index.arrays["triangles"].tolist(),
                              index.arrays["triangle_scores"].tolist())
    }


@pytest.mark.parametrize("name", ENTRY_POINTS)
class TestEntryPoints:
    def test_csr_is_silent(self, graph, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ENTRY_POINTS[name](graph, backend="csr")

    def test_dict_warns_and_runs_the_engine(self, graph, name):
        with pytest.warns(DeprecationWarning, match='backend="dict"') as record:
            result = ENTRY_POINTS[name](graph, backend="dict")
        assert sum(issubclass(w.category, DeprecationWarning) for w in record) == 1
        assert _signature(result) == _signature(ENTRY_POINTS[name](graph))
        expected = oracle.local_nucleus_decomposition(graph, THETA).scores
        if name == "local_nucleus_decomposition":
            assert result.scores == expected
        elif name == "build_local_index":
            assert _index_scores(result) == expected

    def test_unknown_backend_names_the_knob(self, graph, name):
        with pytest.raises(InvalidParameterError, match="backend"):
            ENTRY_POINTS[name](graph, backend="gpu")


class TestIndexCli:
    def _build(self, graph_file, tmp_path, backend):
        out = tmp_path / f"{backend}.npz"
        code = index_main(
            ["build", str(graph_file), "-o", str(out), "--theta", str(THETA),
             "--backend", backend]
        )
        return code, out

    def test_csr_is_silent(self, graph_file, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = self._build(graph_file, tmp_path, "csr")
        assert code == 0

    def test_dict_warns_and_matches_the_oracle(self, graph, graph_file, tmp_path):
        with pytest.warns(DeprecationWarning):
            code, out = self._build(graph_file, tmp_path, "dict")
        assert code == 0
        index = load_index(out)
        assert "backend" not in index.params
        assert _index_scores(index) == oracle.local_nucleus_decomposition(graph, THETA).scores

    def test_unknown_backend_names_the_knob(self, graph_file, tmp_path, capsys):
        code, out = self._build(graph_file, tmp_path, "gpu")
        assert code == 2 and not out.exists()
        stderr = capsys.readouterr().err
        assert "InvalidParameterError" in stderr and "backend" in stderr


class TestExperimentsCli:
    ARGV = ["run", "table2", "--scale", "tiny", "--filter", "dataset=krogan",
            "--filter", "theta=0.1"]

    def test_csr_is_silent(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert experiments_main([*self.ARGV, "--backend", "csr"]) == 0

    def test_dict_warns_and_reports_the_engine_rows(self, capsys):
        assert experiments_main(self.ARGV) == 0
        engine_report = capsys.readouterr().out
        with pytest.warns(DeprecationWarning):
            assert experiments_main([*self.ARGV, "--backend", "dict"]) == 0
        assert capsys.readouterr().out == engine_report

    def test_unknown_backend_names_the_knob(self):
        with pytest.raises(InvalidParameterError, match="backend"):
            experiments_main([*self.ARGV, "--backend", "gpu"])

