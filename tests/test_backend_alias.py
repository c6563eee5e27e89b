"""The retired ``backend=`` and ``kernel=`` knobs, accepted for ``__api_version__ = "1"``.

Every decomposition runs on the CSR engine and the numpy peel.  One helper,
:func:`repro.exceptions.check_retired_knob`, serves the six decomposition
and index-builder entry points and the ``--backend`` / ``--kernel`` flags of
``repro-index build`` and ``repro-experiments``: ``"csr"`` / ``"numpy"`` are
silent, ``"dict"`` / ``"numba"`` warn once with a
:class:`DeprecationWarning` and run the one engine, anything else raises
:class:`~repro.exceptions.InvalidParameterError` naming the knob.  Archives
that recorded ``kernel="numba"`` still load, answer queries and update.
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
    EdgeUpdate,
    NucleusIndex,
    apply_updates,
    build_global_index,
    build_index,
    build_local_index,
    build_weak_index,
    load_index,
)
from repro.query import NucleusQueryEngine

import oracle

THETA = 0.3
SAMPLING = {"n_samples": 20, "seed": 3}

#: Each retired knob: its silent value, its deprecated value, and a bad value.
KNOBS = {"backend": ("csr", "dict", "gpu"), "kernel": ("numpy", "numba", "cuda")}

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
@pytest.mark.parametrize("knob", KNOBS)
class TestEntryPoints:
    def test_silent_value_is_silent(self, graph, knob, name):
        silent, _, _ = KNOBS[knob]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ENTRY_POINTS[name](graph, **{knob: silent})

    def test_deprecated_value_warns_once_and_runs_the_engine(self, graph, knob, name):
        _, deprecated, _ = KNOBS[knob]
        with pytest.warns(DeprecationWarning, match=f'{knob}="{deprecated}"') as record:
            result = ENTRY_POINTS[name](graph, **{knob: deprecated})
        assert sum(issubclass(w.category, DeprecationWarning) for w in record) == 1
        assert _signature(result) == _signature(ENTRY_POINTS[name](graph))
        if isinstance(result, NucleusIndex):
            assert knob not in result.params
        expected = oracle.local_nucleus_decomposition(graph, THETA).scores
        if name == "local_nucleus_decomposition":
            assert result.scores == expected
        elif name == "build_local_index":
            assert _index_scores(result) == expected

    def test_unknown_value_names_the_knob(self, graph, knob, name):
        _, _, bad = KNOBS[knob]
        with pytest.raises(InvalidParameterError, match=f"^{knob} must be"):
            ENTRY_POINTS[name](graph, **{knob: bad})


@pytest.mark.parametrize("knob", KNOBS)
class TestIndexCli:
    def _build(self, graph_file, tmp_path, knob, value):
        out = tmp_path / f"{value}.npz"
        code = index_main(
            ["build", str(graph_file), "-o", str(out), "--theta", str(THETA),
             f"--{knob}", value]
        )
        return code, out

    def test_silent_value_is_silent(self, graph_file, tmp_path, knob):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = self._build(graph_file, tmp_path, knob, KNOBS[knob][0])
        assert code == 0

    def test_deprecated_value_warns_and_matches_the_oracle(
        self, graph, graph_file, tmp_path, knob
    ):
        with pytest.warns(DeprecationWarning, match=f"{knob}="):
            code, out = self._build(graph_file, tmp_path, knob, KNOBS[knob][1])
        assert code == 0
        index = load_index(out)
        assert knob not in index.params
        assert _index_scores(index) == oracle.local_nucleus_decomposition(graph, THETA).scores

    def test_unknown_value_names_the_knob(self, graph_file, tmp_path, capsys, knob):
        code, out = self._build(graph_file, tmp_path, knob, KNOBS[knob][2])
        assert code == 2 and not out.exists()
        stderr = capsys.readouterr().err
        assert "InvalidParameterError" in stderr and knob in stderr


@pytest.mark.parametrize("knob", KNOBS)
class TestExperimentsCli:
    ARGV = ["run", "table2", "--scale", "tiny", "--filter", "dataset=krogan",
            "--filter", "theta=0.1"]

    def test_silent_value_is_silent(self, capsys, knob):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert experiments_main([*self.ARGV, f"--{knob}", KNOBS[knob][0]]) == 0

    def test_deprecated_value_warns_and_reports_the_engine_rows(self, capsys, knob):
        assert experiments_main(self.ARGV) == 0
        engine_report = capsys.readouterr().out
        with pytest.warns(DeprecationWarning, match=f"{knob}="):
            assert experiments_main([*self.ARGV, f"--{knob}", KNOBS[knob][1]]) == 0
        assert capsys.readouterr().out == engine_report

    def test_unknown_value_names_the_knob(self, knob):
        with pytest.raises(InvalidParameterError, match=f"^{knob} must be"):
            experiments_main([*self.ARGV, f"--{knob}", KNOBS[knob][2]])


#: The header entries a ``kernel="numba"`` build recorded where numba was missing.
OLD_KERNEL_PARAMS = {"kernel": "numba", "kernel_resolved": "numpy"}


@pytest.mark.parametrize("mode", ["local", "global"])
def test_old_numba_archives_load_answer_and_update(graph, tmp_path, capsys, mode):
    settings = {} if mode == "local" else {"k": 1, **SAMPLING}
    index = build_index(graph, mode=mode, theta=THETA, **settings)
    params = index.params
    index.save(tmp_path / "plain.npz")
    index.header["params"] = {**params, **OLD_KERNEL_PARAMS}
    index.save(tmp_path / "old.npz")

    old, plain = load_index(tmp_path / "old.npz"), load_index(tmp_path / "plain.npz")
    assert old.params == {**params, **OLD_KERNEL_PARAMS}
    vertices = sorted(graph.vertices())
    assert list(NucleusQueryEngine(old).max_score(vertices)) == list(
        NucleusQueryEngine(plain).max_score(vertices)
    )
    assert index_main(["info", str(tmp_path / "old.npz")]) == 0
    assert "'kernel_resolved': 'numpy'" in capsys.readouterr().out

    u, v, p = next(iter(graph.edges()))
    batch = [EdgeUpdate("change", u, v, p - 0.3)]
    updated, expected = apply_updates(old, batch), apply_updates(plain, batch)
    assert updated.arrays.keys() == expected.arrays.keys()
    for name, array in expected.arrays.items():
        assert updated.arrays[name].tobytes() == array.tobytes(), name
