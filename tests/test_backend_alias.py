"""Retired knobs accepted for ``__api_version__ = "1"``: the engine switches
``backend=`` and ``kernel=``, and the adaptive-sampling knobs ``sampling=``,
``confidence=``, ``n_worlds_max=``, ``chunk_initial=`` and ``chunk_growth=``.

Every decomposition runs on the CSR engine and the numpy peel, and every
global or weak candidate is verified on a fixed number of worlds.  One
gate, :func:`repro.exceptions.check_retired_knobs`, serves the six
decomposition and index-builder entry points, and through them the
facade's :func:`repro.decompose` and :func:`repro.build_index` (the
sampling knobs only the global and weak ones); the same table registers
and checks the ``--backend`` / ``--kernel`` / ``--sampling`` /
``--confidence`` / ``--n-worlds-max`` flags of ``repro-index build`` and
``repro-experiments``.  Each knob's old default is silent, its deprecated
value (for a numeric knob, any other valid value) warns once with a
:class:`DeprecationWarning` and runs the one engine, and anything else
raises :class:`~repro.exceptions.InvalidParameterError` naming the knob;
a keyword the entry point does not take raises :class:`TypeError`.  The
warning is reported against the first caller outside the package, so
Python's default filters show it on a ``__main__`` run.
Archives whose headers recorded ``kernel="numba"`` or the adaptive-sampling
knobs still load, answer queries and update.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
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

REPO_ROOT = Path(__file__).resolve().parent.parent

THETA = 0.3
SAMPLING = {"n_samples": 20, "seed": 3}

#: Each retired knob: its silent value, its deprecated value, and a bad value.
KNOBS = {
    "backend": ("csr", "dict", "gpu"),
    "kernel": ("numpy", "numba", "cuda"),
    "sampling": ("fixed", "adaptive", "bogus"),
    "confidence": (0.95, 0.9, 1.5),
    "n_worlds_max": (None, 400, 0),
    "chunk_initial": (16, 4, 0),
    "chunk_growth": (2.0, 1.0, 0.5),
}

#: The knobs retired with adaptive sampling; only the Monte-Carlo entry
#: points took them.
SAMPLING_KNOBS = ("sampling", "confidence", "n_worlds_max", "chunk_initial", "chunk_growth")

#: The retired knobs with a flag on both command lines.
CLI_KNOBS = ("backend", "kernel", "sampling", "confidence", "n_worlds_max")

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
    "decompose": lambda g, **kw: repro.decompose(g, "global", THETA, k=1, **SAMPLING, **kw),
    "build_index": lambda g, **kw: build_index(
        g, mode="weak", theta=THETA, k=1, **SAMPLING, **kw
    ),
    "decompose(local)": lambda g, **kw: repro.decompose(g, "local", THETA, **kw),
    "decompose(weak)": lambda g, **kw: repro.decompose(
        g, "weak", THETA, k=1, **SAMPLING, **kw
    ),
    "build_index(local)": lambda g, **kw: build_index(g, mode="local", theta=THETA, **kw),
    "build_index(global)": lambda g, **kw: build_index(
        g, mode="global", theta=THETA, k=1, **SAMPLING, **kw
    ),
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


def _flag(knob: str, value) -> list[str]:
    """The command-line flag setting ``knob`` to ``value`` (none for ``None``)."""
    return [] if value is None else [f"--{knob.replace('_', '-')}", str(value)]


def _reported_files(record) -> list[str]:
    """The files the recorded deprecation warnings are reported against.

    Python's default filters show a DeprecationWarning only when it is
    reported against ``__main__``, so it must name the caller's line (here,
    this file), never a file of the package the knob passed through.
    """
    return [w.filename for w in record if issubclass(w.category, DeprecationWarning)]


def _deprecation(knob: str) -> str:
    """The start of the warning for ``knob``'s deprecated value: a string knob's
    names the value, a numeric knob's names the knob."""
    deprecated = KNOBS[knob][1]
    if isinstance(deprecated, str):
        return f'^{knob}="{deprecated}" is deprecated'
    return f"^{knob}= is deprecated"


@pytest.mark.parametrize(
    "knob,name",
    [
        (knob, name)
        for knob in KNOBS
        for name in ENTRY_POINTS
        if knob not in SAMPLING_KNOBS or "local" not in name
    ],
)
class TestEntryPoints:
    def test_silent_value_is_silent(self, graph, knob, name):
        silent, _, _ = KNOBS[knob]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ENTRY_POINTS[name](graph, **{knob: silent})

    def test_deprecated_value_warns_once_and_runs_the_engine(self, graph, knob, name):
        _, deprecated, _ = KNOBS[knob]
        with pytest.warns(DeprecationWarning, match=_deprecation(knob)) as record:
            result = ENTRY_POINTS[name](graph, **{knob: deprecated})
        assert _reported_files(record) == [__file__]
        # The default's answer at the same seed.
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


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_unknown_keyword_is_a_type_error(graph, name):
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        ENTRY_POINTS[name](graph, bogus=1)


@pytest.mark.parametrize(
    "name,knob,value",
    [
        ("local_nucleus_decomposition", "sampling", "fixed"),
        ("build_local_index", "sampling", "fixed"),
        ("build_local_index", "n_jobs", 1),
    ],
)
def test_retired_knob_the_entry_point_never_took_is_a_type_error(graph, name, knob, value):
    # Even the silent value: the gate accepts only the knobs the entry
    # point took before it retired them.
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
        ENTRY_POINTS[name](graph, **{knob: value})


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_two_deprecated_knobs_warn_in_table_order(graph, name):
    with pytest.warns(DeprecationWarning) as record:
        ENTRY_POINTS[name](graph, kernel="numba", backend="dict")
    messages = [str(w.message) for w in record if issubclass(w.category, DeprecationWarning)]
    assert [message.split(" is ")[0] for message in messages] == [
        'backend="dict"',
        'kernel="numba"',
    ]
    assert _reported_files(record) == [__file__, __file__]


@pytest.mark.parametrize(
    "knob,value",
    [
        ("partitions", np.int64(1)),
        ("n_jobs", np.int64(1)),
        ("confidence", np.float64(0.95)),
        ("chunk_initial", np.int64(16)),
        ("chunk_growth", np.float32(2.0)),
    ],
    ids=str,
)
@pytest.mark.parametrize(
    "name", ["global_nucleus_decomposition", "weak_nucleus_decomposition"]
)
def test_numpy_scalars_of_the_silent_values_are_silent(graph, name, knob, value):
    # A numeric knob is compared as the Python number its check returns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = ENTRY_POINTS[name](graph, **{knob: value})
    assert _signature(result) == _signature(ENTRY_POINTS[name](graph))


@pytest.mark.parametrize("knob", CLI_KNOBS)
class TestIndexCli:
    def _build(self, graph_file, tmp_path, knob, value):
        """Build with ``--knob value``: a local index, or for a sampling knob a
        seeded global one (``value=None`` omits the flag)."""
        out = tmp_path / f"{value}.npz"
        argv = ["build", str(graph_file), "-o", str(out), "--theta", str(THETA)]
        if knob in SAMPLING_KNOBS:
            argv += ["--mode", "global", "--k", "1", "--seed", "3", "--n-samples", "20"]
        return index_main([*argv, *_flag(knob, value)]), out

    def test_silent_value_is_silent(self, graph_file, tmp_path, knob):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = self._build(graph_file, tmp_path, knob, KNOBS[knob][0])
        assert code == 0

    def test_deprecated_value_warns_and_matches_the_oracle(
        self, graph, graph_file, tmp_path, knob
    ):
        with pytest.warns(DeprecationWarning, match=_deprecation(knob)) as record:
            code, out = self._build(graph_file, tmp_path, knob, KNOBS[knob][1])
        assert code == 0 and _reported_files(record) == [__file__]
        index = load_index(out)
        assert knob not in index.params
        if knob in SAMPLING_KNOBS:
            _, default = self._build(graph_file, tmp_path, knob, None)
            assert _signature(index) == _signature(load_index(default))
            assert index.params == load_index(default).params
        else:
            expected = oracle.local_nucleus_decomposition(graph, THETA).scores
            assert _index_scores(index) == expected

    def test_unknown_value_names_the_knob(self, graph_file, tmp_path, capsys, knob):
        code, out = self._build(graph_file, tmp_path, knob, KNOBS[knob][2])
        assert code == 2 and not out.exists()
        stderr = capsys.readouterr().err
        assert "InvalidParameterError" in stderr and knob in stderr


@pytest.mark.parametrize("knob", CLI_KNOBS)
class TestExperimentsCli:
    #: A local experiment for the engine switches; for the sampling knobs
    #: Figure 8, whose report holds the seeded global and weak answers.
    ARGV = ["run", "table2", "--scale", "tiny", "--filter", "dataset=krogan",
            "--filter", "theta=0.1"]
    SAMPLING_ARGV = ["run", "figure8", "--scale", "tiny", "--filter", "dataset=krogan"]

    def _argv(self, knob, value=None):
        return [*(self.SAMPLING_ARGV if knob in SAMPLING_KNOBS else self.ARGV),
                *_flag(knob, value)]

    def test_silent_value_is_silent(self, capsys, knob):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert experiments_main(self._argv(knob, KNOBS[knob][0])) == 0

    def test_deprecated_value_warns_and_reports_the_engine_rows(self, capsys, knob):
        assert experiments_main(self._argv(knob)) == 0
        engine_report = capsys.readouterr().out
        with pytest.warns(DeprecationWarning, match=_deprecation(knob)) as record:
            assert experiments_main(self._argv(knob, KNOBS[knob][1])) == 0
        assert capsys.readouterr().out == engine_report
        assert _reported_files(record) == [__file__]

    def test_unknown_value_names_the_knob(self, knob):
        with pytest.raises(InvalidParameterError, match=f"^{knob} must be"):
            experiments_main(self._argv(knob, KNOBS[knob][2]))


@pytest.mark.parametrize(
    "entry_point,argv",
    [
        pytest.param(
            "repro.cli:main",
            ["build", "{graph}", "-o", "{out}", "--mode", "global", "--k", "1",
             "--n-samples", "20", "--sampling", "adaptive"],
            id="repro-index",
        ),
        pytest.param(
            "repro.experiments.runner:main",
            [*TestExperimentsCli.ARGV, "--out", "{out}", "--no-cache",
             "--sampling", "adaptive"],
            id="repro-experiments",
        ),
    ],
)
def test_default_filters_show_the_warning_of_a_console_script(
    graph_file, tmp_path, entry_point, argv
):
    # Runs the entry point as the installed console script's wrapper does:
    # from __main__, with Python's default warning filters.
    module, function = entry_point.split(":")
    wrapper = f"import sys; from {module} import {function}; sys.exit({function}())"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    fields = {"graph": graph_file, "out": tmp_path / "out"}
    run = subprocess.run(
        [sys.executable, "-c", wrapper, *(arg.format(**fields) for arg in argv)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert 'DeprecationWarning: sampling="adaptive" is deprecated' in run.stderr


#: Header entries of older builds: a ``kernel="numba"`` build where numba was
#: missing, and an adaptive-sampling build.
OLD_PARAMS = {
    "kernel": {"kernel": "numba", "kernel_resolved": "numpy"},
    "adaptive": {
        "sampling": "adaptive",
        "confidence": 0.9,
        "n_worlds_max": 400,
        "chunk_initial": 4,
        "chunk_growth": 1.0,
    },
}


@pytest.mark.parametrize(
    "mode,old_params",
    [
        pytest.param("local", "kernel", id="local"),
        pytest.param("global", "kernel", id="global"),
        pytest.param("global", "adaptive", id="global-adaptive"),
        pytest.param("weak", "adaptive", id="weak-adaptive"),
    ],
)
def test_old_numba_archives_load_answer_and_update(graph, tmp_path, capsys, mode, old_params):
    settings = {} if mode == "local" else {"k": 1, **SAMPLING}
    index = build_index(graph, mode=mode, theta=THETA, **settings)
    params, old_entries = index.params, OLD_PARAMS[old_params]
    index.save(tmp_path / "plain.npz")
    index.header["params"] = {**params, **old_entries}
    index.save(tmp_path / "old.npz")

    old, plain = load_index(tmp_path / "old.npz"), load_index(tmp_path / "plain.npz")
    assert old.params == {**params, **old_entries}
    vertices = sorted(graph.vertices())
    assert list(NucleusQueryEngine(old).max_score(vertices)) == list(
        NucleusQueryEngine(plain).max_score(vertices)
    )
    assert index_main(["info", str(tmp_path / "old.npz")]) == 0
    out = capsys.readouterr().out
    assert all(f"{key!r}: {value!r}" in out for key, value in old_entries.items())

    u, v, p = next(iter(graph.edges()))
    batch = [EdgeUpdate("change", u, v, p - 0.3)]
    updated, expected = apply_updates(old, batch), apply_updates(plain, batch)
    assert updated.arrays.keys() == expected.arrays.keys()
    for name, array in expected.arrays.items():
        assert updated.arrays[name].tobytes() == array.tobytes(), name
