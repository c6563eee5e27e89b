"""Tests for the declarative experiment pipeline.

Four concerns are pinned here:

* **Golden parity** — every experiment's report,
  ``run_spec(get_spec(name), RunConfig(scale="tiny"), overrides).report``,
  reproduces the pre-pipeline harness's formatted report byte for byte
  (wall-clock columns normalised).  The golden files under
  ``tests/data/golden_experiments/`` were captured from the seed-era
  ``run_*``/``format_*`` code before the refactor.  Figure 8's golden pins
  the dict engine's triangle order and ``random.Random`` stream, so that
  test swaps the dict oracle of ``tests/oracle/`` in for the drivers.
* **Engine parity** — the CSR engine produces rows identical to the dict
  oracle's for the deterministic experiments.
* **Cache correctness** — warm-vs-cold runs agree,
  hits/misses are counted, corrupt snapshots fall back to recomputation,
  and :func:`~repro.index.builders.local_result_from_index` round-trips.
* **Execution semantics** — parallel grid cells return the same rows as
  serial execution, grid filters select cells, artifacts carry the full
  schema.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import figure8
from repro.experiments.formatting import Column, render_markdown, render_plain
from repro.experiments.pipeline import (
    ARTIFACT_FORMAT,
    DecompositionCache,
    RunConfig,
    run_pipeline,
    run_spec,
    write_artifact,
)
from repro.experiments.registry import EXPERIMENT_NAMES, all_specs, get_spec
from repro.graph.generators import complete_probabilistic_graph, uniform_probability
from repro.index.builders import build_global_index, local_result_from_index
from repro.index.nucleus_index import NucleusIndex

import oracle

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_experiments"

TINY_CSR = RunConfig(scale="tiny")


def _golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text().rstrip("\n")


def _tiny_run(name: str, overrides: dict | None = None):
    """Run the registered spec ``name`` at tiny scale, serially."""
    return run_spec(get_spec(name), TINY_CSR, overrides)


def _swap_in_dict_oracle(monkeypatch) -> None:
    """Run the experiments' local and Monte-Carlo drivers on the dict oracle.

    The decomposition cache looks ``local_nucleus_decomposition`` up on
    :mod:`repro.core.local` at call time; Figure 8 binds the global and weak
    drivers at import.
    """
    import repro.core.local

    def local(graph, theta, estimator=None):
        return oracle.local_nucleus_decomposition(graph, theta, estimator)

    monkeypatch.setattr(repro.core.local, "local_nucleus_decomposition", local)
    monkeypatch.setattr(
        figure8, "global_nucleus_decomposition", oracle.global_nucleus_decomposition
    )
    monkeypatch.setattr(
        figure8, "weak_nucleus_decomposition", oracle.weak_nucleus_decomposition
    )


def _normalize_seconds_columns(text: str, *, per_line: int | None = None) -> str:
    """Replace wall-clock float fields so only deterministic content remains.

    ``per_line`` limits how many float fields are normalised per row (used
    when only the leading float columns are timings); ``None`` normalises
    every ``d.dddd``-style field.
    """
    out = []
    for line in text.split("\n"):
        count = 0 if per_line is None else per_line
        out.append(re.sub(r"\d+\.\d+|\binf\b", "#", line, count=count))
    return "\n".join(out)


class TestGoldenParity:
    """Pipeline output == pre-refactor harness output, byte for byte."""

    def test_table1(self):
        report = _tiny_run("table1").report
        assert report == _golden("table1")

    def test_table2(self):
        report = _tiny_run("table2").report
        assert report == _golden("table2")

    def test_table3(self):
        report = _tiny_run("table3").report
        assert report == _golden("table3")

    def test_figure4(self):
        report = _tiny_run("figure4", {"names": ("krogan", "dblp")}).report
        # DP (s) / AP (s) / speedup are wall-clock; theta, kmax, and the
        # layout itself are pinned exactly.
        want = _golden("figure4")
        normalize = lambda text: "\n".join(  # noqa: E731
            re.sub(r"\d+\.\d{4}\s+\d+\.\d{4}\s+(\d+\.\d{2}|inf)", "#", line)
            for line in text.split("\n")
        )
        assert normalize(report) == normalize(want)
        assert report.split("\n")[0] == want.split("\n")[0]

    def test_figure5(self):
        report = _tiny_run(
            "figure5", {"names": ("krogan", "dblp"), "n_samples": 30, "seed": 0}
        ).report
        want = _golden("figure5")
        normalize = lambda text: re.sub(r"\d+\.\d{3}", "#", text)  # noqa: E731
        # Nucleus counts and k (the seeded Monte-Carlo outcome) are exact.
        assert normalize(report) == normalize(want)

    def test_figure6(self):
        report = _tiny_run("figure6").report
        assert report == _golden("figure6")

    def test_figure7(self):
        report = _tiny_run("figure7").report
        assert report == _golden("figure7")

    def test_figure8(self, monkeypatch):
        _swap_in_dict_oracle(monkeypatch)
        report = _tiny_run(
            "figure8", {"names": ("krogan",), "theta": 0.01, "n_samples": 20, "seed": 0}
        ).report
        assert report == _golden("figure8")

    def test_ablation_hybrid(self):
        report = _tiny_run("ablation_hybrid").report
        want = _golden("ablation_hybrid")
        assert _normalize_seconds_columns(report, per_line=1) == _normalize_seconds_columns(
            want, per_line=1
        )

    def test_ablation_sampling(self):
        graph = complete_probabilistic_graph(5, uniform_probability(0.4, 0.95), seed=7)
        report = _tiny_run(
            "ablation_sampling",
            {"sample_sizes": (25, 50, 100), "graph": graph, "seed": 0},
        ).report
        assert report == _golden("ablation_sampling")


class TestBackendParity:
    """The CSR engine and the dict oracle produce identical rows."""

    def test_table2_rows_identical_across_backends(self, monkeypatch):
        csr_rows = _tiny_run("table2").rows
        _swap_in_dict_oracle(monkeypatch)
        dict_rows = _tiny_run("table2").rows
        assert dict_rows == csr_rows

    def test_figure7_rows_identical_across_backends(self, monkeypatch):
        csr_rows = _tiny_run("figure7").rows
        _swap_in_dict_oracle(monkeypatch)
        dict_rows = _tiny_run("figure7").rows
        assert dict_rows == csr_rows


class TestRegistry:
    def test_all_experiments_registered(self):
        assert EXPERIMENT_NAMES == (
            "table1", "table2", "table3", "figure4", "figure5",
            "figure6", "figure7", "figure8", "ablation_hybrid", "ablation_sampling",
            "incremental_updates",
        )

    def test_get_spec_unknown_name(self):
        with pytest.raises(KeyError, match="valid names"):
            get_spec("figure99")

    def test_specs_declare_row_schemas(self):
        for spec in all_specs():
            assert dataclasses.is_dataclass(spec.row_type)
            assert spec.columns, spec.name


class TestRunConfig:
    def test_rejects_non_positive_jobs(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(n_jobs=0)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True])
    def test_rejects_non_integer_jobs(self, bad):
        message = f"^n_jobs must be a positive integer, got {bad!r}$"
        with pytest.raises(InvalidParameterError, match=message):
            RunConfig(scale="tiny", n_jobs=bad)

    def test_grid_filter_matching(self):
        config = RunConfig(grid_filter=(("dataset", "krogan"), ("theta", "0.2")))
        assert config.matches({"dataset": "krogan", "theta": 0.2})
        assert not config.matches({"dataset": "dblp", "theta": 0.2})
        assert not config.matches({"theta": 0.2})


class TestDecompositionCache:
    def test_memory_hits_within_one_handle(self):
        graph = complete_probabilistic_graph(6, uniform_probability(0.5, 0.9), seed=1)
        cache = DecompositionCache()
        first = cache.local(graph, 0.3)
        second = cache.local(graph, 0.3)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_disk_round_trip_is_exact_on_csr(self, tmp_path):
        graph = complete_probabilistic_graph(6, uniform_probability(0.5, 0.9), seed=1)
        cold = DecompositionCache(tmp_path)
        a = cold.local(graph, 0.3)
        warm = DecompositionCache(tmp_path)
        b = warm.local(graph, 0.3)
        assert (warm.hits, warm.misses) == (1, 0)
        assert b.scores == a.scores
        assert list(b.scores) == list(a.scores)  # same insertion order
        assert b.max_score == a.max_score
        assert [n.triangles for n in b.nuclei(1)] == [n.triangles for n in a.nuclei(1)]

    def test_distinct_thetas_and_estimators_do_not_collide(self, tmp_path):
        from repro.core.hybrid import HybridEstimator, HybridParameters

        graph = complete_probabilistic_graph(6, uniform_probability(0.5, 0.9), seed=1)
        cache = DecompositionCache(tmp_path)
        cache.local(graph, 0.3)
        cache.local(graph, 0.6)
        cache.local(graph, 0.3, estimator=HybridEstimator())
        # Differently-tuned hybrids must not share a snapshot...
        cache.local(
            graph, 0.3,
            estimator=HybridEstimator(HybridParameters(clt_min_cliques=1)),
        )
        assert cache.misses == 4 and cache.hits == 0
        # ...but identically-tuned instances must.
        cache.local(graph, 0.3, estimator=HybridEstimator())
        assert cache.hits == 1

    def test_corrupt_snapshot_falls_back_to_recompute(self, tmp_path):
        graph = complete_probabilistic_graph(6, uniform_probability(0.5, 0.9), seed=1)
        cold = DecompositionCache(tmp_path)
        cold.local(graph, 0.3)
        snapshots = list(Path(tmp_path).glob("*.npz"))
        assert len(snapshots) == 1
        snapshots[0].write_bytes(b"not an index")
        warm = DecompositionCache(tmp_path)
        result = warm.local(graph, 0.3)
        assert (warm.hits, warm.misses) == (0, 1)
        assert result.max_score >= -1

    def test_local_result_from_index_rejects_global_mode(self):
        graph = complete_probabilistic_graph(5, uniform_probability(0.7, 0.95), seed=2)
        index = build_global_index(graph, k=1, theta=0.2, n_samples=10, seed=0)
        with pytest.raises(InvalidParameterError):
            local_result_from_index(index)

    def test_local_result_from_index_standalone_graph(self):
        from repro.core.local import local_nucleus_decomposition

        graph = complete_probabilistic_graph(6, uniform_probability(0.5, 0.9), seed=1)
        fresh = local_nucleus_decomposition(graph, 0.3)
        index = NucleusIndex.from_local_result(fresh)
        rebuilt = local_result_from_index(index)  # no live graph: reconstructed
        assert rebuilt.scores == fresh.scores
        assert rebuilt.theta == fresh.theta
        assert rebuilt.estimator_name == fresh.estimator_name


class TestPipelineExecution:
    def test_parallel_rows_match_serial(self):
        spec = get_spec("table2")
        overrides = {"names": ("krogan", "dblp"), "thetas": (0.2, 0.4)}
        serial = run_spec(spec, TINY_CSR, overrides)
        parallel = run_spec(
            spec, dataclasses.replace(TINY_CSR, n_jobs=2), overrides
        )
        assert parallel.rows == serial.rows
        assert [c.params for c in parallel.cells] == [c.params for c in serial.cells]

    def test_grid_filter_limits_cells(self):
        spec = get_spec("table1")
        config = dataclasses.replace(
            TINY_CSR, grid_filter=(("dataset", "krogan"),)
        )
        run = run_spec(spec, config)
        assert [row.name for row in run.rows] == ["krogan"]

    def test_shared_cache_across_specs_hits(self, tmp_path):
        config = dataclasses.replace(TINY_CSR, cache_dir=str(tmp_path))
        overrides = {
            "figure5": {"names": ("krogan",), "n_samples": 20, "seed": 0},
            "figure8": {"names": ("krogan",), "theta": 0.001, "n_samples": 10, "seed": 0},
        }
        runs = run_pipeline(["figure5", "figure8"], config, overrides)
        assert runs["figure5"].cache_misses == 1
        # Figure 8 reloads the θ = 0.001 snapshot Figure 5 just built.
        assert runs["figure8"].cache_hits >= 1
        assert runs["figure8"].cache_misses == 0
        # Entry provenance is per-run even though the cache handle is
        # shared: each run reports exactly the keys it touched.
        assert len(runs["figure8"].cache_entries) == 1
        assert runs["figure8"].cache_entries == runs["figure5"].cache_entries

    def test_use_cache_false_disables_all_reuse(self):
        config = dataclasses.replace(TINY_CSR, use_cache=False)
        overrides = {
            "figure5": {"names": ("krogan",), "n_samples": 20, "seed": 0},
            "figure8": {"names": ("krogan",), "theta": 0.001, "n_samples": 10, "seed": 0},
        }
        runs = run_pipeline(["figure5", "figure8"], config, overrides)
        # Figure 8 must recompute the decomposition Figure 5 already built —
        # the seed-era execution model, relied on by the pipeline benchmark's
        # legacy arm.
        assert runs["figure5"].cache_hits == 0
        assert runs["figure8"].cache_hits == 0
        assert runs["figure8"].cache_misses == 1

    def test_disabled_cache_handle_never_memoizes(self):
        graph = complete_probabilistic_graph(6, uniform_probability(0.5, 0.9), seed=1)
        cache = DecompositionCache(enabled=False)
        first = cache.local(graph, 0.3)
        second = cache.local(graph, 0.3)
        assert second is not first
        assert second.scores == first.scores
        assert (cache.hits, cache.misses) == (0, 2)

    def test_parallel_run_reports_cache_entries(self):
        spec = get_spec("table2")
        overrides = {"names": ("krogan",), "thetas": (0.2, 0.4)}
        run = run_spec(spec, dataclasses.replace(TINY_CSR, n_jobs=2), overrides)
        # Two cells x (dp + hybrid) lookups, keys surfaced from the workers.
        assert len(run.cache_entries) == 4

    def test_unregistered_spec_with_jobs_falls_back_to_serial(self):
        registered = get_spec("table1")
        shadow = dataclasses.replace(registered, title="not the registry's table1")
        run = run_spec(
            shadow,
            dataclasses.replace(TINY_CSR, n_jobs=2),
            {"names": ("krogan", "dblp")},
        )
        # Pool workers would resolve "table1" to the registered spec, so the
        # shadow spec must execute serially in-process — and still work.
        assert run.spec.title == "not the registry's table1"
        assert [row.name for row in run.rows] == ["krogan", "dblp"]

    def test_warm_cache_reproduces_cold_rows_on_csr(self, tmp_path):
        config = dataclasses.replace(TINY_CSR, cache_dir=str(tmp_path))
        overrides = {"figure8": {"names": ("krogan",), "theta": 0.01, "n_samples": 15, "seed": 0}}
        cold = run_pipeline(["figure8"], config, overrides)["figure8"]
        warm = run_pipeline(["figure8"], config, overrides)["figure8"]
        assert cold.cache_misses >= 1 and warm.cache_hits >= 1
        assert warm.rows == cold.rows

    def test_per_cell_seeds_are_deterministic(self):
        spec = get_spec("figure6")
        grid_a = spec.grid(RunConfig(seed=3), {})
        grid_b = spec.grid(RunConfig(seed=3), {})
        assert grid_a == grid_b
        assert [cell["seed"] for cell in grid_a] == [3, 4, 5]


class TestArtifacts:
    REQUIRED_KEYS = {
        "format", "experiment", "title", "paper_reference", "config",
        "row_fields", "num_rows", "rows", "cells", "timings", "cache",
        "fingerprints", "report",
    }

    def test_artifact_schema(self, tmp_path):
        run = run_spec(get_spec("table1"), TINY_CSR, {"names": ("krogan", "dblp")})
        path = write_artifact(run, tmp_path)
        assert path.name == "EXPERIMENTS_table1.json"
        payload = json.loads(path.read_text())
        assert self.REQUIRED_KEYS <= set(payload)
        assert payload["format"] == ARTIFACT_FORMAT
        assert payload["num_rows"] == len(payload["rows"]) == 2
        assert payload["row_fields"] == [
            "name", "num_vertices", "num_edges", "max_degree",
            "average_probability", "num_triangles",
        ]
        assert payload["config"]["scale"] == "tiny"
        assert {"hits", "misses", "entries"} <= set(payload["cache"])
        assert set(payload["fingerprints"]["datasets"]) == {"krogan", "dblp"}
        assert all(len(fp) == 64 for fp in payload["fingerprints"]["datasets"].values())
        assert payload["report"] == run.report
        cell = payload["cells"][0]
        assert {"index", "params", "seconds", "cache_hits", "cache_misses"} <= set(cell)

    def test_rows_survive_json_round_trip(self, tmp_path):
        run = run_spec(
            get_spec("table3"), TINY_CSR, {"names": ("flickr",), "thetas": (0.1,)}
        )
        payload = json.loads(write_artifact(run, tmp_path).read_text())
        row = payload["rows"][0]
        # Nested cohesiveness reports serialise as objects, not reprs.
        assert isinstance(row["nucleus"], dict)
        assert "probabilistic_density" in row["nucleus"]


class TestFormattingModule:
    COLUMNS = (
        Column("name", 6),
        Column("value", 8, ".3f"),
    )

    @dataclasses.dataclass(frozen=True)
    class Row:
        name: str
        value: float

    def test_render_plain_matches_legacy_template(self):
        rows = [self.Row("a", 1.5), self.Row("bb", 0.25)]
        expected = "\n".join(
            [
                f"{'name':>6}  {'value':>8}",
                f"{'a':>6}  {1.5:>8.3f}",
                f"{'bb':>6}  {0.25:>8.3f}",
            ]
        )
        assert render_plain(self.COLUMNS, rows) == expected

    def test_render_markdown(self):
        rows = [self.Row("a", 1.5)]
        text = render_markdown(self.COLUMNS, rows)
        assert text.split("\n") == [
            "| name | value |",
            "| ---: | ---: |",
            "| a | 1.500 |",
        ]

    def test_callable_keys_and_zero_width(self):
        columns = (Column("label", 0, key=lambda r: r.name.upper()),)
        assert render_plain(columns, [self.Row("ab", 0.0)]) == "label\nAB"
