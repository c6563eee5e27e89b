"""Tests for the dataset registry and the experiment harness (tiny scale).

Every experiment runs the one way the harness offers: its registered spec
through :func:`~repro.experiments.pipeline.run_spec`, with grid overrides
where a test narrows the defaults.
"""

from __future__ import annotations

import pytest

from repro.core.approximations import BinomialEstimator
from repro.exceptions import InvalidParameterError
from repro.experiments import datasets
from repro.experiments.figure6 import (
    relative_support_error,
    run_figure6a,
    run_figure6b,
    run_figure6c,
)
from repro.experiments.pipeline import RunConfig, run_pipeline, run_spec
from repro.experiments.registry import EXPERIMENT_NAMES, get_spec
from repro.experiments.runner import main
from repro.experiments.table2 import compare_scores

TINY = RunConfig(scale="tiny")


def _run(name: str, overrides: dict | None = None):
    """Run the registered spec ``name`` at tiny scale."""
    return run_spec(get_spec(name), TINY, overrides)


class TestDatasetRegistry:
    def test_all_names_at_tiny_scale(self):
        graphs = datasets.load_all("tiny")
        assert set(graphs) == set(datasets.DATASET_NAMES)
        for graph in graphs.values():
            assert graph.num_vertices > 0
            assert graph.num_edges > 0

    def test_datasets_are_reproducible(self):
        assert datasets.load_dataset("krogan", "tiny") == datasets.load_dataset("krogan", "tiny")

    def test_unknown_dataset_or_scale(self):
        with pytest.raises(InvalidParameterError):
            datasets.load_dataset("unknown")
        with pytest.raises(InvalidParameterError):
            datasets.load_dataset("krogan", "huge")

    def test_spec_metadata(self):
        spec = datasets.dataset_spec("flickr", "tiny")
        assert spec.name == "flickr"
        assert spec.scale == "tiny"
        assert "flickr" in spec.paper_reference

    def test_scales_differ_in_size(self):
        tiny = datasets.load_dataset("dblp", "tiny")
        small = datasets.load_dataset("dblp", "small")
        assert small.num_edges > tiny.num_edges


class TestTable1:
    def test_rows_and_formatting(self):
        run = _run("table1", {"names": ("krogan", "dblp")})
        assert [row.name for row in run.rows] == ["krogan", "dblp"]
        table = run.report
        assert "krogan" in table and "p_avg" in table


class TestTable2:
    def test_compare_scores_on_tiny_dataset(self):
        graph = datasets.load_dataset("krogan", "tiny")
        total, average_error, percent = compare_scores(graph, theta=0.2)
        assert total > 0
        assert 0.0 <= average_error <= 1.0
        assert 0.0 <= percent <= 100.0

    def test_rows_and_formatting(self):
        run = _run("table2", {"names": ("krogan",), "thetas": (0.3,)})
        rows = run.rows
        assert len(rows) == 1
        assert rows[0].dataset == "krogan"
        assert "avg error" in run.report


class TestTable3:
    def test_nucleus_beats_truss_and_core_on_quality(self):
        run = _run("table3", {"names": ("flickr",), "thetas": (0.1,)})
        row = run.rows[0]
        assert row.nucleus.probabilistic_density >= row.core.probabilistic_density
        assert row.nucleus.num_vertices <= row.core.num_vertices
        assert "PD N/T/C" in run.report


class TestFigure4:
    def test_runtime_rows(self):
        run = _run("figure4", {"names": ("krogan",), "thetas": (0.2, 0.4)})
        rows = run.rows
        assert len(rows) == 2
        for row in rows:
            assert row.dp_seconds > 0 and row.ap_seconds > 0
            assert row.dp_max_score >= row.ap_max_score - 1
            assert row.speedup > 0
        assert "DP (s)" in run.report


class TestFigure5:
    def test_fg_and_wg_rows(self):
        run = _run(
            "figure5", {"names": ("krogan",), "theta": 0.01, "n_samples": 30, "seed": 0}
        )
        rows = run.rows
        assert len(rows) == 1
        row = rows[0]
        assert row.fg_seconds >= 0 and row.wg_seconds >= 0
        assert row.k >= 1
        assert "FG (s)" in run.report


class TestFigure6:
    def test_relative_error_zero_for_exact_estimator(self):
        from repro.core.approximations import DynamicProgrammingEstimator

        assert relative_support_error(
            DynamicProgrammingEstimator(), [0.5, 0.5, 0.5], theta=0.3
        ) == 0.0

    def test_panel_a_poisson_beats_clt_for_small_probabilities(self):
        rows = run_figure6a(c_deltas=(25,), num_profiles=50, seed=0)
        by_name = {row.estimator: row.average_relative_error for row in rows}
        assert by_name["poisson"] <= by_name["clt"]

    def test_panel_b_translated_poisson_is_robust(self):
        rows = run_figure6b(probability_ranges=(0.1, 1.0), num_profiles=50, seed=1)
        poisson_large = next(
            r for r in rows if r.estimator == "poisson" and "1.0" in r.condition
        )
        translated_large = next(
            r
            for r in rows
            if r.estimator == "translated_poisson" and "1.0" in r.condition
        )
        assert translated_large.average_relative_error <= poisson_large.average_relative_error

    def test_panel_c_binomial_error_is_small(self):
        rows = run_figure6c(c_deltas=(25,), num_profiles=50, seed=2)
        assert rows[0].average_relative_error < 0.05

    def test_formatting(self):
        run = _run("figure6", {"panels": ("6a",), "num_profiles": 10})
        assert {row.panel for row in run.rows} == {"6a"}
        assert "avg rel error" in run.report


class TestFigure7:
    def test_series_on_tiny_flickr(self):
        run = _run("figure7", {"dataset": "flickr", "theta": 0.3})
        rows = run.rows
        assert rows, "the tiny flickr analogue should have at least one nucleus level"
        for row in rows:
            assert 0.0 <= row.average_density <= 1.0
            assert 0.0 <= row.average_clustering <= 1.0
        # the number of nuclei never increases with k
        counts = [row.num_nuclei for row in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert "avg PD" in run.report


class TestFigure8:
    def test_modes_reported_for_each_dataset(self):
        run = _run(
            "figure8", {"names": ("krogan",), "theta": 0.01, "n_samples": 20, "seed": 0}
        )
        rows = run.rows
        assert {row.mode for row in rows} == {"global", "weakly-global", "local"}
        assert all(0.0 <= row.average_density <= 1.0 for row in rows)
        assert "avg PCC" in run.report


class TestAblations:
    def test_hybrid_ablation_rows(self):
        graph = datasets.load_dataset("krogan", "tiny")
        run = _run(
            "ablation_hybrid",
            {"graph": graph, "theta": 0.2, "estimators": [BinomialEstimator()]},
        )
        rows = run.rows
        names = [row.estimator for row in rows]
        assert names == ["binomial"]
        assert rows[0].average_error >= 0.0
        assert "estimator" in run.report

    def test_sampling_ablation_respects_hoeffding(self):
        run = _run("ablation_sampling", {"sample_sizes": (50, 200), "seed": 0})
        rows = run.rows
        assert len(rows) == 2
        for row in rows:
            assert row.max_observed_error <= 3 * row.hoeffding_epsilon
        assert "Hoeffding" in run.report


class TestIncrementalUpdates:
    def test_replay_on_tiny_krogan_keeps_parity(self):
        run = _run("incremental_updates", {"datasets": ("krogan",)})
        rows = run.rows
        assert len(rows) == 5
        assert all(row.dataset == "krogan" for row in rows)
        assert all(row.parity for row in rows)
        assert [row.revision for row in rows] == [1, 2, 3, 4, 5]
        assert "FAIL" not in run.report


class TestRunner:
    def test_all_experiments_registered(self):
        assert {
            "table1", "table2", "table3", "figure4", "figure5",
            "figure6", "figure7", "figure8", "ablation_hybrid", "ablation_sampling",
            "incremental_updates",
        } == set(EXPERIMENT_NAMES)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_pipeline(["figure99"], TINY)

    def test_main_runs_a_cheap_experiment(self, capsys):
        # Seed-era invocation shape (bare name, no subcommand) still works;
        # the full CLI surface is covered in tests/test_runner_cli.py.
        exit_code = main(["figure7", "--scale", "tiny"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "figure7" in captured.out
