"""Benchmark: regenerate every paper table/figure through the shared pipeline.

One parametrized driver replaces the ten seed-era ``bench_table*.py`` /
``bench_figure*.py`` / ``bench_ablation_*.py`` files: each case resolves its
:class:`~repro.experiments.pipeline.ExperimentSpec` from the registry, runs
it through :func:`~repro.experiments.pipeline.run_spec`,
re-applies the experiment's headline sanity check, and prints the formatted
report.  Per-experiment parameter overrides (sample sizes, datasets) match
what the retired drivers used, so timings stay comparable across PRs.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments.pipeline import RunConfig, run_spec
from repro.experiments.registry import get_spec


def _check_table1(rows) -> None:
    assert len(rows) == 6


def _check_table2(rows) -> None:
    assert rows
    # The paper's headline: AP errors stay small on every dataset.
    assert all(row.average_error <= 0.5 for row in rows)


def _check_table3(rows) -> None:
    assert rows
    # The paper's headline: wherever a nucleus exists it is at least as dense as the
    # core.  Two analogue-specific caveats: an empty nucleus row (tiny pokec at
    # theta = 0.3, where no triangle clears the threshold) is skipped, and a small
    # tolerance absorbs the ties that occur when nucleus, truss, and core all
    # converge on the same planted community (biomine analogue).
    for row in rows:
        if row.nucleus.num_vertices == 0:
            continue
        assert (
            row.nucleus.probabilistic_density
            >= row.core.probabilistic_density - 0.05
        )


def _check_figure4(rows) -> None:
    assert len(rows) == 6 * 5
    # DP and AP must agree on the maximum score (the accuracy side of the figure).
    assert all(abs(row.dp_max_score - row.ap_max_score) <= 1 for row in rows)


def _check_figure5(rows) -> None:
    assert len(rows) == 6
    # The paper's headline: WG is generally faster than FG.
    faster = sum(1 for row in rows if row.wg_seconds <= row.fg_seconds)
    assert faster >= len(rows) // 2


def _check_figure6(rows) -> None:
    assert rows
    by_panel = {}
    for row in rows:
        by_panel.setdefault(row.panel, []).append(row)
    # Panel (a): Poisson beats the CLT when the probabilities are small.
    poisson = [r for r in by_panel["6a"] if r.estimator == "poisson"]
    clt = [r for r in by_panel["6a"] if r.estimator == "clt"]
    assert sum(r.average_relative_error for r in poisson) <= sum(
        r.average_relative_error for r in clt
    )


def _check_figure7(rows) -> None:
    assert rows
    # PD and PCC stay high (the paper reports 70%+ already at small k).
    assert all(row.average_density >= 0.5 for row in rows if row.num_nuclei)
    # The number of nuclei never increases with k.
    counts = [row.num_nuclei for row in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def _check_figure8(rows) -> None:
    assert {row.mode for row in rows} == {"global", "weakly-global", "local"}
    assert all(0.0 <= row.average_density <= 1.0 for row in rows)


def _check_ablation_hybrid(rows) -> None:
    by_name = {row.estimator: row for row in rows}
    # Exact DP has zero error by construction; the hybrid stays close to it.
    assert by_name["dp"].average_error == 0.0
    assert by_name["hybrid"].average_error <= 0.5


def _check_ablation_sampling(rows) -> None:
    assert rows
    # Observed errors stay within a small multiple of the Hoeffding guarantee.
    assert all(row.max_observed_error <= 3 * row.hoeffding_epsilon for row in rows)


#: (experiment name, grid overrides — matching the retired drivers, check).
CASES = [
    ("table1", {}, _check_table1),
    ("table2", {}, _check_table2),
    ("table3", {}, _check_table3),
    ("figure4", {}, _check_figure4),
    ("figure5", {"theta": 0.001, "n_samples": 100, "seed": 0}, _check_figure5),
    ("figure6", {"num_profiles": 200, "seed": 0}, _check_figure6),
    ("figure7", {"dataset": "flickr", "theta": 0.3}, _check_figure7),
    ("figure8", {"n_samples": 50, "seed": 0}, _check_figure8),
    ("ablation_hybrid", {"dataset": "flickr", "theta": 0.2}, _check_ablation_hybrid),
    ("ablation_sampling", {"seed": 0}, _check_ablation_sampling),
]


@pytest.mark.parametrize("name,overrides,check", CASES, ids=[c[0] for c in CASES])
def test_experiment(benchmark, bench_scale, name, overrides, check):
    spec = get_spec(name)
    config = RunConfig(scale=bench_scale, seed=0)
    run = run_once(benchmark, run_spec, spec, config, overrides)
    check(run.rows)
    print()
    print(run.report)
