"""Tier-1 pins for the adaptive Monte-Carlo sampling engine.

Covers the statistical machinery of :mod:`repro.sampling.adaptive` (bound
math, δ-spending, chunk scheduling), the knob validation surface (exact
error-message pins — these strings are API for scripts matching stderr), the
unit-level sequential decisions on hand-analysable candidates, the driver
integration (``sampling="fixed"`` parity, per-seed determinism), and the
telemetry the engine records.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from graph_factories import small_er_graph

import repro.sampling.adaptive as adaptive_module
from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.exceptions import InvalidParameterError
from repro.experiments.pipeline import RunConfig
from repro.graph.generators import clique_graph
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.adaptive import (
    SAMPLING_MODES,
    WORLD_COUNT_BUCKETS,
    AdaptiveOutcome,
    AdaptiveSettings,
    adaptive_global_verify,
    adaptive_weak_scores,
    chunk_schedule,
    decision_radius,
    empirical_bernstein_radius,
    hoeffding_radius,
    resolve_adaptive_settings,
    stage_delta,
)
from repro.sampling.world_matrix import CandidateWorldIndex


def _nuclei_key(nuclei):
    def edge_set(nucleus):
        return sorted((u, v) for u, v, _ in nucleus.subgraph.edges())

    return sorted(edge_set(nucleus) for nucleus in nuclei)


def _driver_graph():
    return small_er_graph(12, 0.5, seed=0, probabilities=(0.5, 1.0))


class TestBoundMath:
    def test_hoeffding_pin(self):
        # sqrt(ln(2/0.05) / (2 * 100))
        assert hoeffding_radius(100, 0.05) == pytest.approx(0.13581015157406195)

    def test_hoeffding_shrinks_with_n(self):
        radii = [hoeffding_radius(n, 0.05) for n in (10, 100, 1000, 10000)]
        assert radii == sorted(radii, reverse=True)

    def test_empirical_bernstein_pins(self):
        # mean 0.5: sqrt(2 * 0.25 * (100/99) * ln(60) / 100) + 3 ln(60) / 100
        assert empirical_bernstein_radius(100, 0.5, 0.05) == pytest.approx(0.2666305729)
        # mean 0: the variance term vanishes, only 3 ln(3/δ)/n remains.
        assert empirical_bernstein_radius(100, 0.0, 0.05) == pytest.approx(0.1228303369)

    def test_empirical_bernstein_beats_hoeffding_near_the_edges(self):
        # For extreme means and enough samples the variance-adaptive bound
        # wins — that is the whole point of including it.
        assert empirical_bernstein_radius(1000, 0.02, 0.05) < hoeffding_radius(1000, 0.05)

    def test_decision_radius_is_the_elementwise_min_at_half_delta(self):
        means = np.array([0.0, 0.02, 0.5, 0.98, 1.0])
        radius = decision_radius(1000, means, 0.05)
        expected = np.minimum(
            hoeffding_radius(1000, 0.025),
            empirical_bernstein_radius(1000, means, 0.025),
        )
        np.testing.assert_allclose(radius, expected)

    def test_stage_delta_pins_and_telescoping(self):
        assert stage_delta(0.05, 1) == pytest.approx(0.025)
        assert stage_delta(0.05, 2) == pytest.approx(0.05 / 6)
        total = sum(stage_delta(0.05, t) for t in range(1, 10_000))
        assert total < 0.05
        assert total == pytest.approx(0.05, rel=1e-3)

    @pytest.mark.parametrize("bad_delta", [0.0, 1.0, -0.1, 1.5])
    def test_delta_range_is_enforced(self, bad_delta):
        with pytest.raises(InvalidParameterError):
            stage_delta(bad_delta, 1)
        with pytest.raises(InvalidParameterError):
            hoeffding_radius(10, bad_delta)
        with pytest.raises(InvalidParameterError):
            empirical_bernstein_radius(10, 0.5, bad_delta)

    def test_stage_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="stage must be >= 1, got 0"):
            stage_delta(0.05, 0)


class TestChunkSchedule:
    def test_default_schedule_pin(self):
        assert chunk_schedule(400, 16, 2.0) == (16, 32, 64, 128, 160)

    def test_cap_below_initial_chunk(self):
        assert chunk_schedule(10, 16, 2.0) == (10,)
        assert chunk_schedule(50, 64, 2.0) == (50,)

    def test_growth_one_gives_constant_chunks(self):
        assert chunk_schedule(100, 16, 1.0) == (16, 16, 16, 16, 16, 16, 4)

    @pytest.mark.parametrize("cap", [1, 7, 16, 17, 100, 399, 400, 401, 1000])
    def test_schedule_sums_exactly_to_the_cap(self, cap):
        schedule = chunk_schedule(cap)
        assert sum(schedule) == cap
        assert all(size >= 1 for size in schedule)

    def test_validation(self):
        with pytest.raises(
            InvalidParameterError, match="n_worlds_max must be a positive integer"
        ):
            chunk_schedule(0)
        with pytest.raises(
            InvalidParameterError, match="chunk_initial must be a positive integer"
        ):
            chunk_schedule(100, 0, 2.0)
        with pytest.raises(
            InvalidParameterError, match="chunk_growth must be a finite value >= 1"
        ):
            chunk_schedule(100, 16, 0.5)


class TestSettingsValidation:
    """Exact error-message pins: these strings are matched by callers."""

    def test_fixed_is_one_chunk_adaptive_is_geometric(self):
        fixed = resolve_adaptive_settings("fixed", n_samples=150)
        assert fixed.schedule() == (150,)
        assert resolve_adaptive_settings("fixed").schedule() == (200,)
        settings = resolve_adaptive_settings("adaptive")
        assert isinstance(settings, AdaptiveSettings)
        assert settings.confidence == 0.95
        assert settings.delta == pytest.approx(0.05)

    def test_cap_defaults_to_twice_the_fixed_budget(self):
        assert resolve_adaptive_settings("adaptive").n_worlds_max == 400
        assert resolve_adaptive_settings("adaptive", n_samples=50).n_worlds_max == 100
        explicit = resolve_adaptive_settings("adaptive", n_worlds_max=64, n_samples=50)
        assert explicit.n_worlds_max == 64
        assert explicit.schedule() == chunk_schedule(64)

    def test_unknown_sampling_mode(self):
        with pytest.raises(
            InvalidParameterError,
            match=r"sampling must be one of \('fixed', 'adaptive'\), got 'bogus'",
        ):
            resolve_adaptive_settings("bogus")
        assert SAMPLING_MODES == ("fixed", "adaptive")

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_confidence_out_of_range(self, bad):
        with pytest.raises(
            InvalidParameterError,
            match=rf"confidence must be a finite value in \(0, 1\), got {bad!r}",
        ):
            resolve_adaptive_settings("adaptive", confidence=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_confidence_must_be_finite(self, bad):
        with pytest.raises(InvalidParameterError, match="confidence must be a finite number"):
            resolve_adaptive_settings("adaptive", confidence=bad)

    @pytest.mark.parametrize("bad", [0, -5, True, 2.5, "16"])
    def test_n_worlds_max_must_be_a_positive_int(self, bad):
        with pytest.raises(
            InvalidParameterError, match="n_worlds_max must be a positive integer"
        ):
            resolve_adaptive_settings("adaptive", n_worlds_max=bad)

    def test_chunk_knob_validation(self):
        with pytest.raises(
            InvalidParameterError,
            match="chunk_initial must be a positive integer, got 0",
        ):
            resolve_adaptive_settings("adaptive", chunk_initial=0)
        with pytest.raises(
            InvalidParameterError,
            match="chunk_growth must be a finite value >= 1, got 0.9",
        ):
            resolve_adaptive_settings("adaptive", chunk_growth=0.9)
        with pytest.raises(
            InvalidParameterError, match="chunk_growth must be a finite number"
        ):
            resolve_adaptive_settings("adaptive", chunk_growth=float("nan"))

    def test_fixed_mode_still_validates_the_knobs(self):
        # Bad knobs fail fast even when adaptive is off: a typo'd confidence
        # should never ride along silently.
        with pytest.raises(InvalidParameterError):
            resolve_adaptive_settings("fixed", confidence=1.5)

    @pytest.mark.parametrize("n_samples", [0, -3])
    @pytest.mark.parametrize("sampling", ["fixed", "adaptive"])
    def test_n_samples_errors_name_n_samples(self, n_samples, sampling):
        # Checked by name before the adaptive cap (2 × n_samples) is derived
        # from it, so the message names the knob the caller passed.
        message = f"^n_samples must be a positive integer, got {n_samples}$"
        with pytest.raises(InvalidParameterError, match=message):
            resolve_adaptive_settings(sampling, n_samples=n_samples)
        for run in (global_nucleus_decomposition, weak_nucleus_decomposition):
            with pytest.raises(InvalidParameterError, match=message):
                run(_driver_graph(), k=1, theta=0.4, n_samples=n_samples, sampling=sampling)

    @pytest.mark.parametrize("n_samples", [2.5, True, 0])
    def test_n_samples_is_named_before_the_cap(self, n_samples):
        # Checked before the cap 2 × n_samples is derived from it, so 2.5 is
        # not reported as an n_worlds_max of 5.0.
        message = f"^n_samples must be a positive integer, got {n_samples!r}$"
        for sampling in SAMPLING_MODES:
            with pytest.raises(InvalidParameterError, match=message):
                resolve_adaptive_settings(sampling, n_samples=n_samples)

    def test_run_config_sampling_kwargs(self):
        assert RunConfig().sampling_kwargs() == {}
        assert RunConfig(sampling="adaptive", confidence=0.9).sampling_kwargs() == {
            "sampling": "adaptive",
            "confidence": 0.9,
        }
        assert RunConfig(sampling="adaptive", n_worlds_max=64).sampling_kwargs() == {
            "sampling": "adaptive",
            "confidence": 0.95,
            "n_worlds_max": 64,
        }


class TestAdaptiveGlobalVerify:
    def test_certain_clique_accepts_after_one_chunk(self):
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
        settings = AdaptiveSettings(confidence=0.95, n_worlds_max=400)
        passes, outcome = adaptive_global_verify(index, 1, 0.5, settings, seed=0)
        assert passes is True
        assert outcome == AdaptiveOutcome(worlds=16, chunks=1, early_stop=True)

    def test_hopeless_clique_rejects_after_one_chunk(self):
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=0.01))
        settings = AdaptiveSettings(confidence=0.95, n_worlds_max=400)
        passes, outcome = adaptive_global_verify(index, 1, 0.5, settings, seed=0)
        assert passes is False
        assert outcome == AdaptiveOutcome(worlds=16, chunks=1, early_stop=True)

    def test_point_estimate_decides_at_the_cap(self):
        # n_worlds_max=8 truncates the first chunk to 8 worlds; at θ = 0.6 the
        # stage-1 radius (≈0.56) cannot settle either direction, so the point
        # estimate (1.0 ≥ 0.6) decides and early_stop stays False.
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
        settings = AdaptiveSettings(confidence=0.95, n_worlds_max=8)
        assert settings.schedule() == (8,)
        passes, outcome = adaptive_global_verify(index, 1, 0.6, settings, seed=0)
        assert passes is True
        assert outcome == AdaptiveOutcome(worlds=8, chunks=1, early_stop=False)

    def test_triangle_free_candidate_fails_without_sampling(self):
        graph = clique_graph(2, probability=1.0)  # a single edge
        index = CandidateWorldIndex.from_graph(graph)
        settings = AdaptiveSettings()
        passes, outcome = adaptive_global_verify(index, 1, 0.5, settings, seed=0)
        assert passes is False
        assert outcome == AdaptiveOutcome(worlds=0, chunks=0, early_stop=True)

    def test_deterministic_per_seed(self):
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=0.8))
        settings = AdaptiveSettings(confidence=0.95, n_worlds_max=400)
        first = adaptive_global_verify(index, 1, 0.4, settings, seed=7)
        second = adaptive_global_verify(index, 1, 0.4, settings, seed=7)
        assert first == second


class TestLastChunk:
    """The point estimate decides at the last chunk; no radius is computed there."""

    def test_fixed_schedule_computes_no_radius_and_counts_as_exhausted(self, monkeypatch):
        def no_radius(*args):
            raise AssertionError("the one-chunk fixed schedule computed a radius")

        monkeypatch.setattr(adaptive_module, "decision_radius", no_radius)
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
        settings = resolve_adaptive_settings("fixed", n_samples=150)
        exhausted = AdaptiveOutcome(worlds=150, chunks=1, early_stop=False)
        assert adaptive_global_verify(index, 1, 0.5, settings, seed=0) == (True, exhausted)
        means, qualifying, outcome = adaptive_weak_scores(index, 1, 0.5, settings, seed=0)
        np.testing.assert_allclose(means, 1.0)
        assert qualifying.all() and outcome == exhausted

    def test_bounds_settling_only_at_the_last_chunk_count_as_exhausted(self):
        # θ = 0.7 on a certain K4: the stage-1 radius (≈0.40 over 16 worlds)
        # cannot settle it and the stage-2 radius (≈0.25 over 48) could, but
        # stage 2 is the last chunk, where the point estimate decides.
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
        settings = AdaptiveSettings(confidence=0.95, n_worlds_max=48)
        assert settings.schedule() == (16, 32)
        exhausted = AdaptiveOutcome(worlds=48, chunks=2, early_stop=False)
        assert adaptive_global_verify(index, 1, 0.7, settings, seed=0) == (True, exhausted)
        _, qualifying, outcome = adaptive_weak_scores(index, 1, 0.7, settings, seed=0)
        assert qualifying.all() and outcome == exhausted


class TestAdaptiveWeakScores:
    def test_certain_clique_settles_every_triangle_in_one_chunk(self):
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
        settings = AdaptiveSettings(confidence=0.95, n_worlds_max=400)
        means, qualifying, outcome = adaptive_weak_scores(index, 1, 0.5, settings, seed=0)
        assert means.shape == qualifying.shape == (index.num_triangles,)
        np.testing.assert_allclose(means, 1.0)
        assert qualifying.all()
        assert outcome == AdaptiveOutcome(worlds=16, chunks=1, early_stop=True)

    def test_point_estimates_decide_undecided_triangles_at_the_cap(self):
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
        settings = AdaptiveSettings(confidence=0.95, n_worlds_max=8)
        means, qualifying, outcome = adaptive_weak_scores(index, 1, 0.6, settings, seed=0)
        np.testing.assert_allclose(means, 1.0)
        assert qualifying.all()
        assert outcome == AdaptiveOutcome(worlds=8, chunks=1, early_stop=False)

    def test_empty_candidate(self):
        index = CandidateWorldIndex.from_graph(clique_graph(2, probability=1.0))
        means, qualifying, outcome = adaptive_weak_scores(
            index, 1, 0.5, AdaptiveSettings(), seed=0
        )
        assert means.size == 0 and qualifying.size == 0
        assert outcome == AdaptiveOutcome(worlds=0, chunks=0, early_stop=True)

    def test_deterministic_per_seed(self):
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=0.8))
        settings = AdaptiveSettings(confidence=0.95, n_worlds_max=400)
        m1, q1, o1 = adaptive_weak_scores(index, 1, 0.4, settings, seed=3)
        m2, q2, o2 = adaptive_weak_scores(index, 1, 0.4, settings, seed=3)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(q1, q2)
        assert o1 == o2


class TestDriverIntegration:

    def test_sampling_fixed_is_the_default_global(self):
        graph = _driver_graph()
        kwargs = dict(k=1, theta=0.4, n_samples=60, seed=7)
        default = global_nucleus_decomposition(graph, **kwargs)
        explicit = global_nucleus_decomposition(graph, sampling="fixed", **kwargs)
        assert _nuclei_key(default) == _nuclei_key(explicit)

    def test_sampling_fixed_is_the_default_weak(self):
        graph = _driver_graph()
        kwargs = dict(k=1, theta=0.4, n_samples=60, seed=7)
        default = weak_nucleus_decomposition(graph, **kwargs)
        explicit = weak_nucleus_decomposition(graph, sampling="fixed", **kwargs)
        assert _nuclei_key(default) == _nuclei_key(explicit)

    @pytest.mark.parametrize("run", [global_nucleus_decomposition, weak_nucleus_decomposition])
    def test_adaptive_deterministic_per_seed(self, run):
        graph = _driver_graph()
        kwargs = dict(k=1, theta=0.4, n_samples=60, seed=11, sampling="adaptive")
        assert _nuclei_key(run(graph, **kwargs)) == _nuclei_key(run(graph, **kwargs))

    @pytest.mark.parametrize("run", [global_nucleus_decomposition, weak_nucleus_decomposition])
    def test_bad_knobs_fail_before_sampling(self, run):
        with pytest.raises(InvalidParameterError, match="confidence must be"):
            run(
                _driver_graph(),
                k=1,
                theta=0.4,
                sampling="adaptive",
                confidence=1.0,
            )


class TestTelemetry:
    @staticmethod
    def _state(model):
        histogram = obs_registry.histogram(
            "repro_sampling_worlds_per_candidate",
            buckets=WORLD_COUNT_BUCKETS,
            model=model,
        )
        early = obs_registry.counter("repro_sampling_early_stops_total", model=model)
        exhausted = obs_registry.counter("repro_sampling_exhausted_total", model=model)
        return histogram.count, histogram.sum, early.value, exhausted.value

    def _run_both(self):
        index = CandidateWorldIndex.from_graph(clique_graph(4, probability=1.0))
        adaptive_global_verify(index, 1, 0.5, AdaptiveSettings(n_worlds_max=400), seed=0)
        adaptive_global_verify(index, 1, 0.6, AdaptiveSettings(n_worlds_max=8), seed=0)

    def test_counters_and_histogram_record_when_enabled(self):
        was_enabled = obs_config.enabled()
        obs_config.configure(enabled=True)
        try:
            count0, sum0, early0, exhausted0 = self._state("global")
            self._run_both()
            count1, sum1, early1, exhausted1 = self._state("global")
        finally:
            obs_config.configure(enabled=was_enabled)
        assert count1 - count0 == 2
        assert sum1 - sum0 == pytest.approx(16 + 8)
        assert early1 - early0 == 1  # the θ=0.5 accept settled in chunk 1
        assert exhausted1 - exhausted0 == 1  # the capped run fell to the point estimate

    def test_silent_when_disabled(self):
        was_enabled = obs_config.enabled()
        obs_config.configure(enabled=False)
        try:
            before = self._state("global")
            self._run_both()
            after = self._state("global")
        finally:
            obs_config.configure(enabled=was_enabled)
        assert after == before

    def test_worlds_histogram_visible_in_snapshots(self):
        was_enabled = obs_config.enabled()
        obs_config.configure(enabled=True)
        try:
            self._run_both()
            snapshot = obs_registry.snapshot()
        finally:
            obs_config.configure(enabled=was_enabled)
        names = {metric["name"] for metric in snapshot["metrics"]}
        assert "repro_sampling_worlds_per_candidate" in names
        assert "repro_sampling_early_stops_total" in names
        assert "repro_sampling_exhausted_total" in names

    def test_world_count_buckets_are_powers_of_two(self):
        assert WORLD_COUNT_BUCKETS == tuple(float(2**i) for i in range(15))
        assert all(
            math.log2(bucket) == int(math.log2(bucket)) for bucket in WORLD_COUNT_BUCKETS
        )
