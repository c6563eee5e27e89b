"""Tests for the observability layer (repro.obs) and its instrumentation.

Four concerns are pinned here:

* **Registry semantics** — get-or-create identity, kind conflicts, counter
  monotonicity, histogram bucketing/quantiles, and the disabled-mode
  contract (mutators are no-ops, ``snapshot()`` carries no metrics,
  ``render_prometheus()`` is the empty string).
* **Spans** — per-thread nesting into a trace tree, decorator form, error
  tagging, the child cap, and ``capture()`` isolation/restoration.
* **Instrumented layers** — the peel engine, the sampling verifier, index
  save/load/build, the query cache, the experiment pipeline artifact, and
  the serve-time ``stats`` operation all emit their documented metrics.
* **Overhead** — with telemetry disabled, the instrumented peel engine
  stays within a loose factor of nothing-at-all (the tight 3% pin lives in
  ``benchmarks/bench_peel_engine.py --max-obs-overhead``, gated in CI).
"""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

import repro
from repro.core.approximations import PoissonEstimator
from repro.core.local import local_nucleus_decomposition
from repro.exceptions import InvalidParameterError
from repro.experiments.pipeline import RunConfig, run_spec
from repro.experiments.registry import get_spec
from repro.graph.generators import planted_nucleus_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index import build_local_index
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    InMemorySink,
    JsonlSink,
    capture,
    configure,
    drain_traces,
    enabled,
    recent_traces,
    render_prometheus,
    set_sink,
    snapshot,
    span,
    timer,
)
from repro.obs import config as obs_config
from repro.obs.spans import MAX_CHILDREN
from repro.query.cache import LRUCache
from repro.serve import BatchingConfig, QueryService

THETA = 0.4


@pytest.fixture(autouse=True)
def _isolated_registry():
    """Every test starts disabled with an empty registry and a fresh sink."""
    REGISTRY.reset()
    configure(enabled=False)
    set_sink(InMemorySink())
    yield
    REGISTRY.reset()
    configure(enabled=False)
    set_sink(InMemorySink())


@pytest.fixture(scope="module")
def graph():
    return planted_nucleus_graph(
        num_communities=2,
        community_size=6,
        intra_density=1.0,
        background_vertices=6,
        background_density=0.15,
        bridges_per_community=2,
        probability_model=lambda rng: 0.9,
        seed=7,
    )


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_identity_and_monotonicity(self):
        configure(enabled=True)
        c1 = REGISTRY.counter("events_total", "Events.", kind="a")
        c2 = REGISTRY.counter("events_total", kind="a")
        c3 = REGISTRY.counter("events_total", kind="b")
        assert c1 is c2 and c1 is not c3
        c1.inc()
        c1.inc(2.5)
        assert c1.value == 3.5 and c3.value == 0.0
        with pytest.raises(InvalidParameterError):
            c1.inc(-1)

    def test_kind_conflict_raises(self):
        configure(enabled=True)
        REGISTRY.counter("thing")
        with pytest.raises(InvalidParameterError):
            REGISTRY.gauge("thing")
        with pytest.raises(InvalidParameterError):
            REGISTRY.histogram("thing")

    def test_gauge_set_inc_dec(self):
        configure(enabled=True)
        g = REGISTRY.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_histogram_buckets_and_quantiles(self):
        configure(enabled=True)
        h = REGISTRY.histogram("latency_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.002, 0.002, 0.05, 5.0):
            h.observe(value)
        assert h.count == 5
        assert h.bucket_counts == (1, 2, 1, 1)  # last slot = overflow
        assert h.quantile(0.5) == 0.01
        assert h.quantile(0.99) == 0.1  # overflow clamps to the last bound
        with pytest.raises(InvalidParameterError):
            h.quantile(0.0)

    def test_histogram_rejects_bad_buckets(self):
        configure(enabled=True)
        with pytest.raises(InvalidParameterError):
            REGISTRY.histogram("bad", buckets=())
        with pytest.raises(InvalidParameterError):
            REGISTRY.histogram("bad2", buckets=(1.0, 1.0))

    def test_default_latency_buckets_are_exponential(self):
        assert len(DEFAULT_LATENCY_BUCKETS) == 23
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(10e-6)
        for a, b in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:]):
            assert b == pytest.approx(2.0 * a)

    def test_disabled_mutators_are_noops(self):
        assert not enabled()
        c = REGISTRY.counter("quiet_total")
        h = REGISTRY.histogram("quiet_seconds")
        g = REGISTRY.gauge("quiet_depth")
        c.inc(100)
        h.observe(1.0)
        g.set(7)
        assert c.value == 0.0 and h.count == 0 and g.value == 0.0

    def test_disabled_snapshot_and_exposition_are_empty(self):
        configure(enabled=True)
        REGISTRY.counter("events_total").inc()
        configure(enabled=False)
        assert snapshot() == {"enabled": False, "metrics": []}
        assert render_prometheus() == ""

    def test_snapshot_schema(self):
        configure(enabled=True)
        REGISTRY.counter("events_total", "Events.", op="ping").inc(3)
        h = REGISTRY.histogram("latency_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        payload = snapshot()
        assert payload["enabled"] is True
        by_name = {entry["name"]: entry for entry in payload["metrics"]}
        counter = by_name["events_total"]
        assert counter["type"] == "counter"
        assert counter["labels"] == {"op": "ping"}
        assert counter["value"] == 3.0
        hist = by_name["latency_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.55)
        assert hist["buckets"] == [[0.1, 1], [1.0, 2]]  # cumulative
        assert hist["p50"] == 0.1 and hist["p99"] == 1.0
        json.dumps(payload)  # JSON-safe end to end

    def test_prometheus_exposition_schema(self):
        configure(enabled=True)
        REGISTRY.counter("events_total", "Things that happened.", op="a").inc(2)
        REGISTRY.histogram("lat_seconds", "Latency.", buckets=(0.5,)).observe(0.1)
        text = render_prometheus()
        assert "# HELP events_total Things that happened." in text
        assert "# TYPE events_total counter" in text
        assert 'events_total{op="a"} 2' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_counters_are_monotonic_across_scrapes(self):
        configure(enabled=True)
        counter = REGISTRY.counter("events_total", op="a")

        def scrape() -> int:
            for line in render_prometheus().splitlines():
                if line.startswith("events_total{"):
                    return int(line.rsplit(" ", 1)[1])
            raise AssertionError("series missing")

        counter.inc(3)
        first = scrape()
        counter.inc(2)
        second = scrape()
        assert (first, second) == (3, 5)

    def test_merge_snapshot_accumulates(self):
        configure(enabled=True)
        REGISTRY.counter("events_total", op="a").inc(3)
        h = REGISTRY.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)  # overflow
        payload = snapshot()
        REGISTRY.counter("events_total", op="a").inc(1)
        REGISTRY.merge_snapshot(payload)
        assert REGISTRY.counter("events_total", op="a").value == 7.0
        merged = REGISTRY.histogram("lat_seconds", buckets=(0.1, 1.0))
        assert merged.count == 4
        assert merged.bucket_counts == (2, 0, 2)
        assert merged.sum == pytest.approx(2 * 5.05)

    def test_merge_snapshot_into_empty_registry(self):
        configure(enabled=True)
        REGISTRY.counter("events_total").inc(2)
        REGISTRY.gauge("depth").set(4)
        payload = snapshot()
        REGISTRY.reset()
        REGISTRY.merge_snapshot(payload)
        assert REGISTRY.counter("events_total").value == 2.0
        assert REGISTRY.gauge("depth").value == 4.0

    def test_merge_snapshot_disabled_is_noop(self):
        configure(enabled=True)
        REGISTRY.counter("events_total").inc(2)
        payload = snapshot()
        configure(enabled=False)
        REGISTRY.merge_snapshot(payload)
        configure(enabled=True)
        assert REGISTRY.counter("events_total").value == 2.0

    def test_reset_drops_everything(self):
        configure(enabled=True)
        REGISTRY.counter("events_total").inc()
        REGISTRY.reset()
        assert snapshot()["metrics"] == []


# --------------------------------------------------------------------------- #
# spans, capture, timer
# --------------------------------------------------------------------------- #
class TestSpans:
    def test_nesting_builds_a_tree(self):
        with capture(enable=True) as sink:
            with span("outer", stage="x"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        (trace,) = sink.traces()
        assert trace["name"] == "outer"
        assert trace["attrs"] == {"stage": "x"}
        assert [child["name"] for child in trace["children"]] == ["inner", "inner2"]
        assert trace["wall_seconds"] >= 0.0

    def test_span_feeds_latency_histogram(self):
        with capture(enable=True):
            with span("phase"):
                pass
        h = REGISTRY.histogram("repro_span_seconds", span="phase")
        assert h.count == 1

    def test_decorator_and_error_tagging(self):
        @span("boom")
        def explode():
            raise ValueError("no")

        with capture(enable=True) as sink:
            with pytest.raises(ValueError):
                explode()
        (trace,) = sink.traces()
        assert trace["name"] == "boom" and trace["error"] == "ValueError"

    def test_disabled_span_emits_nothing(self):
        with span("ghost"):
            pass
        assert recent_traces() == []
        assert REGISTRY.histogram("repro_span_seconds", span="ghost").count == 0

    def test_child_cap(self):
        with capture(enable=True) as sink:
            with span("parent"):
                for _ in range(MAX_CHILDREN + 5):
                    with span("child"):
                        pass
        (trace,) = sink.traces()
        assert len(trace["children"]) == MAX_CHILDREN
        assert trace["attrs"]["dropped_children"] == 5

    def test_capture_restores_sink_and_switch(self):
        outer = InMemorySink()
        set_sink(outer)
        assert not enabled()
        with capture(enable=True) as sink:
            assert enabled()
            with span("inside"):
                pass
        assert not enabled()
        assert sink.traces() and outer.traces() == []
        with span("after"):
            pass
        assert outer.traces() == []  # still disabled

    def test_drain_traces(self):
        with capture(enable=True):
            pass  # capture swaps the sink; use the global helpers instead
        configure(enabled=True)
        with span("kept"):
            pass
        assert [t["name"] for t in recent_traces()] == ["kept"]
        assert [t["name"] for t in drain_traces()] == ["kept"]
        assert recent_traces() == []

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        set_sink(JsonlSink(str(path)))
        configure(enabled=True)
        with span("filed", n=1):
            pass
        (line,) = path.read_text().splitlines()
        trace = json.loads(line)
        assert trace["name"] == "filed" and trace["attrs"] == {"n": 1}

    def test_timer_measures_and_works_disabled(self):
        assert not enabled()
        with timer() as t:
            sum(range(1000))
        assert t.seconds > 0.0


# --------------------------------------------------------------------------- #
# instrumented layers
# --------------------------------------------------------------------------- #
class TestInstrumentation:
    def test_peel_counters_csr(self, graph):
        with capture(enable=True):
            local_nucleus_decomposition(graph, THETA)
        pops = REGISTRY.counter("repro_peel_pops_total")
        assert pops.value > 0

    def test_peel_round_counters_on_a_hand_graph(self):
        # A K4 whose edge (0, 1) is unlikely.  At θ = 0.5 the two triangles
        # on that edge fall below θ and peel first (round 1), killing the
        # one 4-clique; the other two step their bounds 0 → −1 (two bound
        # steps) and are recomputed exactly (round 2: κ = 0, above the
        # level), then peel at level 0 (round 3).
        graph = ProbabilisticGraph(
            [(0, 1, 0.1), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
        )
        with capture(enable=True) as sink:
            result = local_nucleus_decomposition(graph, 0.5)
        assert sorted(result.scores.values()) == [-1, -1, 0, 0]
        assert REGISTRY.counter("repro_peel_pops_total").value == 4
        assert REGISTRY.counter("repro_peel_rounds_total").value == 3
        assert REGISTRY.counter("repro_peel_repairs_total", repair="dp").value == 2
        assert REGISTRY.counter("repro_peel_deferrals_total").value == 2
        (peel,) = [trace for trace in sink.traces() if trace["name"] == "peel"]
        assert peel["attrs"]["queue"] == "rounds"

    def test_localized_repair_counters_on_a_hand_graph(self):
        # A certain K5 at θ = 0.5: every triangle lies in two 4-cliques, ν = 2.
        # Deleting (0, 1) kills three triangles and three cliques, leaving two
        # K4s that share (2, 3, 4).  Its six other triangles are the seeds,
        # and each only lost a clique, so all six are lowered: no closure
        # round runs.  The first fixed-point round recomputes the six at
        # their base score 2 over their one surviving clique, gets κ 1 and
        # settles them there, and queues the shared triangle.  The second
        # steps it from 2 (both cliques dead at that level, κ 0) to its
        # survival threshold 1, where both cliques live and κ is 2, so it
        # settles at 1: 6 + 1 + 1 = 8 rows.
        graph = ProbabilisticGraph([(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)])
        index = build_local_index(graph, 0.5)
        counts = (
            "repro_peel_localized_seeds_total",
            "repro_peel_localized_repairs_total",
            "repro_peel_localized_rounds_total",
        )
        with capture(enable=True) as sink:
            index = index.apply_updates([("delete", 0, 1)])
        assert index.arrays["triangle_scores"].tolist() == [1] * 7
        assert [REGISTRY.counter(name).value for name in counts] == [6, 8, 2]
        (update,) = sink.traces()
        (repair,) = [child for child in update["children"] if child["name"] == "peel.repair"]
        assert repair["attrs"] == {"seeds": 6, "closure": 0, "rounds": 2}
        # Re-inserting it: the three newborn triangles and the six members of
        # the new cliques are seeds; every initial κ is 2, above the shared
        # triangle's base score 1, so a second closure round admits it and
        # one fixed-point round confirms all ten at 2: 10 + 10 rows.
        REGISTRY.reset()
        with capture(enable=True) as sink:
            index = index.apply_updates([("insert", 0, 1, 1.0)])
        assert index.arrays["triangle_scores"].tolist() == [2] * 10
        assert [REGISTRY.counter(name).value for name in counts] == [9, 20, 3]
        (update,) = sink.traces()
        (repair,) = [child for child in update["children"] if child["name"] == "peel.repair"]
        assert repair["attrs"] == {"seeds": 9, "closure": 10, "rounds": 3}

    def test_snapshot_counts_carried_and_regrouped_components(self):
        # A certain K5 on 0–4 (ν = 2: one component at each of levels 0–2)
        # beside a certain K4 on 10–13 (ν = 1: levels 0 and 1).  Deleting
        # (0, 1) leaves two K4s sharing (2, 3, 4), seven triangles at ν = 1:
        # the region, regrouped into one component at each of levels 0 and
        # 1, while the K4's two components are carried.  A re-price that
        # keeps every score re-prices the snapshot: all four carried.
        edges = [(u, v, 1.0) for u, v in itertools.combinations(range(5), 2)]
        edges += [(u, v, 1.0) for u, v in itertools.combinations(range(10, 14), 2)]
        index = build_local_index(ProbabilisticGraph(edges), 0.5)
        assert index.num_components == 5
        with capture(enable=True) as sink:
            index = index.apply_updates([("delete", 0, 1)])
            index.apply_updates([("change", 10, 11, 0.9)])
        snapshots = [
            child["attrs"]
            for update in sink.traces()
            for child in update["children"]
            if child["name"] == "index.snapshot"
        ]
        assert snapshots == [
            {"carried": 2, "regrouped": 2, "region_rows": 7},
            {"carried": 4, "regrouped": 0, "region_rows": 0},
        ]

    def test_incremental_update_trace_tree(self):
        # K5 on 0–4 plus vertex 5 on 0, 1 and 2.  One batch inserts (3, 5),
        # deletes (0, 4) and re-prices (1, 2); the splice reports what a
        # fresh build of the updated graph adds and removes, and the
        # postings of the three surviving 4-cliques on (1, 2).
        edges = {(u, v): 0.9 for u in range(5) for v in range(u + 1, 5)}
        edges.update({(0, 5): 0.8, (1, 5): 0.8, (2, 5): 0.8})
        index = build_local_index(ProbabilisticGraph([(*e, p) for e, p in edges.items()]), 0.3)
        batch = [("insert", 3, 5, 0.7), ("delete", 0, 4), ("change", 1, 2, 0.6)]
        after = {**edges, (3, 5): 0.7, (1, 2): 0.6}
        del after[(0, 4)]

        def structures(graph_edges, size):
            return {
                frozenset(group)
                for group in itertools.combinations(range(6), size)
                if all(pair in graph_edges for pair in itertools.combinations(group, 2))
            }

        old_cliques, new_cliques = structures(edges, 4), structures(after, 4)
        expected = {
            "born_triangles": len(structures(after, 3) - structures(edges, 3)),
            "dead_triangles": len(structures(edges, 3) - structures(after, 3)),
            "born_cliques": len(new_cliques - old_cliques),
            "dead_cliques": len(old_cliques - new_cliques),
            "repriced_postings": 4 * sum({1, 2} <= q for q in old_cliques & new_cliques),
        }
        assert expected == {
            "born_triangles": 3,
            "dead_triangles": 3,
            "born_cliques": 3,
            "dead_cliques": 3,
            "repriced_postings": 12,
        }
        with capture(enable=True) as sink:
            updated = index.apply_updates(batch)
        (update,) = sink.traces()
        assert update["name"] == "index.update"
        names = [child["name"] for child in update["children"]]
        assert names == ["index.splice", "peel.repair", "index.snapshot"]
        assert update["children"][0]["attrs"] == expected
        with capture() as sink:
            updated.apply_updates([("change", 1, 2, 0.5)])
        assert sink.traces() == []

    def test_heap_peel_reports_its_queue(self, graph):
        with capture(enable=True) as sink:
            result = local_nucleus_decomposition(graph, THETA, estimator=PoissonEstimator())
            names = {metric["name"] for metric in snapshot()["metrics"]}
        (peel,) = [trace for trace in sink.traces() if trace["name"] == "peel"]
        assert peel["attrs"]["queue"] == "heap"
        assert "repro_peel_pops_total" in names
        assert "repro_peel_rounds_total" not in names
        assert REGISTRY.counter("repro_peel_pops_total").value == len(result.scores)

    def test_index_build_trace_nests_peel(self, graph):
        with capture(enable=True) as sink:
            repro.build_index(graph, mode="local", theta=THETA)
        (trace,) = sink.traces()
        assert trace["name"] == "index.build"
        assert "peel" in {child["name"] for child in trace["children"]}

    def test_index_save_load_metrics(self, graph, tmp_path):
        index = build_local_index(graph, THETA)
        path = tmp_path / "g.idx.npz"
        with capture(enable=True):
            index.save(path, compress=False)
            repro.load_index(path)
        assert REGISTRY.counter("repro_index_loads_total", mmap=False).value == 1
        assert REGISTRY.histogram("repro_index_save_seconds", compress=False).count == 1

    def test_sampling_worlds_counter(self):
        import numpy as np

        from repro.sampling.world_matrix import sample_world_matrix

        probabilities = np.full(20, 0.5)
        with capture(enable=True):
            sample_world_matrix(probabilities, 8, seed=0)
        assert REGISTRY.counter("repro_sampling_worlds_total").value == 8

    def test_sampling_verify_spans_count_their_candidates(self, graph):
        # At k = 2 the 20 seeds of each community grow one edge set: two runs,
        # each verified as one batch of 20 · 30 stacked worlds.  At k = 1 the
        # 40 distinct candidates share one block of 30 worlds; weak verifies
        # its candidates one by one.
        def spans(mode, k):
            with capture(enable=True) as sink:
                repro.decompose(graph, mode=mode, theta=THETA, k=k, n_samples=30, seed=0)
            return [t["attrs"] for t in sink.traces() if t["name"] == "sampling.verify"]

        runs = spans("global", 2)
        assert [(a["model"], a["worlds"], a["candidates"]) for a in runs] == [
            ("global", 600, 20),
            ("global", 600, 20),
        ]
        shared = spans("global", 1)
        assert [(a["worlds"], a["candidates"]) for a in shared] == [(30, 40)]
        sampled = REGISTRY.counter("repro_sampling_candidates_total", model="global").value
        assert sampled == 20 + 20 + 40
        weak = spans("weak", 1)
        assert weak and all((a["worlds"], a["candidates"]) == (30, 1) for a in weak)

    def test_global_closures_span_counts_seeds_candidates_and_rounds(self, graph):
        # Each community is a K6 of 20 triangles: 40 seeds, grown in one
        # batch, each to a 4-clique set of its own.  At k = 1 a seed's closure
        # is its three 4-cliques (one round); at k = 2 a second round finds
        # that the 4-cliques added through its deficient triangles (the 12
        # holding two of its vertices) cover every new triangle twice.
        def closure_spans(k):
            with capture(enable=True) as sink:
                repro.decompose(graph, mode="global", theta=THETA, k=k, n_samples=30, seed=0)
            return [t["attrs"] for t in sink.traces() if t["name"] == "global.closures"]

        assert closure_spans(1) == [{"seeds": 40, "candidates": 40, "rounds": 1}]
        assert closure_spans(2) == [{"seeds": 40, "candidates": 40, "rounds": 2}]

    def test_local_nuclei_span_counts_nuclei_and_triangles(self, graph):
        # Each community is a K6 of 20 triangles, and both stay 4-clique
        # connected up to the top level, 2.  The first call sweeps every
        # level; the later ones only translate their level.  The global and
        # weak decompositions read their candidates through their own
        # accessor: no span.
        result = repro.decompose(graph, mode="local", theta=THETA)
        with capture(enable=True) as sink:
            for k in (1, 1, 2, 3):
                result.nuclei(k)
            for mode in ("global", "weak"):
                repro.decompose(
                    graph, mode=mode, theta=THETA, k=1, n_samples=30, seed=0,
                    local_result=result,
                )

        def spans(trace):
            yield trace
            for child in trace["children"]:
                yield from spans(child)

        found = [s for t in sink.traces() for s in spans(t) if s["name"] == "local.nuclei"]
        assert [s["attrs"] for s in found] == [
            {"k": 1, "nuclei": 2, "triangles": 40, "swept": True},
            {"k": 1, "nuclei": 2, "triangles": 40, "swept": False},
            {"k": 2, "nuclei": 2, "triangles": 40, "swept": False},
            {"k": 3, "nuclei": 0, "triangles": 0, "swept": False},
        ]

    def test_query_cache_bridge(self):
        cache = LRUCache(maxsize=2)
        with capture(enable=True):
            cache.put("a", 1)
            cache.get("a")
            cache.get("missing")
            cache.put("b", 2)
            cache.put("c", 3)  # evicts "a"
        assert REGISTRY.counter("repro_query_cache_hits_total").value == 1
        assert REGISTRY.counter("repro_query_cache_misses_total").value == 1
        assert REGISTRY.counter("repro_query_cache_evictions_total").value == 1
        assert cache.stats()["hit_rate"] == pytest.approx(0.5)

    def test_pipeline_artifact_carries_traces_and_obs(self):
        spec = get_spec("table1")
        with capture(enable=True):
            run = run_spec(
                spec,
                RunConfig(scale="tiny"),
                {"names": ("krogan",)},
            )
            artifact = run.to_artifact()
        assert artifact["obs"]["enabled"] is True
        assert {m["name"] for m in artifact["obs"]["metrics"]}
        for cell in artifact["cells"]:
            assert cell["trace"]["name"] == "pipeline.cell"
        json.dumps(artifact)

    def test_parallel_pipeline_merges_worker_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")  # workers read the env at import
        spec = get_spec("table1")
        with capture(enable=True):
            run = run_spec(
                spec,
                RunConfig(scale="tiny", n_jobs=2),
                {"names": ("krogan", "dblp")},
            )
            artifact = run.to_artifact()
        # The parent never runs cells in parallel mode, so this histogram
        # can only exist if the worker snapshots were merged back in.
        cell_spans = [
            m
            for m in artifact["obs"]["metrics"]
            if m["name"] == "repro_span_seconds"
            and m["labels"] == {"span": "pipeline.cell"}
        ]
        assert len(cell_spans) == 1
        assert cell_spans[0]["count"] == 2
        for cell in artifact["cells"]:
            assert cell["trace"]["name"] == "pipeline.cell"

    def test_pipeline_artifact_disabled_has_no_traces(self):
        spec = get_spec("table1")
        run = run_spec(
            spec, RunConfig(scale="tiny"), {"names": ("krogan",)}
        )
        artifact = run.to_artifact()
        assert artifact["obs"] == {"enabled": False, "metrics": []}
        assert all("trace" not in cell for cell in artifact["cells"])


# --------------------------------------------------------------------------- #
# serve-time stats operation
# --------------------------------------------------------------------------- #
class TestServeStats:
    @pytest.fixture()
    def service(self, graph):
        index = build_local_index(graph, THETA)
        return QueryService(
            index, batching=BatchingConfig(max_batch=8, max_linger=0.001)
        )

    def test_stats_op_json(self, service):
        async def run():
            await service.submit({"op": "ping", "id": 1})
            return await service.submit({"op": "stats", "id": 2})

        with capture(enable=True):
            response = asyncio.run(run())
        assert response["ok"] is True
        result = response["result"]
        assert result["service"]["requests"] == 2
        assert result["obs"]["enabled"] is True
        names = {m["name"] for m in result["obs"]["metrics"]}
        assert "repro_serve_requests_total" in names

    def test_stats_op_counters_advance(self, service):
        async def run(n):
            for i in range(n):
                await service.submit({"op": "ping", "id": i})

        def served_pings():
            for entry in snapshot()["metrics"]:
                if (
                    entry["name"] == "repro_serve_requests_total"
                    and entry["labels"] == {"op": "ping"}
                ):
                    return entry["value"]
            return 0.0

        with capture(enable=True):
            asyncio.run(run(3))
            first = served_pings()
            asyncio.run(run(2))
            second = served_pings()
        assert (first, second) == (3.0, 5.0)

    def test_stats_op_prometheus(self, service):
        async def run():
            await service.submit({"op": "ping", "id": 1})
            return await service.submit({"op": "stats", "format": "prometheus"})

        with capture(enable=True):
            response = asyncio.run(run())
        text = response["result"]
        assert isinstance(text, str)
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_requests_total{op="ping"} 1' in text

    def test_stats_op_disabled_payload_is_empty(self, service):
        async def run():
            await service.submit({"op": "ping", "id": 1})
            json_response = await service.submit({"op": "stats"})
            prom_response = await service.submit(
                {"op": "stats", "format": "prometheus"}
            )
            return json_response, prom_response

        json_response, prom_response = asyncio.run(run())
        assert json_response["result"]["obs"] == {"enabled": False, "metrics": []}
        assert json_response["result"]["service"]["requests"] >= 1
        assert prom_response["result"] == ""

    def test_stats_op_rejects_bad_format(self, service):
        response = asyncio.run(service.submit({"op": "stats", "format": "xml"}))
        assert response["ok"] is False
        assert response["error"]["type"] == "MalformedRequestError"

    def test_batching_histograms(self, service):
        async def run():
            await asyncio.gather(
                *(service.submit({"op": "max_score", "vertices": [0]}) for _ in range(4))
            )

        with capture(enable=True):
            asyncio.run(run())
        assert REGISTRY.histogram(
            "repro_serve_batch_size",
            buckets=tuple(float(2**i) for i in range(13)),
        ).count >= 1


# --------------------------------------------------------------------------- #
# facade + overhead
# --------------------------------------------------------------------------- #
class TestFacade:
    def test_obs_is_part_of_the_facade(self):
        assert "obs" in repro.__all__
        assert repro.obs.snapshot() == {"enabled": False, "metrics": []}
        assert repro.obs.render_prometheus() == ""

    def test_configure_round_trip(self):
        assert configure(enabled=True) is True
        assert obs_config.enabled() is True
        assert configure() is True  # read-only call leaves the switch alone
        assert configure(enabled=False) is False

    def test_disabled_peel_overhead_is_loose_bounded(self, graph):
        """Sanity pin only; the 3% gate runs in CI via bench_peel_engine."""
        import time as _time

        def best_of(repeats=5):
            best = float("inf")
            for _ in range(repeats):
                start = _time.perf_counter()
                local_nucleus_decomposition(graph, THETA)
                best = min(best, _time.perf_counter() - start)
            return best

        assert not enabled()
        assert best_of() < 5.0  # absolute sanity: tiny graph peels in well under 5 s
