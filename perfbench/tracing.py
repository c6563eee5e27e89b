"""In-memory span tracer and the registry of hooked library functions.

The traced run wraps public functions of each layer of ``repro`` from the
benchmark's own files: a function is replaced in every ``repro`` module
namespace that holds it (that is where the entry points look it up), a
method or classmethod on its class.  Nothing under ``src/`` changes.  Each
call records a span (name, start, end, parent, root); the benchmark opens one
root span per timed operation, so a span's root identifies the operation
that caused it.  A layer's self time is its spans' duration minus the part
their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from inputs import THETA


class Tracer:
    """Keeps spans and counters in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._candidates: set = set()
        self.active = True

    @contextmanager
    def paused(self):
        """Run the block untraced (output checks call hooked functions too)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = span_id if parent is None else self.spans[parent][4]
        if parent is None:
            self._candidates = set()
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        span_id = self.open(name)
        try:
            yield
        finally:
            self.close(span_id)

    def self_and_total(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: self seconds, inclusive seconds and span count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child_time[span_id]
            total[name] += end - start
            calls[name] += 1
        return own, total, calls

    def export(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "root": root}
            for i, (name, start, end, parent, root) in enumerate(self.spans)
        ]


# --------------------------------------------------------------------------- #
# per-call counters, computed from a hooked call's arguments and result
# --------------------------------------------------------------------------- #
def _enumerated(tracer, args, result):
    tracer.counts["batch.triangles"] += result.num_triangles
    tracer.counts["batch.cliques"] += result.num_cliques


def _nuclei(tracer, args, result):
    tracer.counts["result.nuclei_count"] += len(result)


def _closure(tracer, args, result):
    if result:
        tracer.counts["candidates.generated"] += 1
        key = frozenset(result)
        if key not in tracer._candidates:
            tracer._candidates.add(key)
            tracer.counts["candidates.distinct"] += 1


def _indexed(tracer, args, result):
    tracer.counts["sampling.index_edges"] += result.num_edges


def _sampled(tracer, args, result):
    worlds, edges = result.shape
    tracer.counts["sampling.worlds"] += worlds
    tracer.counts["sampling.world_bytes"] += worlds * edges  # one byte per bool cell


def _global_verified(tracer, args, result):
    worlds = args[1].shape[0]  # global_triangle_counts(index, worlds, k)
    tracer.counts["candidates.accepted"] += bool(np.all(result / worlds >= THETA))


def _weak_verified(tracer, args, result):
    worlds = args[1].shape[0]
    tracer.counts["candidates.accepted"] += bool(np.any(result / worlds >= THETA))


@dataclass(frozen=True)
class Hook:
    """One wrapped function: its span name, target and reported metrics."""

    span: str
    target: str  # "module:qualified.name"
    seconds: str | None  # metric of the span's self time
    calls: str | None = None  # metric of the span count
    count: Callable | None = None  # (tracer, args, result) -> None


_WM = "repro.sampling.world_matrix"
_ENGINE = "repro.query.engine:NucleusQueryEngine"

HOOKS: tuple[Hook, ...] = (
    Hook("graph.compile", "repro.graph.probabilistic_graph:ProbabilisticGraph.to_csr",
         "graph.compile_s", "graph.compile_calls"),
    Hook("graph.subgraph", "repro.graph.probabilistic_graph:ProbabilisticGraph.edge_subgraph",
         "graph.subgraph_s", "graph.subgraph_calls"),
    Hook("cliques.dict_index", "repro.deterministic.cliques:triangle_clique_index",
         "cliques.dict_index_s", "cliques.dict_index_calls"),
    Hook("nucleus.groups", "repro.deterministic.nucleus:k_nucleus_triangle_groups",
         "nucleus.groups_s"),
    Hook("batch.enumerate", "repro.core.batch:build_triangle_extension_index",
         "batch.enumerate_s", count=_enumerated),
    Hook("batch.kappa_init", "repro.core.batch:batched_initial_kappas", "batch.kappa_init_s"),
    Hook("peel", "repro.core.peel:peel_kappa_scores", "peel.s", "peel.calls"),
    Hook("peel.repair", "repro.core.peel:repair_kappa_scores",
         "peel.repair_s", "peel.repair_calls"),
    Hook("local", "repro.core.local:local_nucleus_decomposition", "local.self_s"),
    Hook("result.nuclei", "repro.core.result:LocalNucleusDecomposition.nuclei",
         None, "result.nuclei_calls", _nuclei),
    Hook("candidates.closure", "repro.core.global_nucleus:candidate_closure",
         "candidates.closure_s", count=_closure),
    Hook("global", "repro.core.global_nucleus:global_nucleus_decomposition", "global.self_s"),
    Hook("weak", "repro.core.weak_nucleus:weak_nucleus_decomposition", "weak.self_s"),
    Hook("sampling.index", f"{_WM}:CandidateWorldIndex.from_graph",
         "sampling.index_s", "sampling.index_calls", _indexed),
    Hook("sampling.sample", f"{_WM}:CandidateWorldIndex.sample", "sampling.sample_s",
         count=_sampled),
    Hook("sampling.global_verify", f"{_WM}:global_triangle_counts",
         "sampling.global_verify_s", count=_global_verified),
    Hook("sampling.weak_verify", f"{_WM}:weak_membership_counts",
         "sampling.weak_verify_s", count=_weak_verified),
    Hook("index.snapshot", "repro.index.nucleus_index:NucleusIndex.from_triangle_arrays",
         "index.snapshot_s"),
    Hook("index.update", "repro.index.incremental:apply_updates",
         "index.update_s", "index.update_calls"),
    Hook("query.max_score", f"{_ENGINE}.max_score", "query.max_score_s",
         "query.max_score_calls"),
    Hook("query.contains", f"{_ENGINE}.contains", "query.contains_s", "query.contains_calls"),
    Hook("query.smallest_nucleus", f"{_ENGINE}.smallest_nucleus",
         "query.smallest_nucleus_s", "query.smallest_nucleus_calls"),
    Hook("query.nucleus_of", f"{_ENGINE}.nucleus_of", "query.nucleus_of_s",
         "query.nucleus_of_calls"),
    Hook("serve.refresh", "repro.serve.service:QueryService.refresh",
         "serve.refresh_s", "serve.refresh_calls"),
)

#: Counter metrics filled by the ``count`` callbacks above.
COUNTERS = (
    "batch.triangles", "batch.cliques", "result.nuclei_count", "candidates.generated",
    "candidates.distinct", "candidates.accepted", "sampling.index_edges",
    "sampling.worlds", "sampling.world_bytes",
)

#: Metrics the serve workload reads from the service itself.
SERVICE_METRICS = (
    "query.cache_hit_rate", "serve.batch_mean", "serve.fallback_batches", "serve.wait_p50_ms",
)

#: Hooks that must never fire on a workload family (``sampling`` off the
#: verify workloads; index maintenance, queries and serving on them).
IDLE = {
    "local-index": ("sampling.",),
    "serve-reload": ("sampling.",),
    "verify": ("index.", "query.", "serve."),
}


def _wrap(function, hook: Hook, tracer: Tracer):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not tracer.active:
            return function(*args, **kwargs)
        span_id = tracer.open(hook.span)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(span_id)
        if hook.count is not None:
            hook.count(tracer, args, result)
        return result

    return traced


class HookSet:
    """Installs the registry's hooks and restores the originals afterwards."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.unresolved: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for hook in HOOKS:
            try:
                self._install(hook)
            except (ImportError, AttributeError, KeyError) as exc:
                self.unresolved.append(f"{hook.target} ({type(exc).__name__}: {exc})")

    def _install(self, hook: Hook) -> None:
        module_name, qualname = hook.target.split(":")
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, hook, self.tracer))
            else:
                wrapped = _wrap(raw, hook, self.tracer)
            self._set(owner, attr, raw, wrapped)
            return
        function = getattr(owner, attr)
        wrapped = _wrap(function, hook, self.tracer)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is function:
                    self._set(module, key, value, wrapped)

    def _set(self, owner, attr, original, wrapped) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_metrics(tracer: Tracer, operations: int) -> dict:
    """Per-operation self seconds, call counts and counters of every hooked layer."""
    own, _, calls = tracer.self_and_total()
    metrics: dict[str, float] = {}
    for hook in HOOKS:
        if hook.seconds:
            metrics[hook.seconds] = own.get(hook.span, 0.0) / operations
        if hook.calls:
            metrics[hook.calls] = calls.get(hook.span, 0) / operations
    for name in COUNTERS:
        metrics[name] = tracer.counts.get(name, 0.0) / operations
    return metrics


def hook_calls(tracer: Tracer) -> dict[str, int]:
    """Total span count of every hook (zero for hooks that never fired)."""
    _, _, calls = tracer.self_and_total()
    return {hook.span: calls.get(hook.span, 0) for hook in HOOKS}


def per_layer_catalogue() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in report order."""
    entries = []
    for hook in HOOKS:
        if hook.seconds:
            entries.append((hook.seconds, "s"))
        if hook.calls:
            entries.append((hook.calls, "count"))
    entries += [(name, "bytes" if name.endswith("bytes") else "count") for name in COUNTERS]
    entries += [("query.cache_hit_rate", "ratio"), ("serve.batch_mean", "count"),
                ("serve.fallback_batches", "count"), ("serve.wait_p50_ms", "ms"),
                ("trace.overhead", "ratio")]
    higher = {"query.cache_hit_rate", "serve.batch_mean", "candidates.accepted"}
    return [{"name": name, "unit": unit, "better": "higher" if name in higher else "lower"}
            for name, unit in entries]
