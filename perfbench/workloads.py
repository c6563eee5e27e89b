"""The benchmark workloads: one timed operation each, on seeded inputs.

Each workload prepares its inputs (``prepare``), warms every timed code path
up once (``warm_up``), checks the warm-up output against the library's own
definitions (``reference_failures``) and then runs timed repetitions
(``run``).  A repetition returns the latency of each operation it timed, the
calibration time around each, the wall time of its timed part and the number
of output checks that failed.
Every repetition works on fresh objects: a new decomposition result, a new
index, a new service (``LocalNucleusDecomposition.nuclei`` caches per k and
the query engine has an LRU cache, so reusing either would time cache hits).
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.deterministic.cliques import canonical_triangle
from repro.deterministic.nucleus import is_k_nucleus
from repro.serve.protocol import execute

import inputs
from inputs import THETA

LOCAL = {"mode": "local", "theta": THETA, "backend": "csr"}

#: CPU-bound times are reported at calibration speed: the speed at which the
#: calibration task takes ``CALIBRATION_S`` (about its cost on an idle core
#: of the 2-vCPU Xeon host the bounds were set on).
CALIBRATION_S = 0.010
CALIBRATION_ITEMS = 12_000


def calibrate() -> float:
    """Seconds of a fixed CPU-bound task: dict inserts, a sort, a numpy sort.

    On a shared host the speed of this process's core changes within seconds
    (the same local decomposition took 190-360 ms within one 30 s window).
    The calibration task slows down with it: the ratio of an operation's time
    to the calibration time around it varied half as much as the time itself.
    The task runs three times and the median counts, to damp timer jitter.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(CALIBRATION_ITEMS):
            table[(i * 7919) % 100_003] = i
        sorted(table.items())
        np.sort((np.arange(4 * CALIBRATION_ITEMS) * 7919) % 100_003)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibrator:
    """Runs the calibration task between timed operations."""

    def __init__(self) -> None:
        self.last = calibrate()

    def bracket(self) -> float:
        """Mean calibration time before and after the operation just timed."""
        before, self.last = self.last, calibrate()
        return (before + self.last) / 2


@dataclass
class Rep:
    """What one timed repetition measured."""

    latencies: list[float]
    seconds: float
    attempted: int
    failed: int = 0
    service: dict = field(default_factory=dict)
    #: Calibration seconds around each timed operation (parallel to latencies).
    calibrations: list[float] = field(default_factory=list)


def _root(tracer, name: str):
    return nullcontext() if tracer is None else tracer.root(name)


def _untraced(tracer):
    return nullcontext() if tracer is None else tracer.paused()


def _edge_set(graph) -> frozenset:
    return frozenset((u, v) if u < v else (v, u) for u, v, _ in graph.edges())


def index_scores(index) -> dict:
    """The index's per-triangle scores keyed by canonical label triangles."""
    labels = index.vertex_labels
    rows = index.arrays["triangles"].tolist()
    scores = index.arrays["triangle_scores"].tolist()
    return {
        canonical_triangle(labels[a], labels[b], labels[c]): score
        for (a, b, c), score in zip(rows, scores)
    }


class Workload:
    name = ""
    family = ""
    why = ""
    #: Whether the timed operation is bound by this process's CPU, so that
    #: its times are reported at calibration speed.
    cpu_bound = True

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = size
        self.calibrator: Calibrator | None = None  # set before timed repetitions

    def _timed(self, tracer, name: str, call):
        """Run ``call`` inside a root span; return its result, seconds and bracket."""
        with _root(tracer, name):
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
        bracket = self.calibrator.bracket() if self.calibrator else 0.0
        return result, elapsed, bracket

    def describe(self) -> dict:
        return {"theta": THETA, "size": self.size}

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def reference_failures(self) -> int:
        return 0

    def run(self, tracer) -> Rep:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# local-index family: the planted graph
# --------------------------------------------------------------------------- #
class _Planted(Workload):
    family = "local-index"

    def prepare(self) -> None:
        self.planted = inputs.planted_graph(self.seed, self.size)
        self.graph = self.planted.graph

    def describe(self) -> dict:
        return {
            **super().describe(),
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "communities": len(self.planted.communities),
            "structure_seed": inputs.PLANTED_STRUCTURE_SEED,
        }


class LocalWorkload(_Planted):
    name = "local"
    why = "local decomposition of the planted graph: the exact-DP peel does the work"

    def warm_up(self) -> None:
        self.reference = repro.decompose(self.graph, **LOCAL).scores

    def reference_failures(self) -> int:
        index = repro.build_index(self.graph, **LOCAL)
        return int(index_scores(index) != self.reference)

    def run(self, tracer) -> Rep:
        result, elapsed, bracket = self._timed(
            tracer, "op.local", lambda: repro.decompose(self.graph, **LOCAL)
        )
        return Rep([elapsed], elapsed, 1, int(result.scores != self.reference),
                   calibrations=[bracket])


class NucleiWorkload(_Planted):
    name = "nuclei"
    why = "nuclei(1) and nuclei(max) on a fresh local result: dict re-enumeration of the nuclei"

    def _extract(self, tracer):
        """Time nuclei(1) + nuclei(max) on a fresh result of an untimed decompose."""
        with _untraced(tracer):
            result = repro.decompose(self.graph, **LOCAL)
        top = result.max_score
        (low, high), elapsed, bracket = self._timed(
            tracer, "op.nuclei", lambda: (result.nuclei(1), result.nuclei(top))
        )
        return top, low, high, elapsed, bracket

    @staticmethod
    def _output(top, low, high):
        return top, [n.triangles for n in low], [n.triangles for n in high]

    def warm_up(self) -> None:
        self.top, self.low, self.high, _, _ = self._extract(None)
        self.reference = self._output(self.top, self.low, self.high)

    def reference_failures(self) -> int:
        failed = int(not self.low or not self.high)
        failed += sum(not is_k_nucleus(n.subgraph, 1) for n in self.low)
        return failed + sum(not is_k_nucleus(n.subgraph, self.top) for n in self.high)

    def run(self, tracer) -> Rep:
        top, low, high, elapsed, bracket = self._extract(tracer)
        failed = int(self._output(top, low, high) != self.reference)
        return Rep([elapsed], elapsed, 1, failed, calibrations=[bracket])


class IndexBuildWorkload(_Planted):
    name = "index-build"
    why = "build_index of the planted graph: the peel plus the index snapshot"

    def warm_up(self) -> None:
        self.reference = repro.build_index(self.graph, **LOCAL).fingerprint

    def reference_failures(self) -> int:
        index = repro.build_index(self.graph, **LOCAL)
        return int(index_scores(index) != repro.decompose(self.graph, **LOCAL).scores)

    def run(self, tracer) -> Rep:
        index, elapsed, bracket = self._timed(
            tracer, "op.index_build", lambda: repro.build_index(self.graph, **LOCAL)
        )
        return Rep([elapsed], elapsed, 1, int(index.fingerprint != self.reference),
                   calibrations=[bracket])


class UpdateStreamWorkload(_Planted):
    name = "update-stream"
    why = "single-edge apply_updates batches on the planted index: incremental re-peel"

    def prepare(self) -> None:
        super().prepare()
        count = inputs.SIZES[self.size]["updates"]
        self.stream = inputs.update_stream(self.planted, count, random.Random(self.seed))
        updated = inputs.apply_to_graph(self.graph, self.stream)
        self.expected = repro.build_index(updated, **LOCAL).fingerprint

    def describe(self) -> dict:
        ops = [u.op for u in self.stream]
        return {**super().describe(), "batches": len(ops),
                "ops": {op: ops.count(op) for op in sorted(set(ops))}}

    def warm_up(self) -> None:
        index = repro.build_index(self.graph, **LOCAL)
        for update in self.stream[:3]:
            index = index.apply_updates([update])

    def run(self, tracer) -> Rep:
        with _untraced(tracer):
            index = repro.build_index(self.graph, **LOCAL)
        latencies, brackets = [], []
        for update in self.stream:
            index, elapsed, bracket = self._timed(
                tracer, "op.update", lambda: index.apply_updates([update])
            )
            latencies.append(elapsed)
            brackets.append(bracket)
        failed = int(index.fingerprint != self.expected)
        return Rep(latencies, sum(latencies), len(latencies), failed, calibrations=brackets)


# --------------------------------------------------------------------------- #
# serve-reload: a closed loop of in-process clients over hot-reloaded revisions
# --------------------------------------------------------------------------- #
CLIENTS = 4
#: Request mix: (operation, share, vertices per request).
MIX = (("max_score", 0.4, 8), ("contains", 0.3, 8), ("smallest_nucleus", 0.2, 2),
       ("nucleus_of", 0.1, 1))


class ServeReloadWorkload(_Planted):
    name = "serve-reload"
    family = "serve-reload"
    # Request latency is mostly the batcher's 2 ms linger timer, which does
    # not scale with CPU speed; its raw times repeat within ~3%.
    cpu_bound = False
    why = "4 closed-loop clients query a hot-reloaded index: batching, gathers and LRU turnover"

    def prepare(self) -> None:
        super().prepare()
        s = inputs.SIZES[self.size]
        rng = random.Random(self.seed)
        index = repro.build_index(self.graph, **LOCAL)
        self.revisions = [index]
        for update in inputs.background_stream(self.planted, s["revisions"], rng):
            index = index.apply_updates([update])
            self.revisions.append(index)
        self.engines = [repro.NucleusQueryEngine(rev) for rev in self.revisions]
        self.per_revision = s["requests_per_revision"]
        self.requests = self._requests(rng)
        self.sampled = set(rng.sample(range(len(self.requests)), len(self.requests) // 16))

    def _requests(self, rng: random.Random) -> list[dict]:
        """Requests answerable on every revision, drawn with the workload seed."""
        labels = sorted(self.revisions[0].vertex_labels)
        levels = sorted(set.intersection(*(set(rev.levels) for rev in self.revisions)))
        members = {}  # level -> vertices inside some nucleus on every revision
        for k in levels:
            inside = [
                {v for v, c in zip(labels, engine.smallest_nucleus(labels, k).tolist()) if c >= 0}
                for engine in self.engines
            ]
            common = sorted(set.intersection(*inside))
            if common:
                members[k] = common
        seedable = sorted(members)
        requests = []
        for _ in range(len(self.revisions) * self.per_revision):
            draw, cumulative = rng.random(), 0.0
            for op, share, width in MIX:
                cumulative += share
                if draw < cumulative:
                    break
            if op == "nucleus_of":
                k = rng.choice(seedable)
                requests.append({"op": op, "seeds": [rng.choice(members[k])], "k": k})
                continue
            request = {"op": op, "vertices": rng.sample(labels, width)}
            if op != "max_score":
                request["k"] = rng.choice(levels)
            requests.append(request)
        return requests

    def describe(self) -> dict:
        ops = [r["op"] for r in self.requests]
        return {**super().describe(), "clients": CLIENTS, "revisions": len(self.revisions),
                "requests_per_revision": self.per_revision,
                "mix": {op: ops.count(op) for op, _, _ in MIX}}

    async def _drive(self, service, revisions, latencies, responses) -> None:
        for epoch, revision in enumerate(revisions):
            if epoch:
                service.refresh(revision)
            pending = iter(range(epoch * self.per_revision, (epoch + 1) * self.per_revision))

            async def client():
                for i in pending:
                    start = time.perf_counter()
                    responses[i] = await service.submit(self.requests[i])
                    latencies[i] = time.perf_counter() - start

            await asyncio.gather(*(client() for _ in range(CLIENTS)))

    def _fresh_revisions(self) -> list:
        """New index objects over the same arrays.

        ``NucleusIndex`` caches its dict graph on first use (``nucleus_of``
        materialises nuclei from it), so reusing the revisions across
        repetitions would time warm caches that a reloaded index never has.
        """
        return [repro.NucleusIndex(dict(rev.header), rev.arrays) for rev in self.revisions]

    def warm_up(self) -> None:
        revisions = self._fresh_revisions()[:2]
        service = repro.serve(revisions[0])
        count = 2 * self.per_revision
        asyncio.run(self._drive(service, revisions, [0.0] * count, [None] * count))

    def run(self, tracer) -> Rep:
        revisions = self._fresh_revisions()
        service = repro.serve(revisions[0])
        count = len(self.requests)
        latencies, responses = [0.0] * count, [None] * count
        start = time.perf_counter()
        asyncio.run(self._drive(service, revisions, latencies, responses))
        elapsed = time.perf_counter() - start
        with _untraced(tracer):
            failed = sum(
                not self._correct(i, response) for i, response in enumerate(responses)
            )
        stats = service.stats()
        return Rep(latencies, elapsed, count, failed,
                   {"batching": stats["batching"], "cache": stats["cache"]})

    def _correct(self, i: int, response) -> bool:
        epoch = i // self.per_revision
        if not (response and response["ok"]
                and response["revision"] == self.revisions[epoch].revision):
            return False
        if i in self.sampled:
            return response["result"] == execute(self.engines[epoch], self.requests[i])
        return True


# --------------------------------------------------------------------------- #
# verify family: Monte-Carlo global and weakly-global decompositions
# --------------------------------------------------------------------------- #
class _Verify(Workload):
    family = "verify"
    mode = ""
    k = 1

    def graph_for(self):
        return inputs.flickr_graph(self.seed, self.size)

    def prepare(self) -> None:
        self.graph = self.graph_for()
        self.sampling_seed = random.Random(f"sampling-{self.seed}").getrandbits(31)

    def describe(self) -> dict:
        return {**super().describe(), "mode": self.mode, "k": self.k,
                "vertices": self.graph.num_vertices, "edges": self.graph.num_edges,
                "sampling_seed": self.sampling_seed}

    def _decompose(self):
        return repro.decompose(self.graph, mode=self.mode, theta=THETA, k=self.k,
                               backend="csr", seed=self.sampling_seed)

    def warm_up(self) -> None:
        self.nuclei = self._decompose()
        self.reference = [_edge_set(n.subgraph) for n in self.nuclei]

    def reference_failures(self) -> int:
        """Non-empty, inside a local nucleus at the same (k, θ), a k-nucleus each."""
        local = repro.decompose(self.graph, **LOCAL).nuclei(self.k)
        local_edges = [_edge_set(n.subgraph) for n in local]
        failed = int(not self.nuclei)
        for nucleus, edges in zip(self.nuclei, self.reference):
            failed += not any(edges <= outer for outer in local_edges)
            failed += not is_k_nucleus(nucleus.subgraph, self.k)
        return failed

    def run(self, tracer) -> Rep:
        nuclei, elapsed, bracket = self._timed(tracer, f"op.{self.name}", self._decompose)
        output = [_edge_set(n.subgraph) for n in nuclei]
        return Rep([elapsed], elapsed, 1, int(output != self.reference),
                   calibrations=[bracket])


class VerifyGlobalWorkload(_Verify):
    name = "verify-global"
    mode = "global"
    why = "global k=1 on the sparse flickr analogue: ~1000 small candidates, construction-bound"


class VerifyWeakWorkload(_Verify):
    name = "verify-weak"
    mode = "weak"
    why = "weak k=1 on the sparse flickr analogue: the per-world weak membership peel"


class VerifyDenseWorkload(_Verify):
    name = "verify-dense"
    mode = "global"
    k = 2
    why = "global k=2 on four dense near-cliques: large candidates, per-world union-find"

    def graph_for(self):
        return inputs.dense_graph(self.seed, self.size)


WORKLOADS = {
    cls.name: cls
    for cls in (LocalWorkload, NucleiWorkload, IndexBuildWorkload, UpdateStreamWorkload,
                ServeReloadWorkload, VerifyGlobalWorkload, VerifyWeakWorkload,
                VerifyDenseWorkload)
}
