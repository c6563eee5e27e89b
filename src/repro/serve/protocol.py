"""Wire protocol of the nucleus query service.

The service speaks newline-delimited JSON (one request object in, one
response object out), chosen so any language — or ``nc`` — can talk to it:

Request::

    {"id": 7, "op": "max_score", "vertices": [4, 17, 23]}

Response::

    {"id": 7, "ok": true, "result": [2, -1, 3],
     "revision": 0, "cache_key": "9f2c…"}

or, on failure::

    {"id": 7, "ok": false,
     "error": {"type": "VertexNotFoundError", "message": "vertex 99 …"}}

Every response names the index revision that answered it (``revision`` plus
the full versioned ``cache_key``), which is what lets clients — and the
no-torn-reads test — prove that a hot reload never mixes two revisions
inside one answer.

This module is deliberately free of I/O: it validates requests, executes
operations against a :class:`~repro.query.NucleusQueryEngine`, and maps the
typed :mod:`repro.exceptions` hierarchy to protocol error payloads.  The
asyncio front end (:mod:`repro.serve.server`) and the micro-batching queue
(:mod:`repro.serve.batching`) compose around it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.exceptions import ReproError
from repro.graph.probabilistic_graph import label_sort_key
from repro.obs.metrics import render_prometheus as obs_render_prometheus
from repro.obs.metrics import snapshot as obs_snapshot
from repro.query.engine import RANK_KEYS, NucleusQueryEngine

__all__ = [
    "MalformedRequestError",
    "Operation",
    "OPERATIONS",
    "decode_request",
    "encode_response",
    "error_payload",
    "execute",
    "nucleus_summary",
    "validate_request",
]

#: Upper bound on vertices per request, so one client cannot queue an
#: arbitrarily large gather in front of everyone else's micro-batch.
MAX_VERTICES_PER_REQUEST = 100_000


class MalformedRequestError(ReproError, ValueError):
    """Raised when a request line is not valid JSON or not a valid query."""


def _first_line(text: str) -> str:
    return text.splitlines()[0] if text else text


def error_payload(exc: BaseException) -> dict:
    """Map an exception to the protocol's ``error`` object (one-line message)."""
    if isinstance(exc, KeyError) and exc.args:
        # str(KeyError) wraps the message in repr quotes; unwrap it.
        message = _first_line(str(exc.args[0]))
    else:
        message = _first_line(str(exc))
    return {"type": type(exc).__name__, "message": message}


def nucleus_summary(nucleus) -> dict:
    """JSON-able summary of one :class:`~repro.core.result.ProbabilisticNucleus`."""
    return {
        "k": nucleus.k,
        "mode": nucleus.mode,
        "num_vertices": nucleus.num_vertices,
        "num_edges": nucleus.num_edges,
        "num_triangles": len(nucleus.triangles),
        "vertices": sorted(nucleus.vertices(), key=label_sort_key),
    }


# --------------------------------------------------------------------------- #
# request validation
# --------------------------------------------------------------------------- #
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedRequestError(message)


def _checked_vertices(params: dict, field: str) -> list:
    vertices = params.get(field)
    _require(
        isinstance(vertices, list) and vertices,
        f"{field!r} must be a non-empty list of vertex labels",
    )
    _require(
        len(vertices) <= MAX_VERTICES_PER_REQUEST,
        f"{field!r} exceeds the per-request limit of {MAX_VERTICES_PER_REQUEST}",
    )
    # One C-speed pass; only walk again to name the offender on failure.
    if not all(
        isinstance(label, (int, str)) and not isinstance(label, bool)
        for label in vertices
    ):
        bad = next(
            label
            for label in vertices
            if not isinstance(label, (int, str)) or isinstance(label, bool)
        )
        raise MalformedRequestError(f"vertex label {bad!r} must be an int or str")
    return vertices


def _checked_level(params: dict, field: str = "k", required: bool = True) -> int | None:
    k = params.get(field)
    if k is None and not required:
        return None
    _require(
        isinstance(k, int) and not isinstance(k, bool) and k >= 0,
        f"{field!r} must be a non-negative integer",
    )
    return k


# --------------------------------------------------------------------------- #
# operations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Operation:
    """One protocol operation.

    ``validate`` normalises raw request params (raising
    :class:`MalformedRequestError`), ``run`` executes one request, and —
    for coalescable operations — ``batch_key`` maps params to the
    micro-batching bucket (requests sharing a key are answered by one
    vectorized engine call via ``run_many``).
    """

    name: str
    validate: Callable[[dict], dict]
    run: Callable[[NucleusQueryEngine, dict], Any]
    batch_key: Callable[[dict], tuple] | None = None
    run_many: Callable[[NucleusQueryEngine, list[dict]], list[Any]] | None = None


def _coalesced_vertices(engine, batch: list[dict], call) -> list[Any]:
    """Answer a batch of vertex-list requests with one engine call.

    Concatenates every request's vertices, issues a single vectorized
    gather, and splits the flat answer back per request.
    """
    flat: list = []
    lengths = []
    for params in batch:
        flat.extend(params["vertices"])
        lengths.append(len(params["vertices"]))
    values = call(engine, flat)
    bounds = np.cumsum([0, *lengths])
    return [values[start:stop].tolist() for start, stop in zip(bounds, bounds[1:])]


def _validate_max_score(params: dict) -> dict:
    return {"vertices": _checked_vertices(params, "vertices")}


def _validate_level_vertices(params: dict) -> dict:
    return {
        "vertices": _checked_vertices(params, "vertices"),
        "k": _checked_level(params),
    }


def _validate_nucleus_of(params: dict) -> dict:
    return {"seeds": _checked_vertices(params, "seeds"), "k": _checked_level(params)}


def _validate_top_nuclei(params: dict) -> dict:
    n = params.get("n", 5)
    _require(
        isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= 10_000,
        "'n' must be an integer in [0, 10000]",
    )
    by = params.get("by", "density")
    _require(by in RANK_KEYS, f"'by' must be one of {list(RANK_KEYS)}")
    return {"n": n, "k": _checked_level(params, required=False), "by": by}


def _validate_empty(params: dict) -> dict:
    return {}


def _validate_stats(params: dict) -> dict:
    format = params.get("format", "json")
    _require(format in ("json", "prometheus"), "'format' must be 'json' or 'prometheus'")
    return {"format": format}


def _run_stats(engine: NucleusQueryEngine, params: dict):
    """Telemetry payload of the ``stats`` operation (engine-level part).

    ``format="json"`` returns the metrics-registry snapshot plus the engine's
    LRU cache counters; ``format="prometheus"`` returns the text exposition
    as the result string (the empty string while telemetry is disabled).
    :class:`repro.serve.service.QueryService` layers its service-level stats
    (uptime, request totals, batching) on top of this for served requests.
    """
    if params["format"] == "prometheus":
        return obs_render_prometheus()
    return {"obs": obs_snapshot(), "cache": engine.cache_info()}


def _run_info(engine: NucleusQueryEngine, params: dict) -> dict:
    index = engine.index
    description = index.describe()
    description["cache_key"] = index.cache_key
    description["mmapped"] = index.mmapped
    return description


def _run_top_nuclei(engine: NucleusQueryEngine, params: dict) -> list[dict]:
    nuclei = engine.top_nuclei(n=params["n"], k=params["k"], by=params["by"])
    _, values = engine.rank_table(k=params["k"], by=params["by"])
    return [
        {**nucleus_summary(nucleus), params["by"]: value}
        for nucleus, value in zip(nuclei, values.tolist())
    ]


OPERATIONS: dict[str, Operation] = {
    operation.name: operation
    for operation in (
        Operation(
            name="max_score",
            validate=_validate_max_score,
            run=lambda engine, p: [engine.max_score(v) for v in p["vertices"]],
            batch_key=lambda p: ("max_score",),
            run_many=lambda engine, batch: _coalesced_vertices(
                engine, batch, lambda e, flat: e.max_score(flat)
            ),
        ),
        Operation(
            name="contains",
            validate=_validate_level_vertices,
            run=lambda engine, p: [engine.contains(v, p["k"]) for v in p["vertices"]],
            batch_key=lambda p: ("contains", p["k"]),
            run_many=lambda engine, batch: _coalesced_vertices(
                engine, batch, lambda e, flat: e.contains(flat, batch[0]["k"])
            ),
        ),
        Operation(
            name="smallest_nucleus",
            validate=_validate_level_vertices,
            run=lambda engine, p: [
                engine.smallest_nucleus(v, p["k"]) for v in p["vertices"]
            ],
            batch_key=lambda p: ("smallest_nucleus", p["k"]),
            run_many=lambda engine, batch: _coalesced_vertices(
                engine, batch, lambda e, flat: e.smallest_nucleus(flat, batch[0]["k"])
            ),
        ),
        Operation(
            name="nucleus_of",
            validate=_validate_nucleus_of,
            run=lambda engine, p: nucleus_summary(engine.nucleus_of(p["seeds"], p["k"])),
        ),
        Operation(
            name="top_nuclei",
            validate=_validate_top_nuclei,
            run=_run_top_nuclei,
        ),
        Operation(name="info", validate=_validate_empty, run=_run_info),
        Operation(name="ping", validate=_validate_empty, run=lambda engine, p: "pong"),
        Operation(name="stats", validate=_validate_stats, run=_run_stats),
    )
}


def validate_request(request) -> tuple[Operation, dict]:
    """Check a decoded request object; return its operation and clean params."""
    _require(isinstance(request, dict), "request must be a JSON object")
    op_name = request.get("op")
    _require(isinstance(op_name, str), "request must name an 'op'")
    operation = OPERATIONS.get(op_name)
    if operation is None:
        raise MalformedRequestError(
            f"unknown op {op_name!r} (supported: {sorted(OPERATIONS)})"
        )
    return operation, operation.validate(request)


def execute(engine: NucleusQueryEngine, request) -> Any:
    """Validate and run one request against ``engine`` (no batching, no I/O)."""
    operation, params = validate_request(request)
    return operation.run(engine, params)


# --------------------------------------------------------------------------- #
# line framing
# --------------------------------------------------------------------------- #
def decode_request(line: bytes | str) -> dict:
    """Parse one JSON line into a request object (``MalformedRequestError`` on junk)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRequestError(f"request line is not UTF-8: {exc}") from exc
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRequestError(f"request line is not valid JSON: {exc}") from exc
    _require(isinstance(request, dict), "request must be a JSON object")
    return request


def encode_response(response: dict) -> bytes:
    """Serialise a response object to one newline-terminated JSON line."""
    return json.dumps(response, separators=(",", ":"), sort_keys=True).encode() + b"\n"
