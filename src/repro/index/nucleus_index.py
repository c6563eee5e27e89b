"""Persistent nucleus index: a flat-array snapshot of a decomposition.

Computing a probabilistic nucleus decomposition is expensive (peeling plus,
for the global/weakly-global models, Monte-Carlo verification); answering
questions about the result — which nucleus contains this vertex, what is its
maximum nucleus score, which nuclei are densest — is cheap *if* the result
survives the process that computed it.  :class:`NucleusIndex` is that
survival format: it snapshots a decomposition together with its graph into
flat numpy arrays, persists losslessly to a single ``.npz`` file, and is the
substrate the serve-time query engine
(:class:`repro.query.NucleusQueryEngine`) answers from.

File format (version 1)
-----------------------
One ``.npz`` archive.  The entry ``__header__`` holds a JSON document with
the format name/version, decomposition metadata (``mode``, ``theta``,
``params``), the :func:`~repro.index.fingerprint.graph_fingerprint` of the
source graph, and the original vertex labels (restricted to JSON-exact
``int``/``str`` labels so the round trip is lossless).  Every other entry is
an ``int64``/``float64`` array in CSR-id space:

========================  =====================================================
``indptr/indices/probabilities``  the graph's CSR adjacency (lossless)
``triangles``             ``(T, 3)`` vertex ids, rows sorted lexicographically
``triangle_scores``       per-triangle nucleus score ν (``-1`` = below θ)
``levels``                the ``k`` values with indexed components
``comp_level``            level of each nucleus component
``comp_indptr/comp_triangles``  CSR postings: triangle members per component
``comp_n_vertices/comp_n_edges/comp_max_score``  per-component summaries
``comp_sum_edge_prob/comp_log_reliability``      per-component rank keys
``vertex_max_score``      max ν over the triangles containing each vertex
``edge_u/edge_v/edge_prob/edge_max_score``       per-edge records
``triangle_order/vertex_order/edge_order``       rank-sorted postings
========================  =====================================================

Indexes are *immutable snapshots*: build once with
:func:`repro.index.builders.build_index` (or the ``from_*`` constructors
below), ``save()``, and serve arbitrarily many queries from ``load()``-ed
copies in other processes.

Serving deployments load with ``mmap=True``: when the archive was written
with ``save(..., compress=False)`` every array entry is *stored* (not
deflated) inside the zip, so each one can be memory-mapped directly at its
offset in the file.  N worker processes mapping the same index then share
one set of physical pages instead of N eager copies (see
``docs/SERVING.md``).  Compressed archives fall back to an eager load.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus, _labelled_groups
from repro.deterministic.cliques import label_triangles
from repro.exceptions import (
    IndexCompatibilityError,
    IndexFormatError,
    InvalidParameterError,
    check_level,
)
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.obs.timing import timer
from repro.index.fingerprint import graph_fingerprint, versioned_fingerprint

__all__ = ["NucleusIndex", "FORMAT_NAME", "FORMAT_VERSION"]

FORMAT_NAME = "repro-nucleus-index"
FORMAT_VERSION = 2

#: Format versions this build can read.  Version 1 lacks the update-lineage
#: header fields (``base_fingerprint``/``update_log_digest``/``revision``)
#: introduced in version 2; they default to "revision 0 of its own graph".
_COMPATIBLE_VERSIONS = (1, 2)

#: Key of the JSON header entry inside the ``.npz`` archive.
_HEADER_KEY = "__header__"

#: Every array entry of the format, with its expected dtype kind.
_ARRAY_SPECS: dict[str, str] = {
    "indptr": "i",
    "indices": "i",
    "probabilities": "f",
    "triangles": "i",
    "triangle_scores": "i",
    "levels": "i",
    "comp_level": "i",
    "comp_indptr": "i",
    "comp_triangles": "i",
    "comp_n_vertices": "i",
    "comp_n_edges": "i",
    "comp_max_score": "i",
    "comp_sum_edge_prob": "f",
    "comp_log_reliability": "f",
    "vertex_max_score": "i",
    "edge_u": "i",
    "edge_v": "i",
    "edge_prob": "f",
    "edge_max_score": "i",
    "triangle_order": "i",
    "vertex_order": "i",
    "edge_order": "i",
}

_MODES = ("local", "global", "weakly-global")

#: npy header readers by format version (``.npz`` members are plain npy files).
_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise IndexFormatError(message)


def _mmap_npz_arrays(path: Path, names) -> dict[str, np.ndarray] | None:
    """Memory-map the named array members of an *uncompressed* ``.npz``.

    A ``.npz`` is a zip archive of ``<name>.npy`` members; when a member is
    *stored* (``save(..., compress=False)``) its npy payload sits verbatim at
    a fixed offset in the file, so the array data can be mapped read-only
    with :class:`numpy.memmap` — no bytes are read eagerly and every process
    mapping the same file shares one set of pages.  Returns ``None`` when
    any requested member is deflated or uses an npy version without a public
    header reader, in which case the caller falls back to an eager load.
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: info for info in archive.infolist()}
        with open(path, "rb") as handle:
            for name in names:
                info = members.get(name + ".npy")
                if info is None or info.compress_type != zipfile.ZIP_STORED:
                    return None
                # The local file header (30 bytes + filename + extra field)
                # must be read from the file itself: its extra field can
                # differ from the central directory's.
                handle.seek(info.header_offset)
                local_header = handle.read(30)
                _require(
                    local_header[:4] == b"PK\x03\x04",
                    f"{path} member {name!r} has a corrupted local zip header",
                )
                payload_offset = (
                    info.header_offset
                    + 30
                    + int.from_bytes(local_header[26:28], "little")
                    + int.from_bytes(local_header[28:30], "little")
                )
                handle.seek(payload_offset)
                read_header = _NPY_HEADER_READERS.get(np.lib.format.read_magic(handle))
                if read_header is None:
                    return None
                shape, fortran_order, dtype = read_header(handle)
                if dtype.hasobject:
                    return None
                arrays[name] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=handle.tell(),
                    shape=shape,
                    order="F" if fortran_order else "C",
                )
    return arrays


def _json_safe_labels(labels: list) -> list:
    """Validate that vertex labels round-trip exactly through JSON."""
    for label in labels:
        if not isinstance(label, (int, str)) or isinstance(label, bool):
            raise IndexFormatError(
                f"vertex label {label!r} is not indexable: only int and str labels "
                "survive the JSON header losslessly"
            )
    return list(labels)


def _component_aggregates(
    rows: np.ndarray,
    member_scores: np.ndarray,
    n: int,
    edge_keys: np.ndarray,
    edge_prob: np.ndarray,
) -> tuple[int, int, float, float, int]:
    """Summary statistics of one nucleus component.

    ``rows`` holds the component's member triangles as ``(m, 3)`` vertex-id
    triples, ``member_scores`` their parallel ν values; ``edge_keys`` /
    ``edge_prob`` are the graph's sorted undirected edge records.  Returns
    ``(n_vertices, n_edges, sum_edge_prob, log_reliability, max_score)``.

    This is the only place the per-component reductions happen: the
    incremental maintenance path (:mod:`repro.index.incremental`) copies a
    stored aggregate only for a component it carries unchanged, whose
    members, scores and edge probabilities are those of the previous
    revision, so recomputing it here would read identical inputs; that keeps
    carried and recomputed snapshots bit-identical (floating-point sums are
    order-sensitive, so the inputs must match bit for bit, not just
    semantically).
    """
    keys = np.unique(
        np.concatenate(
            [
                rows[:, 0] * n + rows[:, 1],
                rows[:, 0] * n + rows[:, 2],
                rows[:, 1] * n + rows[:, 2],
            ]
        )
    )
    probs = edge_prob[np.searchsorted(edge_keys, keys)]
    return (
        int(np.unique(rows.ravel()).size),
        int(keys.size),
        float(probs.sum()),
        float(np.log(probs).sum()),
        int(member_scores.max()),
    )


class NucleusIndex:
    """An immutable, persistable snapshot of one nucleus decomposition.

    Instances are built with :meth:`from_local_result` /
    :meth:`from_nuclei` (or :func:`repro.index.builders.build_index`) and
    round-trip through :meth:`save` / :meth:`load` bit-identically.  The
    raw constructor accepts a prebuilt header and array dict and validates
    the format invariants.
    """

    def __init__(self, header: dict, arrays: dict[str, np.ndarray]) -> None:
        _require(header.get("format") == FORMAT_NAME, "not a repro nucleus index header")
        _require(
            header.get("format_version") in _COMPATIBLE_VERSIONS,
            f"unsupported index format version {header.get('format_version')!r} "
            f"(this build reads versions {list(_COMPATIBLE_VERSIONS)})",
        )
        _require(header.get("mode") in _MODES, f"unknown mode {header.get('mode')!r}")
        _require(isinstance(header.get("vertex_labels"), list), "missing vertex labels")
        missing = sorted(set(_ARRAY_SPECS) - set(arrays))
        _require(not missing, f"index is missing array entries: {missing}")
        self.header = dict(header)
        self.arrays = {
            name: np.ascontiguousarray(
                arrays[name], dtype=np.int64 if kind == "i" else np.float64
            )
            for name, kind in _ARRAY_SPECS.items()
        }
        self._validate_shapes()
        #: ``True`` when the arrays are memory-mapped views of an on-disk
        #: archive (``load(..., mmap=True)`` on an uncompressed save).
        self.mmapped = False
        #: The CSR graph and triangle ⇄ 4-clique index behind a local
        #: snapshot, set by ``build_local_index``, ``from_local_result`` and
        #: ``apply_updates`` so the next update splices them; ``None``
        #: otherwise (a loaded index).
        self._incremental_state: dict | None = None

    def _validate_shapes(self) -> None:
        a = self.arrays
        n = len(self.vertex_labels)
        _require(a["indptr"].shape == (n + 1,), "indptr length must be num_vertices + 1")
        nnz = a["indices"].size
        _require(a["probabilities"].shape == (nnz,), "probabilities must parallel indices")
        _require(
            a["indptr"].size > 0 and a["indptr"][0] == 0 and a["indptr"][-1] == nnz,
            "indptr must start at 0 and end at len(indices)",
        )
        t = a["triangles"]
        _require(t.ndim == 2 and t.shape[1] == 3, "triangles must be a (T, 3) array")
        _require(a["triangle_scores"].shape == (t.shape[0],), "one score per triangle")
        _require(a["triangle_order"].shape == (t.shape[0],), "one rank entry per triangle")
        c = a["comp_level"].size
        for name in (
            "comp_n_vertices",
            "comp_n_edges",
            "comp_max_score",
            "comp_sum_edge_prob",
            "comp_log_reliability",
        ):
            _require(a[name].shape == (c,), f"{name} must have one entry per component")
        _require(a["comp_indptr"].shape == (c + 1,), "comp_indptr length must be C + 1")
        _require(
            c == 0
            or (
                a["comp_indptr"][0] == 0
                and a["comp_indptr"][-1] == a["comp_triangles"].size
                and np.all(np.diff(a["comp_indptr"]) >= 0)
            ),
            "comp_indptr must be a valid postings offset array",
        )
        _require(a["vertex_max_score"].shape == (n,), "one max-score entry per vertex")
        _require(a["vertex_order"].shape == (n,), "one rank entry per vertex")
        m = a["edge_u"].size
        for name in ("edge_v", "edge_prob", "edge_max_score", "edge_order"):
            _require(a[name].shape == (m,), f"{name} must have one entry per edge")
        _require(2 * m == nnz, "edge arrays must cover every undirected CSR edge")

    # ------------------------------------------------------------------ #
    # header accessors
    # ------------------------------------------------------------------ #
    @property
    def mode(self) -> str:
        """Decomposition mode: ``"local"``, ``"global"`` or ``"weakly-global"``."""
        return self.header["mode"]

    @property
    def theta(self) -> float:
        """The probability threshold θ the decomposition was computed at."""
        return self.header["theta"]

    @property
    def params(self) -> dict:
        """Extra build parameters recorded by the builder (estimator, k, ...)."""
        return dict(self.header.get("params", {}))

    @property
    def fingerprint(self) -> str:
        """SHA-256 fingerprint of the source graph (see :mod:`repro.index.fingerprint`)."""
        return self.header["fingerprint"]

    @property
    def base_fingerprint(self) -> str:
        """Fingerprint of the revision-0 graph this index's lineage started from.

        Equals :attr:`fingerprint` for a freshly-built index; stays fixed as
        :meth:`apply_updates` advances the revision.
        """
        return self.header.get("base_fingerprint", self.fingerprint)

    @property
    def update_log_digest(self) -> str:
        """Chained SHA-256 digest over the ordered update batches applied so far.

        Empty for a freshly-built (revision 0) index.
        """
        return self.header.get("update_log_digest", "")

    @property
    def revision(self) -> int:
        """How many update batches produced this index (0 = built from scratch)."""
        return int(self.header.get("revision", 0))

    @property
    def cache_key(self) -> str:
        """Versioned cache key: distinct for every (base graph, update history).

        Revision 0 keys by the content :attr:`fingerprint` (so rebuilt-equal
        indexes share cached answers); updated revisions key by the lineage
        (:func:`~repro.index.fingerprint.versioned_fingerprint`), so an
        engine refreshed onto a new revision never serves a stale entry yet
        keeps every clean entry of earlier revisions addressable.
        """
        if self.revision == 0:
            return self.fingerprint
        return versioned_fingerprint(
            self.base_fingerprint, self.revision, self.update_log_digest
        )

    @property
    def vertex_labels(self) -> list:
        """Original vertex label of every CSR id (``vertex_labels[i]`` ↔ id ``i``)."""
        return self.header["vertex_labels"]

    @property
    def levels(self) -> tuple[int, ...]:
        """The ``k`` values for which nucleus components are indexed."""
        return tuple(int(k) for k in self.arrays["levels"].tolist())

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the snapshotted graph."""
        return len(self.vertex_labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges of the snapshotted graph."""
        return int(self.arrays["edge_u"].size)

    @property
    def num_triangles(self) -> int:
        """Number of scored triangles."""
        return int(self.arrays["triangles"].shape[0])

    @property
    def num_components(self) -> int:
        """Total number of indexed nucleus components across all levels."""
        return int(self.arrays["comp_level"].size)

    def describe(self) -> dict:
        """Return a JSON-able summary of the index (used by ``repro-index info``)."""
        return {
            "format": self.header["format"],
            "format_version": self.header["format_version"],
            "mode": self.mode,
            "theta": self.theta,
            "params": self.params,
            "fingerprint": self.fingerprint,
            "base_fingerprint": self.base_fingerprint,
            "revision": self.revision,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_triangles": self.num_triangles,
            "levels": list(self.levels),
            "num_components": self.num_components,
        }

    # ------------------------------------------------------------------ #
    # graph reconstruction / compatibility
    # ------------------------------------------------------------------ #
    def to_csr_graph(self) -> CSRProbabilisticGraph:
        """Reconstruct the snapshotted graph as a :class:`CSRProbabilisticGraph`."""
        a = self.arrays
        return CSRProbabilisticGraph(
            a["indptr"], a["indices"], a["probabilities"], self.vertex_labels
        )

    def to_probabilistic_graph(self) -> ProbabilisticGraph:
        """Reconstruct the snapshotted graph in dict-of-dicts form."""
        return self.to_csr_graph().to_probabilistic()

    def verify_against(self, graph: ProbabilisticGraph | CSRProbabilisticGraph) -> None:
        """Raise :class:`IndexCompatibilityError` unless ``graph`` matches the snapshot."""
        live = graph_fingerprint(graph)
        if live != self.fingerprint:
            raise IndexCompatibilityError(
                f"index fingerprint {self.fingerprint[:12]}… does not match the live "
                f"graph ({live[:12]}…): the graph changed since the index was built"
            )

    # ------------------------------------------------------------------ #
    # component accessors (used by the query engine)
    # ------------------------------------------------------------------ #
    def components_at_level(self, k: int) -> np.ndarray:
        """Return the component indices stored for level ``k`` (ascending)."""
        return np.flatnonzero(self.arrays["comp_level"] == k)

    def component_triangle_positions(self, component: int) -> np.ndarray:
        """Return the triangle positions of one component (ascending)."""
        start = int(self.arrays["comp_indptr"][component])
        stop = int(self.arrays["comp_indptr"][component + 1])
        return self.arrays["comp_triangles"][start:stop]

    def component_nucleus(self, component: int) -> ProbabilisticNucleus:
        """Materialise one indexed component as a :class:`ProbabilisticNucleus`.

        The reconstruction is exact: the triangles and the edge-induced
        subgraph (with original probabilities) equal what the decomposition's
        own result objects produce for the same component.  It reads the
        snapshot's triangle and edge arrays through the builder of
        :meth:`LocalNucleusDecomposition.nuclei`, so a local component's
        subgraph inserts its edges in the same CSR-id order.
        """
        a = self.arrays
        [(triangles, subgraph)] = _labelled_groups(
            self.vertex_labels,
            a["triangles"],
            a["edge_u"],
            a["edge_v"],
            a["edge_prob"],
            [self.component_triangle_positions(component)],
        )
        return ProbabilisticNucleus(
            k=int(a["comp_level"][component]),
            theta=self.theta,
            mode=self.mode,
            subgraph=subgraph,
            triangles=triangles,
        )

    # ------------------------------------------------------------------ #
    # construction from decomposition results
    # ------------------------------------------------------------------ #
    @classmethod
    def from_triangle_arrays(
        cls,
        csr: CSRProbabilisticGraph,
        triangle_rows: np.ndarray,
        triangle_scores: np.ndarray,
        level_groups: dict[int, list[list[int]]],
        *,
        mode: str,
        theta: float,
        params: dict | None = None,
    ) -> "NucleusIndex":
        """Snapshot a decomposition handed over directly as CSR-id arrays.

        This is the no-detour entry point for the array-native engine paths:
        ``triangle_rows`` is the ``(T, 3)`` id-triple array (each row sorted
        ascending, rows in lexicographic order), ``triangle_scores`` the
        parallel ν array, and ``level_groups`` maps each indexed level ``k``
        to its components as lists (or id arrays) of positions into
        ``triangle_rows``.  The produced index is identical to what
        :meth:`from_local_result` / :meth:`from_nuclei` build from the
        equivalent label-space result objects.
        """
        rows = np.ascontiguousarray(triangle_rows, dtype=np.int64).reshape(-1, 3)
        scores = np.ascontiguousarray(triangle_scores, dtype=np.int64)
        if scores.shape != (rows.shape[0],):
            raise InvalidParameterError(
                "triangle_scores must be parallel to triangle_rows"
            )
        if mode not in _MODES:
            raise InvalidParameterError(f"unknown mode {mode!r}")
        if rows.shape[0]:
            if not ((rows[:, 0] < rows[:, 1]) & (rows[:, 1] < rows[:, 2])).all():
                raise InvalidParameterError(
                    "every triangle row must list its vertex ids in ascending order"
                )
            order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
            if not np.array_equal(order, np.arange(rows.shape[0])):
                raise InvalidParameterError(
                    "triangle_rows must be sorted lexicographically"
                )
        return cls._build(csr, rows, scores, level_groups, mode, theta, dict(params or {}))

    @classmethod
    def from_local_result(
        cls, result: LocalNucleusDecomposition, params: dict | None = None
    ) -> "NucleusIndex":
        """Snapshot a :class:`LocalNucleusDecomposition` (every level 0…max_score).

        The result's scores as read onto the triangle rows of its engine
        index (:attr:`~repro.core.result.LocalNucleusDecomposition.engine_index`,
        the peel's own for a fresh result) and its level groups on those
        arrays, the ones its ``nuclei(k)`` reads, as in
        :func:`~repro.index.builders.build_local_index`.  The scores must
        cover exactly the graph's triangles, else :class:`InvalidParameterError`.
        """
        csr, index = result.engine_index
        values, missing = result._row_scores
        if missing.size:
            triangle = label_triangles(index.triangles[missing[:1]], csr.vertex_labels)[0]
            raise InvalidParameterError(
                f"the result's scores miss triangle {triangle!r} of its graph"
            )
        if len(result.scores) != index.num_triangles:
            raise InvalidParameterError(
                "the result's scores name triangles its graph does not have"
            )
        groups = result._level_groups
        merged = {"estimator": result.estimator_name}
        merged.update(params or {})
        snapshot = cls._build(
            csr, index.triangles, values, groups, "local", result.theta, merged
        )
        # Shared with the result: the splice of the first update copies
        # whatever it changes.
        snapshot._incremental_state = {"csr": csr, "tri_index": index}
        return snapshot

    @classmethod
    def from_nuclei(
        cls,
        graph: ProbabilisticGraph | CSRProbabilisticGraph,
        nuclei: list[ProbabilisticNucleus],
        *,
        k: int,
        theta: float,
        mode: str,
        params: dict | None = None,
    ) -> "NucleusIndex":
        """Snapshot a global / weakly-global decomposition (a nucleus list at one ``k``).

        The whole graph is snapshotted (so fingerprints match the input
        graph); the single level ``k`` carries one component per nucleus.
        Triangles of the nuclei are recorded with score ``k`` — the level
        they were certified at.
        """
        if mode not in ("global", "weakly-global"):
            raise InvalidParameterError(
                f'mode must be "global" or "weakly-global", got {mode!r}'
            )
        k = check_level(k)
        csr = graph if isinstance(graph, CSRProbabilisticGraph) else graph.to_csr()
        id_of = {label: i for i, label in enumerate(csr.vertex_labels)}
        members = [
            {tuple(sorted((id_of[u], id_of[v], id_of[w]))) for u, v, w in nucleus.triangles}
            for nucleus in nuclei
        ]
        ordered = sorted(set().union(*members))
        rows = np.array(ordered, dtype=np.int64).reshape(len(ordered), 3)
        scores = np.full(len(ordered), k, dtype=np.int64)
        position = {t: i for i, t in enumerate(ordered)}
        groups = sorted(sorted(position[t] for t in group) for group in members)
        # The level is indexed even when the decomposition found nothing, so
        # the engine answers "no nuclei at this k" instead of "k not indexed".
        level_groups = {k: groups}
        return cls._build(csr, rows, scores, level_groups, mode, theta, dict(params or {}))

    @classmethod
    def _build(
        cls,
        csr: CSRProbabilisticGraph,
        triangle_rows: np.ndarray,
        triangle_scores: np.ndarray,
        level_groups: dict[int, list[list[int]]],
        mode: str,
        theta: float,
        params: dict,
        labels=None,
        carried=None,
    ) -> "NucleusIndex":
        """Assemble the flat arrays from id-space triangles and component groups.

        ``labels`` may carry a precomputed ``_json_safe_labels`` result for
        the same vertex set (the incremental path reuses the previous
        revision's header list, since ``apply_updates`` never changes the
        vertex set).  ``carried`` is ``(sources, previous)`` on the
        incremental path: component ``i`` (in level order) carries component
        ``sources[i]`` of the previous snapshot's arrays ``previous``, whose
        stored aggregates it copies, or was regrouped (``-1``) and has them
        computed.
        """
        n = csr.num_vertices
        if labels is None:
            labels = _json_safe_labels(csr.vertex_labels)
        t_count = triangle_rows.shape[0]

        # Undirected edge records, ordered by (u, v): because CSR rows are
        # sorted, the upper-triangular extraction yields sorted keys.
        edge_u, edge_v, edge_prob = csr.undirected_edge_arrays()
        edge_keys = edge_u * n + edge_v

        vertex_max_score = np.full(n, -1, dtype=np.int64)
        edge_max_score = np.full(edge_u.size, -1, dtype=np.int64)
        if t_count:
            np.maximum.at(
                vertex_max_score, triangle_rows.ravel(), np.repeat(triangle_scores, 3)
            )
            tri_edge_keys = np.concatenate(
                [
                    triangle_rows[:, 0] * n + triangle_rows[:, 1],
                    triangle_rows[:, 0] * n + triangle_rows[:, 2],
                    triangle_rows[:, 1] * n + triangle_rows[:, 2],
                ]
            )
            tri_edge_pos = np.searchsorted(edge_keys, tri_edge_keys)
            np.maximum.at(edge_max_score, tri_edge_pos, np.tile(triangle_scores, 3))

        levels = np.array(sorted(level_groups), dtype=np.int64)
        comp_level: list[int] = []
        comp_members: list[list[int]] = []
        for k in levels.tolist():
            for members in level_groups[k]:
                comp_level.append(k)
                comp_members.append(members)
        c_count = len(comp_members)
        comp_indptr = np.zeros(c_count + 1, dtype=np.int64)
        sizes = np.array([len(m) for m in comp_members], dtype=np.int64)
        np.cumsum(sizes, out=comp_indptr[1:])
        comp_level_arr = np.array(comp_level, dtype=np.int64)
        comp_triangles = (
            np.concatenate([np.asarray(m, dtype=np.int64) for m in comp_members])
            if comp_members
            else np.empty(0, dtype=np.int64)
        )
        comp_n_vertices = np.zeros(c_count, dtype=np.int64)
        comp_n_edges = np.zeros(c_count, dtype=np.int64)
        comp_max_score = np.zeros(c_count, dtype=np.int64)
        comp_sum_edge_prob = np.zeros(c_count, dtype=np.float64)
        comp_log_reliability = np.zeros(c_count, dtype=np.float64)
        todo = range(c_count)
        if carried is not None:
            sources, previous = carried
            kept = sources >= 0
            for name, target in (
                ("comp_n_vertices", comp_n_vertices),
                ("comp_n_edges", comp_n_edges),
                ("comp_max_score", comp_max_score),
                ("comp_sum_edge_prob", comp_sum_edge_prob),
                ("comp_log_reliability", comp_log_reliability),
            ):
                target[kept] = previous[name][sources[kept]]
            todo = np.flatnonzero(~kept).tolist()
        for i in todo:
            member_ids = np.asarray(comp_members[i], dtype=np.int64)
            (
                comp_n_vertices[i],
                comp_n_edges[i],
                comp_sum_edge_prob[i],
                comp_log_reliability[i],
                comp_max_score[i],
            ) = _component_aggregates(
                triangle_rows[member_ids],
                triangle_scores[member_ids],
                n,
                edge_keys,
                edge_prob,
            )

        fingerprint = graph_fingerprint(csr)
        header = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "mode": mode,
            "theta": float(theta),
            "params": params,
            "fingerprint": fingerprint,
            "base_fingerprint": fingerprint,
            "update_log_digest": "",
            "revision": 0,
            "vertex_labels": labels,
        }
        arrays = {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "probabilities": csr.probabilities,
            "triangles": triangle_rows.reshape(t_count, 3),
            "triangle_scores": triangle_scores,
            "levels": levels,
            "comp_level": comp_level_arr,
            "comp_indptr": comp_indptr,
            "comp_triangles": comp_triangles,
            "comp_n_vertices": comp_n_vertices,
            "comp_n_edges": comp_n_edges,
            "comp_max_score": comp_max_score,
            "comp_sum_edge_prob": comp_sum_edge_prob,
            "comp_log_reliability": comp_log_reliability,
            "vertex_max_score": vertex_max_score,
            "edge_u": edge_u,
            "edge_v": edge_v,
            "edge_prob": edge_prob,
            "edge_max_score": edge_max_score,
            "triangle_order": np.lexsort((np.arange(t_count), -triangle_scores)),
            "vertex_order": np.lexsort((np.arange(n), -vertex_max_score)),
            "edge_order": np.lexsort((np.arange(edge_u.size), -edge_max_score)),
        }
        return cls(header, arrays)

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def apply_updates(self, updates) -> "NucleusIndex":
        """Return a new index for this graph with a batch of edge updates applied.

        ``updates`` is an iterable of
        :class:`~repro.index.incremental.EdgeUpdate` records (or equivalent
        tuples) — edge inserts, deletes, and probability changes in original
        label space.  The returned index is *exactly* what rebuilding from
        scratch over the updated graph would produce (same arrays, same
        content fingerprint), but carries the update lineage forward:
        :attr:`base_fingerprint` stays at this lineage's revision-0 graph,
        :attr:`revision` increments, and :attr:`update_log_digest` chains a
        digest of the batch, so :attr:`cache_key` distinguishes every
        revision.  Local / exact-DP indexes are maintained incrementally (a
        localized re-peel of the dirty triangle neighborhood); other
        configurations fall back to a deterministic full rebuild.  See
        :func:`repro.index.incremental.apply_updates`.
        """
        from repro.index.incremental import apply_updates

        return apply_updates(self, updates)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path, *, compress: bool = True) -> Path:
        """Write the index to ``path`` as a single ``.npz`` archive.

        The write is lossless: :meth:`load` reconstructs a bit-identical
        index (same header, same array contents and dtypes).  numpy appends
        ``.npz`` to suffix-less paths, so the path is normalised first and
        the returned path always names the file actually written.

        ``compress=False`` stores the array members verbatim instead of
        deflating them, which makes the archive memory-mappable
        (``load(..., mmap=True)``) — the layout serving deployments want,
        trading disk size for zero-copy page sharing across workers.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = Path(str(path) + ".npz")
        try:
            header_json = json.dumps(self.header, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise IndexFormatError(f"index header is not JSON-serialisable: {exc}") from exc
        payload = {_HEADER_KEY: np.array(header_json)}
        payload.update(self.arrays)
        writer = np.savez_compressed if compress else np.savez
        with span("index.save", compress=compress), timer() as t:
            writer(path, **payload)
        if obs_config._ENABLED:
            obs_registry.histogram(
                "repro_index_save_seconds",
                "Wall-clock seconds writing an index archive.",
                compress=compress,
            ).observe(t.seconds)
        return path

    @classmethod
    def load(
        cls,
        path: str | Path,
        graph: ProbabilisticGraph | CSRProbabilisticGraph | None = None,
        *,
        mmap: bool = False,
    ) -> "NucleusIndex":
        """Read an index previously written by :meth:`save`.

        Parameters
        ----------
        path:
            The ``.npz`` file.
        graph:
            When given, the loaded fingerprint is checked against this live
            graph and :class:`IndexCompatibilityError` is raised on mismatch,
            so stale indexes cannot silently serve queries.
        mmap:
            Map the array entries read-only straight out of the archive
            instead of copying them into memory.  Requires an archive
            written with ``save(..., compress=False)``; compressed archives
            silently fall back to the eager load (check :attr:`mmapped` on
            the result).  Mapped indexes answer identically to eager ones —
            the pages are just demand-loaded and shared across processes.

        Raises
        ------
        IndexFormatError
            If the file is not a readable index (corrupted archive, missing
            entries, bad header, unsupported version).
        """
        with span("index.load", mmap=mmap), timer() as t:
            index = cls._load(path, graph, mmap=mmap)
        if obs_config._ENABLED:
            obs_registry.counter(
                "repro_index_loads_total",
                "Index archives loaded, labelled by whether they mapped.",
                mmap=index.mmapped,
            ).inc()
            obs_registry.histogram(
                "repro_index_load_seconds",
                "Wall-clock seconds loading an index archive.",
                mmap=index.mmapped,
            ).observe(t.seconds)
        return index

    @classmethod
    def _load(
        cls,
        path: str | Path,
        graph: ProbabilisticGraph | CSRProbabilisticGraph | None,
        *,
        mmap: bool,
    ) -> "NucleusIndex":
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                try:
                    header_json = str(data[_HEADER_KEY][()])
                except KeyError:
                    raise IndexFormatError(
                        f"{path} is not a nucleus index (missing header entry)"
                    ) from None
                try:
                    header = json.loads(header_json)
                except json.JSONDecodeError as exc:
                    raise IndexFormatError(f"{path} has a corrupted header: {exc}") from exc
                missing = [name for name in _ARRAY_SPECS if name not in data.files]
                if missing:
                    raise IndexFormatError(
                        f"{path} is missing array entry {missing[0]!r}"
                    )
                arrays = None
                if mmap:
                    arrays = _mmap_npz_arrays(path, _ARRAY_SPECS)
                mmapped = arrays is not None
                if arrays is None:
                    arrays = {name: data[name] for name in _ARRAY_SPECS}
        except IndexFormatError:
            raise
        except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as exc:
            raise IndexFormatError(f"{path} is not a readable index file: {exc}") from exc
        index = cls(header, arrays)
        index.mmapped = mmapped
        if graph is not None:
            index.verify_against(graph)
        return index

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NucleusIndex):
            return NotImplemented
        return self.header == other.header and all(
            np.array_equal(self.arrays[name], other.arrays[name])
            and self.arrays[name].dtype == other.arrays[name].dtype
            for name in _ARRAY_SPECS
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(mode={self.mode!r}, theta={self.theta}, "
            f"vertices={self.num_vertices}, edges={self.num_edges}, "
            f"triangles={self.num_triangles}, levels={list(self.levels)}, "
            f"components={self.num_components})"
        )
