"""Serve-time query engine over a loaded :class:`~repro.index.NucleusIndex`.

The engine answers the paper's community-search questions — what is this
vertex's maximum nucleus score, which nucleus contains these seed vertices,
which nuclei are the densest / most reliable — without ever re-running a
decomposition: every answer is a gather over the index's flat arrays.  Each
vertex-addressed query accepts either a single vertex label (returning a
scalar) or an iterable of labels (returning a matching numpy array in one
vectorized pass), and the scalar paths are fronted by an
:class:`~repro.query.cache.LRUCache` keyed by ``(cache_key, query)`` so hot
queries never recompute.  The cache key is the index's *versioned*
fingerprint (:attr:`~repro.index.NucleusIndex.cache_key`), so after
:meth:`refresh`-ing the engine onto an incrementally-updated index
(``apply_updates``) stale entries are never served while entries for any
revision the engine already answered remain valid.

Exactness contract: every query returns exactly what recomputing the
decomposition and inspecting its result objects would return (pinned by
``tests/test_query_engine.py``) —

* :meth:`max_score` ≡ ``LocalNucleusDecomposition.max_score_of``;
* :meth:`nuclei` ≡ ``LocalNucleusDecomposition.nuclei`` (local indexes) or
  the decomposition's nucleus list (global / weakly-global indexes);
* :meth:`nucleus_of` ≡ filtering that list for the smallest nucleus whose
  vertex set contains every seed.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.result import ProbabilisticNucleus
from repro.exceptions import (
    InvalidParameterError,
    LevelNotIndexedError,
    NucleusNotFoundError,
    VertexNotFoundError,
    check_level,
)
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex, label_sort_key
from repro.index.nucleus_index import NucleusIndex
from repro.query.cache import LRUCache

__all__ = ["NucleusQueryEngine", "RANK_KEYS"]

#: Supported ranking criteria for :meth:`NucleusQueryEngine.top_nuclei`.
RANK_KEYS = ("density", "score", "reliability", "size")


def _is_single_vertex(value) -> bool:
    """True when ``value`` is one vertex label rather than an iterable of labels.

    Vertex labels are ``int`` or ``str`` (the only kinds an index snapshots
    losslessly), so anything else iterable is a batch.
    """
    return isinstance(value, (str, int)) or not hasattr(value, "__iter__")


def _labels_are_identity(labels: list) -> bool:
    """Whether ``labels[i] == i`` for every i (ints 0..n-1, the common case)."""
    try:
        ids = np.asarray(labels)
    except (ValueError, TypeError):  # pragma: no cover - exotic label objects
        return False
    return (
        ids.ndim == 1
        and ids.dtype.kind in "iu"
        and bool((ids == np.arange(len(labels))).all())
    )


def _seed_tuple(seeds) -> tuple:
    """Normalise a seed argument (one label or an iterable of labels) to a tuple."""
    if _is_single_vertex(seeds):
        return (seeds,)
    return tuple(seeds)


def _deprecated_batch_alias(name: str, replacement: str):
    """A thin ``*_batch`` shim that warns and forwards to the unified method.

    The unified methods accept scalar-or-array input directly; the old batch
    names survive one deprecation cycle so existing callers keep working.
    The forwarded argument is listified, so the alias always returns an
    array exactly like the original batch method did.
    """

    def alias(self, vertices, *args, **kwargs):
        warnings.warn(
            f"NucleusQueryEngine.{name}() is deprecated; call "
            f"NucleusQueryEngine.{replacement}() with an iterable of vertices instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return getattr(self, replacement)(list(vertices), *args, **kwargs)

    alias.__name__ = name
    alias.__qualname__ = f"NucleusQueryEngine.{name}"
    alias.__doc__ = (
        f"Deprecated alias of :meth:`{replacement}` (always returns an array)."
    )
    return alias


class NucleusQueryEngine:
    """Answer community-search queries from a prebuilt nucleus index.

    Parameters
    ----------
    index:
        A :class:`NucleusIndex` (freshly built or ``load()``-ed).
    graph:
        Optional live graph; when given, its fingerprint is verified against
        the index so a stale index raises
        :class:`~repro.exceptions.IndexCompatibilityError` immediately.
    cache_size:
        Capacity of the per-engine LRU result cache.
    """

    def __init__(
        self,
        index: NucleusIndex,
        graph: ProbabilisticGraph | CSRProbabilisticGraph | None = None,
        cache_size: int = 1024,
    ) -> None:
        if graph is not None:
            index.verify_against(graph)
        self.index = index
        self.cache = LRUCache(cache_size)
        self._id_of = {label: i for i, label in enumerate(index.vertex_labels)}
        self._identity_labels = _labels_are_identity(index.vertex_labels)
        # Lazily-built per-level structures and materialised nuclei.
        self._level_masks: dict[int, np.ndarray] = {}
        self._level_smallest: dict[int, np.ndarray] = {}
        self._comp_vertices: dict[int, np.ndarray] = {}
        self._materialised: dict[int, ProbabilisticNucleus] = {}

    def refresh(
        self,
        index: NucleusIndex,
        graph: ProbabilisticGraph | CSRProbabilisticGraph | None = None,
    ) -> "NucleusQueryEngine":
        """Swap in a new index revision without discarding the result cache.

        Intended for the incremental-update loop: after
        ``new_index = index.apply_updates(batch)``, call
        ``engine.refresh(new_index)`` and keep querying.  All per-index lazy
        structures (level masks, materialised nuclei, label table) are
        rebuilt on demand against the new index, while the LRU cache is kept
        as-is — its entries are keyed by each revision's
        :attr:`~repro.index.NucleusIndex.cache_key`, so entries for prior
        revisions are simply never hit again (and age out) rather than being
        served stale.  As in ``__init__``, passing ``graph`` verifies the
        new index against it first.  Returns ``self`` for chaining.
        """
        if graph is not None:
            index.verify_against(graph)
        self.index = index
        self._id_of = {label: i for i, label in enumerate(index.vertex_labels)}
        self._identity_labels = _labels_are_identity(index.vertex_labels)
        self._level_masks = {}
        self._level_smallest = {}
        self._comp_vertices = {}
        self._materialised = {}
        return self

    # ------------------------------------------------------------------ #
    # label / level resolution
    # ------------------------------------------------------------------ #
    def _vertex_id(self, label: Vertex) -> int:
        try:
            return self._id_of[label]
        except (KeyError, TypeError):
            raise VertexNotFoundError(label) from None

    def _vertex_ids(self, labels) -> np.ndarray:
        labels = list(labels)
        if self._identity_labels and labels:
            # Labels are exactly 0..n-1: skip the per-label dict walk and
            # translate the whole batch with one asarray + bounds check.
            ids = np.asarray(labels)
            if ids.dtype.kind in "iu" and ids.ndim == 1:
                n = self.index.num_vertices
                if 0 <= ids.min() and ids.max() < n:
                    return ids.astype(np.int64, copy=False)
            # Fall through for unknown / non-integer labels so the offending
            # label raises the usual VertexNotFoundError.
        ids = np.fromiter(
            (self._vertex_id(label) for label in labels), dtype=np.int64, count=len(labels)
        )
        return ids

    def _check_level(self, k: int) -> int:
        k = check_level(k)
        if self.index.mode != "local" and k not in self.index.levels:
            # A global / weakly-global index certifies exactly one k; other
            # levels are not derivable from the snapshot.
            raise LevelNotIndexedError(k, self.index.levels)
        return k

    def _components_at(self, k: int) -> np.ndarray:
        return self.index.components_at_level(k)

    def _component_vertices(self, component: int) -> np.ndarray:
        if component not in self._comp_vertices:
            rows = self.index.arrays["triangles"][
                self.index.component_triangle_positions(component)
            ]
            self._comp_vertices[component] = np.unique(rows.ravel())
        return self._comp_vertices[component]

    def _level_structures(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-level vertex membership mask and smallest-containing-component map."""
        if k not in self._level_masks:
            n = self.index.num_vertices
            mask = np.zeros(n, dtype=bool)
            smallest = np.full(n, -1, dtype=np.int64)
            a = self.index.arrays

            def descending_size(c: int) -> tuple[int, int, int]:
                return (-int(a["comp_n_vertices"][c]), -int(a["comp_n_edges"][c]), -c)

            comps = sorted(self._components_at(k).tolist(), key=descending_size)
            # Descending size order: the final write into ``smallest`` per
            # vertex comes from the smallest containing component.
            for component in comps:
                vertices = self._component_vertices(component)
                mask[vertices] = True
                smallest[vertices] = component
            self._level_masks[k] = mask
            self._level_smallest[k] = smallest
        return self._level_masks[k], self._level_smallest[k]

    def _nucleus(self, component: int) -> ProbabilisticNucleus:
        if component not in self._materialised:
            self._materialised[component] = self.index.component_nucleus(component)
        return self._materialised[component]

    # ------------------------------------------------------------------ #
    # vertex → max score
    # ------------------------------------------------------------------ #
    def max_score(self, vertices) -> int | np.ndarray:
        """Maximum nucleus score over the triangles containing each vertex.

        Accepts one vertex label (returns an ``int``, LRU-cached) or an
        iterable of labels (returns a parallel ``int64`` array computed in
        one vectorized gather).  ``-1`` means the vertex lies in no scored
        triangle (it belongs to no nucleus at any level).  Unknown vertices
        raise :class:`~repro.exceptions.VertexNotFoundError`.
        """
        if not _is_single_vertex(vertices):
            return self.index.arrays["vertex_max_score"][self._vertex_ids(vertices)]
        key = (self.index.cache_key, "max_score", vertices)
        cached = self.cache.get(key)
        if cached is None:
            cached = int(self.index.arrays["vertex_max_score"][self._vertex_id(vertices)])
            self.cache.put(key, cached)
        return cached

    # ------------------------------------------------------------------ #
    # membership / community search
    # ------------------------------------------------------------------ #
    def contains(self, vertices, k: int) -> bool | np.ndarray:
        """Whether each vertex belongs to some indexed nucleus at level ``k``.

        One label returns a ``bool``; an iterable of labels returns a
        parallel boolean array from a single mask gather.
        """
        mask, _ = self._level_structures(self._check_level(k))
        if _is_single_vertex(vertices):
            return bool(mask[self._vertex_id(vertices)])
        return mask[self._vertex_ids(vertices)]

    def nuclei(self, k: int) -> list[ProbabilisticNucleus]:
        """Return every indexed nucleus at level ``k`` (deterministic order).

        For a local index this equals ``LocalNucleusDecomposition.nuclei(k)``
        up to ordering; for a global / weakly-global index it equals the
        decomposition's returned nucleus list.
        """
        return [self._nucleus(int(c)) for c in self._components_at(self._check_level(k))]

    def nucleus_of(self, seeds, k: int) -> ProbabilisticNucleus:
        """Community search: the smallest indexed nucleus at level ``k`` containing
        every seed vertex.

        ``seeds`` is a single vertex label or an iterable of labels
        (multi-seed search).  "Smallest" breaks ties deterministically by
        (vertex count, edge count, component order).  Raises
        :class:`~repro.exceptions.NucleusNotFoundError` when no indexed
        nucleus contains all seeds.
        """
        seed_labels = _seed_tuple(seeds)
        if not seed_labels:
            raise InvalidParameterError("nucleus_of requires at least one seed vertex")
        k = self._check_level(k)
        sorted_seeds = tuple(sorted(seed_labels, key=label_sort_key))
        key = (self.index.cache_key, "nucleus_of", sorted_seeds, k)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        seed_ids = self._vertex_ids(seed_labels)
        a = self.index.arrays
        best: int | None = None
        for c in self._components_at(k).tolist():
            vertices = self._component_vertices(c)
            if not np.all(np.isin(seed_ids, vertices, assume_unique=False)):
                continue
            if best is None or (
                (int(a["comp_n_vertices"][c]), int(a["comp_n_edges"][c]), c)
                < (int(a["comp_n_vertices"][best]), int(a["comp_n_edges"][best]), best)
            ):
                best = c
        if best is None:
            raise NucleusNotFoundError(
                f"no {self.index.mode} nucleus at level k={k} contains "
                f"all of {list(seed_labels)!r}"
            )
        nucleus = self._nucleus(best)
        self.cache.put(key, nucleus)
        return nucleus

    def smallest_nucleus(self, vertices, k: int) -> int | np.ndarray:
        """Single-seed :meth:`nucleus_of` by component id: one gather per call.

        Returns, for each vertex, the index-wide component id of the smallest
        nucleus at level ``k`` containing it (``-1`` when it belongs to
        none) — an ``int`` for one label, a parallel ``int64`` array for an
        iterable.  Materialise a component id with
        ``engine.index.component_nucleus(component)``.
        """
        _, smallest = self._level_structures(self._check_level(k))
        if _is_single_vertex(vertices):
            return int(smallest[self._vertex_id(vertices)])
        return smallest[self._vertex_ids(vertices)]

    # Deprecated scalar/batch split (PR 3); the unified methods above accept
    # scalar-or-array input and return a matching shape.
    max_score_batch = _deprecated_batch_alias("max_score_batch", "max_score")
    contains_batch = _deprecated_batch_alias("contains_batch", "contains")
    smallest_nucleus_batch = _deprecated_batch_alias(
        "smallest_nucleus_batch", "smallest_nucleus"
    )

    # ------------------------------------------------------------------ #
    # top-k nuclei
    # ------------------------------------------------------------------ #
    def _rank_values(self, components: np.ndarray, by: str) -> np.ndarray:
        a = self.index.arrays
        if by == "density":
            n_vertices = a["comp_n_vertices"][components]
            return a["comp_sum_edge_prob"][components] / (n_vertices * (n_vertices - 1) / 2.0)
        if by == "score":
            return a["comp_max_score"][components].astype(np.float64)
        if by == "reliability":
            return np.exp(a["comp_log_reliability"][components])
        if by == "size":
            return a["comp_n_vertices"][components].astype(np.float64)
        raise InvalidParameterError(f"by must be one of {RANK_KEYS}, got {by!r}")

    def rank_table(
        self,
        k: int | None = None,
        by: str = "density",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank every indexed nucleus in one numpy pass (the batched top-k).

        Returns ``(components, values)``: index-wide component ids sorted by
        descending rank value (ties broken by component order), restricted
        to level ``k`` when given, across all levels otherwise.
        """
        if k is None:
            components = np.arange(self.index.num_components, dtype=np.int64)
        else:
            components = self._components_at(self._check_level(k))
        values = self._rank_values(components, by)
        order = np.lexsort((components, -values))
        return components[order], values[order]

    def top_nuclei(
        self, n: int = 5, k: int | None = None, by: str = "density"
    ) -> list[ProbabilisticNucleus]:
        """Return the top-``n`` indexed nuclei ranked by ``by`` (LRU-cached).

        ``by`` is one of ``"density"`` (probabilistic density, Eq. 19),
        ``"score"`` (maximum triangle nucleus score), ``"reliability"``
        (probability that every edge of the nucleus exists) or ``"size"``
        (vertex count).
        """
        if n < 0:
            raise InvalidParameterError(f"n must be non-negative, got {n}")
        key = (self.index.cache_key, "top_nuclei", n, k, by)
        cached = self.cache.get(key)
        if cached is None:
            components, _ = self.rank_table(k=k, by=by)
            cached = [self._nucleus(int(c)) for c in components[:n]]
            self.cache.put(key, cached)
        return list(cached)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict:
        """Return the LRU cache statistics (see :meth:`LRUCache.stats`)."""
        return self.cache.stats()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(index={self.index!r}, cache={self.cache!r})"
