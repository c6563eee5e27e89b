"""Shared lazy-deletion min-heap for the dict-based peeling loops.

Every dict-backed decomposition in this library — deterministic (3,4)-nucleus
and k-truss, probabilistic local nucleus, the (k, η)-core and (k, γ)-truss
baselines — follows
the same skeleton: pop the minimum-score element, skip it if it was already
processed, re-push it if its stored score went stale, otherwise peel it and
update its neighbours.  Historically each loop re-implemented the
stale-entry handling inline, and the five copies had started to drift (some
compared with ``!=``, some with ``>``, some tracked an ``alive`` set, some a
``processed`` set).

:class:`LazyMinHeap` centralises that protocol.  Callers describe their
current state with a single callback and the heap takes care of skipping
dead items and refreshing stale entries::

    heap = LazyMinHeap((score, item) for item, score in scores.items())

    def current(item):
        return None if item in processed else scores[item]

    while (entry := heap.pop(current)) is not None:
        value, item = entry
        ...  # peel `item`, update neighbour scores, heap.push(...) as needed

Equal values pop in ascending ``rank(item)``: the dict peels rank their
items with :func:`canonical_rank`, so labels of mixed types never compare.
The array-native peel engine (:mod:`repro.core.peel`) pushes int triangle
rows, which rank as themselves, only to replay the approximations'
trajectory; the exact DP peels in level-synchronous rounds.  This helper
lives outside :mod:`repro.core` so the deterministic layer and the baselines
can import it without cycles.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterable

from repro.graph.probabilistic_graph import sorted_labels

__all__ = ["LazyMinHeap", "canonical_rank"]


def canonical_rank(labels: Iterable[Hashable]) -> Callable[[Iterable[Hashable]], tuple]:
    """Rank a group of vertices by their positions in ``sorted_labels(labels)``.

    The positions are sorted, so every vertex order of a group ranks alike;
    where the labels compare, ranks order canonical groups as the groups do.

    >>> rank = canonical_rank([10, 9, "a"])
    >>> rank(("a", 10)), rank((9,))
    ((0, 2), (1,))
    """
    position = {label: i for i, label in enumerate(sorted_labels(labels))}
    return lambda group: tuple(sorted(position[v] for v in group))


class LazyMinHeap:
    """A min-heap of ``(value, item)`` entries with lazy deletion.

    Entries are never removed or re-keyed in place.  Instead, :meth:`pop`
    consults the caller's ``current`` callback: items it reports as dead
    (``None``) are dropped, entries whose stored value no longer matches the
    current value are re-pushed with the fresh value, and the first live,
    up-to-date entry is returned.  Ties between equal values pop in
    ascending ``rank(item)``, by default the item itself.
    """

    __slots__ = ("_heap", "_rank")

    def __init__(self, entries: Iterable[tuple] = (), rank: Callable | None = None) -> None:
        self._rank = rank or (lambda item: item)
        self._heap: list[tuple] = [(value, self._rank(item), item) for value, item in entries]
        heapq.heapify(self._heap)

    def push(self, value, item: Hashable) -> None:
        """Add an entry; stale copies of the same item are handled on pop."""
        heapq.heappush(self._heap, (value, self._rank(item), item))

    def pop(self, current: Callable[[Hashable], object]) -> tuple | None:
        """Pop the minimum live, up-to-date entry, or ``None`` when drained.

        ``current(item)`` must return the item's current value, or ``None``
        when the item has been processed/removed and every remaining entry
        for it should be discarded.  Entries whose stored value differs from
        the current value are re-pushed with the fresh value and retried, so
        a returned entry always satisfies ``entry[0] == current(entry[1])``.
        """
        heap = self._heap
        while heap:
            value, rank, item = heapq.heappop(heap)
            live = current(item)
            if live is None:
                continue
            if live != value:
                heapq.heappush(heap, (live, rank, item))
                continue
            return value, item
        return None

    def __len__(self) -> int:
        """Number of stored entries, including stale duplicates."""
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
