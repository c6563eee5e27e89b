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

The array-native peel engine (:mod:`repro.core.peel`) uses it only to replay
the approximations' trajectory; the exact DP peels in level-synchronous
rounds.  This helper intentionally lives outside :mod:`repro.core`, where the
deterministic layer and the baselines can import it without cycles.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterable

__all__ = ["LazyMinHeap"]


class LazyMinHeap:
    """A min-heap of ``(value, item)`` entries with lazy deletion.

    Entries are never removed or re-keyed in place.  Instead, :meth:`pop`
    consults the caller's ``current`` callback: items it reports as dead
    (``None``) are dropped, entries whose stored value no longer matches the
    current value are re-pushed with the fresh value, and the first live,
    up-to-date entry is returned.  Ties between equal values fall back to
    comparing the items themselves, matching the behaviour of the historical
    inline ``heapq`` loops.
    """

    __slots__ = ("_heap",)

    def __init__(self, entries: Iterable[tuple] = ()) -> None:
        self._heap: list[tuple] = list(entries)
        heapq.heapify(self._heap)

    def push(self, value, item: Hashable) -> None:
        """Add an entry; stale copies of the same item are handled on pop."""
        heapq.heappush(self._heap, (value, item))

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
            value, item = heapq.heappop(heap)
            live = current(item)
            if live is None:
                continue
            if live != value:
                heapq.heappush(heap, (live, item))
                continue
            return value, item
        return None

    def __len__(self) -> int:
        """Number of stored entries, including stale duplicates."""
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
