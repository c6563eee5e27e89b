"""Shared split planning for world shards and sampling chunks.

Two layers of the Monte-Carlo engine split ranges of work into contiguous
blocks:

* :class:`repro.sampling.world_matrix.WorldShardPool` splits the rows of a
  sampled world block across worker processes (:func:`plan_shards`);
* :mod:`repro.sampling.adaptive` splits a candidate's world budget into
  geometrically growing chunks (:func:`chunk_schedule`).

:func:`plan_shards` is the single source of the even-split rule.  It
replicates :func:`numpy.array_split` block sizes *exactly* — the first
``total % parts`` blocks get one extra item — so the shard pool's migration
off ``array_split`` stayed bit-identical, and the unit pins in
``tests/test_world_matrix.py`` keep it that way.
"""

from __future__ import annotations

import math

from repro.exceptions import InvalidParameterError

__all__ = ["chunk_schedule", "plan_shards"]

#: Default first chunk size of the adaptive sequential sampler.
DEFAULT_CHUNK_INITIAL = 16

#: Default geometric growth factor between successive chunks.
DEFAULT_CHUNK_GROWTH = 2.0


def _require_positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    return value


def _require_finite(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def plan_shards(total: int, parts: int) -> tuple[tuple[int, int], ...]:
    """Split ``range(total)`` into ``parts`` contiguous half-open ranges.

    The block sizes replicate :func:`numpy.array_split`: the first
    ``total % parts`` ranges hold ``total // parts + 1`` items, the rest
    ``total // parts``.  Ranges may be empty when ``parts > total``.

    >>> plan_shards(10, 3)
    ((0, 4), (4, 7), (7, 10))
    >>> plan_shards(2, 4)
    ((0, 1), (1, 2), (2, 2), (2, 2))
    >>> plan_shards(6, 1)
    ((0, 6),)
    """
    _require_positive_int("parts", parts)
    if isinstance(total, bool) or not isinstance(total, int) or total < 0:
        raise InvalidParameterError(f"total must be a non-negative integer, got {total!r}")
    base, extra = divmod(total, parts)
    ranges: list[tuple[int, int]] = []
    start = 0
    for part in range(parts):
        stop = start + base + (1 if part < extra else 0)
        ranges.append((start, stop))
        start = stop
    return tuple(ranges)


def chunk_schedule(
    n_worlds_max: int,
    chunk_initial: int = DEFAULT_CHUNK_INITIAL,
    chunk_growth: float = DEFAULT_CHUNK_GROWTH,
) -> tuple[int, ...]:
    """The geometric chunk sizes summing exactly to ``n_worlds_max``.

    The nominal size starts at ``chunk_initial`` and multiplies by
    ``chunk_growth`` after every chunk; the final chunk is truncated so the
    cumulative draw never exceeds the cap.

    >>> chunk_schedule(400, 16, 2.0)
    (16, 32, 64, 128, 160)
    >>> chunk_schedule(10, 16, 2.0)
    (10,)
    """
    _require_positive_int("n_worlds_max", n_worlds_max)
    _require_positive_int("chunk_initial", chunk_initial)
    growth = _require_finite("chunk_growth", chunk_growth)
    if growth < 1.0:
        raise InvalidParameterError(
            f"chunk_growth must be a finite value >= 1, got {chunk_growth!r}"
        )
    sizes: list[int] = []
    total = 0
    nominal = float(chunk_initial)
    while total < n_worlds_max:
        step = min(max(1, int(nominal)), n_worlds_max - total)
        sizes.append(step)
        total += step
        nominal *= growth
    return tuple(sizes)
