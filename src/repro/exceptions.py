"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  More specific subclasses communicate the nature of
the failure (invalid probability, missing vertex/edge, malformed input file,
invalid algorithm parameter).
"""

from __future__ import annotations

import math
import numbers


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Base class for errors related to graph structure or contents."""


class VertexNotFoundError(GraphError, KeyError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class InvalidProbabilityError(GraphError, ValueError):
    """Raised when an edge probability falls outside the interval ``(0, 1]``.

    The paper's model maps every edge to a probability in ``(0, 1]``: an edge
    with probability zero simply does not belong to the graph, and values
    above one are meaningless.
    """

    def __init__(self, value: float, context: str = "") -> None:
        message = f"edge probability must be in (0, 1], got {value!r}"
        if context:
            message = f"{message} ({context})"
        super().__init__(message)
        self.value = value


class TriangleNotFoundError(GraphError, KeyError):
    """Raised when a query references a triangle that was never scored."""

    def __init__(self, triangle: object) -> None:
        super().__init__(f"triangle {triangle!r} was not scored by the decomposition")
        self.triangle = triangle


class InvalidParameterError(ReproError, ValueError):
    """Raised when an algorithm parameter is outside its valid domain.

    Examples include a negative ``k``, a threshold ``theta`` outside
    ``[0, 1]``, or a non-positive Monte-Carlo sample count.
    """


def check_level(k) -> None:
    """Validate a nucleus level ``k``: a non-negative ``int`` (not a ``bool``).

    The one rule for ``k``, shared by the decomposition drivers,
    :meth:`~repro.core.result.LocalNucleusDecomposition.nuclei`, the query
    engine, the candidate closure and the world-matrix predicates.  It lives
    in this leaf module so the sampling layer can import it without a cycle
    through :mod:`repro.core`.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidParameterError(f"k must be a non-negative integer, got {k!r}")


def check_theta(theta) -> None:
    """Validate a threshold ``theta``: a real number in ``[0, 1]``, not a ``bool``.

    The one rule for θ.  An in-range ``float`` passes after one type test:
    the peel's κ repair calls this on every recomputation.
    """
    if type(theta) is float and 0.0 <= theta <= 1.0:
        return
    if isinstance(theta, bool) or not isinstance(theta, numbers.Real) or not 0 <= theta <= 1:
        raise InvalidParameterError(f"theta must be a real number in [0, 1], got {theta!r}")


def _require_positive_int(name: str, value) -> int:
    """Return ``value`` if it is a positive ``int`` (not a ``bool``), else raise naming it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    return value


def _require_finite(name: str, value) -> float:
    """Return ``value`` as a ``float`` if it is a finite ``int`` or ``float`` (not a
    ``bool`` or a string), else raise naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    return float(value)


class IndexingError(ReproError):
    """Base class for errors of the serve-time subsystem (:mod:`repro.index`,
    :mod:`repro.query`)."""


class IndexFormatError(IndexingError, ValueError):
    """Raised when an index file is corrupted, truncated, or has an
    unsupported format version, or when a graph cannot be indexed (for
    example because its vertex labels are not JSON-serialisable)."""


class IndexCompatibilityError(IndexingError):
    """Raised when a loaded index does not match the graph or parameters it
    is being used with (fingerprint mismatch)."""


class LevelNotIndexedError(IndexingError, KeyError):
    """Raised when a query asks for a ``k`` level the index does not store.

    Local indexes store every level ``0 … max_score``; global and
    weakly-global indexes store only the single ``k`` they were built at.
    """

    def __init__(self, k: object, levels: tuple = ()) -> None:
        super().__init__(f"level k={k!r} is not indexed (available levels: {list(levels)})")
        self.k = k
        self.levels = tuple(levels)


class NucleusNotFoundError(IndexingError, LookupError):
    """Raised when no nucleus satisfies a membership query (for example no
    indexed nucleus contains all the seed vertices at the requested level)."""


class GraphFormatError(ReproError, ValueError):
    """Raised when parsing an edge-list file fails."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number
