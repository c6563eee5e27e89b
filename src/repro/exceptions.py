"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  More specific subclasses communicate the nature of
the failure (invalid probability, missing vertex/edge, malformed input file,
invalid algorithm parameter).
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from collections.abc import Iterable


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


def check_level(k) -> int:
    """Return a nucleus level ``k`` as an ``int``: a non-negative integer, numpy
    integers included (not a ``bool``), else raise.

    The one rule for ``k``, shared by the decomposition drivers,
    :meth:`~repro.core.result.LocalNucleusDecomposition.nuclei`, the query
    engine, the candidate closure and the world-matrix predicates.  It lives
    in this leaf module so the sampling layer can import it without a cycle
    through :mod:`repro.core`.
    """
    return _require_nonnegative_int("k", k)


def check_theta(theta) -> None:
    """Validate a threshold ``theta``: a real number in ``[0, 1]``, not a ``bool``.

    The one rule for θ.  An in-range ``float`` passes after one type test:
    the peel's κ repair calls this on every recomputation.
    """
    if type(theta) is float and 0.0 <= theta <= 1.0:
        return
    if isinstance(theta, bool) or not isinstance(theta, numbers.Real) or not 0 <= theta <= 1:
        raise InvalidParameterError(f"theta must be a real number in [0, 1], got {theta!r}")


def _require_nonnegative_int(name: str, value) -> int:
    """Return ``value`` as an ``int`` if it is a non-negative integer (``k``, a
    ``seed``), numpy integers included (not a ``bool``), else raise naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise InvalidParameterError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _require_positive_int(name: str, value) -> int:
    """Return ``value`` as an ``int`` if it is a positive integer, numpy integers
    included (not a ``bool``), else raise naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _require_finite(name: str, value) -> float:
    """Return ``value`` as a ``float`` if it is a finite real number, numpy scalars
    included (not a ``bool`` or a string), else raise naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _require_confidence(name: str, value) -> float:
    """Return ``value`` as a ``float`` if it is a finite number in ``(0, 1)``."""
    confidence = _require_finite(name, value)
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(f"{name} must be a finite value in (0, 1), got {value!r}")
    return confidence


def _require_growth(name: str, value) -> float:
    """Return ``value`` as a ``float`` if it is a finite number ``>= 1``."""
    growth = _require_finite(name, value)
    if growth < 1.0:
        raise InvalidParameterError(f"{name} must be a finite value >= 1, got {value!r}")
    return growth


_FIXED_LOOP = "every candidate draws exactly n_samples worlds"

#: The retired knobs of ``__api_version__ = "1"``: the value each one accepts
#: silently, its deprecated value (or, for a numeric knob, the check every
#: other value must pass), and what runs instead.
_RETIRED_KNOBS = {
    "backend": ("csr", "dict", "runs the CSR engine"),
    "kernel": ("numpy", "numba", "runs the numpy peel"),
    "partitions": (
        1,
        _require_positive_int,
        "every candidate is verified in memory-bounded world blocks",
    ),
    "n_jobs": (1, _require_positive_int, "every candidate is verified serially"),
    "sampling": ("fixed", "adaptive", "runs the fixed-n loop: " + _FIXED_LOOP),
    "confidence": (0.95, _require_confidence, _FIXED_LOOP),
    "n_worlds_max": (None, _require_positive_int, _FIXED_LOOP),
    "chunk_initial": (16, _require_positive_int, _FIXED_LOOP),
    "chunk_growth": (2.0, _require_growth, _FIXED_LOOP),
}


def check_retired_knob(name: str, value) -> None:
    """Accept a retired knob of ``__api_version__ = "1"``: ``backend``, ``kernel``,
    ``partitions``, ``n_jobs``, ``sampling``, ``confidence``, ``n_worlds_max``,
    ``chunk_initial`` or ``chunk_growth``.

    One engine remains behind each: the CSR arrays, the numpy peel, and the
    serial, block-wise, fixed-``n`` verification loop of
    :mod:`repro.sampling.verification`.  The silent value (the knob's old
    default: ``"csr"``, ``"numpy"``, ``1``, ``"fixed"``, ``0.95``, ``None``,
    ``16``, ``2.0``) passes; the deprecated value of :data:`_RETIRED_KNOBS`
    (for a numeric knob, any other value its check accepts) warns once with
    a :class:`DeprecationWarning` and runs the one engine; any other value
    raises :class:`InvalidParameterError` naming the knob.
    """
    silent, deprecated, instead = _RETIRED_KNOBS[name]
    if callable(deprecated):
        if value is silent or deprecated(name, value) == silent:
            return
        message = f"{name}= is deprecated: {instead}; omit {name}="
    elif value == silent:
        return
    elif value == deprecated:
        message = f'{name}="{deprecated}" is deprecated and {instead}; omit {name}='
    else:
        raise InvalidParameterError(
            f'{name} must be "{silent}" (or the deprecated "{deprecated}"), got {value!r}'
        )
    warnings.warn(message, DeprecationWarning, stacklevel=_caller_stacklevel())


def check_retired_knobs(
    entry: str, retired: dict, names: Iterable[str] = _RETIRED_KNOBS
) -> None:
    """The one retired-knob gate of an entry point: ``retired`` holds the
    keywords ``entry`` collected as ``**retired``.

    A keyword outside ``names`` (by default every knob of
    :data:`_RETIRED_KNOBS`) raises the :class:`TypeError` Python raises for
    an unexpected keyword argument of ``entry``.  The others go through
    :func:`check_retired_knob` in table order.

    >>> check_retired_knobs("f", {"backend": "csr", "n_jobs": 1})
    >>> check_retired_knobs("f", {"sampling": "fixed"}, ("backend", "kernel"))
    Traceback (most recent call last):
    TypeError: f() got an unexpected keyword argument 'sampling'
    >>> with warnings.catch_warnings(record=True) as caught:
    ...     warnings.simplefilter("always")
    ...     check_retired_knobs("f", {"kernel": "numba", "backend": "dict"})
    >>> [str(warning.message).split(" is ")[0] for warning in caught]
    ['backend="dict"', 'kernel="numba"']
    """
    for name in retired:
        if name not in names:
            raise TypeError(f"{entry}() got an unexpected keyword argument {name!r}")
    for name in _RETIRED_KNOBS:
        if name in retired:
            check_retired_knob(name, retired[name])


#: The retired knobs with a flag on ``repro-index build`` and
#: ``repro-experiments run``: ``--backend`` … ``--n-worlds-max``.
_RETIRED_FLAGS = ("backend", "kernel", "partitions", "sampling", "confidence", "n_worlds_max")


def add_retired_flags(parser) -> None:
    """Register the :data:`_RETIRED_FLAGS` on an :mod:`argparse` parser, each
    defaulting to its knob's silent value; :func:`check_retired_flags`
    checks what was parsed."""
    for name in _RETIRED_FLAGS:
        silent, deprecated, instead = _RETIRED_KNOBS[name]
        if callable(deprecated):
            others = "other valid values warn"
        else:
            others = f"the deprecated {deprecated} warns"
        parser.add_argument(
            f"--{name.replace('_', '-')}",
            type=int if silent is None else type(silent),
            default=silent,
            metavar="VALUE",
            help=f"retired ({instead}): {silent or 'unset'} (default) is silent, {others}",
        )


def check_retired_flags(args) -> None:
    """Check the flags of :func:`add_retired_flags` as parsed into ``args``."""
    for name in _RETIRED_FLAGS:
        check_retired_knob(name, getattr(args, name))


def _caller_stacklevel() -> int:
    """The ``stacklevel`` that reports a warning of :func:`check_retired_knob`
    against its first caller outside the :mod:`repro` package.

    The knobs reach the helper through a driver, an index builder,
    :func:`repro.decompose` or a CLI, and through the gates above, so no
    fixed level names the caller's line; and Python's default filters show
    a :class:`DeprecationWarning` only when it is reported against
    ``__main__``.  A frame counts as inside the package by its module name,
    so ``python -m repro.cli`` and ``python -m repro.experiments`` report
    against their ``__main__``.
    """
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] == "repro":
        frame, level = frame.f_back, level + 1
    return level


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
