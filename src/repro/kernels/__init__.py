"""Optional compiled kernel for the bucket-queue peel.

The peel of :mod:`repro.core.peel` is fully array-shaped, which makes it
JIT-able: this package holds a numba-compiled version behind a
``kernel="numpy"|"numba"`` switch threaded through :func:`repro.decompose`,
the index builders, ``repro-experiments`` and ``repro-index build``.  World
verification has no such switch: it always runs the batched numpy
predicates of :mod:`repro.sampling.world_matrix`.

numba is an *optional* dependency (``pip install .[kernels]``).  When it is
missing, :func:`resolve_kernel` falls back to ``"numpy"`` with a single
:class:`RuntimeWarning` and every caller keeps working on the portable numpy
peel — the fallback leg of the CI matrix pins that the whole suite stays
green without numba.

Parity contract (pinned by ``tests/test_kernels.py``): the compiled peel is
**bit-identical** — it runs unit-drop (exact-DP) repairs only, keeping the
Poisson-binomial repair in Python behind a batched callback boundary; every
other repair (the §5.3 approximations) runs the numpy lazy heap.

The kernel bodies are written in the numba-compatible subset of Python and
compiled lazily on first dispatch; :func:`force_interpreted` runs the same
bodies uncompiled, so the parity suite exercises the kernel logic even in
environments where numba cannot be installed.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

from repro.exceptions import InvalidParameterError
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry

__all__ = [
    "KERNELS",
    "numba_available",
    "resolve_kernel",
    "force_interpreted",
    "active_jit",
]

#: The selectable kernel implementations.
KERNELS = ("numpy", "numba")

#: Buckets for the one-off JIT compile-time histogram (seconds).
COMPILE_BUCKETS: tuple[float, ...] = (0.05, 0.25, 1.0, 2.5, 5.0, 10.0, 30.0)

_state = {"available": None, "warned": False, "interpreted": False}


def numba_available() -> bool:
    """Whether numba can be imported (cached after the first probe)."""
    if _state["available"] is None:
        try:
            import numba  # noqa: F401

            _state["available"] = True
        except Exception:  # pragma: no cover - import machinery differs per env
            _state["available"] = False
    return bool(_state["available"])


def resolve_kernel(kernel: str, warn: bool = True) -> str:
    """Validate ``kernel`` and resolve it against the installed toolchain.

    ``"numba"`` degrades to ``"numpy"`` when numba is not importable —
    warning once per process (suppressed with ``warn=False``, e.g. when a
    builder only records the resolved value) — so a config written on a
    machine with the ``[kernels]`` extra still runs everywhere.  Unknown
    names raise :class:`~repro.exceptions.InvalidParameterError`.  Inside
    :func:`force_interpreted` the fallback is skipped: the pure-Python
    kernel bodies run instead, which is how the parity suite covers the
    kernel code paths without numba.
    """
    if kernel not in KERNELS:
        raise InvalidParameterError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if kernel == "numba" and not numba_available() and not _state["interpreted"]:
        if warn and not _state["warned"]:
            _state["warned"] = True
            warnings.warn(
                'kernel="numba" requested but numba is not installed; falling '
                "back to the numpy kernels (pip install .[kernels] to enable)",
                RuntimeWarning,
                stacklevel=3,
            )
        return "numpy"
    return kernel


@contextmanager
def force_interpreted():
    """Run the ``"numba"`` kernel bodies as plain Python (test hook).

    Within the context, :func:`resolve_kernel` keeps ``"numba"`` resolved
    even without numba installed and :func:`active_jit` returns ``None``,
    so dispatch reaches the kernel implementations uncompiled.  The bodies
    are semantically identical either way (numba's nopython mode evaluates
    the same subset of Python), which turns the cross-kernel parity sweep
    into real coverage on numba-less environments.
    """
    previous = _state["interpreted"]
    _state["interpreted"] = True
    try:
        yield
    finally:
        _state["interpreted"] = previous


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning (test isolation)."""
    _state["warned"] = False


def active_jit():
    """The ``numba.njit`` decorator to compile kernels with, or ``None``.

    ``None`` — meaning "run the kernel bodies interpreted" — when numba is
    unavailable or :func:`force_interpreted` is active.
    """
    if _state["interpreted"] or not numba_available():
        return None
    import numba

    return numba.njit(cache=False, fastmath=False)


def record_dispatch(phase: str, kernel: str) -> None:
    """Count one kernelised call, labelled by phase and resolved kernel."""
    if not obs_config._ENABLED:
        return
    obs_registry.counter(
        "repro_kernel_dispatch_total",
        "Kernelised hot-loop calls by pipeline phase and resolved kernel.",
        phase=phase,
        kernel=kernel,
    ).inc()


def record_compile(group: str, seconds: float) -> None:
    """Record one kernel group's one-off JIT compile (incl. warm-up) time."""
    if not obs_config._ENABLED:
        return
    obs_registry.histogram(
        "repro_kernel_compile_seconds",
        "One-off numba JIT compile + warm-up seconds per kernel group.",
        buckets=COMPILE_BUCKETS,
        group=group,
    ).observe(seconds)
