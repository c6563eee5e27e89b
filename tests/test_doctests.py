"""Keep the package's docstring examples executable.

The CI workflow runs ``pytest --doctest-modules`` over ``src/repro/graph``,
``src/repro/sampling``, ``src/repro/hardness``, ``src/repro/deterministic``,
``src/repro/exceptions.py``, ``src/repro/__init__.py`` and
``src/repro/core/result.py`` on every push;
this tier-1 test runs the examples of the modules below in plain local runs
of ``python -m pytest`` as well, including modules that step does not reach.
"""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.core.result
import repro.deterministic.nucleus
import repro.exceptions
import repro.graph.csr
import repro.graph.probabilistic_graph
import repro.hardness.reductions
import repro.index
import repro.index.fingerprint
import repro.obs
import repro.obs.timing
import repro.peeling
import repro.query
import repro.query.cache
import repro.sampling.verification
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY

MODULES = [
    repro,
    repro.core.result,
    repro.deterministic.nucleus,
    repro.exceptions,
    repro.graph.csr,
    repro.graph.probabilistic_graph,
    repro.hardness.reductions,
    repro.index,
    repro.index.fingerprint,
    repro.obs,
    repro.obs.timing,
    repro.peeling,
    repro.query,
    repro.query.cache,
    repro.sampling.verification,
]


@pytest.fixture
def restored_obs_state():
    """Give back the telemetry switch and the metric registry an example found.

    The ``repro.obs`` example switches telemetry on and then off, and
    registers an ``example_events_total`` counter (plus its span's
    ``repro_span_seconds`` series) in the process-wide registry.
    """
    enabled = obs_config.enabled()
    tables = (REGISTRY._metrics, REGISTRY._kinds, REGISTRY._help)
    saved = [dict(table) for table in tables]
    yield
    obs_config.configure(enabled=enabled)
    for table, entries in zip(tables, saved):
        table.clear()
        table.update(entries)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module, restored_obs_state):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} should carry doctest examples"
    assert results.failed == 0
