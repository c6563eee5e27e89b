"""Keep the package's docstring examples executable.

The CI workflow runs ``pytest --doctest-modules src/repro/graph`` on every
push; this tier-1 test keeps the same examples green in plain local runs of
``python -m pytest`` as well.
"""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.graph.csr
import repro.graph.probabilistic_graph
import repro.index
import repro.index.fingerprint
import repro.query
import repro.query.cache
import repro.sampling.adaptive

MODULES = [
    repro,
    repro.graph.csr,
    repro.graph.probabilistic_graph,
    repro.index,
    repro.index.fingerprint,
    repro.query,
    repro.query.cache,
    repro.sampling.adaptive,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} should carry doctest examples"
    assert results.failed == 0
