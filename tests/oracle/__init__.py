"""Test oracles: the dict-engine implementations of Algorithms 1–3.

The library runs every decomposition on one production engine, the CSR
arrays of :mod:`repro.core.batch` / :mod:`repro.core.peel` and the world
matrices of :mod:`repro.sampling.world_matrix`, and so do the deterministic
nucleus functions and the reliability estimator.  The seed-era dict engine
survives here, verbatim, as the reference the parity suites pin that engine
against:

* :mod:`oracle.local` — canonical-tuple triangle states and the
  :class:`~repro.peeling.LazyMinHeap` peel of Algorithm 1, and the dict
  grouping of its result's nuclei and of the local index snapshot
  (:func:`oracle.local.dict_snapshot`);
* :mod:`oracle.deterministic` — the heap peel of the deterministic nucleus
  decomposition, the three-condition predicate ``is_k_nucleus``, and the
  clique helpers only tests call;
* :mod:`oracle.possible_worlds` — every possible world built one dict world
  at a time (``enumerate_worlds``);
* :mod:`oracle.global_nucleus` — Algorithm 2's label-space candidate loop
  (dict closure, clique-set deduplication, subgraph per candidate), verified
  one :func:`~repro.graph.possible_worlds.sample_world` draw and one dict
  predicate at a time;
* :mod:`oracle.weak_nucleus` — Algorithm 3 scored by the dict deterministic
  nucleus decomposition of each sampled world;
* :mod:`oracle.reliability` — exact reliability summed over every possible
  world, one dict world at a time.

The Monte-Carlo oracles draw from :class:`random.Random`, so they agree with
the production engine in distribution, not draw for draw.  The steps they
share with production (the reference closure, maximality, the weak 4-clique
components) are imported from :mod:`repro.core`.  Nothing under ``src/``
imports this package.
"""

from oracle.global_nucleus import global_nucleus_decomposition
from oracle.local import dict_snapshot, local_nucleus_decomposition
from oracle.weak_nucleus import triangle_weak_scores, weak_nucleus_decomposition

__all__ = [
    "dict_snapshot",
    "global_nucleus_decomposition",
    "local_nucleus_decomposition",
    "triangle_weak_scores",
    "weak_nucleus_decomposition",
]
