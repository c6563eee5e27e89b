"""Union-find over triangle ids: 4-clique-connected components (Definition 2).

The array counterpart of
:func:`repro.deterministic.cliques.triangle_connected_components`: 4-cliques
join their member triangles in one vectorized union-find forest, and the
components are read off its roots.  The weakly-global driver
(:mod:`repro.core.weak_nucleus`) groups each candidate's qualifying triangles
with it, and the index builders (:mod:`repro.index.builders`) group every
nucleus level of a local decomposition.
"""

from __future__ import annotations

import numpy as np


def _flatten_forest(parent: np.ndarray) -> np.ndarray:
    """Pointer-jump ``parent ← parent[parent]`` to its fixpoint (full compression)."""
    while True:
        grandparent = parent[parent]
        if np.array_equal(grandparent, parent):
            return parent
        parent = grandparent


def _union_batches(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge every pair ``(a[i], b[i])`` into the union-find forest ``parent``.

    Vectorized min-hooking: resolve both endpoints to roots, hook the larger
    root under the smaller (``minimum.at`` arbitrates when several pairs
    hook the same root in one pass), and repeat until no pair spans two
    trees.  Pointers only ever decrease, so the forest stays acyclic, every
    root is the smallest id of its tree, and the resulting *partition*
    equals what sequential unions would produce — partitions are
    order-independent even though the root choices are not.  Returns the
    flattened forest.
    """
    while True:
        parent = _flatten_forest(parent)
        root_a, root_b = parent[a], parent[b]
        spanning = root_a != root_b
        if not spanning.any():
            return parent
        low = np.minimum(root_a[spanning], root_b[spanning])
        high = np.maximum(root_a[spanning], root_b[spanning])
        np.minimum.at(parent, high, low)


def _root_groups(parent: np.ndarray, ids: np.ndarray) -> list[np.ndarray]:
    """Split the ascending ``ids`` by their root in the flattened forest ``parent``.

    One stable argsort over the roots; the groups come out ordered by their
    smallest member, members ascending.
    """
    roots = parent[ids]
    by_root = np.argsort(roots, kind="stable")
    sorted_ids = ids[by_root]
    sorted_roots = roots[by_root]
    bounds = [0, *(np.flatnonzero(sorted_roots[1:] != sorted_roots[:-1]) + 1).tolist()]
    bounds.append(sorted_ids.size)
    chunks = [sorted_ids[s:e] for s, e in zip(bounds, bounds[1:])]
    # ids ascend within each chunk (stable sort), so chunk[0] is the
    # group's minimum member.
    chunks.sort(key=lambda chunk: int(chunk[0]))
    return chunks
