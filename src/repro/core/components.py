"""Union-find over triangle ids: 4-clique-connected components (Definition 2).

The array counterpart of
:func:`repro.deterministic.cliques.triangle_connected_components`: 4-cliques
join their member triangles in one vectorized union-find forest, and the
components are read off its roots.  The weakly-global driver
(:mod:`repro.core.weak_nucleus`) groups each candidate's qualifying triangles
with it, and :func:`_nucleus_level_groups` groups every nucleus level of a
local decomposition for the index snapshots (:mod:`repro.index`).
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import CSRTriangleIndex, _postings_of


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


def _nucleus_level_groups(
    scores: np.ndarray, index: CSRTriangleIndex, rows: np.ndarray | None = None
) -> dict[int, list[np.ndarray]]:
    """Compute the per-level nucleus components from the engine's arrays.

    Id-space replica of
    :func:`repro.deterministic.nucleus.k_nucleus_triangle_groups` for every
    level ``0 … max ν``: a 4-clique connects its members at level ``k`` only
    when its minimum member score is at least ``k``, and a triangle belongs
    to a component only when such a clique covers it.

    The allowed-clique sets are nested downwards, so one descending sweep
    suffices: cliques enter a single union-find forest (:func:`_union_batches`)
    at the level of their minimum member score, a triangle is covered once
    its best containing-clique level (``cover_level``) is reached, and each
    level snapshots the components of its covered triangles
    (:func:`_root_groups`); levels where no clique entered share the
    previous level's groups.  Groups come out ordered by smallest member,
    members ascending: the order of the sorted dict groups, which
    ``tests/test_nucleus_index.py`` pins against the dict oracle.

    ``rows`` (ascending) restricts the sweep to a region of the triangles,
    every row by default.  The region must hold all four members of every
    4-clique that has one there and a minimum score of at least 0; its
    components then come out as in a sweep of every row, and the levels
    still run up to the largest of all ``scores``.  The incremental path
    (:mod:`repro.index.incremental`) sweeps only an update batch's region.
    """
    num_triangles = scores.size
    max_score = int(scores.max()) if num_triangles else -1
    level_groups: dict[int, list[np.ndarray]] = {}
    if max_score < 0:
        return level_groups

    clique_triangles = index.clique_triangles
    if rows is not None:
        # The region's 4-cliques, from its rows' postings, in local ids,
        # which keep the rows' order.
        inside = np.zeros(num_triangles, dtype=bool)
        inside[rows] = True
        positions, _ = _postings_of(index.tri_clique_indptr, rows)
        clique_triangles = clique_triangles[np.unique(index.tri_cliques[positions])]
        clique_triangles = np.searchsorted(
            rows, clique_triangles[inside[clique_triangles].all(axis=1)]
        )
        scores = scores[rows]
        num_triangles = rows.size
    clique_min_score = (
        scores[clique_triangles].min(axis=1)
        if clique_triangles.shape[0]
        else np.empty(0, dtype=np.int64)
    )
    entry_order = np.argsort(-clique_min_score, kind="stable")
    entry_levels = clique_min_score[entry_order]
    entry_members = clique_triangles[entry_order]
    cover_level = np.full(num_triangles, -1, dtype=np.int64)
    if clique_triangles.shape[0]:
        np.maximum.at(
            cover_level, clique_triangles.ravel(), np.repeat(clique_min_score, 4)
        )

    parent = np.arange(num_triangles, dtype=np.int64)
    next_entry = 0
    for k in range(max_score, -1, -1):
        # Cliques whose minimum member score is >= k enter here (the entry
        # list descends, so they form the next contiguous slice).
        stop = int(np.searchsorted(-entry_levels, -k, side="right"))
        if stop > next_entry:
            batch = entry_members[next_entry:stop]
            parent = _union_batches(
                parent, np.repeat(batch[:, 0], 3), batch[:, 1:].ravel()
            )
            next_entry = stop
        elif k + 1 in level_groups:
            level_groups[k] = level_groups[k + 1]
            continue
        ids = np.flatnonzero(cover_level >= k)
        if ids.size == 0:
            level_groups[k] = []
            continue
        # Ordered by smallest member: the lexicographic sort key of the
        # reference ordering.
        level_groups[k] = _root_groups(parent, ids)
    if rows is not None:
        level_groups = {
            k: [rows[group] for group in groups] for k, groups in level_groups.items()
        }
    return level_groups
