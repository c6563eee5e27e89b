"""Triangle and 4-clique machinery on the deterministic backbone of a graph.

Nucleus decomposition with ``r = 3`` and ``s = 4`` is defined in terms of
triangles (3-cliques) and 4-cliques.  This module provides enumeration of
both structures, the triangle ⇄ 4-clique incidence whose sizes are the
4-clique *supports* of Definition 1, and the 4-clique connectivity relation
between triangles (Definition 2) that the maximality/connectedness
conditions rely on.

All functions treat the input :class:`ProbabilisticGraph` purely structurally,
ignoring edge probabilities, so they apply equally to possible worlds (whose
edges have probability 1) and to probabilistic graphs when only the backbone
matters.

Triangles and 4-cliques are canonicalised as sorted tuples of their vertices
so they can be used as dictionary keys and compared across call sites.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex, label_sort_key

Triangle = tuple[Vertex, Vertex, Vertex]
FourClique = tuple[Vertex, Vertex, Vertex, Vertex]

__all__ = [
    "Triangle",
    "FourClique",
    "canonical_triangle",
    "canonical_four_clique",
    "label_triangles",
    "triangles_of_clique",
    "enumerate_triangles",
    "count_triangles",
    "enumerate_four_cliques",
    "triangle_clique_index",
    "triangle_connected_components",
    "concatenated_rows",
    "distinct_per_owner",
    "forward_adjacency_csr",
    "triangle_arrays_csr",
    "clique_arrays_csr",
    "cliques_from_members",
]


def canonical_triangle(u: Vertex, v: Vertex, w: Vertex) -> Triangle:
    """Return a triangle as its vertices in label order (``sorted_labels``)."""
    try:
        a, b, c = sorted((u, v, w))  # type: ignore[type-var]
    except TypeError:
        a, b, c = sorted((u, v, w), key=label_sort_key)
    return (a, b, c)


def label_triangles(rows, labels: Sequence[Vertex]) -> list[Triangle]:
    """Map ascending vertex-id triples to canonical label triangles.

    ``labels[i]`` labels id ``i``, in CSR order.  When the labels are plainly
    sorted a row maps to its labels directly; otherwise each triangle is
    canonicalised (ints cut out of a mixed label list compare naturally).
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    try:
        plainly_sorted = all(labels[i] <= labels[i + 1] for i in range(len(labels) - 1))
    except TypeError:
        plainly_sorted = False
    if plainly_sorted:
        return [(labels[u], labels[v], labels[w]) for u, v, w in rows]
    return [canonical_triangle(labels[u], labels[v], labels[w]) for u, v, w in rows]


def canonical_four_clique(a: Vertex, b: Vertex, c: Vertex, d: Vertex) -> FourClique:
    """Return a 4-clique as its vertices in label order (``sorted_labels``)."""
    try:
        w, x, y, z = sorted((a, b, c, d))  # type: ignore[type-var]
    except TypeError:
        w, x, y, z = sorted((a, b, c, d), key=label_sort_key)
    return (w, x, y, z)


def triangles_of_clique(clique: FourClique) -> list[Triangle]:
    """Return the four triangles contained in a 4-clique, canonicalised."""
    return [canonical_triangle(*combo) for combo in itertools.combinations(clique, 3)]


def enumerate_triangles(graph: ProbabilisticGraph) -> Iterator[Triangle]:
    """Enumerate every triangle of the graph exactly once.

    Uses the standard vertex-ordering technique: each triangle ``{u, v, w}``
    is reported from its lowest-ordered vertex, guaranteeing no duplicates
    without keeping a seen-set.
    """
    order = {v: i for i, v in enumerate(sorted(graph.vertices(), key=label_sort_key))}
    for u in graph.vertices():
        higher_neighbors = [v for v in graph.neighbors(u) if order[v] > order[u]]
        higher_neighbors.sort(key=lambda v: order[v])
        for i, v in enumerate(higher_neighbors):
            for w in higher_neighbors[i + 1:]:
                if graph.has_edge(v, w):
                    yield canonical_triangle(u, v, w)


def count_triangles(graph: ProbabilisticGraph) -> int:
    """Return the number of triangles in the deterministic backbone."""
    return sum(1 for _ in enumerate_triangles(graph))


def enumerate_four_cliques(graph: ProbabilisticGraph) -> Iterator[FourClique]:
    """Enumerate every 4-clique of the graph exactly once.

    For each triangle reported by :func:`enumerate_triangles`, the common
    neighbors of its three vertices that are ordered above all of them
    complete it to a distinct 4-clique.
    """
    order = {v: i for i, v in enumerate(sorted(graph.vertices(), key=label_sort_key))}
    for u, v, w in enumerate_triangles(graph):
        top = max(order[u], order[v], order[w])
        for z in graph.common_neighbors(u, v, w):
            if order[z] > top:
                yield canonical_four_clique(u, v, w, z)


def triangle_clique_index(
    graph: ProbabilisticGraph,
) -> tuple[dict[Triangle, list[FourClique]], dict[FourClique, list[Triangle]]]:
    """Build the bipartite incidence between triangles and 4-cliques.

    Returns
    -------
    (by_triangle, by_clique):
        ``by_triangle[t]`` lists the 4-cliques containing triangle ``t`` (its
        support set ``S_t``), and ``by_clique[c]`` lists the four triangles of
        4-clique ``c``.  Triangles contained in no 4-clique still appear in
        ``by_triangle`` with an empty list.
    """
    by_triangle: dict[Triangle, list[FourClique]] = {
        t: [] for t in enumerate_triangles(graph)
    }
    by_clique: dict[FourClique, list[Triangle]] = {}
    for clique in enumerate_four_cliques(graph):
        members = triangles_of_clique(clique)
        by_clique[clique] = members
        for t in members:
            by_triangle[t].append(clique)
    return by_triangle, by_clique


# --------------------------------------------------------------------------- #
# CSR variants: ordered-adjacency merges over the flat arrays
# --------------------------------------------------------------------------- #
def _members_of_sorted_mask(candidates: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Boolean mask of which ``candidates`` occur in the sorted array ``row``.

    Binary-search membership: ``O(|candidates| · log |row|)``, all in C.
    """
    if row.size == 0:
        return np.zeros(candidates.size, dtype=bool)
    positions = np.searchsorted(row, candidates)
    positions[positions == row.size] = row.size - 1
    return row[positions] == candidates


def forward_adjacency_csr(
    csr: CSRProbabilisticGraph,
) -> tuple[np.ndarray, np.ndarray]:
    """Return the *forward* adjacency of a CSR graph as ``(indptr, indices)``.

    The forward row of vertex ``u`` contains only its neighbors with a larger
    id, sorted ascending — the classical orientation that lets every triangle
    and 4-clique be discovered exactly once from its lowest vertex.  Built
    with a single vectorized pass over the full adjacency arrays.
    """
    n = csr.num_vertices
    row_owner = csr.directed_edge_owners()
    keep = csr.indices > row_owner
    forward_indices = csr.indices[keep]
    forward_degrees = np.bincount(row_owner[keep], minlength=n)
    forward_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(forward_degrees, out=forward_indptr[1:])
    return forward_indptr, forward_indices


def concatenated_rows(
    indptr: np.ndarray, indices: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``indices[indptr[o]:indptr[o + 1]]`` for every ``o`` in ``owners``.

    Returns ``(members, sizes)`` where ``members`` is the concatenation of the
    selected CSR rows and ``sizes[i]`` is the length of the ``i``-th row — the
    fully vectorized equivalent of concatenating per-row slices in a Python
    loop, used by every batched wedge/extension enumeration.
    """
    sizes = (indptr[1:] - indptr[:-1])[owners]
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), sizes
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    return indices[np.repeat(indptr[owners], sizes) + offsets], sizes


def distinct_per_owner(
    owners: np.ndarray, values: np.ndarray, width: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values`` of each of ``count`` owners, from one sort.

    ``owners[i]`` (in ``0 … count − 1``) owns ``values[i]`` (in
    ``0 … width − 1``).  Returns ``(distinct, bounds)``: owner ``o``'s
    values, ascending and each once, are ``distinct[bounds[o]:bounds[o + 1]]``
    — ``np.unique(values[owners == o])`` for every owner at once.  numpy 2's
    ``np.unique`` hashes, which is several times slower than one sort of
    ``owner · width + value`` keys.
    """
    keys = np.sort(owners * width + values)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    owners, distinct = np.divmod(keys[first], width)
    return distinct, np.searchsorted(owners, np.arange(count + 1))


def triangle_arrays_csr(
    csr: CSRProbabilisticGraph,
    forward: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return every triangle of a CSR graph as parallel ``(U, V, W)`` id arrays.

    Triangles satisfy ``U < V < W`` element-wise and are listed in
    lexicographic order of ``(u, v, w)``.  The enumeration is one global
    batch: every forward edge ``(u, v)`` contributes the forward row of ``v``
    as candidate ``w`` values (wedges, in lexicographic ``(u, v, w)`` order),
    and one composite-key binary search against the sorted forward-edge keys
    ``u·n + w`` keeps exactly the wedges whose closing edge exists — no
    per-vertex Python loop at all.
    """
    fptr, fidx = forward_adjacency_csr(csr) if forward is None else forward
    n = csr.num_vertices
    empty = np.empty(0, dtype=np.int64)
    if fidx.size == 0:
        return empty, empty.copy(), empty.copy()
    edge_u = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    # Forward-edge keys are globally sorted: owners ascend, rows are sorted.
    edge_keys = edge_u * n + fidx
    w_ids, sizes = concatenated_rows(fptr, fidx, fidx)
    if w_ids.size == 0:
        return empty, empty.copy(), empty.copy()
    u_ids = np.repeat(edge_u, sizes)
    v_ids = np.repeat(fidx, sizes)
    closing = _members_of_sorted_mask(u_ids * n + w_ids, edge_keys)
    return u_ids[closing], v_ids[closing], w_ids[closing]


def clique_arrays_csr(csr: CSRProbabilisticGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return every triangle and 4-clique of a CSR graph as id arrays.

    The ``(t, 3)`` and ``(q, 4)`` int64 arrays hold ascending vertex ids, rows
    in lexicographic order.  Every triangle ``(u, v, w)`` of
    :func:`triangle_arrays_csr` is extended in one batch by the forward row
    of ``w``, keeping ``z`` when ``(v, z)`` and ``(u, z)`` are edges; so each
    4-clique is found once, from its smallest triangle, in lexicographic order.
    """
    fptr, fidx = forward = forward_adjacency_csr(csr)
    u_ids, v_ids, w_ids = triangle_arrays_csr(csr, forward=forward)
    n = csr.num_vertices
    edge_keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr)) * n + fidx
    candidates, sizes = concatenated_rows(fptr, fidx, w_ids)
    owner = np.repeat(np.arange(w_ids.size, dtype=np.int64), sizes)
    for endpoint in (v_ids, u_ids):
        keep = _members_of_sorted_mask(endpoint[owner] * n + candidates, edge_keys)
        owner, candidates = owner[keep], candidates[keep]
    triangles = np.stack([u_ids, v_ids, w_ids], axis=1)
    return triangles, np.concatenate([triangles[owner], candidates[:, None]], axis=1)


def cliques_from_members(triangles: np.ndarray, clique_triangles: np.ndarray) -> np.ndarray:
    """Return the ``(q, 4)`` ascending vertex ids of 4-cliques given by member rows.

    Both triangle ⇄ 4-clique indexes list the members of ``(a, b, c, d)`` in
    ``clique_triangles`` as ``(a,b,c), (a,b,d), (a,c,d), (b,c,d)``: the
    quadruple is the first member followed by the last vertex of the second.
    """
    first, second = clique_triangles[:, 0], clique_triangles[:, 1]
    return np.concatenate([triangles[first], triangles[second, 2:]], axis=1)


def triangle_connected_components(
    triangles: Iterable[Triangle],
    by_triangle: dict[Triangle, list[FourClique]],
    allowed_cliques: set[FourClique] | None = None,
) -> list[set[Triangle]]:
    """Group triangles into 4-clique-connected components (Definition 2).

    Two triangles are adjacent when some allowed 4-clique contains both; the
    returned components are the transitive closure of that adjacency,
    restricted to the supplied triangle set.

    Parameters
    ----------
    triangles:
        The triangles to partition.
    by_triangle:
        Incidence map from :func:`triangle_clique_index` (may cover a larger
        graph; only entries for ``triangles`` are consulted).
    allowed_cliques:
        When given, only these 4-cliques count as connectors.  The global and
        weakly-global algorithms use this to restrict connectivity to the
        cliques that survive a candidate subgraph.
    """
    triangle_set = set(triangles)
    clique_members: dict[FourClique, list[Triangle]] = {}
    for t in triangle_set:
        for clique in by_triangle.get(t, ()):
            if allowed_cliques is not None and clique not in allowed_cliques:
                continue
            clique_members.setdefault(clique, []).append(t)

    adjacency: dict[Triangle, set[Triangle]] = {t: set() for t in triangle_set}
    for members in clique_members.values():
        for a, b in itertools.combinations(members, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)

    components: list[set[Triangle]] = []
    unvisited = set(triangle_set)
    while unvisited:
        start = unvisited.pop()
        component = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for nxt in adjacency[current]:
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        unvisited -= component
        components.append(component)
    return components
