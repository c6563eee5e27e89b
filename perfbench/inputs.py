"""Seeded inputs of the benchmark workloads.

Every graph has a fixed structure (topology and edge probabilities drawn once
from the generator at a fixed structure seed); the workload seed draws a
vertex relabelling, the update stream, the request stream and the sampling
seed.  Independent topologies per seed moved the cost of one call by up to
2.6x between seeds (the dense global graph took 0.86-2.2 s of CPU across
seeds 1-6), more than any regression bound could absorb, while a relabelled
copy of one structure costs the same work under every seed and still changes
every enumeration order, tie break and sampled world.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro import ProbabilisticGraph
from repro.graph.generators import (
    beta_probability,
    confidence_probability,
    planted_nucleus_graph,
)
from repro.index import EdgeUpdate

THETA = 0.3

#: Structure seeds: the generator seed of each fixed topology.
PLANTED_STRUCTURE_SEED = 1
FLICKR_STRUCTURE_SEED = 37  # the seed of the bundled flickr analogue
DENSE_STRUCTURE_SEED = 3

#: Size of the inputs: ``full`` is what the benchmark measures, ``tiny`` is
#: the smoke-test size (same generators, a fraction of the work).
SIZES = {
    "full": {
        "communities": 20,
        "community_min": 5,
        "community_max": 22,
        "background": 800,
        "updates": 42,
        "revisions": 16,
        "requests_per_revision": 128,
        "flickr_sizes": [16, 13, 11, 9, 8, 7, 6, 6, 5, 5],
        "flickr_background": 180,
        "dense_sizes": [9, 8, 7, 6],
    },
    "tiny": {
        "communities": 4,
        "community_min": 5,
        "community_max": 8,
        "background": 60,
        "updates": 6,
        "revisions": 2,
        "requests_per_revision": 16,
        "flickr_sizes": [7, 6, 5],
        "flickr_background": 30,
        "dense_sizes": [8, 8],
    },
}


def _confident():
    return confidence_probability(mode=0.9, concentration=20.0)


def _background():
    return beta_probability(alpha=1.2, beta=9.0)


@dataclass
class PlantedGraph:
    """A planted graph plus the vertex sets its update stream draws from."""

    graph: ProbabilisticGraph
    communities: list[list[int]]
    background: list[int]


def relabel(graph: ProbabilisticGraph, rng: random.Random) -> tuple[ProbabilisticGraph, dict]:
    """Return an isomorphic copy of ``graph`` under a seeded vertex permutation."""
    vertices = sorted(graph.vertices())
    images = rng.sample(range(len(vertices)), len(vertices))
    mapping = dict(zip(vertices, images))
    copy = ProbabilisticGraph()
    for v in vertices:
        copy.add_vertex(mapping[v])
    for u, v, p in graph.edges():
        copy.add_edge(mapping[u], mapping[v], p)
    return copy, mapping


def planted_graph(seed: int, size: str = "full") -> PlantedGraph:
    """The local-index graph: near-cliques of 5-22 vertices over a sparse background."""
    s = SIZES[size]
    structure = random.Random(PLANTED_STRUCTURE_SEED)
    sizes = [
        structure.randint(s["community_min"], s["community_max"])
        for _ in range(s["communities"])
    ]
    base = planted_nucleus_graph(
        community_sizes=sizes,
        intra_density=0.95,
        background_vertices=s["background"],
        background_density=6 / 800,
        bridges_per_community=5,
        probability_model=_confident(),
        background_probability_model=_background(),
        seed=PLANTED_STRUCTURE_SEED,
    )
    graph, mapping = relabel(base, random.Random(seed))
    communities, start = [], 0
    for size_ in sizes:
        communities.append([mapping[v] for v in range(start, start + size_)])
        start += size_
    background = [mapping[v] for v in range(start, start + s["background"])]
    return PlantedGraph(graph, communities, background)


def flickr_graph(seed: int, size: str = "full") -> ProbabilisticGraph:
    """The sparse verify graph: the bundled ``flickr`` analogue at ``scale="small"``."""
    s = SIZES[size]
    base = planted_nucleus_graph(
        community_sizes=s["flickr_sizes"],
        intra_density=0.95,
        background_vertices=s["flickr_background"],
        background_density=0.04,
        bridges_per_community=5,
        probability_model=_confident(),
        background_probability_model=_background(),
        seed=FLICKR_STRUCTURE_SEED,
    )
    return relabel(base, random.Random(seed))[0]


def dense_graph(seed: int, size: str = "full") -> ProbabilisticGraph:
    """The dense verify graph: four near-cliques over a 30-vertex background."""
    base = planted_nucleus_graph(
        community_sizes=SIZES[size]["dense_sizes"],
        intra_density=0.95,
        background_vertices=30,
        background_density=0.05,
        bridges_per_community=3,
        probability_model=_confident(),
        background_probability_model=_background(),
        seed=DENSE_STRUCTURE_SEED,
    )
    return relabel(base, random.Random(seed))[0]


def _key(u, v) -> tuple:
    return (u, v) if u < v else (v, u)


def update_stream(planted: PlantedGraph, count: int, rng: random.Random) -> list[EdgeUpdate]:
    """A seeded stream of single-edge updates, stratified by operation and place.

    Operations cycle change, insert, delete and places alternate between a
    community and the background, so every (operation, place) pair gets the
    same share.  Community updates visit the communities in a seeded order,
    each about equally often: an update inside a community re-peels that
    community (120-450 ms) while a background one costs ~20 ms, so drawing
    places independently would make the stream total depend on the seed.
    """
    edges = {_key(u, v): p for u, v, p in planted.graph.edges()}
    models = {True: _confident(), False: _background()}
    order = rng.sample(range(len(planted.communities)), len(planted.communities))
    visits = itertools.cycle(order)
    stream = []
    for step in range(count):
        op = ("change", "insert", "delete")[step % 3]
        update = None
        if step % 2 == 0:
            for _ in order:  # the next community that can take ``op``
                community = planted.communities[next(visits)]
                update = _draw(op, community, True, edges, rng, models[True])
                if update is not None:
                    break
        if update is None:
            update = _draw(op, planted.background, False, edges, rng, models[False])
        stream.append(update)
    return stream


def background_stream(planted: PlantedGraph, count: int, rng: random.Random) -> list[EdgeUpdate]:
    """Single-edge updates among background vertices only (~20 ms each to apply)."""
    edges = {_key(u, v): p for u, v, p in planted.graph.edges()}
    model = _background()
    return [
        _draw(("change", "insert", "delete")[step % 3], planted.background, False, edges,
              rng, model)
        for step in range(count)
    ]


def _draw(op, vertices, in_community, edges, rng, model) -> EdgeUpdate | None:
    """Draw one ``op`` update among ``vertices``, keeping ``edges`` in sync."""
    if op == "insert":
        if in_community:
            absent = [
                key
                for key in itertools.combinations(sorted(vertices), 2)
                if key not in edges
            ]
            if not absent:
                return None
            key = rng.choice(absent)
        else:
            key = _key(*rng.sample(vertices, 2))
            while key in edges:
                key = _key(*rng.sample(vertices, 2))
        edges[key] = p = round(model(rng), 6)
        return EdgeUpdate("insert", key[0], key[1], p)
    members = set(vertices)
    present = sorted(key for key in edges if key[0] in members and key[1] in members)
    if not present:
        return None
    key = rng.choice(present)
    if op == "delete":
        del edges[key]
        return EdgeUpdate("delete", key[0], key[1])
    edges[key] = p = round(min(1.0, max(0.05, edges[key] * rng.uniform(0.9, 1.1))), 6)
    return EdgeUpdate("change", key[0], key[1], p)


def apply_to_graph(graph: ProbabilisticGraph, updates: list[EdgeUpdate]) -> ProbabilisticGraph:
    """Return a copy of ``graph`` with ``updates`` applied in label space."""
    edges = {_key(u, v): p for u, v, p in graph.edges()}
    for update in updates:
        key = _key(update.u, update.v)
        if update.op == "delete":
            del edges[key]
        else:
            edges[key] = update.probability
    result = ProbabilisticGraph()
    for v in sorted(graph.vertices()):
        result.add_vertex(v)
    for (u, v), p in sorted(edges.items()):
        result.add_edge(u, v, p)
    return result
