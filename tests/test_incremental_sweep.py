"""Tier-2 randomized differential sweep for incremental index maintenance.

The acceptance gate of the incremental-update subsystem: across several
graphs (seeded Erdős–Rényi and a bundled dataset analogue) and every index
mode, replay long chains of randomized update batches and assert after
**every** batch that ``apply_updates`` produced arrays bit-identical to
rebuilding the index from scratch over the updated graph — and, in local
mode, a spliced triangle index equal to a fresh build, and a refreshed
:class:`~repro.query.NucleusQueryEngine` that answers queries exactly like
an engine built fresh on the rebuilt index.

The sweep totals well over 100 batches (5 local graphs × 2 stream seeds
× 17 chained batches, plus 8 each for the global and weakly-global
fallbacks).  Four local graphs run at θ = 0.05, where the localized
repair settles in one or two fixed-point rounds; the small biomine
analogue runs at θ = 0.001, where its cascades take up to six.  The
planted graph's five communities give each of its levels several
components, so nearly every structural batch there regroups some
components of a level and carries the others.  Every
assertion message carries ``(graph, seed, step)`` so a failure pins the
exact batch; re-running just that parametrization replays the identical
stream (the update generator is seeded by those values alone).

Run with ``pytest -m tier2``; tier 1 deselects this module via the default
marker expression in ``pyproject.toml``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from graph_factories import assert_same_triangle_index, bundled_graph, small_er_graph

from repro.core.batch import build_triangle_extension_index
from repro.graph.generators import planted_nucleus_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index import (
    EdgeUpdate,
    apply_updates,
    build_global_index,
    build_local_index,
    build_weak_index,
)
from repro.query import NucleusQueryEngine

pytestmark = pytest.mark.tier2

THETA = 0.05
STEPS_PER_RUN = 17  # x 5 graphs x 2 stream seeds = 170 local batches
FALLBACK_BATCHES = 8

LOCAL_GRAPHS = {
    "er18": lambda: small_er_graph(18, 0.35, seed=0, probabilities=(0.3, 1.0)),
    "er14": lambda: small_er_graph(14, 0.5, seed=1),
    "krogan": lambda: bundled_graph("krogan", scale="tiny"),
    "biomine": lambda: bundled_graph("biomine", scale="small"),
    "planted": lambda: planted_nucleus_graph(
        community_sizes=[8, 9, 10, 11, 12],
        intra_density=0.9,
        background_vertices=20,
        background_density=0.1,
        bridges_per_community=2,
        probability_model=lambda r: 0.6 + 0.4 * r.random(),
        seed=5,
    ),
}

#: Graphs swept at their own θ: deep repair cascades need a low threshold.
LOCAL_THETAS = {"biomine": 0.001}


def random_batch(edges: dict, labels: list, rng: random.Random) -> list:
    """A random batch of 1–4 distinct-edge updates, valid for ``edges``.

    Mutates ``edges`` (the canonical pair → probability bookkeeping) in
    lockstep so chained calls always draw valid updates.
    """
    batch = []
    touched = set()
    for _ in range(rng.randint(1, 4)):
        op = rng.choices(("change", "insert", "delete"), weights=(2, 1, 1))[0]
        if op == "insert":
            for _ in range(200):
                u, v = rng.sample(labels, 2)
                key = tuple(sorted((u, v), key=repr))
                if key not in edges and key not in touched:
                    break
            else:  # graph is (nearly) complete; re-price instead
                op = "change"
        if op != "insert":
            candidates = [key for key in edges if key not in touched]
            if not candidates:
                continue
            key = candidates[rng.randrange(len(candidates))]
        touched.add(key)
        if op == "insert":
            p = round(rng.uniform(0.1, 1.0), 6)
            edges[key] = p
            batch.append(EdgeUpdate("insert", key[0], key[1], p))
        elif op == "delete":
            del edges[key]
            batch.append(EdgeUpdate("delete", key[0], key[1]))
        else:
            p = round(rng.uniform(0.05, 1.0), 6)
            edges[key] = p
            batch.append(EdgeUpdate("change", key[0], key[1], p))
    return batch


def reference_graph(edges: dict, labels: list) -> ProbabilisticGraph:
    graph = ProbabilisticGraph([(u, v, p) for (u, v), p in edges.items()])
    for label in labels:  # the vertex set is fixed under edge updates
        graph.add_vertex(label)
    return graph


def assert_bit_identical(actual, expected, context) -> None:
    assert actual.fingerprint == expected.fingerprint, context
    for name, want in expected.arrays.items():
        got = actual.arrays[name]
        assert got.dtype == want.dtype and got.shape == want.shape, (context, name)
        assert got.tobytes() == want.tobytes(), (context, name)


def assert_queries_match(engine, rebuilt, labels, context) -> None:
    fresh = NucleusQueryEngine(rebuilt)
    assert np.array_equal(
        engine.max_score(labels), fresh.max_score(labels)
    ), context
    for k in rebuilt.levels:
        assert np.array_equal(
            engine.contains(labels, k), fresh.contains(labels, k)
        ), (context, k)


@pytest.mark.parametrize("name", sorted(LOCAL_GRAPHS))
@pytest.mark.parametrize("seed", [0, 1])
def test_local_mode_randomized_sweep(name, seed):
    graph = LOCAL_GRAPHS[name]()
    labels = sorted(graph.vertices(), key=repr)
    edges = {tuple(sorted((u, v), key=repr)): p for u, v, p in graph.edges()}
    rng = random.Random(f"{name}/{seed}")
    theta = LOCAL_THETAS.get(name, THETA)

    index = build_local_index(graph, theta)
    engine = NucleusQueryEngine(index, graph)
    revision = 0
    for step in range(1, STEPS_PER_RUN + 1):
        batch = random_batch(edges, labels, rng)
        if not batch:
            continue
        context = (name, seed, step, batch)
        index = apply_updates(index, batch)
        revision += 1
        reference = reference_graph(edges, labels)
        rebuilt = build_local_index(reference, theta)
        assert_bit_identical(index, rebuilt, context)
        assert_same_triangle_index(
            index._incremental_state["tri_index"],
            build_triangle_extension_index(reference.to_csr()),
            context,
        )
        assert index.revision == revision, context
        engine.refresh(index)
        assert_queries_match(engine, rebuilt, labels, context)


@pytest.mark.parametrize("builder", [build_global_index, build_weak_index])
def test_fallback_modes_randomized_sweep(builder):
    """Global / weakly-global indexes rebuild deterministically per batch."""
    graph = small_er_graph(9, 0.6, seed=4)
    labels = sorted(graph.vertices(), key=repr)
    edges = {tuple(sorted((u, v), key=repr)): p for u, v, p in graph.edges()}
    rng = random.Random(builder.__name__)

    index = builder(graph, k=1, theta=0.4, n_samples=30, seed=7)
    revision = 0
    for step in range(1, FALLBACK_BATCHES + 1):
        batch = random_batch(edges, labels, rng)
        if not batch:
            continue
        context = (builder.__name__, step, batch)
        index = apply_updates(index, batch)
        revision += 1
        rebuilt = builder(
            reference_graph(edges, labels), k=1, theta=0.4, n_samples=30, seed=7
        )
        assert_bit_identical(index, rebuilt, context)
        assert index.revision == revision, context
