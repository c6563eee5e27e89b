"""Partitioned CSR storage and partitioned Monte-Carlo verification.

Three layers under test:

* :mod:`repro.sampling.sharding` — the one shard-planning helper both the
  row-sharding pool and the edge partitioner consume (pinned against
  ``np.array_split`` block sizes);
* :mod:`repro.graph.partition` — the on-disk partitioned CSR store
  (mmap-backed round-trips, manifest validation);
* :mod:`repro.sampling.partitioned` — the larger-than-RAM verifier, pinned
  **stream-parity exact**: assembling its replayable per-partition blocks
  into one matrix and running the monolithic counters yields bit-identical
  counts, independent of the worker pool.

The tier-2 memory smoke runs a subprocess whose address space is capped a
few hundred MB above its post-import footprint: monolithic sampling of a
~400k-edge graph's worlds matrix must :class:`MemoryError`, the partitioned
estimators must finish with correct counts.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from graph_factories import small_er_graph
from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.exceptions import InvalidParameterError
from repro.experiments.pipeline import RunConfig
from repro.graph.generators import clique_graph
from repro.graph.partition import (
    PartitionedCSRGraph,
    load_partitioned_csr,
    partition_edge_ranges,
    save_partitioned_csr,
)
from repro.obs import capture as obs_capture
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.metrics import snapshot as obs_snapshot
from repro.sampling.partitioned import (
    _root_seed,
    _sample_block,
    partitioned_global_counts,
    partitioned_weak_counts,
)
from repro.sampling.sharding import chunk_schedule, plan_shards
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldShardPool,
    global_triangle_counts,
    weak_membership_counts,
)


def assembled_worlds(index, n_worlds, partitions, seed):
    """Re-draw the partitioned sampler's blocks as one monolithic matrix."""
    root = _root_seed(None, seed)
    ranges = partition_edge_ranges(index.num_edges, partitions)
    worlds = np.empty((n_worlds, index.num_edges), dtype=bool)
    for p, (start, stop) in enumerate(ranges):
        worlds[:, start:stop] = _sample_block(index, n_worlds, start, stop, root, p)
    return worlds


class TestSharding:
    def test_plan_shards_matches_array_split(self):
        for total in (0, 1, 2, 7, 10, 64, 1000):
            for parts in (1, 2, 3, 7, 16):
                blocks = [
                    chunk.size
                    for chunk in np.array_split(np.arange(total), parts)
                ]
                assert [stop - start for start, stop in plan_shards(total, parts)] == blocks

    def test_plan_shards_pins(self):
        assert plan_shards(10, 3) == ((0, 4), (4, 7), (7, 10))
        assert plan_shards(2, 4) == ((0, 1), (1, 2), (2, 2), (2, 2))
        assert plan_shards(6, 1) == ((0, 6),)

    def test_partition_edge_ranges_drops_empty_blocks(self):
        assert partition_edge_ranges(2, 4) == ((0, 1), (1, 2))
        assert partition_edge_ranges(0, 3) == ()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            plan_shards(10, 0)
        with pytest.raises(InvalidParameterError):
            partition_edge_ranges(-1, 2)
        with pytest.raises(InvalidParameterError):
            chunk_schedule(100, 0, 2.0)


class TestPartitionedStore:
    def test_round_trip_is_mmap_backed(self, tmp_path):
        graph = small_er_graph(10, 0.6, seed=3).to_csr()
        saved = save_partitioned_csr(graph, tmp_path / "store", partitions=3)
        assert saved.num_partitions == 3
        loaded = load_partitioned_csr(tmp_path / "store")
        assert loaded.edge_ranges == saved.edge_ranges
        assert loaded.graph.vertex_labels == graph.vertex_labels
        assert np.array_equal(loaded.graph.indptr, graph.indptr)
        assert np.array_equal(loaded.graph.indices, graph.indices)
        assert np.array_equal(loaded.graph.probabilities, graph.probabilities)
        # The arrays must be views over the on-disk files, not copies.
        for array in (loaded.graph.indices, loaded.graph.probabilities):
            assert not array.flags["OWNDATA"]
            assert isinstance(array.base, np.memmap)

    def test_loaded_graph_decomposes_identically(self, tmp_path):
        graph = small_er_graph(11, 0.6, seed=5).to_csr()
        save_partitioned_csr(graph, tmp_path / "store", partitions=2)
        loaded = load_partitioned_csr(tmp_path / "store")
        from repro.core.local import local_nucleus_decomposition

        expected = local_nucleus_decomposition(graph, 0.3)
        actual = local_nucleus_decomposition(loaded.graph, 0.3)
        assert actual.scores == expected.scores

    def test_manifest_validation(self, tmp_path):
        graph = small_er_graph(8, 0.6, seed=1).to_csr()
        store = tmp_path / "store"
        save_partitioned_csr(graph, store, partitions=2)
        manifest = store / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            "repro-partitioned-csr-v1", "repro-partitioned-csr-v0"
        ))
        with pytest.raises(InvalidParameterError, match="unsupported"):
            load_partitioned_csr(store)
        with pytest.raises(InvalidParameterError, match="manifest"):
            load_partitioned_csr(tmp_path / "nowhere")

    def test_pairing_validation(self):
        graph = small_er_graph(8, 0.6, seed=1).to_csr()
        with pytest.raises(InvalidParameterError, match="contiguous"):
            PartitionedCSRGraph(graph, ((0, 2), (3, graph.num_edges)))
        with pytest.raises(InvalidParameterError, match="cover"):
            PartitionedCSRGraph(graph, ((0, graph.num_edges - 1),))

    def test_zero_edge_graph_rejected(self):
        from repro.graph.probabilistic_graph import ProbabilisticGraph

        empty = ProbabilisticGraph()
        empty.add_vertex(0)
        with pytest.raises(InvalidParameterError, match="no edges"):
            PartitionedCSRGraph.from_graph(empty.to_csr(), 2)


class TestStreamParity:
    """Partitioned counts == monolithic counts over the assembled blocks."""

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_global_counts(self, seed, partitions):
        graph = small_er_graph(10, 0.7, seed=seed, probabilities=(0.4, 1.0))
        index = CandidateWorldIndex.from_graph(graph)
        for k in (1, 2):
            got = partitioned_global_counts(
                index, 40, k, seed=seed, partitions=partitions
            )
            worlds = assembled_worlds(index, 40, partitions, seed)
            expected = global_triangle_counts(index, worlds, k)
            assert np.array_equal(got, expected), (seed, partitions, k)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_weak_counts(self, seed, partitions):
        graph = small_er_graph(10, 0.7, seed=seed, probabilities=(0.4, 1.0))
        index = CandidateWorldIndex.from_graph(graph)
        for k in (1, 2):
            got = partitioned_weak_counts(
                index, 40, k, seed=seed, partitions=partitions
            )
            worlds = assembled_worlds(index, 40, partitions, seed)
            expected = weak_membership_counts(index, worlds, k)
            assert np.array_equal(got, expected), (seed, partitions, k)

    def test_pool_parity(self):
        graph = small_er_graph(10, 0.7, seed=2, probabilities=(0.4, 1.0))
        index = CandidateWorldIndex.from_graph(graph)
        inline = partitioned_global_counts(index, 30, 1, seed=2, partitions=4)
        with WorldShardPool(2) as pool:
            pooled = partitioned_global_counts(
                index, 30, 1, seed=2, partitions=4, pool=pool
            )
        assert np.array_equal(inline, pooled)

    def test_counts_bounded_by_worlds(self):
        graph = small_er_graph(9, 0.8, seed=4, probabilities=(0.5, 1.0))
        index = CandidateWorldIndex.from_graph(graph)
        counts = partitioned_weak_counts(index, 25, 1, seed=0, partitions=3)
        assert counts.shape == (index.num_triangles,)
        assert counts.dtype == np.int64
        assert (counts >= 0).all() and (counts <= 25).all()

    def test_certain_graph_decomposition_matches_monolithic(self):
        # With all-certain edges there is exactly one possible world, so the
        # partitioned and monolithic pipelines must return identical nuclei
        # through the public entry points.
        graph = clique_graph(5, probability=1.0)
        for run in (global_nucleus_decomposition, weak_nucleus_decomposition):
            baseline = run(graph, k=1, theta=0.3, n_samples=24, seed=0)
            for partitions in (2, 3):
                partitioned = run(
                    graph, k=1, theta=0.3, n_samples=24, seed=0,
                    partitions=partitions,
                )
                signature = [
                    (n.k, sorted(map(str, n.subgraph.vertices()))) for n in baseline
                ]
                assert [
                    (n.k, sorted(map(str, n.subgraph.vertices()))) for n in partitioned
                ] == signature

    def test_same_seed_is_deterministic(self):
        graph = small_er_graph(10, 0.7, seed=6, probabilities=(0.4, 1.0))
        index = CandidateWorldIndex.from_graph(graph)
        first = partitioned_global_counts(index, 32, 1, seed=13, partitions=4)
        second = partitioned_global_counts(index, 32, 1, seed=13, partitions=4)
        assert np.array_equal(first, second)


class TestValidationAndRecording:
    def test_partitions_validation(self):
        graph = clique_graph(4, probability=0.9)
        with pytest.raises(InvalidParameterError):
            global_nucleus_decomposition(
                graph, k=1, theta=0.3, n_samples=10, partitions=0
            )
        with pytest.raises(InvalidParameterError):
            global_nucleus_decomposition(
                graph, k=1, theta=0.3, n_samples=10,
                sampling="adaptive", partitions=2,
            )

    def test_index_requirement(self):
        with pytest.raises(InvalidParameterError, match="CandidateWorldIndex"):
            partitioned_global_counts(object(), 10, 1, seed=0)

    def test_run_config_partition_validation(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(scale="tiny", partitions=0)
        with pytest.raises(InvalidParameterError):
            RunConfig(scale="tiny", sampling="adaptive", partitions=2)

    def test_cli_rejects_partitions_in_local_mode(self, tmp_path):
        from repro.cli import main as cli_main
        from repro.graph.io import write_edge_list

        graph_path = tmp_path / "graph.txt"
        write_edge_list(clique_graph(4, probability=0.9), graph_path)
        code = cli_main([
            "build", str(graph_path), "-o", str(tmp_path / "out.npz"),
            "--mode", "local", "--partitions", "2",
        ])
        assert code == 2

    def test_builder_records_partitions(self):
        graph = clique_graph(4, probability=1.0)
        from repro.index import build_index

        index = build_index(
            graph, mode="weak", theta=0.3, k=1, n_samples=12, seed=0,
            partitions=2,
        )
        assert index.params["partitions"] == 2
        baseline = build_index(
            graph, mode="weak", theta=0.3, k=1, n_samples=12, seed=0
        )
        assert "partitions" not in baseline.params

    def test_partition_counter_increments(self):
        graph = small_er_graph(9, 0.8, seed=4, probabilities=(0.5, 1.0))
        index = CandidateWorldIndex.from_graph(graph)
        obs_registry.reset()
        try:
            with obs_capture(enable=True):
                partitioned_weak_counts(index, 10, 1, seed=0, partitions=3)
                payload = obs_snapshot()
        finally:
            obs_registry.reset()
        values = {
            entry["name"]: entry["value"]
            for entry in payload["metrics"]
            if entry["name"].startswith("repro_sampling_")
        }
        assert values.get("repro_sampling_partitions_total", 0) == 3
        assert values.get("repro_sampling_worlds_total", 0) == 10


MEMORY_SMOKE_SCRIPT = textwrap.dedent(
    """
    import resource
    import sys

    import numpy as np

    from repro.graph.csr import CSRProbabilisticGraph
    from repro.sampling.partitioned import (
        partitioned_global_counts,
        partitioned_weak_counts,
    )
    from repro.sampling.world_matrix import CandidateWorldIndex

    TAIL = 400_000  # cycle edges; the worlds matrix spans 400_006 columns
    N_WORLDS = 512

    # A small dense core (one certain 4-clique: 4 triangles, 1 clique) plus a
    # long triangle-free cycle so the edge count dwarfs memory without
    # inflating the candidate-sized presence matrices.
    core = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64)
    n = 4 + TAIL
    tail_u = np.arange(4, n - 1, dtype=np.int64)
    edges_u = np.concatenate([core[:, 0], tail_u, np.array([4], dtype=np.int64)])
    edges_v = np.concatenate([core[:, 1], tail_u + 1, np.array([n - 1], dtype=np.int64)])
    probs = np.concatenate([np.ones(6), np.full(TAIL, 0.9)])

    directed_u = np.concatenate([edges_u, edges_v])
    directed_v = np.concatenate([edges_v, edges_u])
    directed_p = np.concatenate([probs, probs])
    order = np.lexsort((directed_v, directed_u))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(directed_u, minlength=n), out=indptr[1:])
    graph = CSRProbabilisticGraph(
        indptr, directed_v[order], directed_p[order], list(range(n))
    )
    index = CandidateWorldIndex.from_graph(graph)
    assert index.num_edges == TAIL + 6, index.num_edges
    assert index.num_triangles == 4 and index.num_cliques == 1

    # Cap the address space a few hundred MB above the current footprint:
    # enough headroom for ~26 MB partition blocks, nowhere near the ~1.6 GB
    # float draw of the monolithic (N_WORLDS, num_edges) sample.
    with open("/proc/self/status") as status:
        vm_kb = next(
            int(line.split()[1]) for line in status if line.startswith("VmSize")
        )
    limit = vm_kb * 1024 + 300 * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    try:
        index.sample(N_WORLDS)
    except MemoryError:
        print("MONOLITHIC_MEMORYERROR")
    else:
        sys.exit("monolithic sampling unexpectedly fit in the capped address space")

    weak = partitioned_weak_counts(index, N_WORLDS, 1, seed=7, partitions=64)
    assert weak.shape == (4,) and (weak == N_WORLDS).all(), weak
    global_counts = partitioned_global_counts(index, N_WORLDS, 1, seed=7, partitions=64)
    # Present cycle edges are never clique-covered, so no sampled world is a
    # 1-nucleus of the whole graph: the count must be exactly zero (and the
    # estimator must get there without the monolithic allocation).
    assert global_counts.shape == (4,) and (global_counts == 0).all(), global_counts
    print("PARTITIONED_OK")
    """
)


@pytest.mark.tier2
def test_memory_smoke_larger_than_ram_graph():
    """Monolithic sampling must MemoryError where the partitioned path runs."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", MEMORY_SMOKE_SCRIPT],
        capture_output=True,
        text=True,
        timeout=600,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert "MONOLITHIC_MEMORYERROR" in result.stdout
    assert "PARTITIONED_OK" in result.stdout
