"""The id-space candidate loops of Algorithms 2 and 3 against the label-space loops.

Global and weak verify every candidate on a restriction of the local
result's world index of the whole graph
(:meth:`~repro.core.result.LocalNucleusDecomposition.candidate_index`), which
shares the peel's triangle ⇄ 4-clique arrays.
:func:`repro.core.global_nucleus._verified_nuclei` restricts the union ``C``
of the local nuclei once, grows every candidate as a 4-clique-id closure
over ``C``'s arrays, all seeds in one batched pass
(:func:`~repro.core.global_nucleus._seed_closures`), and verifies it on
:meth:`CandidateWorldIndex.restrict` of ``C``'s index.  These tests pin each
step to the label-space loop kept in ``oracle.global_nucleus``: the closure
to :func:`~repro.core.global_nucleus.candidate_closure` (in batches of every
size), every restriction to a compile of its subgraph, and the sampled
answers to the label-space loop driven by the production verifier on an
identically seeded generator.  The weak driver's array grouping is pinned to
the dict 4-clique components, and the tier-2 :class:`TestAnswerPins` pins the
sampled answers of both drivers.  :class:`TestBlockLoop` pins the world
blocks that the candidates share
(:func:`~repro.sampling.verification.global_decisions`) to one
:func:`~repro.sampling.verification.global_verify` call per restriction, and
every candidate of a :meth:`WorldBlock.cut` to its restriction.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest

import repro.core.global_nucleus as global_module
import repro.sampling.verification as verification
import repro.sampling.world_matrix as world_matrix
from graph_factories import PERFBENCH, perfbench_graph
from oracle.global_nucleus import verified_nuclei
from repro.core.global_nucleus import (
    _seed_closures,
    _verified_nuclei,
    candidate_closure,
    global_nucleus_decomposition,
    union_of_nuclei,
)
from repro.core.local import local_nucleus_decomposition
from repro.core.result import LocalNucleusDecomposition
from repro.core.weak_nucleus import _weak_nuclei, weak_nucleus_decomposition
from repro.deterministic.cliques import (
    canonical_four_clique,
    triangle_clique_index,
    triangle_connected_components,
)
from repro.experiments.datasets import load_dataset
from repro.graph.generators import clique_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index.builders import build_local_index, local_result_from_index
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.verification import global_decisions, global_verify, weak_scores
from repro.sampling.world_matrix import CandidateWorldIndex, WorldBlock

TINY = ("krogan", "dblp", "flickr", "pokec", "biomine", "ljournal")

DRIVERS = {"global": global_nucleus_decomposition, "weak": weak_nucleus_decomposition}

def two_mixed_k4s() -> ProbabilisticGraph:
    """Disjoint K4s on the ints {2, 10, 11, 12} and on the strings a–d.

    The edges at 2 (at "a") have p = 0.99, the others 0.72, so each K4 is a
    1-nucleus with probability ≈ 0.362: just above θ = 0.35, so that 20
    sampled worlds decide, and uneven, so that the order of the edge
    columns decides which worlds are drawn.
    """
    graph = ProbabilisticGraph()
    for group in ([2, 10, 11, 12], ["a", "b", "c", "d"]):
        for u, v in itertools.combinations(group, 2):
            graph.add_edge(u, v, 0.99 if u == group[0] else 0.72)
    return graph


@functools.lru_cache(maxsize=None)
def _case(name: str) -> tuple[ProbabilisticGraph, float, LocalNucleusDecomposition]:
    """``(graph, θ, local decomposition)``: θ = 0.1 on the tiny datasets, the
    benchmark's 0.3 on its graphs, 0.35 on ``two_mixed_k4s``."""
    if name in TINY:
        graph, theta = load_dataset(name, scale="tiny"), 0.1
    elif name == "two-mixed-k4s":
        graph, theta = two_mixed_k4s(), 0.35
    else:
        graph, theta = perfbench_graph(name), 0.3
    return graph, theta, local_nucleus_decomposition(graph, theta)


@functools.lru_cache(maxsize=None)
def _union(name: str, k: int) -> tuple[ProbabilisticGraph, CandidateWorldIndex]:
    _, _, local = _case(name)
    union = union_of_nuclei(local.nuclei(k))
    return union, CandidateWorldIndex.from_graph(union)


def _edge_pairs(index: CandidateWorldIndex) -> list[tuple]:
    labels = index.labels
    return [
        (labels[u], labels[v]) for u, v in zip(index.edge_u.tolist(), index.edge_v.tolist())
    ]


#: Every array of a :class:`CandidateWorldIndex`.
_INDEX_ARRAYS = (
    "edge_u",
    "edge_v",
    "edge_probabilities",
    "triangles",
    "triangle_edges",
    "cliques",
    "clique_edges",
    "clique_triangles",
    "tri_clique_indptr",
    "tri_clique_indices",
)


def _assert_same_index(restricted: CandidateWorldIndex, compiled: CandidateWorldIndex):
    assert restricted.labels == compiled.labels
    for field in _INDEX_ARRAYS:
        got, want = getattr(restricted, field), getattr(compiled, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


@functools.lru_cache(maxsize=None)
def _label_space_closures(name: str, k: int) -> dict:
    """:func:`candidate_closure` of every triangle of the union of the local k-nuclei."""
    union, _ = _union(name, k)
    by_triangle, _ = triangle_clique_index(union)
    return {seed: candidate_closure(union, seed, k, by_triangle) for seed in by_triangle}


def _all_closures(index: CandidateWorldIndex, k: int) -> list[np.ndarray]:
    """The closure of every triangle row of ``index``, in row order."""
    return _seed_closures(index, np.arange(index.num_triangles), k)[0]


class TestClosure:
    CASES = [(name, k) for name in TINY for k in (1, 2)] + [
        (f"perfbench-{name}", k) for name in ("dense", "flickr") for k in (1, 2)
    ]

    @staticmethod
    def _assert_closures_match(name, k):
        _, index = _union(name, k)
        expected = _label_space_closures(name, k)
        row_of = {t: row for row, t in enumerate(index.triangle_labels())}
        labels = index.labels
        clique_labels = [
            canonical_four_clique(*(labels[v] for v in row)) for row in index.cliques.tolist()
        ]
        seeds = list(expected)
        closures, _ = _seed_closures(index, np.array([row_of[t] for t in seeds]), k)
        assert len(closures) == len(seeds)
        for seed, ids in zip(seeds, closures):
            assert ids.dtype == np.int64 and np.all(np.diff(ids) > 0)
            assert {clique_labels[i] for i in ids.tolist()} == expected[seed]

    @pytest.mark.parametrize("name,k", CASES)
    def test_closure_ids_match_candidate_closure(self, name, k):
        self._assert_closures_match(name, k)

    @pytest.mark.parametrize("postings", [1, 2**62], ids=["seed-by-seed", "one-batch"])
    @pytest.mark.parametrize("name,k", CASES)
    def test_every_batch_size_grows_the_same_closures(self, monkeypatch, name, k, postings):
        monkeypatch.setattr(global_module, "CLOSURE_BATCH_POSTINGS", postings)
        self._assert_closures_match(name, k)

    def test_no_seeds_grow_no_closures(self):
        _, index = _union("krogan", 1)
        assert _seed_closures(index, np.zeros(0, dtype=np.int64), 1) == ([], 0)


class TestRestriction:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", TINY + tuple(PERFBENCH))
    def test_every_candidate_restricts_to_its_compiled_subgraph(self, name, k):
        graph = _case(name)[0]
        _, index = _union(name, k)
        masks = {}
        for cliques in _all_closures(index, k):
            if cliques.size:
                mask = np.zeros(index.num_edges, dtype=bool)
                mask[index.clique_edges[cliques]] = True
                masks[mask.tobytes()] = mask
        pairs = _edge_pairs(index)
        for mask in masks.values():
            edges = [pair for pair, keep in zip(pairs, mask) if keep]
            compiled = CandidateWorldIndex.from_graph(graph.edge_subgraph(edges))
            _assert_same_index(index.restrict(mask), compiled)

    def test_restriction_follows_the_candidates_own_vertex_order(self):
        graph = two_mixed_k4s()
        index = CandidateWorldIndex.from_graph(graph)
        # Ints and strings do not compare: the union falls back to the
        # (type-name, str) order, which puts 2 after 12.
        assert _edge_pairs(index)[:3] == [(10, 11), (10, 12), (10, 2)]
        pairs = _edge_pairs(index)
        ints = np.array([isinstance(u, int) for u, _ in pairs])
        restricted = index.restrict(ints)
        # The int-only candidate sorts naturally, and so do its edge columns.
        assert restricted.labels == [2, 10, 11, 12]
        assert _edge_pairs(restricted)[:2] == [(2, 10), (2, 11)]
        edges = [pair for pair, keep in zip(pairs, ints) if keep]
        _assert_same_index(restricted, CandidateWorldIndex.from_graph(graph.edge_subgraph(edges)))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", TINY + tuple(PERFBENCH) + ("two-mixed-k4s",))
    def test_local_nuclei_restrict_from_the_results_world_index(self, name, k):
        graph, _, local = _case(name)
        world = local.world_index
        _assert_same_index(world, CandidateWorldIndex.from_graph(graph))
        _, engine = local.engine_index
        assert world.triangles is engine.triangles
        assert world.clique_triangles is engine.clique_triangles
        assert world.tri_clique_indptr is engine.tri_clique_indptr
        assert world.tri_clique_indices is engine.tri_cliques
        nuclei = local.nuclei(k)
        for nucleus in nuclei:
            compiled = CandidateWorldIndex.from_graph(nucleus.subgraph)
            _assert_same_index(local.candidate_index(nucleus.triangles), compiled)
        union = local.candidate_index(t for nucleus in nuclei for t in nucleus.triangles)
        _assert_same_index(union, CandidateWorldIndex.from_graph(union_of_nuclei(nuclei)))

    def test_empty_mask_restricts_to_an_empty_index(self):
        index = CandidateWorldIndex.from_graph(two_mixed_k4s())
        empty = index.restrict(np.zeros(index.num_edges, dtype=bool))
        _assert_same_index(empty, CandidateWorldIndex.from_graph(ProbabilisticGraph()))


def _label_space_answers(graph, local, k, theta, n_samples, seed):
    """The label-space loop driven by the production verifier and seed."""
    rng = np.random.default_rng(seed)

    def verify(subgraph):
        index = CandidateWorldIndex.from_graph(subgraph)
        passes = global_verify(index, k, theta, n_samples, rng=rng)
        return passes, index.triangle_labels()

    return verified_nuclei(graph, local._dict_nuclei(k), k, theta, verify)


class TestStreamParity:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", TINY + ("perfbench-dense",))
    def test_id_space_loop_replays_the_label_space_loop(self, name, k):
        graph, theta, local = _case(name)
        expected = _label_space_answers(graph, local, k, theta, 50, 7)
        actual = global_nucleus_decomposition(
            graph, k, theta, n_samples=50, seed=7, local_result=local
        )
        assert actual == expected

    @pytest.mark.parametrize("name", ["flickr", "perfbench-flickr", "perfbench-dense"])
    def test_weak_scores_the_dict_candidates_in_order(self, name):
        # Weak scores its candidates one after another on the shared
        # generator, in the order of the local result's dict grouping.
        graph, theta, local = _case(name)
        rng = np.random.default_rng(7)

        def qualifying(nucleus):
            index = local.candidate_index(nucleus.triangles)
            return index, weak_scores(index, 1, theta, 50, rng=rng)[1]

        expected = _weak_nuclei(graph, local._dict_nuclei(1), 1, theta, qualifying)
        actual = weak_nucleus_decomposition(
            graph, 1, theta, n_samples=50, seed=7, local_result=local
        )
        assert actual == expected

    def test_mixed_labels_keep_their_stream(self):
        graph = two_mixed_k4s()
        local = local_nucleus_decomposition(graph, 0.35)
        answers = set()
        for seed in range(40):
            expected = _label_space_answers(graph, local, 1, 0.35, 20, seed)
            actual = global_nucleus_decomposition(
                graph, 1, 0.35, n_samples=20, seed=seed, local_result=local
            )
            assert actual == expected
            answers.add(len(actual))
        assert len(answers) > 1  # borderline candidates: the stream decides


def _local_result(kind: str, graph, theta, fresh) -> LocalNucleusDecomposition | None:
    """The ``local_result=`` of a driver call: none, ``fresh``, or a result equal
    to ``fresh`` that carries no engine index (``"from-index"``, ``"hand-built"``)."""
    if kind == "fresh":
        return fresh
    if kind == "from-index":
        return local_result_from_index(build_local_index(graph, theta))
    if kind == "hand-built":
        return LocalNucleusDecomposition(graph, theta, dict(fresh.scores), "dp")
    return None


class TestCallCounts:
    @pytest.mark.parametrize("mode", ["global", "weak"])
    @pytest.mark.parametrize("kind,compiles", [("none", 1), ("fresh", 0), ("from-index", 1)])
    def test_compiles_per_decomposition(self, monkeypatch, mode, kind, compiles):
        # The local result's engine index is the only compile: no candidate,
        # not even the union C, is compiled through from_graph.
        graph, theta, fresh = _case("flickr")
        local = _local_result(kind, graph, theta, fresh)
        calls = Counter()
        to_csr = ProbabilisticGraph.to_csr
        from_graph = CandidateWorldIndex.from_graph.__func__

        def counting_to_csr(self):
            calls["to_csr"] += 1
            return to_csr(self)

        @classmethod
        def counting_from_graph(cls, candidate):
            calls["from_graph"] += 1
            return from_graph(cls, candidate)

        monkeypatch.setattr(ProbabilisticGraph, "to_csr", counting_to_csr)
        monkeypatch.setattr(CandidateWorldIndex, "from_graph", counting_from_graph)
        nuclei = DRIVERS[mode](graph, 1, theta, seed=3, local_result=local)
        assert nuclei
        assert (calls["to_csr"], calls["from_graph"]) == (compiles, 0)

    @pytest.mark.parametrize("mode,checks", [("global", 1), ("weak", 0)])
    def test_sampling_loop_checks_n_samples_once_per_decomposition(
        self, monkeypatch, mode, checks
    ):
        # The drivers' prologue checks n_samples up front; below it, global
        # calls global_decisions once and weak scores each candidate through
        # the unchecked step.
        graph, theta, local = _case("flickr")
        assert len(local.nuclei(1)) > 1
        calls = Counter()
        require = verification._require_positive_int

        def counting(name, value):
            calls[name] += 1
            return require(name, value)

        monkeypatch.setattr(verification, "_require_positive_int", counting)
        assert DRIVERS[mode](graph, 1, theta, n_samples=50, seed=3, local_result=local)
        assert calls["n_samples"] == checks

    def test_subgraphs_only_for_accepted_candidates(self, monkeypatch):
        # Candidates are verified on world blocks cut out of C's index; only
        # an accepted edge set is restricted (beside C itself) and built.
        graph, theta, local = _case("flickr")
        local_nuclei = local.nuclei(1)
        rng = np.random.default_rng(3)
        verified, accepted = [], set()

        def decide(index, closures):
            passes = global_decisions(index, closures, 1, theta, 100, rng=rng)
            for mask, passed in zip(_edge_masks(index, closures), passes):
                verified.append(mask)
                if passed:
                    accepted.add(mask.tobytes())
            return passes

        subgraphs, restrictions = [], []
        edge_subgraph = ProbabilisticGraph.edge_subgraph
        restrict = CandidateWorldIndex.restrict

        def counting(self, edges):
            subgraphs.append(edges)
            return edge_subgraph(self, edges)

        def counting_restrict(self, edge_mask):
            restrictions.append(edge_mask)
            return restrict(self, edge_mask)

        monkeypatch.setattr(ProbabilisticGraph, "edge_subgraph", counting)
        monkeypatch.setattr(CandidateWorldIndex, "restrict", counting_restrict)
        nuclei = _verified_nuclei(graph, local, local_nuclei, 1, theta, decide)
        assert nuclei and len(accepted) < len(verified)
        assert len(subgraphs) == len(accepted)
        assert len(restrictions) == 1 + len(accepted)  # C, then each accepted edge set


def _union_index(local: LocalNucleusDecomposition, k: int) -> CandidateWorldIndex:
    """The index of the union ``C`` of the local k-nuclei, as the driver cuts it."""
    return local.candidate_index(t for nucleus in local.nuclei(k) for t in nucleus.triangles)


def _closures(index: CandidateWorldIndex, k: int) -> list[np.ndarray]:
    """The distinct non-empty closures of ``index``, in triangle-row order."""
    closures = {}
    for cliques in _all_closures(index, k):
        if cliques.size:
            closures.setdefault(cliques.tobytes(), cliques)
    return list(closures.values())


def _driver_closures(name: str, k: int) -> tuple[CandidateWorldIndex, list[np.ndarray]]:
    """The union's index and the closures Algorithm 2's loop verifies, in its order."""
    graph, theta, local = _case(name)
    verified = []

    def decide(index, closures):
        verified.append((index, closures))
        return np.zeros(len(closures), dtype=bool)

    _verified_nuclei(graph, local, local._dict_nuclei(k), k, theta, decide)
    return verified[0]


def _edge_masks(index: CandidateWorldIndex, closures) -> list[np.ndarray]:
    masks = []
    for cliques in closures:
        mask = np.zeros(index.num_edges, dtype=bool)
        mask[index.clique_edges[cliques]] = True
        masks.append(mask)
    return masks


class TestBlockLoop:
    """Candidates sharing world blocks decide as if verified one by one."""

    #: (SHARED_BLOCK_BYTES, WORLD_BLOCK_BYTES): the defaults; no sharing and
    #: 512-byte row blocks; shared windows halved down to lone candidates.
    BUDGETS = {
        "shared": (verification.SHARED_BLOCK_BYTES, verification.WORLD_BLOCK_BYTES),
        "row-split": (0, 512),
        "halved": (verification.SHARED_BLOCK_BYTES, 512),
    }

    @pytest.mark.parametrize("budgets", sorted(BUDGETS))
    @pytest.mark.parametrize(
        "name,k,n_samples,seeds,several",
        [
            ("flickr", 1, 50, (7,), True),
            ("dblp", 2, 50, (7,), True),  # 24 closures: 3 edge sets in 9 runs
            ("biomine", 2, 50, (7,), False),  # 35 closures, one edge set: one run
            ("perfbench-dense", 2, 20, (7,), True),  # 126 closures: runs of 35, 35, 56
            ("two-mixed-k4s", 1, 20, range(8), False),  # one block of two K4s
        ],
    )
    def test_decisions_and_stream_equal_one_call_per_restriction(
        self, monkeypatch, name, k, n_samples, seeds, several, budgets
    ):
        shared, world = self.BUDGETS[budgets]
        monkeypatch.setattr(verification, "SHARED_BLOCK_BYTES", shared)
        monkeypatch.setattr(verification, "WORLD_BLOCK_BYTES", world)
        theta = _case(name)[1]
        index, closures = _driver_closures(name, k)
        masks = _edge_masks(index, closures)
        restrictions = [index.restrict(mask) for mask in masks]
        # Runs: consecutive closures with the same edge set.
        runs = [len(list(run)) for _, run in itertools.groupby(m.tobytes() for m in masks)]
        cuts, drawn = [], []
        cut, sample = WorldBlock.cut.__func__, WorldBlock.sample

        def cut_spy(cls, index, candidates):
            cuts.append(cut(cls, index, candidates))
            return cuts[-1]

        def sample_spy(block, n_worlds, **options):
            drawn.append((block, n_worlds))
            return sample(block, n_worlds, **options)

        monkeypatch.setattr(WorldBlock, "cut", classmethod(cut_spy))
        monkeypatch.setattr(WorldBlock, "sample", sample_spy)
        for seed in seeds:
            blocked, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
            cuts.clear()
            drawn.clear()
            decisions = global_decisions(index, closures, k, theta, n_samples, rng=blocked)
            blocks_cut, draws = len(cuts), list(drawn)
            expected = [
                global_verify(candidate, k, theta, n_samples, rng=one_by_one)
                for candidate in restrictions
            ]
            assert decisions.tolist() == expected
            assert draws and blocked.random() == one_by_one.random()
            # The rows each block draws, over its row blocks, in drawing order.
            per_block: dict[int, list] = {}
            for block, n_worlds in draws:
                per_block.setdefault(id(block), [block, 0])[1] += n_worlds
            assert all(total % n_samples == 0 for _, total in per_block.values())
            blocks = [(block, total // n_samples) for block, total in per_block.values()]
            # Each block covers segments × repeats candidates, in order; a run
            # block is one segment drawing repeats · n_samples rows.
            covered = sum(block.num_segments * repeats for block, repeats in blocks)
            assert covered == len(closures)
            stacked = [(block.num_segments, r) for block, r in blocks if r > 1]
            assert stacked == [(1, length) for length in runs if length > 1]
            if min(runs) > 1:  # every candidate is in a run: one cut per run
                assert blocks_cut == len(runs)
            if budgets == "shared":  # a shared block draws its worlds at once
                assert (len(blocks) > 1) == several
                shared_rows = [rows for block, rows in draws if block.num_segments > 1]
                assert all(rows == n_samples for rows in shared_rows)
                assert max(b.num_segments for b, _ in blocks) > 1 or min(runs) > 1
            else:  # lone candidates and runs, split into row blocks
                assert {block.num_segments for block, _ in blocks} == {1}
                assert min(n_worlds for _, n_worlds in draws) < n_samples

    def test_mixed_labels_share_a_block_in_their_own_column_order(self):
        # The int K4 sorts naturally on its own, not in the union's
        # (type-name, str) order; its block columns follow its restriction.
        _, _, local = _case("two-mixed-k4s")
        index = _union_index(local, 1)
        closures = _closures(index, 1)
        edge_sets = [np.unique(index.clique_edges[cliques]) for cliques in closures]
        block = WorldBlock.cut(index, edge_sets)
        assert block.num_segments == 2
        union_pairs = _edge_pairs(index)
        labels = index.labels
        reordered = 0
        for segment, (edges, mask) in enumerate(zip(edge_sets, _edge_masks(index, closures))):
            columns = slice(*block.edge_offsets[segment : segment + 2].tolist())
            restricted = index.restrict(mask)
            pairs = zip(block.edge_u[columns].tolist(), block.edge_v[columns].tolist())
            in_block = [{labels[u], labels[v]} for u, v in pairs]
            assert in_block == [set(pair) for pair in _edge_pairs(restricted)]
            assert block.edge_probabilities[columns].tolist() == (
                restricted.edge_probabilities.tolist()
            )
            reordered += in_block != [set(union_pairs[e]) for e in edges.tolist()]
        assert reordered == 1  # the int K4, not the str one

    @pytest.mark.parametrize("cells", [None, 1], ids=["one-table", "table-per-candidate"])
    @pytest.mark.parametrize(
        "name,k", [("perfbench-flickr", 1), ("perfbench-dense", 2), ("two-mixed-k4s", 1)]
    )
    def test_every_segment_of_a_cut_holds_its_restriction(self, monkeypatch, name, k, cells):
        # The driver's candidates cut side by side, with one column table or
        # one per candidate: in labels, each segment holds what the
        # restriction to its edges holds, its edge columns in the same order.
        if cells is not None:
            monkeypatch.setattr(world_matrix, "_TABLE_CELLS", cells)
        index, closures = _driver_closures(name, k)
        masks = _edge_masks(index, closures)
        block = WorldBlock.cut(index, [np.flatnonzero(mask) for mask in masks])
        assert block.num_segments == len(closures)
        for segment, mask in enumerate(masks):
            restricted = WorldBlock.of(index.restrict(mask))
            assert _in_labels(block, segment) == _in_labels(restricted, 0)

    @pytest.mark.parametrize("keys", [1, 64, verification._CLOSURE_EDGE_KEYS, 2**62])
    @pytest.mark.parametrize(
        "name,k", [("perfbench-flickr", 1), ("perfbench-dense", 2), ("dblp", 2)]
    )
    def test_closure_edges_are_sorted_in_batches(self, monkeypatch, name, k, keys):
        # One sort of (closure, edge) keys per batch, whatever the batches:
        # each closure's edge columns equal np.unique of its 4-cliques' edges.
        monkeypatch.setattr(verification, "_CLOSURE_EDGE_KEYS", keys)
        index, closures = _driver_closures(name, k)
        closures = [*closures[:2], np.zeros(0, dtype=np.int64), *closures[2:]]
        edge_sets = list(verification._closure_edges(index, closures))
        assert len(edge_sets) == len(closures)
        for edges, cliques in zip(edge_sets, closures):
            expected = np.unique(index.clique_edges[cliques])
            assert edges.dtype == expected.dtype and np.array_equal(edges, expected)
        assert list(verification._closure_edges(index, [])) == []

    @pytest.mark.parametrize("name,k,n_samples", [("k5", 1, 20), ("dblp", 2, 50)])
    def test_empty_closures_fail_without_drawing_a_world(self, name, k, n_samples):
        # An empty closure first, last, alone, and first, in the middle and
        # last: it fails, and the others decide as if it were not there.
        if name == "k5":
            index = CandidateWorldIndex.from_graph(clique_graph(5, probability=0.99))
            closures, theta = [np.arange(index.num_cliques)], 0.5
        else:
            index, closures = _driver_closures(name, k)
            theta = _case(name)[1]
        empty = np.zeros(0, dtype=np.int64)
        middle = len(closures) // 2
        layouts = [
            [empty, *closures],
            [*closures, empty],
            [empty],
            [empty, *closures[:middle], empty, *closures[middle:], empty],
        ]
        for layout in layouts:
            blocked, one_by_one = np.random.default_rng(3), np.random.default_rng(3)
            decisions = global_decisions(index, layout, k, theta, n_samples, rng=blocked)
            expected = [
                global_verify(index.restrict(mask), k, theta, n_samples, rng=one_by_one)
                for mask in _edge_masks(index, layout)
            ]
            assert decisions.tolist() == expected
            assert blocked.random() == one_by_one.random()
            assert not any(passes for passes, c in zip(expected, layout) if not c.size)
        assert any(expected)


def _in_labels(block: WorldBlock, segment: int) -> tuple:
    """Segment ``segment`` of ``block`` in labels.

    Its edges and their probabilities, in column order; each triangle's
    edges and 4-cliques; each 4-clique's edges and member triangles.  A
    structure that points outside the segment raises ``KeyError``.
    """
    labels = block.labels
    edges, triangles, cliques = (
        range(*offsets[segment : segment + 2].tolist())
        for offsets in (block.edge_offsets, block.triangle_offsets, block.clique_offsets)
    )

    def named(vertices) -> frozenset:
        return frozenset(labels[v] for v in vertices.tolist())

    edge_names = {e: named(np.array([block.edge_u[e], block.edge_v[e]])) for e in edges}
    triangle_names = {t: named(block.triangles[t]) for t in triangles}
    clique_names = {c: named(block.cliques[c]) for c in cliques}
    indptr, indices = block.tri_clique_indptr, block.tri_clique_indices
    by_triangle = {
        triangle_names[t]: (
            frozenset(edge_names[e] for e in block.triangle_edges[t].tolist()),
            frozenset(clique_names[c] for c in indices[indptr[t] : indptr[t + 1]].tolist()),
        )
        for t in triangles
    }
    by_clique = {
        clique_names[c]: (
            frozenset(edge_names[e] for e in block.clique_edges[c].tolist()),
            frozenset(triangle_names[t] for t in block.clique_triangles[c].tolist()),
        )
        for c in cliques
    }
    probabilities = block.edge_probabilities[edges.start : edges.stop].tolist()
    counts = (len(triangles), len(cliques))
    return [edge_names[e] for e in edges], probabilities, counts, by_triangle, by_clique


class TestStageCounters:
    """``repro_candidates_total{model="global", stage}`` follows the candidate loop."""

    @staticmethod
    def _counts() -> dict:
        stages = ("generated", "accepted", "duplicate", "not_maximal")
        counts = {
            stage: obs_registry.counter(
                "repro_candidates_total", model="global", stage=stage
            ).value
            for stage in stages
        }
        counts["sampled"] = obs_registry.counter(
            "repro_sampling_candidates_total", model="global"
        ).value
        return counts

    @pytest.mark.parametrize("name,k", [("flickr", 1), ("dblp", 2), ("perfbench-dense", 2)])
    def test_stages_account_for_the_answer(self, name, k):
        graph, theta, local = _case(name)
        was_enabled = obs_config.enabled()
        obs_config.configure(enabled=True)
        try:
            before = self._counts()
            nuclei = global_nucleus_decomposition(
                graph, k, theta, n_samples=50, seed=7, local_result=local
            )
            after = self._counts()
        finally:
            obs_config.configure(enabled=was_enabled)
        delta = {stage: after[stage] - before[stage] for stage in after}
        assert delta["accepted"] - delta["duplicate"] - delta["not_maximal"] == len(nuclei)
        assert delta["generated"] >= delta["sampled"] >= delta["accepted"] > 0
        assert len(nuclei) > 0

    def test_silent_when_disabled(self):
        graph, theta, local = _case("flickr")
        was_enabled = obs_config.enabled()
        obs_config.configure(enabled=False)
        try:
            before = self._counts()
            global_nucleus_decomposition(
                graph, 1, theta, n_samples=50, seed=7, local_result=local
            )
            after = self._counts()
        finally:
            obs_config.configure(enabled=was_enabled)
        assert after == before


class TestWeakGrouping:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", TINY + ("perfbench-dense",))
    def test_groups_match_dict_components(self, name, k):
        # Random qualifying masks: a 0.6 keep rate splits several candidates
        # into more than one component.
        graph, theta, local = _case(name)
        rng = random.Random(f"{name}-{k}")
        expected = Counter()

        def qualifying(nucleus):
            subgraph = nucleus.subgraph
            index = CandidateWorldIndex.from_graph(subgraph)
            mask = np.array([rng.random() < 0.6 for _ in range(index.num_triangles)], bool)
            chosen = {t for t, keep in zip(index.triangle_labels(), mask) if keep}
            by_triangle, by_clique = triangle_clique_index(subgraph)
            allowed = {c for c, members in by_clique.items() if set(members) <= chosen}
            covered = {t for t in chosen if any(c in allowed for c in by_triangle[t])}
            for component in triangle_connected_components(covered, by_triangle, allowed):
                expected[frozenset(component)] += 1
            return index, mask

        nuclei = _weak_nuclei(graph, local.nuclei(k), k, theta, qualifying)
        assert Counter(nucleus.triangles for nucleus in nuclei) == expected


class TestResultsWithoutEngineIndex:
    @pytest.mark.parametrize("mode", ["global", "weak"])
    @pytest.mark.parametrize("kind", ["from-index", "hand-built"])
    def test_same_nuclei_as_the_fresh_result(self, mode, kind):
        # These results build their engine index from their graph on first
        # use; it must be the index the fresh result's peel ran on.
        graph, theta, fresh = _case("flickr")
        local = _local_result(kind, graph, theta, fresh)
        expected = DRIVERS[mode](graph, 1, theta, seed=3, local_result=fresh)
        assert expected
        assert DRIVERS[mode](graph, 1, theta, seed=3, local_result=local) == expected


def _answer_digest(nuclei) -> str:
    """sha256 of an answer's canonical form, nucleus by nucleus in output order.

    A nucleus contributes its sorted triangles and its sorted edges with
    their probabilities (sorted by ``repr``, which orders mixed labels).
    """
    canonical = [
        (sorted(map(repr, nucleus.triangles)), sorted(map(repr, nucleus.subgraph.edges())))
        for nucleus in nuclei
    ]
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


#: Answer digests of the benchmark verify graphs at θ = 0.3 and seeds 1–3,
#: keyed by (graph, mode, k); one local result per graph.
PERFBENCH_ANSWERS = {
    ("perfbench-flickr", "global", 1): (
        "1c2dfc975585e4a5368c3cb73edb94fb81f89051419946f1c415460969060834",
        "1eba8aa5bd8e30328fcf5da3e77d96697a8d5b3336fa3f1dff1569f5d17f7064",
        "e92e15706c7873508461591663fc299fdb849aed6c37f91b814b78ea4163c509",
    ),
    ("perfbench-flickr", "weak", 1): (
        "0b5917e8810e02320f8bf54adac8dca55a7326e8c6b0db2bad3ba81970081c30",
    )
    * 3,
    ("perfbench-flickr", "weak", 2): (
        "6fe41a0f7c102f4c5b2832ccdc329bda9fa72e2352af868850cea23d82080e85",
        "cd2d0d9968ac2a0645681f1d29efa6e28e467a241ab7ae36272d7337318ed8b8",
        "3629338be925a5fc947969ce956d9554c0ca3b45ae595b994a9ec6371ead6497",
    ),
    ("perfbench-dense", "global", 2): (
        "f3f46b6c33253ef60e8ef1f634d8ba724388f1ca462b677a1af526830c7428c3",
    )
    * 3,
}

#: The four answers ``two_mixed_k4s`` takes at θ = 0.35, k = 1 and 20 worlds:
#: no K4, the int K4, the str K4, and both (int K4 first).
MIXED_ANSWERS = (
    "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "124e7ab29a2f6417a3745dfb54b924a812c52a0f6e575152d127102cea5115b5",
    "52173a3ebf99eab663d2319d23f539cf127009e540b649f4e00e202479782299",
    "ce8b76c1494e30a941edfe56949c7dda47d66ff308e42374f85c545e97d502f3",
)

#: Per seed 0–39, the position in MIXED_ANSWERS of each driver's answer.
MIXED_PINS = {
    "global": "2023030113330212330313213210223133133333",
    "weak": "2023030113330212330313213210223133133333",
}


@pytest.mark.tier2
class TestAnswerPins:
    """Sampled answers of both drivers, pinned across changes that must not move them.

    A change that moves answers on purpose re-pins them and lists the moved
    pins in its change notes.  Global k = 2 on the flickr graph is left out:
    it verifies one edge set many times, which makes it more than ten times
    slower than global k = 1.
    """

    @pytest.mark.parametrize("name,mode,k", sorted(PERFBENCH_ANSWERS))
    def test_benchmark_graphs(self, name, mode, k):
        graph, theta, local = _case(name)
        driver = functools.partial(DRIVERS[mode], graph, k, theta, local_result=local)
        answers = tuple(_answer_digest(driver(seed=seed)) for seed in (1, 2, 3))
        assert answers == PERFBENCH_ANSWERS[name, mode, k]

    @pytest.mark.parametrize("mode", sorted(MIXED_PINS))
    def test_mixed_labels(self, mode):
        graph, theta, local = _case("two-mixed-k4s")
        driver = functools.partial(DRIVERS[mode], graph, 1, theta, local_result=local)
        answers = [_answer_digest(driver(n_samples=20, seed=seed)) for seed in range(40)]
        assert answers == [MIXED_ANSWERS[int(i)] for i in MIXED_PINS[mode]]
