"""``repro-index`` — build, inspect, and query persistent nucleus indexes.

The command-line face of the serve-time subsystem (:mod:`repro.index` /
:mod:`repro.query`)::

    repro-index build graph.txt -o graph.idx.npz --mode local --theta 0.3
    repro-index info graph.idx.npz
    repro-index query graph.idx.npz max-score 4 17 23
    repro-index query graph.idx.npz nucleus --k 2 4 17
    repro-index query graph.idx.npz top --k 2 --n 5 --by density

``build`` reads any edge-list file accepted by
:func:`repro.graph.io.read_edge_list` (``.gz`` included) and writes a single
``.npz`` index; ``query`` answers from the index alone — the graph file is
not needed at serve time.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.global_nucleus import check_retired_knob
from repro.exceptions import ReproError
from repro.graph.io import parse_vertex, read_edge_list
from repro.graph.probabilistic_graph import label_sort_key
from repro.index import NucleusIndex, build_index
from repro.query import RANK_KEYS, NucleusQueryEngine

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-index", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="decompose a graph and write an index")
    build.add_argument("graph", help="edge-list file (.gz accepted)")
    build.add_argument("-o", "--output", required=True, help="index file to write (.npz)")
    build.add_argument("--mode", choices=("local", "global", "weak"), default="local")
    build.add_argument("--theta", type=float, default=0.3)
    build.add_argument(
        "--k",
        type=int,
        default=None,
        help="nucleus level (required for --mode global/weak)",
    )
    build.add_argument(
        "--backend",
        default="csr",
        help="retired engine switch: csr (default) or the deprecated dict, "
        "which warns and runs csr",
    )
    build.add_argument("--seed", type=int, default=None, help="RNG seed for Monte-Carlo modes")
    build.add_argument(
        "--n-samples",
        type=int,
        default=None,
        help="Monte-Carlo world count (default: Hoeffding bound)",
    )
    build.add_argument(
        "--sampling",
        choices=("fixed", "adaptive"),
        default="fixed",
        help="Monte-Carlo strategy for --mode global/weak: fixed per-candidate "
        "batches (default) or confidence-driven sequential early stopping "
        "(recorded in the index header)",
    )
    build.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="decision confidence of the adaptive sequential test (default: 0.95)",
    )
    build.add_argument(
        "--n-worlds-max",
        type=int,
        default=None,
        help="per-candidate world cap of the adaptive test "
        "(default: twice the fixed budget)",
    )
    build.add_argument(
        "--kernel",
        choices=("numpy", "numba"),
        default="numpy",
        help="hot-loop implementation: portable numpy (default) or the "
        "compiled kernels of the [kernels] extra (falls back to numpy with a "
        "warning when numba is not installed)",
    )
    build.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="retired: every candidate's worlds are drawn in memory-bounded "
        "blocks; 1 (default) is silent, other positive values warn and are ignored",
    )
    build.add_argument(
        "--no-compress",
        action="store_true",
        help="write an uncompressed archive (memory-mappable by repro-serve)",
    )

    info = sub.add_parser("info", help="print the header of an index")
    info.add_argument("index", help="index file")
    info.add_argument("--json", action="store_true", help="machine-readable output")

    query = sub.add_parser("query", help="answer queries from an index")
    query.add_argument("index", help="index file")
    qsub = query.add_subparsers(dest="operation", required=True)

    max_score = qsub.add_parser("max-score", help="maximum nucleus score per vertex")
    max_score.add_argument("vertices", nargs="+", help="vertex labels")

    nucleus = qsub.add_parser("nucleus", help="smallest nucleus containing every seed vertex")
    nucleus.add_argument("--k", type=int, required=True, help="nucleus level")
    nucleus.add_argument("seeds", nargs="+", help="seed vertex labels")

    top = qsub.add_parser("top", help="top-n nuclei by a ranking criterion")
    top.add_argument("--k", type=int, default=None, help="restrict to one level")
    top.add_argument("--n", type=int, default=5)
    top.add_argument("--by", choices=RANK_KEYS, default="density")
    for op_parser in (max_score, nucleus, top):
        op_parser.add_argument(
            "--cache-stats",
            action="store_true",
            help="print the engine's query-cache counters after answering",
        )
    return parser


def _cmd_build(args: argparse.Namespace) -> int:
    check_retired_knob("partitions", args.partitions)
    graph = read_edge_list(args.graph)
    kwargs: dict = {"backend": args.backend, "kernel": args.kernel}
    if args.mode in ("global", "weak"):
        kwargs.update(seed=args.seed, n_samples=args.n_samples)
        kwargs.update(
            sampling=args.sampling,
            confidence=args.confidence,
            n_worlds_max=args.n_worlds_max,
        )
    index = build_index(graph, mode=args.mode, theta=args.theta, k=args.k, **kwargs)
    index.save(args.output, compress=not args.no_compress)
    print(
        f"indexed {index.num_vertices} vertices / {index.num_edges} edges / "
        f"{index.num_triangles} triangles -> {args.output} "
        f"(mode={index.mode}, theta={index.theta}, levels={list(index.levels)}, "
        f"components={index.num_components})"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    index = NucleusIndex.load(args.index)
    description = index.describe()
    # Surface the query-cache counters alongside the header: a fresh engine
    # shows the cache's capacity and zeroed hit/miss/eviction counts — the
    # same block ``repro-index query --cache-stats`` prints after real use.
    description["cache"] = NucleusQueryEngine(index).cache_info()
    if args.json:
        print(json.dumps(description, indent=2, sort_keys=True))
    else:
        for field in (
            "format",
            "format_version",
            "mode",
            "theta",
            "fingerprint",
            "num_vertices",
            "num_edges",
            "num_triangles",
            "levels",
            "num_components",
        ):
            print(f"{field}: {description[field]}")
        params = description["params"]
        # Engine knobs are omitted from params at their defaults (archive
        # byte-parity); surface the effective values explicitly.
        print(f"kernel: {params.get('kernel', 'numpy')}")
        if "kernel_resolved" in params:
            print(f"kernel_resolved: {params['kernel_resolved']}")
        print(f"params: {params}")
        print(f"cache: {_format_cache_stats(description['cache'])}")
    return 0


def _format_cache_stats(stats: dict) -> str:
    return (
        f"size={stats['size']}/{stats['maxsize']} "
        f"hits={stats['hits']} misses={stats['misses']} "
        f"evictions={stats['evictions']} hit_rate={stats['hit_rate']:.3f}"
    )


def _format_vertices(nucleus) -> str:
    vertices = sorted(nucleus.vertices(), key=label_sort_key)
    return " ".join(str(v) for v in vertices)


def _cmd_query(args: argparse.Namespace) -> int:
    engine = NucleusQueryEngine(NucleusIndex.load(args.index))
    if args.operation == "max-score":
        labels = [parse_vertex(token) for token in args.vertices]
        for label, score in zip(labels, engine.max_score(labels).tolist()):
            print(f"{label}\t{score}")
    elif args.operation == "nucleus":
        seeds = [parse_vertex(token) for token in args.seeds]
        nucleus = engine.nucleus_of(seeds, args.k)
        print(nucleus)
        print(f"vertices: {_format_vertices(nucleus)}")
    else:  # top
        nuclei = engine.top_nuclei(n=args.n, k=args.k, by=args.by)
        _, values = engine.rank_table(k=args.k, by=args.by)
        for rank, (nucleus, value) in enumerate(zip(nuclei, values.tolist()), start=1):
            print(
                f"#{rank} k={nucleus.k} {args.by}={value:.6f} "
                f"vertices={nucleus.num_vertices} edges={nucleus.num_edges} "
                f"triangles={len(nucleus.triangles)}"
            )
    if args.cache_stats:
        print(f"cache: {_format_cache_stats(engine.cache_info())}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-index`` console script."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "info":
            return _cmd_info(args)
        return _cmd_query(args)
    except (ReproError, OSError) as exc:
        # One typed line on stderr, exit 2: scripts can match on the error
        # class without parsing tracebacks.
        message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"repro-index: error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
