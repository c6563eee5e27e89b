"""Command-line runner for the experiment pipeline.

``python -m repro.experiments`` (also installed as ``repro-experiments``)
is the one command line of the declarative pipeline of
:mod:`repro.experiments.pipeline`:

* ``list`` — show every registered experiment with its paper reference;
* ``run <name> … [flags]`` — execute experiments through the shared
  pipeline: ``--scale``, ``--seed``,
  ``--jobs`` (parallel grid cells), ``--out`` (write
  ``EXPERIMENTS_<name>.json`` artifacts), ``--cache-dir`` / ``--no-cache``
  (decomposition snapshot reuse), ``--filter key=value`` (grid-cell
  filtering), ``--format plain|markdown``, and the Monte-Carlo strategy
  knobs ``--sampling fixed|adaptive`` / ``--confidence`` /
  ``--n-worlds-max`` (sequential early stopping, recorded in artifacts).
  ``--backend`` is the retired engine switch: ``csr`` is accepted silently,
  ``dict`` with a :class:`DeprecationWarning`.

For backwards compatibility the seed-era invocation
``python -m repro.experiments <name> [<name> …]`` (no subcommand) still
works and is equivalent to ``run`` with the default configuration; ``all``
expands to every experiment.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro.core.global_nucleus import check_retired_knob
from repro.core.local import check_backend
from repro.experiments.datasets import SCALES
from repro.experiments.formatting import render_markdown
from repro.experiments.pipeline import RunConfig, run_pipeline
from repro.experiments.registry import EXPERIMENT_NAMES, SPECS, get_spec

__all__ = ["main"]


def _parse_filters(pairs: Sequence[str]) -> tuple[tuple[str, str], ...]:
    filters = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--filter expects key=value, got {pair!r}")
        filters.append((key, value))
    return tuple(filters)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures on the dataset analogues.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the registered experiments")

    run = sub.add_parser("run", help="run experiments through the pipeline")
    run.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(sorted(SPECS))}) or 'all'",
    )
    run.add_argument(
        "--backend",
        default="csr",
        help="retired engine switch: csr (default) or the deprecated dict, "
        "which warns and runs csr",
    )
    run.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="dataset registry scale (default: small)",
    )
    run.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N grid cells in parallel worker processes",
    )
    run.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write EXPERIMENTS_<name>.json artifacts into DIR",
    )
    run.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="directory for decomposition snapshots (default: in-memory, "
        "or a temporary directory when --jobs > 1)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="disable decomposition snapshot reuse",
    )
    run.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="only run grid cells whose KEY parameter stringifies to VALUE "
        "(repeatable; e.g. --filter dataset=krogan --filter theta=0.2)",
    )
    run.add_argument(
        "--format",
        choices=("plain", "markdown"),
        default="plain",
        dest="output_format",
        help="report layout (plain reproduces the paper tables byte for byte)",
    )
    run.add_argument(
        "--sampling",
        choices=("fixed", "adaptive"),
        default="fixed",
        help="Monte-Carlo strategy of the global/weak cells: fixed per-candidate "
        "batches (default) or confidence-driven sequential early stopping",
    )
    run.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        metavar="C",
        help="decision confidence of the adaptive sequential test (default: 0.95)",
    )
    run.add_argument(
        "--n-worlds-max",
        type=int,
        default=None,
        metavar="N",
        help="per-candidate world cap of the adaptive test "
        "(default: twice the cell's fixed budget)",
    )
    run.add_argument(
        "--kernel",
        choices=("numpy", "numba"),
        default="numpy",
        help="hot-loop implementation: portable numpy (default) or the "
        "compiled kernels of the [kernels] extra (falls back to numpy with "
        "a warning when numba is not installed)",
    )
    run.add_argument(
        "--partitions",
        type=int,
        default=1,
        metavar="P",
        help="retired: every candidate's worlds are drawn in memory-bounded "
        "blocks; 1 (default) is silent, other positive values warn and are ignored",
    )
    return parser


def _list_command() -> int:
    width = max(len(name) for name in EXPERIMENT_NAMES)
    for spec in SPECS.values():
        cached = "cached" if spec.cacheable else "uncached"
        print(f"{spec.name:<{width}}  [{spec.paper_reference}; {cached}]  {spec.title}")
    return 0


def _run_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    names = list(args.experiments)
    if names == ["all"]:
        names = list(EXPERIMENT_NAMES)
    for name in names:
        try:
            get_spec(name)
        except KeyError as error:
            parser.error(error.args[0])  # raises SystemExit(2)
    try:
        filters = _parse_filters(args.filter)
    except ValueError as error:
        parser.error(str(error))  # raises SystemExit(2)

    check_backend(args.backend)
    check_retired_knob("partitions", args.partitions)
    config = RunConfig(
        scale=args.scale,
        seed=args.seed,
        n_jobs=args.jobs,
        output_dir=args.out,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        grid_filter=filters,
        sampling=args.sampling,
        confidence=args.confidence,
        n_worlds_max=args.n_worlds_max,
        kernel=args.kernel,
    )
    runs = run_pipeline(names, config)
    for name in names:
        run = runs[name]
        if args.output_format == "markdown":
            report = render_markdown(run.spec.columns, run.rows)
        else:
            report = run.report
        print(f"=== {name} ===")
        print(report)
        print()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    import sys

    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # Seed-era compatibility: a bare experiment list (no subcommand) runs it.
    if argv and argv[0] not in ("list", "run", "-h", "--help"):
        argv = ["run"] + argv
    args = parser.parse_args(argv)
    if args.command == "list":
        return _list_command()
    if args.command == "run":
        return _run_command(args, parser)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
