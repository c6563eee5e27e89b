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
  filtering) and ``--format plain|markdown``.
  ``--backend``, ``--kernel``, ``--partitions``, ``--sampling``,
  ``--confidence`` and ``--n-worlds-max`` are retired switches, registered
  and checked from the one retired-knob table
  (:func:`~repro.exceptions.add_retired_flags`,
  :func:`~repro.exceptions.check_retired_flags`): their old defaults are
  accepted silently, other valid values with a :class:`DeprecationWarning`,
  and every global/weak cell verifies its candidates on a fixed number of
  worlds.

For backwards compatibility the seed-era invocation
``python -m repro.experiments <name> [<name> …]`` (no subcommand) still
works and is equivalent to ``run`` with the default configuration; ``all``
expands to every experiment.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro.exceptions import add_retired_flags, check_retired_flags
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
    add_retired_flags(run)
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

    check_retired_flags(args)
    config = RunConfig(
        scale=args.scale,
        seed=args.seed,
        n_jobs=args.jobs,
        output_dir=args.out,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        grid_filter=filters,
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
