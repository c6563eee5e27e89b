"""Experiment: Table 1 — dataset statistics.

Reports, for every dataset analogue of the registry, the statistics the paper
lists in its Table 1: number of vertices, number of edges, maximum degree,
average edge probability, and number of triangles.  Absolute values are much
smaller than the paper's (the analogues are laptop-scale), but the relative
ordering — social networks larger and more triangle-rich than krogan, low
average probability for flickr, high for krogan — is preserved.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.experiments.formatting import Column
from repro.experiments.pipeline import (
    DecompositionCache,
    ExperimentSpec,
    RunConfig,
    run_spec_rows,
)
from repro.graph.statistics import GraphStatistics, format_statistics_table, graph_statistics

__all__ = ["SPEC", "run_table1", "format_table1"]

#: Markdown-renderer columns (the plain report keeps the legacy
#: :func:`format_statistics_table` layout with its dashed separator).
COLUMNS = (
    Column("Graph", 0, key="name"),
    Column("|V|", 0, key="num_vertices"),
    Column("|E|", 0, key="num_edges"),
    Column("dmax", 0, key="max_degree"),
    Column("p_avg", 0, ".2f", key="average_probability"),
    Column("|tri|", 0, key="num_triangles"),
)


def _grid(config: RunConfig, overrides: dict) -> list[dict]:
    names = overrides.get("names", DATASET_NAMES)
    return [{"dataset": name} for name in names]


def _run_cell(
    params: dict, config: RunConfig, cache: DecompositionCache
) -> list[GraphStatistics]:
    graph = load_dataset(params["dataset"], config.scale)
    return [graph_statistics(graph, name=params["dataset"])]


def format_table1(rows: list[GraphStatistics]) -> str:
    """Render the rows in the paper's column order."""
    return format_statistics_table(rows)


SPEC = ExperimentSpec(
    name="table1",
    title="Dataset statistics (|V|, |E|, dmax, p_avg, triangle count)",
    paper_reference="Table 1",
    row_type=GraphStatistics,
    grid=_grid,
    run_cell=_run_cell,
    formatter=format_table1,
    columns=COLUMNS,
    cacheable=False,
)


def run_table1(
    names: Sequence[str] = DATASET_NAMES,
    scale: str = "small",
) -> list[GraphStatistics]:
    """Compute the Table 1 rows for the requested datasets."""
    config = RunConfig(scale=scale)
    return run_spec_rows(SPEC, config, overrides={"names": tuple(names)})


def main() -> None:  # pragma: no cover - thin CLI wrapper
    print(format_table1(run_table1()))


if __name__ == "__main__":  # pragma: no cover
    main()
