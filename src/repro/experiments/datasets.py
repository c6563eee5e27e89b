"""Dataset registry: laptop-scale analogues of the paper's six datasets.

The paper evaluates on krogan, dblp, flickr, pokec, biomine, and
ljournal-2008 (Table 1).  Those graphs range from thousands to tens of
millions of edges and are not redistributable here, so the registry below
produces synthetic analogues that preserve the properties the algorithms are
sensitive to:

* **krogan** — a small protein-interaction network with high average edge
  probability (0.68): planted dense communities with confidence-style
  probabilities centred near 0.7.
* **dblp** — a co-authorship network with exponential collaboration
  probabilities (average 0.26): overlapping communities, collaboration
  probability model.
* **flickr** — a social network whose probabilities are Jaccard similarities
  with a low average (0.13): power-law topology with strong clustering and a
  low-mean Beta probability model.
* **pokec** and **ljournal-2008** — large social networks with uniform
  probabilities (average 0.5): power-law topologies with uniform
  probabilities.
* **biomine** — a large biological integration network (average probability
  0.27): planted communities over a larger sparse background with a low-mean
  Beta model.

Each dataset is available at three scales: ``tiny`` (hundreds of
triangles; used by the test-suite), ``small`` (thousands of triangles; the
benchmark default), and ``large`` (the largest tier, for peel timings on
the most triangles and 4-cliques the analogues reach).  Generation is
seeded, so repeated calls return identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import InvalidParameterError
from repro.graph.generators import (
    GeneratorSpec,
    beta_probability,
    collaboration_probability,
    confidence_probability,
    planted_nucleus_graph,
    power_law_cluster_graph,
    uniform_probability,
)
from repro.graph.probabilistic_graph import ProbabilisticGraph

__all__ = ["DatasetSpec", "DATASET_NAMES", "SCALES", "dataset_spec", "load_dataset", "load_all"]

#: Order in which datasets are reported, matching Table 1 (ordered by triangle count).
DATASET_NAMES = ("krogan", "dblp", "flickr", "pokec", "biomine", "ljournal")

#: Available scales.  ``tiny`` keeps unit tests fast; ``small`` is the
#: benchmark default; ``large`` is the largest, peel-timing tier.
SCALES = ("tiny", "small", "large")


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset analogue at a specific scale."""

    name: str
    scale: str
    generator_spec: GeneratorSpec
    seed: int
    paper_reference: str

    def build(self) -> ProbabilisticGraph:
        """Generate the graph (deterministic for a fixed spec)."""
        return self.generator_spec.build(seed=self.seed)


def _krogan(scale: str) -> GeneratorSpec:
    sizes = {
        "tiny": ([8, 6, 5], 25),
        "small": ([10, 9, 8, 7, 6], 60),
        "large": ([12, 11, 10, 9, 8, 7, 6], 120),
    }
    community_sizes, background = sizes[scale]
    return GeneratorSpec(
        name="krogan",
        generator=planted_nucleus_graph,
        parameters={
            "community_sizes": community_sizes,
            "intra_density": 0.92,
            "background_vertices": background,
            "background_density": 0.06,
            "bridges_per_community": 3,
            "probability_model": confidence_probability(mode=0.75, concentration=10.0),
            "background_probability_model": confidence_probability(mode=0.6, concentration=5.0),
        },
        description="protein-interaction analogue with high edge confidence",
    )


def _dblp(scale: str) -> GeneratorSpec:
    sizes = {
        "tiny": ([9, 7, 6, 5], 30),
        "small": ([13, 11, 10, 9, 8, 7, 6, 6, 5], 120),
        "large": ([16, 14, 12, 11, 10, 9, 8, 7, 6, 6, 5], 260),
    }
    community_sizes, background = sizes[scale]
    return GeneratorSpec(
        name="dblp",
        generator=planted_nucleus_graph,
        parameters={
            "community_sizes": community_sizes,
            "intra_density": 0.9,
            "background_vertices": background,
            "background_density": 0.03,
            "bridges_per_community": 4,
            "probability_model": collaboration_probability(mean_collaborations=4.0, scale=2.0),
            "background_probability_model": collaboration_probability(
                mean_collaborations=0.4, scale=4.0
            ),
        },
        description="co-authorship analogue: strong repeated collaborations inside groups",
    )


def _flickr(scale: str) -> GeneratorSpec:
    sizes = {
        "tiny": ([11, 8, 6, 5], 50),
        "small": ([16, 13, 11, 9, 8, 7, 6, 6, 5, 5], 180),
        "large": ([20, 16, 13, 11, 10, 9, 8, 7, 6, 6, 5, 5], 380),
    }
    community_sizes, background = sizes[scale]
    return GeneratorSpec(
        name="flickr",
        generator=planted_nucleus_graph,
        parameters={
            "community_sizes": community_sizes,
            "intra_density": 0.95,
            "background_vertices": background,
            "background_density": 0.04,
            "bridges_per_community": 5,
            "probability_model": confidence_probability(mode=0.9, concentration=20.0),
            "background_probability_model": beta_probability(alpha=1.2, beta=9.0),
        },
        description=(
            "photo-sharing analogue: near-certain edges inside interest groups "
            "(high Jaccard) over a low-probability periphery"
        ),
    )


def _pokec(scale: str) -> GeneratorSpec:
    sizes = {"tiny": (120, 4), "small": (450, 5), "large": (1200, 6)}
    vertices, attachment = sizes[scale]
    return GeneratorSpec(
        name="pokec",
        generator=power_law_cluster_graph,
        parameters={
            "num_vertices": vertices,
            "attachment": attachment,
            "triangle_probability": 0.6,
            "probability_model": uniform_probability(0.0, 1.0),
        },
        description="social network analogue with uniform probabilities",
    )


def _biomine(scale: str) -> GeneratorSpec:
    sizes = {
        "tiny": ([10, 7, 6], 40),
        "small": ([14, 12, 10, 8, 7, 6, 5], 160),
        "large": ([18, 15, 13, 11, 10, 8, 7, 6, 5], 340),
    }
    community_sizes, background = sizes[scale]
    return GeneratorSpec(
        name="biomine",
        generator=planted_nucleus_graph,
        parameters={
            "community_sizes": community_sizes,
            "intra_density": 0.9,
            "background_vertices": background,
            "background_density": 0.03,
            "bridges_per_community": 4,
            "probability_model": confidence_probability(mode=0.8, concentration=9.0),
            "background_probability_model": beta_probability(alpha=2.0, beta=6.0),
        },
        description="biological integration analogue: confident complexes over noisy background",
    )


def _ljournal(scale: str) -> GeneratorSpec:
    sizes = {"tiny": (150, 4), "small": (600, 5), "large": (1600, 6)}
    vertices, attachment = sizes[scale]
    return GeneratorSpec(
        name="ljournal",
        generator=power_law_cluster_graph,
        parameters={
            "num_vertices": vertices,
            "attachment": attachment,
            "triangle_probability": 0.7,
            "probability_model": uniform_probability(0.0, 1.0),
        },
        description="blogging social network analogue with uniform probabilities",
    )


_BUILDERS = {
    "krogan": _krogan,
    "dblp": _dblp,
    "flickr": _flickr,
    "pokec": _pokec,
    "biomine": _biomine,
    "ljournal": _ljournal,
}

_SEEDS = {
    "krogan": 11,
    "dblp": 23,
    "flickr": 37,
    "pokec": 41,
    "biomine": 53,
    "ljournal": 67,
}

_PAPER_REFERENCE = {
    "krogan": "krogan: |V|=2,708 |E|=7,123 p_avg=0.68",
    "dblp": "dblp: |V|=684,911 |E|=2,284,991 p_avg=0.26",
    "flickr": "flickr: |V|=24,125 |E|=300,836 p_avg=0.13",
    "pokec": "pokec: |V|=1,632,803 |E|=22,301,964 p_avg=0.50",
    "biomine": "biomine: |V|=1,008,201 |E|=6,722,503 p_avg=0.27",
    "ljournal": "ljournal-2008: |V|=5,363,260 |E|=49,514,271 p_avg=0.50",
}


def dataset_spec(name: str, scale: str = "small") -> DatasetSpec:
    """Return the :class:`DatasetSpec` for a dataset name and scale.

    Raises
    ------
    InvalidParameterError
        For unknown dataset names or scales.
    """
    if name not in _BUILDERS:
        raise InvalidParameterError(
            f"unknown dataset {name!r}; choose one of {DATASET_NAMES}"
        )
    if scale not in SCALES:
        raise InvalidParameterError(f"unknown scale {scale!r}; choose one of {SCALES}")
    return DatasetSpec(
        name=name,
        scale=scale,
        generator_spec=_BUILDERS[name](scale),
        seed=_SEEDS[name],
        paper_reference=_PAPER_REFERENCE[name],
    )


def load_dataset(name: str, scale: str = "small") -> ProbabilisticGraph:
    """Generate and return the named dataset analogue."""
    return dataset_spec(name, scale).build()


def load_all(scale: str = "small", names: tuple[str, ...] = DATASET_NAMES) -> dict[str, ProbabilisticGraph]:
    """Generate all (or the named subset of) dataset analogues, keyed by name."""
    return {name: load_dataset(name, scale) for name in names}
