"""Packaging metadata for the repro library.

The reproduction targets Python >= 3.10 (PEP 604 unions, modern typing) and
needs numpy for the CSR graph engine; networkx is optional and only used by
the topology generators and conversion helpers that import it lazily.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent

LONG_DESCRIPTION = (HERE / "README.md").read_text(encoding="utf-8")

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    flags=re.MULTILINE,
).group(1)

setup(
    name="repro-nucleus",
    version=VERSION,
    description=(
        "Reproduction of 'Nucleus Decomposition in Probabilistic Graphs: "
        "Hardness and Algorithms' (ICDE 2022)"
    ),
    long_description=LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "networkx": ["networkx>=2.6"],
        "benchmarks": ["pytest", "pytest-benchmark"],
        "tests": ["pytest", "hypothesis", "pytest-cov"],
        "lint": ["ruff"],
        # Everything a contributor needs: both test tiers (hypothesis drives
        # the tier-2 property suites), coverage, benchmarks, and the linter.
        "dev": ["pytest", "hypothesis", "pytest-cov", "pytest-benchmark", "ruff"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-index=repro.cli:main",
            "repro-serve=repro.serve.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Information Analysis",
    ],
)
