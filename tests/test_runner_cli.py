"""Tests for the ``repro-experiments`` command-line runner.

The in-process surface (``repro.experiments.runner.main``) is exercised for
coverage; the end-to-end console behaviour — real interpreter, real argv,
real exit codes, artifacts on disk — is pinned by ``subprocess`` smoke tests
on top, mirroring ``tests/test_cli.py`` for ``repro-index``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.pipeline import ARTIFACT_FORMAT, RunConfig, run_pipeline
from repro.experiments.registry import EXPERIMENT_NAMES, get_spec
from repro.experiments.runner import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


class TestMainInProcess:
    def test_all_experiments_registered(self):
        assert [get_spec(name).name for name in EXPERIMENT_NAMES] == list(EXPERIMENT_NAMES)

    def test_run_pipeline_unknown_name(self):
        with pytest.raises(KeyError):
            run_pipeline(["figure99"], RunConfig(scale="tiny"))

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENT_NAMES:
            assert name in out
        assert "Table 1" in out and "Figure 8" in out

    def test_run_cheap_experiment_legacy_invocation(self, capsys):
        # Seed-era invocation: no subcommand, bare experiment names.
        exit_code = main(["figure7", "--scale", "tiny"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "=== figure7 ===" in captured.out
        assert "avg PD" in captured.out

    def test_run_with_filter_and_markdown(self, capsys):
        exit_code = main(
            [
                "run", "table1", "--scale", "tiny",
                "--filter", "dataset=krogan", "--format", "markdown",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "| Graph |" in captured.out
        assert "krogan" in captured.out
        assert "dblp" not in captured.out

    def test_unknown_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "figure99"])
        assert excinfo.value.code == 2

    def test_bad_filter_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table1", "--filter", "nonsense"])
        assert excinfo.value.code == 2

    def test_artifact_written(self, tmp_path, capsys):
        exit_code = main(
            ["run", "figure7", "--scale", "tiny", "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert exit_code == 0
        payload = json.loads((tmp_path / "EXPERIMENTS_figure7.json").read_text())
        assert payload["format"] == ARTIFACT_FORMAT
        assert payload["num_rows"] >= 1


class TestConsoleSmoke:
    def test_list_subcommand(self):
        result = _run_cli("list")
        assert result.returncode == 0, result.stderr
        assert "ablation_sampling" in result.stdout

    def test_tiny_run_with_artifacts_and_jobs(self, tmp_path):
        result = _run_cli(
            "run", "table2", "--scale", "tiny", "--jobs", "2",
            "--filter", "dataset=krogan", "--out", str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert "=== table2 ===" in result.stdout
        payload = json.loads((tmp_path / "EXPERIMENTS_table2.json").read_text())
        assert payload["format"] == ARTIFACT_FORMAT
        assert payload["num_rows"] == 2  # krogan x theta {0.2, 0.4}
        assert payload["config"]["n_jobs"] == 2
        assert [cell["params"]["dataset"] for cell in payload["cells"]] == [
            "krogan", "krogan",
        ]

    def test_unknown_name_fails(self):
        result = _run_cli("run", "not_an_experiment")
        assert result.returncode == 2
        assert "valid names" in result.stderr
