"""Smoke runs of the experiment scripts at toy sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

from cli_launch import cli_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TOY = ["--groups", "2", "--per-group", "1", "--rows", "10", "--samples", "12", "--sweeps", "5"]


@pytest.mark.parametrize(
    "script, extra",
    [
        ("synthetic_recovery.py", ["--restarts", "2", "--out", "out"]),
        ("prior_contrast_sweep.py", ["--folds", "2", "--restarts", "1"]),
    ],
)
def test_script_runs(tmp_path, script, extra):
    r = subprocess.run(
        [sys.executable, str(SCRIPTS / script)] + TOY + extra,
        cwd=tmp_path,
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
