"""Smoke run of the planted-structure recovery script at toy size."""

import re
import subprocess
import sys
from pathlib import Path

from cli_launch import cli_env
from pgm_reader import load_pgm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_synthetic_recovery_reports_and_writes_heatmaps(tmp_path):
    r = subprocess.run(
        [sys.executable, str(SCRIPTS / "synthetic_recovery.py"), "--groups", "2",
         "--per-group", "1", "--rows", "10", "--samples", "12", "--sweeps", "5",
         "--restarts", "2", "--out", "out"],
        cwd=tmp_path,
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert re.search(r"^diagonal mass fraction: fitted [01]\.\d{3}, planted [01]\.\d{3}$",
                     r.stdout, re.MULTILINE), r.stdout
    # Two labels by two features at 24 px per cell; two features by twelve
    # samples at 6 px.
    assert load_pgm(tmp_path / "out" / "prevalence_hinton.pgm").shape == (48, 48)
    assert load_pgm(tmp_path / "out" / "coefficients.pgm").shape == (12, 72)
