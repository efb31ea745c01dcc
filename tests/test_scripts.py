"""Each example script runs once, with small arguments, as a user runs it.

The scripts call the package only through its public API, so a change
that breaks an example shows here: each must exit with status 0 and print
its report.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "gn_survey.py": ["--trials", "5"],
    "newton_openness.py": [],
    "galerkin_truncation.py": [],
    "taylor_green_convergence.py": ["--res", "16", "--T", "0.05"],
}


def _run(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    _run(name, *SCRIPTS[name])


def test_gn_survey_writes_its_csv(tmp_path):
    _run("gn_survey.py", "--trials", "3", "--res", "16", "--out", str(tmp_path))
    lines = (tmp_path / "gn-ratios.csv").read_text().splitlines()
    assert lines[0] == "iteration,value"
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]
