"""The demo scripts the README advertises run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_the_demo_scripts_are_found():
    assert [script.name for script in SCRIPTS] == [
        "db_reconciliation_demo.py",
        "loan_convention_demo.py",
    ]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda script: script.name)
def test_demo_script_runs(script):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
