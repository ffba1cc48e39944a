import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, last",
    [
        ("oracle_vs_solver.py", ["--networks", "3", "--k", "1"], "solver "),
        ("complexity_probe.py", ["--k-max", "1"], "fitted c = "),
    ],
)
def test_script_runs_from_a_checkout(script, args, last, tmp_path):
    # As the README runs them: plain `python scripts/...`, with no
    # PYTHONPATH and the package not installed.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last)
