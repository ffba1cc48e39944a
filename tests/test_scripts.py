import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abducer import TooManyTerminalsError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, last",
    [
        ("oracle_vs_solver.py", ["--networks", "3", "--k", "1"], "solver "),
        ("complexity_probe.py", ["--k-max", "1"], "fitted c = "),
        ("oracle_vs_solver.py", ["--networks", "3", "--k", "3", "--multi"], "solver "),
        ("oracle_vs_solver.py", ["--networks", "3", "--k", "10"], "solver "),
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


def test_an_error_on_one_side_is_a_mismatch(monkeypatch):
    # A typed error counts as an outcome: against the oracle's ranking it
    # is reported as a mismatch, and on both sides alike it is agreement.
    spec = importlib.util.spec_from_file_location("oracle_vs_solver", SCRIPTS / "oracle_vs_solver.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def refuse(*args, **kwargs):
        raise TooManyTerminalsError("refused")

    cfg = script.SweepConfig()
    monkeypatch.setattr(script, "explain", refuse)
    bad, _, _ = script.compare_one(cfg, 0)
    assert "solver TooManyTerminalsError: refused vs oracle [Scenario(" in bad
    monkeypatch.setattr(script, "best_explanations_bruteforce", refuse)
    assert script.compare_one(cfg, 0)[0] is None
