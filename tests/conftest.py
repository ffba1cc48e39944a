import os
import subprocess
import sys
from pathlib import Path

import pytest

import abducer
from abducer import parse_network, parse_recognition_kb

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(abducer.__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def fig2_path() -> Path:
    return FIXTURES / "fig2.cnet"


@pytest.fixture(scope="session")
def fruits_path() -> Path:
    return FIXTURES / "fruits.rkb"


@pytest.fixture(scope="session")
def fig2(fig2_path):
    return parse_network(fig2_path.read_text())


@pytest.fixture(scope="session")
def fruits(fruits_path):
    return parse_recognition_kb(fruits_path.read_text())


CHAIN_LENGTH = 10_000


@pytest.fixture(scope="session")
def chain_texts() -> dict[str, str]:
    """.cnet texts of a CHAIN_LENGTH-event chain, keyed by link kind:
    e0 -> e1 -> ... by causal links ("cause") or by isa links ("isa")."""
    events = "".join(f"event e{i}\n" for i in range(CHAIN_LENGTH))
    steps = range(CHAIN_LENGTH - 1)
    return {
        "cause": events + "".join(f"cause e{i} e{i + 1} p=0.9\n" for i in steps),
        "isa": events + "".join(f"isa e{i} e{i + 1}\n" for i in steps),
    }


@pytest.fixture(scope="session")
def fresh_python():
    """Run a new interpreter that imports this package; returns the
    CompletedProcess with stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)

    return run


@pytest.fixture(scope="session")
def modules_loaded_by(fresh_python):
    """The set of modules a new interpreter adds to sys.modules while it
    runs ``body``, which sees ``argv`` as ``sys.argv[1:]``."""

    def run(body: str, *argv: str) -> set[str]:
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"{body}\n"
            "print(*sorted(set(sys.modules) - before), file=sys.stderr)\n"
        )
        proc = fresh_python("-c", script, *map(str, argv))
        assert proc.returncode == 0, proc.stderr.decode()
        return set(proc.stderr.decode().splitlines()[-1].split())

    return run
