from pathlib import Path

import pytest

from abducer import parse_network, parse_recognition_kb

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
