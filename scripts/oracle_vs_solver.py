"""Randomized cross-check of the Steiner solver against the brute-force oracle.

Generates networks small enough for the oracle's power-set sweep, asks
both engines for the top k explanations of a random observation set,
and reports any disagreement in outcome: a different ranking, or a typed
``AbducerError`` from one engine where the other answers or raises
another.  Also prints cumulative wall time per engine, which is where
the solver earns its keep as networks grow.

Usage: python scripts/oracle_vs_solver.py [--networks 500] [--k 3] [--multi]
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src
# and the seeded generators (synth) in ../tests.
CHECKOUT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "tests")]

from abducer import AbducerError, best_explanations_bruteforce, explain
from synth import random_network, random_observations


@dataclass
class SweepConfig:
    networks: int = 500
    k: int = 3
    seed: int = 0
    max_events: int = 12
    max_causal: int = 14
    max_isa: int = 8
    multi: bool = False


def outcome(engine, *args, **kwargs) -> tuple[list | AbducerError, float]:
    """An engine's answer, as (scenario, log weight) pairs or the typed
    error it raised, and the seconds it took."""
    t0 = time.perf_counter()
    try:
        got = [(r.scenario, r.log_weight) for r in engine(*args, **kwargs)]
    except AbducerError as e:
        got = e
    return got, time.perf_counter() - t0


def describe(got: list | AbducerError) -> str:
    """The ranked scenarios, or the error's type and message."""
    if isinstance(got, AbducerError):
        return f"{type(got).__name__}: {got}"
    return str([s for s, _ in got])


def compare_one(cfg: SweepConfig, seed: int) -> tuple[str | None, float, float]:
    """Returns (mismatch description or None, solver seconds, oracle seconds)."""
    rng = random.Random(seed)
    net = random_network(
        rng, max_events=cfg.max_events, max_causal=cfg.max_causal, max_isa=cfg.max_isa
    )
    obs = random_observations(rng, net)
    if not obs:
        return None, 0.0, 0.0

    got, ts = outcome(explain, net, obs, k=cfg.k, multi=cfg.multi)
    want, to = outcome(best_explanations_bruteforce, net, obs, cfg.k, multi=cfg.multi)

    if describe(got) != describe(want):
        return f"seed {seed}, obs {sorted(obs)}: solver {describe(got)} vs oracle {describe(want)}", ts, to
    if not isinstance(got, AbducerError):
        for rank, ((_, gw), (_, ww)) in enumerate(zip(got, want), 1):
            if abs(gw - ww) > 1e-9:
                return f"seed {seed}: rank {rank} weight gap {abs(gw - ww):g}", ts, to
    return None, ts, to


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--networks", type=int, default=500)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--multi", action="store_true")
    ns = ap.parse_args(argv)
    cfg = SweepConfig(networks=ns.networks, k=ns.k, seed=ns.seed, multi=ns.multi)

    mismatches = []
    solver_s = oracle_s = 0.0
    compared = 0
    for i in range(cfg.networks):
        bad, ts, to = compare_one(cfg, cfg.seed + i)
        solver_s += ts
        oracle_s += to
        if ts or to:
            compared += 1
        if bad:
            mismatches.append(bad)
            print(f"MISMATCH {bad}", file=sys.stderr)

    mode = "multi" if cfg.multi else "single"
    print(
        f"{compared} networks compared ({mode} mode, k={cfg.k}): "
        f"{len(mismatches)} mismatches"
    )
    print(f"solver {solver_s:.2f}s total, oracle {oracle_s:.2f}s total")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
