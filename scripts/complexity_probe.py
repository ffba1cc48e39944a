"""Measure DP work against the 3^k / 2^k cost model.

Runs the Steiner DP on the fixed 50-node, 80-edge probe network for a
range of terminal counts and reports relaxation counts next to the
model prediction c * (3^k * n + k * 2^k * e).  A well-behaved
implementation shows a near-constant ratio; a blowup in the ratio
means some code path stopped being output-sensitive.

Usage: python scripts/complexity_probe.py [--k-max 5] [--json]
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src
# and the seeded generators (synth) in ../tests.
CHECKOUT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "tests")]

from abducer import build_search_graph, steiner_dp
from synth import (
    COMPLEXITY_EDGES,
    COMPLEXITY_NODES,
    COMPLEXITY_ROOT,
    COMPLEXITY_TERMINALS,
    complexity_network,
)


@dataclass
class ProbeConfig:
    k_min: int = 1
    k_max: int = 5
    as_json: bool = False


def model(k: int) -> int:
    return 3**k * COMPLEXITY_NODES + k * 2**k * COMPLEXITY_EDGES


def run(cfg: ProbeConfig) -> list[dict]:
    g = build_search_graph(complexity_network())
    rows = []
    for k in range(cfg.k_min, cfg.k_max + 1):
        terminals = COMPLEXITY_TERMINALS[:k]
        started = time.perf_counter()
        tree, table = steiner_dp(g, COMPLEXITY_ROOT, terminals)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rows.append(
            {
                "k": k,
                "relaxations": table.relaxations,
                "model": model(k),
                "ratio": table.relaxations / model(k),
                "entries": table.entry_count,
                "entry_cap": COMPLEXITY_NODES * 2**k,
                "tree_weight": tree.total_weight if tree else None,
                "wall_ms": elapsed_ms,
            }
        )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-min", type=int, default=1)
    ap.add_argument("--k-max", type=int, default=5)
    ap.add_argument("--json", action="store_true")
    ns = ap.parse_args(argv)
    cfg = ProbeConfig(k_min=ns.k_min, k_max=ns.k_max, as_json=ns.json)
    if not 1 <= cfg.k_min <= cfg.k_max <= len(COMPLEXITY_TERMINALS):
        print("error: need 1 <= k-min <= k-max <= 5", file=sys.stderr)
        return 2

    rows = run(cfg)
    if cfg.as_json:
        print(json.dumps(rows, indent=2))
        return 0

    print(f"{'k':>2} {'relax':>8} {'model':>8} {'ratio':>7} {'entries':>8} {'cap':>6} {'ms':>7}")
    for r in rows:
        print(
            f"{r['k']:>2} {r['relaxations']:>8} {r['model']:>8} {r['ratio']:>7.4f} "
            f"{r['entries']:>8} {r['entry_cap']:>6} {r['wall_ms']:>7.2f}"
        )
    ratios = [r["ratio"] for r in rows]
    c = math.exp(sum(math.log(x) for x in ratios) / len(ratios))
    print(f"fitted c = {c:.4f}, spread = {max(ratios) / min(ratios):.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
