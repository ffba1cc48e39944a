"""Command-line front end.

Subcommands: validate, explain, recognize, export-dot.  Exit codes are
uniform across commands: 0 success with results, 1 success but nothing
found, 2 bad input (parse or query errors), 3 I/O trouble, 4 internal
error (a bug: any other exception, reported in one line).

Only ``errors`` and ``kb`` load with this module; each subcommand imports
the engine modules it calls, so a fresh ``validate`` or ``export-dot`` on a
network never compiles the solver, the oracle or the recognition layer.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .errors import AbducerError, InvalidArgumentError, ParseError
from .kb import CausalNetwork, parse_network

# Type checkers take this as true.  It stands in for typing.TYPE_CHECKING
# so that a cold start does not load typing for annotations alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .solver import SolveStats


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        line = err.object.count(b"\n", 0, err.start) + 1
        raise ParseError(f"byte 0x{err.object[err.start]:02x} is not UTF-8", line) from None


def _split_csv(raw: str, what: str) -> list[str]:
    items = [t.strip() for t in raw.split(",") if t.strip()]
    if not items:
        raise InvalidArgumentError(f"{what} must be a non-empty comma-separated list")
    return items


def _emit(
    args: argparse.Namespace, query: dict, rows: list, lines: list, ms: float, stats: SolveStats | None
) -> None:
    """Print the --json payload of query and rows, or the text lines; with
    --stats, the JSON gains a ``stats`` object and the text a stats line."""
    if args.json:
        import json

        payload = {"query": query, "results": rows}
        if stats is not None:
            payload["stats"] = {
                "wall_ms": ms,
                "dp_runs": stats.dp_runs,
                "relaxations": stats.relaxations,
                "table_entries": stats.table_entries,
            }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    print("\n".join(lines))
    if stats is not None:
        print(
            f"stats: wall_ms={ms:.1f} dp_runs={stats.dp_runs}"
            f" relaxations={stats.relaxations} table_entries={stats.table_entries}"
        )


def cmd_validate(args: argparse.Namespace) -> int:
    text = _read(args.path)
    if args.path.endswith(".rkb"):
        from .recognition import parse_recognition_kb

        kb = parse_recognition_kb(text)
        print(f"OK: {len(kb.concepts)} concepts, {len(kb.isa)} isa, {len(kb.specs)} specs")
    else:
        net = parse_network(text)
        print(f"OK: {len(net.events)} events, {len(net.causal)} causal, {len(net.isa)} isa")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.path))
    obs = _split_csv(args.obs, "--obs")
    if args.oracle:
        from .oracle import best_explanations_bruteforce
    else:
        from .solver import explain
    stats = None
    if args.stats:
        from .solver import SolveStats

        stats = SolveStats()
    started = time.perf_counter()
    if args.oracle:
        results = best_explanations_bruteforce(net, obs, args.k, multi=args.multi)
    else:
        results = explain(net, obs, k=args.k, multi=args.multi, stats=stats)
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    rows, lines = [], []
    for r in results:
        culprit, links = r.scenario.culprit, r.scenario.sorted_causations
        rows.append({
            "rank": r.rank,
            "culprit": culprit,
            "causations": [[x, y] for x, y in links],
            "log_weight": r.log_weight,
            "probability": r.probability,
        })
        text = ",".join(f"{x}->{y}" for x, y in links) or "-"
        lines.append(
            f"rank={r.rank} culprit={culprit} weight={r.log_weight:.6f} "
            f"probability={r.probability:.6g} causations={text}"
        )
    query = {
        "observations": sorted(set(obs)),
        "mode": "multi" if args.multi else "single",
        "k": args.k,
        "engine": "oracle" if args.oracle else "solver",
    }
    _emit(args, query, rows, lines or ["no explanation"], elapsed_ms, stats)
    return 0 if results else 1


def cmd_recognize(args: argparse.Namespace) -> int:
    from .recognition import RecognitionQuery, all_concept_ids, parse_recognition_kb, recognize

    kb = parse_recognition_kb(_read(args.path))
    if args.open_cset:
        cset = list(all_concept_ids(kb))
    elif args.cset:
        cset = _split_csv(args.cset, "--cset")
    else:
        raise InvalidArgumentError("either --cset or --open-cset is required")
    descr = []
    for tok in _split_csv(args.descr, "--descr"):
        p, eq, v = tok.partition("=")
        if not eq or not p or not v:
            raise InvalidArgumentError(f"bad description entry (want property=value): {tok}")
        descr.append((p, v))

    stats = None
    if args.stats:
        # Recognition runs no DP, so the counters read 0.
        from .solver import SolveStats

        stats = SolveStats()
    started = time.perf_counter()
    rows = recognize(kb, RecognitionQuery.make(cset, descr))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    out, lines = [], []
    rank = 0
    for r in rows:
        if r.applicable:
            rank += 1
            score = float(r.score)  # type: ignore[arg-type]
            out.append(
                {"concept": r.concept, "applicable": True, "rank": rank, "weight": r.weight, "score": score}
            )
            lines.append(f"rank={rank} concept={r.concept} weight={r.weight:.6f} score={score:g}")
        else:
            out.append({"concept": r.concept, "applicable": False, "reason": r.reason})
            lines.append(f"inapplicable concept={r.concept} reason={r.reason}")
    query = {"cset": sorted(set(cset)), "descr": [[p, v] for p, v in sorted(set(descr))]}
    _emit(args, query, out, lines or ["no candidates"], elapsed_ms, stats)
    return 0 if rank else 1


def _dot_lines(net: CausalNetwork) -> list[str]:
    lines = ["digraph causal_network {", "  rankdir=LR;"]
    for e in net.events:
        if e.is_disorder:
            lines.append(f'  "{e.id}" [shape=doublecircle];')
        else:
            lines.append(f'  "{e.id}";')
    for l in net.causal:
        lines.append(f'  "{l.cause}" -> "{l.effect}" [label="{l.cond_prob:g}"];')
    for l in net.isa:
        lines.append(f'  "{l.child}" -> "{l.parent}" [style=dashed,label="isa"];')
    lines.append("}")
    return lines


def cmd_export_dot(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.path))
    text = "\n".join(_dot_lines(net)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="abducer", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a KB and report its size")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("explain", help="rank explanations for observations")
    p.add_argument("path")
    p.add_argument("--obs", required=True, help="comma-separated observed events")
    p.add_argument("--k", type=int, default=1, help="number of results (default 1)")
    p.add_argument("--multi", action="store_true", help="allow multiple culprits via the augmented root")
    p.add_argument("--oracle", action="store_true", help="use the exhaustive reference engine")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true", help="include timing and DP counters")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("recognize", help="rank candidate concepts for a description")
    p.add_argument("path")
    p.add_argument("--cset", help="comma-separated candidate concepts")
    p.add_argument("--open-cset", action="store_true", help="consider every concept as a candidate")
    p.add_argument("--descr", required=True, help="comma-separated property=value pairs")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("export-dot", help="render the network as a DOT digraph")
    p.add_argument("path")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_export_dot)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except AbducerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
