#!/usr/bin/env python3
"""Seeded, closed-loop benchmark for abducer's explain, recognize and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One client issues one operation at a time.  The seed generates the inputs;
abducer receives them only as network or KB text (parsed during set-up) or
as files for the CLI.  Every answer is checked.  Each workload has a fixed
list of operations made of blocks of a fixed op count.  Every attempted
operation stays in the latency sample.

With --trace 0 the run measures the end-to-end metrics.  Its --seconds
are split over CHUNKS measuring processes started one after another; each
generates the inputs, sets up, and runs whole blocks of the op list where
the previous one stopped, so that together they run the whole list at
least once.  The same code runs measurably faster or slower in one
process than in the next on a shared machine; spreading a run over
several processes keeps that out of the figures.  The CLI workload already
starts a fresh process for every operation and uses one measuring process.

latency_p50_ms is the median over every operation.  latency_tail_ms is,
within each block, the highest of p99/p95/p90 that has at least ten
samples beyond it at the block's op count, and throughput_ops_s is the
block's op count over its busy time; both are the median over the blocks
run, so one slow block (a slow spell of the machine, or a few very slow
queries) does not decide them.

With --trace 1 the list runs once untraced and once traced in one
process: public functions are wrapped at their module attributes, spans
are kept in memory and written to perfbench/out/trace-<workload>.jsonl.gz
at the end, and the per-layer metrics and the tracing overhead (traced
minus untraced) are reported.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false when any answer was
wrong; `failed` also counts operations that raised or crashed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CHUNKS = 4
# Each measuring process sets up until this much time has passed (at least
# once); setup_s is the median over all set-ups of the run.
CHUNK_SETUP_MIN_S = 1.0

# The metrics of the final JSON line; they must match BENCHMARK.json.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "solver.child_solves",
    "solver.child_solve_ms",
    "solver.child_solve_us_each",
    "solver.graph_build_ms",
    "solver.enum_self_ms",
    "solver.dp_runs",
    "solver.relaxations",
    "solver.table_entries",
    "solver.touched_nodes",
    "funnel.popped",
    "funnel.duplicate",
    "funnel.not_covering",
    "funnel.invalid",
    "funnel.accepted",
    "funnel.accept_ratio",
    "scenario.to_scenario_ms",
    "scenario.participants_ms",
    "scenario.validity_ms",
    "scenario.validity_calls",
    "recognition.candidates",
    "kb.add_top_ms",
    "trace.overhead_pct",
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_each"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "fail_rate")):
        return "ratio"
    return "count"


def tail_percentile(ops: int) -> int:
    """The highest of p99/p95/p90 with at least ten samples beyond it at
    the block's op count."""
    for p in (99, 95, 90):
        if ops * (100 - p) >= 1000:
            return p
    return 90


# -- running and judging operations ---------------------------------------------


def run_ops(wl, fn, positions, tracer=None) -> list:
    """Run op `pos % n_ops` for each position; [pos, ns, answer, error] each."""
    records = []
    for pos in positions:
        idx = pos % wl.n_ops
        if tracer is not None:
            tracer.op = idx
        with tracer.span("bench.op") if tracer is not None else contextlib.nullcontext():
            t0 = perf_counter_ns()
            try:
                answer, err = fn(idx), None
            except Exception as exc:  # a failed operation is a result, not a benchmark error
                answer, err = None, exc
            ns = perf_counter_ns() - t0
        records.append([pos, ns, answer, err])
    return records


def judge_ops(wl, records) -> list:
    """[pos, answer hash, verdict, reason] for each record.

    Operations of the first pass over the list (pos < n_ops) are checked;
    later repeats get verdict None and are compared with the first pass by
    `tally`.  An operation that raised is "failed" wherever it ran.
    """
    oracle = set(wl.oracle_ops())
    judged = []
    for pos, _ns, answer, err in records:
        idx = pos % wl.n_ops
        h = answer_hash(wl, idx, answer, err)
        if err is not None:
            judged.append([pos, h, "failed", f"op {idx} failed: {_error_name(err)}: {err}"])
            continue
        verdict = reason = None
        if pos < wl.n_ops:
            why = wl.check(idx, answer)
            if why is None and idx in oracle:
                why = wl.check_oracle(idx, answer)
            verdict = "ok" if why is None else "wrong"
            reason = None if why is None else f"op {idx} wrong: {why}"
        judged.append([pos, h, verdict, reason])
    return judged


def _error_name(err: Exception) -> str:
    return getattr(err, "kind", type(err).__name__)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answer_hash(wl, idx: int, answer, err) -> str:
    """Hash of an operation's canonical answer, or of the error it raised."""
    if err is not None:
        return _hash(f"error:{_error_name(err)}")
    return _hash(wl.canonical(idx, answer))


def tally(judged: list, n_ops: int):
    """Verdict of every attempted op, the answers digest over the first
    pass, and the reasons for failures."""
    first = {pos: (h, v) for pos, h, v, _ in judged if pos < n_ops}
    if len(first) != n_ops:
        raise RuntimeError(f"the first pass covered {len(first)} of {n_ops} ops")
    verdicts, reasons = [], [r for *_, r in judged if r]
    for pos, h, v, _ in judged:
        if v is None:
            h0, v = first[pos % n_ops]
            if h != h0:
                v = "wrong"
                reasons.append(f"op {pos % n_ops} gave a different answer when repeated")
        verdicts.append(v)
    digest = _hash("\n".join(first[p][0] for p in range(n_ops)))
    return verdicts, digest, reasons


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.process_per_op else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- one measuring process --------------------------------------------------------


def run_chunk(wl, start_block: int, min_blocks: int, seconds: float) -> dict:
    """Set up, then run whole blocks from `start_block` on, at least
    `min_blocks` of them and until `seconds` have passed."""
    wl.prepare()
    setup: list[float] = []
    while sum(setup) < CHUNK_SETUP_MIN_S:
        t0 = perf_counter()
        wl.setup()
        setup.append(perf_counter() - t0)
    records = []
    start = perf_counter()
    block = start_block
    while block - start_block < min_blocks or perf_counter() - start < seconds:
        first = block * wl.block
        records += run_ops(wl, wl.run, range(first, first + wl.block))
        block += 1
    rss = peak_rss_mb(wl)
    return {
        "setup_s": setup,
        "latency_ns": [r[1] for r in records],
        "peak_rss_mb": rss,
        "ops": judge_ops(wl, records),
    }


def _spawn_chunk(name: str, seed: int):
    def spawn(start_block: int, min_blocks: int, seconds: float) -> dict:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
                "--chunk", f"{start_block},{min_blocks}"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"measuring process failed:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])
    return spawn


# -- the two kinds of run ----------------------------------------------------------


def measure_untraced(n_ops: int, block: int, n_chunks: int, seconds: float, spawn, out=sys.stdout) -> dict:
    """End-to-end metrics from `n_chunks` measuring processes run one after
    another; `spawn(start_block, min_blocks, seconds)` runs one."""
    blocks_per_pass = n_ops // block
    chunks, next_block = [], 0
    for c in range(n_chunks):
        left = max(blocks_per_pass - next_block, 0)
        need = max(1, math.ceil(left / (n_chunks - c)))
        chunk = spawn(next_block, need, seconds / n_chunks)
        chunks.append(chunk)
        next_block += len(chunk["latency_ns"]) // block

    lat_ms = [ns / 1e6 for ch in chunks for ns in ch["latency_ns"]]
    pct = tail_percentile(block)
    blocks = [lat_ms[j:j + block] for j in range(0, len(lat_ms), block)]
    metrics = {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": statistics.median(
            statistics.quantiles(b, n=100)[pct - 1] for b in blocks
        ),
        "throughput_ops_s": statistics.median(len(b) / (sum(b) / 1e3) for b in blocks),
        "setup_s": statistics.median(s for ch in chunks for s in ch["setup_s"]),
        "peak_rss_mb": max(ch["peak_rss_mb"] for ch in chunks),
    }
    out.write(f"  samples = {len(lat_ms)} count\n")
    out.write(f"  blocks = {len(blocks)} count ({block} ops each, over {n_chunks} processes)\n")
    out.write(f"  tail_percentile = p{pct}\n")
    judged = [op for ch in chunks for op in ch["ops"]]
    return report(metrics, list(END_TO_END), judged, n_ops, out)


def measure_traced(wl, out=sys.stdout) -> dict:
    """Per-layer metrics: the op list once untraced, once traced."""
    from tracing import Tracer, summarize

    wl.prepare()
    wl.setup()
    positions = range(wl.n_ops)
    ref = run_ops(wl, wl.run_traceable, positions)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        wl.setup()
        traced = run_ops(wl, wl.run_traceable, positions, tracer)
    finally:
        tracer.uninstall()
    judged = judge_ops(wl, traced)
    for op, (pos, _ns, answer, err) in zip(judged, ref):
        if op[1] != answer_hash(wl, pos, answer, err) and op[2] == "ok":
            op[2], op[3] = "wrong", f"op {pos}: traced and untraced answers differ"

    metrics = summarize(tracer.spans, wl.n_ops)
    metrics["cli.import_ms"] = wl.import_ms() if wl.name == "cli" else 0.0
    untraced, spent = sum(r[1] for r in ref), sum(r[1] for r in traced)
    metrics["trace.overhead_ms"] = (spent - untraced) / 1e6 / wl.n_ops
    metrics["trace.overhead_pct"] = 100.0 * (spent - untraced) / untraced
    path = HERE / "out" / f"trace-{wl.name}.jsonl.gz"
    tracer.write(path)
    out.write(f"  spans = {len(tracer.spans)} count (written to {path.relative_to(HERE.parent)})\n")
    return report(metrics, list(PER_LAYER), judged, wl.n_ops, out)


def report(metrics: dict, names: list[str], judged: list, n_ops: int, out) -> dict:
    """Print every metric with its unit; return the final JSON object."""
    verdicts, digest, reasons = tally(judged, n_ops)
    failed = sum(v != "ok" for v in verdicts)
    for name, value in metrics.items():
        out.write(f"  {name} = {value} {unit_of(name)}\n")
    out.write(f"  fail_rate = {failed / len(verdicts)} ratio\n")
    out.write(f"  answers_digest = {digest}\n")
    for why in reasons[:5]:
        out.write(f"  ! {why}\n")
    if len(reasons) > 5:
        out.write(f"  ! ... {len(reasons) - 5} more\n")
    return {
        "correct": "wrong" not in verdicts,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }


def run_all(args) -> int:
    """Every workload in its own process; prints each report and one
    combined JSON line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chunk", help=argparse.SUPPRESS)  # START,MIN_BLOCKS: one measuring process
    args = ap.parse_args(argv)

    if not (SRC / "abducer" / "__init__.py").is_file():
        print(f"error: abducer sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.chunk:
        start_block, min_blocks = map(int, args.chunk.split(","))
        wl = cls(args.seed)
        try:
            print(json.dumps(run_chunk(wl, start_block, min_blocks, args.seconds)))
        finally:
            wl.cleanup()
        return 0

    print(f"workload {args.workload}: seed {args.seed}, trace {args.trace}")
    if args.trace:
        wl = cls(args.seed)
        try:
            result = measure_traced(wl)
        finally:
            wl.cleanup()
    else:
        params = cls.PARAMS
        n_chunks = 1 if cls.process_per_op else CHUNKS
        result = measure_untraced(
            params.ops, params.block, n_chunks, args.seconds, _spawn_chunk(args.workload, args.seed)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
