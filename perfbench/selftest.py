#!/usr/bin/env python3
"""Self-test of the benchmark: every workload once at a tiny size.

    python3 perfbench/selftest.py

For each workload, untraced and traced, it checks that every end-to-end
and per-layer metric is printed with its unit, that the final JSON object
has the metrics BENCHMARK.json names, and that a deliberately corrupted
answer is counted as failed and makes the run incorrect.  Exits 0 when all
checks hold.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "explain-random": workloads.RandomParams(ops=12, block=12, oracle_checks=4),
    "explain-local": workloads.LocalParams(ops=4, block=4, networks=(8, 10)),
    "recognize": workloads.RecognizeParams(ops=6, block=6),
    "cli": workloads.CliParams(ops=20, block=20, local_components=10),
}

PRINTED_END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "fail_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED_PER_LAYER = {
    "solver.child_solves": "count",
    "solver.child_solve_ms": "ms",
    "solver.dp_runs": "count",
    "solver.relaxations": "count",
    "solver.table_entries": "count",
    "solver.touched_nodes": "count",
    "solver.child_solve_us_each": "us",
    "solver.graph_build_ms": "ms",
    "solver.enum_self_ms": "ms",
    "funnel.popped": "count",
    "funnel.duplicate": "count",
    "funnel.not_covering": "count",
    "funnel.invalid": "count",
    "funnel.accepted": "count",
    "funnel.accept_ratio": "ratio",
    "scenario.to_scenario_ms": "ms",
    "scenario.participants_ms": "ms",
    "scenario.validity_ms": "ms",
    "scenario.validity_calls": "count",
    "recognition.graph_ms": "ms",
    "recognition.score_ms": "ms",
    "recognition.tree_ms": "ms",
    "recognition.candidates": "count",
    "kb.parse_ms": "ms",
    "kb.add_top_ms": "ms",
    "oracle.rank_ms": "ms",
    "cli.import_ms": "ms",
    "cli.format_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "fail_rate": "ratio",
}

LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")


def printed(text: str) -> dict[str, str]:
    found = {}
    for line in text.splitlines():
        m = LINE.match(line)
        if m:
            float(m.group(2))
            found[m.group(1)] = m.group(3)
    return found


def corrupted(wl, first_nonempty: int):
    """Make operation `first_nonempty` return a wrong answer."""
    def bad(answer):
        if wl.name == "cli":
            code, out = answer
            return code, out + "corrupted\n"
        if wl.name == "recognize":
            i = next(j for j, r in enumerate(answer) if r.applicable)
            return answer[:i] + [dataclasses.replace(answer[i], weight=answer[i].weight + 0.5)] + answer[i + 1:]
        return [dataclasses.replace(answer[0], log_weight=answer[0].log_weight + 0.5)] + answer[1:]

    def wrap(fn):
        return lambda i: bad(fn(i)) if i == first_nonempty else fn(i)

    wl.run = wrap(wl.run)
    wl.run_traceable = wrap(wl.run_traceable)


def first_nonempty(wl) -> int:
    for i in range(wl.n_ops):
        try:
            answer = wl.run_traceable(i)
        except Exception:
            continue
        if wl.name == "cli" and answer[1]:
            return i
        if wl.name == "recognize" and any(r.applicable for r in answer):
            return i
        if wl.name.startswith("explain") and answer:
            return i
    raise AssertionError(f"{wl.name}: no operation with a non-empty answer")


def measure(cls, params, trace: bool, out, bad_op: int | None = None) -> dict:
    """One run of a tiny workload in this process, optionally with
    operation `bad_op` returning a corrupted answer."""
    def fresh():
        wl = cls(1, params)
        if bad_op is not None:
            corrupted(wl, bad_op)
        return wl

    if trace:
        wl = fresh()
        try:
            return run.measure_traced(wl, out)
        finally:
            wl.cleanup()

    def spawn(start_block, min_blocks, seconds):
        wl = fresh()
        try:
            return run.run_chunk(wl, start_block, min_blocks, seconds)
        finally:
            wl.cleanup()

    n_chunks = 1 if cls.process_per_op else run.CHUNKS
    return run.measure_untraced(params.ops, params.block, n_chunks, 0, spawn, out)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("run.END_TO_END differs from BENCHMARK.json end_to_end")
    if [m["name"] for m in spec["per_layer"]] != list(run.PER_LAYER):
        problems.append("run.PER_LAYER differs from BENCHMARK.json per_layer")
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names a workload perfbench does not have")

    for name, params in TINY.items():
        cls = workloads.WORKLOADS[name]
        for trace, wanted, json_names in (
            (False, PRINTED_END_TO_END, [m["name"] for m in spec["end_to_end"]]),
            (True, PRINTED_PER_LAYER, [m["name"] for m in spec["per_layer"]]),
        ):
            buf = io.StringIO()
            result = measure(cls, params, trace, buf)
            got = printed(buf.getvalue())
            for metric, unit in wanted.items():
                if got.get(metric) != unit:
                    problems.append(f"{name} trace={int(trace)}: {metric} not printed in {unit}")
            if "answers_digest" not in buf.getvalue():
                problems.append(f"{name} trace={int(trace)}: no answers digest")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            if list(result["metrics"]) != json_names:
                problems.append(f"{name} trace={int(trace)}: JSON metrics {list(result['metrics'])}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: an uncorrupted run is incorrect")

            probe = cls(1, params)
            probe.prepare()
            probe.setup()
            bad_op = first_nonempty(probe)
            probe.cleanup()
            bad = measure(cls, params, trace, io.StringIO(), bad_op)
            if bad["correct"] or bad["failed"] <= result["failed"]:
                problems.append(
                    f"{name} trace={int(trace)}: corrupted answer not counted "
                    f"(failed {bad['failed']}, uncorrupted {result['failed']})"
                )
        print(f"{name}: checked", flush=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
