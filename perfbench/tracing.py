"""Outside-in tracing of abducer's layers.

The traced run replaces public functions at the module attributes their
callers look them up through, so spans and counters are recorded at each
layer boundary without any change to the package.  A span is
``[name, start_ns, end_ns, parent_index, op_id, extra]``; spans stay in
memory and are written once, when the benchmark ends.

Layers are abducer's modules.  A span is named after the module that
defines the function (``solver.participants`` is looked up in
``abducer.solver`` but defined in ``abducer.scenario``, so its span is
``scenario.participants``).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("kb", "solver", "scenario", "oracle", "recognition", "cli")

# (module, attribute): every place a caller resolves one of the traced
# functions at call time.  Attributes a later version of abducer no longer
# has are skipped.
TARGETS = (
    ("kb", "parse_network"),
    ("kb", "add_top"),
    ("solver", "explain"),
    ("solver", "add_top"),
    ("solver", "build_search_graph"),
    ("solver", "steiner_dp"),
    ("solver", "tree_to_scenario"),
    ("solver", "participants"),
    ("solver", "is_valid_scenario"),
    ("recognition", "parse_recognition_kb"),
    ("recognition", "recognize"),
    ("recognition", "build_recognition_graph"),
    ("recognition", "build_search_graph"),
    ("recognition", "shastri_score"),
    ("recognition", "best_valid_tree"),
    ("cli", "main"),
    ("cli", "parse_network"),
    ("cli", "parse_recognition_kb"),
    ("cli", "explain"),
    ("cli", "recognize"),
    ("cli", "best_explanations_bruteforce"),
)

# Functions that take a SolveStats; the traced run passes one when the
# caller did not, and records its counters on the span.
_STATS_TAKERS = {"solver.explain", "recognition.recognize"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: object = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        stats_cls = sig = None
        if name in _STATS_TAKERS:
            sig = inspect.signature(fn)
            if "stats" in sig.parameters:
                stats_cls = importlib.import_module("abducer.solver").SolveStats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = None
            if stats_cls is not None and sig.bind(*args, **kwargs).arguments.get("stats") is None:
                stats = kwargs["stats"] = stats_cls()
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if stats is not None:
                rec[5] = [
                    stats.dp_runs,
                    stats.relaxations,
                    stats.table_entries,
                    len(stats.touched_nodes),
                ]
            elif name == "scenario.is_valid_scenario":
                rec[5] = bool(result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr in TARGETS:
            mod = importlib.import_module(f"abducer.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None or getattr(fn, "__wrapped_by_tracer__", False):
                continue
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op", "extra"]) + "\n")
            for rec in self.spans:
                out.write(json.dumps(rec, separators=(",", ":")) + "\n")


def summarize(spans: list[list], ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of one traced pass of `ops` ops.

    Spans whose op id is "setup" are reported under a ``setup.`` prefix as
    totals, not per op.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]

    tot: dict[str, float] = {}
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    setup: dict[str, float] = {}
    counters = [0, 0, 0, 0]
    valid = 0
    for i, (name, start, end, _parent, op, extra) in enumerate(spans):
        dur = end - start
        own = dur - child_ns[i]
        if op == "setup":
            setup[name] = setup.get(name, 0.0) + dur
            layer = name.partition(".")[0]
            key = f"self.{layer}"
            setup[key] = setup.get(key, 0.0) + own
            continue
        tot[name] = tot.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + own
        if isinstance(extra, list):
            for j, v in enumerate(extra):
                counters[j] += v
        elif extra is True:
            valid += 1

    n = max(ops, 1)

    def ms(name: str) -> float:
        return tot.get(name, 0.0) / 1e6 / n

    def count(name: str) -> int:
        return calls.get(name, 0)

    popped = count("solver.tree_to_scenario")
    covered = count("scenario.participants")
    checked = count("scenario.is_valid_scenario")
    child = count("solver.steiner_dp")
    m = {
        "solver.child_solves": child / n,
        "solver.child_solve_ms": ms("solver.steiner_dp"),
        "solver.child_solve_us_each": tot.get("solver.steiner_dp", 0.0) / 1e3 / child if child else 0.0,
        "solver.graph_build_ms": ms("solver.build_search_graph"),
        "solver.enum_self_ms": (selfs.get("solver.explain", 0.0) + selfs.get("solver.best_valid_tree", 0.0)) / 1e6 / n,
        "solver.dp_runs": counters[0] / n,
        "solver.relaxations": counters[1] / n,
        "solver.table_entries": counters[2] / n,
        "solver.touched_nodes": counters[3] / n,
        "funnel.popped": popped / n,
        "funnel.duplicate": (popped - covered) / n,
        "funnel.not_covering": (covered - checked) / n,
        "funnel.invalid": (checked - valid) / n,
        "funnel.accepted": valid / n,
        "funnel.accept_ratio": valid / popped if popped else 0.0,
        "scenario.to_scenario_ms": ms("solver.tree_to_scenario"),
        "scenario.participants_ms": ms("scenario.participants"),
        "scenario.validity_ms": ms("scenario.is_valid_scenario"),
        "scenario.validity_calls": checked / n,
        "recognition.graph_ms": ms("recognition.build_recognition_graph"),
        "recognition.score_ms": ms("recognition.shastri_score"),
        "recognition.tree_ms": ms("solver.best_valid_tree"),
        "recognition.candidates": count("solver.best_valid_tree") / n,
        "recognition.parse_ms": ms("recognition.parse_recognition_kb"),
        "kb.parse_ms": ms("kb.parse_network"),
        "kb.add_top_ms": ms("kb.add_top"),
        "oracle.rank_ms": ms("oracle.best_explanations_bruteforce"),
        "cli.format_ms": selfs.get("cli.main", 0.0) / 1e6 / n,
    }
    for layer in LAYERS:
        own = sum(v for k, v in selfs.items() if k.partition(".")[0] == layer)
        m[f"self.{layer}_ms"] = own / 1e6 / n
    for name, ns in sorted(setup.items()):
        m[f"setup.{name}_ms"] = ns / 1e6
    return m
