"""The four workloads: inputs, the operation, and the answer check.

Each workload is built from a seed.  ``setup`` is the program's own
set-up and is what ``setup_s`` times: turning the generated text into
abducer objects, or for the CLI, where every call parses its own file, a
fresh interpreter importing ``abducer.cli``.  ``run(i)`` is operation i, called through abducer's
module attributes so the traced run can wrap them; ``check(i, answer)``
returns None for a correct answer or the reason it is wrong, and
``canonical(i, answer)`` is the byte string the answers digest is made of.

An operation that raises, or a CLI call that ends in a traceback, is a
failed operation rather than a wrong answer.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from generate import causal_chain, component_network, random_dag_network, tree_taxonomy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WEIGHT_TOL = 1e-9

kb = importlib.import_module("abducer.kb")
solver = importlib.import_module("abducer.solver")
scenario = importlib.import_module("abducer.scenario")
oracle = importlib.import_module("abducer.oracle")
recognition = importlib.import_module("abducer.recognition")
cli = importlib.import_module("abducer.cli")


class Crashed(Exception):
    """A CLI call that died with an uncaught exception; `kind` is the
    exception's type name as the traceback reports it."""

    def __init__(self, last_line: str):
        super().__init__(last_line)
        self.kind = last_line.partition(":")[0]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _ranked_text(results) -> str:
    return ";".join(
        f"{r.rank}:{r.scenario.culprit}:"
        + ",".join(f"{x}>{y}" for x, y in r.scenario.sorted_causations)
        + f":{r.log_weight:.6f}"
        for r in results
    )


def _same_ranking(got, want) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} answers, oracle has {len(want)}"
    for g, w in zip(got, want):
        if g.rank != w.rank or g.scenario != w.scenario:
            return f"rank {w.rank}: got {g.scenario!r}, oracle {w.scenario!r}"
        if abs(g.log_weight - w.log_weight) > WEIGHT_TOL:
            return f"rank {w.rank}: weight {g.log_weight!r}, oracle {w.log_weight!r}"
    return None


def _explain_properties(net, obs, k: int, results) -> str | None:
    """Ranks 1..n with n <= k, each answer an explanation, weights equal to
    log_weight and non-decreasing."""
    if len(results) > k:
        return f"{len(results)} answers for k={k}"
    prev = -math.inf
    for j, r in enumerate(results, 1):
        if r.rank != j:
            return f"rank {r.rank} at position {j}"
        if not scenario.is_explanation(net, r.scenario, obs):
            return f"rank {j} is not an explanation: {r.scenario!r}"
        if abs(r.log_weight - scenario.log_weight(net, r.scenario)) > WEIGHT_TOL:
            return f"rank {j}: weight {r.log_weight!r} differs from log_weight"
        if r.log_weight < prev - WEIGHT_TOL:
            return f"rank {j}: weight decreases"
        prev = r.log_weight
    return None


class Workload:
    name = ""
    n_ops = 0  # the length of the op list, a whole number of blocks
    block = 0  # the fixed op count that block statistics are taken over
    # The program runs in a fresh child process for every operation.
    process_per_op = False

    def prepare(self) -> None:
        """Benchmark-side set-up that is not the program's: files, expectations."""

    def setup(self) -> None:
        """The program's set-up, timed as setup_s.  It runs several times in
        a run, so it first drops what the previous set-up built: peak memory
        then holds one set-up's objects, not two."""
        raise NotImplementedError

    def cleanup(self) -> None:
        pass

    def run_traceable(self, i: int):
        """Operation i in a form the in-process tracer can see."""
        return self.run(i)

    def oracle_ops(self) -> list[int]:
        """Ops whose answers are also compared with the oracle after the loop."""
        return []


# -- explain-random -----------------------------------------------------------


# (events, causal links, isa links) of each size class; the first class is
# the oracle class.
RANDOM_CLASSES = ((6, 11, 2), (7, 13, 3), (8, 14, 3))
RANDOM_KS = (1, 3, 10)
MULTI_EVERY = 4  # every fourth query uses multi=True
RANDOM_MAX_OBS = 3


@dataclass(frozen=True)
class RandomParams:
    ops: int = 3000
    block: int = 500
    oracle_checks: int = 300


@dataclass(frozen=True)
class _Query:
    obs: tuple[str, ...]
    k: int
    multi: bool


class ExplainRandom(Workload):
    """explain on many small random networks, one network per query."""

    name = "explain-random"
    PARAMS = RandomParams()

    def __init__(self, seed: int, params: RandomParams | None = None):
        params = params or self.PARAMS
        rng = _rng(self.name, seed)
        self.oracle_checks = params.oracle_checks
        self.specs = []
        self.queries = []
        n_cls, n_k = len(RANDOM_CLASSES), len(RANDOM_KS)
        for i in range(params.ops):
            # Class, k and observation count cycle so that every combination
            # has the same share of each pass; only the structure is random.
            spec = random_dag_network(rng, *RANDOM_CLASSES[i % n_cls])
            size = min(1 + (i // (n_cls * n_k)) % RANDOM_MAX_OBS, len(spec.effects))
            obs = tuple(sorted(rng.sample(spec.effects, size)))
            k = RANDOM_KS[(i // n_cls) % n_k]
            multi = i % MULTI_EVERY == MULTI_EVERY - 1
            self.specs.append(spec)
            self.queries.append(_Query(obs, k, multi))
        self.n_ops, self.block = params.ops, params.block
        self.nets: list = []

    def setup(self) -> None:
        self.nets = []
        self.nets = [kb.parse_network(s.text) for s in self.specs]

    def run(self, i: int):
        q = self.queries[i]
        return solver.explain(self.nets[i], q.obs, k=q.k, multi=q.multi)

    def canonical(self, i: int, answer) -> str:
        return _ranked_text(answer)

    def check(self, i: int, answer) -> str | None:
        q = self.queries[i]
        net = self.nets[i]
        work = kb.add_top(net) if q.multi else net
        return _explain_properties(work, q.obs, q.k, answer)

    def oracle_ops(self) -> list[int]:
        """The oracle-class ops compared with the oracle, in op order."""
        step = len(RANDOM_CLASSES)
        return list(range(0, self.n_ops, step))[: self.oracle_checks]

    def check_oracle(self, i: int, answer) -> str | None:
        q = self.queries[i]
        net = self.nets[i]
        work = kb.add_top(net) if q.multi else net
        want = oracle.best_explanations_bruteforce(
            work, q.obs, q.k, culprit=work.top if q.multi else None
        )
        return _same_ranking(answer, want)


# -- explain-local ------------------------------------------------------------


LOCAL_SHAPE = (6, 8, 2)  # events, causal, isa per component
LOCAL_KS = (1, 3)
LOCAL_MAX_OBS = 2


@dataclass(frozen=True)
class LocalParams:
    ops: int = 1200
    block: int = 150
    # Components per network; networks of different sizes spread the cost
    # of one DP run, so the latency distribution has no dominant step.
    networks: tuple[int, ...] = (30, 40, 50, 60, 70, 80)


@dataclass(frozen=True)
class _LocalQuery:
    doc: int
    part: int
    obs: tuple[str, ...]
    k: int


class ExplainLocal(Workload):
    """explain on large networks of disconnected components; each query
    observes effects inside a single component of one network."""

    name = "explain-local"
    PARAMS = LocalParams()

    def __init__(self, seed: int, params: LocalParams | None = None):
        params = params or self.PARAMS
        rng = _rng(self.name, seed)
        built = [component_network(rng, c, *LOCAL_SHAPE) for c in params.networks]
        self.wholes = [whole for whole, _ in built]
        self.parts = [parts for _, parts in built]
        self.queries = []
        for i in range(params.ops):
            doc = i % len(params.networks)
            c = rng.randrange(params.networks[doc])
            effects = self.parts[doc][c].effects
            size = min(rng.randint(1, LOCAL_MAX_OBS), len(effects))
            obs = tuple(sorted(rng.sample(effects, size)))
            k = LOCAL_KS[(i // len(params.networks)) % len(LOCAL_KS)]
            self.queries.append(_LocalQuery(doc, c, obs, k))
        self.n_ops, self.block = params.ops, params.block
        self.nets: list = []
        self._expected: dict = {}

    def setup(self) -> None:
        self.nets = []
        self.nets = [kb.parse_network(w.text) for w in self.wholes]

    def run(self, i: int):
        q = self.queries[i]
        return solver.explain(self.nets[q.doc], q.obs, k=q.k)

    def canonical(self, i: int, answer) -> str:
        return _ranked_text(answer)

    def check(self, i: int, answer) -> str | None:
        q = self.queries[i]
        key = (q.doc, q.part, q.obs, q.k)
        if key not in self._expected:
            part = kb.parse_network(self.parts[q.doc][q.part].text)
            self._expected[key] = oracle.best_explanations_bruteforce(part, q.obs, q.k)
        return _same_ranking(answer, self._expected[key])


# -- recognize ----------------------------------------------------------------


TAXONOMY_CONCEPTS = 30
TAXONOMY_PAIRS = 4
# Each pair is specified at the root and, with this probability, at any
# other concept.  At 0.4 a few taxonomies took seconds per query.
SPEC_SHARE = 0.2
CSET_SIZE = 8  # candidate concepts per query
DESCR_SIZES = (2, 3)  # fewest and most described pairs


@dataclass(frozen=True)
class RecognizeParams:
    ops: int = 600
    block: int = 150


@dataclass(frozen=True)
class _RecQuery:
    cset: tuple[str, ...]
    descr: tuple[tuple[str, str], ...]


class Recognize(Workload):
    """recognize on seeded tree taxonomies, one taxonomy per query."""

    name = "recognize"
    PARAMS = RecognizeParams()

    def __init__(self, seed: int, params: RecognizeParams | None = None):
        params = params or self.PARAMS
        rng = _rng(self.name, seed)
        self.taxonomies = [
            tree_taxonomy(rng, TAXONOMY_CONCEPTS, TAXONOMY_PAIRS, SPEC_SHARE)
            for _ in range(params.ops)
        ]
        self.queries = []
        for t in self.taxonomies:
            cset = tuple(sorted(rng.sample(t.concepts, CSET_SIZE)))
            descr = tuple(sorted(rng.sample(t.pairs, rng.randint(*DESCR_SIZES))))
            self.queries.append(_RecQuery(cset, descr))
        self.n_ops, self.block = params.ops, params.block
        self.kbs: list = []

    def setup(self) -> None:
        self.kbs = []
        self.kbs = [recognition.parse_recognition_kb(t.text) for t in self.taxonomies]

    def run(self, i: int):
        q = self.queries[i]
        query = recognition.RecognitionQuery.make(q.cset, q.descr)
        return recognition.recognize(self.kbs[i], query)

    def canonical(self, i: int, answer) -> str:
        return ";".join(
            f"{r.concept}:{r.applicable}:"
            + (f"{r.weight:.6f}" if r.applicable else str(r.reason))
            + f":{r.score}"
            for r in answer
        )

    def check(self, i: int, answer) -> str | None:
        q = self.queries[i]
        kbase = self.kbs[i]
        if sorted(r.concept for r in answer) != list(q.cset):
            return "results do not list each candidate once"
        ranked = [r for r in answer if r.applicable]
        if answer[: len(ranked)] != ranked:
            return "an inapplicable candidate is ranked"
        if ranked != sorted(ranked, key=lambda r: (r.weight, r.concept)):
            return "applicable candidates are not ordered by weight"
        for r in ranked:
            score = recognition.shastri_score(kbase, r.concept, q.descr)
            if r.score != score:
                return f"{r.concept}: score {r.score} differs from shastri_score {score}"
            if abs(r.weight + math.log(score)) > WEIGHT_TOL:
                return f"{r.concept}: weight {r.weight!r} differs from -ln(score)"
        return None


# -- cli ----------------------------------------------------------------------


CHAIN_LENGTH = 1500  # events of the deep causal chain


@dataclass(frozen=True)
class CliParams:
    ops: int = 100
    block: int = 100
    local_components: int = 80


@dataclass(frozen=True)
class _Call:
    argv: tuple[str, ...]
    doc: str
    chain: bool = False


def _dot_text(events, causal, isa) -> str:
    """DOT rendering as `abducer export-dot` writes it, from plain data.

    events: (id, is_disorder) sorted by id; causal: (cause, effect, p)
    sorted by (cause, effect); isa: (child, parent) sorted."""
    lines = ["digraph causal_network {", "  rankdir=LR;"]
    for e, disorder in events:
        lines.append(f'  "{e}" [shape=doublecircle];' if disorder else f'  "{e}";')
    lines += [f'  "{x}" -> "{y}" [label="{p:g}"];' for x, y, p in causal]
    lines += [f'  "{c}" -> "{p}" [style=dashed,label="isa"];' for c, p in isa]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _explain_text(results) -> str:
    lines = []
    for r in results:
        pairs = ",".join(f"{x}->{y}" for x, y in r.scenario.sorted_causations) or "-"
        lines.append(
            f"rank={r.rank} culprit={r.scenario.culprit} weight={r.log_weight:.6f} "
            f"probability={r.probability:.6g} causations={pairs}"
        )
    if not results:
        lines.append("no explanation")
    return "\n".join(lines) + "\n"


def _explain_json(obs, k, multi, engine, results) -> str:
    payload = {
        "query": {
            "observations": sorted(set(obs)),
            "mode": "multi" if multi else "single",
            "k": k,
            "engine": engine,
        },
        "results": [
            {
                "rank": r.rank,
                "culprit": r.scenario.culprit,
                "causations": [[x, y] for x, y in r.scenario.sorted_causations],
                "log_weight": r.log_weight,
                "probability": r.probability,
            }
            for r in results
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _recognize_text(rows) -> str:
    lines = []
    rank = 0
    for r in rows:
        if r.applicable:
            rank += 1
            lines.append(f"rank={rank} concept={r.concept} weight={r.weight:.6f} score={float(r.score):g}")
        else:
            lines.append(f"inapplicable concept={r.concept} reason={r.reason}")
    if not rows:
        lines.append("no candidates")
    return "\n".join(lines) + "\n"


def _recognize_json(cset, descr, rows) -> str:
    out = []
    rank = 0
    for r in rows:
        rec: dict = {"concept": r.concept, "applicable": r.applicable}
        if r.applicable:
            rank += 1
            rec.update(rank=rank, weight=r.weight, score=float(r.score))
        else:
            rec["reason"] = r.reason
        out.append(rec)
    payload = {
        "query": {"cset": sorted(set(cset)), "descr": [[p, v] for p, v in sorted(set(descr))]},
        "results": out,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class Cli(Workload):
    """Sequential `python -m abducer` calls over fixtures and generated files.

    Expected exit codes and stdout come from the library, or for the deep
    chain from the generator alone, never from the CLI; they are computed
    outside the timed loop.
    """

    name = "cli"
    process_per_op = True
    chain_every = 20  # one call in twenty is on the deep chain

    PARAMS = CliParams()

    def __init__(self, seed: int, params: CliParams | None = None):
        params = params or self.PARAMS
        rng = _rng(self.name, seed)
        self.work = OUT / f"work-{self.name}-{seed}-{os.getpid()}"
        self.docs: dict[str, Path] = {
            "fig2": ROOT / "fixtures" / "fig2.cnet",
            "fruits": ROOT / "fixtures" / "fruits.rkb",
        }
        for doc, ext in (("net_a", "cnet"), ("net_b", "cnet"), ("local", "cnet"), ("taxo", "rkb"), ("chain", "cnet")):
            self.docs[doc] = self.work / f"{doc}.{ext}"
        self.net_a = random_dag_network(rng, *RANDOM_CLASSES[1])
        self.net_b = random_dag_network(rng, *RANDOM_CLASSES[2])
        self.local, parts = component_network(rng, params.local_components, *LOCAL_SHAPE)
        self.taxo = tree_taxonomy(rng, TAXONOMY_CONCEPTS, TAXONOMY_PAIRS, SPEC_SHARE)
        self.chain = causal_chain(rng, CHAIN_LENGTH)
        self.texts = {
            "net_a": self.net_a.text,
            "net_b": self.net_b.text,
            "local": self.local.text,
            "taxo": self.taxo.text,
            "chain": self.chain.text,
        }

        def obs(spec, most):
            return ",".join(sorted(rng.sample(spec.effects, rng.randint(1, most))))

        self.calls: list[_Call] = []
        chain_cmds = ("validate", "export-dot")
        n_chain = 0
        while len(self.calls) < params.ops:
            part = parts[rng.randrange(len(parts))]
            cset = ",".join(sorted(rng.sample(self.taxo.concepts, CSET_SIZE)))
            descr = ",".join(f"{p}={v}" for p, v in sorted(rng.sample(self.taxo.pairs, rng.randint(*DESCR_SIZES))))
            menu = [
                _Call(("validate", "fig2"), "fig2"),
                _Call(("validate", "fruits"), "fruits"),
                _Call(("validate", "net_a"), "net_a"),
                _Call(("validate", "local"), "local"),
                _Call(("validate", "taxo"), "taxo"),
                _Call(("export-dot", "fig2"), "fig2"),
                _Call(("export-dot", "net_b"), "net_b"),
                _Call(("explain", "fig2", "--obs", "e,g", "--k", "2"), "fig2"),
                _Call(("explain", "fig2", "--obs", "e,g", "--k", "3", "--json"), "fig2"),
                _Call(("explain", "fig2", "--obs", "e,g", "--k", "2", "--oracle"), "fig2"),
                _Call(("explain", "fig2", "--obs", "e,g", "--k", "2", "--oracle", "--multi"), "fig2"),
                _Call(("explain", "net_a", "--obs", obs(self.net_a, 3), "--k", "3"), "net_a"),
                _Call(("explain", "net_b", "--obs", obs(self.net_b, 3), "--k", "3", "--multi"), "net_b"),
                _Call(("explain", "local", "--obs", obs(part, 2), "--k", "1"), "local"),
                _Call(("explain", "local", "--obs", obs(part, 2), "--k", "3", "--json"), "local"),
                _Call(("recognize", "fruits", "--cset", "apple,grape", "--descr", "color=green,taste=sour"), "fruits"),
                _Call(("recognize", "fruits", "--open-cset", "--descr", "color=green", "--json"), "fruits"),
                _Call(("recognize", "taxo", "--cset", cset, "--descr", descr), "taxo"),
                _Call(("recognize", "taxo", "--cset", cset, "--descr", descr, "--json"), "taxo"),
            ]
            assert len(menu) == self.chain_every - 1
            rng.shuffle(menu)
            menu.append(_Call((chain_cmds[n_chain % 2], "chain"), "chain", chain=True))
            n_chain += 1
            self.calls += menu
        del self.calls[params.ops:]
        self.n_ops, self.block = params.ops, params.block
        self.expected: dict[int, tuple[int, str]] = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _argv(self, call: _Call) -> list[str]:
        return [call.argv[0], str(self.docs[call.argv[1]]), *call.argv[2:]]

    def prepare(self) -> None:
        """Write the generated files, read the fixtures, and parse every
        document the expectations need, except the deep chain, which the
        library cannot parse today."""
        self.work.mkdir(parents=True, exist_ok=True)
        for doc, text in self.texts.items():
            self.docs[doc].write_text(text, encoding="utf-8")
        self.texts["fig2"] = self.docs["fig2"].read_text(encoding="utf-8")
        self.texts["fruits"] = self.docs["fruits"].read_text(encoding="utf-8")
        self.nets = {d: kb.parse_network(self.texts[d]) for d in ("fig2", "net_a", "net_b", "local")}
        self.kbs = {d: recognition.parse_recognition_kb(self.texts[d]) for d in ("fruits", "taxo")}

    def setup(self) -> None:
        """What every call pays before its own work: a fresh interpreter
        importing abducer.cli."""
        subprocess.run([sys.executable, "-c", "import abducer.cli"], cwd=ROOT, env=self.env, check=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _expect(self, call: _Call) -> tuple[int, str]:
        cmd, doc = call.argv[0], call.argv[1]
        opts = call.argv[2:]
        if call.chain:
            spec = self.chain
            if cmd == "validate":
                return 0, f"OK: {len(spec.events)} events, {len(spec.causal)} causal, 0 isa\n"
            events = [(e, i == 0) for i, e in enumerate(spec.events)]
            return 0, _dot_text(events, [(x, y, float(p)) for x, y, p in spec.causal], [])
        if cmd == "validate":
            if doc in self.kbs:
                k = self.kbs[doc]
                return 0, f"OK: {len(k.concepts)} concepts, {len(k.isa)} isa, {len(k.specs)} specs\n"
            n = self.nets[doc]
            return 0, f"OK: {len(n.events)} events, {len(n.causal)} causal, {len(n.isa)} isa\n"
        if cmd == "export-dot":
            n = self.nets[doc]
            return 0, _dot_text(
                [(e.id, e.is_disorder) for e in n.events],
                [(l.cause, l.effect, l.cond_prob) for l in n.causal],
                [(l.child, l.parent) for l in n.isa],
            )
        if cmd == "explain":
            net = self.nets[doc]
            obs = opts[opts.index("--obs") + 1].split(",")
            k = int(opts[opts.index("--k") + 1])
            multi = "--multi" in opts
            if "--oracle" in opts:
                work = kb.add_top(net) if multi else net
                results = oracle.best_explanations_bruteforce(
                    work, obs, k, culprit=work.top if multi else None
                )
            else:
                results = solver.explain(net, obs, k=k, multi=multi)
            engine = "oracle" if "--oracle" in opts else "solver"
            out = _explain_json(obs, k, multi, engine, results) if "--json" in opts else _explain_text(results)
            return (0 if results else 1), out
        # recognize
        kbase = self.kbs[doc]
        if "--open-cset" in opts:
            cset = [c.id for c in kbase.concepts]
        else:
            cset = opts[opts.index("--cset") + 1].split(",")
        descr = [tuple(t.split("=")) for t in opts[opts.index("--descr") + 1].split(",")]
        rows = recognition.recognize(kbase, recognition.RecognitionQuery.make(cset, descr))
        out = _recognize_json(cset, descr, rows) if "--json" in opts else _recognize_text(rows)
        return (0 if any(r.applicable for r in rows) else 1), out

    def run(self, i: int):
        proc = subprocess.run(
            [sys.executable, "-m", "abducer", *self._argv(self.calls[i])],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if "Traceback (most recent call last)" in proc.stderr:
            raise Crashed(proc.stderr.strip().splitlines()[-1])
        return proc.returncode, proc.stdout

    def run_traceable(self, i: int):
        """The same call made in-process through cli.main."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self._argv(self.calls[i]))
        return code, out.getvalue()

    def canonical(self, i: int, answer) -> str:
        code, out = answer
        return f"{code}:{out}"

    def check(self, i: int, answer) -> str | None:
        code, out = answer
        if i not in self.expected:
            self.expected[i] = self._expect(self.calls[i])
        want_code, want_out = self.expected[i]
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if out != want_out:
            return "stdout differs from the expectation"
        return None

    def import_ms(self, repeats: int = 7) -> float:
        """Median time for a fresh interpreter to import abducer.cli, minus
        the median time of a bare interpreter, alternating the two."""
        bare, loaded = [], []
        for _ in range(repeats):
            for argv, acc in (([sys.executable, "-c", "pass"], bare),
                              ([sys.executable, "-c", "import abducer.cli"], loaded)):
                t0 = time.perf_counter()
                subprocess.run(argv, cwd=ROOT, env=self.env, check=True)
                acc.append(time.perf_counter() - t0)
        return (statistics.median(loaded) - statistics.median(bare)) * 1e3


WORKLOADS = {w.name: w for w in (ExplainRandom, ExplainLocal, Recognize, Cli)}
