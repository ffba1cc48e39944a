"""End-to-end checks through the argparse entry point.

Most checks go through ``main(argv)`` so the tests cover exactly what a
shell user gets, including exit codes and stream separation.  The last
classes start ``python -m abducer`` as a process: its output must match
``main(argv)`` byte for byte, and it must load only the modules its
subcommand uses.
"""

import json
import os
import subprocess
import sys

import pytest

import abducer.solver
from abducer import cli
from abducer.cli import main
from abducer.kb import serialize_network

from conftest import SRC
from synth import two_disorder_network


@pytest.fixture()
def run(capsys):
    def inner(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return inner


@pytest.fixture()
def two_disorder_path(tmp_path):
    p = tmp_path / "pair.cnet"
    p.write_text(serialize_network(two_disorder_network()))
    return p


class TestValidate:
    def test_network_file(self, run, fig2_path):
        code, out, err = run("validate", fig2_path)
        assert code == 0
        assert out == "OK: 7 events, 4 causal, 4 isa\n"
        assert err == ""

    def test_recognition_file(self, run, fruits_path):
        code, out, _ = run("validate", fruits_path)
        assert code == 0
        assert out == "OK: 3 concepts, 2 isa, 4 specs\n"

    def test_missing_file(self, run, tmp_path):
        code, out, err = run("validate", tmp_path / "nope.cnet")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_bad_network(self, run, tmp_path):
        p = tmp_path / "cyclic.cnet"
        p.write_text("event a\nevent b\nevent c\nevent d\nisa a b\nisa b a\ncause c d p=0.5\n")
        code, _, err = run("validate", p)
        assert code == 2
        assert "isa cycle" in err

    def test_bad_recognition_kb(self, run, tmp_path):
        p = tmp_path / "bad.rkb"
        p.write_text("concept c count=5\nprop c p=v count=9\n")
        code, _, err = run("validate", p)
        assert code == 2
        assert "exceeds" in err


class TestExplainText:
    def test_rows(self, run, fig2_path):
        code, out, _ = run("explain", fig2_path, "--obs", "e,g", "--k", "2")
        assert code == 0
        assert out.splitlines() == [
            "rank=1 culprit=f weight=4.240527 probability=0.0144 causations=a->e,f->g",
            "rank=2 culprit=d weight=4.605170 probability=0.01 causations=b->e,d->g",
        ]

    def test_empty_scenario_prints_dash(self, run, fig2_path):
        code, out, _ = run("explain", fig2_path, "--obs", "c")
        assert code == 0
        assert out.splitlines()[0].endswith("causations=-")

    def test_no_explanation(self, run, tmp_path):
        p = tmp_path / "lone.cnet"
        p.write_text("event d prior=0.5 disorder\nevent s\nevent lone\ncause d s p=0.5\n")
        code, out, _ = run("explain", p, "--obs", "lone")
        assert code == 1
        assert out == "no explanation\n"

    def test_stats_line_only_when_asked(self, run, fig2_path):
        _, out, _ = run("explain", fig2_path, "--obs", "g")
        assert "stats:" not in out
        _, out, _ = run("explain", fig2_path, "--obs", "g", "--stats")
        line = out.splitlines()[-1]
        assert line.startswith("stats: wall_ms=")
        assert "dp_runs=" in line and "relaxations=" in line

    def test_unknown_observation(self, run, fig2_path):
        code, out, err = run("explain", fig2_path, "--obs", "zz")
        assert code == 2
        assert out == ""
        assert "unknown event" in err

    def test_bad_k(self, run, fig2_path):
        code, _, err = run("explain", fig2_path, "--obs", "g", "--k", "0")
        assert code == 2
        assert "positive" in err

    def test_too_many_observations(self, run, tmp_path, monkeypatch):
        # Refused before any DP starts: a DP here would span 2**21 masks.
        def no_dp(*args):
            raise AssertionError("a DP started")

        monkeypatch.setattr(abducer.solver, "_run_dp", no_dp)
        p = tmp_path / "star.cnet"
        p.write_text("event d prior=0.5 disorder\n" + "".join(
            f"event e{i}\ncause d e{i} p=0.5\n" for i in range(21)
        ))
        code, out, err = run("explain", p, "--obs", ",".join(f"e{i}" for i in range(21)))
        assert code == 2
        assert out == ""
        assert err == "error: 21 terminals exceed 20\n"

    def test_empty_obs(self, run, fig2_path):
        code, _, err = run("explain", fig2_path, "--obs", ",")
        assert code == 2
        assert "non-empty" in err


class TestQueryErrors:
    # Each engine checks a query in one fixed order: empty observations,
    # then k, then the first unknown event in sorted order, so neither the
    # engine nor the set's hash order picks the message.
    SCRIPT = (
        "import sys\n"
        "from abducer.cli import main\n"
        "for query in (['--obs', 'zz,yy,xx'], ['--obs', 'zz', '--k', '0']):\n"
        "    for engine in ([], ['--oracle']):\n"
        "        main(['explain', sys.argv[1], *query, *engine])\n"
    )

    @pytest.mark.parametrize("hash_seed", ["1", "2", "3", "4", "5", "6"])
    def test_same_error_under_every_hash_seed(self, fig2_path, hash_seed):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(fig2_path)],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr.decode().splitlines() == [
            "error: unknown event: xx",
            "error: unknown event: xx",
            "error: k must be positive",
            "error: k must be positive",
        ]


class TestExplainJson:
    def test_solver_and_oracle_agree_byte_for_byte(self, run, fig2_path):
        code1, solver_out, _ = run("explain", fig2_path, "--obs", "e,g", "--k", "3", "--json")
        code2, oracle_out, _ = run(
            "explain", fig2_path, "--obs", "e,g", "--k", "3", "--json", "--oracle"
        )
        assert code1 == code2 == 0
        s = json.loads(solver_out)
        o = json.loads(oracle_out)
        assert s["results"] == o["results"]
        assert s["query"]["engine"] == "solver"
        assert o["query"]["engine"] == "oracle"
        # and the result arrays render identically
        assert solver_out.split('"results"')[1] == oracle_out.split('"results"')[1]

    def test_payload_shape(self, run, fig2_path):
        _, out, _ = run("explain", fig2_path, "--obs", "g", "--k", "1", "--json")
        payload = json.loads(out)
        assert payload["query"] == {
            "observations": ["g"],
            "mode": "single",
            "k": 1,
            "engine": "solver",
        }
        row = payload["results"][0]
        assert row["rank"] == 1
        assert row["culprit"] == "f"
        assert row["causations"] == [["f", "g"]]
        assert "stats" not in payload

    def test_stats_key_gated(self, run, fig2_path):
        _, out, _ = run("explain", fig2_path, "--obs", "g", "--json", "--stats")
        payload = json.loads(out)
        assert set(payload["stats"]) == {"wall_ms", "dp_runs", "relaxations", "table_entries"}
        assert payload["stats"]["dp_runs"] >= 1

    def test_keys_are_sorted(self, run, fig2_path):
        _, out, _ = run("explain", fig2_path, "--obs", "g", "--json")
        payload = json.loads(out)
        assert list(payload) == sorted(payload)
        assert list(payload["query"]) == sorted(payload["query"])
        for row in payload["results"]:
            assert list(row) == sorted(row)


class TestMulti:
    def test_pair_of_culprits(self, run, two_disorder_path):
        code, out, _ = run(
            "explain", two_disorder_path, "--obs", "s1,s2", "--multi", "--k", "1"
        )
        assert code == 0
        assert "culprit=TOP" in out
        assert "probability=0.0081" in out

    def test_single_mode_cannot(self, run, two_disorder_path):
        code, out, _ = run("explain", two_disorder_path, "--obs", "s1,s2")
        assert code == 1
        assert out == "no explanation\n"

    def test_oracle_multi_agrees(self, run, two_disorder_path):
        _, solver_out, _ = run(
            "explain", two_disorder_path, "--obs", "s1,s2", "--multi", "--k", "2", "--json"
        )
        _, oracle_out, _ = run(
            "explain", two_disorder_path, "--obs", "s1,s2", "--multi", "--k", "2",
            "--json", "--oracle",
        )
        assert json.loads(solver_out)["results"] == json.loads(oracle_out)["results"]

    @pytest.mark.parametrize("decl", ["event TOP prior=0.9", "event TOP"])
    def test_declared_root_that_is_no_disorder_explains_nothing(self, run, tmp_path, decl):
        # Multi mode roots at a declared TOP only when it is a disorder;
        # both engines find nothing and exit 1.
        p = tmp_path / "top.cnet"
        p.write_text(
            f"{decl}\nevent d prior=0.5 disorder\nevent e\ncause d e p=0.5\ncause TOP d p=0.5\n"
        )
        for engine in ([], ["--oracle"]):
            assert run("explain", p, "--obs", "e", "--multi", *engine) == (1, "no explanation\n", "")


class TestRecognize:
    def test_text_rows(self, run, fruits_path):
        code, out, _ = run(
            "recognize", fruits_path, "--cset", "apple,grape",
            "--descr", "color=green,taste=sour",
        )
        assert code == 0
        assert out.splitlines() == [
            "rank=1 concept=grape weight=-2.079442 score=8",
            "rank=2 concept=apple weight=-0.405465 score=1.5",
        ]

    def test_inapplicable_row(self, run, fruits_path):
        code, out, _ = run(
            "recognize", fruits_path, "--cset", "apple,fruit",
            "--descr", "color=green,taste=sour",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("rank=1 concept=apple")
        assert lines[1].startswith("inapplicable concept=fruit reason=")

    def test_all_inapplicable_exits_one(self, run, fruits_path):
        code, out, _ = run(
            "recognize", fruits_path, "--cset", "fruit", "--descr", "color=green"
        )
        assert code == 1
        assert out.startswith("inapplicable")

    def test_open_cset(self, run, fruits_path):
        _, closed, _ = run(
            "recognize", fruits_path, "--cset", "apple,fruit,grape",
            "--descr", "taste=sour",
        )
        _, opened, _ = run(
            "recognize", fruits_path, "--open-cset", "--descr", "taste=sour"
        )
        assert opened == closed

    def test_cset_required(self, run, fruits_path):
        code, _, err = run("recognize", fruits_path, "--descr", "taste=sour")
        assert code == 2
        assert "--cset" in err

    def test_bad_descr_entry(self, run, fruits_path):
        code, _, err = run(
            "recognize", fruits_path, "--cset", "apple", "--descr", "colorgreen"
        )
        assert code == 2
        assert "property=value" in err

    def test_unknown_pair(self, run, fruits_path):
        code, _, err = run(
            "recognize", fruits_path, "--cset", "apple", "--descr", "taste=bitter"
        )
        assert code == 2
        assert "unknown property-value" in err

    def test_json_payload(self, run, fruits_path):
        code, out, _ = run(
            "recognize", fruits_path, "--open-cset",
            "--descr", "color=green,taste=sour", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["query"]["cset"] == ["apple", "fruit", "grape"]
        assert payload["query"]["descr"] == [["color", "green"], ["taste", "sour"]]
        rows = payload["results"]
        assert [r["concept"] for r in rows] == ["grape", "apple", "fruit"]
        assert rows[0]["rank"] == 1 and rows[0]["score"] == 8.0
        assert rows[1]["rank"] == 2 and rows[1]["score"] == 1.5
        assert not rows[2]["applicable"] and "rank" not in rows[2]
        assert "stats" not in payload

    def test_invalid_witness_is_an_internal_error(self, run, fruits_path, monkeypatch):
        from abducer import scenario

        monkeypatch.setattr(scenario, "is_valid_scenario", lambda net, s: scenario.ValidityResult(False))
        code, out, err = run("recognize", fruits_path, "--cset", "apple", "--descr", "color=green")
        assert (code, out) == (4, "")
        assert err.startswith("internal error: AssertionError: recognition witness")

    def test_stats_line_reads_no_dp(self, run, fruits_path):
        argv = ("recognize", fruits_path, "--cset", "apple,grape", "--descr", "color=green,taste=sour")
        _, plain, _ = run(*argv)
        code, out, _ = run(*argv, "--stats")
        assert code == 0
        *rows, line = out.splitlines()
        assert rows == plain.splitlines()
        assert line.startswith("stats: wall_ms=")
        assert line.endswith(" dp_runs=0 relaxations=0 table_entries=0")

    def test_stats_key_reads_no_dp(self, run, fruits_path):
        argv = ("recognize", fruits_path, "--open-cset", "--descr", "color=green", "--json")
        _, plain, _ = run(*argv)
        code, out, _ = run(*argv, "--stats")
        assert code == 0
        payload = json.loads(out)
        stats = payload.pop("stats")
        assert payload == json.loads(plain)
        assert set(stats) == {"wall_ms", "dp_runs", "relaxations", "table_entries"}
        assert (stats["dp_runs"], stats["relaxations"], stats["table_entries"]) == (0, 0, 0)


class TestExportDot:
    def test_stdout_render(self, run, fig2_path):
        code, out, _ = run("export-dot", fig2_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "digraph causal_network {"
        assert lines[-1] == "}"
        assert sum("doublecircle" in l for l in lines) == 3
        assert sum("style=dashed" in l for l in lines) == 4
        assert '  "b" -> "e" [label="0.4"];' in lines
        assert '  "d" -> "b" [style=dashed,label="isa"];' in lines

    def test_write_to_file(self, run, fig2_path, tmp_path):
        out_path = tmp_path / "net.dot"
        code, out, _ = run("export-dot", fig2_path, "--out", out_path)
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("digraph causal_network {")
        assert text.endswith("}\n")

    def test_unwritable_target(self, run, fig2_path, tmp_path):
        code, _, err = run("export-dot", fig2_path, "--out", tmp_path / "no" / "dir.dot")
        assert code == 3
        assert err.startswith("error:")


class TestNotUtf8:
    @pytest.mark.parametrize("argv", [
        ["validate"], ["explain", "--obs", "e"], ["recognize", "--cset", "c", "--descr", "p=v"],
        ["export-dot"],
    ])
    def test_bad_byte_is_bad_input(self, run, tmp_path, argv):
        # The byte lies past the first 8 KiB, so the line count is not
        # that of a partial read.
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"# pad\n" * 2000 + b"event caf\xe9\n")
        code, out, err = run(argv[0], p, *argv[1:])
        assert (code, out) == (2, "")
        assert err == "error: line 2001: byte 0xe9 is not UTF-8\n"


class TestInternalError:
    def test_unexpected_exception_exits_four(self, run, fig2_path, monkeypatch):
        # A bare ValueError is a bug too: every bad argument raises
        # InvalidArgumentError, an AbducerError.
        for kind in (RuntimeError, ValueError):
            def broken(args, kind=kind):
                raise kind("boom")

            monkeypatch.setattr(cli, "cmd_validate", broken)
            code, out, err = run("validate", fig2_path)
            assert code == 4
            assert out == ""
            assert err == f"internal error: {kind.__name__}: boom\n"


@pytest.mark.parametrize("kind", ["cause", "isa"])
class TestLongChain:
    @pytest.fixture()
    def chain_path(self, tmp_path, chain_texts, kind):
        p = tmp_path / f"{kind}_chain.cnet"
        p.write_text(chain_texts[kind])
        return p

    def test_validate(self, run, chain_path, kind):
        code, out, err = run("validate", chain_path)
        assert code == 0
        links = "9999 causal, 0 isa" if kind == "cause" else "0 causal, 9999 isa"
        assert out == f"OK: 10000 events, {links}\n"
        assert err == ""

    def test_export_dot(self, run, chain_path, kind):
        code, out, err = run("export-dot", chain_path)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 + 10_000 + 9_999 + 1
        assert lines[-1] == "}"
        assert err == ""


class TestFreshProcess:
    CALLS = [
        ("validate", "fig2"),
        ("validate", "fruits"),
        ("export-dot", "fig2"),
        ("explain", "fig2", "--obs", "e,g", "--k", "3", "--json"),
        ("explain", "fig2", "--obs", "e,g", "--k", "2", "--oracle", "--multi"),
        ("recognize", "fruits", "--cset", "apple,grape", "--descr", "color=green,taste=sour"),
    ]

    @pytest.mark.parametrize("call", CALLS, ids=" ".join)
    def test_matches_in_process(self, run, fresh_python, fig2_path, fruits_path, call):
        argv = [call[0], {"fig2": fig2_path, "fruits": fruits_path}[call[1]], *call[2:]]
        code, out, _ = run(*argv)
        proc = fresh_python("-m", "abducer", *map(str, argv))
        assert proc.returncode == code
        assert proc.stdout == out.encode()

    def test_help(self, fresh_python):
        proc = fresh_python("-m", "abducer", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"usage: abducer")


class TestImportGraph:
    """What a new interpreter compiles for each kind of call.  Timing-free:
    a module that is not in sys.modules was neither compiled nor run."""

    BASE = {"abducer", "abducer.cli", "abducer.errors", "abducer.kb"}
    MAIN = "from abducer.cli import main\nmain(sys.argv[1:])"

    @staticmethod
    def package(loaded: set[str]) -> set[str]:
        return {m for m in loaded if m == "abducer" or m.startswith("abducer.")}

    def test_import_package(self, modules_loaded_by):
        assert self.package(modules_loaded_by("import abducer")) == {"abducer"}

    def test_import_cli(self, modules_loaded_by):
        assert self.package(modules_loaded_by("import abducer.cli")) == self.BASE

    @pytest.mark.parametrize("command", ["validate", "export-dot"])
    def test_network_commands_skip_the_engine(self, modules_loaded_by, fig2_path, command):
        loaded = modules_loaded_by(self.MAIN, command, fig2_path)
        assert self.package(loaded) == self.BASE
        assert "json" not in loaded
        # The network records are named tuples, not dataclasses, which
        # would pull in inspect (and with it ast, dis and tokenize).
        assert not loaded & {"dataclasses", "inspect"}

    def test_explain_skips_recognition_and_oracle(self, modules_loaded_by, fig2_path):
        loaded = modules_loaded_by(self.MAIN, "explain", fig2_path, "--obs", "e,g")
        assert self.package(loaded) == self.BASE | {"abducer.solver", "abducer.scenario"}
        assert "json" not in loaded

    def test_oracle_skips_solver(self, modules_loaded_by, fig2_path):
        loaded = modules_loaded_by(self.MAIN, "explain", fig2_path, "--obs", "e,g", "--oracle")
        assert self.package(loaded) == self.BASE | {"abducer.oracle", "abducer.scenario"}

    def test_recognize_text_skips_json(self, modules_loaded_by, fruits_path):
        loaded = modules_loaded_by(
            self.MAIN, "recognize", fruits_path, "--cset", "apple", "--descr", "color=green"
        )
        assert "abducer.recognition" in loaded
        assert "abducer.oracle" not in loaded
        assert "json" not in loaded

    def test_recognize_skips_the_solver(self, modules_loaded_by, fruits_path):
        loaded = modules_loaded_by(
            self.MAIN, "recognize", fruits_path, "--cset", "apple", "--descr", "color=green"
        )
        assert self.package(loaded) == self.BASE | {"abducer.recognition", "abducer.scenario"}

    def test_validate_rkb_only_parses(self, modules_loaded_by, fruits_path):
        loaded = modules_loaded_by(self.MAIN, "validate", fruits_path)
        assert self.package(loaded) == self.BASE | {"abducer.recognition"}
