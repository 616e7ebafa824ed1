"""Command-line interface: behaviour and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fsmcheck.cli import main
from fsmcheck.formats import load_component, save_component
from fsmcheck.machine import Component

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COFFEE = FIXTURES / "coffee"
RELAY = FIXTURES / "relay"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is None:
        return code, ""
    return code, capsys.readouterr().out


def rejected_at_parsing(capsys, *argv) -> str:
    """Run an invocation argparse must refuse; return its stderr."""
    with pytest.raises(SystemExit) as exited:
        main([str(a) for a in argv])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


class TestValidate:
    def test_valid_fixtures_exit_zero(self, capsys):
        code, out = run(
            "validate", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm", capsys=capsys
        )
        assert code == 0
        assert "not input-enabled" in out

    def test_undeclared_state_exits_one_and_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.fsm"
        bad.write_text(
            "component c\nstates s0\ninputs a\noutputs x\n"
            "initial nowhere\ntrans s0 a|x s0\n"
        )
        code, out = run("validate", bad, capsys=capsys)
        assert code == 1
        assert "nowhere" in out

    def test_unreadable_path_exits_two(self):
        assert run("validate", "/no/such/file.fsm")[0] == 2

    def test_json_output(self, capsys):
        code, out = run("validate", "--json", COFFEE / "drink.fsm", capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert data[0]["component"] == "D"
        assert data[0]["ok"] is True


class TestCompose:
    def test_coffee_composition_written(self, tmp_path, capsys):
        out_path = tmp_path / "composed.fsm"
        code, out = run(
            "compose", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
            "-o", out_path, capsys=capsys,
        )
        assert code == 0
        composed = load_component(str(out_path))
        assert composed.inputs == {"coinC", "coinT", "abs"}
        assert "(m0,new)" in composed.states

    def test_unsynchronizable_pair_needs_relax(self, tmp_path):
        a = tmp_path / "a.fsm"
        b = tmp_path / "b.fsm"
        save_component(Component.build("A", "s0", [("s0", "a", "x", "s0")]), str(a))
        save_component(Component.build("B", "t0", [("t0", "b", "y", "t0")]), str(b))
        out = tmp_path / "out.fsm"
        assert run("compose", "(par A B)", a, b, "-o", out)[0] == 1
        assert run("compose", "--relax", "(par A B)", a, b, "-o", out)[0] == 0

    def test_dot_sidecar(self, tmp_path):
        out = tmp_path / "c.json"
        dot = tmp_path / "c.dot"
        code, _ = run(
            "compose", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
            "-o", out, "--dot", dot,
        )
        assert code == 0
        assert dot.read_text().startswith("digraph")
        assert json.loads(out.read_text())["name"]


class TestTraces:
    def test_lists_traces(self, capsys):
        code, out = run("traces", COFFEE / "drink.fsm", "-k", "1", capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert "<empty>" in lines[0]
        assert "makeC|preparing" in out

    def test_guard_exceeded_exits_two(self, tmp_path):
        path = tmp_path / "busy.fsm"
        save_component(
            Component.build(
                "busy", "s0",
                [("s0", "a", o, "s0") for o in ("x", "y", "z")],
            ),
            str(path),
        )
        assert run("traces", path, "-k", "12", "--guard", "40")[0] == 2

    def test_negative_depth_exits_two(self, capsys):
        err = rejected_at_parsing(capsys, "traces", "-k", "-1", COFFEE / "drink.fsm")
        assert "non-negative" in err

    def test_negative_guard_exits_two(self, capsys):
        err = rejected_at_parsing(
            capsys, "traces", "-k", "2", "--guard", "-1", COFFEE / "drink.fsm"
        )
        assert "guard must be non-negative" in err
        assert "exceeded" not in err


class TestCheck:
    def test_local_coffee_checks_pass(self):
        assert run("check", COFFEE / "iut_money.fsm", COFFEE / "spec_money.fsm")[0] == 0
        assert run("check", COFFEE / "drink.fsm", COFFEE / "drink.fsm")[0] == 0

    def test_global_coffee_check_fails_with_the_refund_witness(self, tmp_path, capsys):
        iut = tmp_path / "iut.fsm"
        spec = tmp_path / "spec.fsm"
        run("compose", "(par M D)", COFFEE / "iut_money.fsm", COFFEE / "drink.fsm", "-o", iut)
        run("compose", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm", "-o", spec)
        capsys.readouterr()
        code, out = run("check", "--json", iut, spec, capsys=capsys)
        assert code == 1
        verdict = json.loads(out)
        assert verdict["result"] == "fail"
        assert verdict["witness"] == [
            {"input": "coinC", "output": "preparing"},
            {"input": "abs", "output": "coffee"},
            {"input": "coinC", "output": "preparing"},
        ]
        assert verdict["input"] == "abs"
        assert verdict["offending_output"] == "refund"

    def test_signature_mismatch_exits_two(self):
        assert run("check", COFFEE / "iut_money.fsm", COFFEE / "drink.fsm")[0] == 2

    def test_bounded_below_witness_length_is_inconclusive(self, tmp_path):
        iut = tmp_path / "iut.fsm"
        spec = tmp_path / "spec.fsm"
        run("compose", "(par M D)", COFFEE / "iut_money.fsm", COFFEE / "drink.fsm", "-o", iut)
        run("compose", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm", "-o", spec)
        assert run("check", "--method", "bounded", "-k", "0", iut, spec)[0] == 3
        assert run("check", "--method", "bounded", "-k", "3", iut, spec)[0] == 1

    def test_negative_depth_exits_two(self, capsys):
        err = rejected_at_parsing(
            capsys, "check", "--method", "bounded", "-k", "-1",
            COFFEE / "drink.fsm", COFFEE / "drink.fsm",
        )
        assert "non-negative" in err

    def test_depth_without_bounded_method_exits_two(self, capsys):
        drink = COFFEE / "drink.fsm"
        for method in ((), ("--method", "exact")):
            assert run("check", *method, "-k", "3", drink, drink) == (2, "")
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--depth requires --method bounded" in captured.err


class TestProject:
    def test_revised_money_projection_is_the_spec_itself(self, tmp_path, capsys):
        out = tmp_path / "proj.fsm"
        code, _ = run(
            "project", "(par M D)",
            COFFEE / "spec_money_revised.fsm", COFFEE / "drink.fsm",
            "--target", "M", "-o", out, "--oracle-depth", "4",
            capsys=capsys,
        )
        assert code == 0
        proj = load_component(str(out))
        assert proj.inputs == {"coinC", "coinT", "error"}

    def test_single_leaf_identity(self, tmp_path):
        out = tmp_path / "proj.fsm"
        code, _ = run("project", "M", COFFEE / "spec_money.fsm", "--target", "M", "-o", out)
        assert code == 0
        assert load_component(str(out)) == load_component(str(COFFEE / "spec_money.fsm"))

    def test_unknown_target_exits_two(self, tmp_path):
        out = tmp_path / "proj.fsm"
        code, _ = run(
            "project", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
            "--target", "Z", "-o", out,
        )
        assert code == 2

    def test_negative_oracle_depth_exits_two(self, tmp_path, capsys):
        out = tmp_path / "proj.fsm"
        err = rejected_at_parsing(
            capsys, "project", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
            "--target", "M", "-o", out, "--oracle-depth", "-1",
        )
        assert "non-negative" in err
        assert not out.exists()


class TestCompositional:
    def test_coffee_by_parts_is_not_applicable(self, capsys):
        code, out = run(
            "compositional", "--theorem", "1",
            COFFEE / "iut_money.fsm", COFFEE / "spec_money.fsm",
            COFFEE / "drink.fsm", COFFEE / "drink.fsm",
            capsys=capsys,
        )
        assert code == 3
        assert "not-applicable" in out

    def test_coffee_in_context_fails_implicating_money(self, capsys):
        code, out = run(
            "compositional", "--theorem", "2",
            COFFEE / "iut_money.fsm", COFFEE / "spec_money_revised.fsm",
            COFFEE / "drink.fsm", COFFEE / "drink.fsm",
            capsys=capsys,
        )
        assert code == 1
        assert "error|refund" in out

    def test_identical_lossless_quadruple_passes(self):
        code, _ = run(
            "compositional", "--theorem", "2",
            COFFEE / "spec_money_revised.fsm", COFFEE / "spec_money_revised.fsm",
            COFFEE / "drink.fsm", COFFEE / "drink.fsm",
        )
        assert code == 0

    def test_structural_error_exits_two(self):
        code, _ = run(
            "compositional", "--theorem", "1",
            COFFEE / "iut_money.fsm", COFFEE / "drink.fsm",
            COFFEE / "drink.fsm", COFFEE / "drink.fsm",
        )
        assert code == 2


def test_byte_identical_json_between_runs(tmp_path, capsys):
    args = ("check", "--json", COFFEE / "iut_money.fsm", COFFEE / "spec_money.fsm")
    _, first = run(*args, capsys=capsys)
    _, second = run(*args, capsys=capsys)
    assert first == second


def test_relay_global_check_exit_and_witness(tmp_path, capsys):
    iut = tmp_path / "iut.fsm"
    spec = tmp_path / "spec.fsm"
    run("compose", "(par A B)", RELAY / "iut_left.fsm", RELAY / "right.fsm", "-o", iut)
    run("compose", "(par A B)", RELAY / "spec_left.fsm", RELAY / "right.fsm", "-o", spec)
    capsys.readouterr()
    code, out = run("check", "--json", iut, spec, capsys=capsys)
    assert code == 1
    verdict = json.loads(out)
    assert verdict["witness"] == [{"input": "i1", "output": "o3"}]
    assert verdict["input"] == "i2"
    assert verdict["offending_output"] == "o5"


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    iut = tmp_path / "iut.fsm"
    spec = tmp_path / "spec.fsm"
    run("compose", "(par M D)", COFFEE / "iut_money.fsm", COFFEE / "drink.fsm", "-o", iut)
    run("compose", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm", "-o", spec)
    written = tmp_path / "written.fsm"
    invocations = [
        ("check", "--json", iut, spec),
        ("check", "--method", "bounded", "-k", "4", "--json", iut, spec),
        ("compositional", "--theorem", "2", "--json",
         RELAY / "iut_left.fsm", RELAY / "spec_left.fsm", RELAY / "right.fsm", RELAY / "right.fsm"),
        ("project", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
         "--target", "M", "-o", written, "--oracle-depth", "4", "--json"),
        ("compose", "(par M D)", COFFEE / "iut_money.fsm", COFFEE / "drink.fsm", "-o", written),
    ]
    for argv in invocations:
        results = set()
        for seed in ("0", "1", "2"):
            written.unlink(missing_ok=True)
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-m", "fsmcheck.cli", *map(str, argv)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.stderr == ""
            file_text = written.read_text(encoding="utf-8") if written.exists() else None
            results.add((done.returncode, done.stdout, file_text))
        assert len(results) == 1, argv
