"""Command-line interface: behaviour and exit codes."""

import contextlib
import dataclasses
import errno
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmcheck import InvalidComponentError, Leaf, Par, build_system_full, certify_in_context
from fsmcheck.cli import main
from fsmcheck.formats import (
    component_to_json,
    component_to_text,
    load_component,
    render_component,
    to_dot,
)
from fsmcheck.machine import Component, Transition
from fsmcheck.randgen import mutate, random_component

from demos import FIXTURES
from oracles import naive_cioco_bounded, naive_out_after, naive_states_after, naive_traces
from test_compose import colliding_pair

COFFEE = FIXTURES / "coffee"
RELAY = FIXTURES / "relay"
SRC = Path(__file__).resolve().parent.parent / "src"


def save_component(c: Component, path: str) -> None:
    Path(path).write_text(render_component(c, path), encoding="utf-8")


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

    def test_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.fsm"
        bad.write_bytes("component café\ninitial s0\n".encode("latin-1"))
        code = main(["validate", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    def test_labels_the_text_format_cannot_write_exit_two(self, tmp_path, capsys):
        """A JSON input ``a|b`` would pass ``check`` and then be written by
        ``compose`` as a text file that no longer parses."""
        data = {"name": "M", "initial": "s0", "transitions": [
            {"from": "s0", "input": "a|b", "output": "x", "to": "s0"}]}
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out.fsm"
        assert run("check", bad, bad)[0] == 2
        assert run("compose", "M", bad, "-o", out)[0] == 2
        err = capsys.readouterr().err
        assert err.count("input label 'a|b' contains the reserved separator '|'") == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"states": "qr"},
            {"name": 7},
            {"initial": 0},
            {"inputs": [1]},
            {"outputs": "xy"},
            {"states": None},
            {"transitions": {"from": "q", "input": "a", "output": "x", "to": "q"}},
            {"transitions": [{"from": "q", "input": "a", "output": "x", "to": 1}]},
            {"transitions": [["q", "a", "x", "q"]]},
        ],
    )
    def test_json_fields_of_the_wrong_type_exit_two(self, tmp_path, capsys, fields):
        data = {"name": "c", "states": ["q"], "inputs": ["a"], "outputs": ["x"],
                "initial": "q",
                "transitions": [{"from": "q", "input": "a", "output": "x", "to": "q"}]}
        good = tmp_path / "good.json"
        good.write_text(json.dumps(data))
        assert run("validate", good)[0] == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**data, **fields}))
        assert run("validate", bad)[0] == 2
        err = capsys.readouterr().err
        assert "malformed component object" in err and "Traceback" not in err

    def test_json_repeated_key_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "A", "name": "Z", "initial": "s0", "initial": "s1", '
                       '"transitions": []}')
        assert run("validate", bad) == (2, "")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated key 'name'" in captured.err and "Traceback" not in captured.err

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
        assert run("compose", "(par A B)", a, b, "-o", out)[0] == 2
        assert run("compose", "--relax", "(par A B)", a, b, "-o", out)[0] == 0

    def test_repeated_leaf_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.fsm"
        code, _ = run("compose", "(par M M)", COFFEE / "iut_money.fsm", "-o", out)
        assert code == 2
        assert "'M' appears twice" in capsys.readouterr().err
        assert not out.exists()

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

    def test_existing_targets_are_written_into(self, tmp_path):
        """A symlink is written through, a FIFO is written to, and a file
        keeps its mode; an existing ``-o`` file is left as it was when
        ``--dot`` cannot be written."""
        spec, drink = COFFEE / "spec_money.fsm", COFFEE / "drink.fsm"
        composed = tmp_path / "composed.fsm"
        composed.write_text("old\n")
        composed.chmod(0o640)
        link = tmp_path / "link.fsm"
        link.symlink_to(composed)
        plain = tmp_path / "plain"
        plain.write_text("")
        unwritable = plain / "g.dot"
        assert run("compose", "(par M D)", spec, drink, "-o", link, "--dot", unwritable)[0] == 2
        assert composed.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["composed.fsm", "link.fsm", "plain"]

        fifo = tmp_path / "g.dot"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code = run("compose", "(par M D)", spec, drink, "-o", link, "--dot", fifo)[0]
        reader.join(timeout=10)
        assert code == 0
        assert link.is_symlink() and (composed.stat().st_mode & 0o777) == 0o640
        component = load_component(str(composed))
        assert composed.read_text() == render_component(component, str(composed))
        assert received == [to_dot(component)]

    @pytest.mark.parametrize("command", ["compose", "project"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_one_file_named_by_out_and_dot_exits_two(self, command, existing, tmp_path, capsys):
        """``--dot`` naming ``-o``'s file, by the same path or through a
        symlink, is a usage error: an existing target is left as it was,
        and a file the call created is removed."""
        target = tmp_path / "composed.fsm"
        link = tmp_path / "link.dot"
        link.symlink_to(target)
        if existing:
            target.write_text("old\n")
        before = sorted(os.listdir(tmp_path))
        argv = [command, "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm"]
        if command == "project":
            argv += ["--target", "M"]
        for out, dot in ((target, target), (target, link), (link, target)):
            assert run(*argv, "-o", out, "--dot", dot) == (2, "")
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "name the same file" in captured.err
            assert captured.err.count("\n") == 1
            assert sorted(os.listdir(tmp_path)) == before
            assert not existing or target.read_text() == "old\n"


    def test_file_created_through_a_dangling_symlink_is_removed(self, tmp_path):
        link = tmp_path / "link.fsm"
        link.symlink_to(tmp_path / "target.fsm")
        plain = tmp_path / "plain"
        plain.write_text("")
        argv = ["compose", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm"]
        assert run(*argv, "-o", link, "--dot", plain / "g.dot")[0] == 2
        assert sorted(os.listdir(tmp_path)) == ["link.fsm", "plain"]


class TestCannotCompose:
    """A pair that cannot synchronize without ``--relax`` is a structural
    error (exit 2), not a failed check."""

    @pytest.fixture
    def pair(self, tmp_path):
        a, b = tmp_path / "a.fsm", tmp_path / "b.fsm"
        save_component(Component.build("A", "s0", [("s0", "a", "x", "s0")]), str(a))
        save_component(Component.build("B", "t0", [("t0", "b", "y", "t0")]), str(b))
        return a, b

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    @pytest.mark.parametrize("command", ["compose", "project", "compositional"])
    def test_exits_two_writing_nothing(self, pair, command, json_flag, tmp_path, capsys):
        a, b = pair
        out = tmp_path / "out.fsm"
        argv = {
            "compose": ["compose", "(par A B)", a, b, "-o", out],
            "project": ["project", "(par A B)", a, b, "--target", "A", "-o", out],
            "compositional": ["compositional", "--theorem", "2", a, a, b, b],
        }[command]
        assert run(*argv, *json_flag) == (2, "")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: components 'A' and 'B' cannot synchronize")
        assert not out.exists()


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

    def test_seed_is_not_an_option(self, capsys):
        err = rejected_at_parsing(capsys, "traces", "-k", "1", "--seed", "1", COFFEE / "drink.fsm")
        assert "unrecognized arguments: --seed" in err


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

    def test_bounded_check_counts_traces_without_listing_them(self, tmp_path):
        # the specification has 2**d traces of length d; the implementation
        # answers a|z only after 40 steps of one output, so the oracle must
        # count 2**41 - 1 traces, far too many to visit one by one
        spec = Component.build("S", "s", [("s", "a", "x", "s"), ("s", "a", "y", "s")],
                               outputs=["x", "y", "z"])
        spec_path = tmp_path / "spec.fsm"
        save_component(spec, str(spec_path))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def bounded(iut_path, k):
            done = subprocess.run(
                [sys.executable, "-m", "fsmcheck.cli", "check", "--method", "bounded",
                 "-k", str(k), "--guard", str(2**42), "--json", str(iut_path), str(spec_path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.stderr == ""
            return done.returncode, json.loads(done.stdout)

        for kept, other, explored in (("y", "x", 2**41 - 1), ("x", "y", 2**40)):
            chain = [(f"p{d}", "a", kept, f"p{d + 1}") for d in range(40)]
            chain += [(f"p{d}", "a", other, "rest") for d in range(40)]
            iut = Component.build("I", "p0", chain + [("p40", "a", "z", "p40"),
                                                      ("rest", "a", "x", "rest")],
                                  outputs=["x", "y", "z"])
            iut_path = tmp_path / f"iut_{kept}.fsm"
            save_component(iut, str(iut_path))
            code, verdict = bounded(iut_path, 40)
            assert code == 1
            assert verdict["stats"] == {"explored_pairs": explored, "max_depth": 40}
            assert verdict["witness"] == [{"input": "a", "output": kept}] * 40
            assert (verdict["input"], verdict["offending_output"]) == ("a", "z")
            code, verdict = bounded(iut_path, 39)
            assert (code, verdict["result"]) == (3, "inconclusive")
            assert verdict["stats"] == {"explored_pairs": 2**40 - 1, "max_depth": 39}

    def test_bounded_check_counts_a_billion_lengths_without_walking_them(self, tmp_path):
        # two alternating states: the guard's bound from two distinct steps
        # passes any guard, but one trace has each length, and no pair of
        # state sets is new after the second length
        spec = Component.build("S", "s0", [("s0", "a", "x", "s1"), ("s1", "a", "y", "s0")])
        spec_path = tmp_path / "spec.fsm"
        save_component(spec, str(spec_path))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def bounded(guard):
            return subprocess.run(
                [sys.executable, "-m", "fsmcheck.cli", "check", "--method", "bounded",
                 "-k", "1000000000", "--guard", str(guard), "--json", str(spec_path),
                 str(spec_path)],
                env=env, capture_output=True, text=True, timeout=60,
            )

        done = bounded(2_000_000_000)
        assert (done.returncode, done.stderr) == (3, "")
        verdict = json.loads(done.stdout)
        assert verdict["result"] == "inconclusive"
        assert verdict["stats"] == {"explored_pairs": 10**9 + 1, "max_depth": 10**9}
        done = bounded(10**9)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: enumeration exceeded the cardinality guard of 1000000000: "
                               "traces of 'S' up to depth 1000000000\n")

    def test_negative_depth_exits_two(self, capsys):
        err = rejected_at_parsing(
            capsys, "check", "--method", "bounded", "-k", "-1",
            COFFEE / "drink.fsm", COFFEE / "drink.fsm",
        )
        assert "non-negative" in err

    @pytest.mark.parametrize("option, argument", [("-k", "-k/--depth"), ("--guard", "--guard")])
    def test_non_integer_depth_or_guard_exits_two(self, option, argument, capsys):
        drink = COFFEE / "drink.fsm"
        depth = () if option == "-k" else ("-k", "2")
        err = rejected_at_parsing(capsys, "check", "--method", "bounded", *depth,
                                  option, "x", drink, drink)
        assert f"error: argument {argument}: invalid int value: 'x'" in err

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
            "--target", "M", "-o", out,
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

    @pytest.mark.parametrize("expr, files, leaves", [
        ("M", ["spec_money.fsm"], "['M']"),
        ("(par M D)", ["spec_money.fsm", "drink.fsm"], "['M', 'D']"),
    ])
    def test_unknown_target_names_the_leaves(self, tmp_path, capsys, expr, files, leaves):
        # a one-leaf expression is looked up as any other
        out = tmp_path / "proj.fsm"
        code, _ = run("project", expr, *(COFFEE / f for f in files), "--target", "B", "-o", out)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: 'B' is not a leaf of the expression (leaves: {leaves})\n")
        assert not out.exists()

    def test_repeated_leaf_exits_two(self, tmp_path, capsys):
        out = tmp_path / "proj.fsm"
        code, _ = run(
            "project", "(par (par M D) M)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
            "--target", "M", "-o", out,
        )
        assert code == 2
        assert "'M' appears twice" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_depth_is_not_an_option(self, tmp_path, capsys):
        out = tmp_path / "proj.fsm"
        err = rejected_at_parsing(
            capsys, "project", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
            "--target", "M", "-o", out, "--oracle-depth", "4",
        )
        assert "unrecognized arguments: --oracle-depth 4" in err
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

    def test_relax_by_parts_exits_two(self, capsys):
        # by parts composes nothing, so there is nothing to relax
        quadruple = (
            COFFEE / "iut_money.fsm", COFFEE / "spec_money.fsm",
            COFFEE / "drink.fsm", COFFEE / "drink.fsm",
        )
        assert run("compositional", "--theorem", "1", "--relax", *quadruple) == (2, "")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--relax requires --theorem 2" in captured.err
        assert run("compositional", "--theorem", "2", "--relax", *quadruple)[0] == 1


#: One component A over the alphabets of fixtures/relay/spec_left.fsm,
#: broken five ways: each body follows ``INVALID_HEADER``. ``i2`` and
#: ``o3`` are declared by relay/right.fsm (component B), so in a
#: composition with B only A's own alphabets rule them out.
INVALID_HEADER = "component A\nstates a0 a1\ninputs i1 x\noutputs m o5\n"
INVALID_COMPONENTS = {
    "undeclared source": (
        "initial a0\ntrans a0 i1|m a1\ntrans a9 i1|m a0\n",
        "transition a9 -i1|m-> a0 uses undeclared state 'a9'",
    ),
    "undeclared state": (
        "initial a0\ntrans a0 i1|m a9\n",
        "transition a0 -i1|m-> a9 uses undeclared state 'a9'",
    ),
    "output of another leaf": (
        "initial a0\ntrans a0 i1|o3 a1\n",
        "transition a0 -i1|o3-> a1 uses output 'o3' not in its output alphabet",
    ),
    "label of another leaf": (
        "initial a0\ntrans a0 i1|m a1\ntrans a1 i2|o5 a0\n",
        "transition a1 -i2|o5-> a0 uses input 'i2' not in its input alphabet",
    ),
    "undeclared initial": (
        "initial a7\ntrans a0 i1|m a1\n",
        "initial state 'a7' is not declared",
    ),
}


class TestInvalidComponent:
    @pytest.fixture(params=sorted(INVALID_COMPONENTS))
    def invalid(self, request, tmp_path):
        body, message = INVALID_COMPONENTS[request.param]
        path = tmp_path / "bad.fsm"
        path.write_text(INVALID_HEADER + body)
        return path, f"error: component 'A': {message}"

    @pytest.mark.parametrize(
        "command",
        ["check", "bounded", "compose", "project", "compositional", "compositional-spec"],
    )
    def test_exits_two_naming_the_component(self, invalid, command, tmp_path, capsys):
        bad, message = invalid
        out = tmp_path / "out.fsm"
        argv = {
            "check": ["check", bad, bad],
            "bounded": ["check", "--method", "bounded", "-k", "2", bad, bad],
            "compose": ["compose", "--relax", "(par A B)", bad, RELAY / "right.fsm", "-o", out],
            "project": ["project", "--relax", "(par A B)", bad, RELAY / "right.fsm",
                        "--target", "B", "-o", out],
            "compositional": ["compositional", "--theorem", "2",
                              bad, bad, RELAY / "right.fsm", RELAY / "right.fsm"],
            # a valid implementation: only the specification's leaf is invalid
            "compositional-spec": ["compositional", "--theorem", "2", RELAY / "spec_left.fsm",
                                   bad, RELAY / "right.fsm", RELAY / "right.fsm"],
        }[command]
        assert main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
        assert not out.exists()

    def test_the_library_raises_the_same_message(self, invalid):
        bad, message = invalid
        right, good = load_component(RELAY / "right.fsm"), load_component(RELAY / "spec_left.fsm")
        parsed = load_component(bad)
        eager = dataclasses.replace(parsed, transitions=parsed.transitions)
        for c in (parsed, eager):
            for attempt in (
                lambda: build_system_full(Par(Leaf("A", c), Leaf("B", right)), relax=True),
                lambda: build_system_full(Par(Leaf("B", right), Leaf("A", c)), relax=True),
                lambda: certify_in_context(good, c, right, right),
                lambda: certify_in_context(right, right, good, c, relax=True),
            ):
                with pytest.raises(InvalidComponentError) as raised:
                    attempt()
                assert f"error: {raised.value}" == message

    def test_validate_and_traces_still_read_it(self, invalid, capsys):
        """``validate`` reports it; ``traces`` rejects it as ``check`` does."""
        bad, message = invalid
        assert run("validate", bad)[0] == 1
        assert "INVALID" in capsys.readouterr().out
        assert run("traces", "-k", "2", bad)[0] == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("body", [
        pytest.param("initial s0\ntrans s0 b|x s0\ntrans s0 a|y s1\n", id="state and labels"),
        pytest.param("initial s0\ntrans s0 b|x s0\n", id="input"),
        pytest.param("initial s0\ntrans s0 a|y s0\n", id="output"),
        pytest.param("initial s9\ntrans s0 a|x s0\n", id="initial"),
    ])
    def test_traces_prints_what_check_prints(self, body, tmp_path, capsys):
        """A component that uses a state, input or output it does not
        declare, or starts in an undeclared state: ``traces`` stops with
        exactly the error ``check`` prints for the same file."""
        bad = tmp_path / "bad.fsm"
        bad.write_text("component M\nstates s0\ninputs a\noutputs x\n" + body)
        assert run("check", bad, bad)[0] == 2
        expected = capsys.readouterr()
        assert run("traces", "-k", "2", bad) == (2, "")
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected.err)
        assert expected.err.startswith("error: component 'M': ")


class TestUnwritableOutput:
    @pytest.mark.parametrize("option", ["-o", "--dot"])
    @pytest.mark.parametrize("command", ["compose", "project"])
    def test_missing_directory_exits_two(self, command, option, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "out.fsm"
        written = tmp_path / "out.fsm"
        out, dot = (missing, written) if option == "-o" else (written, missing)
        argv = [command, "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
                "-o", out, "--dot", dot]
        if command == "project":
            argv += ["--target", "M"]
        assert main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {missing}: No such file or directory\n"
        assert captured.out == ""

    @staticmethod
    def cli_process(*argv, **kwargs):
        """``fsmcheck`` with ``argv`` in a subprocess, the package from ``src``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.Popen([sys.executable, "-m", "fsmcheck.cli", *map(str, argv)],
                                env=env, stderr=subprocess.PIPE, **kwargs)

    def test_closed_standard_output_exits_two(self, tmp_path, capsys):
        # each step takes over 100 bytes, so the traces up to length 10
        # fill far more than a pipe holds and the writing fails midway
        a, x, y = "a" * 50, "x" * 50, "y" * 50
        path = tmp_path / "long.fsm"
        save_component(Component.build("L", "s", [("s", a, x, "s"), ("s", a, y, "s")]), str(path))
        code, out = run("traces", "-k", "10", path, capsys=capsys)
        assert code == 0 and len(out) > 2**20
        with self.cli_process("traces", "-k", "10", path, stdout=subprocess.PIPE) as proc:
            proc.stdout.read(1)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.decode() == f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["validate", COFFEE / "drink.fsm"],
        ["traces", "-k", "2", COFFEE / "drink.fsm"],
        ["check", "--method", "bounded", "-k", "3", "--json", COFFEE / "drink.fsm",
         COFFEE / "drink.fsm"],
    ], ids=["validate", "traces", "check"])
    def test_full_device_exits_two(self, argv):
        with open("/dev/full", "w") as full, self.cli_process(*argv, stdout=full) as proc:
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.decode() == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


class TestGuard:
    """``--guard`` is accepted only where a bounded enumeration reads it."""

    def test_commands_without_an_enumeration_refuse_it(self, tmp_path, capsys):
        out = tmp_path / "out.fsm"
        drink, money = COFFEE / "drink.fsm", COFFEE / "spec_money.fsm"
        for argv in (
            ("validate", drink),
            ("compose", "(par M D)", money, drink, "-o", out),
            ("compositional", "--theorem", "2", money, money, drink, drink),
        ):
            err = rejected_at_parsing(capsys, *argv, "--guard", "5")
            assert "unrecognized arguments: --guard 5" in err
        assert not out.exists()

    def test_exact_check_exits_two(self, capsys):
        right = RELAY / "right.fsm"
        for method in ((), ("--method", "exact")):
            assert run("check", *method, "--guard", "0", right, right) == (2, "")
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--guard requires --method bounded" in captured.err

    def test_project_without_oracle_depth_exits_two(self, tmp_path, capsys):
        # project has no bounded oracle any more, so there is nothing for --guard to cap
        out = tmp_path / "proj.fsm"
        err = rejected_at_parsing(
            capsys, "project", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
            "--target", "M", "-o", out, "--guard", "5",
        )
        assert "unrecognized arguments: --guard 5" in err
        assert not out.exists()

    def test_bounded_enumerations_read_it(self, tmp_path, capsys):
        drink = COFFEE / "drink.fsm"
        # a bounded check never reports a pass: inconclusive when nothing fails
        assert run("check", "--method", "bounded", "-k", "3", "--guard", "100", drink, drink)[0] == 3
        assert run("check", "--method", "bounded", "-k", "3", "--guard", "1", drink, drink)[0] == 2
        assert run("traces", "-k", "3", "--guard", "1000", drink)[0] == 0
        assert run("traces", "-k", "3", "--guard", "1", drink)[0] == 2
        out = tmp_path / "proj.fsm"
        project = (
            "project", "(par M D)", COFFEE / "spec_money_revised.fsm", drink,
            "--target", "M", "-o", out,
        )
        assert run(*project)[0] == 0


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


def pair_with_two_violating_pairs_in_one_level() -> tuple[Component, Component]:
    """A seeded mutant and its specification whose failing level holds
    two traces that reach different (specification states,
    implementation states) pairs, each of which violates."""
    rng = random.Random(5)
    for _ in range(100):
        spec = random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 4))
        iut = mutate(rng, spec, name="I")
        expected, _ = naive_cioco_bounded(iut, spec, 4)
        if expected is None:
            continue
        length = len(expected[0])
        violating = set()
        for tr in naive_traces(spec, length):
            for i in spec.inputs:
                allowed = naive_out_after(spec, tr, i)
                if len(tr) == length and allowed and naive_out_after(iut, tr, i) - allowed:
                    violating.add((naive_states_after(spec, tr), naive_states_after(iut, tr)))
        if len(violating) >= 2:
            return iut, spec
    raise AssertionError("no such pair among the seeded mutants")


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    iut = tmp_path / "iut.fsm"
    spec = tmp_path / "spec.fsm"
    run("compose", "(par M D)", COFFEE / "iut_money.fsm", COFFEE / "drink.fsm", "-o", iut)
    run("compose", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm", "-o", spec)
    mutant, original = tmp_path / "mutant.fsm", tmp_path / "original.fsm"
    for c, path in zip(pair_with_two_violating_pairs_in_one_level(), (mutant, original)):
        save_component(c, str(path))
    # composed states whose pair names render alike, told apart by "~"
    colliding = []
    for c in (*colliding_pair(), Component.build("C", "c0", [("c0", "u", "v", "c0")])):
        colliding.append(tmp_path / f"{c.name}.fsm")
        save_component(c, str(colliding[-1]))
    written = tmp_path / "written.fsm"
    nested = (COFFEE / "spec_money.fsm", COFFEE / "drink.fsm", RELAY / "right.fsm")
    invocations = [
        ("check", "--json", iut, spec),
        ("check", "--method", "bounded", "-k", "4", "--json", iut, spec),
        ("check", "--method", "bounded", "-k", "4", "--json", mutant, original),
        ("compositional", "--theorem", "2", "--json",
         RELAY / "iut_left.fsm", RELAY / "spec_left.fsm", RELAY / "right.fsm", RELAY / "right.fsm"),
        ("project", "(par M D)", COFFEE / "spec_money.fsm", COFFEE / "drink.fsm",
         "--target", "M", "-o", written, "--json"),
        ("compose", "(par M D)", COFFEE / "iut_money.fsm", COFFEE / "drink.fsm", "-o", written),
        # a nested node is composed again in its own discovery order
        ("compose", "(par B (par M D))", *nested, "--relax", "-o", written),
        ("project", "(par B (par M D))", *nested, "--relax", "--target", "D", "-o", written,
         "--json"),
        ("compose", "(par A B)", *colliding, "--relax", "--json", "-o", written),
        ("compose", "(par C (par A B))", *colliding, "--relax", "--json", "-o", written),
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


def test_repeated_in_process_calls_match_single_calls(tmp_path, capsys):
    # main builds its parser once per process; a call must not depend on
    # the calls made before it, a usage error among them
    invocations = [
        ("check", "--json", COFFEE / "iut_money.fsm", COFFEE / "spec_money.fsm"),
        ("check", "-k", "-1", COFFEE / "drink.fsm", COFFEE / "drink.fsm"),
        ("compositional", "--theorem", "2", "--json",
         RELAY / "iut_left.fsm", RELAY / "spec_left.fsm", RELAY / "right.fsm", RELAY / "right.fsm"),
    ]
    in_turn = []
    for argv in invocations:
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exited:
            code = exited.code
        captured = capsys.readouterr()
        in_turn.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_turn] == [0, 2, 1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for argv, seen in zip(invocations, in_turn):
        alone = subprocess.run(
            [sys.executable, "-m", "fsmcheck.cli", *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (alone.returncode, alone.stdout, alone.stderr) == seen, argv


#: Labels the generated machines draw their alphabets from, so that a
#: pair may synchronize in both directions, in one or in none.
_LABELS = ("a", "b", "c", "d")


@st.composite
def _machine(draw, name: str, alphabets=None) -> Component:
    """A machine of 1-4 states over alphabets from ``_LABELS``, or over
    the given ``(inputs, outputs)``."""
    if alphabets is None:
        inputs = sorted(draw(st.sets(st.sampled_from(_LABELS), min_size=1, max_size=2)))
        rest = [x for x in _LABELS if x not in inputs]
        outputs = sorted(draw(st.sets(st.sampled_from(rest), min_size=1, max_size=2)))
    else:
        inputs, outputs = alphabets
    states = [f"{name.lower()}{k}" for k in range(draw(st.integers(1, 4)))]
    transitions = draw(st.lists(
        st.tuples(*map(st.sampled_from, (states, inputs, outputs, states))), max_size=6,
    ))
    return Component.build(name, states[0], transitions, inputs, outputs, states)


@st.composite
def _machines(draw) -> list[Component]:
    """Machines A and B, and C over A's alphabets, so that C may stand
    for A in a check. B reads A's outputs and writes A's inputs, so that
    the pair synchronizes over disjoint alphabets, or has alphabets of
    its own."""
    a = draw(_machine("A"))
    ab = sorted(a.inputs), sorted(a.outputs)
    b = draw(_machine("B", draw(st.sampled_from([ab[::-1], None]))))
    return [a, b, draw(_machine("C", ab))]


#: System expressions ``parse_system_expr`` rejects, one per error branch.
_MALFORMED_EXPRS = (
    "(par A",  # unexpected end
    "(and A B)",  # no 'par' after '('
    "(par A B C)",  # no ')' closing the node
    ")",  # unexpected ')'
    "(par A Z)",  # unknown component
    "(par " * 1200 + "A B" + ")" * 1200,  # nested too deeply
    "(par A B) C",  # trailing tokens
)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    _machines(),
    st.sampled_from(["(par A B)", "(par A A)", "(par (par A B) C)"])
    | st.sampled_from(_MALFORMED_EXPRS),
    # mostly A or C against A or C beside B against B, sometimes anything
    st.lists(st.sampled_from("AC"), min_size=2, max_size=2).map(lambda p: [*p, "B", "B"])
    | st.lists(st.sampled_from("ABC"), min_size=4, max_size=4),
    st.booleans(),
    st.sampled_from([None, "writable", "unwritable", "directory", "same", "symlink"]),
)
def test_exit_codes_of_the_commands_that_compose(machines, expr, quadruple, unwritable, dot):
    """Exit 1 means a failed check, and 2 a usage or structural error.

    ``compose``, ``project`` and ``compositional`` each run with and
    without ``--json`` and ``--relax``, on pairs that may not
    synchronize, repeated leaves, mismatched signatures and malformed
    system expressions. When ``unwritable``, ``-o`` names a path under a
    regular file; ``--dot`` names one when "unwritable", a directory
    when "directory", ``-o``'s path when "same" and a symlink to it when
    "symlink". Then ``compose`` and ``project`` exit 2, as they do on a
    malformed expression. Exit 2 writes nothing and prints one
    ``error:`` line; exit 0 writes both files.
    """
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for c in machines:
            files[c.name] = Path(tmp, f"{c.name}.fsm")
            save_component(c, str(files[c.name]))
        out = Path(files["A"], "out.fsm") if unwritable else Path(tmp, "out.fsm")
        written = [out]
        if dot is not None:
            written.append({"writable": Path(tmp, "g.dot"), "unwritable": Path(files["B"], "g.dot"),
                            "directory": Path(tmp), "same": out, "symlink": Path(tmp, "g.dot")}[dot])
        if dot == "symlink":
            written[1].symlink_to(out)
        inputs = sorted(os.listdir(tmp))
        saving = ["-o", out] + (["--dot", written[1]] if dot else [])
        commands = [
            ["compose", expr, *files.values(), *saving],
            ["project", expr, *files.values(), "--target", expr.rstrip(")")[-1:] or "A", *saving],
            *(["compositional", "--theorem", theorem, *(files[x] for x in quadruple)]
              for theorem in "12"),
        ]
        for argv in commands:
            for flags in ((), ("--json",), ("--relax",), ("--json", "--relax")):
                for path in written:
                    if path.is_file() and not path.is_symlink():
                        path.unlink()
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([str(x) for x in [*argv, *flags]])
                call = [*argv[:3], *flags]
                assert code in (0, 1, 2, 3), call
                if "-o" in argv:
                    if (unwritable or dot in ("unwritable", "directory", "same", "symlink")
                            or expr in _MALFORMED_EXPRS):
                        assert code == 2, call
                    if code == 0:
                        assert all(path.is_file() for path in written), call
                if code == 2:
                    assert stdout.getvalue() == "", call
                    assert stderr.getvalue().startswith("error: "), call
                    assert stderr.getvalue().count("\n") == 1, call
                    assert sorted(os.listdir(tmp)) == inputs, call
                    for c in machines:
                        assert files[c.name].read_text() == component_to_text(c), call
                    continue
                if "--json" in flags:
                    payload = json.loads(stdout.getvalue())
                if code == 1:
                    assert argv[0] == "compositional", call
                    conclusion = (
                        payload["global_conclusion"] if "--json" in flags
                        else stdout.getvalue().splitlines()[1]
                    )
                    assert conclusion.endswith("sound-fail"), call


#: What each of ``_MALFORMED_EXPRS`` is refused for, in its order.
_MALFORMED_REASONS = (
    "unexpected end of expression",
    "expected 'par' after '('",
    "expected ')'",
    "unexpected ')'",
    "unknown component 'Z'",
    "expression nested too deeply",
    "trailing tokens after expression: C",
)


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("command", ["compose", "project"])
@pytest.mark.parametrize(
    "expr, names, reason",
    [(expr, "AB", why) for expr, why in zip(_MALFORMED_EXPRS, _MALFORMED_REASONS, strict=True)]
    + [("(par A B)", "AAB", "component name 'A' already bound")],
    ids=[f"expr{k}" for k in range(len(_MALFORMED_EXPRS))] + ["name-bound-twice"],
)
def test_every_expression_and_binding_error_exits_2_and_writes_nothing(
    tmp_path, capsys, expr, names, reason, command, flags
):
    """Each error branch of ``parse_system_expr`` and ``cli._load_named``,
    reached deterministically: exit 2, one ``error:`` line naming the
    reason, nothing on stdout and no file written."""
    machines = {
        "A": Component.build("A", "a0", [("a0", "a", "m", "a0")], inputs={"a"}, outputs={"m"}),
        "B": Component.build("B", "b0", [("b0", "m", "a", "b0")], inputs={"m"}, outputs={"a"}),
    }
    paths = []
    for k, name in enumerate(names):
        paths.append(tmp_path / f"{k}.fsm")
        save_component(machines[name], str(paths[-1]))
    argv = [command, expr, *paths, "-o", tmp_path / "out.fsm", "--dot", tmp_path / "g.dot"]
    if command == "project":
        argv += ["--target", "A"]
    inputs = sorted(os.listdir(tmp_path))
    assert run(*argv, *flags) == (2, "")
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert sorted(os.listdir(tmp_path)) == inputs


#: Files that load but cannot be checked (``INVALID_COMPONENTS``), that
#: no loader accepts, or whose alphabets are empty, by file name.
_ODD_FILES = {
    **{f"invalid{k}.fsm": INVALID_HEADER + body
       for k, (body, _) in enumerate(INVALID_COMPONENTS.values())},
    "label.fsm": "component X\ninitial x0\ntrans x0 a x0\n",
    "no_initial.fsm": "component X\ntrans x0 a|b x0\n",
    "cut.json": '{"name": "X", "initial": ',
    "lists.json": '{"name": "X", "initial": "x0", "transitions": [["x0", "a", "b", "x0"]]}',
    "empty.fsm": "component X\ninitial x0\n",
}


@st.composite
def _check_files(draw) -> dict[str, str]:
    """File name -> text: machines A and C over one signature, each as
    text or JSON, then one of ``_ODD_FILES``. A shares the signature of
    ``INVALID_COMPONENTS`` or has alphabets from ``_LABELS``."""
    a = draw(_machine("A", draw(st.sampled_from([None, (["i1", "x"], ["m", "o5"])]))))
    c = draw(_machine("C", (sorted(a.inputs), sorted(a.outputs))))
    files = {}
    for m in (a, c):
        if draw(st.booleans()):
            files[f"{m.name}.json"] = component_to_json(m)
        else:
            files[f"{m.name}.fsm"] = component_to_text(m)
    name = draw(st.sampled_from(sorted(_ODD_FILES)))
    files[name] = _ODD_FILES[name]
    return files


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    _check_files(),
    st.lists(st.integers(0, 2), min_size=2, max_size=2),
    st.integers(0, 3),
)
def test_exit_codes_of_check_validate_and_traces(files, pair, k):
    """``check`` (exact, and bounded at depth ``k``) with either
    ``--unspecified``, ``validate`` and ``traces -k 2``, each with and
    without ``--json``, on the files ``pair`` picks from ``files``.

    Exact and bounded ``check`` reject the same files: both exit 2, or
    neither does. Bounded ``check`` without ``--depth`` exits 2.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, text in files.items():
            paths.append(Path(tmp, name))
            paths[-1].write_text(text)
        iut, spec = (paths[n] for n in pair)

        def exit_code(*argv) -> int:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([str(x) for x in argv])
            call = [argv[0], *(Path(x).name if isinstance(x, Path) else x for x in argv[1:])]
            assert code in (0, 1, 2, 3), call
            if code == 2:
                assert stdout.getvalue() == "", call
                assert stderr.getvalue().startswith("error: "), call
                assert stderr.getvalue().count("\n") == 1, call
                assert sorted(os.listdir(tmp)) == sorted(files), call
            elif "--json" in argv:
                payload = json.loads(stdout.getvalue())
                if argv[0] == "check":
                    assert payload["result"] == ("pass", "fail", None, "inconclusive")[code], call
                if argv[0] == "validate":
                    # exit 1 exactly when some component is invalid
                    assert code == (0 if all(r["ok"] for r in payload) else 1), call
            return code

        for flags in ((), ("--json",)):
            exit_code("validate", iut, spec, *flags)
            exit_code("traces", "-k", "2", iut, *flags)
            for unspecified in ("allow", "forbid"):
                options = ("--unspecified", unspecified, *flags)
                exact = exit_code("check", iut, spec, *options)
                bounded = exit_code("check", "--method", "bounded", "-k", k, iut, spec, *options)
                assert (exact == 2) == (bounded == 2), (pair, sorted(files), options)
                assert exit_code("check", "--method", "bounded", iut, spec, *options) == 2


#: Output paths the generated argv may name, beside the input files: new
#: files, and the directory itself, which cannot be opened for writing.
_TARGETS = ("out.fsm", "out.json", "g.dot", ".")


#: The six commands, each drawn on its own.
_COMMANDS = ("validate", "compose", "traces", "check", "project", "compositional")


@st.composite
def _any_argv(draw, command: str) -> tuple[dict[str, str], list[str]]:
    """Files by name, and an argv of ``command`` over them, its paths
    relative to the directory that holds the files.

    The files are machines A, B and C (as in ``_machines``) and D (A with
    one more step from its initial state), each as text or JSON, and one
    of ``_ODD_FILES``. About one argv in ten has one token deleted, which
    argparse mostly refuses.
    """
    machines = draw(_machines())
    # D is A with one more step from its initial state, to fail against A
    a = machines[0]
    extra = Transition(a.initial, *(draw(st.sampled_from(sorted(x)))
                                    for x in (a.inputs, a.outputs, a.states)))
    machines.append(dataclasses.replace(a, name="D", transitions=a.transitions | {extra}))
    files = {}
    for m in machines:
        if draw(st.booleans()):
            files[f"{m.name}.json"] = component_to_json(m)
        else:
            files[f"{m.name}.fsm"] = component_to_text(m)
    a, b, c, d = files
    odd = draw(st.sampled_from(sorted(_ODD_FILES)))
    files[odd] = _ODD_FILES[odd]
    # the odd file one time in four
    path = st.one_of(*[st.sampled_from([a, b, c, d])] * 3, st.just(odd))
    depth = st.integers(-1, 3).map(str)
    guard = st.sampled_from([[], ["--guard", "0"], ["--guard", "3"], ["--guard", "-1"]])
    if command == "validate":
        args = draw(st.lists(path, min_size=1, max_size=3))
    elif command == "traces":
        args = [draw(path), "-k", draw(depth), *draw(guard)]
    elif command == "check":
        # mostly D, A or C against A or C, which share a signature; -k
        # and --guard mostly with --method bounded, which they need
        args = draw(st.tuples(st.sampled_from([d, a, c]), st.sampled_from([a, c])).map(list)
                    | st.lists(path, min_size=2, max_size=2))
        method = draw(st.sampled_from([None, "exact", "bounded"]))
        if method is not None:
            args += ["--method", method]
        if method == "bounded" or draw(st.integers(0, 3)) == 3:
            args += ["-k", draw(depth)]
        if method == "bounded" or draw(st.integers(0, 3)) == 3:
            args += draw(guard)
        args += ["--unspecified", draw(st.sampled_from(["allow", "forbid"]))]
    elif command == "compositional":
        # mostly A, C or D against A or C beside B against B
        args = ["--theorem", draw(st.sampled_from("21")),
                *draw(st.tuples(st.sampled_from([a, c, d]), st.sampled_from([a, c])).map(
                    lambda pair: [*pair, b, b]) | st.lists(path, min_size=4, max_size=4))]
    else:
        wellformed = st.sampled_from(["A", "(par A B)", "(par A A)", "(par (par A B) C)"])
        args = [draw(st.one_of(wellformed, wellformed, st.sampled_from(_MALFORMED_EXPRS))),
                *draw(st.just([a, b, c]) | st.lists(path, min_size=1, max_size=4, unique=True))]
        if command == "project":
            # mostly the expression's last leaf
            last = st.just(args[0].rstrip(")")[-1:] or "A")
            args += ["--target", draw(st.one_of(last, last, st.sampled_from("ABCX")))]
        # a path under a regular file cannot be created
        under_a_file = f"{sorted(files)[0]}/out.fsm"
        fresh = st.sampled_from(["out.fsm", "out.json"])
        args += ["-o", draw(st.one_of(fresh, fresh, st.sampled_from([*_TARGETS, under_a_file])))]
        dot = draw(st.one_of(st.none(), st.just("g.dot"), st.sampled_from(_TARGETS)))
        if dot is not None:
            args += ["--dot", dot]
    if command in ("compose", "project", "compositional") and draw(st.booleans()):
        args.append("--relax")
    if draw(st.booleans()):
        args.append("--json")
    if draw(st.integers(0, 9)) == 9:
        del args[draw(st.integers(0, len(args) - 1))]
    return files, [command, *args]


def _tree(root: str) -> dict[str, bytes]:
    """Every file under ``root``, by relative path, with its bytes."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = Path(folder, name)
            found[str(path.relative_to(root))] = path.read_bytes()
    return found


@pytest.mark.parametrize("command", _COMMANDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data())
def test_exit_codes_of_every_command(command, data):
    """The exit-code contract, over generated argv of each of the six commands.

    No exception escapes ``main``: it returns, or argparse refuses the
    argv with ``SystemExit(2)``. The exit code is 0, 1, 2 or 3. Exit 1
    means a failed check: ``fail`` from ``check``, ``sound-fail`` from
    ``compositional``, an invalid component from ``validate``. Exit 3
    comes only from ``check`` and ``compositional``. With ``--json``,
    stdout parses on exits 0, 1 and 3. Exit 2 prints nothing on stdout,
    an error on stderr, and writes nothing; only ``compose`` and
    ``project`` write files, both of them on exit 0.
    """
    files, argv = data.draw(_any_argv(command))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        named = {*files, *_TARGETS}
        argv = [str(Path(tmp, x)) if x.split("/")[0] in named else x for x in argv]
        before = _tree(tmp)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as refused:
                assert refused.code == 2, argv
                assert "usage:" in stderr.getvalue(), argv
                code = refused.code
        out = stdout.getvalue()
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert out == "", argv
            assert "error: " in stderr.getvalue(), argv
            assert _tree(tmp) == before, argv
            return
        if command in ("compose", "project"):
            assert code == 0, argv
            written = [argv[argv.index(option) + 1] for option in ("-o", "--dot") if option in argv]
            assert all(Path(path).is_file() for path in written), argv
        else:
            assert _tree(tmp) == before, argv
        payload = json.loads(out) if "--json" in argv else None
        if code == 1:
            assert command in ("check", "compositional", "validate"), argv
            if command == "check":
                assert (payload["result"] if payload else out.split()[0]) == "fail", argv
            elif command == "compositional":
                assert (payload["global_conclusion"] if payload
                        else out.splitlines()[1]).endswith("sound-fail"), argv
            else:
                assert (not all(r["ok"] for r in payload)) if payload else "INVALID" in out, argv
        if code == 3:
            assert command in ("check", "compositional"), argv
