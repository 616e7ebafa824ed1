"""Machine model: validation, trace semantics, enabledness, completion."""

import copy
import dataclasses
import pickle
import random
import re

import pytest

from fsmcheck import (
    Component,
    Step,
    TraceLimitError,
    Transition,
    UnknownInputError,
    complete,
    has_trace,
    is_input_enabled,
    out_after,
    states_after,
    step,
    trace,
    traces_up_to,
    validate_component,
)
from fsmcheck.randgen import random_component

from oracles import naive_out_after, naive_states_after, naive_traces


def single_loop():
    return Component.build("c", "s0", [("s0", "a", "x", "s0")])


def chain():
    return Component.build("c", "s0", [("s0", "a", "x", "s1"), ("s1", "b", "y", "s0")])


def branching():
    return Component.build(
        "c", "s0", [("s0", "a", "x", "s1"), ("s0", "a", "x", "s2")]
    )


class TestValidate:
    def test_minimal_legal_component(self):
        assert validate_component(single_loop()).ok

    def test_initial_not_in_states(self):
        c = Component(
            name="c",
            states=frozenset(["s0"]),
            initial="s9",
            inputs=frozenset(["a"]),
            outputs=frozenset(["x"]),
            transitions=frozenset(),
        )
        report = validate_component(c)
        assert not report.ok
        assert any("initial" in i.message for i in report.errors)

    def test_transition_input_not_declared(self):
        c = Component(
            name="c",
            states=frozenset(["s0"]),
            initial="s0",
            inputs=frozenset(["a"]),
            outputs=frozenset(["x"]),
            transitions=frozenset([Transition("s0", "b", "x", "s0")]),
        )
        report = validate_component(c)
        assert not report.ok
        assert any("input 'b' not in input alphabet" in i.message for i in report.errors)

    def test_overlapping_alphabets_only_warn(self):
        c = Component.build("c", "s0", [("s0", "a", "a", "s0")])
        report = validate_component(c)
        assert report.ok
        assert any("overlap" in i.message for i in report.warnings)

    def test_unreachable_and_dead_states_warn(self):
        c = Component.build(
            "c", "s0", [("s0", "a", "x", "s1")], states=["orphan"]
        )
        report = validate_component(c)
        assert report.ok
        messages = [i.message for i in report.warnings]
        assert any("unreachable" in m for m in messages)
        assert any("no outgoing" in m for m in messages)

    def test_bad_label_is_error(self):
        c = Component.build("c", "s0", [("s0", "a|b", "x", "s0")])
        assert not validate_component(c).ok

    @pytest.mark.parametrize(
        "declared, issues",
        [
            ({"inputs": ["", "a"]}, [("error", "input label is empty")]),
            ({"outputs": ["x", ""]}, [("error", "output label is empty")]),
            ({"inputs": ["a", "a b"]}, [("error", "input label 'a b' contains whitespace")]),
            ({"outputs": ["x", "x\ty"]}, [("error", "output label 'x\\ty' contains whitespace")]),
            ({"inputs": ["a", "a|b"]},
             [("error", "input label 'a|b' contains the reserved separator '|'")]),
            ({"outputs": ["x", "y |z"]},
             [("error", "output label 'y |z' contains whitespace"),
              ("error", "output label 'y |z' contains the reserved separator '|'")]),
            ({"states": ["", "s0"], "transitions": [("s0", "a", "x", ""), ("", "a", "x", "s0")]},
             [("error", "state identifier is empty")]),
            ({"states": ["s0", "s 1"],
              "transitions": [("s0", "a", "x", "s 1"), ("s 1", "a", "x", "s0")]},
             [("warning", "state 's 1' is not representable in the text format")]),
            ({"states": ["s0", "s|1"],
              "transitions": [("s0", "a", "x", "s|1"), ("s|1", "a", "x", "s0")]},
             []),
            ({"transitions": [("s0", "a", "x", "s0"), ("s9", "a", "x", "s0")]},
             [("error", "transition source 's9' not in states: s9 -a|x-> s0")]),
            ({"transitions": [("s0", "a", "x", "s9")]},
             [("error", "transition target 's9' not in states: s0 -a|x-> s9")]),
            ({"transitions": [("s0", "a", "z", "s0")]},
             [("error", "transition output 'z' not in output alphabet: s0 -a|z-> s0")]),
            ({"inputs": [], "outputs": [], "transitions": []},
             [("warning", "input alphabet is empty (only the empty trace is executable)"),
              ("warning", "output alphabet is empty"),
              ("warning", "state 's0' has no outgoing transitions")]),
            ({"outputs": ["x", "x#"]},
             [("error", "output label 'x#' contains the reserved comment marker '#'")]),
            ({"states": ["s0", "s#0"],
              "transitions": [("s0", "a", "x", "s#0"), ("s#0", "a", "x", "s0")]},
             [("warning", "state 's#0' is not representable in the text format")]),
        ],
    )
    def test_each_issue_with_its_message_and_severity(self, declared, issues):
        # one self-loop on s0 over a|x, with one part of it replaced
        parts = {"states": ["s0"], "inputs": ["a"], "outputs": ["x"],
                 "transitions": [("s0", "a", "x", "s0")], **declared}
        c = Component(
            name="c",
            states=frozenset(parts["states"]),
            initial="s0",
            inputs=frozenset(parts["inputs"]),
            outputs=frozenset(parts["outputs"]),
            transitions=frozenset(Transition(*t) for t in parts["transitions"]),
        )
        report = validate_component(c)
        assert [(i.severity, i.message) for i in report.issues] == issues
        assert report.ok == all(severity == "warning" for severity, _ in issues)


class TestStatesAfter:
    def test_empty_trace_reaches_initial(self):
        assert states_after(chain(), ()) == {"s0"}

    def test_single_path(self):
        assert states_after(chain(), trace("a|x")) == {"s1"}

    def test_nondeterministic_fanout(self):
        c = branching()
        assert states_after(c, trace("a|x")) == {"s1", "s2"}

    def test_agrees_with_run_enumeration(self):
        rng = random.Random(101)
        for _ in range(60):
            c = random_component(rng, "r", ["a", "b"], ["x", "y"], n_states=(2, 6))
            for tr in sorted(naive_traces(c, 3), key=lambda t: (len(t), t)):
                assert states_after(c, tr) == naive_states_after(c, tr)


class TestHasTrace:
    def test_empty(self):
        assert has_trace(single_loop(), ())

    def test_output_mismatch(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s1")], outputs=["y"])
        assert not has_trace(c, trace("a|y"))

    def test_round_trip_path(self):
        assert has_trace(chain(), trace("a|x b|y a|x"))


class TestTracesUpTo:
    def test_depth_zero(self):
        assert traces_up_to(chain(), 0) == {()}
        with pytest.raises(ValueError, match="depth bound must be non-negative"):
            traces_up_to(chain(), -1)

    def test_single_loop(self):
        assert traces_up_to(single_loop(), 2) == {(), trace("a|x"), trace("a|x a|x")}

    def test_nondeterministic_outputs(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s1"), ("s0", "a", "y", "s1")])
        assert traces_up_to(c, 1) == {(), trace("a|x"), trace("a|y")}

    def test_monotone_in_depth_and_lengths_bounded(self):
        rng = random.Random(7)
        for _ in range(30):
            c = random_component(rng, "r", ["a", "b"], ["x", "y"])
            for k in range(3):
                smaller = traces_up_to(c, k)
                larger = traces_up_to(c, k + 1)
                assert smaller <= larger
                assert all(len(tr) <= k for tr in smaller)

    def test_guard_raises(self):
        c = Component.build(
            "c",
            "s0",
            [("s0", "a", o, "s0") for o in ("x", "y", "z")],
        )
        with pytest.raises(TraceLimitError):
            traces_up_to(c, 12, guard=50)

    def test_matches_naive_enumeration(self):
        rng = random.Random(13)
        for _ in range(40):
            c = random_component(rng, "r", ["a", "b"], ["x", "y"], n_states=(2, 5))
            assert traces_up_to(c, 4) == naive_traces(c, 4)


class TestOutAfter:
    def test_simple(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s1")])
        assert out_after(c, (), "a") == {"x"}

    def test_no_continuation_is_empty(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s1")])
        assert out_after(c, trace("a|x"), "a") == frozenset()

    def test_nondeterministic(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s1"), ("s0", "a", "y", "s2")])
        assert out_after(c, (), "a") == {"x", "y"}

    def test_unknown_input_is_an_error_not_empty(self):
        with pytest.raises(UnknownInputError):
            out_after(single_loop(), (), "zz")

    def test_consistent_with_has_trace_on_random_components(self):
        rng = random.Random(23)
        for _ in range(40):
            c = random_component(rng, "r", ["a", "b"], ["x", "y"], n_states=(2, 6))
            for tr in naive_traces(c, 3):
                for i in sorted(c.inputs):
                    expected = frozenset(
                        o for o in c.outputs if has_trace(c, tr + (Step(i, o),))
                    )
                    assert out_after(c, tr, i) == expected == naive_out_after(c, tr, i)


class TestInputEnabled:
    def test_enabled_loop(self):
        assert is_input_enabled(single_loop())

    def test_missing_transition(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s1")])
        assert not is_input_enabled(c)

    def test_coffee_money_spec_is_not_input_enabled(self):
        from demos import demo

        assert not is_input_enabled(demo("coffee/spec_money"))
        assert not is_input_enabled(demo("coffee/drink"))


class TestComplete:
    def test_already_enabled_unchanged(self):
        c = single_loop()
        assert complete(c, "loop") == c
        assert complete(c, "sink") == c
        with pytest.raises(ValueError, match="unknown completion policy 'bogus'"):
            complete(c, "bogus")

    def test_loop_policy_fills_missing_pairs(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s1")], inputs=["a", "b"])
        done = complete(c, "loop", label="abs")
        added = done.transitions - c.transitions
        assert {(t.source, t.input, t.output, t.target) for t in added} == {
            ("s0", "b", "abs", "s0"),
            ("s1", "a", "abs", "s1"),
            ("s1", "b", "abs", "s1"),
        }
        assert is_input_enabled(done)

    def test_sink_policy_adds_sink_state(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s1")], inputs=["a", "b"])
        done = complete(c, "sink", label="abs")
        assert len(done.states) == len(c.states) + 1
        added = done.transitions - c.transitions
        # three redirecting transitions plus two sink self-loops
        assert len(added) == 5
        assert is_input_enabled(done)

    def test_sink_policy_renames_past_taken_names(self):
        c = Component.build(
            "c", "s0", [("s0", "a", "x", "sink"), ("sink", "a", "x", "sink~")], inputs=["a", "b"]
        )
        done = complete(c, "sink", label="abs")
        assert done.states == c.states | {"sink~~"}
        added = {(t.source, t.input, t.output, t.target) for t in done.transitions - c.transitions}
        assert added == {
            ("s0", "b", "abs", "sink~~"),
            ("sink", "b", "abs", "sink~~"),
            ("sink~", "a", "abs", "sink~~"),
            ("sink~", "b", "abs", "sink~~"),
            ("sink~~", "a", "abs", "sink~~"),
            ("sink~~", "b", "abs", "sink~~"),
        }
        # the original sink keeps its step and gains only the missing input
        assert done.arrows["sink"] == {("a", "x"): {"sink~"}, ("b", "abs"): {"sink~~"}}
        assert is_input_enabled(done)

    def test_traces_grow_and_stay_superset(self):
        rng = random.Random(31)
        for _ in range(25):
            c = random_component(rng, "r", ["a", "b"], ["x", "y"])
            for policy in ("loop", "sink"):
                done = complete(c, policy)
                assert is_input_enabled(done)
                for k in range(4):
                    assert traces_up_to(c, k) <= traces_up_to(done, k)

    def test_enabled_components_always_answer_along_bounded_traces(self):
        rng = random.Random(37)
        for _ in range(25):
            c = random_component(rng, "r", ["a", "b"], ["x", "y"], n_states=(2, 4))
            if not is_input_enabled(c):
                continue
            for tr in traces_up_to(c, 4):
                for i in sorted(c.inputs):
                    assert out_after(c, tr, i)


class TestValueTypes:
    """``Step`` and ``Transition`` are slotted frozen dataclasses."""

    VALUES = (Step("a", "x"), Transition("s0", "a", "x", "s1"))

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_copies_are_equal_values(self, value):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)
            assert str(copied) == str(value)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_frozen_and_without_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == tuple(f.name for f in dataclasses.fields(value))
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, "z")
        with pytest.raises((AttributeError, TypeError)):
            value.extra = "z"

    def test_step_parses_its_own_text_and_nothing_malformed(self):
        assert step(str(Step("a", "x"))) == Step("a", "x")
        for text in ("ax", "|x", "a|", ""):
            message = f"malformed step '{text}', expected 'input|output'"
            with pytest.raises(ValueError, match=re.escape(message)):
                step(text)

    def test_replace_keeps_the_other_fields(self):
        assert dataclasses.replace(Step("a", "x"), output="y") == Step("a", "y")
        moved = dataclasses.replace(Transition("s0", "a", "x", "s1"), target="s2")
        assert moved == Transition("s0", "a", "x", "s2")
        assert dataclasses.astuple(moved) == ("s0", "a", "x", "s2")

    def test_order_is_field_order(self):
        assert Step("a", "y") < Step("b", "x") and Step("a", "x") < Step("a", "y")
        assert str(Transition("s0", "a", "x", "s1")) == "s0 -a|x-> s1"
        assert sorted([Transition("s1", "a", "x", "s0"), Transition("s0", "b", "x", "s0"),
                       Transition("s0", "a", "y", "s0"), Transition("s0", "a", "x", "s1")]) == [
            Transition("s0", "a", "x", "s1"), Transition("s0", "a", "y", "s0"),
            Transition("s0", "b", "x", "s0"), Transition("s1", "a", "x", "s0"),
        ]

    def test_sorted_transitions_is_the_dataclass_order(self):
        rng = random.Random(41)
        for _ in range(60):
            c = random_component(rng, "r", ["a", "b", "c"], ["x", "y"], n_states=(1, 8),
                                 density=(0.3, 1.0))
            assert c.sorted_transitions() == sorted(c.transitions)
