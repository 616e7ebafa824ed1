"""Synchronous parallel composition: rules, reports, system trees."""

import random

import pytest

from fsmcheck import (
    ComposabilityError,
    Component,
    Leaf,
    Par,
    build_system,
    build_system_full,
    has_trace,
    signature_check,
    subcomponents,
    synchronous_parallel,
    trace,
    traces_up_to,
)
from fsmcheck.randgen import random_composable_pair

from demos import coffee_expr, demo
from oracles import naive_full_product, naive_traces, vector_traces


def test_signature_report_fields():
    c1 = Component.build("c1", "s0", [("s0", "coin", "makeC", "s0"), ("s0", "coin", "makeT", "s0")])
    c2 = Component.build("c2", "t0", [("t0", "makeC", "cup", "t0"), ("t0", "makeT", "cup", "t0")])
    report = signature_check(c1, c2)
    assert report.o1_cap_i2 == {"makeC", "makeT"}
    assert report.o2_cap_i1 == frozenset()
    assert not report.synchronizable  # only one direction feeds the other


def test_disjoint_alphabets_not_synchronizable_but_theorem_friendly():
    c1 = Component.build("c1", "s0", [("s0", "a", "x", "s0")])
    c2 = Component.build("c2", "t0", [("t0", "b", "y", "t0")])
    report = signature_check(c1, c2)
    assert not report.synchronizable
    assert report.alphabets_disjoint


def test_shared_inputs_break_disjointness():
    c1 = Component.build("c1", "s0", [("s0", "a", "x", "s0")])
    c2 = Component.build("c2", "t0", [("t0", "a", "y", "t0")])
    assert not signature_check(c1, c2).alphabets_disjoint


def test_left_only_rule():
    c1 = Component.build("c1", "s0", [("s0", "a", "x", "s1")])
    c2 = Component.build("c2", "t0", [("t0", "i", "o", "t0")], inputs=["x_unused", "i"])
    composed = synchronous_parallel(c1, c2, relax=True)
    assert has_trace(composed, trace("a|x"))
    assert "(s1,t0)" in composed.states


def test_feeding_rule_hides_intermediate():
    c1 = Component.build("c1", "s0", [("s0", "a", "m", "s1")])
    c2 = Component.build("c2", "t0", [("t0", "m", "y", "t1")])
    composed = synchronous_parallel(c1, c2, relax=True)
    assert composed.inputs == {"a"}
    assert has_trace(composed, trace("a|y"))
    assert not has_trace(composed, trace("a|m"))
    assert "(s1,t1)" in composed.states


def test_trigger_inside_output_union_is_excluded():
    # the right side could react alone on "m", but "m" is an output of the
    # left side, hence not a composed input
    c1 = Component.build("c1", "s0", [("s0", "a", "m", "s1")])
    c2 = Component.build("c2", "t0", [("t0", "m", "y", "t1")])
    composed = synchronous_parallel(c1, c2, relax=True)
    assert "m" not in composed.inputs
    assert all(t.input != "m" for t in composed.transitions)


def test_composability_error_without_relax():
    c1 = Component.build("c1", "s0", [("s0", "a", "x", "s0")])
    c2 = Component.build("c2", "t0", [("t0", "b", "y", "t0")])
    with pytest.raises(ComposabilityError):
        synchronous_parallel(c1, c2)
    assert synchronous_parallel(c1, c2, relax=True) is not None


def test_composed_alphabet_law():
    rng = random.Random(5)
    for _ in range(50):
        c1, c2 = random_composable_pair(rng)
        composed = synchronous_parallel(c1, c2, relax=True)
        assert composed.inputs == (c1.inputs | c2.inputs) - (c1.outputs | c2.outputs)
        assert composed.outputs == c1.outputs | c2.outputs
        assert not composed.inputs & composed.outputs


def test_coffee_composition_runs_the_refund_trace():
    composed = build_system(coffee_expr(demo("coffee/iut_money"), demo("coffee/drink")))
    assert has_trace(
        composed, trace("coinC|preparing abs|coffee coinC|preparing abs|refund")
    )


def test_reachable_product_matches_literal_rule_closure():
    rng = random.Random(11)
    for _ in range(60):
        c1, c2 = random_composable_pair(rng, n_states=(2, 5))
        fast = synchronous_parallel(c1, c2, relax=True)
        naive = naive_full_product(c1, c2)
        for k in range(5):
            assert traces_up_to(fast, k) == naive_traces(naive, k)


def test_every_composed_transition_is_rule_justified():
    rng = random.Random(17)
    for _ in range(40):
        c1, c2 = random_composable_pair(rng, n_states=(2, 4))
        fast = synchronous_parallel(c1, c2, relax=True)
        naive = naive_full_product(c1, c2)
        naive_keys = {
            (t.source, t.input, t.output, t.target) for t in naive.transitions
        }
        for t in fast.transitions:
            assert (t.source, t.input, t.output, t.target) in naive_keys


def test_trace_sets_commute():
    rng = random.Random(19)
    for _ in range(40):
        c1, c2 = random_composable_pair(rng, n_states=(2, 4))
        ab = synchronous_parallel(c1, c2, relax=True)
        ba = synchronous_parallel(c2, c1, relax=True)
        for k in range(5):
            assert traces_up_to(ab, k) == traces_up_to(ba, k)


class TestSystemTrees:
    def test_single_leaf_is_identity(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
        assert build_system(Leaf("C", c)) == c

    def test_pair_node_composes(self):
        money, drink = demo("coffee/iut_money"), demo("coffee/drink")
        expr = coffee_expr(money, drink)
        assert build_system(expr) == synchronous_parallel(money, drink)

    def test_subcomponents(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
        assert subcomponents(Leaf("M", c)) == {"M"}
        assert subcomponents(Par(Leaf("M", c), Leaf("D", c))) == {"M", "D"}
        nested = Par(Par(Leaf("A", c), Leaf("B", c)), Leaf("C", c))
        assert subcomponents(nested) == {"A", "B", "C"}

    def test_nested_tree_matches_vector_simulation(self):
        rng = random.Random(29)
        for _ in range(15):
            a, b = random_composable_pair(rng, names=("A", "B"), n_states=(2, 3))
            inner = synchronous_parallel(a, b, relax=True)
            # wire a third component consuming one inner output
            shared_out = sorted(inner.outputs)[0]
            c = Component.build(
                "C",
                "u0",
                [
                    ("u0", shared_out, "z0", "u1"),
                    ("u1", "cin", "z1", "u0"),
                    ("u1", "cin", "cback", "u0"),
                ],
                inputs=[shared_out, "cin"],
                outputs=["z0", "z1", "cback"],
            )
            expr = Par(Par(Leaf("A", a), Leaf("B", b)), Leaf("C", c))
            composed = build_system(expr, relax=True)
            for k in range(4):
                assert traces_up_to(composed, k) == vector_traces(expr, k)

    def test_duplicate_leaf_names_rejected(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
        with pytest.raises(ComposabilityError):
            build_system(Par(Leaf("M", c), Leaf("M", c)))

    def test_error_carries_node_path(self):
        a = Component.build("a", "s0", [("s0", "a", "x", "s0")])
        b = Component.build("b", "t0", [("t0", "b", "y", "t0")])
        feeds = Component.build("f", "u0", [("u0", "x", "q", "u0"), ("u0", "y", "q", "u0")])
        expr = Par(Par(Leaf("A", a), Leaf("B", b)), Leaf("F", feeds))
        with pytest.raises(ComposabilityError) as err:
            build_system_full(expr)
        assert "left" in str(err.value)
