"""Text and JSON component formats, expression parsing, DOT export."""

import random

import pytest

from fsmcheck import Component, Leaf, Par, ParseError
from fsmcheck.formats import (
    component_from_json,
    component_from_text,
    component_to_json,
    component_to_text,
    parse_system_expr,
    to_dot,
)
from fsmcheck.randgen import random_component


SAMPLE = """\
# a tiny machine
component demo
inputs a b
outputs x y
initial s0
trans s0 a|x s1
trans s1 b|y s0
"""


def test_parse_text_sample():
    c = component_from_text(SAMPLE)
    assert c.name == "demo"
    assert c.initial == "s0"
    assert c.inputs == {"a", "b"}
    assert len(c.transitions) == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        component_from_text("component c\nwhatever z\n")
    assert ":2:" in str(err.value)
    with pytest.raises(ParseError) as err:
        component_from_text("component c\ntrans s0 ax s1\ninitial s0\n")
    assert ":2:" in str(err.value)


def test_missing_directives_rejected():
    with pytest.raises(ParseError):
        component_from_text("inputs a\ninitial s0\n")
    with pytest.raises(ParseError):
        component_from_text("component c\ninputs a\n")


def test_round_trip_preserves_isolated_states():
    c = Component.build(
        "c", "s0", [("s0", "a", "x", "s1")], states=["lonely"], inputs=["a", "b"]
    )
    assert component_from_text(component_to_text(c)) == c
    assert component_from_json(component_to_json(c)) == c


def test_round_trip_random_components_both_formats():
    rng = random.Random(307)
    for n in range(200):
        c = random_component(rng, f"r{n}", ["a", "b", "c"], ["x", "y"], n_states=(1, 6))
        assert component_from_text(component_to_text(c)) == c
        assert component_from_json(component_to_json(c)) == c


def test_rendering_is_deterministic():
    rng = random.Random(311)
    c = random_component(rng, "r", ["a", "b"], ["x", "y"])
    assert component_to_text(c) == component_to_text(c)
    assert component_to_json(c) == component_to_json(c)


class TestExpressionParsing:
    def setup_method(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
        self.bound = {"M": c, "D": c, "E": c}

    def test_single_name(self):
        assert parse_system_expr("M", self.bound) == Leaf("M", self.bound["M"])

    def test_pair(self):
        got = parse_system_expr("(par M D)", self.bound)
        assert isinstance(got, Par)
        assert got.left.name == "M" and got.right.name == "D"

    def test_nested(self):
        got = parse_system_expr("(par (par M D) E)", self.bound)
        assert isinstance(got.left, Par) and got.right.name == "E"

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_system_expr("(par M Z)", self.bound)

    def test_malformed(self):
        for bad in ("(par M", "(par M D E)", ")", "(seq M D)", "(par (par M D) M)"):
            with pytest.raises(ParseError):
                parse_system_expr(bad, self.bound)


def test_dot_export_mentions_all_transitions():
    c = component_from_text(SAMPLE)
    dot = to_dot(c)
    assert dot.startswith("digraph")
    assert '"s0" -> "s1" [label="a|x"]' in dot
    assert '"s1" -> "s0" [label="b|y"]' in dot
