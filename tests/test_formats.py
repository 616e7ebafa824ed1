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


HEAD = "component M\ninitial s0\n"
TRANS = "expected: trans <state> <input>|<output> <state>"


@pytest.mark.parametrize("text, message, line", [
    pytest.param(HEAD + "trans s0 a|x\n", TRANS, 3, id="trans with 2 arguments"),
    pytest.param(HEAD + "trans s0 a|x s1 s2\n", TRANS, 3, id="trans with 4 arguments"),
    pytest.param(HEAD + "trans s0 a| s1\n",
                 "malformed label 'a|', expected <input>|<output>", 3, id="no output"),
    pytest.param(HEAD + "trans s0 |x s1\n",
                 "malformed label '|x', expected <input>|<output>", 3, id="no input"),
    pytest.param(HEAD + "trans s0 ax s1\n",
                 "malformed label 'ax', expected <input>|<output>", 3, id="no separator"),
    pytest.param(HEAD + "trans s0 a|x#c s1\n", TRANS, 3, id="comment inside a token"),
    pytest.param(HEAD + "trans s0 a|#x s1\n", TRANS, 3, id="comment inside a label"),
    pytest.param(HEAD + "trans s0 a|x s1 # a comment\ntrans s1 b|y\n", TRANS, 4,
                 id="comment after the tokens"),
    pytest.param(HEAD + "\n   \n# only a comment\n\t\ntrans s0 ax s1\n",
                 "malformed label 'ax', expected <input>|<output>", 7,
                 id="blank and comment-only lines count"),
    pytest.param("component M\r\ninitial s0\r\ntrans s0 a|x s1\r\ntrans s1 bx s0\r\n",
                 "malformed label 'bx', expected <input>|<output>", 4, id="CRLF"),
    pytest.param("component M\r\ninitial s0\r\n\r\ntrans s0 a|x\r\n", TRANS, 4,
                 id="CRLF blank line"),
    pytest.param(HEAD + "trans\ts0\ta|x\ts1\ntrans\ts1\tby\ts0\n",
                 "malformed label 'by', expected <input>|<output>", 4, id="tabs"),
    pytest.param(HEAD + "trans \t s0 \t a|x\n", TRANS, 3, id="tabs and spaces"),
    pytest.param("component M N\ninitial s0\n", "expected: component <name>", 1,
                 id="component with 2 arguments"),
    pytest.param("component\n", "expected: component <name>", 1, id="component alone"),
    pytest.param("component M\ninitial s0 s1\n", "expected: initial <state>", 2,
                 id="initial with 2 arguments"),
    pytest.param("component M\ninitial\n", "expected: initial <state>", 2, id="initial alone"),
    pytest.param("component M\n# initial s0\ntransition s0 a|x s1\n",
                 "unknown directive 'transition'", 3, id="unknown directive"),
    pytest.param("component M\nTrans s0 a|x s1\n", "unknown directive 'Trans'", 2,
                 id="directives are case-sensitive"),
    pytest.param("component M#\ninitial s0#s1\ntrans s0 a|x s1#\ntrans s1 a|x s1 s2\n",
                 TRANS, 4, id="comments right after tokens"),
    pytest.param("#component M\ninitial s0\n", "missing 'component' directive", None,
                 id="commented-out component"),
    pytest.param("component M\ninputs a\n", "missing 'initial' directive", None,
                 id="no initial"),
])
def test_parse_error_messages_and_lines(text, message, line):
    with pytest.raises(ParseError) as err:
        component_from_text(text, "m.fsm")
    assert err.value.line == line
    assert str(err.value) == (f"m.fsm:{line}: {message}" if line else f"m.fsm: {message}")


def test_round_trip_through_comments_crlf_and_tabs():
    """Rendered text still parses to the same component with a comment
    after every line, CRLF line endings, tabs between tokens and blank
    and comment-only lines in between."""
    rng = random.Random(311)
    for n in range(100):
        c = random_component(rng, f"r{n}", ["a", "b", "c"], ["x", "y"], n_states=(1, 6))
        lines = component_to_text(c).splitlines()
        noisy = [("\t".join(line.split()) if k % 2 else line) + f" #{k}# c"
                 for k, line in enumerate(lines)]
        text = "\r\n\t\r\n# only a comment\r\n".join(noisy)
        assert component_from_text(text) == c


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
