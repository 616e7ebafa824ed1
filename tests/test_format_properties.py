"""Property tests of the parsers: only ParseError escapes, round trips are lossless."""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmcheck import Component, ParseError
from fsmcheck.compose import SystemExpr
from fsmcheck.formats import (
    component_from_json,
    component_from_text,
    component_to_json,
    component_to_text,
    parse_system_expr,
)
from fsmcheck.machine import COMMENT, _label_problems

# Deterministic, and no example database left behind.
deterministic = settings(derandomize=True, database=None, deadline=None)

# Text that looks like the component format: known and unknown
# directives, labels with and without the separator, comments.
_token = st.one_of(
    st.sampled_from(["s0", "s1", "a|x", "b|y", "|", "a|", "|x", "a||x", "#", "#c"]),
    st.text(alphabet="ab|# \t\r\x0b\x1c ", max_size=4),
)
_line = st.builds(
    lambda directive, args: " ".join([directive, *args]),
    st.sampled_from(["component", "states", "inputs", "outputs", "initial", "trans",
                     "#", "", "bogus"]),
    st.lists(_token, max_size=4),
)
format_like_text = st.one_of(st.text(), st.lists(_line, max_size=8).map("\n".join))

# JSON values, and objects shaped like a component with fields of any type.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_component_object = st.fixed_dictionaries(
    {},
    optional={
        key: _json | st.lists(_json, max_size=3)
        for key in ("name", "initial", "states", "inputs", "outputs")
    }
    | {
        "transitions": st.lists(
            st.fixed_dictionaries(
                {}, optional={key: _json for key in ("from", "input", "output", "to")}
            )
            | _json,
            max_size=3,
        )
        | _json
    },
)
json_like_text = st.one_of(
    st.text(),
    _json.map(json.dumps),
    _component_object.map(json.dumps),
    st.integers(min_value=1, max_value=6000).map(lambda n: "1" * n),
    st.integers(min_value=1, max_value=100_000).map(lambda n: "[" * n),
)

expression_like_text = st.one_of(
    st.text(),
    st.lists(st.sampled_from(["(", ")", "par", "M", "D", "Z", " ", "(par"]), max_size=12).map(
        "".join
    ),
    st.integers(min_value=1, max_value=20_000).map(lambda n: "(par " * n + "M"),
)


def only_strings(c: Component) -> bool:
    """Are the name, states, labels and transition fields of ``c`` strings?"""
    fields = [c.name, c.initial, *c.states, *c.inputs, *c.outputs]
    for t in c.transitions:
        fields += [t.source, t.input, t.output, t.target]
    return all(isinstance(x, str) for x in fields)


@deterministic
@given(format_like_text)
def test_text_parser_raises_only_parse_error(text):
    try:
        assert only_strings(component_from_text(text))
    except ParseError:
        pass


@deterministic
@given(json_like_text)
def test_json_parser_raises_only_parse_error(text):
    try:
        assert only_strings(component_from_json(text))
    except ParseError:
        pass


@deterministic
@given(expression_like_text)
def test_expression_parser_raises_only_parse_error(text):
    c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
    try:
        assert isinstance(parse_system_expr(text, {"M": c, "D": c}), SystemExpr)
    except ParseError:
        pass


def components(names):
    """Valid components whose names, states and labels are drawn from ``names``."""

    @st.composite
    def build(draw):
        states = draw(st.lists(names, min_size=1, max_size=5, unique=True))
        inputs = draw(st.lists(names, max_size=3, unique=True))
        outputs = draw(st.lists(names, max_size=3, unique=True))
        transitions = []
        if inputs and outputs:
            transitions = draw(st.lists(
                st.tuples(*map(st.sampled_from, (states, inputs, outputs, states))),
                max_size=8,
            ))
        return Component.build(draw(names), states[0], transitions, inputs, outputs, states)

    return build()


# The text format splits on whitespace, starts comments at '#' and
# separates input from output at '|'.
_text_name = st.text(alphabet=string.ascii_letters + string.digits + "_~().,-é", min_size=1,
                     max_size=5)


@deterministic
@given(components(_text_name))
def test_text_round_trip_is_lossless(c):
    assert component_from_text(component_to_text(c)) == c


def text_writable(c: Component) -> bool:
    """Can the text format write back the name, states and labels of
    ``c``? None may be empty or hold whitespace or '#', and no label
    may hold '|'."""
    def word(w: str, reserved: str) -> bool:
        return w != "" and not any(ch.isspace() or ch in reserved for ch in w)

    return (word(c.name, "#") and all(word(s, "#") for s in c.states)
            and all(word(x, "#|") for x in c.inputs | c.outputs))


@deterministic
@given(components(st.text(max_size=5)))
def test_json_round_trip_is_lossless(c):
    """Lossless for every component the text format can write; any other
    does not load, since it would load and then be written as text that
    does not parse."""
    text = component_to_json(c)
    if text_writable(c):
        assert component_from_json(text) == c
    else:
        with pytest.raises(ParseError):
            component_from_json(text)


@deterministic
@given(components(st.text(max_size=5).filter(
    lambda w: w.split() == [w] and "#" not in w and "|" not in w)))
def test_json_round_trip_is_lossless_for_any_writable_word(c):
    assert component_from_json(component_to_json(c)) == c


# Words a JSON component may hold, mostly ones the text format can
# write, so that many components load.
_json_word = st.one_of(
    *[st.sampled_from(["s0", "s1", "a", "b", "x", "y", "s|0", "é~("])] * 6,
    st.text(alphabet="ab|#é \t\x1c\u2028", max_size=3),
    st.text(max_size=3),
)
_json_component = st.fixed_dictionaries(
    {"name": _json_word, "initial": _json_word},
    optional={
        "states": st.lists(_json_word, max_size=4),
        "inputs": st.lists(_json_word, max_size=3),
        "outputs": st.lists(_json_word, max_size=3),
        "transitions": st.lists(
            st.fixed_dictionaries({key: _json_word for key in ("from", "input", "output", "to")}),
            max_size=4,
        ),
    },
)


@settings(deterministic, max_examples=300)
@given(_json_component)
def test_json_components_that_load_write_text_that_loads(data):
    try:
        c = component_from_json(json.dumps(data))
    except ParseError:
        return
    assert component_from_text(component_to_text(c)) == c


# Words of a text file: seven in eight drawn from a few that mostly load,
# the others mixing the separator, the comment marker, and ASCII and
# Unicode whitespace (tab, vertical tab, file separator, NEL, no-break
# space, line separator, ideographic space).
_text_word = st.integers(0, 7).flatmap(lambda k: st.sampled_from(
    ["s0", "s1", "a", "b", "x", "y", "s|0", "a|b", "é~("]) if k else st.text(
    alphabet="ab|#é \t\x0b\x1c\x85\xa0\u2028\u3000", min_size=1, max_size=3))


@st.composite
def _component_text(draw):
    lines = [f"component {draw(_text_word)}", f"initial {draw(_text_word)}"]
    for directive in ("states", "inputs", "outputs"):
        if draw(st.booleans()):
            lines.append(" ".join([directive, *draw(st.lists(_text_word, max_size=3))]))
    lines += draw(st.lists(st.builds("trans {} {}|{} {}".format, *[_text_word] * 4), max_size=4))
    newline = draw(st.sampled_from(["\n", "\r\n", "\u2028"]))
    return newline.join(draw(st.permutations(lines)))


@settings(deterministic, max_examples=300)
@given(_component_text())
def test_text_components_that_load_hold_only_writable_words(text):
    """What the text loader accepts, the text format writes back: the
    tokenizer already keeps whitespace and '#' out of every word, and the
    loader refuses a declared label holding '|'."""
    try:
        c = component_from_text(text)
    except ParseError:
        return
    steps = c.transitions
    assert not _label_problems(c.name, "component name", COMMENT)
    for s in {c.initial, *c.states, *(t.source for t in steps), *(t.target for t in steps)}:
        assert not _label_problems(s, "state", COMMENT)
    for label in {*c.inputs, *c.outputs, *(t.input for t in steps), *(t.output for t in steps)}:
        assert not _label_problems(label, "label")
    assert component_from_text(component_to_text(c)) == c
