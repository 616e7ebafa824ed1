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
    component_to_dict,
    component_to_json,
    component_to_text,
    indented_json,
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


def _dumps_repeating(value, holder: dict, at: int, key: str, again) -> str:
    """``json.dumps(value)``, with the object ``holder`` holding ``key``
    once more, as its ``at``-th item, with the value ``again``."""
    if isinstance(value, dict):
        items = list(value.items())
        if value is holder:
            items.insert(at, (key, again))
        return "{" + ", ".join(json.dumps(k) + ": " + _dumps_repeating(v, holder, at, key, again)
                               for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dumps_repeating(v, holder, at, key, again) for v in value) + "]"
    return json.dumps(value)


@deterministic
@given(components(_text_name), st.data())
def test_text_and_json_load_alike_and_refuse_a_repeated_field(c, data):
    """Both renderings of a component load to it. A repeated ``component``
    or ``initial`` directive in the text, or a repeated key in any object
    of the JSON, is a ParseError, whatever value it repeats."""
    text = component_to_text(c)
    assert component_from_text(text) == component_from_json(component_to_json(c)) == c
    directive = data.draw(st.sampled_from(["component", "initial"]))
    lines = text.splitlines()
    lines.insert(data.draw(st.integers(0, len(lines))),
                 f"{directive} {data.draw(_text_name)}")
    with pytest.raises(ParseError, match=f"repeated '{directive}' directive"):
        component_from_text("\n".join(lines))
    obj = component_to_dict(c)
    holder = data.draw(st.sampled_from([obj, *obj["transitions"]]))
    key = data.draw(st.sampled_from(sorted(holder)))
    again = data.draw(st.sampled_from([holder[key], data.draw(_text_name)]))
    repeated = _dumps_repeating(obj, holder, data.draw(st.integers(0, len(holder))), key, again)
    with pytest.raises(ParseError, match=f"repeated key {key!r}"):
        component_from_json(repeated)


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


# Words a JSON component may hold: most are ones the text format can
# write in any role; an odd one may be a state the format writes but a
# label it refuses, or any short text, mostly of its separator, comment
# marker and whitespace.
_writable_word = st.sampled_from(["s0", "s1", "a", "b", "x", "y", "é~("])
_odd_word = st.one_of(
    st.sampled_from(["s|0", "a|b", "", "#"]),
    st.text(alphabet="ab|#é \t\x1c\u2028", max_size=3),
    st.text(max_size=3),
)


@st.composite
def _json_component(draw):
    """A component object of writable words. One in three holds one odd
    word, in a field drawn at random: a component with several would be
    refused for its first, and few would load."""
    data = draw(st.fixed_dictionaries(
        {
            "name": _writable_word,
            "initial": _writable_word,
            # as good as omitted when empty: the loader reads a missing list as []
            "transitions": st.lists(
                st.fixed_dictionaries(
                    {key: _writable_word for key in ("from", "input", "output", "to")}
                ),
                max_size=4,
            ),
        },
        optional={
            "states": st.lists(_writable_word, max_size=4),
            "inputs": st.lists(_writable_word, max_size=3),
            "outputs": st.lists(_writable_word, max_size=3),
        },
    ))
    if draw(st.integers(0, 2)) == 0:
        # each place a word sits: the object holding it and its key or index
        places = [(data, "name"), (data, "initial")]
        for key in ("states", "inputs", "outputs"):
            places += [(data[key], k) for k in range(len(data.get(key, ())))]
        for t in data["transitions"]:
            places += [(t, key) for key in sorted(t)]
        holder, key = draw(st.sampled_from(places))
        holder[key] = draw(_odd_word)
    return data


@settings(deterministic, max_examples=300)
@given(_json_component())
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


# Every code point, lone surrogates and control characters included, and
# the characters JSON escapes.
_any_text = st.text(st.characters(exclude_categories=())) | st.lists(
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800",
                     "\udfff", "\U0001f600"]), max_size=4).map("".join)
_scalar = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
           | st.integers(max_value=-2**64) | _any_text)


def _nested(depth: int):
    """JSON-like values whose containers nest at most ``depth`` deep."""
    if not depth:
        return _scalar
    inner = _nested(depth - 1)
    return _scalar | st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple) | (
        st.dictionaries(_any_text, inner, max_size=3))


@settings(deterministic, max_examples=500)
@given(_nested(4))
def test_indented_json_is_json_dumps_with_indent_two(value):
    assert indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{}, [], (), [{}, [], ()], {"": [[[{}]]]}, True, 0, -2**70])
def test_indented_json_writes_empty_containers_and_scalars_as_json_dumps(value):
    assert indented_json(value) == json.dumps(value, indent=2)


def test_indented_json_refuses_what_it_does_not_write():
    # json.dumps writes floats, and turns number keys into strings: the
    # writer refuses them rather than write other bytes
    for value in ({1: 2}, {"a": [1.5]}, [object()], {"a": {"b"}}):
        with pytest.raises(TypeError):
            indented_json(value)
