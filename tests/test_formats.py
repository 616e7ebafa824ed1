"""Text and JSON component formats, expression parsing, DOT export."""

import copy
import dataclasses
import json
import pickle
import random
import sys
import threading

import pytest

from fsmcheck import (
    Component,
    InvalidComponentError,
    Leaf,
    Par,
    ParseError,
    Transition,
    certify_in_context,
    check_cioco_exact,
    validate_component,
)
from fsmcheck._core.encode import EncodedComponent, label_table
from fsmcheck.formats import (
    component_from_json,
    component_from_text,
    component_to_dict,
    component_to_json,
    component_to_text,
    load_component,
    parse_system_expr,
    to_dot,
)
from fsmcheck.randgen import random_component

from demos import FIXTURES


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
    pytest.param("component A\ncomponent Z\ninitial s0\ninitial s1\n",
                 "repeated 'component' directive", 2, id="component twice"),
    pytest.param("component M\ninitial s0\ntrans s0 a|x s1\ninitial s1\n",
                 "repeated 'initial' directive", 4, id="initial twice"),
    pytest.param("component M\ninitial s0\ninitial s0\n",
                 "repeated 'initial' directive", 3, id="initial twice, the same state"),
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
    pytest.param(HEAD + "trans s0 a|x s1\ntrans s1 a|x|y s0\n",
                 "malformed label 'a|x|y', expected <input>|<output>", 4, id="second separator"),
    pytest.param("component M\ninputs a a|b\ninitial s0\ntrans s0 a|x s0\n",
                 "input label 'a|b' contains the reserved separator '|'", None,
                 id="separator in a declared input"),
    pytest.param("component M\noutputs x|y\ninitial s0\n",
                 "output label 'x|y' contains the reserved separator '|'", None,
                 id="separator in a declared output"),
])
def test_parse_error_messages_and_lines(text, message, line):
    with pytest.raises(ParseError) as err:
        component_from_text(text, "m.fsm")
    assert err.value.line == line
    assert str(err.value) == (f"m.fsm:{line}: {message}" if line else f"m.fsm: {message}")


@pytest.mark.parametrize("fields, message", [
    pytest.param({"inputs": ["a", "a|b"]},
                 "input label 'a|b' contains the reserved separator '|'", id="separator"),
    pytest.param({"inputs": ["a", "a b"]}, "input label 'a b' contains whitespace",
                 id="whitespace"),
    pytest.param({"outputs": ["x", "x#"]},
                 "output label 'x#' contains the reserved comment marker '#'", id="comment"),
    pytest.param({"outputs": ["x", ""]}, "output label is empty", id="empty label"),
    pytest.param({"transitions": [{"from": "s0", "input": "a\tb", "output": "x", "to": "s0"}]},
                 "input label 'a\\tb' contains whitespace", id="undeclared step label"),
    pytest.param({"states": ["s0", "s 0"]}, "state 's 0' contains whitespace", id="state"),
    pytest.param({"transitions": [{"from": "s0", "input": "a", "output": "x", "to": "s 1"}]},
                 "state 's 1' contains whitespace", id="undeclared step state"),
    pytest.param({"initial": "s#0"}, "state 's#0' contains the reserved comment marker '#'",
                 id="initial state"),
    pytest.param({"name": "M N"}, "component name 'M N' contains whitespace", id="name"),
    pytest.param({"inputs": ["a|b", "a b"], "outputs": ["x#"]},
                 "input label 'a b' contains whitespace", id="the least of several"),
])
def test_json_words_the_text_format_cannot_write_are_parse_errors(fields, message):
    """The text format splits lines at whitespace, starts comments at
    ``#`` and splits a step at ``|``: a JSON component holding such a
    name, state or label does not load."""
    data = {"name": "M", "states": ["s0"], "inputs": ["a"], "outputs": ["x"], "initial": "s0",
            "transitions": [{"from": "s0", "input": "a", "output": "x", "to": "s0"}]}
    with pytest.raises(ParseError) as err:
        component_from_json(json.dumps({**data, **fields}), "m.json")
    assert str(err.value) == f"m.json: {message}"
    # a state may hold the separator: only labels are split at it
    assert component_from_json(json.dumps({**data, "states": ["s0", "s|0"]})).states == {
        "s0", "s|0"
    }


@pytest.mark.parametrize("text, message", [
    pytest.param('{"name": "A", "name": "Z", "initial": "s0", "initial": "s1", '
                 '"transitions": []}',
                 "repeated key 'name' in the object with keys "
                 "['name', 'name', 'initial', 'initial', 'transitions']", id="component"),
    pytest.param('{"name": "A", "initial": "s0", "transitions": [{"from": "s0", '
                 '"input": "i", "input": "j", "output": "x", "to": "s0"}]}',
                 "repeated key 'input' in the object with keys "
                 "['from', 'input', 'input', 'output', 'to']", id="transition"),
    pytest.param('{"name": "A", "initial": "s0", "note": [{"k": 1, "k": 1}]}',
                 "repeated key 'k' in the object with keys ['k', 'k']", id="unread object"),
])
def test_json_repeated_keys_are_parse_errors(text, message):
    """``json.loads`` keeps the last of repeated keys: the loader refuses
    a key repeated in any object, as the text loader refuses a repeated
    ``component`` or ``initial`` directive."""
    with pytest.raises(ParseError) as err:
        component_from_json(text, "m.json")
    assert str(err.value) == f"m.json: {message}"


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


#: what ``eval`` needs to read a component's repr back
NAMESPACE = {"Component": Component, "Transition": Transition}


def loaders(text: str, data: str):
    """Fresh parses of the same component through text and through JSON."""
    return (lambda: component_from_text(text)), (lambda: component_from_json(data))


class TestParsedComponents:
    """A parsed component keeps its step tuples until ``transitions`` is
    read, and every operation on it sees what its eager twin gives."""

    def test_parsed_components_equal_their_eager_twins(self):
        rng = random.Random(503)
        for n in range(80):
            c = random_component(rng, f"r{n}", ["a", "b", "c"], ["x", "y"], n_states=(1, 6))
            for load in loaders(component_to_text(c), component_to_json(c)):
                # each operation is the first read of a freshly parsed component
                parsed = load()
                assert "transitions" not in vars(parsed)
                assert parsed._packed == c._packed
                assert "transitions" not in vars(parsed)
                # the first read builds the set and keeps it
                assert parsed.transitions is parsed.transitions == c.transitions
                assert "transitions" in vars(parsed)
                assert load() == c and c == load()
                assert hash(load()) == hash(c)
                # a set's repr follows its insertion order, so read the repr back
                assert eval(repr(load()), NAMESPACE) == c
                assert load().sorted_transitions() == c.sorted_transitions()
                assert load().transitions == c.transitions
                assert all(type(t) is Transition for t in load().transitions)
                for copied in (pickle.loads(pickle.dumps(load())), copy.copy(load()),
                               copy.deepcopy(load())):
                    assert type(copied) is Component
                    assert copied == c and hash(copied) == hash(c)
                    assert eval(repr(copied), NAMESPACE) == c
                renamed = dataclasses.replace(load(), name="z")
                assert renamed == dataclasses.replace(c, name="z")
                assert hash(renamed) == hash(dataclasses.replace(c, name="z"))

    def test_only_transitions_is_decoded(self):
        parsed = component_from_text(SAMPLE)
        for missing in ("steps", "transition", "__setstate__", "outputs_by_input"):
            assert not hasattr(parsed, missing)
        assert "transitions" not in vars(parsed)
        with pytest.raises(AttributeError, match="'steps'"):
            Component.build("c", "s0", []).steps

    def test_omitted_declarations_are_inferred_from_the_steps(self):
        rng = random.Random(507)
        for n in range(60):
            c = random_component(rng, f"r{n}", ["a", "b", "c"], ["x", "y", "z"], n_states=(1, 6))
            steps = [(t.source, t.input, t.output, t.target) for t in c.sorted_transitions()]
            inferred = Component.build(c.name, c.initial, steps)
            text = "".join(line + "\n" for line in component_to_text(c).splitlines()
                           if line.split()[0] not in ("states", "inputs", "outputs"))
            data = {k: v for k, v in component_to_dict(c).items()
                    if k not in ("states", "inputs", "outputs")}
            for load in loaders(text, json.dumps(data)):
                parsed = load()
                assert (parsed.states, parsed.inputs, parsed.outputs) == (
                    inferred.states, inferred.inputs, inferred.outputs)
                assert parsed._packed == inferred._packed and parsed == inferred

    def test_undeclared_names_give_the_eager_issues_and_errors(self):
        """Files whose transitions or initial state use an undeclared
        state, input or output: validation and encoding of the parsed
        component report exactly what they report for the same fields
        given to ``Component`` directly."""
        rng = random.Random(509)
        kinds = {"state": 0, "input": 0, "output": 0, "initial": 0}
        for n in range(200):
            c = random_component(rng, f"r{n}", ["a", "b", "c"], ["x", "y", "z"],
                                 n_states=(2, 5), density=(0.5, 1.0))
            steps = [(t.source, t.input, t.output, t.target) for t in c.sorted_transitions()]
            if not steps:
                continue
            kind = rng.choice(sorted(kinds))
            states, initial, inputs, outputs = set(c.states), c.initial, set(c.inputs), set(c.outputs)
            used = rng.choice(steps)
            if kind == "state":
                states.discard(used[rng.choice((0, 3))])
            elif kind == "input":
                inputs.discard(used[1])
            elif kind == "output":
                outputs.discard(used[2])
            else:
                initial = "elsewhere"
            if not (states and inputs and outputs):
                continue  # an empty declaration is inferred instead
            kinds[kind] += 1
            eager = Component(c.name, frozenset(states), initial, frozenset(inputs),
                              frozenset(outputs), frozenset(Transition(*t) for t in steps))
            names, ids = label_table(c)
            with pytest.raises(InvalidComponentError) as expected:
                EncodedComponent.of(eager, names, ids)
            issues = validate_component(eager).issues
            for load in loaders(component_to_text(eager), component_to_json(eager)):
                assert validate_component(load()).issues == issues
                with pytest.raises(InvalidComponentError) as got:
                    EncodedComponent.of(load(), names, ids)
                assert str(got.value) == str(expected.value)
        assert min(kinds.values()) >= 30, kinds

    def test_fixture_checks_build_no_transitions(self):
        """Certifying or checking the fixtures goes from file to packed
        rows without building a ``Transition``."""

        def load(name):
            return load_component(str(FIXTURES / f"{name}.fsm"))

        for iut1, spec1, iut2, spec2 in (
            ("coffee/iut_money", "coffee/spec_money", "coffee/drink", "coffee/drink"),
            ("coffee/iut_money", "coffee/spec_money_revised", "coffee/drink", "coffee/drink"),
            ("relay/iut_left", "relay/spec_left", "relay/right", "relay/right"),
        ):
            loaded = [load(name) for name in (iut1, spec1, iut2, spec2)]
            certify_in_context(*loaded)
            assert all("transitions" not in vars(c) for c in loaded)
            loaded = [load(name) for name in (iut1, spec1, iut2, spec2)]
            check_cioco_exact(loaded[0], loaded[1])
            check_cioco_exact(loaded[2], loaded[3])
            assert all("transitions" not in vars(c) for c in loaded)
            assert all("_packed" in vars(c) for c in loaded)

    def test_concurrent_first_reads_agree(self):
        """Threads racing on the first reads of freshly parsed components
        all see the eager twin's transitions, hash and rows."""
        rng = random.Random(521)
        twins = [random_component(rng, f"r{n}", ["a", "b", "c"], ["x", "y"], n_states=(2, 8))
                 for n in range(40)]
        texts = [component_to_text(c) for c in twins]
        reads = (lambda c: c.transitions, hash, lambda c: c._packed)
        expected = [tuple(read(c) for read in reads) for c in twins]
        n_threads = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                parsed = [component_from_text(text) for text in texts]
                start = threading.Barrier(n_threads)
                results = [None] * n_threads
                errors = []

                def work(k):
                    try:
                        start.wait(timeout=30)
                        order = list(range(len(parsed)))
                        random.Random(k).shuffle(order)
                        got = {}
                        for j in order:
                            shift = (j + k) % len(reads)
                            values = [read(parsed[j]) for read in reads[shift:] + reads[:shift]]
                            got[j] = tuple(values[-shift:] + values[:-shift])
                        results[k] = got
                    except Exception as exc:  # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert not errors, errors
                for got in results:
                    assert [got[j] for j in range(len(parsed))] == expected
                # with both caches filled, a component still equals, hashes,
                # pickles, copies and replaces as its eager twin
                for c, twin in zip(parsed, twins):
                    assert {"transitions", "_packed"} <= vars(c).keys()
                    for copied in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
                        assert copied == c == twin and hash(copied) == hash(twin)
                        assert copied._packed == twin._packed
                    assert dataclasses.replace(c, name="z") == dataclasses.replace(twin, name="z")
        finally:
            sys.setswitchinterval(interval)
