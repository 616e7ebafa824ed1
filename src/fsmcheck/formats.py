"""Component serialization: line-oriented text format and a JSON mirror.

Text format, one directive per line, ``#`` starts a comment::

    component <name>
    states <state> <state> ...        # optional; states are also inferred
    inputs <label> <label> ...
    outputs <label> <label> ...
    initial <state>
    trans <state> <input>|<output> <state>

The JSON mirror carries the same fields. Both formats round-trip
losslessly (the states list preserves states no transition touches).
System expressions use s-expression syntax: ``(par M D)``,
``(par (par A B) C)``.
"""

from __future__ import annotations

import json

from .compose import Leaf, Par, SystemExpr
from .errors import ParseError
from .machine import COMMENT, SEPARATOR, Component, Trace, _label_problems


def component_to_text(c: Component) -> str:
    lines = [f"component {c.name}"]
    lines.append("states " + " ".join(c.sorted_states()))
    lines.append("inputs " + " ".join(sorted(c.inputs)))
    lines.append("outputs " + " ".join(sorted(c.outputs)))
    lines.append(f"initial {c.initial}")
    for t in c.sorted_transitions():
        lines.append(f"trans {t.source} {t.input}{SEPARATOR}{t.output} {t.target}")
    return "\n".join(lines) + "\n"


def component_from_text(text: str, path: str | None = None) -> Component:
    name = None
    states: list[str] = []
    inputs: list[str] = []
    outputs: list[str] = []
    initial = None
    transitions: list[tuple[str, str, str, str]] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if COMMENT in line:
            line = line.split(COMMENT, 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "trans":  # by far the most common directive
            if len(tokens) != 4:
                raise ParseError(
                    "expected: trans <state> <input>|<output> <state>", lineno, path
                )
            _, source, label, target = tokens
            left, sep, right = label.partition(SEPARATOR)
            if not sep or not left or not right or SEPARATOR in right:
                raise ParseError(
                    f"malformed label {label!r}, expected <input>|<output>", lineno, path
                )
            transitions.append((source, left, right, target))
        elif directive == "component":
            if len(tokens) != 2:
                raise ParseError("expected: component <name>", lineno, path)
            name = tokens[1]
        elif directive == "states":
            states.extend(tokens[1:])
        elif directive == "inputs":
            inputs.extend(tokens[1:])
        elif directive == "outputs":
            outputs.extend(tokens[1:])
        elif directive == "initial":
            if len(tokens) != 2:
                raise ParseError("expected: initial <state>", lineno, path)
            initial = tokens[1]
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno, path)

    if name is None:
        raise ParseError("missing 'component' directive", None, path)
    if initial is None:
        raise ParseError("missing 'initial' directive", None, path)
    # Each token is non-empty and holds no whitespace or '#', and a step's
    # label was split at its only '|': only a declared label can hold one.
    _refuse_unwritable(path, ("input label", [w for w in inputs if SEPARATOR in w], SEPARATOR),
                       ("output label", [w for w in outputs if SEPARATOR in w], SEPARATOR))
    return _assemble(name, initial, transitions, inputs, outputs, states)


def _refuse_unwritable(path, *checks) -> None:
    """Raise the least problem (``_label_problems``) of the first
    ``(role, words, reserved)`` check that finds one, as a ParseError
    without a line: a word the text format cannot write back."""
    for role, words, reserved in checks:
        problems = [p for word in words for p in _label_problems(word, role, reserved)]
        if problems:
            raise ParseError(min(problems), None, path)


def _assemble(name, initial, transitions, inputs, outputs, states) -> Component:
    """Explicit declarations are authoritative; omitted ones are inferred.

    Keeping declared sets as-is lets validation flag transitions or
    initial states that reference something undeclared. The transitions
    stay ``(source, input, output, target)`` tuples (``Component._of_steps``).
    Each loader has already refused the words its own syntax lets
    through and the text format cannot write back.
    """
    steps = frozenset(transitions)
    sources, step_inputs, step_outputs, targets = zip(*steps) if steps else ((),) * 4
    states = frozenset(states or (initial, *sources, *targets))
    inputs, outputs = frozenset(inputs or step_inputs), frozenset(outputs or step_outputs)
    return Component._of_steps(name, states, initial, inputs, outputs, steps)


def component_to_dict(c: Component) -> dict:
    return {
        "name": c.name,
        "states": c.sorted_states(),
        "inputs": sorted(c.inputs),
        "outputs": sorted(c.outputs),
        "initial": c.initial,
        "transitions": [
            {"from": t.source, "input": t.input, "output": t.output, "to": t.target}
            for t in c.sorted_transitions()
        ],
    }


def component_from_dict(data: dict, path: str | None = None) -> Component:
    """Build a component from its JSON object.

    ``name`` and ``initial`` must be strings; ``states``, ``inputs`` and
    ``outputs``, where present, lists of strings; ``transitions`` a list
    of objects whose ``from``, ``input``, ``output`` and ``to`` are
    strings. Anything else is a ParseError.
    """

    def malformed(why: str) -> ParseError:
        return ParseError(f"malformed component object: {why}", None, path)

    def string(obj: dict, key: str) -> str:
        if key not in obj:
            raise malformed(f"missing {key!r}")
        if not isinstance(obj[key], str):
            raise malformed(f"{key!r} must be a string")
        return obj[key]

    def strings(key: str) -> list[str]:
        value = data.get(key, [])
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise malformed(f"{key!r} must be a list of strings")
        return value

    if not isinstance(data, dict):
        raise malformed("expected an object")
    transitions = data.get("transitions", [])
    if not isinstance(transitions, list) or not all(isinstance(t, dict) for t in transitions):
        raise malformed("'transitions' must be a list of objects")
    name, initial = string(data, "name"), string(data, "initial")
    steps = [tuple(string(t, key) for key in ("from", "input", "output", "to")) for t in transitions]
    inputs, outputs, states = strings("inputs"), strings("outputs"), strings("states")
    sources, step_inputs, step_outputs, targets = zip(*steps) if steps else ((),) * 4
    _refuse_unwritable(  # JSON words may be any text
        path,
        ("component name", (name,), COMMENT),
        ("state", {initial, *states, *sources, *targets}, COMMENT),
        ("input label", {*inputs, *step_inputs}, SEPARATOR + COMMENT),
        ("output label", {*outputs, *step_outputs}, SEPARATOR + COMMENT),
    )
    return _assemble(name, initial, steps, inputs, outputs, states)


def component_to_json(c: Component) -> str:
    return json.dumps(component_to_dict(c), indent=2, sort_keys=False) + "\n"


def component_from_json(text: str, path: str | None = None) -> Component:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", exc.lineno, path) from None
    except (ValueError, RecursionError) as exc:
        # an integer literal too long to convert, or nesting too deep
        raise ParseError(f"invalid JSON: {exc}", None, path) from None
    return component_from_dict(data, path)


def load_component(path: str) -> Component:
    """Load a component from a file; JSON when the suffix is .json."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror}", None, path) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", None, path) from None
    if str(path).endswith(".json"):
        return component_from_json(text, path)
    return component_from_text(text, path)


def render_component(c: Component, path: str) -> str:
    """``c`` in the format ``path`` names: JSON for ``.json``, else text."""
    return component_to_json(c) if str(path).endswith(".json") else component_to_text(c)


def trace_to_list(tr: Trace) -> list[dict]:
    return [{"input": s.input, "output": s.output} for s in tr]


def parse_system_expr(text: str, components: dict[str, Component]) -> SystemExpr:
    """Parse ``(par A B)`` style expressions over named components."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    used: set[str] = set()

    def parse() -> SystemExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] != "par":
                raise ParseError("expected 'par' after '('")
            pos += 1
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError("expected ')'")
            pos += 1
            return Par(left, right)
        if tok == ")":
            raise ParseError("unexpected ')'")
        if tok not in components:
            raise ParseError(
                f"unknown component {tok!r} (loaded: {sorted(components)})"
            )
        if tok in used:
            raise ParseError(f"component {tok!r} appears twice in the expression")
        used.add(tok)
        return Leaf(tok, components[tok])

    try:
        expr = parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after expression: {' '.join(tokens[pos:])}")
    return expr


def to_dot(c: Component) -> str:
    """Graphviz rendering, transitions labelled input|output."""
    lines = [f'digraph "{c.name}" {{', "  rankdir=LR;", '  __start [shape=point, label=""];']
    for s in c.sorted_states():
        lines.append(f'  "{s}" [shape=circle];')
    lines.append(f'  __start -> "{c.initial}";')
    for t in c.sorted_transitions():
        lines.append(f'  "{t.source}" -> "{t.target}" [label="{t.input}{SEPARATOR}{t.output}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
