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
from .machine import SEPARATOR, Component, Trace, Transition


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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "component":
            if len(args) != 1:
                raise ParseError("expected: component <name>", lineno, path)
            name = args[0]
        elif directive == "states":
            states.extend(args)
        elif directive == "inputs":
            inputs.extend(args)
        elif directive == "outputs":
            outputs.extend(args)
        elif directive == "initial":
            if len(args) != 1:
                raise ParseError("expected: initial <state>", lineno, path)
            initial = args[0]
        elif directive == "trans":
            if len(args) != 3:
                raise ParseError(
                    "expected: trans <state> <input>|<output> <state>", lineno, path
                )
            label = args[1]
            left, sep, right = label.partition(SEPARATOR)
            if not sep or not left or not right:
                raise ParseError(
                    f"malformed label {label!r}, expected <input>|<output>", lineno, path
                )
            transitions.append((args[0], left, right, args[2]))
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno, path)

    if name is None:
        raise ParseError("missing 'component' directive", None, path)
    if initial is None:
        raise ParseError("missing 'initial' directive", None, path)
    return _assemble(name, initial, transitions, inputs, outputs, states)


def _assemble(name, initial, transitions, inputs, outputs, states) -> Component:
    """Explicit declarations are authoritative; omitted ones are inferred.

    Keeping declared sets as-is lets validation flag transitions or
    initial states that reference something undeclared.
    """
    trans = frozenset(Transition(*t) for t in transitions)
    if not states:
        states = {initial} | {t.source for t in trans} | {t.target for t in trans}
    if not inputs:
        inputs = {t.input for t in trans}
    if not outputs:
        outputs = {t.output for t in trans}
    return Component(
        name=name,
        states=frozenset(states),
        initial=initial,
        inputs=frozenset(inputs),
        outputs=frozenset(outputs),
        transitions=trans,
    )


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
    return _assemble(
        string(data, "name"),
        string(data, "initial"),
        [tuple(string(t, key) for key in ("from", "input", "output", "to")) for t in transitions],
        strings("inputs"),
        strings("outputs"),
        strings("states"),
    )


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
