"""Finite input/output state machines and their trace semantics.

A component is a finite, possibly nondeterministic machine whose
transitions are labelled with an input/output pair. Traces are finite
sequences of such pairs executable from the initial state. All values
here are immutable; every operation is a pure function and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import starmap
from operator import attrgetter
from typing import Iterable

from .errors import TraceLimitError, UnknownInputError

SEPARATOR = "|"
#: Starts a comment in the text format.
COMMENT = "#"

#: Default cardinality guard for bounded trace enumeration.
DEFAULT_TRACE_GUARD = 1_000_000


@dataclass(frozen=True, order=True, slots=True)
class Step:
    """One input/output pair of a trace. Slotted: no per-instance ``__dict__``."""

    input: str
    output: str

    def __str__(self) -> str:
        return f"{self.input}{SEPARATOR}{self.output}"


Trace = tuple[Step, ...]

EMPTY_TRACE: Trace = ()


def step(text: str) -> Step:
    """Parse ``"a|x"`` into a Step."""
    left, sep, right = text.partition(SEPARATOR)
    if not sep or not left or not right:
        raise ValueError(f"malformed step {text!r}, expected 'input|output'")
    return Step(left, right)


def trace(text: str) -> Trace:
    """Parse a whitespace-separated step list, e.g. ``"a|x b|y"``."""
    return tuple(step(tok) for tok in text.split())


def format_trace(tr: Trace) -> str:
    return " ".join(str(s) for s in tr)


@dataclass(frozen=True, order=True, slots=True)
class Transition:
    """One step of a component from ``source`` to ``target``. Slotted, as
    ``Step`` is: a machine holds many of them."""

    source: str
    input: str
    output: str
    target: str

    def __str__(self) -> str:
        return f"{self.source} -{self.input}{SEPARATOR}{self.output}-> {self.target}"


#: ``Transition``'s field order: sorting by it gives the dataclass order.
_TRANSITION_ORDER = attrgetter("source", "input", "output", "target")


@dataclass(frozen=True)
class Component:
    """A finite machine (states, initial, inputs, outputs, transitions).

    Inputs and outputs may overlap within one component; validation only
    warns about it. State identifiers are opaque strings. The packed step
    rows the search kernels read are cached per object, next to ``arrows``.
    A parsed component (``_of_steps``) holds plain ``(source, input,
    output, target)`` tuples until ``transitions`` is first read.
    """

    name: str
    states: frozenset[str]
    initial: str
    inputs: frozenset[str]
    outputs: frozenset[str]
    transitions: frozenset[Transition]

    @staticmethod
    def build(
        name: str,
        initial: str,
        transitions: Iterable[tuple[str, str, str, str]],
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
        states: Iterable[str] = (),
    ) -> "Component":
        """Construct a component, inferring states and alphabets from transitions.

        Explicitly passed states/inputs/outputs are added on top, which
        allows declaring labels or states that no transition uses.
        """
        trans = frozenset(Transition(*t) for t in transitions)
        all_states = {initial, *states}
        all_inputs = set(inputs)
        all_outputs = set(outputs)
        for t in trans:
            all_states.add(t.source)
            all_states.add(t.target)
            all_inputs.add(t.input)
            all_outputs.add(t.output)
        return Component(
            name=name,
            states=frozenset(all_states),
            initial=initial,
            inputs=frozenset(all_inputs),
            outputs=frozenset(all_outputs),
            transitions=trans,
        )

    @staticmethod
    def _of_steps(name: str, states: frozenset[str], initial: str, inputs: frozenset[str],
                  outputs: frozenset[str], steps: frozenset[tuple[str, ...]]) -> Component:
        """The component whose transitions are ``steps``, each
        ``(source, input, output, target)``; its ``Transition`` set is
        built when first read, and ``_pack`` reads ``steps`` directly."""
        c = object.__new__(Component)
        c.__dict__.update(name=name, states=states, initial=initial, inputs=inputs,
                          outputs=outputs, _steps=steps)
        return c

    @cached_property
    def arrows(self) -> dict[str, dict[tuple[str, str], frozenset[str]]]:
        """state -> (input, output) -> set of successor states."""
        table: dict[str, dict[tuple[str, str], set[str]]] = {s: {} for s in self.states}
        for t in self.transitions:
            table.setdefault(t.source, {}).setdefault((t.input, t.output), set()).add(t.target)
        return {
            s: {io: frozenset(dst) for io, dst in by_io.items()}
            for s, by_io in table.items()
        }

    @cached_property
    def _packed(self) -> tuple[list[str], int, list[int]]:
        """Every integer encoding's states, initial id and rows (``_pack``)."""
        return _pack(self)

    def sorted_states(self) -> list[str]:
        return sorted(self.states)

    def sorted_transitions(self) -> list[Transition]:
        """The transitions in ``Transition``'s order, compared by a C-level key."""
        return sorted(self.transitions, key=_TRANSITION_ORDER)


# set after the class is made, so that the dataclass sees no default: the
# field that ``__init__`` sets shadows it, and on a parsed component the
# first read builds the ``Transition`` set of ``_of_steps``'s tuples
Component.transitions = cached_property(lambda c: frozenset(starmap(Transition, c._steps)))
Component.transitions.__set_name__(Component, "transitions")


def _pack(c: Component) -> tuple[list[str], int, list[int]]:
    """``c``'s sorted state names, initial id and rows over any label table
    holding its labels. ``KeyError`` when ``c`` uses what it does not declare.
    A parsed component's step tuples are read as they are, so packing it
    builds no ``Transition``; an eager one's fields are read in place,
    which is faster than building ``_step_tuples``'s tuples."""
    state_names = sorted(c.states)
    state_ids = {s: n for n, s in enumerate(state_names)}
    n = len(state_names)
    inputs, outputs = sorted(c.inputs), sorted(c.outputs)
    # slot (input, output) starts at (input's rank * |O| + output's rank) * n
    input_at = {x: k * len(outputs) * n for k, x in enumerate(inputs)}
    output_at = {x: k * n for k, x in enumerate(outputs)}
    rows = [0] * n
    steps = c.__dict__.get("_steps")
    if steps is None:
        for t in c.transitions:
            step = input_at[t.input] + output_at[t.output]
            rows[state_ids[t.source]] |= 1 << (step + state_ids[t.target])
    else:
        for source, i, o, target in steps:
            rows[state_ids[source]] |= 1 << (input_at[i] + output_at[o] + state_ids[target])
    return state_names, state_ids[c.initial], rows


def _step_tuples(c: Component) -> Iterable[tuple[str, str, str, str]]:
    """``c``'s steps as ``(source, input, output, target)`` tuples: a
    parsed component's as they are, so that reading them builds no
    ``Transition``, else its transitions' fields."""
    steps = c.__dict__.get("_steps")
    if steps is None:
        return [(t.source, t.input, t.output, t.target) for t in c.transitions]
    return steps


@dataclass(frozen=True)
class Issue:
    severity: str  # "error" | "warning"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[Issue, ...]

    @property
    def errors(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    @property
    def warnings(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")


_RESERVED = {SEPARATOR: "separator", COMMENT: "comment marker"}


def _label_problems(label: str, role: str, reserved: str = SEPARATOR + COMMENT) -> list[str]:
    """Why the text format cannot write ``label`` back: it is empty, or
    holds whitespace or one of the ``reserved`` characters. ``role``
    names it in the messages ("input label", "state")."""
    problems = []
    if not label:
        problems.append(f"{role} is empty")
    elif label.split() != [label]:  # split() breaks exactly where isspace() holds
        problems.append(f"{role} {label!r} contains whitespace")
    for ch in reserved:
        if ch in label:
            problems.append(f"{role} {label!r} contains the reserved {_RESERVED[ch]} {ch!r}")
    return problems


def reachable_states(c: Component) -> frozenset[str]:
    seen = {c.initial}
    stack = [c.initial]
    while stack:
        s = stack.pop()
        for targets in c.arrows.get(s, {}).values():
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return frozenset(seen)


def _undeclared(c: Component) -> str | None:
    """What the least of ``c``'s transitions, or else its initial state,
    uses without declaring it; None when nothing is."""
    where = f"component '{c.name}'"
    states, inputs, outputs = c.states, c.inputs, c.outputs
    for t in sorted(t for t in c.transitions if t.source not in states or t.target not in states
                    or t.input not in inputs or t.output not in outputs):
        for state in (t.source, t.target):
            if state not in states:
                return f"{where}: transition {t} uses undeclared state '{state}'"
        if t.input not in inputs:
            return f"{where}: transition {t} uses input '{t.input}' not in its input alphabet"
        return f"{where}: transition {t} uses output '{t.output}' not in its output alphabet"
    if c.initial not in states:
        return f"{where}: initial state '{c.initial}' is not declared"
    return None


def validate_component(c: Component) -> ValidationReport:
    """Check the structural invariants of a component.

    Every violated invariant is reported; nothing is raised. Warnings
    (unreachable states, dead-end states, overlapping or empty alphabets)
    never make the report not-ok.
    """
    issues: list[Issue] = []

    def error(msg: str) -> None:
        issues.append(Issue("error", msg))

    def warn(msg: str) -> None:
        issues.append(Issue("warning", msg))

    if c.initial not in c.states:
        error(f"initial state '{c.initial}' not in states")
    for label in sorted(c.inputs):
        for p in _label_problems(label, "input label"):
            error(p)
    for label in sorted(c.outputs):
        for p in _label_problems(label, "output label"):
            error(p)
    for s in c.sorted_states():
        if not s:
            error("state identifier is empty")
        elif _label_problems(s, "state", COMMENT):  # the loaders refuse it
            warn(f"state '{s}' is not representable in the text format")

    for t in c.sorted_transitions():
        if t.source not in c.states:
            error(f"transition source '{t.source}' not in states: {t}")
        if t.target not in c.states:
            error(f"transition target '{t.target}' not in states: {t}")
        if t.input not in c.inputs:
            error(f"transition input '{t.input}' not in input alphabet: {t}")
        if t.output not in c.outputs:
            error(f"transition output '{t.output}' not in output alphabet: {t}")

    if not c.inputs:
        warn("input alphabet is empty (only the empty trace is executable)")
    if not c.outputs:
        warn("output alphabet is empty")
    overlap = c.inputs & c.outputs
    if overlap:
        warn(f"inputs and outputs overlap: {sorted(overlap)}")

    if c.initial in c.states:
        unreachable = c.states - reachable_states(c)
        for s in sorted(unreachable):
            warn(f"state '{s}' is unreachable from the initial state")
    sources = {t.source for t in c.transitions}
    for s in sorted(c.states - sources):
        warn(f"state '{s}' has no outgoing transitions")

    ok = not any(i.severity == "error" for i in issues)
    return ValidationReport(ok=ok, issues=tuple(issues))


def states_after(c: Component, tr: Trace) -> frozenset[str]:
    """States reachable from the initial state along ``tr``.

    Empty iff ``tr`` is not a trace of ``c``.
    """
    current = frozenset([c.initial])
    for s in tr:
        nxt: set[str] = set()
        key = (s.input, s.output)
        for state in current:
            nxt.update(c.arrows.get(state, {}).get(key, ()))
        if not nxt:
            return frozenset()
        current = frozenset(nxt)
    return current


def has_trace(c: Component, tr: Trace) -> bool:
    return bool(states_after(c, tr))


def traces_up_to(c: Component, k: int, guard: int = DEFAULT_TRACE_GUARD) -> set[Trace]:
    """All traces of ``c`` of length at most ``k``.

    Raises TraceLimitError when the set would exceed ``guard`` members.
    """
    if k < 0:
        raise ValueError("depth bound must be non-negative")
    result: set[Trace] = {EMPTY_TRACE}
    frontier: list[tuple[Trace, frozenset[str]]] = [(EMPTY_TRACE, frozenset([c.initial]))]
    for _ in range(k):
        nxt: list[tuple[Trace, frozenset[str]]] = []
        for tr, states in frontier:
            steps: dict[tuple[str, str], set[str]] = {}
            for state in states:
                for io, targets in c.arrows.get(state, {}).items():
                    steps.setdefault(io, set()).update(targets)
            for (i, o) in sorted(steps):
                extended = tr + (Step(i, o),)
                result.add(extended)
                if len(result) > guard:
                    raise TraceLimitError(guard, f"traces of '{c.name}' up to depth {k}")
                nxt.append((extended, frozenset(steps[(i, o)])))
        frontier = nxt
        if not frontier:
            break
    return result


def sorted_traces(traces: Iterable[Trace]) -> list[Trace]:
    """Canonical ordering: by length, then lexicographically by step labels."""
    return sorted(traces, key=lambda tr: (len(tr), tr))


def out_after(c: Component, tr: Trace, i: str) -> frozenset[str]:
    """Outputs ``o`` such that ``tr + (i|o)`` is a trace of ``c``.

    Raises UnknownInputError for ``i`` outside the input alphabet, so
    callers can tell "unspecified input" apart from "no continuation".
    """
    if i not in c.inputs:
        raise UnknownInputError(i, c.name)
    return frozenset(o for state in states_after(c, tr)
                     for (j, o) in c.arrows.get(state, {}) if j == i)


def is_input_enabled(c: Component) -> bool:
    """True iff every state has at least one transition for every input."""
    return all({i for i, _ in c.arrows[s]} >= c.inputs for s in c.states)


def complete(c: Component, policy: str = "loop", label: str = "abs") -> Component:
    """Make a component input-enabled by filling in missing (state, input) pairs.

    policy "loop": each missing pair gets a self-loop emitting ``label``.
    policy "sink": each missing pair redirects to a fresh sink state that
    loops on every input emitting ``label``.

    Already input-enabled components are returned unchanged.
    """
    if policy not in ("loop", "sink"):
        raise ValueError(f"unknown completion policy {policy!r}")
    missing = [
        (s, i) for s in c.sorted_states() for i in sorted(c.inputs - {j for j, _ in c.arrows[s]})
    ]
    if not missing:
        return c

    new_transitions = set(c.transitions)
    new_states = set(c.states)
    if policy == "loop":
        for s, i in missing:
            new_transitions.add(Transition(s, i, label, s))
    else:
        sink = "sink"
        while sink in new_states:
            sink += "~"
        new_states.add(sink)
        for s, i in missing:
            new_transitions.add(Transition(s, i, label, sink))
        for i in sorted(c.inputs):
            new_transitions.add(Transition(sink, i, label, sink))
    return Component(
        name=c.name,
        states=frozenset(new_states),
        initial=c.initial,
        inputs=c.inputs,
        outputs=c.outputs | {label},
        transitions=frozenset(new_transitions),
    )
