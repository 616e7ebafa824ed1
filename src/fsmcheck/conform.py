"""Conformance checking between an implementation and a specification.

The central relation is cioco: after every specification trace and every
input, the implementation may only produce outputs the specification
allows. The exact decision procedure explores pairs of state subsets
reached by common traces; a bounded enumeration of specification traces
serves as an independent oracle.

Inputs for which the specification has no continuation after a trace are
unconstrained by default (``unspecified="allow"``); ``"forbid"`` treats
any implementation output on them as a violation, which makes the
relation coincide with trace inclusion. ``check_trace_inclusion`` is that
strict exact check, without the input-enabledness warning.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from typing import Callable

from . import _core
from ._core import CheckStats
from .errors import InvalidComponentError, SignatureMismatchError, TraceLimitError
from .machine import (
    Component,
    Step,
    Trace,
    _undeclared,
    DEFAULT_TRACE_GUARD,
)

# Not called here. perfbench/spans.py times the machine layer by wrapping
# these names in this module, so they stay importable from it.
from .machine import out_after, sorted_traces, states_after, traces_up_to  # noqa: F401

UNSPECIFIED_MODES = ("allow", "forbid")


@dataclass(frozen=True)
class Counterexample:
    """A specification trace after which the implementation over-produces.

    ``witness`` is executable by both machines, ``witness + (input |
    offending_output)`` only by the implementation.
    """

    witness: Trace
    input: str
    offending_output: str
    iut_outputs: frozenset[str]
    spec_outputs: frozenset[str]

    def full_trace(self) -> Trace:
        return self.witness + (Step(self.input, self.offending_output),)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["witness"] = [{"input": s.input, "output": s.output} for s in self.witness]
        out["iut_outputs"] = sorted(self.iut_outputs)
        out["spec_outputs"] = sorted(self.spec_outputs)
        return out


@dataclass(frozen=True)
class Verdict:
    """Outcome of a conformance check.

    ``result`` is "pass", "fail" or "inconclusive"; a bounded check that
    finds no violation is inconclusive, never a silent pass.
    """

    result: str
    method: str  # "exact" | "bounded"
    counterexample: Counterexample | None = None
    stats: CheckStats | None = None
    depth: int | None = None
    warnings: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    @property
    def failed(self) -> bool:
        return self.result == "fail"

    def to_dict(self) -> dict:
        ce = self.counterexample
        found = (  # the counterexample's fields, all None when there is none
            dict.fromkeys(f.name for f in fields(Counterexample)) if ce is None else ce.to_dict()
        )
        out = {
            "result": self.result,
            "method": self.method,
            **found,
            "stats": None
            if self.stats is None
            else {
                "explored_pairs": self.stats.explored_pairs,
                "max_depth": self.stats.max_depth,
            },
        }
        if self.method == "bounded":
            out["depth"] = self.depth
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def _require_same_signature(iut: Component, spec: Component) -> None:
    if iut.inputs != spec.inputs or iut.outputs != spec.outputs:
        raise SignatureMismatchError(
            f"'{iut.name}' and '{spec.name}' do not share a signature: "
            f"inputs {sorted(iut.inputs)} vs {sorted(spec.inputs)}, "
            f"outputs {sorted(iut.outputs)} vs {sorted(spec.outputs)}"
        )


def _mode_strict(unspecified: str) -> bool:
    if unspecified not in UNSPECIFIED_MODES:
        raise ValueError(f"unspecified must be one of {UNSPECIFIED_MODES}, got {unspecified!r}")
    return unspecified == "forbid"


def _input_enabled_warnings(name: str, enabled: bool) -> tuple[str, ...]:
    return () if enabled else (f"implementation '{name}' is not input-enabled",)


def _decode_counterexample(raw, label_names) -> Counterexample:
    steps, i, o, iut_outs, spec_outs = raw
    return Counterexample(
        witness=tuple(Step(label_names[a], label_names[b]) for (a, b) in steps),
        input=label_names[i],
        offending_output=label_names[o],
        iut_outputs=frozenset(label_names[x] for x in iut_outs),
        spec_outputs=frozenset(label_names[x] for x in spec_outs),
    )


def check_cioco_exact(iut: Component, spec: Component, unspecified: str = "allow") -> Verdict:
    """Decide cioco exactly.

    Breadth-first exploration of subset pairs reached by common traces
    guarantees a minimal-length witness with deterministic lexicographic
    tie-breaking. Termination follows from the finite number of subset
    pairs. Traces of the specification that the implementation cannot
    execute need no exploration: the implementation produces nothing
    after them.
    """
    _require_same_signature(iut, spec)
    enc_iut, enc_spec, _, _ = _core.encode_pair(iut, spec)
    return _exact_verdict(enc_iut, enc_spec, unspecified)


def _check_against_projection(iut: Component, spec: _core.EncodedComponent) -> Verdict:
    """Strict ``check_cioco_exact`` against an in-context projection on ids.

    ``iut`` is encoded over the projection's label table, which must hold
    all of its labels, and must have the projection's signature. The
    verdict is ``check_cioco_exact(iut, spec.decode(), "forbid")``.
    """
    enc_iut = _core.EncodedComponent.of(iut, spec.label_names, spec.label_ids)
    return _exact_verdict(enc_iut, spec, "forbid")


def _exact_verdict(
    enc_iut: _core.EncodedComponent,
    enc_spec: _core.EncodedComponent,
    unspecified: str,
    *,
    warn: bool = True,
) -> Verdict:
    """Run the subset-pair search on two encodings over one label table.

    The verdict does not depend on how either side numbers its states,
    and label ids sort as their names, so any such pair of encodings of
    the same machines gives the same verdict. Input-enabledness is read
    from the implementation's encoding, which holds all of its states:
    the warning is the one ``is_input_enabled`` would give. With ``warn``
    false it is neither computed nor given.
    """
    strict = _mode_strict(unspecified)
    warnings = _input_enabled_warnings(enc_iut.name, enc_iut.input_enabled()) if warn else ()
    raw, stats = _core.cioco_bfs(enc_iut, enc_spec, strict)
    return Verdict(
        "pass" if raw is None else "fail",
        "exact",
        counterexample=None if raw is None else _decode_counterexample(raw, enc_spec.label_names),
        stats=stats,
        warnings=warnings,
    )


def _step_table(c: Component) -> dict[str, dict[tuple[str, str], set[str]]]:
    """``c``'s steps, state -> (input, output) -> targets, from one pass
    over its transitions.

    Raises ``InvalidComponentError``, with the exact check's message,
    when ``c`` uses a state or label it does not declare.
    """
    states, inputs, outputs = c.states, c.inputs, c.outputs
    declared = c.initial in states
    table: dict[str, dict[tuple[str, str], set[str]]] = {}
    for t in c.transitions:
        source, i, o, target = t.source, t.input, t.output, t.target
        declared = (declared and source in states and target in states
                    and i in inputs and o in outputs)
        table.setdefault(source, {}).setdefault((i, o), set()).add(target)
    if not declared:
        raise InvalidComponentError(_undeclared(c))
    return table


def _union_per_state_set(table: dict) -> Callable[[frozenset[str]], dict]:
    """Memoized union of ``table[state]`` (key -> set of values) over a state set.

    The result maps each key to a frozenset, keys in sorted order. Every
    trace reaching the same state set shares the same result.
    """
    memo: dict[frozenset[str], dict] = {}

    def union(states: frozenset[str]) -> dict:
        found = memo.get(states)
        if found is None:
            merged: dict = {}
            for state in states:
                for key, values in table.get(state, {}).items():
                    merged.setdefault(key, set()).update(values)
            found = memo[states] = {key: frozenset(merged[key]) for key in sorted(merged)}
        return found

    return union


#: The states the specification and the implementation reach along a trace.
_Pair = tuple[frozenset[str], frozenset[str]]


def _first_violation(
    iut_steps: dict[tuple[str, str], frozenset[str]],
    spec_steps: dict[tuple[str, str], frozenset[str]],
    strict: bool,
) -> tuple[str, str, frozenset[str], frozenset[str]] | None:
    """The least (input, output) step the implementation takes and the
    specification does not, on an input the specification constrains;
    None when there is none.

    An input is unconstrained when the specification has no step on it,
    unless ``strict``. Returns (input, offending output, iut outputs,
    spec outputs), the fields of a Counterexample after its witness.
    """
    extra = iut_steps.keys() - spec_steps.keys()
    if extra and not strict:
        constrained = {i for i, _ in spec_steps}
        extra = [io for io in extra if io[0] in constrained]
    if not extra:
        return None
    i, o = min(extra)
    return (i, o, frozenset(x for j, x in iut_steps if j == i),
            frozenset(x for j, x in spec_steps if j == i))


def check_cioco_bounded(
    iut: Component,
    spec: Component,
    k: int,
    unspecified: str = "allow",
    guard: int = DEFAULT_TRACE_GUARD,
) -> Verdict:
    """Check cioco over all specification traces of length at most ``k``.

    Independent of the exact decision procedure: enumerates every
    specification trace explicitly and compares output sets after each
    one. Finding no violation up to the bound is reported as
    inconclusive.

    Traces are examined in canonical order: by length, then
    lexicographically by step. The enumeration is breadth-first, one
    length at a time; a trace is represented by the pair of state sets
    the two machines reach along it, so no trace is replayed from the
    initial state. The comparison and the one-step extensions are
    memoized per distinct pair, but traces are still counted one by one
    in canonical order, and the first violating trace in that order is
    the counterexample. Its steps are rebuilt only then.

    ``stats.explored_pairs`` counts the traces examined: the 1-based
    position of the failing trace in canonical order, or every trace up
    to ``k`` when none fails.

    Raises ``InvalidComponentError``, as the exact check does, when
    either side uses a state or label it does not declare.

    ``guard`` bounds the number of specification traces up to ``k``
    exactly as in ``traces_up_to``: TraceLimitError is raised whenever
    that enumeration would raise it, even if a violation exists. The
    traces are counted before any is examined.
    """
    _require_same_signature(iut, spec)
    iut_table, spec_table = _step_table(iut), _step_table(spec)
    strict = _mode_strict(unspecified)
    n_inputs = len(iut.inputs)
    enabled = all(len({i for i, _ in iut_table.get(s, ())}) == n_inputs for s in iut.states)
    warnings = _input_enabled_warnings(iut.name, enabled)
    if k < 0:
        raise ValueError("depth bound must be non-negative")

    spec_moves = _union_per_state_set(spec_table)
    start = frozenset([spec.initial])

    # The guard bounds the specification's traces up to k as traces_up_to
    # counts them: tested only when a trace is added, and whether or not
    # a violation comes first. Counting them needs only how many traces
    # reach each specification state set.
    enumerated = 1
    reaching = {start: 1}
    for _ in range(k):
        longer_reaching: dict[frozenset[str], int] = {}
        for spec_states, n in reaching.items():
            for target in spec_moves(spec_states).values():
                longer_reaching[target] = longer_reaching.get(target, 0) + n
                enumerated += n
                if enumerated > guard:
                    raise TraceLimitError(guard, f"traces of '{spec.name}' up to depth {k}")
        if not longer_reaching:
            break
        reaching = longer_reaching

    iut_moves = _union_per_state_set(iut_table)
    nowhere: frozenset[str] = frozenset()

    # Each level lists, in canonical order, the (specification states,
    # implementation states) pair that each trace of one length reaches.
    # The pairs with known extensions are those seen at a shorter length,
    # where they had no violation, so only the other pairs are compared.
    extensions: dict[_Pair, list[_Pair]] = {}  # a pair's children, in sorted step order
    shorter: list[list[_Pair]] = []
    level: list[_Pair] = [(start, frozenset([iut.initial]))]
    distinct = set(level)
    checked = 0
    for depth in range(k + 1):
        if depth:
            for pair in distinct.difference(extensions):
                spec_states, iut_states = pair
                iut_after = iut_moves(iut_states)
                extensions[pair] = [(target, iut_after.get(io, nowhere))
                                    for io, target in spec_moves(spec_states).items()]
            shorter.append(level)
            level = list(chain.from_iterable(map(extensions.__getitem__, level)))
            if not level:
                break
            distinct = set(level)
        found = {}
        for spec_states, iut_states in distinct.difference(extensions):
            violation = _first_violation(iut_moves(iut_states), spec_moves(spec_states), strict)
            if violation is not None:
                found[spec_states, iut_states] = violation
        if not found:
            checked += len(level)
            continue
        position = next(j for j, pair in enumerate(level) if pair in found)
        violation = found[level[position]]
        checked += position + 1
        # Rebuild the witness from its end. A parent's children lie side
        # by side in the next level, so each parent's start offset there
        # is the sum of the child counts before it.
        witness: list[Step] = []
        for parents in reversed(shorter):
            starts = list(accumulate(map(len, map(extensions.__getitem__, parents)), initial=0))
            parent = bisect_right(starts, position) - 1
            steps = list(spec_moves(parents[parent][0]))
            witness.append(Step(*steps[position - starts[parent]]))
            position = parent
        return Verdict(
            "fail",
            "bounded",
            counterexample=Counterexample(tuple(reversed(witness)), *violation),
            stats=CheckStats(checked, depth),
            depth=k,
            warnings=warnings,
        )
    return Verdict(
        "inconclusive",
        "bounded",
        stats=CheckStats(checked, k),
        depth=k,
        warnings=warnings,
    )


def check_trace_inclusion(c1: Component, c2: Component) -> Verdict:
    """Decide Trace(c1) <= Trace(c2) exactly.

    This is ``check_cioco_exact(c1, c2, "forbid")`` without its
    input-enabledness warning. On failure the counterexample's full
    trace is a shortest sequence executable by c1 but not by c2.
    """
    _require_same_signature(c1, c2)
    enc1, enc2, _, _ = _core.encode_pair(c1, c2)
    return _exact_verdict(enc1, enc2, "forbid", warn=False)
