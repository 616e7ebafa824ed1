"""Conformance checking between an implementation and a specification.

The central relation is cioco: after every specification trace and every
input, the implementation may only produce outputs the specification
allows. The exact decision procedure explores pairs of state subsets
reached by common traces; a bounded enumeration of specification traces
serves as an independent oracle. Trace inclusion is provided as a
stronger helper relation.

Inputs for which the specification has no continuation after a trace are
unconstrained by default (``unspecified="allow"``); ``"forbid"`` treats
any implementation output on them as a violation, which makes the
relation coincide with trace inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import _core
from .errors import SignatureMismatchError, TraceLimitError
from .machine import (
    Component,
    Step,
    Trace,
    is_input_enabled,
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
        return {
            "witness": [{"input": s.input, "output": s.output} for s in self.witness],
            "input": self.input,
            "offending_output": self.offending_output,
            "iut_outputs": sorted(self.iut_outputs),
            "spec_outputs": sorted(self.spec_outputs),
        }


@dataclass(frozen=True)
class CheckStats:
    explored_pairs: int
    max_depth: int


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
        out = {
            "result": self.result,
            "method": self.method,
            "witness": None if ce is None else [
                {"input": s.input, "output": s.output} for s in ce.witness
            ],
            "input": None if ce is None else ce.input,
            "offending_output": None if ce is None else ce.offending_output,
            "iut_outputs": None if ce is None else sorted(ce.iut_outputs),
            "spec_outputs": None if ce is None else sorted(ce.spec_outputs),
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
) -> Verdict:
    """Run the subset-pair search on two encodings over one label table.

    The verdict does not depend on how either side numbers its states,
    and label ids sort as their names, so any such pair of encodings of
    the same machines gives the same verdict. Input-enabledness is read
    from the implementation's encoding, which holds all of its states:
    the warning is the one ``is_input_enabled`` would give.
    """
    strict = _mode_strict(unspecified)
    warnings = _input_enabled_warnings(enc_iut.name, enc_iut.input_enabled())
    raw, (explored, max_depth) = _core.cioco_bfs(enc_iut, enc_spec, strict)
    stats = CheckStats(explored, max_depth)

    if raw is None:
        return Verdict("pass", "exact", stats=stats, warnings=warnings)
    return Verdict(
        "fail",
        "exact",
        counterexample=_decode_counterexample(raw, enc_spec.label_names),
        stats=stats,
        warnings=warnings,
    )


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


def _first_violation(
    inputs: list[str],
    iut_outs_by_input: dict[str, frozenset[str]],
    spec_outs_by_input: dict[str, frozenset[str]],
    strict: bool,
) -> tuple[str, str, frozenset[str], frozenset[str]] | None:
    """The first input on which the implementation over-produces, or None.

    Returns (input, least offending output, iut outputs, spec outputs),
    the fields of a Counterexample after its witness.
    """
    for i in inputs:
        iut_outs = iut_outs_by_input.get(i)
        if not iut_outs:
            continue
        spec_outs = spec_outs_by_input.get(i, frozenset())
        if not spec_outs and not strict:
            continue
        if not iut_outs <= spec_outs:
            return i, min(iut_outs - spec_outs), iut_outs, spec_outs
    return None


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
    length at a time; each trace carries the states both machines reach
    along it, so no trace is replayed from the initial state. The first
    violation in this order is the counterexample.

    ``stats.explored_pairs`` counts the traces examined: the 1-based
    position of the failing trace in canonical order, or every trace up
    to ``k`` when none fails.

    ``guard`` bounds the number of specification traces up to ``k``
    exactly as in ``traces_up_to``: TraceLimitError is raised whenever
    that enumeration would raise it, even if a violation exists. The
    traces are counted before any is examined.
    """
    _require_same_signature(iut, spec)
    strict = _mode_strict(unspecified)
    warnings = _input_enabled_warnings(iut.name, is_input_enabled(iut))
    if k < 0:
        raise ValueError("depth bound must be non-negative")

    spec_moves = _union_per_state_set(spec.arrows)
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

    inputs = sorted(spec.inputs)
    iut_moves = _union_per_state_set(iut.arrows)
    spec_outputs = _union_per_state_set(spec.outputs_by_input)
    iut_outputs = _union_per_state_set(iut.outputs_by_input)
    steps = {(t.input, t.output): Step(t.input, t.output) for t in spec.transitions}
    nowhere: frozenset[str] = frozenset()

    # The traces of one length, each with the states the specification
    # and the implementation reach along it.
    level: list[tuple[Trace, frozenset[str], frozenset[str]]] = [
        ((), start, frozenset([iut.initial]))
    ]
    checked = 0
    for depth in range(k + 1):
        if depth:
            longer = []
            for tr, spec_states, iut_states in level:
                iut_after = iut_moves(iut_states)
                for io, target in spec_moves(spec_states).items():
                    longer.append((tr + (steps[io],), target, iut_after.get(io, nowhere)))
            if not longer:
                break
            level = longer
        for tr, spec_states, iut_states in level:
            checked += 1
            if not iut_states:
                continue
            found = _first_violation(
                inputs, iut_outputs(iut_states), spec_outputs(spec_states), strict
            )
            if found is not None:
                return Verdict(
                    "fail",
                    "bounded",
                    counterexample=Counterexample(tr, *found),
                    stats=CheckStats(checked, len(tr)),
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

    On failure the counterexample's full trace is a shortest sequence
    executable by c1 but not by c2.
    """
    _require_same_signature(c1, c2)
    enc1, enc2, label_names, _ = _core.encode_pair(c1, c2)
    raw, (explored, max_depth) = _core.inclusion_bfs(enc1, enc2)
    stats = CheckStats(explored, max_depth)
    if raw is None:
        return Verdict("pass", "exact", stats=stats)
    return Verdict(
        "fail",
        "exact",
        counterexample=_decode_counterexample(raw, label_names),
        stats=stats,
    )
