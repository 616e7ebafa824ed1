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

from dataclasses import dataclass, fields
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
    enc_iut, enc_spec = _core.encode_pair(iut, spec)
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


def _times(vector: dict, matrix: dict, cap: int) -> dict:
    """``vector`` (node -> count) times ``matrix`` (node -> node -> count),
    both sparse, each count capped at ``cap``."""
    product: dict = {}
    for node, ways in vector.items():
        for child, paths in matrix[node].items():
            product[child] = product.get(child, 0) + ways * paths
    return {node: min(cap, ways) for node, ways in product.items()}


def _count_continuations(counts: dict, children: dict, lengths: int, cap: int) -> int:
    """How many ways the traces counted in ``counts`` (node -> traces
    reaching it) continue by 1 to ``lengths`` more steps, or ``cap`` when
    that is more.

    ``children`` maps every node reachable from ``counts`` to its
    children, one per step. The count steps one length at a time while
    that is cheaper than repeated squaring of the sparse matrix of path
    counts between nodes, so ``lengths`` may be huge. The squaring's
    counts are capped at ``cap``; all are non-negative, so a count below
    ``cap`` is exact.
    """
    n = len(children)
    total = 0
    # a step costs about one operation per child, a squaring at most n**3
    # plus a fixed cost, which matters for the few nodes of small checks
    if lengths * sum(map(len, children.values())) <= lengths.bit_length() * (n**3 + 16):
        for _ in range(lengths):
            longer: dict = {}
            for node, ways in counts.items():
                for child in children[node]:
                    longer[child] = longer.get(child, 0) + ways
            counts = longer
            total += sum(longer.values())
            if total >= cap:
                return cap
        return total
    # With P the path counts of 2**i steps and ``sums`` each node's
    # continuations by one to 2**i steps, each set bit i of ``lengths``
    # adds the continuations of ``counts`` by one to 2**i steps and moves
    # ``counts`` on by 2**i steps, from the low bits up.
    power: dict = {}
    for node, row in children.items():
        power[node] = paths = {}
        for child in row:
            paths[child] = paths.get(child, 0) + 1
    sums = {node: min(cap, len(row)) for node, row in children.items()}
    while True:
        if lengths & 1:
            total = min(cap, total + sum(ways * sums[node] for node, ways in counts.items()))
            counts = _times(counts, power, cap)
        lengths >>= 1
        if not lengths or total == cap:
            return total
        sums = {node: min(cap, own + sum(paths * sums[child]
                                         for child, paths in power[node].items()))
                for node, own in sums.items()}
        power = {node: _times(row, power, cap) for node, row in power.items()}


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
    initial state. Each length is kept as the number of traces reaching
    each distinct pair, and the comparison and the one-step extensions
    are memoized per pair, so the work grows with the distinct pairs per
    length, not with the traces. The first violating trace in canonical
    order is the counterexample: once a length has a violating pair, the
    trace and its position are found by counting, back from that length,
    each shorter pair's continuations and whether one of them violates.

    Once a length brings no pair that a shorter one did not, no longer
    trace can violate: every pair it reaches was compared already. The
    traces of the remaining lengths are then only counted, per pair, by
    ``_count_continuations``, without walking the lengths.

    ``stats.explored_pairs`` counts the traces examined: the 1-based
    position of the failing trace in canonical order, or every trace up
    to ``k`` when none fails.

    Raises ``InvalidComponentError``, as the exact check does, when
    either side uses a state or label it does not declare.

    ``guard`` bounds the number of specification traces up to ``k``
    exactly as in ``traces_up_to``: TraceLimitError is raised whenever
    that enumeration would raise it, even if a violation exists. Each
    specification trace reaches one pair, so the walk counts them as it
    goes. When a bound on their number from the specification's distinct
    steps is within the guard, the first violation ends the walk;
    otherwise the walk keeps counting, without comparing, until no pair
    is new or it reaches ``k``, and only then returns the violation.
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
    iut_moves = _union_per_state_set(iut_table)
    nowhere: frozenset[str] = frozenset()

    # The guard bounds the specification's traces up to k as traces_up_to
    # counts them: tested only when a trace is added (a guard below 1 acts
    # as 1), whether or not a violation comes first. Each such trace
    # reaches one pair, so the walk counts them. No state set has more
    # children than the specification has distinct steps, B, so there are
    # at most the sum of B**d for d <= k such traces, summed until it
    # passes the guard. Within it, the first violation ends the walk;
    # past it, the walk goes on counting without comparing.
    branching = len(set().union(*spec_table.values()))
    bound = 1 + branching * k  # exact for B <= 1
    if branching > 1:
        bound = width = 1
        for _ in range(k):
            width *= branching
            bound += width
            if bound > guard:
                break
    limit = max(guard, 1)

    # Each level maps the (specification states, implementation states)
    # pairs that the traces of one length reach to how many traces reach
    # each. The pairs with known extensions are those seen at a shorter
    # length, where they had no violation, so only the other (fresh)
    # pairs are compared, and extended at the next length.
    extensions: dict[_Pair, list[_Pair]] = {}  # a pair's children, in sorted step order
    root: _Pair = (frozenset([spec.initial]), frozenset([iut.initial]))
    shorter: list[tuple[_Pair, ...]] = []  # the pairs of each shorter length
    level = {root: 1}
    checked = 0
    failure = None
    for depth in range(k + 1):
        if depth:
            for pair in fresh:
                spec_states, iut_states = pair
                iut_after = iut_moves(iut_states)
                extensions[pair] = [(target, iut_after.get(io, nowhere))
                                    for io, target in spec_moves(spec_states).items()]
            shorter.append(tuple(level))
            longer: dict[_Pair, int] = {}
            for pair, n in level.items():
                for child in extensions[pair]:
                    longer[child] = longer.get(child, 0) + n
            if not longer:
                break
            level = longer
        fresh = level.keys() - extensions.keys()
        found = {}
        if failure is None:
            for spec_states, iut_states in fresh:
                violation = _first_violation(iut_moves(iut_states), spec_moves(spec_states), strict)
                if violation is not None:
                    found[spec_states, iut_states] = violation
        if found:
            # Back from this level: each shorter pair's number of
            # continuations to this length, and the pairs with a violating
            # one among them.
            counts, violating = [dict.fromkeys(level, 1)], [found.keys()]
            for parents in reversed(shorter):
                below, ends = counts[-1], violating[-1]
                counts.append({p: sum(map(below.__getitem__, extensions[p])) for p in parents})
                violating.append({p for p in parents if not ends.isdisjoint(extensions[p])})
            # Forward from the root: the first child with a violating
            # continuation, after every continuation of the children before it.
            pair, position, witness = root, 0, []
            for below, ends in zip(reversed(counts[:-1]), reversed(violating[:-1])):
                for step, child in zip(spec_moves(pair[0]), extensions[pair]):
                    if child in ends:
                        break
                    position += below[child]
                witness.append(Step(*step))
                pair = child
            failure = Verdict(
                "fail",
                "bounded",
                counterexample=Counterexample(tuple(witness), *found[pair]),
                stats=CheckStats(checked + position + 1, depth),
                depth=k,
                warnings=warnings,
            )
            if bound <= guard:
                return failure
        checked += sum(level.values())
        if not fresh:
            # Every pair of this length was compared at a shorter length,
            # and so was every pair reachable from one: no longer trace
            # violates, and the traces longer than this one are only
            # counted.
            checked += _count_continuations(level, extensions, k - depth, limit + 1)
        if checked > limit:
            raise TraceLimitError(guard, f"traces of '{spec.name}' up to depth {k}")
        if not fresh:
            break
    if failure is not None:
        return failure
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
    enc1, enc2 = _core.encode_pair(c1, c2)
    return _exact_verdict(enc1, enc2, "forbid", warn=False)
