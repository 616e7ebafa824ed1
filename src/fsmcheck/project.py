"""Projection of composed behaviour onto one basic component.

A composed step is attributed to the leaves that moved in it: a step one
side performed alone contributes that step to its owner and nothing to
the other; a synchronized step contributes the hidden half to each side.
Projection of a trace replays it over all runs of the composed system
and collects, per run and per attribution, the sequence of steps the
target component performed.

The component-in-context is the machine whose traces are exactly the
projections of all composed traces. Two constructions are provided: a
finite one (relabel composed transitions to target contributions, then
eliminate silent steps by forward closure, on the build's integer ids)
and a depth-bounded trace-tree whose states literally are projected
histories. The tree is the oracle for the finite construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from ._core import (
    LEFT_FEEDS_RIGHT,
    LEFT_ONLY,
    RIGHT_ONLY,
    EncodedComponent,
    bits,
    slot_layout,
    slot_offsets,
)
from .compose import Leaf, SystemBuild, SystemExpr, build_system_full
from .errors import NotATraceError, TraceLimitError, UnknownTargetError
from .machine import Component, Step, Trace, DEFAULT_TRACE_GUARD


@dataclass(frozen=True)
class ProjectedTraceSet:
    target: str
    traces: frozenset[Trace]


@dataclass(frozen=True)
class ContextComponent:
    """A component restricted to the behaviour it shows inside a system."""

    component: Component
    provenance: str  # "finite" | "tree(k)"


def _as_build(system: SystemExpr | SystemBuild, relax: bool) -> SystemBuild:
    if isinstance(system, SystemBuild):
        return system
    return build_system_full(system, relax=relax)


def _leaf_index(build: SystemBuild, target: str) -> int:
    try:
        return build.leaves.index(target)
    except ValueError:
        raise UnknownTargetError(
            f"'{target}' is not a leaf of the expression (leaves: {list(build.leaves)})"
        ) from None


def _replay(build: SystemBuild, tr: Trace, empty, extend) -> frozenset:
    """Replay ``tr`` over every run and decomposition of the composed system.

    Each run carries a record, ``empty`` at the start and ``extend(record,
    way)`` after each step taken by way of a decomposition; returns the
    records at the end of every run.
    """
    index: dict[str, dict[tuple[str, str], list]] = {}
    for t, ways in build.decompositions.items():
        index.setdefault(t.source, {}).setdefault((t.input, t.output), []).append(
            (t.target, ways)
        )
    frontier = {(build.machine.state_names[build.machine.initial], empty)}
    for n, s in enumerate(tr):
        key = (s.input, s.output)
        nxt = set()
        for (state, record) in frontier:
            for target_state, ways in index.get(state, {}).get(key, ()):
                for way in ways:
                    nxt.add((target_state, extend(record, way)))
        if not nxt:
            raise NotATraceError(
                f"step {n} ({s}) is not executable by the composed system here"
            )
        frontier = nxt
    return frozenset(record for (_, record) in frontier)


def project_trace(
    system: SystemExpr | SystemBuild,
    tr: Trace,
    target: str,
    relax: bool = False,
) -> ProjectedTraceSet:
    """All target-component step sequences a composed trace can exercise."""
    build = _as_build(system, relax)
    j = _leaf_index(build, target)

    def extend(proj: Trace, way) -> Trace:
        return proj + (way[j],) if way[j] else proj

    return ProjectedTraceSet(target=target, traces=_replay(build, tr, (), extend))


def paired_projections(
    system: SystemExpr | SystemBuild, tr: Trace, relax: bool = False
) -> frozenset[tuple[Trace, ...]]:
    """Per-run projections onto every leaf at once, aligned with build.leaves.

    Each member is one consistent attribution of the whole trace, so the
    component traces it contains come from a single composed run.
    """
    build = _as_build(system, relax)

    def extend(projs: tuple[Trace, ...], way) -> tuple[Trace, ...]:
        return tuple(proj + (step,) if step else proj for proj, step in zip(projs, way))

    return _replay(build, tr, ((),) * len(build.leaves), extend)


def _relabel(build: SystemBuild):
    """Split composed transitions into every leaf's steps and silent edges.

    Returns, aligned with ``build.leaves``, ``(leaf, order, labelled,
    silent)`` per leaf, ``leaf`` being its build. ``order`` lists the
    composed states by the leaf's own state, ties by composed id, and
    numbers the other two. Per state so numbered, ``labelled`` is the
    row of the leaf's steps, in the leaf's slots, and ``silent`` lists
    the targets reached without the leaf moving. A silent step leaves
    the leaf's state as it is, so every silent closure stays within one
    run of equal leaf states.
    """
    n = len(build.machine.state_names)
    raw = build.raw
    relabelled = []
    for (leaf, states), (column, extra) in zip(_leaf_states(build), _leaf_parts(build)):
        order = sorted(range(n), key=states.__getitem__)
        rank = [0] * n
        for r, s in enumerate(order):
            rank[s] = r
        offset = slot_offsets(leaf.machine.slots, n)
        labelled = [0] * n
        silent: list[list[int]] = [[] for _ in range(n)]
        for (src, _, _, dst, _, _), step in chain(zip(raw, column), extra):
            if step is None:
                silent[src].append(rank[dst])
            else:
                labelled[src] |= 1 << (offset[step] + rank[dst])
        relabelled.append(
            (leaf, order, [labelled[s] for s in order], [silent[s] for s in order])
        )
    return relabelled


def _leaf_states(build: SystemBuild) -> list[tuple[SystemBuild, list[int]]]:
    """Each leaf's build with the leaf's own state in every state of ``build``."""
    if not build.parts:
        return [(build, list(range(len(build.machine.state_names))))]
    left, right = build.parts
    pairs = build.pairs
    return [
        (leaf, [states[ls] for (ls, _) in pairs]) for leaf, states in _leaf_states(left)
    ] + [
        (leaf, [states[rs] for (_, rs) in pairs]) for leaf, states in _leaf_states(right)
    ]


def _leaf_parts(build: SystemBuild):
    """Every leaf's part in every transition of a composed ``build``.

    Returns ``(column, extra)`` per leaf, aligned with ``build.leaves``:
    ``column[k]`` is a step the leaf takes in ``build.raw[k]``, None where
    it does not move, and ``extra`` lists ``(transition, step)`` for every
    further step it may take in one transition. One pass over the
    transitions reads each side's part off the rule: a side moving alone
    takes the composed ``(input, output)``, a side feeding the other
    ``(input, intermediate)``, a side fed by the other ``(intermediate,
    output)``. A composed side's part is then split among its leaves.
    """
    left, right = build.parts
    left_steps: list[tuple[int, int] | None] = []
    right_steps: list[tuple[int, int] | None] = []
    add_left, add_right = left_steps.append, right_steps.append
    for (_, i, o, _, rule, mid) in build.raw:
        if rule == LEFT_ONLY:
            add_left((i, o))
            add_right(None)
        elif rule == RIGHT_ONLY:
            add_left(None)
            add_right((i, o))
        elif rule == LEFT_FEEDS_RIGHT:
            add_left((i, mid))
            add_right((mid, o))
        else:  # RIGHT_FEEDS_LEFT
            add_left((mid, o))
            add_right((i, mid))
    return _split(build, 0, left_steps) + _split(build, 1, right_steps)


def _split(build: SystemBuild, side: int, steps: list):
    """``_leaf_parts`` of the leaves of ``build.parts[side]``.

    ``steps`` holds the side's step in each transition of ``build``. A
    composed side's steps are looked up in one table built from its own
    transitions: every step each of its leaves may take in them.
    """
    part = build.parts[side]
    if not part.parts:
        return [(steps, [])]
    table: dict[tuple[int, int, int, int], list[set]] = {}
    for j, (column, extra) in enumerate(_leaf_parts(part)):
        for (s, i, o, t, _, _), step in chain(zip(part.raw, column), extra):
            per_leaf = table.get((s, i, o, t))
            if per_leaf is None:
                per_leaf = table[(s, i, o, t)] = [set() for _ in part.leaves]
            per_leaf[j].add(step)
    quiet = [(None,)] * len(part.leaves)
    split = [([], []) for _ in part.leaves]
    pairs = build.pairs
    for transition, step in zip(build.raw, steps):
        if step is None:
            per_leaf = quiet
        else:
            src, _, _, dst, _, _ = transition
            per_leaf = table[(pairs[src][side], *step, pairs[dst][side])]
        for (column, extra), taken in zip(split, per_leaf):
            first, *more = taken
            column.append(first)
            extra.extend((transition, x) for x in more)
    return split


def _closed_steps(labelled: list[int], silent) -> list[int]:
    """Each state's row merged over every state it reaches silently.

    One iterative Tarjan pass over the silent edges: the states of a
    strongly connected component share one row, the ``|`` of their own
    rows and of the rows of the components they reach. Tarjan
    completes a component only after every component it reaches, so
    those rows are ready when it is merged.
    """
    n = len(labelled)
    index = [-1] * n
    low = [0] * n
    closed: list[int | None] = [None] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(silent[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(silent[w])))
                    break
                if closed[w] is None and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] != index[v]:
                    continue
                members = [stack.pop()]
                while members[-1] != v:
                    members.append(stack.pop())
                if len(members) == 1 and not silent[v]:
                    closed[v] = labelled[v]
                    continue
                merged = 0
                for m in members:
                    merged |= labelled[m]
                    for w in silent[m]:
                        below = closed[w]
                        if below is not None:
                            merged |= below
                for m in members:
                    closed[m] = merged
    return closed


def component_in_context(
    system: SystemExpr | SystemBuild, target: str, relax: bool = False
) -> ContextComponent:
    """Finite construction of the projection of a system on one leaf.

    Relabel every composed transition by its target contribution (silent
    when the target does not move), then eliminate silent steps by
    forward closure. The alphabets are the target component's own.
    """
    build = _as_build(system, relax)
    if isinstance(build.expr, Leaf):
        # projecting a basic component on itself
        if build.expr.name != target:
            raise UnknownTargetError(f"'{target}' is not a leaf of the expression")
        return ContextComponent(build.expr.component, "finite")
    j = _leaf_index(build, target)
    return ContextComponent(_encoded_projections(build)[j].decode(), "finite")


def _encoded_projections(build: SystemBuild) -> list[EncodedComponent]:
    """``component_in_context`` of a build onto every leaf, on ids.

    Aligned with ``build.leaves``. Each projection keeps the build's
    labels and states, the states numbered by the leaf's own state (see
    ``_relabel``). Its rows are the ones the subset-pair search reads, so
    certification checks against it without decoding. A basic component
    is its own projection.
    """
    m = build.machine
    if not build.parts:
        return [m]
    projections = []
    for leaf, order, labelled, silent in _relabel(build):
        # forward closure: anything reachable silently can act on our behalf
        rows = _closed_steps(labelled, silent)
        projections.append(EncodedComponent(
            f"{m.name}.at.{leaf.leaves[0]}", [m.state_names[s] for s in order],
            order.index(m.initial), m.label_names, m.label_ids,
            leaf.machine.input_ids, leaf.machine.output_ids, rows,
        ))
    return projections


def _silent_closure(states, silent: list[set[int]]) -> frozenset[int]:
    seen = set(states)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for t in silent[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def component_in_context_tree(
    system: SystemExpr | SystemBuild,
    target: str,
    k: int,
    relax: bool = False,
    guard: int = DEFAULT_TRACE_GUARD,
) -> ContextComponent:
    """Depth-bounded literal construction: states are projected histories.

    A history extends by one step exactly when some composed trace
    projects onto the extension. States are never merged, so the result
    is a tree of depth at most ``k``; it serves as the oracle for the
    finite construction.
    """
    if k < 0:
        raise ValueError("depth bound must be non-negative")
    build = _as_build(system, relax)
    j = _leaf_index(build, target)
    leaf = build.leaf_component(target)
    # relabelled from the joint decomposition table, not by ``_relabel``,
    # so that the oracle shares no code with the construction it checks
    n = len(build.machine.state_names)
    ids = build.machine.label_ids
    slots = slot_layout({ids[x] for x in leaf.inputs}, {ids[x] for x in leaf.outputs})
    offset, full = slot_offsets(slots, n), (1 << n) - 1
    labelled = [0] * n
    silent: list[set[int]] = [set() for _ in range(n)]
    for (s, _, _, t), ways in build.ways.items():
        for way in ways:
            if way[j] is None:
                silent[s].add(t)
            else:
                labelled[s] |= 1 << (offset[way[j]] + t)
    labels = build.machine.label_names

    initial_set = _silent_closure([build.machine.initial], silent)
    histories: dict[Trace, frozenset[int]] = {(): initial_set}
    names: dict[Trace, str] = {(): "h0"}
    transitions: list[tuple[str, str, str, str]] = []
    level: list[Trace] = [()]
    for _ in range(k):
        nxt: list[Trace] = []
        for h in level:
            row = 0
            for s in histories[h]:
                row |= labelled[s]
            for k, (i, o) in enumerate(slots):  # label ids sort as their names
                targets = row >> k * n & full
                if not targets:
                    continue
                extended = h + (Step(labels[i], labels[o]),)
                histories[extended] = _silent_closure(bits(targets), silent)
                if len(histories) > guard:
                    raise TraceLimitError(guard, f"context tree for '{target}' at depth {k}")
                names[extended] = f"h{len(names)}"
                transitions.append((names[h], labels[i], labels[o], names[extended]))
                nxt.append(extended)
        level = nxt
        if not level:
            break

    component = Component.build(
        name=f"{build.machine.name}.tree.{target}",
        initial="h0",
        transitions=transitions,
        inputs=leaf.inputs,
        outputs=leaf.outputs,
        states=names.values(),
    )
    return ContextComponent(component, f"tree({k})")
