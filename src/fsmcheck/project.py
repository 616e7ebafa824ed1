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

from ._core import (
    LEFT_FEEDS_RIGHT,
    LEFT_ONLY,
    RIGHT_FEEDS_LEFT,
    RIGHT_ONLY,
    EncodedComponent,
    bits,
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


def _replay_index(build: SystemBuild):
    """source -> (input, output) -> [(target, decomposition ways)]."""
    index: dict[str, dict[tuple[str, str], list]] = {}
    for t, ways in build.decompositions.items():
        index.setdefault(t.source, {}).setdefault((t.input, t.output), []).append(
            (t.target, ways)
        )
    return index


def project_trace(
    system: SystemExpr | SystemBuild,
    tr: Trace,
    target: str,
    relax: bool = False,
) -> ProjectedTraceSet:
    """All target-component step sequences a composed trace can exercise."""
    build = _as_build(system, relax)
    j = _leaf_index(build, target)
    index = _replay_index(build)

    start = build.machine.state_names[build.machine.initial]
    frontier: set[tuple[str, Trace]] = {(start, ())}
    for n, s in enumerate(tr):
        key = (s.input, s.output)
        nxt: set[tuple[str, Trace]] = set()
        for (state, proj) in frontier:
            for target_state, ways in index.get(state, {}).get(key, ()):
                for way in ways:
                    contributed = way[j]
                    nxt.add((target_state, proj + (contributed,) if contributed else proj))
        if not nxt:
            raise NotATraceError(
                f"step {n} ({s}) is not executable by the composed system here"
            )
        frontier = nxt
    return ProjectedTraceSet(target=target, traces=frozenset(p for (_, p) in frontier))


def paired_projections(
    system: SystemExpr | SystemBuild, tr: Trace, relax: bool = False
) -> frozenset[tuple[Trace, ...]]:
    """Per-run projections onto every leaf at once, aligned with build.leaves.

    Each member is one consistent attribution of the whole trace, so the
    component traces it contains come from a single composed run.
    """
    build = _as_build(system, relax)
    n_leaves = len(build.leaves)
    index = _replay_index(build)
    empty: tuple[Trace, ...] = ((),) * n_leaves
    start = build.machine.state_names[build.machine.initial]
    frontier: set[tuple[str, tuple[Trace, ...]]] = {(start, empty)}
    for n, s in enumerate(tr):
        key = (s.input, s.output)
        nxt: set[tuple[str, tuple[Trace, ...]]] = set()
        for (state, projs) in frontier:
            for target_state, ways in index.get(state, {}).get(key, ()):
                for way in ways:
                    extended = tuple(
                        projs[m] + (way[m],) if way[m] else projs[m]
                        for m in range(n_leaves)
                    )
                    nxt.add((target_state, extended))
        if not nxt:
            raise NotATraceError(
                f"step {n} ({s}) is not executable by the composed system here"
            )
        frontier = nxt
    return frozenset(projs for (_, projs) in frontier)


def _relabel(build: SystemBuild, j: int):
    """Split composed transitions into steps of leaf ``j`` and silent edges.

    Per composed state: the leaf's (input, output) steps mapped to the
    bitmask of their targets, and the targets reached without the leaf
    moving.
    """
    n = len(build.machine.state_names)
    labelled: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    silent: list[set[int]] = [set() for _ in range(n)]
    for (s, _, _, t, step) in _parts(build, j):
        if step is None:
            silent[s].add(t)
        else:
            steps = labelled[s]
            steps[step] = steps.get(step, 0) | (1 << t)
    return labelled, silent


def _parts(build: SystemBuild, j: int):
    """Leaf ``j``'s part in every transition of ``build``.

    Yields ``(source, input, output, target, step)`` once per transition
    of the product closure (per step of a leaf) and per distinct step
    leaf ``j`` may take in it; ``step`` is None where the leaf does not
    move. The moving side's own part is read off the rule: a side moving
    alone takes the composed ``(input, output)``, a side feeding the
    other ``(input, intermediate)``, a side fed by the other
    ``(intermediate, output)``. A composed side's parts are looked up in
    a table built from its own transitions, once per call.
    """
    if not build.parts:
        for s, steps in enumerate(build.machine.step_targets):
            for io, targets in steps.items():
                for t in bits(targets):
                    yield s, io[0], io[1], t, io
        return
    left, right = build.parts
    if j < len(left.leaves):
        side, child, jj = 0, left, j
        alone, other, feeds = LEFT_ONLY, RIGHT_ONLY, LEFT_FEEDS_RIGHT
    else:
        side, child, jj = 1, right, j - len(left.leaves)
        alone, other, feeds = RIGHT_ONLY, LEFT_ONLY, RIGHT_FEEDS_LEFT
    table: dict[tuple[int, int, int, int], set] | None = None
    if child.parts:
        table = {}
        for (s, i, o, t, step) in _parts(child, jj):
            table.setdefault((s, i, o, t), set()).add(step)
    pairs = build.pairs
    for (src, i, o, dst, rule, mid) in build.raw:
        if rule == other:
            yield src, i, o, dst, None
            continue
        if rule == alone:
            io = (i, o)
        elif rule == feeds:
            io = (i, mid)
        else:  # fed by the other side
            io = (mid, o)
        if table is None:
            yield src, i, o, dst, io
        else:
            for step in table[(pairs[src][side], *io, pairs[dst][side])]:
                yield src, i, o, dst, step


def _closed_steps(labelled, silent) -> list[dict[tuple[int, int], int]]:
    """Each state's steps merged over every state it reaches silently.

    One iterative Tarjan pass over the silent edges: the states of a
    strongly connected component share one step map, the union of their
    own steps and of the maps of the components they reach. Tarjan
    completes a component only after every component it reaches, so
    those maps are ready when it is merged.
    """
    n = len(labelled)
    index = [-1] * n
    low = [0] * n
    closed: list[dict | None] = [None] * n
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
                merged: dict[tuple[int, int], int] = {}
                for m in members:
                    for step, targets in labelled[m].items():
                        merged[step] = merged.get(step, 0) | targets
                    for w in silent[m]:
                        below = closed[w]
                        if below is not None:
                            for step, targets in below.items():
                                merged[step] = merged.get(step, 0) | targets
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
    return ContextComponent(_encoded_in_context(build, target).decode(), "finite")


def _encoded_in_context(build: SystemBuild, target: str) -> EncodedComponent:
    """``component_in_context`` of a composed build, on the build's ids.

    Its steps are the per-state ``{(input, output): target mask}`` maps
    the subset-pair search reads, so certification checks against it
    without decoding.
    """
    j = _leaf_index(build, target)
    leaf = build.leaf_component(target)
    # forward closure: anything reachable silently can act on our behalf
    steps = _closed_steps(*_relabel(build, j))
    m = build.machine
    ids = m.label_ids
    return EncodedComponent(
        f"{m.name}.at.{target}",
        m.state_names,
        m.initial,
        m.label_names,
        ids,
        frozenset(ids[x] for x in leaf.inputs),
        frozenset(ids[x] for x in leaf.outputs),
        steps,
    )


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
    labelled: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    silent: list[set[int]] = [set() for _ in range(n)]
    for (s, _, _, t), ways in build.ways.items():
        for way in ways:
            if way[j] is None:
                silent[s].add(t)
            else:
                labelled[s][way[j]] = labelled[s].get(way[j], 0) | (1 << t)
    labels = build.machine.label_names

    initial_set = _silent_closure([build.machine.initial], silent)
    histories: dict[Trace, frozenset[int]] = {(): initial_set}
    names: dict[Trace, str] = {(): "h0"}
    transitions: list[tuple[str, str, str, str]] = []
    level: list[Trace] = [()]
    for _ in range(k):
        nxt: list[Trace] = []
        for h in level:
            steps: dict[tuple[int, int], int] = {}
            for s in histories[h]:
                for io, targets in labelled[s].items():
                    steps[io] = steps.get(io, 0) | targets
            for (i, o) in sorted(steps):  # label ids sort as their names
                extended = h + (Step(labels[i], labels[o]),)
                histories[extended] = _silent_closure(bits(steps[(i, o)]), silent)
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
