"""Projection of composed behaviour onto one basic component.

A composed step is attributed to the leaves that moved in it: a step one
side performed alone contributes that step to its owner and nothing to
the other; a synchronized step contributes the hidden half to each side.
Projection of a trace onto one leaf replays it over all runs of the
composed system, extending each run's record by each step the leaf may
take in the transition, and collects the sequences of steps the leaf
performed.

The component-in-context is the machine whose traces are exactly the
projections of all composed traces. Two constructions are provided: a
finite one (relabel composed transitions to target contributions, then
eliminate silent steps by forward closure, on the build's integer ids)
and a depth-bounded trace-tree whose states literally are projected
histories. The tree is the oracle for the finite construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._core import EncodedComponent, bits, slot_layout, slot_offsets
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


def _replay(build: SystemBuild, tr: Trace, j: int) -> frozenset[Trace]:
    """The step sequences leaf ``j`` performs over every run of ``tr``.

    Replays ``tr`` on ids. The frontier holds each composed state reached
    with the leaf's steps so far; a transition extends them by each step
    the leaf may take in it, read off ``build.steps``. Each step of a
    run is attributed independently of the others, so one leaf's column
    of ``steps`` gives exactly its part of every joint attribution.
    """
    m = build.machine
    index: dict[tuple[int, int, int], list[tuple[int, set]]] = {}
    for (s, i, o, t), per_leaf in build.steps.items():
        index.setdefault((s, i, o), []).append((t, per_leaf[j]))
    frontier = {(m.initial, ())}
    for n, step in enumerate(tr):
        i, o = m.label_ids.get(step.input), m.label_ids.get(step.output)
        nxt = set()
        for state, record in frontier:
            for target, taken in index.get((state, i, o), ()):
                for x in taken:
                    nxt.add((target, record if x is None else record + (x,)))
        if not nxt:
            raise NotATraceError(
                f"step {n} ({step}) is not executable by the composed system here"
            )
        frontier = nxt
    labels = m.label_names
    return frozenset(
        tuple(Step(labels[i], labels[o]) for i, o in record) for _, record in frontier
    )


def project_trace(
    system: SystemExpr | SystemBuild,
    tr: Trace,
    target: str,
    relax: bool = False,
) -> ProjectedTraceSet:
    """All target-component step sequences a composed trace can exercise."""
    build = _as_build(system, relax)
    return ProjectedTraceSet(target=target, traces=_replay(build, tr, _leaf_index(build, target)))


def _relabel(build: SystemBuild):
    """Split composed transitions into every leaf's steps and silent edges.

    Returns, aligned with ``build.leaves``, ``(leaf, labelled, silent)``
    per leaf, ``leaf`` being its build. Per composed state, ``labelled``
    is the row of the leaf's steps, in the leaf's slots, and ``silent``
    lists the targets reached without the leaf moving. One pass over
    ``build.raw`` per part serves all of the part's leaves: a basic
    part's leaf takes the part's step, a composed part's leaves the
    steps its ``steps`` gives them.
    """
    n = len(build.machine.state_names)
    pairs, raw = build.pairs, build.raw
    relabelled = []
    for side, part in enumerate(build.parts):
        at = 4 + side
        leaves = []
        for leaf in _leaf_builds(part):
            labelled, silent = [0] * n, [[] for _ in range(n)]
            leaves.append((slot_offsets(leaf.machine.slots, n), labelled, silent))
            relabelled.append((leaf, labelled, silent))
        if not part.parts:
            ((offset, labelled, silent),) = leaves
            for t in raw:
                if t[at]:
                    labelled[t[0]] |= 1 << (offset[t[at]] + t[3])
                else:
                    silent[t[0]].append(t[3])
            continue
        table = part.steps
        for t in raw:
            src, dst, step = t[0], t[3], t[at]
            if not step:
                for _, _, silent in leaves:
                    silent[src].append(dst)
                continue
            taken = table[(pairs[src][side], *step, pairs[dst][side])]
            for (offset, labelled, silent), steps in zip(leaves, taken):
                for x in steps:
                    if x is None:
                        silent[src].append(dst)
                    else:
                        labelled[src] |= 1 << (offset[x] + dst)
    return relabelled


def _leaf_builds(build: SystemBuild) -> list[SystemBuild]:
    """The builds of the leaves of ``build``, aligned with ``build.leaves``."""
    if not build.parts:
        return [build]
    left, right = build.parts
    return _leaf_builds(left) + _leaf_builds(right)


def _closed_steps(labelled: list[int], silent) -> list[int]:
    """Each state's row merged over every state it reaches silently.

    One iterative Tarjan pass over the silent edges: the states of a
    strongly connected component share one row, the ``|`` of their own
    rows and of the rows of the components they reach. Tarjan
    completes a component only after every component it reaches, so
    those rows are ready when it is merged. A state without silent
    edges keeps its own row and is never visited.
    """
    n = len(labelled)
    closed: list[int | None] = [None if out else row for row, out in zip(labelled, silent)]
    # 1-based visit order: 0 is not yet visited, -1 closed up front
    index = [0 if out else -1 for out in silent]
    low = [0] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(silent[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
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
    labels, states and initial state. Its rows are the ones the
    subset-pair search reads, so certification checks against it without
    decoding. A basic component is its own projection.
    """
    m = build.machine
    if not build.parts:
        return [m]
    projections = []
    for leaf, labelled, silent in _relabel(build):
        # forward closure: anything reachable silently can act on our behalf
        rows = _closed_steps(labelled, silent)
        projections.append(EncodedComponent(
            f"{m.name}.at.{leaf.leaves[0]}", m.state_names, m.initial, m.label_names,
            m.label_ids, leaf.machine.input_ids, leaf.machine.output_ids, rows,
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
    # relabelled from the root's own ``steps``, which ``_relabel`` never
    # builds (it reads the parts'), so that the oracle shares with the
    # construction it checks only the parts' record of each leaf's steps
    n = len(build.machine.state_names)
    ids = build.machine.label_ids
    slots = slot_layout({ids[x] for x in leaf.inputs}, {ids[x] for x in leaf.outputs})
    offset, full = slot_offsets(slots, n), (1 << n) - 1
    labelled = [0] * n
    silent: list[set[int]] = [set() for _ in range(n)]
    for (s, _, _, t), per_leaf in build.steps.items():
        for x in per_leaf[j]:
            if x is None:
                silent[s].add(t)
            else:
                labelled[s] |= 1 << (offset[x] + t)
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
            for at, (i, o) in enumerate(slots):  # label ids sort as their names
                targets = row >> at * n & full
                if not targets:
                    continue
                extended = h + (Step(labels[i], labels[o]),)
                histories[extended] = _silent_closure(bits(targets), silent)
                if len(histories) > guard:
                    raise TraceLimitError(guard, f"context tree for '{target}' up to depth {k}")
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
