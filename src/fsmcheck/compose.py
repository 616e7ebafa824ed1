"""Synchronous parallel composition of components and composition trees.

Two composed components run independently or jointly: a step is either
one side reacting alone (its output not consumable by the other), or one
side's output being synchronously consumed as the other side's input,
with the second reaction observed. Synchronized intermediates are hidden.

Only the reachable part of the state product is materialized. A system
expression is built on integer ids over one label table for the whole
expression. Every composed node keeps its children and the
transitions of the product closure, each carrying the step each side
takes in it. From those steps, the steps each leaf may take in each
transition are joined down the tree on first read; projection reads
them. The node's step rows are derived from its transitions on first
read too. Names are decoded only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import _core
from .errors import ComposabilityError
from .machine import Component


@dataclass(frozen=True)
class Leaf:
    name: str
    component: Component


@dataclass(frozen=True)
class Par:
    left: "SystemExpr"
    right: "SystemExpr"


SystemExpr = Leaf | Par


def subcomponents(expr: SystemExpr) -> frozenset[str]:
    """Names of the basic components a system expression is built from."""
    if isinstance(expr, Leaf):
        return frozenset([expr.name])
    return subcomponents(expr.left) | subcomponents(expr.right)


def leaf_components(expr: SystemExpr) -> dict[str, Component]:
    return {leaf.name: leaf.component for leaf in _leaves(expr)}


@dataclass(frozen=True)
class CompositionReport:
    """Alphabet intersections governing whether and how a pair composes."""

    o1_cap_i2: frozenset[str]
    o2_cap_i1: frozenset[str]
    i1_cap_i2: frozenset[str]
    o1_cap_o2: frozenset[str]
    #: both directions of synchronization are possible (each side's outputs
    #: intersect the other side's inputs)
    synchronizable: bool
    #: inputs are disjoint and outputs are disjoint across the pair
    alphabets_disjoint: bool

    def to_dict(self) -> dict:
        return {
            "o1_cap_i2": sorted(self.o1_cap_i2),
            "o2_cap_i1": sorted(self.o2_cap_i1),
            "i1_cap_i2": sorted(self.i1_cap_i2),
            "o1_cap_o2": sorted(self.o1_cap_o2),
            "synchronizable": self.synchronizable,
            "alphabets_disjoint": self.alphabets_disjoint,
        }


def signature_check(
    c1: Component | SystemBuild, c2: Component | SystemBuild
) -> CompositionReport:
    o1_i2 = c1.outputs & c2.inputs
    o2_i1 = c2.outputs & c1.inputs
    i1_i2 = c1.inputs & c2.inputs
    o1_o2 = c1.outputs & c2.outputs
    return CompositionReport(
        o1_cap_i2=frozenset(o1_i2),
        o2_cap_i1=frozenset(o2_i1),
        i1_cap_i2=frozenset(i1_i2),
        o1_cap_o2=frozenset(o1_o2),
        synchronizable=bool(o1_i2) and bool(o2_i1),
        alphabets_disjoint=not i1_i2 and not o1_o2,
    )


def composed_alphabets(
    c1: Component | SystemBuild, c2: Component | SystemBuild
) -> tuple[frozenset[str], frozenset[str]]:
    outputs = c1.outputs | c2.outputs
    inputs = (c1.inputs | c2.inputs) - outputs
    return inputs, outputs


#: A composed transition on integer ids: (source, input, output, target).
TransitionIds = tuple[int, int, int, int]

#: A transition of a product closure: (source, input, output, target,
#: left, right), source and target indexing the node's pairs, and left and
#: right the (input, output) step each side takes, () for a side that
#: does not move.
RawTransition = tuple[int, int, int, int, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SystemBuild:
    """A fully built system expression, kept on integer ids.

    ``machine`` is the composed component encoded over the sorted label
    table of the whole expression: a leaf's states are numbered in sorted
    name order, a composed node's in discovery order from the initial
    state. A composed node keeps its two built ``parts``, its ``pairs``
    (each state as the pair of the parts' own state ids) and the ``raw``
    transitions of the product closure between them, each with the step
    each part takes; its machine derives its step rows and its moves
    from ``raw``. ``steps`` maps every transition ``(source, input,
    output, target)`` on those ids to the steps each leaf may take in
    it, and ``component`` is the same machine with names. Both are
    derived on first read.
    """

    expr: SystemExpr
    leaves: tuple[str, ...]
    reports: tuple[tuple[str, CompositionReport], ...]  # (node path, report)
    machine: _core.EncodedComponent
    parts: tuple[SystemBuild, SystemBuild] | tuple[()] = ()
    pairs: list[tuple[int, int]] = field(default_factory=list)
    raw: list[RawTransition] = field(default_factory=list)

    @cached_property
    def inputs(self) -> frozenset[str]:
        return frozenset(self.machine.label_names[x] for x in self.machine.input_ids)

    @cached_property
    def outputs(self) -> frozenset[str]:
        return frozenset(self.machine.label_names[x] for x in self.machine.output_ids)

    @cached_property
    def component(self) -> Component:
        if isinstance(self.expr, Leaf):
            return self.expr.component
        return self.machine.decode()  # every composed state is reachable

    @cached_property
    def steps(self) -> dict[TransitionIds, list[set]]:
        """Every composed transition mapped to the steps each leaf may
        take in it.

        Aligned with ``leaves``: per leaf, the set of its (input, output)
        steps over all the ways the transition can be attributed to leaf
        steps, holding None when the leaf may not move. Steps of
        different leaves are not paired up, so the table stays as small
        as ``raw``, where the ways can grow exponentially with the depth
        of the tree. A leaf's own moves each hold just their step.
        """
        if not self.parts:
            return {
                (s, i, o, t): [{(i, o)}]
                for s, moves in enumerate(self.machine.moves()) for i, o, t in moves
            }
        steps: dict[TransitionIds, list[set]] = {}
        columns = self.leaf_steps(0) + self.leaf_steps(1)
        for j, column in enumerate(columns):
            for t, step in column:
                per_leaf = steps.get(t[:4])
                if per_leaf is None:
                    per_leaf = steps[t[:4]] = [set() for _ in columns]
                per_leaf[j].add(step)
        return steps

    def leaf_steps(self, side: int) -> list[list[tuple[RawTransition, tuple[int, int] | None]]]:
        """Per leaf of one part, aligned with its leaves, every transition
        of ``raw`` with each step the leaf may take in it, None where it
        does not move. A composed part's leaves' steps are read off its
        ``steps``."""
        part, pairs = self.parts[side], self.pairs
        if not part.parts:
            return [[(t, t[4 + side] or None) for t in self.raw]]
        table = part.steps
        columns: list[list] = [[] for _ in part.leaves]
        for t in self.raw:
            step = t[4 + side]
            if not step:
                for column in columns:
                    column.append((t, None))
                continue
            for column, taken in zip(columns, table[(pairs[t[0]][side], *step, pairs[t[3]][side])]):
                column.extend((t, x) for x in taken)
        return columns

    def leaf_component(self, name: str) -> Component:
        return leaf_components(self.expr)[name]


def compose_pair(c1: Component, c2: Component, relax: bool = False) -> SystemBuild:
    """Reachable synchronous product of two components, with each side's steps.

    The result is the build of ``Par(Leaf("left", c1), Leaf("right",
    c2))``. Unless ``relax`` is set, requires both directions of
    synchronization to be possible at the signature level.
    """
    expr = Par(Leaf("left", c1), Leaf("right", c2))
    labels = _core.label_table(c1, c2)
    left, right = _leaf_build(expr.left, *labels), _leaf_build(expr.right, *labels)
    return _compose(expr, left, right, relax, "root")


def synchronous_parallel(c1: Component, c2: Component, relax: bool = False) -> Component:
    """The synchronous parallel composition of two components."""
    return compose_pair(c1, c2, relax=relax).component


def build_system_full(expr: SystemExpr, relax: bool = False) -> SystemBuild:
    """Fold the composition over the expression tree, keeping each side's steps.

    Leaf names must be unique. Composability errors carry the path of the
    offending node ("left", "right.left", ... relative to the root).
    """
    leaves = _leaves(expr)
    names = [leaf.name for leaf in leaves]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise ComposabilityError(f"duplicate leaf names in expression: {sorted(duplicates)}")
    labels = _core.label_table(*(leaf.component for leaf in leaves))
    return _build(expr, relax, "", labels)


def _leaves(expr: SystemExpr) -> list[Leaf]:
    if isinstance(expr, Leaf):
        return [expr]
    return _leaves(expr.left) + _leaves(expr.right)


def _build(
    expr: SystemExpr, relax: bool, path: str, labels: tuple[list[str], dict[str, int]]
) -> SystemBuild:
    if isinstance(expr, Leaf):
        return _leaf_build(expr, *labels)
    left = _build(expr.left, relax, path + ("." if path else "") + "left", labels)
    right = _build(expr.right, relax, path + ("." if path else "") + "right", labels)
    try:
        return _compose(expr, left, right, relax, path or "root")
    except ComposabilityError as exc:
        raise ComposabilityError(str(exc), path=path or "root") from None


def _leaf_build(expr: Leaf, label_names: list[str], label_ids: dict[str, int]) -> SystemBuild:
    """A leaf on integer ids: its encoding."""
    machine = _core.EncodedComponent.of(expr.component, label_names, label_ids)
    return SystemBuild(expr, (expr.name,), (), machine)


class _ComposedMachine(_core.EncodedComponent):
    """A composed node's machine, its rows derived on first read.

    Certification and the next composition up read the transitions of
    the product closure, not the rows: only decoding reads them. Its
    moves are read off the transitions, once per (input, output, target).
    """

    __slots__ = ("raw",)

    def __init__(self, name, state_names, initial, label_names, label_ids,
                 input_ids, output_ids, raw: list[RawTransition]):
        super().__init__(name, state_names, initial, label_names, label_ids,
                         input_ids, output_ids, None)
        del self.rows  # unset, so that the first read reaches __getattr__
        self.raw = raw

    def __getattr__(self, name: str):
        if name != "rows":
            raise AttributeError(name)
        offset = _core.slot_offsets(self.slots, len(self.state_names))
        rows = [0] * len(self.state_names)
        for (src, i, o, dst, _, _) in self.raw:
            rows[src] |= 1 << (offset[(i, o)] + dst)
        self.rows = rows
        return rows

    def moves(self) -> list[list[tuple[int, int, int]]]:
        moves: list[set[tuple[int, int, int]]] = [set() for _ in self.state_names]
        for (src, i, o, dst, _, _) in self.raw:
            moves[src].add((i, o, dst))
        return [sorted(found) for found in moves]


def _compose(
    expr: Par, left: SystemBuild, right: SystemBuild, relax: bool, node: str
) -> SystemBuild:
    """Compose two built sides over their shared label table."""
    report = signature_check(left, right)
    if not report.synchronizable and not relax:
        names = left.machine.name, right.machine.name
        raise ComposabilityError(
            f"components '{names[0]}' and '{names[1]}' cannot synchronize in both "
            f"directions (outputs1&inputs2={sorted(report.o1_cap_i2)}, "
            f"outputs2&inputs1={sorted(report.o2_cap_i1)}); pass relax to force"
        )

    inputs, outputs = composed_alphabets(left, right)
    enc1, enc2 = left.machine, right.machine
    label_ids = enc1.label_ids
    input_ids = frozenset(label_ids[x] for x in inputs)
    pairs, raw = _core.product_closure(enc1, enc2, input_ids)

    n1, n2 = enc1.state_names, enc2.state_names
    state_names = [f"({n1[s1]},{n2[s2]})" for s1, s2 in pairs]
    if len(set(state_names)) < len(state_names):  # distinct pairs may render alike
        taken: set[str] = set()
        for k, name in enumerate(state_names):
            while name in taken:
                name += "~"
            taken.add(name)
            state_names[k] = name

    machine = _ComposedMachine(
        f"({enc1.name}*{enc2.name})",
        state_names,
        0,
        enc1.label_names,
        label_ids,
        input_ids,
        frozenset(label_ids[x] for x in outputs),
        raw,
    )
    return SystemBuild(
        expr=expr,
        leaves=left.leaves + right.leaves,
        reports=left.reports + right.reports + ((node, report),),
        machine=machine,
        parts=(left, right),
        pairs=pairs,
        raw=raw,
    )


def build_system(expr: SystemExpr, relax: bool = False) -> Component:
    """The composed component denoted by a system expression."""
    return build_system_full(expr, relax=relax).component
