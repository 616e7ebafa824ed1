"""Synchronous parallel composition of components and composition trees.

Two composed components run independently or jointly: a step is either
one side reacting alone (its output not consumable by the other), or one
side's output being synchronously consumed as the other side's input,
with the second reaction observed. Synchronized intermediates are hidden.

Only the reachable part of the state product is materialized. A system
expression is built on integer ids over one label table for the whole
expression. Every composed node keeps its children, and its machine
keeps the transitions of the product closure, each carrying the step
each side takes in it. From those steps, the steps each leaf may take in
each transition are joined down the tree on first read; projection reads
them. The machine reads its moves off its transitions and packs its step
rows from them, each on first read too. Names are decoded only when
read. ``relax`` is decided when a build is made; projection reads the
build.
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
    return frozenset(leaf.name for leaf in _leaves(expr))


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
    return _report(c1.inputs, c1.outputs, c2.inputs, c2.outputs, str)


def _report(i1, o1, i2, o2, name) -> CompositionReport:
    """The report of a pair from its label sets, each intersection's
    labels read through ``name``."""
    o1_i2 = frozenset(map(name, o1 & i2))
    o2_i1 = frozenset(map(name, o2 & i1))
    i1_i2 = frozenset(map(name, i1 & i2))
    o1_o2 = frozenset(map(name, o1 & o2))
    return CompositionReport(
        o1_cap_i2=o1_i2,
        o2_cap_i1=o2_i1,
        i1_cap_i2=i1_i2,
        o1_cap_o2=o1_o2,
        synchronizable=bool(o1_i2) and bool(o2_i1),
        alphabets_disjoint=not i1_i2 and not o1_o2,
    )


#: A composed transition on integer ids: (source, input, output, target).
TransitionIds = tuple[int, int, int, int]


@dataclass(frozen=True)
class SystemBuild:
    """A fully built system expression, kept on integer ids.

    ``machine`` is the composed component encoded over the sorted label
    table of the whole expression: a leaf's states are numbered in sorted
    name order, a composed node's in discovery order from the initial
    state. A composed node keeps its two built ``parts`` and its
    ``pairs`` (each state as the pair of the parts' own state ids). Its
    machine keeps, as ``machine.raw``, the transitions of the product
    closure between them, each with the step each part takes, and reads
    its moves off them. ``steps`` maps every transition ``(source,
    input, output, target)`` on those ids to the steps each leaf may take
    in it, and ``component`` is the same machine with names. Both are
    derived on first read, as are ``leaf_builds``, the one record of the
    builds of the leaves, and ``leaves``, their names.
    """

    expr: SystemExpr
    reports: tuple[tuple[str, CompositionReport], ...]  # (node path, report)
    machine: _core.EncodedComponent
    parts: tuple[SystemBuild, SystemBuild] | tuple[()] = ()
    pairs: list[tuple[int, int]] = field(default_factory=list)

    @cached_property
    def leaf_builds(self) -> tuple[SystemBuild, ...]:
        """The builds of the leaves, left to right: a leaf's is the build
        itself, a composed node's are its parts' joined, the same objects."""
        if not self.parts:
            return (self,)
        left, right = self.parts
        return left.leaf_builds + right.leaf_builds

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        """The names of the leaves, aligned with ``leaf_builds``."""
        return tuple(leaf.expr.name for leaf in self.leaf_builds)

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
        as ``machine.raw``, where the ways can grow exponentially with
        the depth of the tree. A leaf's own moves each hold just their
        step. A composed node's are joined in one pass over
        ``machine.raw``: a basic part's leaf takes the part's step, a
        composed part's leaves the steps its ``steps`` gives them, each
        None where the part does not move.
        """
        if not self.parts:
            return {
                (s, i, o, t): [{(i, o)}]
                for s, moves in enumerate(self.machine.moves) for i, o, t in moves
            }
        pairs, steps = self.pairs, {}
        for t in self.machine.raw:
            per_leaf = steps.get(t[:4])
            if per_leaf is None:
                per_leaf = steps[t[:4]] = [set() for _ in self.leaves]
            j = 0
            for side, part in enumerate(self.parts):
                step = t[4 + side]
                if not part.parts:
                    taken = [{step or None}]
                elif step:
                    taken = part.steps[(pairs[t[0]][side], *step, pairs[t[3]][side])]
                else:
                    taken = [{None}] * len(part.leaves)
                for column, x in zip(per_leaf[j:], taken):
                    column |= x
                j += len(taken)
        return steps

    def leaf_component(self, name: str) -> Component:
        return self.leaf_builds[self.leaves.index(name)].component


def compose_pair(c1: Component, c2: Component, relax: bool = False) -> SystemBuild:
    """Reachable synchronous product of two components, with each side's steps.

    The result is the build of ``Par(Leaf("left", c1), Leaf("right",
    c2))``. Unless ``relax`` is set, requires both directions of
    synchronization to be possible at the signature level.
    """
    return build_system_full(Par(Leaf("left", c1), Leaf("right", c2)), relax)


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
    return _compose(expr, left, right, relax, path or "root")


def _leaf_build(expr: Leaf, label_names: list[str], label_ids: dict[str, int]) -> SystemBuild:
    """A leaf on integer ids: its encoding, moves read off its steps."""
    machine = _core.EncodedComponent.leaf(expr.component, label_names, label_ids)
    return SystemBuild(expr, (), machine)


def _compose(
    expr: Par, left: SystemBuild, right: SystemBuild, relax: bool, node: str
) -> SystemBuild:
    """Compose two built sides over their shared label table."""
    enc1, enc2 = left.machine, right.machine
    report = _report(enc1.input_ids, enc1.output_ids, enc2.input_ids, enc2.output_ids,
                     enc1.label_names.__getitem__)
    if not report.synchronizable and not relax:
        raise ComposabilityError(
            f"components '{enc1.name}' and '{enc2.name}' cannot synchronize in both "
            f"directions (outputs1&inputs2={sorted(report.o1_cap_i2)}, "
            f"outputs2&inputs1={sorted(report.o2_cap_i1)}); pass relax to force",
            path=node,
        )

    output_ids = enc1.output_ids | enc2.output_ids
    input_ids = (enc1.input_ids | enc2.input_ids) - output_ids
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

    machine = _core.EncodedComponent(f"({enc1.name}*{enc2.name})", state_names, 0,
                                     enc1.label_names, enc1.label_ids, input_ids, output_ids,
                                     raw=raw)
    return SystemBuild(
        expr=expr,
        reports=left.reports + right.reports + ((node, report),),
        machine=machine,
        parts=(left, right),
        pairs=pairs,
    )
