"""Integer encoding of components for the search kernels.

States and labels are mapped to dense integer ids. Label tables are
sorted, so that numeric order coincides with lexicographic label order;
a component's states are numbered in sorted name order. State subsets
are bitmask integers.
"""

from __future__ import annotations

from ..errors import InvalidComponentError
from ..machine import Component, Transition


class EncodedComponent:
    """A component on dense integer ids over a shared label table.

    ``label_names[x]`` names label id ``x`` and ``label_ids`` is its
    inverse; ``state_names[s]`` names state ``s``. ``step_targets[s]``
    maps every (input, output) pair of label ids enabled in state ``s``
    to the bitmask of its target states. Encoded components are never
    modified, so several may share one step map.
    """

    __slots__ = (
        "name",
        "state_names",
        "initial",
        "label_names",
        "label_ids",
        "input_ids",
        "output_ids",
        "step_targets",
    )

    def __init__(
        self,
        name: str,
        state_names: list[str],
        initial: int,
        label_names: list[str],
        label_ids: dict[str, int],
        input_ids: frozenset[int],
        output_ids: frozenset[int],
        step_targets: list[dict[tuple[int, int], int]],
    ):
        self.name = name
        self.state_names = state_names
        self.initial = initial
        self.label_names = label_names
        self.label_ids = label_ids
        self.input_ids = input_ids
        self.output_ids = output_ids
        self.step_targets = step_targets

    @classmethod
    def of(cls, c: Component, label_names: list[str], label_ids: dict[str, int]):
        """Encode ``c`` over the given label table, states in sorted name order.

        Raises ``InvalidComponentError`` when the initial state or a
        transition falls outside the component's own declared states,
        inputs or outputs.
        """
        state_names = sorted(c.states)
        state_ids = {s: n for n, s in enumerate(state_names)}
        input_ids = {x: label_ids[x] for x in c.inputs}
        output_ids = {x: label_ids[x] for x in c.outputs}
        step_targets: list[dict[tuple[int, int], int]] = [{} for _ in state_names]
        try:
            for t in c.transitions:
                steps = step_targets[state_ids[t.source]]
                io = (input_ids[t.input], output_ids[t.output])
                steps[io] = steps.get(io, 0) | (1 << state_ids[t.target])
            initial = state_ids[c.initial]
        except KeyError:
            raise InvalidComponentError(_undeclared(c)) from None
        return cls(
            c.name,
            state_names,
            initial,
            label_names,
            label_ids,
            frozenset(input_ids.values()),
            frozenset(output_ids.values()),
            step_targets,
        )

    def by_sorted_name(self) -> tuple["EncodedComponent", list[int]]:
        """This machine with its states numbered in sorted name order.

        That is the numbering ``of`` gives. Also returns, for each new id,
        the state's id here. A machine numbered so already is returned
        as it is.
        """
        names = self.state_names
        order = sorted(range(len(names)), key=names.__getitem__)
        if all(r == s for r, s in enumerate(order)):
            return self, order
        rank = [0] * len(order)
        for r, s in enumerate(order):
            rank[s] = r
        step_targets: list[dict[tuple[int, int], int]] = []
        for s in order:
            steps = {}
            for io, targets in self.step_targets[s].items():
                mask = 0
                for t in bits(targets):
                    mask |= 1 << rank[t]
                steps[io] = mask
            step_targets.append(steps)
        renumbered = EncodedComponent(
            self.name,
            [names[s] for s in order],
            rank[self.initial],
            self.label_names,
            self.label_ids,
            self.input_ids,
            self.output_ids,
            step_targets,
        )
        return renumbered, order

    def decode(self) -> Component:
        """The named component: the part reachable from the initial state."""
        names, labels = self.state_names, self.label_names
        seen = {self.initial}
        stack = [self.initial]
        transitions = []
        while stack:
            s = stack.pop()
            for (i, o), targets in self.step_targets[s].items():
                for t in bits(targets):
                    transitions.append(Transition(names[s], labels[i], labels[o], names[t]))
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        return Component(
            name=self.name,
            states=frozenset(names[s] for s in seen),
            initial=names[self.initial],
            inputs=frozenset(labels[x] for x in self.input_ids),
            outputs=frozenset(labels[x] for x in self.output_ids),
            transitions=frozenset(transitions),
        )


def _undeclared(c: Component) -> str:
    """What the first of ``c``'s transitions in sorted order, or its
    initial state, uses without declaring it."""
    where = f"component '{c.name}'"
    for t in c.sorted_transitions():
        for state in (t.source, t.target):
            if state not in c.states:
                return f"{where}: transition {t} uses undeclared state '{state}'"
        if t.input not in c.inputs:
            return f"{where}: transition {t} uses input '{t.input}' not in its input alphabet"
        if t.output not in c.outputs:
            return f"{where}: transition {t} uses output '{t.output}' not in its output alphabet"
    return f"{where}: initial state '{c.initial}' is not declared"


def label_table(*components: Component) -> tuple[list[str], dict[str, int]]:
    """Shared sorted label table over the alphabets of all given components."""
    labels: set[str] = set()
    for c in components:
        labels |= c.inputs | c.outputs
    names = sorted(labels)
    return names, {x: n for n, x in enumerate(names)}


def encode_pair(c1: Component, c2: Component):
    names, ids = label_table(c1, c2)
    return EncodedComponent.of(c1, names, ids), EncodedComponent.of(c2, names, ids), names, ids


def bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
