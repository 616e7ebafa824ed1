"""Integer encoding of components for the search kernels.

States and labels are mapped to dense integer ids. Label tables are
sorted, so that numeric order coincides with lexicographic label order;
a component's states are numbered in sorted name order. State subsets
are bitmask integers.

Each state's steps are packed into one integer, its row. The slots of
a row are the (input, output) pairs of the machine's signature, sorted
by input id and then output id (``slot_layout``). In a machine of n
states the targets of the step in slot k sit at bits k*n to k*n + n - 1,
so the steps of a state subset are the ``|`` of its rows, and reading a
row slot by slot meets the steps in sorted order. A row takes |I|*|O|*n
bits whatever the state enables, which is smaller than a dict from each
enabled step to its target mask below a few hundred states. A composed
node builds its rows only when they are read (``compose``). A
component's rows depend on it alone, since ids sort as names: they are
packed once per ``Component`` object and a label table adds only the id sets.
"""

from __future__ import annotations

from ..errors import InvalidComponentError
from ..machine import Component, Transition, _undeclared


class EncodedComponent:
    """A component on dense integer ids over a shared label table.

    ``label_names[x]`` names label id ``x`` and ``label_ids`` is its
    inverse; ``state_names[s]`` names state ``s``. ``slots`` is the
    ``slot_layout`` of the input and output ids and ``rows[s]`` is state
    ``s``'s row: the targets of each of its steps, slot by slot. Encoded
    components are never modified, so several may share their rows.
    """

    __slots__ = ("name", "state_names", "initial", "label_names", "label_ids",
                 "input_ids", "output_ids", "slots", "rows")

    def __init__(self, name: str, state_names: list[str], initial: int,
                 label_names: list[str], label_ids: dict[str, int],
                 input_ids: frozenset[int], output_ids: frozenset[int], rows: list[int]):
        self.name = name
        self.state_names = state_names
        self.initial = initial
        self.label_names = label_names
        self.label_ids = label_ids
        self.input_ids = input_ids
        self.output_ids = output_ids
        self.slots = slot_layout(input_ids, output_ids)
        self.rows = rows

    @classmethod
    def of(cls, c: Component, label_names: list[str], label_ids: dict[str, int]):
        """Encode ``c`` over the given label table, states in sorted name order.

        The rows are ``c``'s, packed once per object and shared by every
        encoding of it; the table gives only the input and output id sets.

        Raises ``InvalidComponentError`` when the initial state or a
        transition falls outside the component's own declared states,
        inputs or outputs.
        """
        try:
            state_names, initial, rows = c._packed
        except KeyError:
            raise InvalidComponentError(_undeclared(c)) from None
        return cls(c.name, state_names, initial, label_names, label_ids,
                   frozenset(label_ids[x] for x in c.inputs),
                   frozenset(label_ids[x] for x in c.outputs), rows)

    def input_enabled(self) -> bool:
        """Does every state have a step on every input? An input's slots
        lie side by side, so each input is one mask over a row."""
        width = len(self.output_ids) * len(self.state_names)
        masks = [((1 << width) - 1) << k * width for k in range(len(self.input_ids))]
        return all(row & mask for row in self.rows for mask in masks)

    def moves(self) -> list[list[tuple[int, int, int]]]:
        """Per state, ``moves_of`` its row."""
        return [self.moves_of(row) for row in self.rows]

    def moves_of(self, row: int) -> list[tuple[int, int, int]]:
        """The transitions in a row as (input, output, target), in slot order."""
        n = len(self.state_names)
        full = (1 << n) - 1
        found = []
        for i, o in self.slots:
            targets = row & full
            while targets:
                low = targets & -targets
                found.append((i, o, low.bit_length() - 1))
                targets ^= low
            row >>= n
        return found

    def decode(self) -> Component:
        """The named component: the part reachable from the initial state."""
        names, labels = self.state_names, self.label_names
        seen = {self.initial}
        stack = [self.initial]
        transitions = []
        while stack:
            s = stack.pop()
            for i, o, t in self.moves_of(self.rows[s]):
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


def slot_layout(input_ids, output_ids) -> list[tuple[int, int]]:
    """The (input, output) slots of a row: by input id, then output id."""
    outputs = sorted(output_ids)
    return [(i, o) for i in sorted(input_ids) for o in outputs]


def slot_offsets(slots: list[tuple[int, int]], n: int) -> dict[tuple[int, int], int]:
    """The first bit of each slot in a row of an ``n``-state machine."""
    return {io: k * n for k, io in enumerate(slots)}


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
