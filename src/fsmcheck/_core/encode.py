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
node builds its rows only when they are read (``compose``).
"""

from __future__ import annotations

from ..errors import InvalidComponentError
from ..machine import Component, Transition


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

        Raises ``InvalidComponentError`` when the initial state or a
        transition falls outside the component's own declared states,
        inputs or outputs.
        """
        state_names = sorted(c.states)
        state_ids = {s: n for n, s in enumerate(state_names)}
        n = len(state_names)
        inputs, outputs = sorted(c.inputs), sorted(c.outputs)  # ids sort as names
        # slot (input, output) starts at (input's rank * |O| + output's rank) * n
        input_at = {x: k * len(outputs) * n for k, x in enumerate(inputs)}
        output_at = {x: k * n for k, x in enumerate(outputs)}
        rows = [0] * n
        try:
            for t in c.transitions:
                step = input_at[t.input] + output_at[t.output]
                rows[state_ids[t.source]] |= 1 << (step + state_ids[t.target])
            initial = state_ids[c.initial]
        except KeyError:
            raise InvalidComponentError(_undeclared(c)) from None
        return cls(c.name, state_names, initial, label_names, label_ids,
                   frozenset(label_ids[x] for x in inputs), frozenset(label_ids[x] for x in outputs),
                   rows)

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
        n = len(order)
        rank = [0] * n
        for r, s in enumerate(order):
            rank[s] = r
        offset, moves = slot_offsets(self.slots, n), self.moves()
        rows = [sum(1 << (offset[(i, o)] + rank[t]) for i, o, t in moves[s]) for s in order]
        renumbered = EncodedComponent(self.name, [names[s] for s in order], rank[self.initial],
                                      self.label_names, self.label_ids,
                                      self.input_ids, self.output_ids, rows)
        return renumbered, order

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
