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
enabled step to its target mask below a few hundred states. A
component's rows depend on it alone, since ids sort as names: they are
packed once per ``Component`` object and a label table adds only the id sets.

The same steps as (input, output, target) triples in slot order are a
machine's ``moves``, which the product closure reads. One class holds
every machine on ids, made from exactly one of three sources: its rows
(``of``, projections and one-run machines), its moves (``leaf``, a
system build's leaf read off its component's steps) or ``raw``, a
composed node's product closure transitions. The view it is not given
is derived on first read.
"""

from __future__ import annotations

from functools import cached_property

from ..errors import InvalidComponentError
from ..machine import Component, Transition, _step_tuples, _undeclared


class EncodedComponent:
    """A machine on dense integer ids over a shared label table.

    ``label_names[x]`` names label id ``x`` and ``label_ids`` is its
    inverse; ``state_names[s]`` names state ``s``. ``slots`` is the
    ``slot_layout`` of the input and output ids, ``rows[s]`` is state
    ``s``'s row and ``moves[s]`` its moves; a machine is given exactly
    one of its rows, its moves and ``raw`` (else ``TypeError``), and
    reads the rest off it. Machines are never modified, so several may
    share their rows.
    """

    def __init__(self, name: str, state_names: list[str], initial: int,
                 label_names: list[str], label_ids: dict[str, int],
                 input_ids: frozenset[int], output_ids: frozenset[int],
                 rows: list[int] | None = None, *,
                 moves: list[list[tuple[int, int, int]]] | None = None,
                 raw: list[tuple] | None = None):
        self.name = name
        self.state_names = state_names
        self.initial = initial
        self.label_names = label_names
        self.label_ids = label_ids
        self.input_ids = input_ids
        self.output_ids = output_ids
        self.slots = slot_layout(input_ids, output_ids)
        if [rows, moves, raw].count(None) != 2:
            raise TypeError("a machine is given exactly one of rows, moves and raw")
        if rows is not None:
            self.rows = rows
        if moves is not None:
            self.moves = moves
        self.raw = raw

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

    @classmethod
    def leaf(cls, c: Component, label_names: list[str], label_ids: dict[str, int]):
        """``of(c, ...)`` as a leaf of a system build, with the same errors,
        its moves read off ``c``'s steps. Only ``c``'s own alphabets
        declare a label."""
        state_names = sorted(c.states)
        state_ids = {s: n for n, s in enumerate(state_names)}
        own_inputs = {x: label_ids[x] for x in c.inputs}
        own_outputs = {x: label_ids[x] for x in c.outputs}
        moves = [[] for _ in state_names]
        try:
            for source, i, o, target in _step_tuples(c):
                moves[state_ids[source]].append((own_inputs[i], own_outputs[o], state_ids[target]))
            initial = state_ids[c.initial]
        except KeyError:
            raise InvalidComponentError(_undeclared(c)) from None
        for found in moves:
            found.sort()  # ids sort as names: slot order, then targets
        return cls(c.name, state_names, initial, label_names, label_ids,
                   frozenset(own_inputs.values()), frozenset(own_outputs.values()),
                   moves=moves)

    @cached_property
    def rows(self) -> list[int]:
        offset = slot_offsets(self.slots, len(self.state_names))
        rows = [0] * len(self.state_names)
        for s, found in enumerate(self.moves):
            for i, o, t in found:
                rows[s] |= 1 << (offset[(i, o)] + t)
        return rows

    @cached_property
    def moves(self) -> list[list[tuple[int, int, int]]]:
        if self.raw is None:
            return [self._moves_of(row) for row in self.rows]
        moves: list[set[tuple[int, int, int]]] = [set() for _ in self.state_names]
        for (src, i, o, dst, _, _) in self.raw:
            moves[src].add((i, o, dst))
        return [sorted(found) for found in moves]

    def input_enabled(self) -> bool:
        """Does every state have a step on every input? An input's slots
        lie side by side, so each input is one mask over a row."""
        width = len(self.output_ids) * len(self.state_names)
        masks = [((1 << width) - 1) << k * width for k in range(len(self.input_ids))]
        return all(row & mask for row in self.rows for mask in masks)

    def _moves_of(self, row: int) -> list[tuple[int, int, int]]:
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
            for i, o, t in self._moves_of(self.rows[s]):
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
    return EncodedComponent.of(c1, names, ids), EncodedComponent.of(c2, names, ids)
