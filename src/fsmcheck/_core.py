"""Machines on dense integer ids and the two searches that read them.

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
machine's ``moves``. One class holds every machine on ids, made from
exactly one of three sources: its rows (``of``, implementations under
check and projections), its moves (``leaf``, a system build's leaf read
off its component's steps, and fault localization's one-run machines)
or ``raw``, a composed node's product closure transitions. The view it
is not given is derived on first read.

The product closure reads moves, indexing each side's once per call,
each move's step built once, so that a feeding step reads only the fed
state's reactions to the fed label; its transitions carry the step each
side takes. The subset-pair search reads rows: it merges the steps of a
state subset by ``|``-ing its member states' rows, finding the members
of a subset wider than three states a byte of the mask at a time, then
reads the targets of one step with one shift and mask. It decides
conformance and trace inclusion alike and returns the ``CheckStats`` its
verdict carries. It goes breadth first one level of pairs at a time and
keeps each pair's parent alone: a failing search finds the steps of its
witness again from the parents. All iteration orders are sorted (slot
order is sorted step order), so results are deterministic and do not
depend on the hash seed; the subset-pair search's do not depend on how
states are numbered either. Memoization lives inside one call: no
result is kept from one search to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidComponentError
from .machine import Component, Transition, _step_tuples, _undeclared


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
    """``c1`` and ``c2`` encoded over one label table of both alphabets."""
    names, ids = label_table(c1, c2)
    return EncodedComponent.of(c1, names, ids), EncodedComponent.of(c2, names, ids)


@dataclass(frozen=True)
class CheckStats:
    """The counts a verdict rests on. ``explored_pairs`` counts subset pairs
    in an exact check and traces in a bounded one; ``max_depth`` is the
    longest trace length reached, or a bounded check's bound on a pass."""

    explored_pairs: int
    max_depth: int


def product_closure(enc1, enc2, composed_inputs: frozenset):
    """Reachable synchronous product of two system build machines, read
    through their ``moves``.

    Returns (pairs, transitions) where pairs is the list of discovered
    (s1, s2) state pairs in BFS order and each transition is a tuple
    (src_pair_index, input, output, dst_pair_index, left, right): ``left``
    and ``right`` are the (input, output) steps the two sides take, ``()``
    for a side that does not move. A feeding rule's intermediate label is
    the feeding side's output and the fed side's input.

    A transition is produced when one of the four composition rules
    applies and its trigger is a composed input (a label that is an input
    of either side and an output of neither). Every transition takes the
    steps ``_index`` built as its ``left`` and ``right``, and a discovered
    pair is keyed by ``s1 * width + s2``, ``width`` being side 2's state count.
    """
    moves1, reactions1 = _index(enc1.moves, composed_inputs, enc2)
    moves2, reactions2 = _index(enc2.moves, composed_inputs, enc1)
    width = len(enc2.state_names)
    pairs = [(enc1.initial, enc2.initial)]
    pair_index = {enc1.initial * width + enc2.initial: 0}
    transitions = []

    # ``pairs`` is the BFS queue: it grows while it is walked, and a
    # pair's place in it is its index
    for src, (s1, s2) in enumerate(pairs):
        found = []
        for (i, o, t1, step, fed) in moves1[s1]:
            if not fed:  # left moves alone
                found.append((i, o, t1, s2, step, ()))
            else:  # left output feeds the right, whose reaction is observed
                for (o2, t2, step2) in reactions2[s2].get(o, ()):
                    found.append((i, o2, t1, t2, step, step2))
        for (i, o, t2, step, fed) in moves2[s2]:
            if not fed:
                found.append((i, o, s1, t2, (), step))
            else:
                for (o1, t1, step1) in reactions1[s1].get(o, ()):
                    found.append((i, o1, t1, t2, step1, step))

        found.sort()  # fixes the numbering of the composed states
        for (i, o, t1, t2, left, right) in found:
            dst = pair_index.get(key := t1 * width + t2)
            if dst is None:
                dst = pair_index[key] = len(pairs)
                pairs.append((t1, t2))
            transitions.append((src, i, o, dst, left, right))

    return pairs, transitions


def _index(moves, composed_inputs, partner):
    """Per state, its moves on composed inputs as (input, output, target,
    step, fed), in slot order, and its reactions to the partner's outputs
    as each such input mapped to its (output, target, step) moves. ``fed``
    says whether the partner consumes the output."""
    fed_by, consumes = partner.output_ids, partner.input_ids
    table, reactions = [], []
    for state_moves in moves:
        on_inputs: list[tuple] = []
        by_input: dict[int, list[tuple]] = {}
        for (i, o, t) in state_moves:
            if i in composed_inputs:
                on_inputs.append((i, o, t, (i, o), o in consumes))
            elif i in fed_by:
                by_input.setdefault(i, []).append((o, t, (i, o)))
        table.append(on_inputs)
        reactions.append(by_input)
    return table, reactions


#: Per byte value, the offsets of its set bits, ascending.
_BYTE_BITS = tuple(tuple(k for k in range(8) if b >> k & 1) for b in range(256))


def _row_union(rows: list[int], mask: int) -> int:
    """The ``|`` of ``rows`` over the states of a non-empty subset mask.

    A mask of up to three states is walked bit by bit. A wider one is
    walked a byte of states at a time, each byte's members read from
    ``_BYTE_BITS``.
    """
    if not mask & (mask - 1):
        return rows[mask.bit_length() - 1]
    row = 0
    if mask.bit_count() <= 3:
        while mask:
            low = mask & -mask
            row |= rows[low.bit_length() - 1]
            mask ^= low
        return row
    base = 0
    while mask:
        for k in _BYTE_BITS[mask & 255]:
            row |= rows[base + k]
        mask >>= 8
        base += 8
    return row


def _witness(seen, pair, iut_steps_of, spec_rows, full_spec):
    """The steps of the trace by which the search first reached ``pair``.

    ``seen`` maps each pair to the pair it was first reached from. The
    step from a parent to its child is the first slot, in slot order,
    whose implementation targets and merged specification targets are
    the child's: the parent's steps are tried in slot order, so that is
    the slot that reached the child. Paid once per witness step, and
    only on failure.
    """
    path = []
    while (parent := seen[pair]) is not None:
        spec_row = _row_union(spec_rows, parent[1])
        path.append(next(io for io, targets, at in iut_steps_of[parent[0]]
                         if targets == pair[0] and spec_row >> at & full_spec == pair[1]))
        pair = parent
    path.reverse()
    return path


def cioco_bfs(enc_iut: EncodedComponent, enc_spec: EncodedComponent, strict: bool):
    """Decide output-inclusion conformance by subset-pair search.

    Explores pairs (Qi, Qs) of state subsets reached by common traces of
    the two machines, breadth first so the first violation found has a
    minimal-length witness; ties break lexicographically.

    With ``strict`` false, inputs with no specification continuation after
    the current trace impose no obligation; with it true they forbid any
    implementation output, which makes the relation trace inclusion.

    Returns (counterexample | None, CheckStats) where the counterexample
    is (witness_steps, input, offending_output, iut_outputs, spec_outputs)
    over label ids.

    Both machines must have the same slots. The implementation's steps
    are kept per distinct subset: its subsets recur across pairs far more
    than the specification's, whose rows are merged afresh per pair by
    ``_row_union``.
    """
    slots = enc_iut.slots
    if enc_spec.slots != slots:
        raise ValueError(f"'{enc_iut.name}' and '{enc_spec.name}' have different step slots")
    n_iut = len(enc_iut.state_names)
    n_spec = len(enc_spec.state_names)
    full_iut, full_spec = (1 << n_iut) - 1, (1 << n_spec) - 1
    # each slot with its first bit in either machine's rows
    slot_at = [(io, k * n_iut, k * n_spec) for k, io in enumerate(slots)]
    spec_rows, iut_rows = enc_spec.rows, enc_iut.rows
    iut_steps_of: dict[int, list] = {}
    start = (1 << enc_iut.initial, 1 << enc_spec.initial)
    seen = {start: None}  # each pair's BFS parent; its step is found again on failure
    # breadth first, one level of pairs at a time: ``depth`` is the
    # level's trace length and ``explored`` counts the earlier levels
    level = [start]
    depth = explored = 0

    while True:
        following = []
        for pair in level:
            qi, qs = pair
            spec_row = _row_union(spec_rows, qs)
            iut_steps = iut_steps_of.get(qi)
            if iut_steps is None:
                row = _row_union(iut_rows, qi)
                iut_steps = iut_steps_of[qi] = [
                    (io, t, spec_at) for io, iut_at, spec_at in slot_at
                    if (t := row >> iut_at & full_iut)
                ]
            for io, targets, at in iut_steps:
                spec_targets = spec_row >> at & full_spec
                if not spec_targets:
                    i, o = io
                    spec_outputs = frozenset(
                        b for (a, b), _, at in slot_at if a == i and spec_row >> at & full_spec
                    )
                    if strict or spec_outputs:
                        iut_outputs = frozenset(b for (a, b), _, _ in iut_steps if a == i)
                        witness = _witness(seen, pair, iut_steps_of, spec_rows, full_spec)
                        stats = CheckStats(explored + level.index(pair) + 1, depth)
                        return (witness, i, o, iut_outputs, spec_outputs), stats
                    continue
                nxt = (targets, spec_targets)
                if nxt not in seen:
                    seen[nxt] = pair
                    following.append(nxt)
        explored += len(level)
        if not following:
            return None, CheckStats(explored, depth)
        level = following
        depth += 1


# Not called here: check_trace_inclusion runs cioco_bfs. perfbench/spans.py
# wraps this name in fsmcheck._core, so it stays importable from it.
def inclusion_bfs(enc1: EncodedComponent, enc2: EncodedComponent):
    """Decide trace inclusion Trace(c1) <= Trace(c2): the strict search."""
    return cioco_bfs(enc1, enc2, strict=True)
