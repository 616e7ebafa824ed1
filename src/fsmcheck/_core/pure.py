"""Pure-Python search kernels.

The product closure takes each state's transitions from the machine's
``moves``, indexed by input once per call, so that a feeding step reads
only the fed state's reactions to the fed label. The subset-pair search
reads the packed step rows of ``encode``: it merges the steps of a state
subset by ``|``-ing its member states' rows, finding the members of a
subset wider than three states a byte of the mask at a time, then reads
the targets of one step with one shift and mask. It goes breadth first
one level of pairs at a time and keeps each pair's parent alone: a
failing search finds the steps of its witness again from the parents.
All iteration orders are sorted (slot order is sorted step order), so
results are deterministic and do not depend on the hash seed; the
subset-pair search's do not depend on how states are numbered either.
Memoization lives inside one call: no result is kept from one search to
the next.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encode import EncodedComponent


@dataclass(frozen=True)
class CheckStats:
    """The counts a verdict rests on. ``explored_pairs`` counts subset pairs
    in an exact check and traces in a bounded one; ``max_depth`` is the
    longest trace length reached, or a bounded check's bound on a pass."""

    explored_pairs: int
    max_depth: int


def product_closure(enc1: EncodedComponent, enc2: EncodedComponent, composed_inputs: frozenset):
    """Reachable synchronous product of two encoded components.

    Returns (pairs, transitions) where pairs is the list of discovered
    (s1, s2) state pairs in BFS order and each transition is a tuple
    (src_pair_index, input, output, dst_pair_index, left, right): ``left``
    and ``right`` are the (input, output) steps the two sides take, ``()``
    for a side that does not move. A feeding rule's intermediate label is
    the feeding side's output and the fed side's input.

    A transition is produced when one of the four composition rules
    applies and its trigger is a composed input (a label that is an input
    of either side and an output of neither).
    """
    in1 = enc1.input_ids
    in2 = enc2.input_ids
    moves1 = enc1.moves()
    moves2 = enc2.moves()
    reactions1 = _reactions(moves1)
    reactions2 = _reactions(moves2)
    pairs = [(enc1.initial, enc2.initial)]
    pair_index = {pairs[0]: 0}
    transitions = []

    # ``pairs`` is the BFS queue: it grows while it is walked, and a
    # pair's place in it is its index
    for src, (s1, s2) in enumerate(pairs):
        found = []
        for (i, o, t1) in moves1[s1]:
            if i not in composed_inputs:
                continue
            # left moves alone: its output is not consumable by the right
            if o not in in2:
                found.append((i, o, t1, s2, (i, o), ()))
            else:
                # left output feeds the right, whose reaction is observed
                for (o2, t2) in reactions2[s2].get(o, ()):
                    found.append((i, o2, t1, t2, (i, o), (o, o2)))
        for (i, o, t2) in moves2[s2]:
            if i not in composed_inputs:
                continue
            if o not in in1:
                found.append((i, o, s1, t2, (), (i, o)))
            else:
                for (o1, t1) in reactions1[s1].get(o, ()):
                    found.append((i, o1, t1, t2, (o, o1), (i, o)))

        found.sort()  # fixes the numbering of the composed states
        for (i, o, t1, t2, left, right) in found:
            dst_pair = (t1, t2)
            dst = pair_index.get(dst_pair)
            if dst is None:
                dst = pair_index[dst_pair] = len(pairs)
                pairs.append(dst_pair)
            transitions.append((src, i, o, dst, left, right))

    return pairs, transitions


def _reactions(moves):
    """Per state, each input mapped to the (output, target) moves on it."""
    table = []
    for state_moves in moves:
        by_input: dict[int, list[tuple[int, int]]] = {}
        for (i, o, t) in state_moves:
            by_input.setdefault(i, []).append((o, t))
        table.append(by_input)
    return table


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
