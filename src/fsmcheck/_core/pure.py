"""Pure-Python search kernels.

Both read the packed step rows of ``encode``: the product closure takes
each state's transitions off its row, and the subset-pair search merges
the steps of a state subset with one ``|`` per member state's row, then
reads the targets of one step with one shift and mask. All iteration
orders are sorted (slot order is sorted step order), so results are
deterministic and do not depend on the hash seed, nor on how states are
numbered. Memoization lives inside one call: no result is kept from one
search to the next.
"""

from __future__ import annotations

from collections import deque
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
    start = (enc1.initial, enc2.initial)
    pair_index = {start: 0}
    pairs = [start]
    queue = deque([start])
    transitions = []

    while queue:
        s1, s2 = pair = queue.popleft()
        src = pair_index[pair]
        found = []

        for (i, o, t1) in moves1[s1]:
            if i not in composed_inputs:
                continue
            # left moves alone: its output is not consumable by the right
            if o not in in2:
                found.append((i, o, t1, s2, (i, o), ()))
            else:
                # left output feeds the right, whose reaction is observed
                for (i2, o2, t2) in moves2[s2]:
                    if i2 == o:
                        found.append((i, o2, t1, t2, (i, o), (o, o2)))
        for (i, o, t2) in moves2[s2]:
            if i not in composed_inputs:
                continue
            if o not in in1:
                found.append((i, o, s1, t2, (), (i, o)))
            else:
                for (i1, o1, t1) in moves1[s1]:
                    if i1 == o:
                        found.append((i, o1, t1, t2, (o, o1), (i, o)))

        for (i, o, t1, t2, left, right) in sorted(found):
            dst_pair = (t1, t2)
            dst = pair_index.get(dst_pair)
            if dst is None:
                dst = len(pairs)
                pair_index[dst_pair] = dst
                pairs.append(dst_pair)
                queue.append(dst_pair)
            transitions.append((src, i, o, dst, left, right))

    return pairs, transitions


def _row_union(rows: list[int], mask: int) -> int:
    """The ``|`` of ``rows`` over the states of a subset mask."""
    row = 0
    while mask:
        low = mask & -mask
        row |= rows[low.bit_length() - 1]
        mask ^= low
    return row


def _witness(seen, key):
    path = []
    while True:
        prev = seen[key]
        if prev is None:
            break
        key, step = prev
        path.append(step)
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
    than the specification's, whose rows are merged afresh per pair with
    one ``|`` per member state.
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
    seen = {start: None}
    queue = deque([(start, 0)])
    explored = 0
    max_depth = 0

    while queue:
        (qi, qs), depth = queue.popleft()
        explored += 1
        if depth > max_depth:
            max_depth = depth

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
                    witness = _witness(seen, (qi, qs))
                    stats = CheckStats(explored, max_depth)
                    return (witness, i, o, iut_outputs, spec_outputs), stats
                continue
            nxt = (targets, spec_targets)
            if nxt not in seen:
                seen[nxt] = ((qi, qs), io)
                queue.append((nxt, depth + 1))

    return None, CheckStats(explored, max_depth)


# Not called here: check_trace_inclusion runs cioco_bfs. perfbench/spans.py
# wraps this name in fsmcheck._core, so it stays importable from it.
def inclusion_bfs(enc1: EncodedComponent, enc2: EncodedComponent):
    """Decide trace inclusion Trace(c1) <= Trace(c2): the strict search."""
    return cioco_bfs(enc1, enc2, strict=True)
