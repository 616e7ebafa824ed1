"""Pure-Python search kernels.

Both read the packed step rows of ``encode``: the product closure takes
each state's transitions off its row, and the subset-pair search merges
the steps of a state subset with ``|`` over its rows, then reads the
targets of one step with one shift and mask. All iteration orders are
sorted (slot order is sorted step order), so results are deterministic
and do not depend on the hash seed. Memoization lives inside one call:
no result is kept from one search to the next.
"""

from __future__ import annotations

from collections import deque

from .encode import EncodedComponent, bits

# Composition rule tags.
LEFT_ONLY = 1
RIGHT_ONLY = 2
LEFT_FEEDS_RIGHT = 3
RIGHT_FEEDS_LEFT = 4

NO_LABEL = -1


def product_closure(enc1: EncodedComponent, enc2: EncodedComponent, composed_inputs: frozenset):
    """Reachable synchronous product of two encoded components.

    Returns (pairs, transitions) where pairs is the list of discovered
    (s1, s2) state pairs in BFS order and each transition is a tuple
    (src_pair_index, input, output, dst_pair_index, rule, intermediate).
    The intermediate label is NO_LABEL except for the two feeding rules.

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
                found.append((i, o, t1, s2, LEFT_ONLY, NO_LABEL))
            else:
                # left output feeds the right, whose reaction is observed
                for (i2, o2, t2) in moves2[s2]:
                    if i2 == o:
                        found.append((i, o2, t1, t2, LEFT_FEEDS_RIGHT, o))
        for (i, o, t2) in moves2[s2]:
            if i not in composed_inputs:
                continue
            if o not in in1:
                found.append((i, o, s1, t2, RIGHT_ONLY, NO_LABEL))
            else:
                for (i1, o1, t1) in moves1[s1]:
                    if i1 == o:
                        found.append((i, o1, t1, t2, RIGHT_FEEDS_LEFT, o))

        for (i, o, t1, t2, rule, mid) in sorted(found):
            dst_pair = (t1, t2)
            dst = pair_index.get(dst_pair)
            if dst is None:
                dst = len(pairs)
                pair_index[dst_pair] = dst
                pairs.append(dst_pair)
                queue.append(dst_pair)
            transitions.append((src, i, o, dst, rule, mid))

    return pairs, transitions


#: States per block of a subset mask (see ``_row_union``).
BLOCK = 8
_CHUNK = (1 << BLOCK) - 1


def _row_union(rows: list[int]):
    """Lookup of the union of ``rows`` over a non-empty state subset.

    The returned function maps a subset mask to the ``|`` of its states'
    rows, memoizing the union of each distinct BLOCK-state chunk of two
    or more states, keyed by the chunk and its offset, for the life of
    the lookup. Whole masks are not memoized: a search seldom meets the
    same specification subset twice, and the 2^n family never does.
    """
    memo: dict[int, int] = {}

    def union(mask: int) -> int:
        if not mask & (mask - 1):
            return rows[mask.bit_length() - 1]
        row = 0
        offset = (mask & -mask).bit_length() - 1 & -BLOCK  # the lowest state's block
        mask >>= offset
        while mask:
            chunk = mask & _CHUNK
            if chunk:
                if not chunk & (chunk - 1):
                    row |= rows[offset + chunk.bit_length() - 1]
                else:
                    key = offset << BLOCK | chunk
                    part = memo.get(key)
                    if part is None:
                        part = 0
                        for s in bits(chunk):
                            part |= rows[offset + s]
                        memo[key] = part
                    row |= part
            mask >>= BLOCK
            offset += BLOCK
        return row

    return union


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

    Returns (counterexample | None, stats) where the counterexample is
    (witness_steps, input, offending_output, iut_outputs, spec_outputs)
    over label ids and stats is (explored_pairs, max_depth).

    Both machines must have the same slots. The implementation's steps
    are kept per distinct subset: its subsets recur across pairs far more
    than the specification's, whose rows are merged afresh per pair.
    """
    slots = enc_iut.slots
    if enc_spec.slots != slots:
        raise ValueError(f"'{enc_iut.name}' and '{enc_spec.name}' have different step slots")
    n_iut = len(enc_iut.state_names)
    n_spec = len(enc_spec.state_names)
    full_iut, full_spec = (1 << n_iut) - 1, (1 << n_spec) - 1
    # each slot with its first bit in either machine's rows
    slot_at = [(io, k * n_iut, k * n_spec) for k, io in enumerate(slots)]
    spec_union = _row_union(enc_spec.rows)
    iut_union = _row_union(enc_iut.rows)
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

        spec_row = spec_union(qs)
        iut_steps = iut_steps_of.get(qi)
        if iut_steps is None:
            row = iut_union(qi)
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
                    return (witness, i, o, iut_outputs, spec_outputs), (explored, max_depth)
                continue
            nxt = (targets, spec_targets)
            if nxt not in seen:
                seen[nxt] = ((qi, qs), io)
                queue.append((nxt, depth + 1))

    return None, (explored, max_depth)


# Kept as its own entry point: perfbench/spans.py times trace inclusion
# by wrapping this name in fsmcheck._core.
def inclusion_bfs(enc1: EncodedComponent, enc2: EncodedComponent):
    """Decide trace inclusion Trace(c1) <= Trace(c2): the strict search."""
    return cioco_bfs(enc1, enc2, strict=True)
