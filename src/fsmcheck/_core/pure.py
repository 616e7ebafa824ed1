"""Pure-Python search kernels.

All iteration orders are sorted, so results are deterministic and do not
depend on the hash seed. Memoization lives inside one call: no result
is kept from one search to the next.
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
    moves1 = _moves(enc1)
    moves2 = _moves(enc2)
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


def _moves(enc: EncodedComponent) -> list[list[tuple[int, int, int]]]:
    """Per state, its transitions as (input, output, target) triples."""
    return [
        [(i, o, t) for (i, o), targets in steps.items() for t in bits(targets)]
        for steps in enc.step_targets
    ]


#: States per block of a subset mask (see ``_subset_steps``).
BLOCK = 8
_CHUNK = (1 << BLOCK) - 1


def _subset_steps(enc: EncodedComponent):
    """Lookup of the union of step maps over a non-empty state subset.

    The returned function maps a subset mask to {(i, o): target mask}.
    It splits the mask into BLOCK-state chunks and memoizes the union of
    each distinct chunk, keyed by the chunk and its offset, for the life
    of the lookup; only a mask with states in several blocks merges
    chunk unions into a new map. Whole masks are not memoized: a search
    seldom meets the same specification subset twice, and the 2^n
    family never does. A state's own step map, or a memoized chunk
    union, is returned as it is, so callers must not modify the result.
    """
    step_targets = enc.step_targets
    memo: dict[int, dict] = {}

    def union(mask: int) -> dict:
        if not mask & (mask - 1):
            return step_targets[mask.bit_length() - 1]
        merged = None
        shared = True  # merged is a state's or a memoized map
        offset = 0
        while mask:
            chunk = mask & _CHUNK
            if chunk:
                key = offset << BLOCK | chunk
                part = memo.get(key)
                if part is None:
                    if not chunk & (chunk - 1):
                        part = step_targets[offset + chunk.bit_length() - 1]
                    else:
                        part = {}
                        for s in bits(chunk):
                            for io, targets in step_targets[offset + s].items():
                                part[io] = part.get(io, 0) | targets
                    memo[key] = part
                if merged is None:
                    merged = part
                else:
                    if shared:
                        merged = dict(merged)
                        shared = False
                    for io, targets in part.items():
                        merged[io] = merged.get(io, 0) | targets
            mask >>= BLOCK
            offset += BLOCK
        return merged

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

    Step-map unions come from per-search lookups (``_subset_steps``). The
    implementation's sorted steps are also kept per distinct subset: its
    subsets recur across pairs far more than the specification's do.
    """
    spec_union = _subset_steps(enc_spec)
    iut_union = _subset_steps(enc_iut)
    iut_sorted: dict[int, list] = {}
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

        spec_steps = spec_union(qs)
        iut_steps = iut_sorted.get(qi)
        if iut_steps is None:
            iut_steps = iut_sorted[qi] = sorted(iut_union(qi).items())
        for io, targets in iut_steps:
            spec_targets = spec_steps.get(io)
            if spec_targets is None:
                i, o = io
                spec_outputs = frozenset(b for (a, b) in spec_steps if a == i)
                if strict or spec_outputs:
                    iut_outputs = frozenset(b for ((a, b), _) in iut_steps if a == i)
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
