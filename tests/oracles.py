"""Independent brute-force implementations used only as test oracles.

Everything here recomputes semantics from first principles (explicit run
enumeration, literal rule application on full state products, leaf-state
vector simulation) without touching the package's search kernels or
provenance records, so agreement is meaningful. Some check one step
alone: ``build_ways`` joins every way a build's transitions decompose
into leaf steps from the side steps its product closure recorded, and
``naive_component_in_context`` and ``paired_projections`` start from
those ways by name; ``naive_silent_closure`` starts from the
relabelled rows and silent edges, and ``naive_subset_pair_search`` and
``naive_product_closure`` from the integer encodings their kernels read,
whose rows ``step_maps`` unpacks by the documented layout with no code
from the package. Nothing here imports a private name of the package
(``test_public_api.py`` pins it).
"""

from __future__ import annotations

from collections import deque
from itertools import product as iproduct

from fsmcheck.compose import Leaf, SystemExpr
from fsmcheck.conform import Counterexample
from fsmcheck.machine import Component, Step, Trace, Transition


def naive_runs(c: Component, tr: Trace) -> list[list[str]]:
    """All state sequences of ``c`` that execute ``tr`` from the initial state."""
    runs = [[c.initial]]
    for s in tr:
        extended = []
        for run in runs:
            for t in c.transitions:
                if t.source == run[-1] and t.input == s.input and t.output == s.output:
                    extended.append(run + [t.target])
        runs = extended
    return runs


def naive_states_after(c: Component, tr: Trace) -> frozenset[str]:
    return frozenset(run[-1] for run in naive_runs(c, tr))


def naive_has_trace(c: Component, tr: Trace) -> bool:
    return bool(naive_runs(c, tr))


def naive_traces(c: Component, k: int) -> set[Trace]:
    """Trace enumeration by per-state depth-first expansion."""
    found: set[Trace] = set()

    def walk(state: str, prefix: Trace) -> None:
        found.add(prefix)
        if len(prefix) == k:
            return
        for t in sorted(c.transitions):
            if t.source == state:
                walk(t.target, prefix + (Step(t.input, t.output),))

    walk(c.initial, ())
    return found


def naive_out_after(c: Component, tr: Trace, i: str) -> frozenset[str]:
    outs = set()
    for o in c.outputs:
        if naive_has_trace(c, tr + (Step(i, o),)):
            outs.add(o)
    return frozenset(outs)


def naive_first_step_outside(tr: Trace, c: Component) -> Counterexample | None:
    """The first step of ``tr`` outside ``c``'s behaviour, as the
    counterexample of ``tr`` against ``c`` with unspecified inputs
    forbidden, or None when ``c`` has the whole trace.

    Each prefix is tried with ``naive_out_after``; the prefix before the
    first disallowed step is a trace of ``c``, so it is the witness.
    """
    for n, s in enumerate(tr):
        allowed = naive_out_after(c, tr[:n], s.input)
        if s.output not in allowed:
            return Counterexample(
                witness=tr[:n],
                input=s.input,
                offending_output=s.output,
                iut_outputs=frozenset([s.output]),
                spec_outputs=allowed,
            )
    return None


def counterexample_order(ce: Counterexample):
    """Shortest witness first, then by witness, input and offending output."""
    return (len(ce.witness), ce.witness, ce.input, ce.offending_output)


def naive_full_product(c1: Component, c2: Component) -> Component:
    """Literal rule application over the complete state product.

    No reachability restriction and no kernels: each of the four rules is
    spelled out over every state pair.
    """
    inputs = (c1.inputs | c2.inputs) - (c1.outputs | c2.outputs)
    outputs = c1.outputs | c2.outputs
    transitions = []
    for s1, s2 in iproduct(sorted(c1.states), sorted(c2.states)):
        src = f"({s1},{s2})"
        for t in c1.transitions:
            if t.source != s1 or t.input not in inputs:
                continue
            if t.output not in c2.inputs:
                transitions.append((src, t.input, t.output, f"({t.target},{s2})"))
            else:
                for u in c2.transitions:
                    if u.source == s2 and u.input == t.output:
                        transitions.append((src, t.input, u.output, f"({t.target},{u.target})"))
        for t in c2.transitions:
            if t.source != s2 or t.input not in inputs:
                continue
            if t.output not in c1.inputs:
                transitions.append((src, t.input, t.output, f"({s1},{t.target})"))
            else:
                for u in c1.transitions:
                    if u.source == s1 and u.input == t.output:
                        transitions.append((src, t.input, u.output, f"({u.target},{t.target})"))
    return Component.build(
        "naive",
        initial=f"({c1.initial},{c2.initial})",
        transitions=transitions,
        inputs=inputs,
        outputs=outputs,
        states=[f"({a},{b})" for a, b in iproduct(sorted(c1.states), sorted(c2.states))],
    )


def naive_product_closure(enc1, enc2, composed_inputs):
    """The product closure of two encodings, each rule over every move.

    The reference for ``_core.product_closure``: breadth first from the
    initial pair, every move of both sides, unpacked from the rows by
    ``step_maps``, is scanned for each of the four rules, and a fed
    side's reactions are found by scanning all of its moves again. A
    pair's candidates (input, output, left target, right target, left
    step, right step) are sorted; a target pair not seen before gets the
    next index. Returns (pairs, transitions) in the kernel's form.
    """

    def moves(enc):
        n = len(enc.state_names)
        return [sorted((i, o, t) for (i, o), mask in steps.items() for t in range(n) if mask >> t & 1)
                for steps in step_maps(enc)]

    moves1, moves2 = moves(enc1), moves(enc2)
    pairs = [(enc1.initial, enc2.initial)]
    transitions = []
    queue = deque([0])
    while queue:
        src = queue.popleft()
        s1, s2 = pairs[src]
        found = []
        for (i, o, t1) in moves1[s1]:
            if i in composed_inputs and o not in enc2.input_ids:  # left alone
                found.append((i, o, t1, s2, (i, o), ()))
            for (i2, o2, t2) in moves2[s2]:  # left feeds right
                if i in composed_inputs and o in enc2.input_ids and i2 == o:
                    found.append((i, o2, t1, t2, (i, o), (o, o2)))
        for (i, o, t2) in moves2[s2]:
            if i in composed_inputs and o not in enc1.input_ids:  # right alone
                found.append((i, o, s1, t2, (), (i, o)))
            for (i1, o1, t1) in moves1[s1]:  # right feeds left
                if i in composed_inputs and o in enc1.input_ids and i1 == o:
                    found.append((i, o1, t1, t2, (o, o1), (i, o)))
        for (i, o, t1, t2, left, right) in sorted(found):
            if (t1, t2) not in pairs:
                pairs.append((t1, t2))
                queue.append(len(pairs) - 1)
            transitions.append((src, i, o, pairs.index((t1, t2)), left, right))
    return pairs, transitions


def _pair_name(existing: set[str], left: str, right: str) -> str:
    name = f"({left},{right})"
    while name in existing:  # distinct pairs may render identically
        name += "~"
    return name


def naive_pair_names(enc1, enc2, pairs) -> list[str]:
    """The names of a product closure's states, one pair at a time in
    ``pairs`` order: ``(left,right)``, with ``~`` appended until it
    differs from every earlier name."""
    names: list[str] = []
    taken: set[str] = set()
    for (s1, s2) in pairs:
        name = _pair_name(taken, enc1.state_names[s1], enc2.state_names[s2])
        taken.add(name)
        names.append(name)
    return names


def naive_cioco_bounded(iut, spec, k, strict=False):
    """Quantify the output-inclusion condition over explicitly enumerated traces.

    Returns ``(violation, examined)``: ``violation`` is None or the
    lexicographically first minimal violation (witness, input, offending
    output); ``examined`` is how many traces were examined in canonical
    order, up to and including the witness.
    """
    examined = 0
    for tr in sorted(naive_traces(spec, k), key=lambda t: (len(t), t)):
        examined += 1
        for i in sorted(spec.inputs):
            iut_outs = naive_out_after(iut, tr, i)
            if not iut_outs:
                continue
            spec_outs = naive_out_after(spec, tr, i)
            if not spec_outs and not strict:
                continue
            extra = iut_outs - spec_outs
            if extra:
                return (tr, i, min(extra)), examined
    return None, examined


def row_steps(row: int, n: int, input_ids, output_ids) -> dict[tuple[int, int], int]:
    """The steps packed in one row of an ``n``-state machine, as
    {(input, output): target mask}.

    The layout as documented: the slots are the (input, output) id pairs
    sorted by input, then output, and the targets of slot k sit at bits
    k*n to k*n + n - 1. No bit lies past the last slot.
    """
    slots = [(i, o) for i in sorted(input_ids) for o in sorted(output_ids)]
    assert row >> len(slots) * n == 0, "a row has bits past its last slot"
    steps = {}
    for k, io in enumerate(slots):
        targets = row >> k * n & ((1 << n) - 1)
        if targets:
            steps[io] = targets
    return steps


def step_maps(enc) -> list[dict[tuple[int, int], int]]:
    """Every state's steps of an encoding, unpacked by ``row_steps``."""
    n = len(enc.state_names)
    return [row_steps(row, n, enc.input_ids, enc.output_ids) for row in enc.rows]


def bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def naive_subset_pair_search(enc_iut, enc_spec, strict: bool):
    """The subset-pair search with the union of step maps rebuilt per pair.

    The reference for ``_core.cioco_bfs``: the same breadth-first order
    over (implementation subset, specification subset) masks, the same
    raw result and the same (explored, max_depth), but every pair unions
    the step maps of its states afresh, state by state, from the rows
    unpacked into dicts.
    """
    iut_maps, spec_maps = step_maps(enc_iut), step_maps(enc_spec)

    def union(maps, mask):
        steps = {}
        for s, by_step in enumerate(maps):
            if mask >> s & 1:
                for io, targets in by_step.items():
                    steps[io] = steps.get(io, 0) | targets
        return steps

    start = (1 << enc_iut.initial, 1 << enc_spec.initial)
    seen = {start: None}
    queue = deque([(start, 0)])
    explored = max_depth = 0
    while queue:
        (qi, qs), depth = queue.popleft()
        explored += 1
        max_depth = max(max_depth, depth)
        spec_steps = union(spec_maps, qs)
        iut_steps = sorted(union(iut_maps, qi).items())
        for io, targets in iut_steps:
            if io not in spec_steps:
                i, o = io
                spec_outputs = frozenset(b for (a, b) in spec_steps if a == i)
                if strict or spec_outputs:
                    iut_outputs = frozenset(b for ((a, b), _) in iut_steps if a == i)
                    witness, key = [], (qi, qs)
                    while seen[key] is not None:
                        key, step = seen[key]
                        witness.append(step)
                    witness.reverse()
                    return (witness, i, o, iut_outputs, spec_outputs), (explored, max_depth)
                continue
            nxt = (targets, spec_steps[io])
            if nxt not in seen:
                seen[nxt] = ((qi, qs), io)
                queue.append((nxt, depth + 1))
    return None, (explored, max_depth)


def naive_trace_inclusion(c1: Component, c2: Component, k: int) -> Trace | None:
    """The shortest, lexicographically least trace of ``c1`` up to length
    ``k`` that ``c2`` cannot execute, or None."""
    for tr in sorted(naive_traces(c1, k), key=lambda t: (len(t), t)):
        if not naive_has_trace(c2, tr):
            return tr
    return None


def agrees_with_naive_inclusion(verdict, c1: Component, c2: Component) -> bool:
    """Does an exact verdict on Trace(c1) <= Trace(c2) match the brute force?

    A failure must name the trace the brute force finds first at the
    counterexample's length. A pass must leave no escaping trace up to six
    steps, nor one step past the deepest subset pair the search reports:
    a shortest escaping trace leaves from a pair at its least depth, one
    step further.
    """
    if verdict.failed:
        full = verdict.counterexample.full_trace()
        return naive_trace_inclusion(c1, c2, len(full)) == full
    k = max(verdict.stats.max_depth + 1, 6)
    return verdict.passed and naive_trace_inclusion(c1, c2, k) is None


def naive_silent_closure(labelled: list[int], silent: list[list[int]]) -> list[int]:
    """Each state's row ``|``-ed over every state it reaches along
    ``silent`` edges, itself included, by a depth-first search from that
    state alone."""
    closed = []
    for s in range(len(labelled)):
        reached = {s}
        stack = [s]
        while stack:
            for t in silent[stack.pop()]:
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
        row = 0
        for t in reached:
            row |= labelled[t]
        closed.append(row)
    return closed


def build_ways(build) -> dict[tuple[int, int, int, int], frozenset[tuple]]:
    """Every transition ``(source, input, output, target)`` of a build
    mapped to all the ways it decomposes into leaf steps, on ids.

    A way holds each leaf's (input, output) step, aligned with
    ``build.leaves``, and None for a leaf that does not move. A leaf's
    steps, read off its rows, are each their own single way; a composed
    transition pairs every way of one part's step with every way of the
    other's, through ``raw`` and ``pairs``. So there can be
    exponentially many in the depth of the tree.
    """
    if not build.parts:
        return {
            (s, i, o, t): frozenset([((i, o),)])
            for s, steps in enumerate(step_maps(build.machine))
            for (i, o), mask in steps.items()
            for t in range(len(build.machine.state_names)) if mask >> t & 1
        }
    left, right = build.parts
    left_ways, right_ways = build_ways(left), build_ways(right)
    left_still, right_still = (None,) * len(left.leaves), (None,) * len(right.leaves)
    ways: dict[tuple[int, int, int, int], set[tuple]] = {}
    for (src, i, o, dst, ls, rs) in build.raw:
        (l1, r1), (l2, r2) = build.pairs[src], build.pairs[dst]
        ways.setdefault((src, i, o, dst), set()).update(
            wl + wr
            for wl in (left_ways[(l1, *ls, l2)] if ls else (left_still,))
            for wr in (right_ways[(r1, *rs, r2)] if rs else (right_still,))
        )
    return {key: frozenset(found) for key, found in ways.items()}


def build_decompositions(build) -> dict[Transition, frozenset[tuple[Step | None, ...]]]:
    """``build_ways`` with names: every transition of ``build.component``
    mapped to the ways it decomposes into leaf steps."""
    names, labels = build.machine.state_names, build.machine.label_names
    return {
        Transition(names[s], labels[i], labels[o], names[t]): frozenset(
            tuple(None if io is None else Step(labels[io[0]], labels[io[1]]) for io in way)
            for way in ways
        )
        for (s, i, o, t), ways in build_ways(build).items()
    }


def paired_projections(build, tr: Trace, decompositions=None) -> frozenset[tuple[Trace, ...]]:
    """Per-run projections of ``tr`` onto every leaf at once, aligned with
    ``build.leaves``, by replaying it over ``build_decompositions``
    (``decompositions``, when given, is that table, computed once for
    many traces).

    Each member is one joint attribution of the whole trace, so the leaf
    traces it holds come from a single composed run. Empty when ``tr``
    is not a trace of the build.
    """
    if decompositions is None:
        decompositions = build_decompositions(build)
    index: dict[tuple[str, str, str], list] = {}
    for t, ways in decompositions.items():
        index.setdefault((t.source, t.input, t.output), []).append((t.target, ways))
    frontier = {(build.machine.state_names[build.machine.initial], ((),) * len(build.leaves))}
    for s in tr:
        frontier = {
            (target, tuple(proj + (step,) if step else proj for proj, step in zip(projs, way)))
            for state, projs in frontier
            for target, ways in index.get((state, s.input, s.output), ())
            for way in ways
        }
    return frozenset(projs for _, projs in frontier)


def naive_context_edges(build, target: str):
    """A build's composed transitions relabelled for one leaf, by name.

    Returns ``(labelled, silent)``: state -> target step -> successor
    states, and state -> successors reached while the target does not
    move. Reads ``build_decompositions``.
    """
    j = build.leaves.index(target)
    labelled: dict[str, dict[Step, set[str]]] = {}
    silent: dict[str, set[str]] = {}
    for t, ways in build_decompositions(build).items():
        for way in ways:
            if way[j] is None:
                silent.setdefault(t.source, set()).add(t.target)
            else:
                labelled.setdefault(t.source, {}).setdefault(way[j], set()).add(t.target)
    return labelled, silent


def naive_component_in_context(build, target: str) -> Component:
    """The projection of a built system on one leaf, state by state.

    Every composed state gets the target steps of every state it reaches
    silently, found by a depth-first search from that state alone; the
    result is the part reachable from the initial state. Uses neither
    the integer form of the build nor any strongly connected components.
    """
    labelled, silent = naive_context_edges(build, target)
    composed = build.component
    return _closed_context(
        labelled,
        silent,
        composed.states,
        composed.initial,
        f"{composed.name}.at.{target}",
        build.leaf_component(target),
    )


def _closed_context(labelled, silent, states, initial, name, leaf) -> Component:
    """Every state gets the steps of every state it reaches silently, by
    depth-first search from that state alone; the part reachable from
    ``initial`` over the leaf's alphabets."""
    merged: dict[str, dict[Step, set[str]]] = {}
    for s in states:
        closure = {s}
        stack = [s]
        while stack:
            for u in silent.get(stack.pop(), ()):
                if u not in closure:
                    closure.add(u)
                    stack.append(u)
        steps: dict[Step, set[str]] = {}
        for u in closure:
            for stp, targets in labelled.get(u, {}).items():
                steps.setdefault(stp, set()).update(targets)
        merged[s] = steps

    reachable = {initial}
    stack = [initial]
    transitions = []
    while stack:
        s = stack.pop()
        for stp, targets in merged[s].items():
            for t in targets:
                transitions.append((s, stp.input, stp.output, t))
                if t not in reachable:
                    reachable.add(t)
                    stack.append(t)
    return Component.build(
        name,
        initial,
        transitions,
        inputs=leaf.inputs,
        outputs=leaf.outputs,
    )


def reassembles(c1: Component, c2: Component, tr: Trace, tr1: Trace, tr2: Trace) -> bool:
    """Can component runs over ``tr1``/``tr2`` interleave back into ``tr``?

    Joint replay: each composed step consumes either one step of one
    side (its output not consumable by the other) or one step of each
    (the hidden intermediate matching). Mirrors the composition rules
    without using the package's product construction.
    """

    def targets(c, state, i, o):
        return [t.target for t in c.transitions
                if t.source == state and t.input == i and t.output == o]

    frontier = {(c1.initial, c2.initial, 0, 0)}
    for s in tr:
        i, o = s.input, s.output
        nxt = set()
        for (s1, s2, a, b) in frontier:
            if a < len(tr1) and tr1[a] == s and o not in c2.inputs:
                for t1 in targets(c1, s1, i, o):
                    nxt.add((t1, s2, a + 1, b))
            if b < len(tr2) and tr2[b] == s and o not in c1.inputs:
                for t2 in targets(c2, s2, i, o):
                    nxt.add((s1, t2, a, b + 1))
            if a < len(tr1) and b < len(tr2):
                left, right = tr1[a], tr2[b]
                if (left.input == i and right.output == o
                        and left.output == right.input and left.output in c2.inputs):
                    for t1 in targets(c1, s1, i, left.output):
                        for t2 in targets(c2, s2, right.input, o):
                            nxt.add((t1, t2, a + 1, b + 1))
                if (right.input == i and left.output == o
                        and right.output == left.input and right.output in c1.inputs):
                    for t1 in targets(c1, s1, left.input, o):
                        for t2 in targets(c2, s2, i, right.output):
                            nxt.add((t1, t2, a + 1, b + 1))
        frontier = nxt
        if not frontier:
            return False
    return any(a == len(tr1) and b == len(tr2) for (_, _, a, b) in frontier)


# ------------------------- leaf-vector simulation of a composition tree

def _alphabets(expr: SystemExpr) -> tuple[frozenset[str], frozenset[str]]:
    if isinstance(expr, Leaf):
        return expr.component.inputs, expr.component.outputs
    il, ol = _alphabets(expr.left)
    ir, orr = _alphabets(expr.right)
    return (il | ir) - (ol | orr), ol | orr


def _leaves(expr: SystemExpr) -> list[Leaf]:
    if isinstance(expr, Leaf):
        return [expr]
    return _leaves(expr.left) + _leaves(expr.right)


def vector_initial(expr: SystemExpr) -> tuple[str, ...]:
    return tuple(leaf.component.initial for leaf in _leaves(expr))


def vector_steps(expr: SystemExpr, vector: tuple[str, ...]):
    """All composite steps from a leaf-state vector.

    Yields (input, output, next_vector, moves) where moves maps leaf
    positions to the step that leaf performed. Implemented by direct
    recursive application of the composition rules.
    """
    steps, _ = _vector_steps(expr, vector, 0)
    return steps


def _vector_steps(expr: SystemExpr, vector, offset):
    if isinstance(expr, Leaf):
        state = vector[offset]
        out = []
        for t in sorted(expr.component.transitions):
            if t.source == state:
                nxt = vector[:offset] + (t.target,) + vector[offset + 1 :]
                out.append((t.input, t.output, nxt, {offset: Step(t.input, t.output)}))
        return out, offset + 1

    left_steps, mid = _vector_steps(expr.left, vector, offset)
    right_steps, end = _vector_steps(expr.right, vector, mid)
    inputs, _ = _alphabets(expr)
    left_in, _ = _alphabets(expr.left)
    right_in, _ = _alphabets(expr.right)

    out = []
    for (i, o, nxt, moves) in left_steps:
        if i not in inputs:
            continue
        if o not in right_in:
            out.append((i, o, nxt, moves))
        else:
            for (i2, o2, nxt2, moves2) in right_steps:
                if i2 == o:
                    merged = vector[:offset] + nxt[offset:mid] + nxt2[mid:end] + vector[end:]
                    out.append((i, o2, merged, {**moves, **moves2}))
    for (i, o, nxt, moves) in right_steps:
        if i not in inputs:
            continue
        if o not in left_in:
            out.append((i, o, nxt, moves))
        else:
            for (i1, o1, nxt1, moves1) in left_steps:
                if i1 == o:
                    merged = vector[:offset] + nxt1[offset:mid] + nxt[mid:end] + vector[end:]
                    out.append((i, o1, merged, {**moves, **moves1}))
    return out, end


def vector_traces(expr: SystemExpr, k: int) -> set[Trace]:
    """Composed traces up to depth ``k`` via leaf-vector simulation."""
    found: set[Trace] = set()

    def walk(vector, prefix):
        found.add(prefix)
        if len(prefix) == k:
            return
        for (i, o, nxt, _) in vector_steps(expr, vector):
            walk(nxt, prefix + (Step(i, o),))

    walk(vector_initial(expr), ())
    return found


def vector_projections(expr: SystemExpr, tr: Trace, target: str) -> frozenset[Trace]:
    """Projections of ``tr`` onto one leaf, by leaf-vector run replay."""
    names = [leaf.name for leaf in _leaves(expr)]
    j = names.index(target)
    frontier = {(vector_initial(expr), ())}
    for s in tr:
        nxt = set()
        for (vector, proj) in frontier:
            for (i, o, nxt_vec, moves) in vector_steps(expr, vector):
                if i == s.input and o == s.output:
                    move = moves.get(j)
                    nxt.add((nxt_vec, proj + (move,) if move else proj))
        frontier = nxt
        if not frontier:
            return frozenset()
    return frozenset(p for (_, p) in frontier)


def vector_component_in_context(expr: SystemExpr, target: str) -> Component:
    """The projection of a system on one leaf, by leaf-vector simulation.

    The composed states are the reachable leaf-state vectors, and each
    composed step is relabelled by the move the target makes in it, or
    is silent when the target does not move. No build is involved.
    """
    leaves = _leaves(expr)
    j = [leaf.name for leaf in leaves].index(target)

    def name(vector) -> str:
        return "(" + ",".join(vector) + ")"

    start = vector_initial(expr)
    labelled: dict[str, dict[Step, set[str]]] = {}
    silent: dict[str, set[str]] = {}
    seen = {start}
    stack = [start]
    while stack:
        vector = stack.pop()
        for (_, _, nxt, moves) in vector_steps(expr, vector):
            move = moves.get(j)
            if move is None:
                silent.setdefault(name(vector), set()).add(name(nxt))
            else:
                labelled.setdefault(name(vector), {}).setdefault(move, set()).add(name(nxt))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return _closed_context(
        labelled,
        silent,
        [name(v) for v in seen],
        name(start),
        f"vector.at.{target}",
        leaves[j].component,
    )
