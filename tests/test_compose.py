"""Synchronous parallel composition: rules, reports, system trees."""

import random
from collections import Counter

import pytest

from fsmcheck import (
    ComposabilityError,
    Component,
    Leaf,
    Par,
    build_system_full,
    component_in_context,
    component_in_context_tree,
    has_trace,
    project_trace,
    signature_check,
    subcomponents,
    trace,
    traces_up_to,
)
from fsmcheck.compose import compose_pair
from fsmcheck.randgen import random_component, random_composable_pair

from demos import coffee_expr, demo
from oracles import (
    build_decompositions,
    build_ways,
    naive_full_product,
    naive_pair_names,
    naive_product_closure,
    naive_traces,
    paired_projections,
    row_steps,
    vector_traces,
)
from test_project import build_nodes, random_four_leaf_system, random_three_leaf_system


def test_signature_report_fields():
    c1 = Component.build("c1", "s0", [("s0", "coin", "makeC", "s0"), ("s0", "coin", "makeT", "s0")])
    c2 = Component.build("c2", "t0", [("t0", "makeC", "cup", "t0"), ("t0", "makeT", "cup", "t0")])
    report = signature_check(c1, c2)
    assert report.o1_cap_i2 == {"makeC", "makeT"}
    assert report.o2_cap_i1 == frozenset()
    assert not report.synchronizable  # only one direction feeds the other


def test_disjoint_alphabets_not_synchronizable_but_theorem_friendly():
    c1 = Component.build("c1", "s0", [("s0", "a", "x", "s0")])
    c2 = Component.build("c2", "t0", [("t0", "b", "y", "t0")])
    report = signature_check(c1, c2)
    assert not report.synchronizable
    assert report.alphabets_disjoint


def test_shared_inputs_break_disjointness():
    c1 = Component.build("c1", "s0", [("s0", "a", "x", "s0")])
    c2 = Component.build("c2", "t0", [("t0", "a", "y", "t0")])
    assert not signature_check(c1, c2).alphabets_disjoint


def test_left_only_rule():
    c1 = Component.build("c1", "s0", [("s0", "a", "x", "s1")])
    c2 = Component.build("c2", "t0", [("t0", "i", "o", "t0")], inputs=["x_unused", "i"])
    composed = compose_pair(c1, c2, relax=True).component
    assert has_trace(composed, trace("a|x"))
    assert "(s1,t0)" in composed.states


def test_feeding_rule_hides_intermediate():
    c1 = Component.build("c1", "s0", [("s0", "a", "m", "s1")])
    c2 = Component.build("c2", "t0", [("t0", "m", "y", "t1")])
    composed = compose_pair(c1, c2, relax=True).component
    assert composed.inputs == {"a"}
    assert has_trace(composed, trace("a|y"))
    assert not has_trace(composed, trace("a|m"))
    assert "(s1,t1)" in composed.states


def test_trigger_inside_output_union_is_excluded():
    # the right side could react alone on "m", but "m" is an output of the
    # left side, hence not a composed input
    c1 = Component.build("c1", "s0", [("s0", "a", "m", "s1")])
    c2 = Component.build("c2", "t0", [("t0", "m", "y", "t1")])
    composed = compose_pair(c1, c2, relax=True).component
    assert "m" not in composed.inputs
    assert all(t.input != "m" for t in composed.transitions)


def test_composability_error_without_relax():
    c1 = Component.build("c1", "s0", [("s0", "a", "x", "s0")])
    c2 = Component.build("c2", "t0", [("t0", "b", "y", "t0")])
    with pytest.raises(ComposabilityError):
        compose_pair(c1, c2).component
    assert compose_pair(c1, c2, relax=True).component is not None


def test_composed_alphabet_law():
    rng = random.Random(5)
    for _ in range(50):
        c1, c2 = random_composable_pair(rng)
        composed = compose_pair(c1, c2, relax=True).component
        assert composed.inputs == (c1.inputs | c2.inputs) - (c1.outputs | c2.outputs)
        assert composed.outputs == c1.outputs | c2.outputs
        assert not composed.inputs & composed.outputs


def test_coffee_composition_runs_the_refund_trace():
    composed = build_system_full(
        coffee_expr(demo("coffee/iut_money"), demo("coffee/drink"))).component
    assert has_trace(
        composed, trace("coinC|preparing abs|coffee coinC|preparing abs|refund")
    )


def test_reachable_product_matches_literal_rule_closure():
    rng = random.Random(11)
    for _ in range(60):
        c1, c2 = random_composable_pair(rng, n_states=(2, 5))
        fast = compose_pair(c1, c2, relax=True).component
        naive = naive_full_product(c1, c2)
        for k in range(5):
            assert traces_up_to(fast, k) == naive_traces(naive, k)


def test_every_composed_transition_is_rule_justified():
    rng = random.Random(17)
    for _ in range(40):
        c1, c2 = random_composable_pair(rng, n_states=(2, 4))
        fast = compose_pair(c1, c2, relax=True).component
        naive = naive_full_product(c1, c2)
        naive_keys = {
            (t.source, t.input, t.output, t.target) for t in naive.transitions
        }
        for t in fast.transitions:
            assert (t.source, t.input, t.output, t.target) in naive_keys


def test_trace_sets_commute():
    rng = random.Random(19)
    for _ in range(40):
        c1, c2 = random_composable_pair(rng, n_states=(2, 4))
        ab = compose_pair(c1, c2, relax=True).component
        ba = compose_pair(c2, c1, relax=True).component
        for k in range(5):
            assert traces_up_to(ab, k) == traces_up_to(ba, k)


class TestSystemTrees:
    def test_single_leaf_is_identity(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
        assert build_system_full(Leaf("C", c)).component == c

    def test_pair_node_composes(self):
        money, drink = demo("coffee/iut_money"), demo("coffee/drink")
        expr = coffee_expr(money, drink)
        assert build_system_full(expr).component == compose_pair(money, drink).component

    def test_subcomponents(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
        assert subcomponents(Leaf("M", c)) == {"M"}
        assert subcomponents(Par(Leaf("M", c), Leaf("D", c))) == {"M", "D"}
        nested = Par(Par(Leaf("A", c), Leaf("B", c)), Leaf("C", c))
        assert subcomponents(nested) == {"A", "B", "C"}

    def test_nested_tree_matches_vector_simulation(self):
        rng = random.Random(29)
        for _ in range(15):
            a, b = random_composable_pair(rng, names=("A", "B"), n_states=(2, 3))
            inner = compose_pair(a, b, relax=True).component
            # wire a third component consuming one inner output
            shared_out = sorted(inner.outputs)[0]
            c = Component.build(
                "C",
                "u0",
                [
                    ("u0", shared_out, "z0", "u1"),
                    ("u1", "cin", "z1", "u0"),
                    ("u1", "cin", "cback", "u0"),
                ],
                inputs=[shared_out, "cin"],
                outputs=["z0", "z1", "cback"],
            )
            expr = Par(Par(Leaf("A", a), Leaf("B", b)), Leaf("C", c))
            composed = build_system_full(expr, relax=True).component
            for k in range(4):
                assert traces_up_to(composed, k) == vector_traces(expr, k)

    def test_duplicate_leaf_names_rejected(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
        with pytest.raises(ComposabilityError):
            build_system_full(Par(Leaf("M", c), Leaf("M", c))).component

    def test_error_carries_node_path(self):
        a = Component.build("a", "s0", [("s0", "a", "x", "s0")])
        b = Component.build("b", "t0", [("t0", "b", "y", "t0")])
        feeds = Component.build("f", "u0", [("u0", "x", "q", "u0"), ("u0", "y", "q", "u0")])
        expr = Par(Par(Leaf("A", a), Leaf("B", b)), Leaf("F", feeds))
        with pytest.raises(ComposabilityError) as err:
            build_system_full(expr)
        assert "left" in str(err.value)
        assert err.value.path == "left" and str(err.value).endswith(" (at node left)")
        # a pair's build names its node as any build does
        with pytest.raises(ComposabilityError) as err:
            compose_pair(a, b)
        assert err.value.path == "root" and str(err.value).endswith(" (at node root)")


def _moves(part, source: int, step, target: int) -> bool:
    """Does ``part`` take ``step`` from ``source`` to ``target``? Read off
    its packed rows, not off the decomposition table."""
    m = part.machine
    n = len(m.state_names)
    targets = row_steps(m.rows[source], n, m.input_ids, m.output_ids).get(step, 0)
    return bool(targets >> target & 1)


def _leaf_states(node, state: int) -> list[int]:
    """The state of every leaf of ``node`` in ``state``, reached through
    ``pairs`` down the tree, aligned with ``node.leaves``."""
    if not node.parts:
        return [state]
    (left, right), (s1, s2) = node.parts, node.pairs[state]
    return _leaf_states(left, s1) + _leaf_states(right, s2)


def assert_leaf_steps_are_real(node):
    """Every way of every transition of a composed ``node`` is made of
    steps its leaves really take, off their own rows, reaching each
    leaf's state through ``pairs`` down the tree; a leaf that does not
    move keeps its state. ``steps`` holds each leaf's steps of the ways,
    which the oracle ``build_ways`` joins."""
    leaves = [part for part in build_nodes(node) if not part.parts]
    assert [leaf.leaves[0] for leaf in leaves] == list(node.leaves)
    joint = build_ways(node)
    assert joint.keys() == node.steps.keys() == {t[:4] for t in node.machine.raw}
    for key, ways in joint.items():
        before, after = _leaf_states(node, key[0]), _leaf_states(node, key[3])
        for way in ways:
            assert len(way) == len(leaves)
            assert any(step is not None for step in way), "a way in which no leaf moves"
            for leaf, step, s, t in zip(leaves, way, before, after):
                if step is None:
                    assert s == t, "a leaf that does not move changed state"
                else:
                    assert _moves(leaf, s, step, t)
        assert node.steps[key] == [{way[j] for way in ways} for j in range(len(leaves))]


def assert_side_steps_are_real(build):
    """Every transition of every composed node of ``build`` carries the
    steps its two parts really take, and every way and every leaf step
    joined from them is a step that leaf really takes, off its own rows."""
    for node in build_nodes(build):
        if not node.parts:
            continue
        assert_leaf_steps_are_real(node)
        for (src, i, o, dst, left, right) in node.machine.raw:
            assert left or right, "a transition in which no side moves"
            for side, (part, step) in enumerate(zip(node.parts, (left, right))):
                s, t = node.pairs[src][side], node.pairs[dst][side]
                if step:
                    assert _moves(part, s, step, t)
                else:
                    assert s == t, "a side that does not move changed state"
            assert i in node.machine.input_ids
            if not (left and right):
                assert (i, o) == (left or right)
                continue
            # the triggered side reads the composed input, and its output
            # is hidden as the input of the side that writes the output
            sides = [(left, node.parts[0].machine), (right, node.parts[1].machine)]
            if left[1] != right[0]:
                sides.reverse()  # the right side is the triggered one
            (trigger, feeder), (react, fed) = sides
            assert trigger[1] == react[0]
            assert trigger[1] in feeder.output_ids and react[0] in fed.input_ids
            assert (trigger[0], react[1]) == (i, o)


def test_closure_transitions_carry_real_side_steps():
    rng = random.Random(31)
    shapes = ("balanced", "left-deep", "right-deep")
    for n in range(45):
        if n % 3 == 0:
            c1, c2 = random_composable_pair(rng, n_states=(2, 4))
            expr = Par(Leaf("A", c1), Leaf("B", c2))
        elif n % 3 == 1:
            expr = random_three_leaf_system(rng)
        else:
            expr = random_four_leaf_system(rng, shapes[n // 3 % 3])
        assert_side_steps_are_real(build_system_full(expr, relax=True))


@pytest.mark.parametrize("shape, order", [
    ("balanced", "ABCD"), ("left-deep", "ABCD"), ("right-deep", "DCAB"),
])
def test_leaf_builds_are_the_leaves_in_expression_order(shape, order):
    """A build records its leaves once, as ``leaf_builds`` in the
    expression's left-to-right order; ``leaves`` are their names, and every
    node's ``leaf_builds`` are the root's own objects."""
    build = build_system_full(random_four_leaf_system(random.Random(37), shape), relax=True)
    assert [b.expr.name for b in build.leaf_builds] == list(build.leaves) == list(order)
    assert all(not leaf.parts for leaf in build.leaf_builds)
    for node in build_nodes(build):
        assert node.leaf_builds == tuple(b for b in build.leaf_builds if b.expr.name in node.leaves)
        for name, leaf in zip(node.leaves, node.leaf_builds):
            assert leaf is build.leaf_builds[build.leaves.index(name)]


@pytest.mark.parametrize("left, right, expected", [
    pytest.param([("s0", "a", "x", "s1")], [], ("a", "x", ("a", "x"), ()), id="left alone"),
    pytest.param([], [("t0", "a", "x", "t1")], ("a", "x", (), ("a", "x")), id="right alone"),
    pytest.param([("s0", "a", "m", "s1")], [("t0", "m", "y", "t1")],
                 ("a", "y", ("a", "m"), ("m", "y")), id="left feeds right"),
    pytest.param([("s0", "m", "y", "s1")], [("t0", "a", "m", "t1")],
                 ("a", "y", ("m", "y"), ("a", "m")), id="right feeds left"),
])
def test_each_rule_records_both_sides_steps(left, right, expected):
    """One transition, composed by one rule: its composed step and the
    step each side takes in it."""
    c1 = Component.build("c1", "s0", left, inputs=["a"], outputs=["x"], states=["s1"])
    c2 = Component.build("c2", "t0", right, inputs=["b"], outputs=["z"], states=["t1"])
    build = compose_pair(c1, c2, relax=True)
    ids = build.machine.label_ids
    i, o, l, r = expected
    target = build.pairs.index((int(bool(l)), int(bool(r))))
    assert build.machine.raw == [(0, ids[i], ids[o], target, tuple(ids[x] for x in l),
                                  tuple(ids[x] for x in r))]
    assert_side_steps_are_real(build)


def test_a_leaf_maps_each_move_to_its_own_step():
    """A leaf's ``steps`` holds each of its moves with just its step, so
    trace projection and the tree oracle read a leaf as any build."""
    moves = [("p", "a", "x", "q"), ("q", "a", "y", "p"), ("q", "b", "x", "q")]
    c = Component.build("C", "p", moves)
    build = build_system_full(Leaf("C", c))
    names, labels = build.machine.state_names, build.machine.label_names
    assert {
        (names[s], labels[i], labels[o], names[t]):
            [{(labels[x], labels[y]) for x, y in taken} for taken in per_leaf]
        for (s, i, o, t), per_leaf in build.steps.items()
    } == {(s, i, o, t): [{(i, o)}] for s, i, o, t in moves}
    assert build.steps == {key: [{way for (way,) in ways}] for key, ways in build_ways(build).items()}
    assert project_trace(build, trace("a|x a|y a|x b|x"), "C") == {
        trace("a|x a|y a|x b|x")
    }
    tree = component_in_context_tree(build, "C", 3).component
    assert traces_up_to(tree, 3) == traces_up_to(c, 3)


def relay_chain(depth: int, shape: str):
    """``depth + 1`` one-state leaves in a chain: ``L0`` answers ``i`` with
    ``a0`` or ``b0``, and each next leaf answers either label of the one
    before with either of its own, so each composed step of the whole
    chain has ``2 ** depth`` ways."""
    leaves = [Leaf("L0", Component.build("L0", "s", [("s", "i", y, "s") for y in ("a0", "b0")]))]
    for k in range(1, depth + 1):
        steps = [("s", x, y, "s") for x in (f"a{k - 1}", f"b{k - 1}") for y in (f"a{k}", f"b{k}")]
        leaves.append(Leaf(f"L{k}", Component.build(f"L{k}", "s", steps)))
    if shape == "left-deep":
        expr = leaves[0]
        for leaf in leaves[1:]:
            expr = Par(expr, leaf)
        return expr
    expr = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        expr = Par(leaf, expr)
    return expr


@pytest.mark.parametrize("shape", ["left-deep", "right-deep"])
def test_relay_chains_keep_the_record_as_small_as_the_machines(shape):
    """Each node records the step each side takes, once per pair of side
    steps, not once per way: the ways multiply with the depth, and only
    the oracle that joins them, ``build_ways``, pays for them."""
    depth = 12
    build = build_system_full(relay_chain(depth, shape), relax=True)
    for node in build_nodes(build):
        assert len(node.machine.raw or ()) <= 8
    for target in build.leaves:
        projection = component_in_context(build, target).component
        own = build.leaf_component(target)
        assert {(t.input, t.output) for t in projection.transitions} == {
            (t.input, t.output) for t in own.transitions
        }
    # each leaf takes one of at most four steps, whatever the depth
    built = [node for node in build_nodes(build) if "steps" in vars(node)]
    assert len(built) == depth - 1
    for node in built:
        assert len(node.steps) <= 8
        assert all(len(taken) <= 4 for per_leaf in node.steps.values() for taken in per_leaf)
    assert {len(ways) for ways in build_ways(build).values()} == {2 ** depth}


def test_ways_keep_each_leaf_step_with_its_partners():
    """A answers ``i`` with ``x2`` or ``x3`` and B maps both to ``y``, so a
    step of A and B has two ways. Above it, C reads ``y``: no way of the
    whole system pairs A's ``x2`` with B's ``x3``."""
    a = Component.build("A", "a", [("a", "i", "x2", "a"), ("a", "i", "x3", "a")])
    b = Component.build("B", "b", [("b", "x2", "y", "b"), ("b", "x3", "y", "b")])
    c = Component.build("C", "c", [("c", "y", "z", "c")])
    pair = Par(Leaf("A", a), Leaf("B", b))
    for expr in (Par(pair, Leaf("C", c)), Par(Leaf("C", c), pair)):
        build = build_system_full(expr, relax=True)
        expected = {
            frozenset({"A": trace(f"i|{x}"), "B": trace(f"{x}|y"), "C": trace("y|z")}.items())
            for x in ("x2", "x3")
        }
        runs = paired_projections(build, trace("i|z"))
        assert {frozenset(zip(build.leaves, run)) for run in runs} == expected
        (ways,) = build_decompositions(build).values()
        assert len(ways) == 2
        assert_side_steps_are_real(build)


def colliding_pair() -> tuple[Component, Component]:
    """A (states ``a``, ``a,b``) and B (states ``b,c``, ``c``): the pairs
    (a, b,c) and (a,b, c) both render as ``(a,b,c)``, and one joint step
    reaches the second from the first."""
    a = Component.build("A", "a", [("a", "i", "m", "a,b")], inputs=["i", "r"])
    b = Component.build("B", "b,c", [("b,c", "m", "o", "c")], outputs=["o", "r"])
    return a, b


def test_pair_names_that_render_alike_are_kept_apart():
    a, b = colliding_pair()
    third = Component.build("C", "c0", [("c0", "u", "v", "c0")])
    pair = Par(Leaf("A", a), Leaf("B", b))
    for expr in (pair, Par(Leaf("C", third), pair), Par(pair, Leaf("C", third))):
        build = build_system_full(expr, relax=True)
        for node in build_nodes(build):
            if node.parts:
                left, right = node.parts
                assert node.machine.state_names == naive_pair_names(
                    left.machine, right.machine, node.pairs)
        names = build.machine.state_names
        assert len(set(names)) == len(names) == 2
        assert sum("~" in name for name in names) == 1
        component = build.component
        assert component.states == set(names)
        # the joint step leads from the initial state to the other one
        (t,) = [t for t in component.transitions if t.input == "i"]
        assert (t.source, t.output) == (component.initial, "o") and t.target != t.source


def test_three_pairs_that_render_alike_take_growing_suffixes():
    """(a, b,c,d), (a,b, c,d) and (a,b,c, d) all render as ``(a,b,c,d)``;
    each later one takes one more ``~``."""
    a = Component.build("A", "a", [("a", "i", "m", "a,b"), ("a,b", "i", "m", "a,b,c")])
    b = Component.build("B", "b,c,d", [("b,c,d", "m", "o", "c,d"), ("c,d", "m", "o", "d")])
    build = build_system_full(Par(Leaf("A", a), Leaf("B", b)), relax=True)
    assert build.machine.state_names == ["(a,b,c,d)", "(a,b,c,d)~", "(a,b,c,d)~~"]
    assert build.machine.state_names == naive_pair_names(
        build.parts[0].machine, build.parts[1].machine, build.pairs)


def closure_builds(rng, count: int):
    """Seeded builds whose composed nodes exercise the product closure, in
    turn: a pair with disjoint inputs, one with a shared input, one that
    feeds in one direction only, and a three- and a four-leaf system. All
    are composed with relax."""
    shapes = ("balanced", "left-deep", "right-deep")
    for n in range(count):
        kind = n % 5
        if kind < 2:
            expr = Par(*(Leaf(name, c) for name, c in zip("LR", random_composable_pair(
                rng, n_states=(3, 7), density=(0.6, 1.0), disjoint=kind == 0))))
        elif kind == 2:
            left = random_component(rng, "L", ["a0", "a1"], ["x0", "b0"], (3, 7), (0.6, 1.0))
            right = random_component(rng, "R", ["b0", "b1"], ["y0", "y1"], (3, 7), (0.6, 1.0))
            expr = Par(Leaf("L", left), Leaf("R", right))
        elif kind == 3:
            expr = random_three_leaf_system(rng)
        else:
            expr = random_four_leaf_system(rng, shapes[n // 5 % 3])
        yield build_system_full(expr, relax=True)


def composed_nodes(count: int):
    """The composed nodes of the first ``count`` of ``closure_builds``."""
    return [node for build in closure_builds(random.Random(43), count)
            for node in build_nodes(build) if node.parts]


def test_product_closure_equals_the_literal_closure():
    nodes = composed_nodes(200)
    shared = one_way = nested = several = unanswered = wider_right = wider_left = 0
    for node in nodes:
        left, right = node.parts
        assert (node.pairs, node.machine.raw) == naive_product_closure(
            left.machine, right.machine, node.machine.input_ids)
        assert node.machine.state_names == naive_pair_names(
            left.machine, right.machine, node.pairs)
        assert node.reports[-1][1] == signature_check(left, right)
        shared += bool(left.machine.input_ids & right.machine.input_ids)
        one_way += not node.reports[-1][1].synchronizable
        nested += bool(left.parts or right.parts)
        # the right side reacts in more than one way to one left output
        fed = Counter((t[0], t[4], node.pairs[t[3]][0]) for t in node.machine.raw
                      if t[4] and t[5] and t[5][0] == t[4][1])
        several += any(ways > 1 for ways in fed.values())
        # a side feeds the other a label the other cannot react to there
        moves = [part.machine.moves for part in node.parts]
        unanswered += any(
            i in node.machine.input_ids and o in node.parts[1 - side].machine.input_ids
            and all(fed_label != o for fed_label, _, _ in moves[1 - side][pair[1 - side]])
            for pair in node.pairs for side in (0, 1) for i, o, _ in moves[side][pair[side]])
        n1, n2 = len(left.machine.state_names), len(right.machine.state_names)
        wider_right += n2 > n1
        wider_left += n1 > n2
    assert len(nodes) >= 300
    counts = (shared, one_way, nested, several, unanswered, wider_right, wider_left)
    assert min(counts) >= 30, counts


def test_product_closure_numbering_is_pinned():
    """``raw`` lists each source's transitions in the order the sources
    were found, each source's sorted by (input, output, left target,
    right target, left step, right step); each target not seen before
    takes the next id."""
    for node in composed_nodes(100):
        pairs, raw = node.pairs, node.machine.raw
        left, right = node.parts
        assert pairs[0] == (left.machine.initial, right.machine.initial)
        assert len(set(pairs)) == len(pairs)
        sources = [t[0] for t in raw]
        assert sources == sorted(sources)
        order = [(t[0], t[1], t[2], *pairs[t[3]], t[4], t[5]) for t in raw]
        assert order == sorted(order)
        unused = 1
        for t in raw:
            assert t[0] < unused  # a pair is expanded only once it is found
            if t[3] >= unused:
                assert t[3] == unused
                unused += 1
        assert unused == len(pairs)
