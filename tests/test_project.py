"""Projection: per-trace projections and the component-in-context."""

import itertools
import random

import pytest

from fsmcheck import (
    Component,
    Leaf,
    NotATraceError,
    Par,
    TraceLimitError,
    UnknownTargetError,
    build_system_full,
    certify_in_context,
    component_in_context,
    component_in_context_tree,
    has_trace,
    project_trace,
    sorted_traces,
    trace,
    traces_up_to,
)
from fsmcheck.compose import composed_alphabets, subcomponents
from fsmcheck.conform import _exact_verdict
from fsmcheck.formats import component_from_text, component_to_text
from fsmcheck._core import EncodedComponent, encode_pair
from fsmcheck.machine import Step
from fsmcheck.project import _closed_steps, _encoded_projections, _relabel
from fsmcheck.randgen import mutate, prune, random_component, random_composable_pair

from demos import coffee_expr, demo, relay_expr
from oracles import (
    bits,
    build_decompositions,
    naive_component_in_context,
    naive_context_edges,
    naive_silent_closure,
    paired_projections,
    row_steps,
    step_maps,
    vector_component_in_context,
    vector_projections,
)


def feeding_expr():
    # C1 feeds C2 through m; C2 answers back through w; C2 also has a
    # solo step c|z that does not involve C1 at all
    c1 = Component.build(
        "C1",
        "s0",
        [("s0", "a", "m", "s1"), ("s1", "w", "x2", "s0")],
        inputs=["a", "w"],
        outputs=["m", "x2"],
    )
    c2 = Component.build(
        "C2",
        "t0",
        [("t0", "m", "y", "t1"), ("t1", "b", "w", "t0"), ("t1", "c", "z", "t1")],
        inputs=["m", "b", "c"],
        outputs=["y", "w", "z"],
    )
    return Par(Leaf("C1", c1), Leaf("C2", c2))


class TestProjectTrace:
    def test_solo_steps_project_to_empty_on_the_other_side(self):
        build = build_system_full(feeding_expr())
        # second step is executed by C2 alone
        tr = trace("a|y c|z")
        assert project_trace(build, tr, "C1") == {trace("a|m")}
        assert project_trace(build, tr, "C2") == {trace("m|y c|z")}

    def test_synchronized_step_splits_into_contributions(self):
        build = build_system_full(feeding_expr())
        tr = trace("a|y")
        assert project_trace(build, tr, "C1") == {trace("a|m")}
        assert project_trace(build, tr, "C2") == {trace("m|y")}

    def test_coffee_projection_of_the_brewing_prefix(self):
        expr = coffee_expr(demo("coffee/spec_money"), demo("coffee/drink"))
        got = project_trace(build_system_full(expr), trace("coinC|preparing abs|coffee"), "M")
        assert got == {trace("coinC|makeC")}

    def test_nondeterministic_intermediates_yield_several_projections(self):
        c1 = Component.build(
            "C1",
            "s0",
            [("s0", "a", "m1", "s1"), ("s0", "a", "m2", "s2"),
             ("s1", "w", "q", "s0"), ("s2", "w", "q", "s0")],
            inputs=["a", "w"],
        )
        c2 = Component.build(
            "C2",
            "t0",
            [("t0", "m1", "y", "t1"), ("t1", "b", "w", "t0"),
             ("t0", "m2", "y", "t2"), ("t2", "b", "w", "t0")],
            inputs=["m1", "m2", "b"],
        )
        expr = Par(Leaf("C1", c1), Leaf("C2", c2))
        got = project_trace(build_system_full(expr), trace("a|y"), "C1")
        assert got == {trace("a|m1"), trace("a|m2")}

    def test_unknown_target_and_non_trace_raise(self):
        build = build_system_full(feeding_expr())
        with pytest.raises(UnknownTargetError):
            project_trace(build, (), "nope")
        with pytest.raises(NotATraceError):
            project_trace(build, trace("a|zz"), "C1")

    def test_a_one_leaf_build_projects_each_trace_to_itself(self):
        rng = random.Random(131)
        steps = [Step(i, o) for i in ("a", "b") for o in ("x", "y")]
        non_traces = 0
        for _ in range(30):
            c = random_component(rng, "C", ["a", "b"], ["x", "y"], n_states=(1, 4))
            build = build_system_full(Leaf("C", c))
            for k in range(4):
                for tr in itertools.product(steps, repeat=k):
                    if has_trace(c, tr):
                        assert project_trace(build, tr, "C") == {tr}
                    else:
                        non_traces += 1
                        with pytest.raises(NotATraceError):
                            project_trace(build, tr, "C")
        assert non_traces >= 100

    def test_matches_vector_replay_on_random_systems(self):
        rng = random.Random(103)
        for _ in range(40):
            c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 3))
            expr = Par(Leaf("L", c1), Leaf("R", c2))
            build = build_system_full(expr, relax=True)
            for tr in sorted_traces(traces_up_to(build.component, 4))[:80]:
                for target in ("L", "R"):
                    assert (
                        project_trace(build, tr, target)
                        == vector_projections(expr, tr, target)
                    )

    def test_projections_are_component_traces_and_reassemble(self):
        rng = random.Random(107)
        for _ in range(30):
            c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 3))
            expr = Par(Leaf("L", c1), Leaf("R", c2))
            build = build_system_full(expr, relax=True)
            joint = build_decompositions(build)
            for tr in sorted_traces(traces_up_to(build.component, 4))[:60]:
                pairs = paired_projections(build, tr, joint)
                assert pairs
                for (trl, trr) in pairs:
                    assert has_trace(c1, trl)
                    assert has_trace(c2, trr)
                # converse: the composed trace is reconstructible, i.e. it
                # is indeed a composed trace supported by those runs
                assert has_trace(build.component, tr)


def random_three_leaf_system(rng, n_states=(2, 3), **density):
    """Two random leaves composed with a third that reads one of the pair's
    outputs and answers on one of its inputs, nested on either side."""
    a, b = random_composable_pair(rng, names=("A", "B"), n_states=n_states, **density)
    inputs, outputs = composed_alphabets(a, b)
    c = random_component(
        rng, "C", [sorted(outputs)[-1], "c0"], ["z0", sorted(inputs)[-1]], n_states=n_states,
        **density,
    )
    pair = Par(Leaf("A", a), Leaf("B", b))
    return Par(pair, Leaf("C", c)) if rng.random() < 0.5 else Par(Leaf("C", c), pair)


def random_four_leaf_system(rng, shape: str, n_states=(2, 3), dense=(0.6, 0.95)):
    """A random pair, a third leaf wired to it as in the three-leaf systems
    and a fourth that feeds the third and reads its answer, nested
    ``balanced``, ``left-deep`` or ``right-deep``. Sparser leaves than
    ``dense`` rarely get past the nested nodes."""
    a, b = random_composable_pair(rng, names=("A", "B"), n_states=n_states, density=dense)
    inputs, outputs = composed_alphabets(a, b)
    c = random_component(
        rng, "C", [sorted(outputs)[-1], "e0"], ["f0", sorted(inputs)[-1]],
        n_states=n_states, density=dense,
    )
    d = random_component(rng, "D", ["f0", "e1"], ["e0", "z1"], n_states=n_states, density=dense)
    A, B, C, D = (Leaf(n, x) for n, x in zip("ABCD", (a, b, c, d)))
    if shape == "balanced":
        return Par(Par(A, B), Par(C, D))
    if shape == "left-deep":
        return Par(Par(Par(A, B), C), D)
    return Par(D, Par(C, Par(A, B)))


def build_nodes(build):
    """A build and every build it was composed from."""
    return [build] + [node for part in build.parts for node in build_nodes(part)]


def rows_built(machine) -> bool:
    """Have the composed machine's rows been built? Looks for the value
    their first read keeps, without making that read."""
    return "rows" in vars(machine)


def has_silent_cycle(build, target) -> bool:
    """Can some composed state return to itself while ``target`` stays put?"""
    _, silent = naive_context_edges(build, target)
    for start in silent:
        seen = set()
        stack = list(silent[start])
        while stack:
            s = stack.pop()
            if s == start:
                return True
            if s not in seen:
                seen.add(s)
                stack.extend(silent.get(s, ()))
    return False


class TestComponentInContext:
    def test_equals_the_state_by_state_closure_on_random_systems(self):
        rng = random.Random(137)
        with_cycles = 0
        for n in range(60):
            if n % 2:
                expr = random_three_leaf_system(rng)
            else:
                c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
                expr = Par(Leaf("L", c1), Leaf("R", c2))
            build = build_system_full(expr, relax=True)
            for target in build.leaves:
                assert component_in_context(build, target).component == (
                    naive_component_in_context(build, target)
                )
                with_cycles += has_silent_cycle(build, target)
        assert with_cycles >= 30

    def test_four_leaf_systems_of_every_shape(self):
        # the target's steps are looked up in a composed part's own
        # transitions, one or two levels down
        rng = random.Random(139)
        through_composed = 0
        for n in range(30):
            expr = random_four_leaf_system(rng, ("balanced", "left-deep", "right-deep")[n % 3])
            build = build_system_full(expr, relax=True)
            for target in build.leaves:
                finite = component_in_context(build, target).component
                assert finite == naive_component_in_context(build, target)
                assert traces_up_to(finite, 4) == traces_up_to(
                    vector_component_in_context(expr, target), 4
                )
                part = expr.left if target in subcomponents(expr.left) else expr.right
                through_composed += isinstance(part, Par) and bool(finite.transitions)
        assert through_composed >= 20

    def test_nested_part_with_several_intermediates(self):
        # one transition of the inner pair, (s0,t0) -a|y-> (s1,t1), passes
        # through m1 or m2; read from the outer node, both leaf steps count
        c1 = Component.build(
            "C1", "s0", [("s0", "a", "m1", "s1"), ("s0", "a", "m2", "s1"),
                         ("s1", "w", "q", "s0")],
        )
        c2 = Component.build(
            "C2", "t0", [("t0", "m1", "y", "t1"), ("t0", "m2", "y", "t1"),
                         ("t1", "b", "w", "t0")],
        )
        c3 = Component.build("C3", "u0", [("u0", "c", "z", "u0")])
        for expr in (
            Par(Par(Leaf("C1", c1), Leaf("C2", c2)), Leaf("C3", c3)),
            Par(Leaf("C3", c3), Par(Leaf("C1", c1), Leaf("C2", c2))),
        ):
            build = build_system_full(expr, relax=True)
            for target, steps in (("C1", "a|m1 a|m2"), ("C2", "m1|y m2|y")):
                finite = component_in_context(build, target).component
                assert finite == naive_component_in_context(build, target)
                assert {(s,) for s in trace(steps)} <= traces_up_to(finite, 1)

    def test_certification_path_leaves_the_decomposition_table_unbuilt(self):
        rng = random.Random(151)
        shapes = ("balanced", "left-deep", "right-deep")
        for n in range(30):
            if n % 3 == 0:
                c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
                expr = Par(Leaf("L", c1), Leaf("R", c2))
            elif n % 3 == 1:
                expr = random_three_leaf_system(rng)
            else:
                expr = random_four_leaf_system(rng, shapes[n // 3 % 3])
            build = build_system_full(expr, relax=True)
            relabelled = _relabel(build)
            # relabelling builds the steps of a composed part alone, never
            # the root's, so a two-leaf build builds none
            assert "steps" not in vars(build)
            projections = _encoded_projections(build)
            for target in build.leaves:
                component_in_context(build, target)
            for node in build_nodes(build):
                # a leaf's steps ride on its parent's transitions
                assert node.parts or "steps" not in vars(node)
                # composing and projecting read each node's moves and
                # transitions, never its rows
                assert not rows_built(node.machine)

            names, labels = build.machine.state_names, build.machine.label_names
            eager = [{} for _ in names]
            for (s, i, o, t, _, _) in build.machine.raw:
                eager[s][(i, o)] = eager[s].get((i, o), 0) | (1 << t)
            assert step_maps(build.machine) == eager
            assert rows_built(build.machine) and build.machine.rows is build.machine.rows
            assert {
                (names[s], labels[i], labels[o], names[t])
                for s, steps in enumerate(step_maps(build.machine))
                for (i, o), mask in steps.items()
                for t in bits(mask)
            } == {(t.source, t.input, t.output, t.target) for t in build_decompositions(build)}

            fresh = build_system_full(expr, relax=True)
            assert build_decompositions(build) == build_decompositions(fresh)
            for target, projection, (leaf, labelled, silent) in zip(
                build.leaves, projections, relabelled
            ):
                # the composed states and initial state, under their names
                assert projection.decode() == naive_component_in_context(build, target)
                ids = leaf.machine.input_ids, leaf.machine.output_ids
                steps = {
                    names[s]: {
                        Step(labels[i], labels[o]): {names[t] for t in bits(mask)}
                        for (i, o), mask in row_steps(row, len(names), *ids).items()
                    }
                    for s, row in enumerate(labelled)
                    if row
                }
                quiet = {
                    names[s]: {names[t] for t in targets}
                    for s, targets in enumerate(silent)
                    if targets
                }
                assert (steps, quiet) == naive_context_edges(build, target)

    def test_certification_packs_no_row_of_a_parsed_specification(self):
        rng = random.Random(163)
        conclusions = set()
        for n in range(30):
            spec1, spec2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
            iut1 = (prune if n % 2 else mutate)(rng, spec1, name="L")
            iut2 = (mutate if n % 3 else prune)(rng, spec2, name="R")
            quadruple = (iut1, spec1, iut2, spec2)
            parsed = [component_from_text(component_to_text(c)) for c in quadruple]
            report = certify_in_context(*parsed, relax=True)
            assert report == certify_in_context(*quadruple, relax=True)
            # the implementations are packed for their checks; the
            # specifications' leaves read their moves off the parsed steps
            assert ["_packed" in vars(c) for c in parsed] == [True, False, True, False]
            conclusions.add(report.global_conclusion)
        assert conclusions == {"sound-pass", "sound-fail"}

    def test_silent_closure_equals_the_state_by_state_closure(self):
        rng = random.Random(157)
        seen = dict.fromkeys(("self-loop", "duplicate", "cycle", "no silent edge"), 0)
        for _ in range(3000):
            n = rng.randint(1, 12)
            labelled = [rng.getrandbits(12) for _ in range(n)]
            silent = [[rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 2, 3)))]
                      for _ in range(n)]
            assert _closed_steps(labelled, silent) == naive_silent_closure(labelled, silent)
            seen["self-loop"] += any(s in out for s, out in enumerate(silent))
            seen["duplicate"] += any(len(set(out)) < len(out) for out in silent)
            seen["no silent edge"] += any(not out for out in silent)
            # which states each one reaches: its closure over one bit per state
            reach = naive_silent_closure([1 << s for s in range(n)], silent)
            seen["cycle"] += any(reach[s] >> t & reach[t] >> s & 1
                                 for s in range(n) for t in range(n) if s != t)
        assert min(seen.values()) >= 500, seen

    def test_single_leaf_is_identity(self):
        c = Component.build("c", "s0", [("s0", "a", "x", "s0")])
        ctx = component_in_context(build_system_full(Leaf("C", c)), "C")
        assert ctx.component == c
        assert ctx.provenance == "finite"

    def test_alphabets_are_the_leaf_alphabets(self):
        expr = feeding_expr()
        ctx = component_in_context(build_system_full(expr), "C2").component
        assert ctx.inputs == {"m", "b", "c"}
        assert ctx.outputs == {"y", "w", "z"}

    def test_revised_coffee_projection_is_the_money_spec_itself(self):
        expr = coffee_expr(demo("coffee/spec_money_revised"), demo("coffee/drink"))
        proj = component_in_context(build_system_full(expr), "M").component
        spec = demo("coffee/spec_money_revised")
        for k in range(7):
            assert traces_up_to(proj, k) == traces_up_to(spec, k)

    def test_traces_are_a_subset_of_the_component_traces(self):
        rng = random.Random(109)
        for _ in range(40):
            c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
            build = build_system_full(Par(Leaf("L", c1), Leaf("R", c2)), relax=True)
            for target, leaf in (("L", c1), ("R", c2)):
                proj = component_in_context(build, target).component
                for k in range(5):
                    assert traces_up_to(proj, k) <= traces_up_to(leaf, k)

    def test_collected_trace_projections_are_projection_traces(self):
        # a projected trace of length <= k may need a composed trace
        # longer than k (steps silent for the target consume depth), so
        # only the inclusion direction is checkable at one bound; the
        # converse is covered by the tree-oracle equality below
        rng = random.Random(113)
        for _ in range(25):
            c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 3))
            expr = Par(Leaf("L", c1), Leaf("R", c2))
            build = build_system_full(expr, relax=True)
            k = 4
            composed_traces = traces_up_to(build.component, k)
            for target in ("L", "R"):
                proj_traces = traces_up_to(
                    component_in_context(build, target).component, k
                )
                collected = set()
                for tr in composed_traces:
                    collected |= {
                        p for p in project_trace(build, tr, target) if len(p) <= k
                    }
                assert collected <= proj_traces


def renumbered(enc, rng):
    """The same machine with its states numbered in a random order."""
    n = len(enc.state_names)
    new = list(range(n))
    rng.shuffle(new)  # new[s] is the new id of state s
    names = [""] * n
    rows = [0] * n
    for s, row in enumerate(enc.rows):
        names[new[s]] = enc.state_names[s]
        # a slot's targets move within the slot: bit k*n + t goes to k*n + new[t]
        for b in bits(row):
            rows[new[s]] |= 1 << (b - b % n + new[b % n])
    return EncodedComponent(
        enc.name, names, new[enc.initial], enc.label_names, enc.label_ids,
        enc.input_ids, enc.output_ids, rows,
    )


def test_search_does_not_depend_on_the_specification_numbering():
    # projections are numbered by the leaf's own state; the verdict, the
    # counterexample and the search's counts must not see the numbering
    rng = random.Random(163)
    pairs = []
    for n in range(40):
        spec = random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 6))
        iut = prune(rng, spec, name="I") if n % 2 else mutate(rng, spec, name="I")
        enc_iut, enc_spec = encode_pair(iut, spec)
        pairs.append((enc_iut, enc_spec))
    shapes = ("balanced", "left-deep", "right-deep")
    for n in range(36):
        if n % 3 == 0:
            c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
            expr = Par(Leaf("L", c1), Leaf("R", c2))
        elif n % 3 == 1:
            expr = random_three_leaf_system(rng)
        else:
            expr = random_four_leaf_system(rng, shapes[n // 3 % 3])
        build = build_system_full(expr, relax=True)
        for target, projection in zip(build.leaves, _encoded_projections(build)):
            leaf = build.leaf_component(target)
            iut = prune(rng, leaf) if rng.random() < 0.5 else mutate(rng, leaf)
            enc_iut = EncodedComponent.of(iut, projection.label_names, projection.label_ids)
            pairs.append((enc_iut, projection))
    results = set()
    for enc_iut, enc_spec in pairs:
        for mode in ("allow", "forbid"):
            expected = _exact_verdict(enc_iut, enc_spec, mode)
            for _ in range(2):
                assert _exact_verdict(enc_iut, renumbered(enc_spec, rng), mode) == expected
            results.add(expected.result)
    assert results == {"pass", "fail"}
    assert len(pairs) >= 40 + 90


def test_projection_traces_all_realized_by_some_composed_trace():
    # completeness on tiny systems: search composed traces deep enough to
    # absorb silent steps between target contributions
    rng = random.Random(131)
    for _ in range(10):
        c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 2))
        expr = Par(Leaf("L", c1), Leaf("R", c2))
        build = build_system_full(expr, relax=True)
        k = 2
        deep = k * (len(build.component.states) + 1)
        composed_traces = traces_up_to(build.component, deep, guard=200_000)
        for target in ("L", "R"):
            proj_traces = traces_up_to(component_in_context(build, target).component, k)
            realized = set()
            for tr in composed_traces:
                realized |= {
                    p for p in project_trace(build, tr, target) if len(p) <= k
                }
            assert proj_traces == realized


def numbered_breadth_first(tree) -> bool:
    """Are a trace tree's histories ``h1``, ``h2``, ... numbered level by
    level, each history's extensions in sorted step order?"""
    order = sorted(tree.transitions, key=lambda t: (int(t.source[1:]), t.input, t.output))
    return [t.target for t in order] == [f"h{n}" for n in range(1, len(tree.states))]


class TestTreeConstruction:
    def test_depth_zero_is_a_single_silent_state(self):
        build = build_system_full(feeding_expr())
        tree = component_in_context_tree(build, "C1", 0).component
        assert len(tree.states) == 1
        assert not tree.transitions
        with pytest.raises(ValueError, match="depth bound must be non-negative"):
            component_in_context_tree(build, "C1", -1)

    def test_provenance_string(self):
        build = build_system_full(feeding_expr())
        assert component_in_context_tree(build, "C1", 3).provenance == "tree(3)"

    def test_provenance_names_the_depth_bound(self):
        coffee = build_system_full(coffee_expr(demo("coffee/spec_money"), demo("coffee/drink")))
        for build, target in ((coffee, "M"), (build_system_full(feeding_expr()), "C1")):
            for k in range(1, 5):
                assert component_in_context_tree(build, target, k).provenance == f"tree({k})"
        with pytest.raises(TraceLimitError) as limited:
            component_in_context_tree(coffee, "M", 3, guard=2)
        assert str(limited.value).endswith("context tree for 'M' up to depth 3")

    def test_a_one_leaf_tree_has_the_leaf_traces(self):
        rng = random.Random(137)
        for _ in range(30):
            c = random_component(rng, "C", ["a", "b"], ["x", "y"], n_states=(1, 4))
            build = build_system_full(Leaf("C", c))
            for k in range(5):
                tree = component_in_context_tree(build, "C", k).component
                assert traces_up_to(tree, k) == traces_up_to(c, k)

    def test_revised_coffee_tree_matches_money_spec(self):
        expr = coffee_expr(demo("coffee/spec_money_revised"), demo("coffee/drink"))
        tree = component_in_context_tree(build_system_full(expr), "M", 3).component
        spec = demo("coffee/spec_money_revised")
        assert traces_up_to(tree, 3) == traces_up_to(spec, 3)

    def test_tree_equals_finite_construction_on_the_fixtures(self):
        money = coffee_expr(demo("coffee/spec_money"), demo("coffee/drink"))
        systems = [
            (money, False),
            (coffee_expr(demo("coffee/spec_money_revised"), demo("coffee/drink")), False),
            (relay_expr(demo("relay/spec_left"), demo("relay/right")), False),
            (Par(Leaf("B", demo("relay/right")), money), True),
        ]
        for expr, relax in systems:
            build = build_system_full(expr, relax=relax)
            for target in build.leaves:
                finite = component_in_context(build, target).component
                tree = component_in_context_tree(build, target, 4).component
                assert traces_up_to(finite, 4) == traces_up_to(tree, 4), target
                assert numbered_breadth_first(tree), target

    def test_tree_equals_finite_construction_on_random_systems(self):
        rng = random.Random(127)
        for _ in range(40):
            c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
            build = build_system_full(Par(Leaf("L", c1), Leaf("R", c2)), relax=True)
            for target in ("L", "R"):
                finite = component_in_context(build, target).component
                k = 4
                tree = component_in_context_tree(build, target, k).component
                assert traces_up_to(finite, k) == traces_up_to(tree, k)
                assert numbered_breadth_first(tree)
