"""Integer encoding: the packed step rows the search kernels read."""

import random

import pytest

from fsmcheck import (
    Component,
    Leaf,
    Par,
    build_system_full,
    check_cioco_exact,
    is_input_enabled,
    trace,
)
from fsmcheck._core import EncodedComponent, cioco_bfs, encode_pair, label_table
from fsmcheck.conform import _exact_verdict
from fsmcheck.project import _encoded_projections
from fsmcheck.randgen import mutate, random_component, random_composable_pair

from oracles import naive_cioco_bounded, step_maps
from test_project import random_four_leaf_system, random_three_leaf_system, renumbered


def reachable_part(c: Component) -> Component:
    """``c`` restricted to the states its initial state reaches."""
    seen, stack = {c.initial}, [c.initial]
    while stack:
        s = stack.pop()
        for t in c.transitions:
            if t.source == s and t.target not in seen:
                seen.add(t.target)
                stack.append(t.target)
    return Component(
        name=c.name,
        states=frozenset(seen),
        initial=c.initial,
        inputs=c.inputs,
        outputs=c.outputs,
        transitions=frozenset(t for t in c.transitions if t.source in seen),
    )


def random_machines(rng, count):
    for n in range(count):
        inputs = ["a", "b", "c"][: 1 + n % 3]
        outputs = ["x", "y"][: 1 + n % 2]
        yield random_component(
            rng, "M", inputs, outputs, n_states=(1, 14), density=(0.2, 0.9)
        )


class TestRows:
    def test_decode_gives_the_reachable_part(self):
        rng = random.Random(601)
        unreachable = 0
        for c in random_machines(rng, 120):
            names, ids = label_table(c)
            enc = EncodedComponent.of(c, names, ids)
            assert enc.decode() == reachable_part(c)
            unreachable += reachable_part(c) != c
            # the rows hold exactly the transitions, by the documented layout
            states = sorted(c.states)
            expected = [{} for _ in states]
            for t in c.transitions:
                steps = expected[states.index(t.source)]
                io = (ids[t.input], ids[t.output])
                steps[io] = steps.get(io, 0) | 1 << states.index(t.target)
            assert step_maps(enc) == expected
        assert unreachable >= 20

    def test_renumbering_by_sorted_name_keeps_the_machine(self):
        rng = random.Random(607)
        moved = 0
        for c in random_machines(rng, 80):
            names, ids = label_table(c)
            enc = renumbered(EncodedComponent.of(c, names, ids), rng)
            sorted_enc, order = enc.by_sorted_name()
            assert sorted_enc.decode() == enc.decode()
            assert sorted_enc.state_names == sorted(enc.state_names)
            assert [enc.state_names[s] for s in order] == sorted_enc.state_names
            assert step_maps(sorted_enc) == step_maps(EncodedComponent.of(c, names, ids))
            moved += sorted_enc is not enc
        assert moved >= 40
        # composed machines number their states in discovery order
        for _ in range(20):
            c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
            machine = build_system_full(Par(Leaf("L", c1), Leaf("R", c2)), relax=True).machine
            assert machine.by_sorted_name()[0].decode() == machine.decode()

    def test_slots_follow_label_ids_across_inputs_and_outputs(self):
        # the output b sorts between the inputs a and c: the slots still
        # run by input first, so a|d is tried before c|b
        spec = Component.build(
            "S", "s0",
            [("s0", "c", "b", "s1"), ("s0", "a", "d", "s2"),
             ("s1", "a", "b", "s3"), ("s2", "a", "b", "s3")],
            inputs=["a", "c"], outputs=["b", "d"],
        )
        iut = Component.build(
            "I", "s0",
            [("s0", "c", "b", "s1"), ("s0", "a", "d", "s2"),
             ("s1", "a", "d", "s3"), ("s2", "a", "d", "s3")],
            inputs=["a", "c"], outputs=["b", "d"],
        )
        enc_iut, enc_spec, names, ids = encode_pair(iut, spec)
        assert names == ["a", "b", "c", "d"]
        a, b, c, d = (ids[x] for x in "abcd")
        assert enc_iut.slots == enc_spec.slots == [(a, b), (a, d), (c, b), (c, d)]
        v = check_cioco_exact(iut, spec)
        assert v.counterexample.witness == trace("a|d")
        assert (v.counterexample.input, v.counterexample.offending_output) == ("a", "d")
        first, _ = naive_cioco_bounded(iut, spec, 1)
        assert first == (trace("a|d"), "a", "d")

    def test_different_slot_layouts_raise(self):
        narrow = Component.build("N", "s0", [("s0", "a", "x", "s0")], outputs=["x"])
        wide = Component.build("W", "s0", [("s0", "a", "x", "s0")], outputs=["x", "y"])
        names, ids = label_table(narrow, wide)
        enc_narrow = EncodedComponent.of(narrow, names, ids)
        enc_wide = EncodedComponent.of(wide, names, ids)
        for first, second in ((enc_narrow, enc_wide), (enc_wide, enc_narrow)):
            for strict in (False, True):
                with pytest.raises(ValueError, match="different step slots"):
                    cioco_bfs(first, second, strict)
            with pytest.raises(ValueError, match="different step slots"):
                _exact_verdict(first, second, "allow")

    def test_input_enabledness_is_read_from_the_rows(self):
        rng = random.Random(613)
        seen = set()
        for c in random_machines(rng, 80):
            iut = mutate(rng, c, name="I")
            enc_iut, enc_spec, _, _ = encode_pair(iut, c)
            warned = bool(_exact_verdict(enc_iut, enc_spec, "allow").warnings)
            assert warned == (not is_input_enabled(iut))
            seen.add(warned)
        assert seen == {False, True}


def test_projection_rows_of_nested_builds_lie_in_the_leaf_slots():
    # a projection's rows are laid out in its leaf's slots, over every
    # composed state: no bit past the last slot (``step_maps`` checks)
    rng = random.Random(617)
    shapes = ("balanced", "left-deep", "right-deep")
    for n in range(12):
        expr = random_three_leaf_system(rng) if n % 2 else random_four_leaf_system(
            rng, shapes[n // 2 % 3]
        )
        build = build_system_full(expr, relax=True)
        for target, projection in zip(build.leaves, _encoded_projections(build)):
            leaf = build.leaf_component(target)
            assert projection.slots == EncodedComponent.of(
                leaf, projection.label_names, projection.label_ids
            ).slots
            assert len(projection.rows) == len(build.machine.state_names)
            step_maps(projection)
