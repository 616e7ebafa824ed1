"""Integer encoding: the packed step rows the search kernels read."""

import dataclasses
import random

import pytest

from fsmcheck import (
    Component,
    Transition,
    build_system_full,
    check_cioco_exact,
    check_trace_inclusion,
    is_input_enabled,
    trace,
)
from fsmcheck.errors import InvalidComponentError
from fsmcheck._core import EncodedComponent, cioco_bfs, encode_pair, label_table
from fsmcheck.conform import _exact_verdict
from fsmcheck.project import _encoded_projections
from fsmcheck.randgen import mutate, prune, random_component

from oracles import naive_cioco_bounded, step_maps
from test_project import random_four_leaf_system, random_three_leaf_system


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


def expected_step_maps(c: Component, ids: dict[str, int]) -> list[dict]:
    """``step_maps`` of ``c`` encoded over ``ids``, read off its transitions."""
    states = sorted(c.states)
    expected = [{} for _ in states]
    for t in c.transitions:
        steps = expected[states.index(t.source)]
        io = (ids[t.input], ids[t.output])
        steps[io] = steps.get(io, 0) | 1 << states.index(t.target)
    return expected


def fresh(c: Component) -> Component:
    """An equal copy of ``c`` that has computed nothing yet."""
    return dataclasses.replace(c)


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
            assert step_maps(enc) == expected_step_maps(c, ids)
        assert unreachable >= 20

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


class TestSharedRows:
    """A component's rows are packed once per object and shared by every
    encoding of it, over any label table."""

    #: Labels that sort before and between those of ``random_machines``,
    #: so that a wider table moves their ids.
    WIDER = Component.build("O", "o0", [("o0", "A", "b0", "o0")], inputs=["A", "bb"],
                            outputs=["b0", "w", "z"])

    def test_rows_over_a_wider_table_are_those_of_a_fresh_copy(self):
        rng = random.Random(619)
        moved = 0
        for c in random_machines(rng, 60):
            tables = [label_table(c), label_table(c, self.WIDER)]
            encodings = [EncodedComponent.of(c, names, ids) for names, ids in tables]
            for (names, ids), enc in zip(tables, encodings):
                copy = EncodedComponent.of(fresh(c), names, ids)
                assert (enc.state_names, enc.initial, enc.rows) == (
                    copy.state_names, copy.initial, copy.rows)
                assert enc.input_ids == frozenset(ids[x] for x in c.inputs)
                assert enc.output_ids == frozenset(ids[x] for x in c.outputs)
                assert enc.slots == copy.slots
                assert step_maps(enc) == expected_step_maps(c, ids)
            own, wide = encodings
            moved += own.input_ids != wide.input_ids and own.output_ids != wide.output_ids
        assert moved == 60

    def test_the_rows_belong_to_the_object_not_its_value(self):
        rng = random.Random(631)
        for c in random_machines(rng, 20):
            names, ids = label_table(c)
            first = EncodedComponent.of(c, names, ids)
            again = EncodedComponent.of(c, *label_table(c, self.WIDER))
            assert again.rows is first.rows and again.state_names is first.state_names
            copy = fresh(c)
            assert copy == c
            encoded = EncodedComponent.of(copy, names, ids)
            assert encoded.rows == first.rows and encoded.rows is not first.rows
            assert encoded.state_names is not first.state_names

    @pytest.mark.parametrize("transitions, initial, message", [
        ([("s0", "a", "x", "s9")], "s0", "uses undeclared state 's9'"),
        ([("s0", "b", "x", "s0")], "s0", "uses input 'b' not in its input alphabet"),
        ([("s0", "a", "x", "s0")], "s7", "initial state 's7' is not declared"),
    ])
    def test_an_invalid_component_raises_on_every_encoding(self, transitions, initial, message):
        c = Component(
            name="M", states=frozenset({"s0"}), initial=initial, inputs=frozenset({"a"}),
            outputs=frozenset({"x"}), transitions=frozenset(Transition(*t) for t in transitions),
        )
        names, ids = label_table(c)
        for _ in range(2):
            with pytest.raises(InvalidComponentError, match=f"component 'M': .*{message}"):
                EncodedComponent.of(c, names, ids)

    def test_checks_on_the_same_objects_answer_as_on_fresh_copies(self):
        rng = random.Random(641)
        checks = [
            lambda iut, spec: check_cioco_exact(iut, spec, "allow"),
            lambda iut, spec: check_cioco_exact(iut, spec, "forbid"),
            check_trace_inclusion,
        ]
        results = set()
        for k in range(50):
            spec = random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 8),
                                    density=(0.4, 0.8))
            iut = prune(rng, spec, name="I") if k % 2 else mutate(rng, spec, name="I")
            expected = [check(fresh(iut), fresh(spec)).to_dict() for check in checks]
            for order in (checks, checks[::-1]):
                shared = fresh(iut), fresh(spec)
                seen = [check(*shared).to_dict() for check in order]
                assert seen == (expected if order is checks else expected[::-1])
            results.update(v["result"] for v in expected)
        assert results == {"pass", "fail"}


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
