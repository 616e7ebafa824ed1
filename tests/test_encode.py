"""Integer encoding: the packed step rows the search kernels read."""

import dataclasses
import itertools
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
from fsmcheck.certify import _one_run
from fsmcheck.conform import _exact_verdict
from fsmcheck.formats import component_from_text, component_to_text
from fsmcheck.project import _encoded_projections
from fsmcheck.randgen import mutate, prune, random_component

from oracles import naive_cioco_bounded, step_maps
from test_compose import relay_chain
from test_project import build_nodes, random_four_leaf_system, random_three_leaf_system


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
        enc_iut, enc_spec = encode_pair(iut, spec)
        assert enc_iut.label_names is enc_spec.label_names
        assert enc_spec.label_names == ["a", "b", "c", "d"]
        a, b, c, d = (enc_spec.label_ids[x] for x in "abcd")
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

    def test_a_pair_is_encoded_over_both_alphabets(self):
        # each side has a label the other lacks: in either order, both
        # sides share one table of the two alphabets and decode to themselves
        one = Component.build("N", "s0", [("s0", "a", "x", "s0")], outputs=["x", "z"])
        other = Component.build("W", "s0", [("s0", "b", "y", "s0")],
                                inputs=["a", "b"], outputs=["x", "y"])
        for first, second in ((one, other), (other, one)):
            enc1, enc2 = encode_pair(first, second)
            assert enc1.label_names is enc2.label_names
            assert enc1.label_names == ["a", "b", "x", "y", "z"]
            assert (enc1.decode(), enc2.decode()) == (first, second)

    def test_input_enabledness_is_read_from_the_rows(self):
        rng = random.Random(613)
        seen = set()
        for c in random_machines(rng, 80):
            iut = mutate(rng, c, name="I")
            enc_iut, enc_spec = encode_pair(iut, c)
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
        ([("s9", "a", "x", "s0")], "s0", "transition s9 -a|x-> s0 uses undeclared state 's9'"),
        ([("s0", "a", "o", "s0")], "s0", "uses output 'o' not in its output alphabet"),
    ])
    def test_an_invalid_component_raises_on_every_encoding(self, transitions, initial, message):
        c = Component(
            name="M", states=frozenset({"s0"}), initial=initial, inputs=frozenset({"a"}),
            outputs=frozenset({"x"}), transitions=frozenset(Transition(*t) for t in transitions),
        )
        # the wider table holds ``b`` and ``o`` as another component's
        # labels: only a component's own alphabets declare a label
        other = Component.build("O", "o0", [("o0", "b", "o", "o0")])
        for names, ids in (label_table(c), label_table(c, other)):
            for _ in range(2):
                for encode in (EncodedComponent.of, EncodedComponent.leaf):
                    with pytest.raises(InvalidComponentError,
                                       match=f"component 'M': .*{message}"):
                        encode(c, names, ids)

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


def test_leaf_moves_are_those_of_the_packed_rows():
    # a system build's leaf reads its moves off its component's steps,
    # parsed or built, and packs its rows only when they are read
    rng = random.Random(653)
    for c in random_machines(rng, 60):
        for names, ids in (label_table(c), label_table(c, TestSharedRows.WIDER)):
            for copy in (fresh(c), component_from_text(component_to_text(c))):
                leaf = EncodedComponent.leaf(copy, names, ids)
                assert "_packed" not in vars(copy)
                enc = EncodedComponent.of(copy, names, ids)
                assert (leaf.state_names, leaf.initial, leaf.input_ids, leaf.output_ids,
                        leaf.slots) == (enc.state_names, enc.initial, enc.input_ids,
                                        enc.output_ids, enc.slots)
                assert "rows" not in vars(leaf)
                assert leaf.rows == enc.rows and leaf.decode() == enc.decode()
                assert vars(leaf)["rows"] is leaf.rows  # kept from the first read


def machines_of_every_kind(rng):
    """(kind, machine) for every kind of machine on ids, on seeded builds:
    ``of`` and a projection are given their rows, a leaf and a one-run
    machine their moves, a composed node its closure's ``raw``."""
    for c in random_machines(rng, 30):
        for names, ids in (label_table(c), label_table(c, TestSharedRows.WIDER)):
            yield "of", EncodedComponent.of(c, names, ids)
            yield "leaf", EncodedComponent.leaf(fresh(c), names, ids)
    shapes = ("balanced", "left-deep", "right-deep")
    exprs = [random_three_leaf_system(rng) if n % 2 else random_four_leaf_system(
        rng, shapes[n // 2 % 3]) for n in range(12)]
    # in a relay chain, two closure transitions take the same composed step
    exprs += [relay_chain(3, shape) for shape in shapes[1:]]
    for expr in exprs:
        build = build_system_full(expr, relax=True)
        for node in build_nodes(build):
            yield "composed" if node.parts else "leaf", node.machine
        for projection in _encoded_projections(build):
            yield "projection", projection
            for length in (0, 1, 6):
                record = tuple(rng.choice(projection.slots) for _ in range(length))
                yield "one run", _one_run(record, projection)


def test_every_machine_holds_its_steps_as_rows_and_as_moves():
    # whichever view a machine is given, the other derived from it gives
    # it back, and the rows hold exactly the moves, unpacked by the
    # documented layout; a composed node's moves are its closure's
    # (input, output, target) per source, each once, in slot order
    kinds = set()
    for kind, m in machines_of_every_kind(random.Random(659)):
        encoding = (m.name, m.state_names, m.initial, m.label_names, m.label_ids,
                    m.input_ids, m.output_ids)
        assert EncodedComponent(*encoding, moves=m.moves).rows == m.rows
        assert EncodedComponent(*encoding, m.rows).moves == m.moves
        if kind == "composed":
            steps = [set() for _ in m.state_names]
            for s, i, o, t, _, _ in m.raw:
                steps[s].add((i, o, t))
            assert m.moves == [sorted(found) for found in steps]
        for moves, row in zip(m.moves, step_maps(m), strict=True):
            assert moves == sorted(set(moves))
            targets: dict[tuple[int, int], int] = {}
            for i, o, t in moves:
                targets[i, o] = targets.get((i, o), 0) | 1 << t
            assert row == targets
        kinds.add(kind)
    assert kinds == {"of", "leaf", "composed", "projection", "one run"}


def test_a_machine_is_given_exactly_one_source():
    # with no source each derived view would read the other; with two,
    # the two views could disagree
    encoding = ("x", ["s"], 0, ["a"], {"a": 0}, frozenset({0}), frozenset({0}))
    sources = {"rows": [0], "moves": [[]], "raw": []}
    for count in range(len(sources) + 1):
        for chosen in itertools.combinations(sources, count):
            given = {name: sources[name] for name in chosen}
            if count == 1:
                m = EncodedComponent(*encoding, **given)
                assert (m.rows, m.moves) == ([0], [[]])
            else:
                with pytest.raises(TypeError, match="exactly one of rows, moves and raw"):
                    EncodedComponent(*encoding, **given)


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
