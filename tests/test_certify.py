"""Certification workflows and fault localization."""

import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from fsmcheck import (
    Component,
    Counterexample,
    Leaf,
    Par,
    ShapeMismatchError,
    SignatureMismatchError,
    Step,
    build_system,
    build_system_full,
    check_cioco_exact,
    certify_by_parts,
    certify_in_context,
    component_in_context,
    format_trace,
    localize_fault,
    project_trace,
)
from fsmcheck import certify, project
from fsmcheck.certify import NOT_APPLICABLE, SOUND_FAIL, SOUND_PASS
from fsmcheck.randgen import (
    alphabets_for_pair,
    conforming_iut,
    mutate,
    prune,
    random_component,
    random_composable_pair,
    random_input_enabled_spec,
)

from demos import coffee_expr, demo, relay_expr
from oracles import counterexample_order, naive_first_step_outside
from test_compose import relay_chain
from test_project import random_four_leaf_system, random_three_leaf_system


class TestByParts:
    def test_coffee_is_not_applicable_despite_local_passes(self):
        report = certify_by_parts(
            demo("coffee/iut_money"), demo("coffee/spec_money"),
        demo("coffee/drink"), demo("coffee/drink"),
        )
        assert report.global_conclusion == NOT_APPLICABLE
        assert all(v.passed for v in report.local_verdicts.values())
        failing = {a.name for a in report.assumptions if not a.holds}
        assert failing == {"spec1-input-enabled", "spec2-input-enabled"}

    def test_relay_is_not_applicable_and_the_composition_really_fails(self):
        report = certify_by_parts(
            demo("relay/iut_left"), demo("relay/spec_left"),
            demo("relay/right"), demo("relay/right"),
        )
        assert report.global_conclusion == NOT_APPLICABLE
        assert all(v.passed for v in report.local_verdicts.values())
        direct = check_cioco_exact(
            build_system(relay_expr(demo("relay/iut_left"), demo("relay/right"))),
            build_system(relay_expr(demo("relay/spec_left"), demo("relay/right"))),
        )
        assert direct.failed

    def test_reflexive_input_enabled_quadruple_is_sound_pass(self):
        rng = random.Random(211)
        for _ in range(10):
            (i1, o1), (i2, o2) = alphabets_for_pair(rng)
            spec1 = random_input_enabled_spec(rng, "S1", i1, o1)
            spec2 = random_input_enabled_spec(rng, "S2", i2, o2)
            report = certify_by_parts(spec1, spec1, spec2, spec2)
            assert report.global_conclusion == SOUND_PASS
            direct = check_cioco_exact(
                build_system(Par(Leaf("S1", spec1), Leaf("S2", spec2)), relax=True),
                build_system(Par(Leaf("S1", spec1), Leaf("S2", spec2)), relax=True),
            )
            assert direct.passed

    def test_local_failure_is_sound_fail_when_assumptions_hold(self):
        rng = random.Random(223)
        found = 0
        for _ in range(40):
            (i1, o1), (i2, o2) = alphabets_for_pair(rng)
            spec1 = random_input_enabled_spec(rng, "S1", i1, o1)
            spec2 = random_input_enabled_spec(rng, "S2", i2, o2)
            iut1 = random_component(rng, "I1", i1, o1)
            report = certify_by_parts(iut1, spec1, spec2, spec2)
            if any(v.failed for v in report.local_verdicts.values()):
                found += 1
                assert report.global_conclusion == SOUND_FAIL
        assert found > 5


class TestInContext:
    def test_revised_coffee_fails_soundly_implicating_money(self):
        report = certify_in_context(
            demo("coffee/iut_money"),
            demo("coffee/spec_money_revised"),
            demo("coffee/drink"),
            demo("coffee/drink"),
        )
        assert report.global_conclusion == SOUND_FAIL
        assert report.local_verdicts["D"].passed
        money = report.local_verdicts["M"]
        assert money.failed
        final = money.counterexample.full_trace()[-1]
        assert (final.input, final.output) == ("error", "refund")
        assert any("implicated components: ['M']" in n for n in report.notes)

    def test_reflexive_lossless_quadruple_is_sound_pass(self):
        # the revised money spec's projection is itself, so the identical
        # quadruple passes even under the strict local checks
        report = certify_in_context(
            demo("coffee/spec_money_revised"),
            demo("coffee/spec_money_revised"),
            demo("coffee/drink"),
            demo("coffee/drink"),
        )
        assert report.global_conclusion == SOUND_PASS

    def test_passing_local_checks_transfer_to_the_composition(self):
        rng = random.Random(227)
        sound_passes = 0
        for _ in range(60):
            (i1, o1), (i2, o2) = alphabets_for_pair(rng)
            spec1 = random_component(rng, "S1", i1, o1, n_states=(2, 3))
            spec2 = random_component(rng, "S2", i2, o2, n_states=(2, 3))
            expr = Par(Leaf("S1", spec1), Leaf("S2", spec2))
            proj1 = component_in_context(expr, "S1", relax=True).component
            proj2 = component_in_context(expr, "S2", relax=True).component
            iut1 = prune(rng, proj1, keep=rng.uniform(0.5, 1.0), name="I1")
            iut2 = prune(rng, proj2, keep=rng.uniform(0.5, 1.0), name="I2")
            report = certify_in_context(iut1, spec1, iut2, spec2, relax=True)
            if report.global_conclusion != SOUND_PASS:
                continue
            sound_passes += 1
            direct = check_cioco_exact(
                build_system(Par(Leaf("S1", iut1), Leaf("S2", iut2)), relax=True),
                build_system(expr, relax=True),
            )
            assert direct.passed
        assert sound_passes > 20

    def test_unsoundness_of_permissive_local_checks(self):
        """Why the in-context checks forbid unspecified inputs.

        The first component chooses nondeterministically between two
        hidden intermediates; one context is a dead end. An
        implementation that follows the dead-end context and then does
        something extra is invisible to permissive local checks against
        the projections (that history has no specified continuation), yet
        the composition shows the extra behaviour where the composed
        specification does constrain it. The strict local check catches
        the escape, so the certification stays sound.
        """
        from fsmcheck import Component

        spec1 = Component.build(
            "P",
            "s0",
            [("s0", "i", "a", "sA"), ("s0", "i", "b", "sB"), ("sA", "i", "a", "sA2")],
            inputs=["i"],
            outputs=["a", "b", "c"],
        )
        iut1 = Component.build(
            "P",
            "s0",
            [("s0", "i", "b", "uB"), ("uB", "i", "c", "u2")],
            inputs=["i"],
            outputs=["a", "b", "c"],
        )
        spec2 = Component.build(
            "Q",
            "t0",
            [("t0", "a", "o1", "t1"), ("t0", "b", "o1", "t1"), ("t1", "a", "o2", "t3")],
            inputs=["a", "b"],
            outputs=["o1", "o2"],
        )
        iut2 = spec2

        expr_spec = Par(Leaf("P", spec1), Leaf("Q", spec2))
        proj_p = component_in_context(expr_spec, "P", relax=True).component
        proj_q = component_in_context(expr_spec, "Q", relax=True).component

        assert check_cioco_exact(iut1, proj_p, unspecified="allow").passed
        assert check_cioco_exact(iut2, proj_q, unspecified="allow").passed
        direct = check_cioco_exact(
            build_system(Par(Leaf("P", iut1), Leaf("Q", iut2)), relax=True),
            build_system(expr_spec, relax=True),
        )
        assert direct.failed
        assert direct.counterexample.offending_output == "c"

        report = certify_in_context(iut1, spec1, iut2, spec2, relax=True)
        assert report.global_conclusion == SOUND_FAIL


def test_in_context_local_verdicts_are_checks_against_the_decoded_projection():
    rng = random.Random(139)
    failed = 0
    for k in range(80):
        spec1, spec2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
        iut1 = prune(rng, spec1) if k % 2 == 0 else mutate(rng, spec1)
        iut2 = prune(rng, spec2) if k // 2 % 2 == 0 else mutate(rng, spec2)
        report = certify_in_context(iut1, spec1, iut2, spec2, relax=True)
        build = build_system_full(Par(Leaf("L", spec1), Leaf("R", spec2)), relax=True)
        for name, iut in (("L", iut1), ("R", iut2)):
            projection = component_in_context(build, name).component
            expected = check_cioco_exact(iut, projection, unspecified="forbid")
            assert report.local_verdicts[name].to_dict() == expected.to_dict()
            failed += expected.failed
    assert 40 <= failed <= 120


def test_global_failure_implies_a_failing_in_context_local():
    # contrapositive of the in-context strategy: whenever the direct
    # global check fails (alphabets disjoint), at least one local check
    # against the projections fails as well
    rng = random.Random(233)
    failing = 0
    for _ in range(120):
        (i1, o1), (i2, o2) = alphabets_for_pair(rng)
        spec1 = random_component(rng, "S1", i1, o1, n_states=(2, 3))
        spec2 = random_component(rng, "S2", i2, o2, n_states=(2, 3))
        iut1 = random_component(rng, "I1", i1, o1, n_states=(2, 3))
        iut2 = random_component(rng, "I2", i2, o2, n_states=(2, 3))
        direct = check_cioco_exact(
            build_system(Par(Leaf("S1", iut1), Leaf("S2", iut2)), relax=True),
            build_system(Par(Leaf("S1", spec1), Leaf("S2", spec2)), relax=True),
        )
        if not direct.failed:
            continue
        failing += 1
        report = certify_in_context(iut1, spec1, iut2, spec2, relax=True)
        assert report.global_conclusion == SOUND_FAIL
        assert any(v.failed for v in report.local_verdicts.values())
    assert failing > 10


def local_candidates(expr_iut, expr_spec, ce, relax=False):
    """Per leaf, the distinct local counterexamples of the counterexample's
    projections onto it, each against the specification's projection
    computed with ``component_in_context``."""
    iut_build = build_system_full(expr_iut, relax=relax)
    spec_build = build_system_full(expr_spec, relax=relax)
    full = ce.full_trace()
    found = {}
    for name in sorted(spec_build.leaves):
        projection = component_in_context(spec_build, name).component
        found[name] = {
            v for v in (
                naive_first_step_outside(tr, projection)
                for tr in project_trace(iut_build, full, name).traces
            ) if v is not None
        }
    return found


def least_candidates(candidates):
    """Per leaf, the least of its candidates, or None."""
    return {
        name: min(found, key=counterexample_order) if found else None
        for name, found in candidates.items()
    }


def localize_by_leaf(expr_iut, expr_spec, ce, relax=False):
    """``localize_fault`` projecting the specification once per leaf, with
    ``component_in_context``: the maps one projection pass must give."""
    return least_candidates(local_candidates(expr_iut, expr_spec, ce, relax))


def counting_chain(length, last):
    """A answers ``a|m`` ``length`` times and then ``a|{last}``; B relays
    each ``m`` as ``y``. The pair composes only under ``relax``."""
    steps = [(f"s{k}", "a", "m", f"s{k + 1}") for k in range(length)]
    steps.append((f"s{length}", "a", last, f"s{length + 1}"))
    a = Component.build("A", "s0", steps, inputs=["a"], outputs=["m", "x", "z"])
    b = Component.build("B", "b", [("b", "m", "y", "b")], outputs=["y"])
    return Par(Leaf("A", a), Leaf("B", b))


def with_mutated_leaves(rng, expr):
    """``expr`` with most leaves' components replaced by mutants."""
    if isinstance(expr, Leaf):
        keep = rng.random() < 0.4
        return Leaf(expr.name, expr.component if keep else mutate(rng, expr.component))
    return Par(with_mutated_leaves(rng, expr.left), with_mutated_leaves(rng, expr.right))


def with_leaf(expr, component):
    """``expr`` with the leaf named as ``component`` replaced by it."""
    if isinstance(expr, Leaf):
        return Leaf(expr.name, component) if expr.name == component.name else expr
    return Par(with_leaf(expr.left, component), with_leaf(expr.right, component))


def random_merging_relay(rng):
    """A pair where B reads two of A's outputs, ``m0`` and ``m1``, and an
    implementation of A that adds both to two of its specification's
    steps. Where B answers ``m0`` and ``m1`` alike, one composed step
    projects onto A in two ways, so a leaf may get several candidate
    local counterexamples."""
    dense = (0.7, 1.0)
    a = random_component(rng, "A", ["a0", "a1"], ["m0", "m1", "x0"], n_states=(2, 4),
                         density=dense)
    b = random_component(rng, "B", ["m0", "m1", "b0"], ["y0", "y1"], n_states=(2, 4),
                         density=dense)
    steps = [(t.source, t.input, t.output, t.target) for t in a.sorted_transitions()]
    forked = [(s, i, m, t) for s, i, _, t in rng.sample(steps, min(2, len(steps)))
              for m in ("m0", "m1")]
    iut_a = Component.build("A", a.initial, steps + forked, inputs=a.inputs,
                            outputs=a.outputs, states=a.states)
    return Par(Leaf("A", iut_a), Leaf("B", b)), Par(Leaf("A", a), Leaf("B", b))


class TestLocalizeFault:
    def test_pass_verdict_yields_empty_map(self):
        assert localize_fault(
            relay_expr(demo("relay/iut_left"), demo("relay/right")),
            relay_expr(demo("relay/spec_left"), demo("relay/right")),
            None,
        ) == {}

    def test_coffee_failure_localizes_to_money_only(self):
        expr_iut = coffee_expr(demo("coffee/iut_money"), demo("coffee/drink"))
        expr_spec_orig = coffee_expr(demo("coffee/spec_money"), demo("coffee/drink"))
        ce = check_cioco_exact(
            build_system(expr_iut), build_system(expr_spec_orig)
        ).counterexample
        expr_spec_revised = coffee_expr(demo("coffee/spec_money_revised"), demo("coffee/drink"))
        located = localize_fault(expr_iut, expr_spec_revised, ce)
        assert located["D"] is None
        money = located["M"]
        assert money is not None
        assert (money.input, money.offending_output) == ("error", "refund")
        assert format_trace(money.witness) == "coinC|makeC coinC|makeC"

    def test_relay_failure_implicates_the_back_channel_reactor(self):
        expr_iut = relay_expr(demo("relay/iut_left"), demo("relay/right"))
        expr_spec = relay_expr(demo("relay/spec_left"), demo("relay/right"))
        ce = check_cioco_exact(build_system(expr_iut), build_system(expr_spec)).counterexample
        located = localize_fault(expr_iut, expr_spec, ce)
        left = located["A"]
        assert left is not None
        assert (left.input, left.offending_output) == ("x", "o5")
        assert format_trace(left.full_trace()) == "i1|m x|o5"

    def test_projects_the_specification_once(self, monkeypatch):
        calls = []
        for module in (certify, project):
            def counted(build, original=module._encoded_projections):
                calls.append(build.leaves)
                return original(build)

            monkeypatch.setattr(module, "_encoded_projections", counted)
        expr_iut = coffee_expr(demo("coffee/iut_money"), demo("coffee/drink"))
        expr_spec = coffee_expr(demo("coffee/spec_money"), demo("coffee/drink"))
        ce = check_cioco_exact(build_system(expr_iut), build_system(expr_spec)).counterexample
        located = localize_fault(expr_iut, expr_spec, ce)
        assert calls == [("M", "D")]
        monkeypatch.undo()
        assert located == localize_by_leaf(expr_iut, expr_spec, ce)

    def test_replays_the_trace_for_each_leaf_once(self, monkeypatch):
        rng = random.Random(257)
        while True:
            expr_spec = random_three_leaf_system(rng)
            expr_iut = with_mutated_leaves(rng, expr_spec)
            ce = check_cioco_exact(
                build_system(expr_iut, relax=True), build_system(expr_spec, relax=True)
            ).counterexample
            if ce is not None:
                break
        calls = []

        def counted(build, tr, j, original=project._replay):
            calls.append((build, j))
            return original(build, tr, j)

        monkeypatch.setattr(project, "_replay", counted)
        located = localize_fault(expr_iut, expr_spec, ce, relax=True)
        # one build of the implementation, replayed once for each of its leaves
        assert len({id(build) for build, _ in calls}) == 1
        assert len(calls[0][0].leaves) == 3
        assert sorted(j for _, j in calls) == [0, 1, 2]
        monkeypatch.undo()
        assert located == localize_by_leaf(expr_iut, expr_spec, ce, relax=True)

    @pytest.mark.parametrize("shape", ["left-deep", "right-deep"])
    def test_localizes_a_fault_among_twenty_one_leaves(self, shape):
        """A relay chain whose specification's last leaf answers only
        ``a20``. Each composed step of the chain has ``2 ** 20`` ways to
        attribute it to leaf steps; only the last leaf is implicated, by
        its least step outside the specification's projection."""
        expr_iut = relay_chain(20, shape)
        last = Component.build("L20", "s", [("s", x, "a20", "s") for x in ("a19", "b19")],
                               outputs=["a20", "b20"])
        expr_spec = with_leaf(expr_iut, last)
        ce = check_cioco_exact(
            build_system(expr_iut, relax=True), build_system(expr_spec, relax=True)
        ).counterexample
        assert (ce.witness, ce.input, ce.offending_output) == ((), "i", "b20")
        assert localize_fault(expr_iut, expr_spec, ce, relax=True) == {
            **{f"L{k}": None for k in range(20)},
            "L20": Counterexample(witness=(), input="a19", offending_output="b20",
                                  iut_outputs=frozenset({"b20"}),
                                  spec_outputs=frozenset({"a20"})),
        }

    @pytest.mark.parametrize("length", [50, 200])
    def test_counting_chain_fails_after_a_witness_of_its_length(self, length):
        """Leaf A answers ``a|m`` ``length`` times and then ``a|x``, which
        its implementation answers with ``a|z``; B relays each ``m``.
        Only A is implicated, after a witness of ``length`` steps."""
        expr_iut, expr_spec = counting_chain(length, "z"), counting_chain(length, "x")
        ce = check_cioco_exact(
            build_system(expr_iut, relax=True), build_system(expr_spec, relax=True)
        ).counterexample
        located = localize_fault(expr_iut, expr_spec, ce, relax=True)
        assert located == localize_by_leaf(expr_iut, expr_spec, ce, relax=True)
        assert len(located["A"].witness) == length
        assert (located["A"].offending_output, located["A"].spec_outputs) == ("z", {"x"})
        assert located["B"] is None

    def test_the_least_candidate_is_a_shortest_one(self):
        """B answers ``m0`` and ``m1`` alike, so the composed trace
        ``i|y i|y i|y`` projects onto A as ``i|m0 i|m0 i|m1`` and as
        ``i|m1 i|m0 i|m0``. The first leaves A's specification after two
        steps, the second after one: the second is A's counterexample,
        though the first's witness ``i|m0 i|m0`` sorts before ``i|m1``."""
        spec_steps = [("a0", "i", "m0", "a1"), ("a1", "i", "m0", "a2"), ("a2", "i", "m2", "a2"),
                      ("a0", "i", "m1", "a3"), ("a3", "i", "m1", "a4")]
        iut_steps = spec_steps + [("a2", "i", "m1", "a5"), ("a3", "i", "m0", "a6"),
                                  ("a6", "i", "m0", "a7")]
        sig = {"inputs": ["i"], "outputs": ["m0", "m1", "m2"]}
        b = Component.build("B", "b", [("b", "m0", "y", "b"), ("b", "m1", "y", "b"),
                                       ("b", "m2", "z", "b")], outputs=["y", "z"])
        expr_iut, expr_spec = (Par(Leaf("A", Component.build("A", "a0", steps, **sig)),
                                   Leaf("B", b)) for steps in (iut_steps, spec_steps))
        ce = check_cioco_exact(
            build_system(expr_iut, relax=True), build_system(expr_spec, relax=True)
        ).counterexample
        assert format_trace(ce.full_trace()) == "i|y i|y i|y"
        located = localize_fault(expr_iut, expr_spec, ce, relax=True)
        assert located == localize_by_leaf(expr_iut, expr_spec, ce, relax=True)
        assert located["A"] == Counterexample(
            witness=(Step("i", "m1"),), input="i", offending_output="m0",
            iut_outputs=frozenset({"m0"}), spec_outputs=frozenset({"m1"}),
        )

    def test_fixtures_match_one_projection_per_leaf(self):
        cases = [
            (coffee_expr(demo("coffee/iut_money"), demo("coffee/drink")),
             coffee_expr(demo("coffee/spec_money"), demo("coffee/drink")),
             coffee_expr(demo("coffee/spec_money_revised"), demo("coffee/drink"))),
            (relay_expr(demo("relay/iut_left"), demo("relay/right")),
             relay_expr(demo("relay/spec_left"), demo("relay/right")),
             relay_expr(demo("relay/spec_left"), demo("relay/right"))),
        ]
        for expr_iut, expr_spec, against in cases:
            ce = check_cioco_exact(build_system(expr_iut), build_system(expr_spec)).counterexample
            assert localize_fault(expr_iut, against, ce) == localize_by_leaf(expr_iut, against, ce)

    def test_single_leaf_specification_is_its_own_projection(self):
        rng = random.Random(241)
        failing = 0
        for _ in range(20):
            spec = random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 4))
            iut = mutate(rng, spec, name="I")
            ce = check_cioco_exact(iut, spec).counterexample
            if ce is None:
                continue
            failing += 1
            located = localize_fault(Leaf("P", iut), Leaf("P", spec), ce)
            assert located == localize_by_leaf(Leaf("P", iut), Leaf("P", spec), ce)
            local = located["P"]
            assert (local.witness, local.input, local.offending_output) == (
                ce.witness, ce.input, ce.offending_output
            )
            assert local.spec_outputs == ce.spec_outputs
        assert failing >= 5

    def test_random_systems_match_one_projection_per_leaf(self):
        rng = random.Random(251)
        shapes = ("balanced", "left-deep", "right-deep")
        failing = Counter()
        for n in range(360):
            if n % 3 == 0:
                c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
                expr_spec = Par(Leaf("L", c1), Leaf("R", c2))
            elif n % 3 == 1:
                expr_spec = random_three_leaf_system(rng)
            else:
                expr_spec = random_four_leaf_system(rng, shapes[n // 3 % 3])
            expr_iut = with_mutated_leaves(rng, expr_spec)
            ce = check_cioco_exact(
                build_system(expr_iut, relax=True), build_system(expr_spec, relax=True)
            ).counterexample
            if ce is None:
                continue
            located = localize_fault(expr_iut, expr_spec, ce, relax=True)
            assert located == localize_by_leaf(expr_iut, expr_spec, ce, relax=True)
            failing[len(located)] += 1
            failing["implicated"] += any(v is not None for v in located.values())
        assert sum(failing[k] for k in (2, 3, 4)) >= 100
        assert min(failing[k] for k in (2, 3, 4)) >= 20
        assert failing["implicated"] >= 50
        # leaves with several candidates, where the least one must be chosen
        several = 0
        for _ in range(120):
            expr_iut, expr_spec = random_merging_relay(rng)
            ce = check_cioco_exact(
                build_system(expr_iut, relax=True), build_system(expr_spec, relax=True)
            ).counterexample
            if ce is None:
                continue
            located = localize_fault(expr_iut, expr_spec, ce, relax=True)
            candidates = local_candidates(expr_iut, expr_spec, ce, relax=True)
            assert located == least_candidates(candidates)
            several += sum(len(found) > 1 for found in candidates.values())
        assert several >= 15

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            localize_fault(
                relay_expr(demo("relay/iut_left"), demo("relay/right")),
                coffee_expr(demo("coffee/spec_money"), demo("coffee/drink")),
                check_cioco_exact(
                    build_system(relay_expr(demo("relay/iut_left"), demo("relay/right"))),
                    build_system(relay_expr(demo("relay/spec_left"), demo("relay/right"))),
                ).counterexample,
            )


    def test_signature_mismatch_raises(self):
        spec_left = demo("relay/spec_left")
        wider = dataclasses.replace(spec_left, inputs=spec_left.inputs | {"extra"})
        expr_iut = relay_expr(demo("relay/iut_left"), demo("relay/right"))
        ce = check_cioco_exact(
            build_system(expr_iut), build_system(relay_expr(spec_left, demo("relay/right")))
        ).counterexample
        with pytest.raises(SignatureMismatchError, match="leaf 'A'"):
            localize_fault(expr_iut, relay_expr(wider, demo("relay/right")), ce)

    def test_least_of_several_candidates_under_any_hash_seed(self):
        """Leaf A's implementation answers ``i`` with ``x2`` or ``x3``,
        where its specification answers ``x1``, and B maps both to ``y``:
        the composed step ``i|y`` projects onto A either way. The local
        counterexample is the least candidate, ``x2``."""
        script = """
from fsmcheck import Component, Leaf, Par, build_system, check_cioco_exact, localize_fault
sig = {"inputs": ["i", "r"], "outputs": ["x1", "x2", "x3"]}
iut_a = Component.build("A", "a0", [("a0", "i", "x3", "a0"), ("a0", "i", "x2", "a0")], **sig)
spec_a = Component.build("A", "a0", [("a0", "i", "x1", "a0")], **sig)
b = Component.build("B", "b0", [("b0", "x1", "z", "b0"), ("b0", "x2", "y", "b0"),
                                ("b0", "x3", "y", "b0")], outputs=["r", "y", "z"])
expr_iut, expr_spec = Par(Leaf("A", iut_a), Leaf("B", b)), Par(Leaf("A", spec_a), Leaf("B", b))
ce = check_cioco_exact(build_system(expr_iut), build_system(expr_spec)).counterexample
local = localize_fault(expr_iut, expr_spec, ce)["A"]
print(ce.input, ce.offending_output, local.input, local.offending_output, local.spec_outputs)
"""
        src = Path(__file__).resolve().parent.parent / "src"
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")
            assert done.stdout == "i y i x2 frozenset({'x1'})\n", seed


class TestReportInvariants:
    def test_conclusion_field_obeys_its_invariants(self):
        rng = random.Random(229)
        for _ in range(60):
            (i1, o1), (i2, o2) = alphabets_for_pair(rng, disjoint=rng.random() < 0.7)
            spec1 = random_component(rng, "S1", i1, o1, n_states=(2, 3))
            spec2 = random_component(rng, "S2", i2, o2, n_states=(2, 3))
            if rng.random() < 0.5:
                spec1 = random_input_enabled_spec(rng, "S1", i1, o1)
            iut1 = conforming_iut(rng, spec1) if rng.random() < 0.5 else random_component(
                rng, "I1", i1, o1
            )
            iut2 = conforming_iut(rng, spec2) if rng.random() < 0.5 else random_component(
                rng, "I2", i2, o2
            )
            for strategy in ("parts", "context"):
                if strategy == "parts":
                    report = certify_by_parts(iut1, spec1, iut2, spec2)
                else:
                    report = certify_in_context(iut1, spec1, iut2, spec2, relax=True)
                if report.global_conclusion == SOUND_PASS:
                    assert report.assumptions_hold
                    assert all(v.passed for v in report.local_verdicts.values())
                elif report.global_conclusion == SOUND_FAIL:
                    assert any(v.failed for v in report.local_verdicts.values())
                else:
                    assert not report.assumptions_hold
