"""Acceptance suite: one test per release criterion, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every random suite is seeded and reproducible.
"""

import random
import time

from fsmcheck import (
    Leaf,
    Par,
    build_system_full,
    certify_by_parts,
    certify_in_context,
    check_cioco_bounded,
    check_cioco_exact,
    check_trace_inclusion,
    complete,
    component_in_context,
    component_in_context_tree,
    has_trace,
    is_input_enabled,
    trace,
    traces_up_to,
)
from fsmcheck.certify import NOT_APPLICABLE, SOUND_FAIL
from fsmcheck.errors import TraceLimitError
from fsmcheck.formats import component_from_json, component_from_text, component_to_json, component_to_text
from fsmcheck.randgen import (
    alphabets_for_pair,
    mutate,
    prune,
    random_component,
    random_composable_pair,
    random_input_enabled_spec,
)

from demos import coffee_expr, demo, relay_expr
from oracles import (
    agrees_with_naive_inclusion,
    build_decompositions,
    paired_projections,
    reassembles,
)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {status} criterion-{num:02d}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


WITNESS = trace("coinC|preparing abs|coffee coinC|preparing")


def test_criterion_01_coffee_global_failure():
    started = time.monotonic()
    iut = build_system_full(coffee_expr(demo("coffee/iut_money"), demo("coffee/drink"))).component
    spec = build_system_full(coffee_expr(demo("coffee/spec_money"), demo("coffee/drink"))).component
    verdict = check_cioco_exact(iut, spec)
    elapsed = time.monotonic() - started
    ce = verdict.counterexample
    ok = (
        verdict.failed
        and ce.witness == WITNESS
        and ce.input == "abs"
        and ce.offending_output == "refund"
        and elapsed < 1.0
    )
    report(1, "coffee composition fails with the exact three-step witness", ok,
           f"{elapsed:.3f}s")


def test_criterion_02_coffee_local_passes():
    started = time.monotonic()
    money = check_cioco_exact(demo("coffee/iut_money"), demo("coffee/spec_money"))
    drink = check_cioco_exact(demo("coffee/drink"), demo("coffee/drink"))
    elapsed = time.monotonic() - started
    ok = money.passed and drink.passed and elapsed < 1.0
    report(2, "both coffee components pass their local checks", ok, f"{elapsed:.3f}s")


def test_criterion_03_by_parts_not_applicable_on_coffee():
    rep = certify_by_parts(
        demo("coffee/iut_money"), demo("coffee/spec_money"),
        demo("coffee/drink"), demo("coffee/drink"),
    )
    enabledness = {
        a.name: a.holds for a in rep.assumptions if a.name.endswith("input-enabled")
    }
    locals_pass = all(v.passed for v in rep.local_verdicts.values())
    global_fails = check_cioco_exact(
        build_system_full(coffee_expr(demo("coffee/iut_money"), demo("coffee/drink"))).component,
        build_system_full(coffee_expr(demo("coffee/spec_money"), demo("coffee/drink"))).component,
    ).failed
    ok = (
        rep.global_conclusion == NOT_APPLICABLE
        and not any(enabledness.values())
        and locals_pass
        and global_fails
    )
    report(3, "by-parts certification is not-applicable on coffee despite local passes", ok)


def test_criterion_04_in_context_on_revised_coffee():
    revised = demo("coffee/spec_money_revised")
    build = build_system_full(coffee_expr(revised, demo("coffee/drink")))
    projection = component_in_context(build, "M").component
    equivalent = all(
        traces_up_to(projection, k) == traces_up_to(revised, k) for k in range(7)
    )
    rep = certify_in_context(
        demo("coffee/iut_money"), revised, demo("coffee/drink"), demo("coffee/drink")
    )
    money = rep.local_verdicts["M"]
    final_ok = False
    if money.failed:
        final = money.counterexample.full_trace()[-1]
        final_ok = (final.input, final.output) == ("error", "refund")
    ok = (
        equivalent
        and rep.global_conclusion == SOUND_FAIL
        and money.failed
        and rep.local_verdicts["D"].passed
        and final_ok
    )
    report(4, "projection equals the revised money spec and in-context check "
              "fails implicating it on error|refund", ok)


def test_criterion_05_relay_counterexample():
    local_left = check_cioco_exact(demo("relay/iut_left"), demo("relay/spec_left"))
    local_right = check_cioco_exact(demo("relay/right"), demo("relay/right"))
    verdict = check_cioco_exact(
        build_system_full(relay_expr(demo("relay/iut_left"), demo("relay/right"))).component,
        build_system_full(relay_expr(demo("relay/spec_left"), demo("relay/right"))).component,
    )
    ce = verdict.counterexample
    ok = (
        local_left.passed
        and local_right.passed
        and verdict.failed
        and ce.witness == trace("i1|o3")
        and ce.input == "i2"
        and ce.offending_output == "o5"
    )
    report(5, "relay machines: locals pass, composition fails on i1|o3 / i2 / o5", ok)


def test_criterion_06_by_parts_soundness_suite():
    rng = random.Random(60601)
    started = time.monotonic()
    instances = 0
    violations = []
    while instances < 500:
        (i1, o1), (i2, o2) = alphabets_for_pair(rng)
        spec1 = random_input_enabled_spec(rng, "S1", i1, o1, n_states=(2, 4))
        spec2 = random_input_enabled_spec(rng, "S2", i2, o2, n_states=(2, 4))
        iut1 = prune(rng, spec1, keep=rng.uniform(0.5, 1.0), name="I1")
        iut2 = prune(rng, spec2, keep=rng.uniform(0.5, 1.0), name="I2")
        rep = certify_by_parts(iut1, spec1, iut2, spec2)
        if not rep.assumptions_hold or not all(
            v.passed for v in rep.local_verdicts.values()
        ):
            continue
        instances += 1
        direct = check_cioco_exact(
            build_system_full(Par(Leaf("S1", iut1), Leaf("S2", iut2)), relax=True).component,
            build_system_full(Par(Leaf("S1", spec1), Leaf("S2", spec2)), relax=True).component,
        )
        if not direct.passed:
            violations.append(instances)
    elapsed = time.monotonic() - started
    ok = instances >= 500 and not violations and elapsed < 60.0
    report(6, "500 assumption-satisfying quadruples with passing locals all "
              "pass the direct global check", ok,
           f"{instances} instances, {len(violations)} violations, {elapsed:.1f}s")


def test_criterion_07_in_context_soundness_suite():
    rng = random.Random(70701)
    started = time.monotonic()
    instances = 0
    violations = []
    while instances < 500:
        c1, c2 = random_composable_pair(rng, names=("S1", "S2"), n_states=(2, 4))
        expr = Par(Leaf("S1", c1), Leaf("S2", c2))
        build = build_system_full(expr, relax=True)
        proj1 = component_in_context(build, "S1").component
        proj2 = component_in_context(build, "S2").component
        if rng.random() < 0.7:
            iut1 = prune(rng, proj1, keep=rng.uniform(0.5, 1.0), name="I1")
            iut2 = prune(rng, proj2, keep=rng.uniform(0.5, 1.0), name="I2")
        else:
            iut1 = mutate(rng, proj1, name="I1")
            iut2 = mutate(rng, proj2, name="I2")
        rep = certify_in_context(iut1, c1, iut2, c2, relax=True)
        if rep.global_conclusion != "sound-pass":
            continue  # the suite quantifies over locally passing quadruples
        instances += 1
        direct = check_cioco_exact(
            build_system_full(Par(Leaf("S1", iut1), Leaf("S2", iut2)), relax=True).component,
            build.component,
        )
        if not direct.passed:
            violations.append(instances)
    elapsed = time.monotonic() - started
    ok = instances >= 500 and not violations and elapsed < 120.0
    report(7, "500 quadruples passing the in-context locals all pass the "
              "direct global check, no input-enabledness needed", ok,
           f"{instances} instances, {len(violations)} violations, {elapsed:.1f}s")


def test_criterion_08_projection_round_trip_suite():
    rng = random.Random(80801)
    started = time.monotonic()
    systems = 0
    checked_pairs = 0
    violations = 0
    while systems < 500:
        c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 3),
                                        density=(0.3, 0.6))
        expr = Par(Leaf("L", c1), Leaf("R", c2))
        build = build_system_full(expr, relax=True)
        try:
            composed_traces = traces_up_to(build.component, 5, guard=2000)
        except TraceLimitError:
            continue
        systems += 1
        joint = build_decompositions(build)
        for tr in composed_traces:
            pairs = paired_projections(build, tr, joint)
            if not pairs:
                violations += 1
                continue
            for (tr1, tr2) in pairs:
                checked_pairs += 1
                # forward: projections are traces of their components;
                # backward: the pair reassembles into the composed trace
                if not has_trace(c1, tr1) or not has_trace(c2, tr2):
                    violations += 1
                elif not reassembles(c1, c2, tr, tr1, tr2):
                    violations += 1
    elapsed = time.monotonic() - started
    ok = systems >= 500 and violations == 0
    report(8, "projections of composed traces are component traces and "
              "reassemble, both directions", ok,
           f"{systems} systems, {checked_pairs} projection pairs, "
           f"{violations} violations, {elapsed:.1f}s")


def test_criterion_09_inclusion_conformance_bridges():
    rng = random.Random(90901)
    started = time.monotonic()
    violations = 0

    part1 = 0
    while part1 < 500:
        spec = random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 4))
        iut = prune(rng, spec, keep=rng.uniform(0.4, 0.9), name="I")
        inclusion = check_trace_inclusion(iut, spec)
        if not agrees_with_naive_inclusion(inclusion, iut, spec):
            violations += 1
        if not inclusion.passed:
            continue
        part1 += 1
        if not check_cioco_exact(iut, spec).passed:
            violations += 1

    part2 = 0
    while part2 < 500:
        spec = complete(
            random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 4)),
            policy=rng.choice(("loop", "sink")),
            label="y",
        )
        if not is_input_enabled(spec):
            violations += 1
            continue
        iut = (
            prune(rng, spec, keep=rng.uniform(0.4, 0.9), name="I")
            if rng.random() < 0.7
            else mutate(rng, spec, name="I")
        )
        if not check_cioco_exact(iut, spec).passed:
            continue
        part2 += 1
        inclusion = check_trace_inclusion(iut, spec)
        if not inclusion.passed or not agrees_with_naive_inclusion(inclusion, iut, spec):
            violations += 1

    # failing verdicts: a conformance violation is a trace the spec lacks
    part3 = 0
    while part3 < 300:
        spec = random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 4))
        iut = mutate(rng, spec, name="I")
        if check_cioco_exact(iut, spec).passed:
            continue
        part3 += 1
        inclusion = check_trace_inclusion(iut, spec)
        if inclusion.passed or not agrees_with_naive_inclusion(inclusion, iut, spec):
            violations += 1

    elapsed = time.monotonic() - started
    report(9, "trace inclusion implies conformance; conformance against "
              "input-enabled specs implies trace inclusion; failing conformance "
              "implies failing inclusion", violations == 0,
           f"{part1}+{part2}+{part3} instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_10_oracle_agreements():
    rng = random.Random(101001)
    started = time.monotonic()
    violations = 0

    agree_checks = 0
    while agree_checks < 300:
        spec = random_component(rng, "S", ["a", "b"], ["x", "y"], n_states=(2, 4))
        roll = rng.random()
        if roll < 0.4:
            iut = prune(rng, spec, keep=rng.uniform(0.4, 0.9), name="I")
        elif roll < 0.8:
            iut = mutate(rng, spec, name="I")
        else:
            iut = spec
        exact = check_cioco_exact(iut, spec)
        k = min(12, len(iut.states) * len(spec.states) * 2 ** min(len(iut.states), len(spec.states)))
        try:
            bounded = check_cioco_bounded(iut, spec, k, guard=200_000)
        except TraceLimitError:
            continue
        agree_checks += 1
        if exact.failed and len(exact.counterexample.witness) <= k:
            if not bounded.failed or bounded.counterexample != exact.counterexample:
                violations += 1
        elif exact.passed and bounded.result != "inconclusive":
            violations += 1

    tree_checks = 0
    while tree_checks < 300:
        c1, c2 = random_composable_pair(rng, names=("L", "R"), n_states=(2, 4))
        build = build_system_full(Par(Leaf("L", c1), Leaf("R", c2)), relax=True)
        tree_checks += 1
        for target in ("L", "R"):
            finite = component_in_context(build, target).component
            for k in (3, 5):
                tree = component_in_context_tree(build, target, k).component
                if traces_up_to(finite, k) != traces_up_to(tree, k):
                    violations += 1

    elapsed = time.monotonic() - started
    report(10, "exact/bounded conformance and finite/tree projection "
               "constructions agree", violations == 0,
           f"{agree_checks}+{tree_checks} instances, {violations} violations, "
           f"{elapsed:.1f}s")


def test_criterion_11_format_round_trip():
    rng = random.Random(111101)
    started = time.monotonic()
    violations = 0
    for n in range(1000):
        c = random_component(
            rng, f"c{n}", ["a", "b", "c"], ["x", "y", "z"], n_states=(1, 7)
        )
        if component_from_text(component_to_text(c)) != c:
            violations += 1
        if component_from_json(component_to_json(c)) != c:
            violations += 1
    elapsed = time.monotonic() - started
    report(11, "text and JSON round-trips are the identity on 1000 random "
               "components", violations == 0,
           f"{violations} violations, {elapsed:.1f}s")
