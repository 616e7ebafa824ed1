"""Conformance: exact and bounded cioco, trace inclusion, counterexamples."""

import dataclasses
import random
import time
import tracemalloc
from collections import Counter

import pytest

from fsmcheck import (
    CheckStats,
    Component,
    Counterexample,
    InvalidComponentError,
    SignatureMismatchError,
    TraceLimitError,
    Transition,
    build_system_full,
    check_cioco_bounded,
    check_cioco_exact,
    check_trace_inclusion,
    complete,
    has_trace,
    is_input_enabled,
    out_after,
    states_after,
    trace,
    traces_up_to,
)
from fsmcheck._core import EncodedComponent, cioco_bfs, encode_pair
from fsmcheck.conform import _count_continuations
from fsmcheck.project import _encoded_projections
from fsmcheck.randgen import conforming_iut, mutate, prune, random_component

from oracles import (
    agrees_with_naive_inclusion,
    naive_cioco_bounded,
    naive_out_after,
    naive_states_after,
    naive_subset_pair_search,
    naive_traces,
    step_maps,
)
from test_project import random_four_leaf_system, random_three_leaf_system


def spec_like(rng, n_states=(2, 5), alphabets=(["a", "b"], ["x", "y"])):
    return random_component(rng, "S", *alphabets, n_states=n_states)


def pair_over_shared_alphabet(rng, n_states=(2, 5), alphabets=(["a", "b"], ["x", "y"])):
    spec = spec_like(rng, n_states, alphabets)
    mode = rng.random()
    if mode < 0.25:
        iut = prune(rng, spec, keep=rng.uniform(0.4, 0.9), name="I")
    elif mode < 0.5:
        iut = mutate(rng, spec, name="I")
    elif mode < 0.75:
        iut = random_component(rng, "I", *alphabets, n_states=n_states)
    else:
        iut = spec
    return iut, spec


class TestExact:
    def test_reflexive(self):
        rng = random.Random(3)
        for _ in range(20):
            c = spec_like(rng)
            assert check_cioco_exact(c, c).passed

    def test_one_step_extra_output(self):
        iut = Component.build(
            "i", "s0", [("s0", "a", "x", "s0"), ("s0", "a", "z", "s0")], outputs=["x", "z"]
        )
        spec = Component.build("s", "s0", [("s0", "a", "x", "s0")], outputs=["x", "z"])
        v = check_cioco_exact(iut, spec)
        assert v.failed
        ce = v.counterexample
        assert ce.witness == ()
        assert ce.input == "a"
        assert ce.offending_output == "z"
        assert ce.iut_outputs == {"x", "z"}
        assert ce.spec_outputs == {"x"}

    def test_signature_mismatch_raises(self):
        c1 = Component.build("a", "s0", [("s0", "a", "x", "s0")])
        c2 = Component.build("b", "s0", [("s0", "b", "x", "s0")])
        with pytest.raises(SignatureMismatchError):
            check_cioco_exact(c1, c2)

    def test_warns_on_non_input_enabled_iut(self):
        iut = Component.build("i", "s0", [("s0", "a", "x", "s1")])
        spec = complete(iut, "loop", label="x")
        v = check_cioco_exact(iut, spec)
        assert v.passed
        assert any("not input-enabled" in w for w in v.warnings)

    def test_input_enabled_warning_agrees_with_is_input_enabled(self):
        # the exact check reads input-enabledness from its encoding; it must
        # count unreachable states and declared inputs no transition uses
        rng = random.Random(613)
        kinds = set()
        for k in range(240):
            c = random_component(
                rng, "I", ["a", "b"], ["x", "y"], n_states=(1, 5), density=(0.5, 1.0)
            )
            if k % 2:
                c = complete(c, "loop", label="x")
            kind = k // 2 % 4
            if kind == 1:  # an unreachable dead end
                c = Component(c.name, c.states | {"u"}, c.initial, c.inputs, c.outputs,
                              c.transitions)
            elif kind == 2:  # an unreachable state looping on every input
                loops = {Transition("u", i, "x", "u") for i in c.inputs}
                c = Component(c.name, c.states | {"u"}, c.initial, c.inputs, c.outputs,
                              c.transitions | loops)
            elif kind == 3:  # a declared input no transition uses
                c = Component(c.name, c.states, c.initial, c.inputs | {"z"}, c.outputs,
                              c.transitions)
            enabled = is_input_enabled(c)
            kinds.add((kind, enabled))
            expected = () if enabled else ("implementation 'I' is not input-enabled",)
            for v in (check_cioco_exact(c, c), check_cioco_exact(c, c, "forbid")):
                assert v.warnings == expected
            assert check_cioco_bounded(c, c, 1).warnings == expected
        assert kinds == {(0, False), (0, True), (1, False), (2, False), (2, True), (3, False)}

    def test_counterexample_invariants(self):
        rng = random.Random(41)
        seen_fail = 0
        for _ in range(200):
            iut, spec = pair_over_shared_alphabet(rng)
            v = check_cioco_exact(iut, spec)
            if not v.failed:
                continue
            seen_fail += 1
            ce = v.counterexample
            assert has_trace(spec, ce.witness)
            assert has_trace(iut, ce.full_trace())
            assert ce.offending_output in ce.iut_outputs
            assert ce.offending_output not in ce.spec_outputs
            assert ce.iut_outputs == out_after(iut, ce.witness, ce.input)
            assert ce.spec_outputs == out_after(spec, ce.witness, ce.input)
        assert seen_fail > 20

    def test_counterexample_minimality(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(300):
            iut, spec = pair_over_shared_alphabet(rng, n_states=(2, 4))
            v = check_cioco_exact(iut, spec)
            if not v.failed or not v.counterexample.witness:
                continue
            checked += 1
            shorter = check_cioco_bounded(iut, spec, len(v.counterexample.witness) - 1)
            assert shorter.result == "inconclusive"
        assert checked > 10

    def test_deterministic_across_runs(self):
        rng = random.Random(47)
        for _ in range(30):
            iut, spec = pair_over_shared_alphabet(rng)
            a = check_cioco_exact(iut, spec)
            b = check_cioco_exact(iut, spec)
            assert a.result == b.result
            assert a.counterexample == b.counterexample

    def test_strict_mode_rejects_unspecified_inputs(self):
        iut = Component.build(
            "i", "s0", [("s0", "a", "x", "s0"), ("s0", "b", "x", "s0")], inputs=["a", "b"]
        )
        spec = Component.build("s", "s0", [("s0", "a", "x", "s0")], inputs=["a", "b"])
        assert check_cioco_exact(iut, spec).passed
        strict = check_cioco_exact(iut, spec, unspecified="forbid")
        assert strict.failed
        assert strict.counterexample.input == "b"


class TestBounded:
    def test_reflexive_is_inconclusive_not_pass(self):
        rng = random.Random(53)
        c = spec_like(rng)
        v = check_cioco_bounded(c, c, 4)
        assert v.result == "inconclusive"
        assert v.method == "bounded"
        assert v.depth == 4

    def test_one_step_violation(self):
        iut = Component.build(
            "i", "s0", [("s0", "a", "x", "s0"), ("s0", "a", "z", "s0")], outputs=["x", "z"]
        )
        spec = Component.build("s", "s0", [("s0", "a", "x", "s0")], outputs=["x", "z"])
        v = check_cioco_bounded(iut, spec, 1)
        assert v.failed
        assert v.counterexample.witness == ()
        assert v.counterexample.offending_output == "z"

    def test_agrees_with_exact_within_witness_length(self):
        rng = random.Random(59)
        for _ in range(150):
            iut, spec = pair_over_shared_alphabet(rng, n_states=(2, 4))
            exact = check_cioco_exact(iut, spec)
            k = min(12, len(iut.states) * len(spec.states))
            bounded = check_cioco_bounded(iut, spec, k)
            if exact.failed and len(exact.counterexample.witness) <= k:
                assert bounded.failed
                assert bounded.counterexample == exact.counterexample
            elif exact.passed:
                assert bounded.result == "inconclusive"

    def test_agrees_with_independent_brute_force(self):
        rng = random.Random(61)
        cases = [(3, *pair_over_shared_alphabet(rng, n_states=(2, 4))) for _ in range(80)]
        # at depth 5 over three inputs and outputs, levels hold hundreds of
        # traces. Against a dense specification, a mutant and one extra
        # step beyond the initial state put violations in the middle of
        # their level, below a parent that is not first.
        three = (["a", "b", "c"], ["x", "y", "z"])
        for n in range(90):
            if n % 3 == 0:
                cases.append((5, *pair_over_shared_alphabet(rng, (1, 4), three)))
                continue
            spec = random_component(rng, "S", *three, n_states=(2, 4), density=(0.3, 0.9))
            if n % 3 == 1:
                cases.append((5, mutate(rng, spec, adds=1, name="I"), spec))
                continue
            extra = Transition(rng.choice(sorted(spec.states - {spec.initial})),
                               rng.choice(three[0]), rng.choice(three[1]),
                               rng.choice(sorted(spec.states)))
            cases.append((5, Component("I", spec.states, spec.initial, spec.inputs,
                                       spec.outputs, spec.transitions | {extra}), spec))
        mid_level = later_parent = 0
        for depth, iut, spec in cases:
            for unspecified in ("allow", "forbid"):
                got = check_cioco_bounded(iut, spec, depth, unspecified=unspecified)
                expected, examined = naive_cioco_bounded(
                    iut, spec, depth, strict=unspecified == "forbid"
                )
                assert got.stats.explored_pairs == examined
                if expected is None:
                    assert got.result == "inconclusive"
                    assert got.stats.max_depth == depth
                    continue
                tr, i, o = expected
                assert got.failed
                assert got.stats.max_depth == len(tr)
                assert got.counterexample == Counterexample(
                    tr, i, o, naive_out_after(iut, tr, i), naive_out_after(spec, tr, i)
                )
                if tr:
                    shorter = naive_traces(spec, len(tr) - 1)
                    mid_level += examined - len(shorter) > 1
                    parents = sorted(t for t in shorter if len(t) == len(tr) - 1)
                    later_parent += parents.index(tr[:-1]) > 0
        assert mid_level > 15 and later_parent > 4

    def test_guard_counts_every_trace_even_after_a_violation(self):
        iut = Component.build(
            "i", "s0", [("s0", "a", "x", "s0"), ("s0", "a", "z", "s0")], outputs=["x", "z"]
        )
        spec = Component.build("s", "s0", [("s0", "a", "x", "s0")], outputs=["x", "z"])
        k = 3
        count = len(traces_up_to(spec, k))
        with pytest.raises(TraceLimitError) as enumerated:
            traces_up_to(spec, k, guard=count - 1)
        with pytest.raises(TraceLimitError) as checked:
            check_cioco_bounded(iut, spec, k, guard=count - 1)
        assert str(checked.value) == str(enumerated.value)

        default = check_cioco_bounded(iut, spec, k)
        assert default.failed and default.counterexample.witness == ()
        assert check_cioco_bounded(iut, spec, k, guard=count).to_dict() == default.to_dict()

    def test_guard_counts_traces_past_the_bound_from_distinct_steps(self):
        # the unreachable state's step a|y is one of the specification's two
        # distinct steps, so 1 + 2 + 4 + 8 = 15 bounds its traces up to
        # depth 3, while it has only 4: for every guard from 4 to 14 the
        # bound does not settle the guard, and the traces must be counted
        spec = Component.build("s", "s0", [("s0", "a", "x", "s0"), ("u", "a", "y", "u")],
                               outputs=["x", "y"])
        k = 3
        count = len(traces_up_to(spec, k))
        assert count == 4
        for guard in (count, 14, 15):
            v = check_cioco_bounded(spec, spec, k, guard=guard)
            assert (v.result, v.stats.explored_pairs) == ("inconclusive", count)
        with pytest.raises(TraceLimitError) as enumerated:
            traces_up_to(spec, k, guard=count - 1)
        with pytest.raises(TraceLimitError) as checked:
            check_cioco_bounded(spec, spec, k, guard=count - 1)
        assert str(checked.value) == str(enumerated.value)

    def test_violation_past_the_bound_from_distinct_steps_waits_for_the_count(self):
        # one trace per length, but the unreachable a|y makes two distinct
        # steps, so at k = 10**9 the bound does not settle a guard near
        # the 10**9 + 1 traces: the violation at the root is kept while
        # the traces are counted, and returned only if they fit the guard
        started = time.perf_counter()
        spec = Component.build("s", "s0", [("s0", "a", "x", "s0"), ("u", "a", "y", "u")],
                               outputs=["x", "y", "z"])
        iut = Component.build("i", "s0", [("s0", "a", "x", "s0"), ("s0", "a", "z", "s0")],
                              outputs=["x", "y", "z"])
        short = check_cioco_bounded(iut, spec, 3)
        assert short.failed and short.counterexample.witness == ()
        v = check_cioco_bounded(iut, spec, 10**9, guard=10**9 + 1)
        assert (v.counterexample, v.stats) == (short.counterexample, short.stats)
        assert (v.stats.explored_pairs, v.stats.max_depth) == (1, 0)
        with pytest.raises(TraceLimitError) as checked:
            check_cioco_bounded(iut, spec, 10**9, guard=10**9)
        limit = "enumeration exceeded the cardinality guard of 1000000000: "
        assert str(checked.value) == limit + "traces of 's' up to depth 1000000000"
        assert time.perf_counter() - started < 1.0

    def test_guard_bound_grows_with_steps_not_inputs(self):
        # one input, two outputs: 2**d traces of length d, so no bound
        # from the number of inputs alone (4 up to depth 3) holds
        spec = Component.build("s", "s0", [("s0", "a", "x", "s0"), ("s0", "a", "y", "s0")])
        k = 3
        count = len(traces_up_to(spec, k))
        assert count == 15
        for guard in (k + 1, count - 1):
            with pytest.raises(TraceLimitError):
                check_cioco_bounded(spec, spec, k, guard=guard)
        assert check_cioco_bounded(spec, spec, k, guard=count).stats.explored_pairs == count

    def test_guard_is_not_tested_when_only_the_empty_trace_exists(self):
        iut = Component.build("i", "s0", [("s0", "a", "x", "s0")])
        spec = Component.build("s", "s0", [], inputs=["a"], outputs=["x"])
        assert traces_up_to(spec, 4, guard=0) == {()}
        assert check_cioco_bounded(iut, spec, 4, guard=0).result == "inconclusive"
        assert check_cioco_bounded(iut, spec, 10**9, guard=0).stats.max_depth == 10**9
        forbid = check_cioco_bounded(iut, spec, 4, unspecified="forbid", guard=0)
        assert forbid.failed
        assert forbid.counterexample.witness == ()
        assert forbid.stats.explored_pairs == 1

    def test_stops_walking_lengths_once_no_pair_is_new(self):
        # After the first step no pair is new, so the other lengths are
        # only counted: a million of one loop, and a billion of two
        # alternating states, whose two distinct steps make the guard's
        # bound grow as 2**k while one trace has each length.
        started = time.perf_counter()
        loop = Component.build("c", "s", [("s", "a", "x", "s")])
        v = check_cioco_bounded(loop, loop, 10**6, guard=10**7)
        assert (v.result, v.stats.explored_pairs, v.stats.max_depth) == (
            "inconclusive", 10**6 + 1, 10**6)
        alternating = Component.build("c", "s0", [("s0", "a", "x", "s1"), ("s1", "a", "y", "s0")])
        v = check_cioco_bounded(alternating, alternating, 10**9, guard=2 * 10**9)
        assert (v.result, v.stats.explored_pairs, v.stats.max_depth) == (
            "inconclusive", 10**9 + 1, 10**9)
        assert check_cioco_bounded(
            alternating, alternating, 10**9, guard=10**9 + 1).stats.explored_pairs == 10**9 + 1
        with pytest.raises(TraceLimitError, match="guard of 1000000000: traces of 'c' up to depth"):
            check_cioco_bounded(alternating, alternating, 10**9, guard=10**9)
        # a cycle of 200 states: 200 pairs, whose count matrix squares
        # sparsely where a dense one would take 200**3 steps a squaring
        cycle = Component.build("c", "q0", [(f"q{n}", "a", "xy"[n % 2], f"q{(n + 1) % 200}")
                                            for n in range(200)])
        v = check_cioco_bounded(cycle, cycle, 10**9, guard=2 * 10**9)
        assert (v.stats.explored_pairs, v.stats.max_depth) == (10**9 + 1, 10**9)
        assert time.perf_counter() - started < 1.0

    def test_counts_past_the_stop_match_the_enumeration(self):
        # deeper than the brute-force test: most of these stop walking
        # lengths early, and every guard from count - 1 up must agree
        rng = random.Random(67)
        counted = 0
        for _ in range(150):
            iut, spec = pair_over_shared_alphabet(rng, n_states=(1, 3))
            k = rng.randint(6, 10)
            try:
                count = len(traces_up_to(spec, k, guard=2_000))
            except TraceLimitError:
                continue
            for unspecified in ("allow", "forbid"):
                v = check_cioco_bounded(iut, spec, k, unspecified=unspecified, guard=count)
                expected, examined = naive_cioco_bounded(
                    iut, spec, k, strict=unspecified == "forbid")
                assert v.stats.explored_pairs == examined
                assert v.failed == (expected is not None)
                counted += expected is None
                if count > 1:  # the guard is tested only when a trace is added
                    with pytest.raises(TraceLimitError):
                        check_cioco_bounded(iut, spec, k, unspecified=unspecified, guard=count - 1)
        assert counted >= 60

    def test_continuations_are_counted_by_either_walk(self):
        # random step graphs over up to five nodes, at up to 200 more
        # lengths: the few lengths are stepped, the many squared
        rng = random.Random(71)
        for _ in range(300):
            nodes = range(rng.randint(1, 5))
            children = {node: [rng.choice(nodes) for _ in range(rng.randint(0, 3))]
                        for node in nodes}
            counts = {node: rng.randint(1, 3) for node in rng.sample(nodes, min(2, len(nodes)))}
            lengths = rng.choice([rng.randint(0, 12), rng.randint(0, 200)])
            exact, vector = 0, Counter(counts)
            for _ in range(lengths):
                longer = Counter()
                for node, ways in vector.items():
                    for child in children[node]:
                        longer[child] += ways
                exact += longer.total()
                vector = longer
            for cap in (exact + 1, max(1, exact), max(1, exact // 3), 10**80):
                got = _count_continuations(counts, children, lengths, cap)
                assert got == min(cap, exact)

    def test_errors_come_in_a_fixed_order(self):
        # a signature mismatch, then an invalid component (the implementation
        # before the specification), then a bad mode, then a negative depth
        spec = Component.build("s", "s0", [("s0", "a", "x", "s0")])
        invalid = Component("i", frozenset({"s0"}), "s7", spec.inputs, spec.outputs,
                            frozenset({Transition("s0", "a", "x", "s9")}))
        other = Component.build("o", "s0", [("s0", "b", "x", "s0")])
        for iut, against in ((invalid, other), (other, invalid)):
            with pytest.raises(SignatureMismatchError):
                check_cioco_bounded(iut, against, -1, unspecified="never")
        for iut, against in ((invalid, spec), (spec, invalid), (invalid, invalid)):
            with pytest.raises(InvalidComponentError) as exact:
                check_cioco_exact(iut, against)
            with pytest.raises(InvalidComponentError) as bounded:
                check_cioco_bounded(iut, against, -1, unspecified="never")
            assert str(bounded.value) == str(exact.value)
            assert "uses undeclared state 's9'" in str(bounded.value)
        with pytest.raises(ValueError, match="unspecified must be one of"):
            check_cioco_bounded(spec, spec, -1, unspecified="never")
        with pytest.raises(ValueError, match="depth bound must be non-negative"):
            check_cioco_bounded(spec, spec, -1)

    def test_failures_are_monotone_in_depth(self):
        rng = random.Random(67)
        for _ in range(60):
            iut, spec = pair_over_shared_alphabet(rng, n_states=(2, 4))
            v3 = check_cioco_bounded(iut, spec, 3)
            if v3.failed:
                v5 = check_cioco_bounded(iut, spec, 5)
                assert v5.failed
                assert len(v5.counterexample.witness) == len(v3.counterexample.witness)


class TestTraceInclusion:
    def test_reflexive(self):
        rng = random.Random(71)
        c = spec_like(rng)
        assert check_trace_inclusion(c, c).passed

    def test_loop_vs_dead_end(self):
        c1 = Component.build("a", "s0", [("s0", "a", "x", "s0")])
        c2 = Component.build("b", "s0", [("s0", "a", "x", "s1")])
        v = check_trace_inclusion(c1, c2)
        assert v.failed
        assert v.counterexample.full_trace() == trace("a|x a|x")

    def test_completion_adds_traces(self):
        rng = random.Random(73)
        grew = 0
        for _ in range(30):
            c = spec_like(rng)
            done = complete(c, "loop", label="fill")
            if done == c:
                continue
            widened = Component(
                name=c.name, states=c.states, initial=c.initial,
                inputs=c.inputs, outputs=done.outputs, transitions=c.transitions,
            )
            assert check_trace_inclusion(widened, done).passed
            back = check_trace_inclusion(done, widened)
            # completion only grows the language when it touches a
            # reachable state
            if traces_up_to(done, 4) != traces_up_to(widened, 4):
                grew += 1
                assert back.failed
        assert grew > 5

    def test_witness_is_shortest_escaping_trace(self):
        rng = random.Random(79)
        for _ in range(80):
            iut, spec = pair_over_shared_alphabet(rng, n_states=(2, 4))
            v = check_trace_inclusion(iut, spec)
            if not v.failed:
                continue
            full = v.counterexample.full_trace()
            assert has_trace(iut, full) and not has_trace(spec, full)
            for k in range(len(full)):
                for tr in traces_up_to(iut, k):
                    assert has_trace(spec, tr) or len(tr) == len(full)


class TestInclusionAndConformance:
    def test_inclusion_implies_conformance(self):
        rng = random.Random(83)
        hits = 0
        for _ in range(150):
            iut, spec = pair_over_shared_alphabet(rng, n_states=(2, 4))
            if check_trace_inclusion(iut, spec).passed:
                hits += 1
                assert check_cioco_exact(iut, spec).passed
                assert check_cioco_exact(iut, spec, unspecified="forbid").passed
        assert hits > 20

    def test_conformance_implies_inclusion_for_input_enabled_spec(self):
        rng = random.Random(89)
        hits = 0
        for _ in range(150):
            spec = complete(spec_like(rng), "loop", label="y")
            assert is_input_enabled(spec)
            iut = conforming_iut(rng, spec) if rng.random() < 0.5 else random_component(
                rng, "I", sorted(spec.inputs), sorted(spec.outputs)
            )
            if check_cioco_exact(iut, spec).passed:
                hits += 1
                assert check_trace_inclusion(iut, spec).passed
        assert hits > 20

    def test_strict_mode_coincides_with_trace_inclusion(self):
        # inclusion is the strict exact check without its warning: the
        # same verdict, counterexample and stats
        rng = random.Random(97)
        warned = 0
        for _ in range(100):
            iut, spec = pair_over_shared_alphabet(rng, n_states=(2, 4))
            strict = check_cioco_exact(iut, spec, unspecified="forbid")
            inclusion = check_trace_inclusion(iut, spec)
            assert inclusion.warnings == ()
            warned += bool(strict.warnings)
            strict_dict = strict.to_dict()
            strict_dict.pop("warnings", None)
            assert inclusion.to_dict() == strict_dict
            # the two share one search, so each is held to the brute force
            assert agrees_with_naive_inclusion(inclusion, iut, spec)
            assert agrees_with_naive_inclusion(strict, iut, spec)
        assert warned > 50


def test_vacuous_outside_implementation_traces():
    # specification traces the implementation cannot execute impose nothing
    iut = Component.build("i", "s0", [("s0", "a", "x", "s0")], outputs=["x", "y"])
    spec = Component.build(
        "s", "s0", [("s0", "a", "y", "s1"), ("s1", "a", "y", "s1"), ("s0", "a", "x", "s2")],
        outputs=["x", "y"],
    )
    assert not states_after(iut, trace("a|y"))
    assert check_cioco_exact(iut, spec).passed


def test_masks_beyond_64_states():
    # state subsets are bitmasks over sorted state names, and must not
    # assume machine-word width: most of these counterexamples pass
    # through specification states numbered past 63
    rng = random.Random(421)
    failures = wide = 0
    for _ in range(30):
        spec = random_component(
            rng, "big", ["a"], ["x", "y"], n_states=(70, 80), density=(0.9, 1.0)
        )
        iut = mutate(rng, spec, name="bigger", adds=3)
        v = check_cioco_exact(iut, spec)
        if not v.failed:
            assert v.passed
            # a shortest violation would follow a trace no deeper than the search went
            assert naive_cioco_bounded(iut, spec, v.stats.max_depth)[0] is None
            continue
        failures += 1
        ce = v.counterexample
        assert naive_out_after(iut, ce.witness, ce.input) == ce.iut_outputs
        assert naive_out_after(spec, ce.witness, ce.input) == ce.spec_outputs
        assert ce.offending_output in ce.iut_outputs - ce.spec_outputs
        first, _ = naive_cioco_bounded(iut, spec, len(ce.witness))
        assert first == (ce.witness, ce.input, ce.offending_output)
        numbering = sorted(spec.states)
        reached = set().union(
            *(naive_states_after(spec, ce.witness[:j]) for j in range(len(ce.witness) + 1))
        )
        wide += max(map(numbering.index, reached)) >= 64
    assert failures >= 5 and wide >= 3


def nth_from_end(n):
    """Traces whose n-th step from the end is ``a|x``: 2^n reachable subsets."""
    transitions = [("q0", "a", "x", "q0"), ("q0", "a", "y", "q0"), ("q0", "a", "x", "q1")]
    for k in range(1, n):
        transitions += [(f"q{k}", "a", "x", f"q{k + 1}"), (f"q{k}", "a", "y", f"q{k + 1}")]
    return Component.build(f"nth{n}", "q0", transitions, states=[f"q{k}" for k in range(n + 1)])


def with_output(c, label):
    """``c`` with one more declared output, on no transition."""
    return dataclasses.replace(c, outputs=c.outputs | {label})


#: States per block of a subset mask: the byte of states that
#: ``_core._row_union`` walks at a time in a subset of four or more
#: states. A subset whose states lie in several blocks, some holding two
#: or more, merges rows far apart in its mask; the floors below count
#: such subsets.
BLOCK = 8


class TestSubsetPairSearch:
    """``cioco_bfs`` against the search that unions step maps per pair."""

    @staticmethod
    def assert_same_search(iut, spec):
        TestSubsetPairSearch.assert_same_encoded_search(*encode_pair(iut, spec))

    @staticmethod
    def assert_same_encoded_search(enc_iut, enc_spec):
        """Both searches agree under both ``strict`` values; returns the
        raw results."""
        results = []
        for strict in (False, True):
            raw, stats = cioco_bfs(enc_iut, enc_spec, strict)
            assert type(stats) is CheckStats
            got = raw, (stats.explored_pairs, stats.max_depth)
            assert got == naive_subset_pair_search(enc_iut, enc_spec, strict)
            results.append(raw)
        return results

    @staticmethod
    def path_subsets(enc, witness):
        """The subsets of ``enc`` after each prefix of ``witness``."""
        maps = step_maps(enc)
        mask = 1 << enc.initial
        masks = [mask]
        for io in witness:
            following = 0
            for s in range(len(maps)):
                if mask >> s & 1:
                    following |= maps[s].get(io, 0)
            mask = following
            masks.append(mask)
        return masks

    @staticmethod
    def spans_bytes(mask):
        """Four or more states, in two or more blocks."""
        blocks = sum(1 for k in range(0, mask.bit_length(), BLOCK) if mask >> k & (1 << BLOCK) - 1)
        return mask.bit_count() >= 4 and blocks >= 2

    @staticmethod
    def crosses_blocks(spec):
        """Does the subset construction of ``spec`` reach a subset whose
        states lie in several blocks, some block holding two or more?"""
        return TestSubsetPairSearch.encoding_crosses_blocks(encode_pair(spec, spec)[0])

    @staticmethod
    def encoding_crosses_blocks(enc):
        maps = step_maps(enc)
        low = (1 << BLOCK) - 1
        start = 1 << enc.initial
        seen, stack = {start}, [start]
        while stack:
            mask = stack.pop()
            chunks = [mask >> k & low for k in range(0, len(maps), BLOCK)]
            chunks = [c for c in chunks if c]
            if len(chunks) > 1 and any(c & (c - 1) for c in chunks):
                return True
            steps = {}
            for s in range(len(maps)):
                if mask >> s & 1:
                    for io, targets in maps[s].items():
                        steps[io] = steps.get(io, 0) | targets
            for targets in steps.values():
                if targets not in seen:
                    seen.add(targets)
                    stack.append(targets)
        return False

    def test_nondeterministic_pairs_across_block_boundaries(self):
        rng = random.Random(503)
        crossing = 0
        for _ in range(120):
            spec = random_component(
                rng, "S", ["a", "b"], ["x", "y"], n_states=(6, 40), density=(0.6, 1.0)
            )
            others = random_component(rng, "I", ["a", "b"], ["x", "y"], n_states=(6, 40))
            for iut in (spec, prune(rng, spec, name="I"), mutate(rng, spec, name="I"), others):
                self.assert_same_search(iut, spec)
            crossing += self.crosses_blocks(spec)
        assert crossing >= 30

    def test_in_context_projections_of_nested_builds(self):
        # projections span every composed state: several blocks, and
        # beyond 64 states, with the leaf's slots
        rng = random.Random(509)
        shapes = ("balanced", "left-deep", "right-deep")
        crossing = wide = 0
        for n in range(30):
            if n % 2:
                expr = random_three_leaf_system(rng, n_states=(3, 5), density=(0.7, 1.0))
            else:
                expr = random_four_leaf_system(
                    rng, shapes[n // 2 % 3], n_states=(3, 4), dense=(0.7, 1.0)
                )
            build = build_system_full(expr, relax=True)
            for target, projection in zip(build.leaves, _encoded_projections(build)):
                leaf = build.leaf_component(target)
                for iut in (leaf, prune(rng, leaf), mutate(rng, leaf)):
                    enc_iut = EncodedComponent.of(
                        iut, projection.label_names, projection.label_ids
                    )
                    self.assert_same_encoded_search(enc_iut, projection)
                crossing += self.encoding_crosses_blocks(projection)
                wide += len(projection.state_names) > 64
        assert crossing >= 40 and wide >= 5

    def test_failing_searches_through_wide_subsets(self):
        # Each specification declares an output ``z`` that it never gives,
        # so a mutant fails where one of its added steps answers ``z``,
        # often after a trace whose specification subsets are wide. The
        # failing pair then sits anywhere in its level.
        rng = random.Random(523)
        pairs = []
        for n in range(8, 13):
            spec = with_output(nth_from_end(n), "z")
            pairs += [("nth", mutate(rng, spec, name="I", adds=3), spec) for _ in range(5)]
        for _ in range(120):
            spec = with_output(random_component(
                rng, "S", ["a"], ["x"], n_states=(70, 80), density=(0.9, 1.0)
            ), "z")
            pairs.append(("dense", mutate(rng, spec, name="I"), spec))
        failing, wide = Counter(), Counter()
        for family, iut, spec in pairs:
            enc_iut, enc_spec = encode_pair(iut, spec)
            for raw in self.assert_same_encoded_search(enc_iut, enc_spec):
                if raw is not None:
                    failing[family] += 1
                    path = self.path_subsets(enc_spec, raw[0])
                    wide[family] += any(map(self.spans_bytes, path))
        assert min(failing["nth"], failing["dense"]) >= 20
        assert min(wide["nth"], wide["dense"]) >= 6
        assert wide.total() >= 14

    @pytest.mark.parametrize("case", ["one child by two slots", "same implementation targets",
                                      "same specification targets"])
    def test_witness_takes_the_slot_that_reached_the_child(self, case):
        # The start pair's steps a|x and a|y reach one child pair, or two
        # that share one side; the violation (b|z) is after a|x's child or
        # after a|y's, and the witness is the least slot reaching it.
        iut, spec = {
            "one child by two slots": (
                [("i0", "a", "x", "i1"), ("i0", "a", "y", "i1"), ("i1", "b", "z", "i1")],
                [("s0", "a", "x", "s1"), ("s0", "a", "y", "s1"), ("s1", "b", "x", "s1")],
            ),
            "same implementation targets": (
                [("i0", "a", "x", "i1"), ("i0", "a", "y", "i1"), ("i1", "b", "z", "i1")],
                [("s0", "a", "x", "s1"), ("s0", "a", "y", "s2"), ("s1", "b", "z", "s1"),
                 ("s2", "b", "x", "s2")],
            ),
            "same specification targets": (
                [("i0", "a", "x", "i1"), ("i0", "a", "y", "i2"), ("i1", "b", "x", "i1"),
                 ("i2", "b", "z", "i2")],
                [("s0", "a", "x", "s1"), ("s0", "a", "y", "s1"), ("s1", "b", "x", "s1")],
            ),
        }[case]
        iut = Component.build("I", "i0", iut, outputs=["x", "y", "z"])
        spec = Component.build("S", "s0", spec, outputs=["x", "y", "z"])
        for raw in self.assert_same_encoded_search(*encode_pair(iut, spec)):
            assert raw is not None
        v = check_cioco_exact(iut, spec)
        witness = "a|x" if case == "one child by two slots" else "a|y"
        assert (v.counterexample.witness, v.counterexample.offending_output) == (trace(witness), "z")

    def test_memory_per_explored_pair(self):
        # The visited map holds each pair's parent alone: about 123 bytes
        # a pair here at n = 12 (Python 3.11), against 179 when it also
        # held each pair's (parent, step) tuple. Traced from a fresh
        # encoding of both machines.
        loop = Component.build("loop", "i0", [("i0", "a", "x", "i0"), ("i0", "a", "y", "i0")])
        spec = nth_from_end(12)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            v = check_cioco_exact(loop, spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert v.passed and v.stats.explored_pairs == 2**12
        assert peak <= 150 * v.stats.explored_pairs

    def test_nth_from_end_family(self):
        loop = Component.build("loop", "i0", [("i0", "a", "x", "i0"), ("i0", "a", "y", "i0")])
        for n in range(6, 13):
            spec = nth_from_end(n)
            self.assert_same_search(loop, spec)
            # two members of the family pair up two subset constructions
            self.assert_same_search(spec, nth_from_end(n - 1))
            v = check_cioco_exact(loop, spec)
            assert v.passed and v.stats.explored_pairs == 2 ** n
