"""Conformance: exact and bounded cioco, trace inclusion, counterexamples."""

import random

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


#: States per block of a subset mask. A subset whose states lie in
#: several blocks, some holding two or more, merges rows far apart in
#: its mask; the floors below count such subsets.
BLOCK = 8


class TestSubsetPairSearch:
    """``cioco_bfs`` against the search that unions step maps per pair."""

    @staticmethod
    def assert_same_search(iut, spec):
        TestSubsetPairSearch.assert_same_encoded_search(*encode_pair(iut, spec)[:2])

    @staticmethod
    def assert_same_encoded_search(enc_iut, enc_spec):
        for strict in (False, True):
            raw, stats = cioco_bfs(enc_iut, enc_spec, strict)
            assert type(stats) is CheckStats
            got = raw, (stats.explored_pairs, stats.max_depth)
            assert got == naive_subset_pair_search(enc_iut, enc_spec, strict)

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

    def test_nth_from_end_family(self):
        loop = Component.build("loop", "i0", [("i0", "a", "x", "i0"), ("i0", "a", "y", "i0")])
        for n in range(6, 13):
            spec = nth_from_end(n)
            self.assert_same_search(loop, spec)
            # two members of the family pair up two subset constructions
            self.assert_same_search(spec, nth_from_end(n - 1))
            v = check_cioco_exact(loop, spec)
            assert v.passed and v.stats.explored_pairs == 2 ** n
