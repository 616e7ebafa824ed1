"""Answers for the benchmark outputs that do not come from the subset-pair kernel.

Each check takes an instance and its decoded output and returns a list
of problems; an empty list means the output is right as far as these
independent answers go:

* a prune of a specification conforms to it and its traces are
  included in the specification's;
* every counterexample replays with ``states_after`` / ``out_after``:
  the witness runs on both machines, and the offending output is the
  implementation's only;
* a counterexample of the exact check equals the one the bounded trace
  enumeration finds at depth = witness length (up to ``BOUNDED_CAP``),
  and the bounded enumeration finds nothing shorter;
* the fixture conclusions match the facts stated in fixtures/README.md.
"""

from __future__ import annotations

from workloads import BOUNDED_DEPTH

#: Deepest bounded enumeration a check runs. Checking the 400 mutants
#: of conform_mutant takes about 4 s at depth 7, against 15-30 s at
#: depth 9; ``capped`` counts the counterexamples deeper than this.
BOUNDED_CAP = 7

#: Depth of the bounded check that a passing in-context local verdict
#: must survive.
CONTEXT_PASS_DEPTH = 3

#: Fixture conclusions of ``compositional --theorem 2``, per
#: fixtures/README.md:
#: * coffee: the composed implementation refunds where the composed
#:   specification allows only coffee, so the conclusion cannot be a
#:   pass; M is implicated by its error|refund reaction, and D by the
#:   error answer that the original money specification never consumes.
#: * coffee_revised: the in-context strategy localizes the defect to M,
#:   whose local counterexample ends in error|refund; D passes.
#: * relay: the composition fails although the local checks pass; A is
#:   implicated by its back-channel reaction x|o5, and B by the
#:   back-channel answer i2|x that the left specification never consumes.
FIXTURE_EXPECTED = {
    "coffee": ("sound-fail", {"M": ("error", "refund"), "D": ("abs", "error")}),
    "coffee_revised": ("sound-fail", {"M": ("error", "refund"), "D": None}),
    "relay": ("sound-fail", {"A": ("x", "o5"), "B": ("i2", "x")}),
}


def _trace(lib, steps):
    return tuple(lib.machine.Step(s["input"], s["output"]) for s in steps)


def replay(lib, iut, spec, verdict: dict, strict: bool) -> list[str]:
    """Replay a cioco counterexample on both machines."""
    m = lib.machine
    witness = _trace(lib, verdict["witness"])
    i, offending = verdict["input"], verdict["offending_output"]
    if not m.states_after(iut, witness) or not m.states_after(spec, witness):
        return ["witness is not a trace of both machines"]
    iut_outs, spec_outs = m.out_after(iut, witness, i), m.out_after(spec, witness, i)
    problems = []
    if sorted(iut_outs) != verdict["iut_outputs"] or sorted(spec_outs) != verdict["spec_outputs"]:
        problems.append("reported output sets differ from the replayed ones")
    if not spec_outs and not strict:
        problems.append("violation on an input the specification leaves unconstrained")
    if not iut_outs - spec_outs or offending != min(iut_outs - spec_outs):
        problems.append("offending output is not the least implementation-only output")
    return problems


def replay_inclusion(lib, c1, c2, verdict: dict) -> list[str]:
    """The full counterexample trace runs on c1 and not on c2."""
    m = lib.machine
    witness = _trace(lib, verdict["witness"])
    full = witness + (m.Step(verdict["input"], verdict["offending_output"]),)
    if not m.states_after(c1, full) or not m.states_after(c2, witness):
        return ["inclusion witness does not replay"]
    if m.states_after(c2, full):
        return ["inclusion counterexample is a trace of the second machine"]
    return []


def bounded_agrees(lib, iut, spec, verdict: dict, strict: bool = False) -> list[str]:
    """The bounded enumeration finds the same least counterexample, or none."""
    unspecified = "forbid" if strict else "allow"
    if verdict["result"] == "fail":
        depth = len(verdict["witness"])
        bounded = lib.conform.check_cioco_bounded(
            iut, spec, min(depth, BOUNDED_CAP), unspecified=unspecified
        ).to_dict()
        if depth > BOUNDED_CAP:
            return [] if bounded["result"] == "inconclusive" else [
                "bounded check finds a shorter counterexample"]
        keys = ("result", "witness", "input", "offending_output", "iut_outputs", "spec_outputs")
        if any(bounded[k] != verdict[k] for k in keys):
            return ["bounded check disagrees with the counterexample"]
        return []
    bounded = lib.conform.check_cioco_bounded(iut, spec, BOUNDED_CAP, unspecified=unspecified)
    return [] if bounded.result == "inconclusive" else ["bounded check fails a passing pair"]


def _check_conform_pair(lib, inst, data) -> list[str]:
    cioco, inclusion = data
    iut, spec = inst.facts["iut"], inst.facts["spec"]
    problems = []
    if inst.kind in ("prune", "nth"):
        if cioco["result"] != "pass" or inclusion["result"] != "pass":
            problems.append("a sub-machine of the specification does not pass")
        return problems
    if cioco["result"] == "fail":
        problems += replay(lib, iut, spec, cioco, strict=False)
    problems += bounded_agrees(lib, iut, spec, cioco)
    if inclusion["result"] == "fail":
        problems += replay_inclusion(lib, iut, spec, inclusion)
    elif cioco["result"] == "fail":
        problems.append("trace inclusion passes where cioco fails")
    return problems


def _check_bounded(lib, inst, data) -> list[str]:
    (verdict,) = data
    iut, spec = inst.facts["iut"], inst.facts["spec"]
    exact = lib.conform.check_cioco_exact(iut, spec)
    if verdict["result"] == "fail":
        problems = replay(lib, iut, spec, verdict, strict=False)
        expected = exact.counterexample.to_dict() if exact.failed else {}
        if not expected or any(verdict[k] != v for k, v in expected.items()):
            problems.append("exact check disagrees with the bounded counterexample")
        return problems
    if verdict["result"] != "inconclusive":
        return ["bounded check reports something other than fail or inconclusive"]
    if exact.failed and len(exact.counterexample.witness) <= BOUNDED_DEPTH:
        return ["bounded check misses a counterexample within its depth"]
    return []


def _check_certify(lib, inst, data) -> list[str]:
    if data is None:
        return ["no JSON output"]
    locals_ = data["local_verdicts"]
    if inst.kind == "fixture":
        conclusion, offending = FIXTURE_EXPECTED[inst.facts["fixture"]]
        problems = [] if data["global_conclusion"] == conclusion else ["fixture conclusion differs"]
        for name, step in offending.items():
            v = locals_[name]
            got = None if v["result"] == "pass" else (v["input"], v["offending_output"])
            if got != step:
                problems.append(f"fixture local verdict of {name} differs")
        return problems

    f = inst.facts
    compose, project = lib.compose, lib.project
    names = (f["spec1"].name, f["spec2"].name)
    build = compose.build_system_full(
        compose.Par(compose.Leaf(names[0], f["spec1"]), compose.Leaf(names[1], f["spec2"]))
    )
    problems = []
    if not all(a["holds"] for a in data["assumptions"]):
        problems.append("disjointness assumptions fail on a disjoint pair")
    passed = all(v["result"] == "pass" for v in locals_.values())
    if data["global_conclusion"] != ("sound-pass" if passed else "sound-fail"):
        problems.append("conclusion does not follow from the local verdicts")
    for name, iut in zip(names, (f["iut1"], f["iut2"])):
        v = locals_[name]
        projection = project.component_in_context(build, name).component
        if v["result"] == "fail":
            depth = len(v["witness"]) + 1
            if depth <= BOUNDED_CAP:
                # the trace tree is the oracle for the finite projection
                projection = project.component_in_context_tree(build, name, depth).component
            problems += replay(lib, iut, projection, v, strict=True)
        else:
            bounded = lib.conform.check_cioco_bounded(
                iut, projection, CONTEXT_PASS_DEPTH, unspecified="forbid"
            )
            if bounded.result != "inconclusive":
                problems.append(f"bounded check fails the passing local verdict of {name}")
    return problems


def _lengths(workload: str, inst, data) -> list[int]:
    """Depths to which the bounded checks would have to enumerate."""
    if workload in ("conform_pass", "conform_mutant"):
        cioco = data[0]
        return [len(cioco["witness"])] if cioco["result"] == "fail" else []
    if workload == "certify_pipeline" and inst.kind != "fixture":
        return [len(v["witness"]) + 1 for v in data["local_verdicts"].values()
                if v["result"] == "fail"]
    return []


def capped(workload: str, inst, output) -> tuple[int, int]:
    """(counterexamples, those deeper than ``BOUNDED_CAP``).

    A deeper counterexample is checked less closely: the bounded
    enumeration only confirms that nothing shorter exists, and an
    in-context one replays against the full projection instead of the
    trace tree.
    """
    lengths = _lengths(workload, inst, output.data)
    return len(lengths), sum(depth > BOUNDED_CAP for depth in lengths)


CHECKS = {
    "certify_pipeline": _check_certify,
    "conform_pass": _check_conform_pair,
    "conform_mutant": _check_conform_pair,
    "bounded_oracle": _check_bounded,
}


def check(lib, workload: str, inst, output) -> list[str]:
    return CHECKS[workload](lib, inst, output.data)
