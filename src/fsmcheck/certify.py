"""Compositional certification workflows and fault localization.

Two ways to conclude something about a composed system from local checks
only:

* by parts: if the alphabets of the two sides are disjoint, both part
  specifications are input-enabled, and each implementation conforms to
  its own specification, the composition conforms to the composed
  specification.

* in context: project the composed specification onto each part and
  check each implementation against its projection. No input-enabledness
  is required, but the local checks run with unspecified inputs
  forbidden: an implementation must stay within the contextually
  exercised behaviour even on inputs the projection never exercises.
  (With unspecified inputs allowed, a locally invisible extra behaviour
  can be triggered through the partner and the conclusion would be
  unsound; the package's test suite carries a demonstration.)

A failed local check never proves the composition correct or incorrect
by itself; it pinpoints a component that breaks the premise, and
``localize_fault`` maps a global counterexample back onto the parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .compose import (
    Leaf,
    Par,
    SystemExpr,
    build_system_full,
    leaf_components,
    signature_check,
)
from .conform import Counterexample, Verdict, _check_against_projection, check_cioco_exact
from .errors import ShapeMismatchError, SignatureMismatchError
from .machine import Component, Trace, is_input_enabled, out_after
# component_in_context is unused here: perfbench/spans.py wraps it by this name
from .project import _encoded_projections, component_in_context, project_trace  # noqa: F401

SOUND_PASS = "sound-pass"
SOUND_FAIL = "sound-fail"
NOT_APPLICABLE = "not-applicable"

BY_PARTS = "parts"
IN_CONTEXT = "context"


@dataclass(frozen=True)
class Assumption:
    name: str
    holds: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


@dataclass(frozen=True)
class CompositionalReport:
    strategy: str  # "parts" | "context"
    assumptions: tuple[Assumption, ...]
    local_verdicts: dict[str, Verdict]
    global_conclusion: str  # "sound-pass" | "sound-fail" | "not-applicable"
    notes: tuple[str, ...] = field(default=())

    @property
    def assumptions_hold(self) -> bool:
        return all(a.holds for a in self.assumptions)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "assumptions": [a.to_dict() for a in self.assumptions],
            "local_verdicts": {k: v.to_dict() for k, v in self.local_verdicts.items()},
            "global_conclusion": self.global_conclusion,
            "notes": list(self.notes),
        }


def _require_pair_signature(iut: Component, spec: Component, which: str) -> None:
    if iut.inputs != spec.inputs or iut.outputs != spec.outputs:
        raise SignatureMismatchError(
            f"{which}: implementation '{iut.name}' and specification "
            f"'{spec.name}' do not share a signature"
        )


def _disjointness(spec1: Component, spec2: Component) -> list[Assumption]:
    report = signature_check(spec1, spec2)
    return [
        Assumption(
            "inputs-disjoint",
            not report.i1_cap_i2,
            f"shared inputs: {sorted(report.i1_cap_i2)}" if report.i1_cap_i2 else "",
        ),
        Assumption(
            "outputs-disjoint",
            not report.o1_cap_o2,
            f"shared outputs: {sorted(report.o1_cap_o2)}" if report.o1_cap_o2 else "",
        ),
    ]


def _conclude(assumptions: list[Assumption], locals_: dict[str, Verdict]) -> str:
    if not all(a.holds for a in assumptions):
        return NOT_APPLICABLE
    if all(v.passed for v in locals_.values()):
        return SOUND_PASS
    return SOUND_FAIL


def certify_by_parts(
    iut1: Component,
    spec1: Component,
    iut2: Component,
    spec2: Component,
) -> CompositionalReport:
    """Certification strategy 1: local conformance of each part.

    Requires disjoint alphabets across the pair and input-enabled part
    specifications. When an assumption fails the conclusion is
    not-applicable even if both local checks pass: locally conforming
    parts can still compose into a non-conforming system.
    """
    _require_pair_signature(iut1, spec1, "first pair")
    _require_pair_signature(iut2, spec2, "second pair")
    n1, n2 = _distinct_names(spec1, spec2)

    assumptions = _disjointness(spec1, spec2)
    for n, spec in ((1, spec1), (2, spec2)):
        enabled = is_input_enabled(spec)
        assumptions.append(
            Assumption(
                f"spec{n}-input-enabled",
                enabled,
                "" if enabled else f"specification '{spec.name}' has unhandled inputs",
            )
        )

    locals_ = {
        n1: check_cioco_exact(iut1, spec1),
        n2: check_cioco_exact(iut2, spec2),
    }
    conclusion = _conclude(assumptions, locals_)
    notes = []
    if conclusion == NOT_APPLICABLE:
        notes.append(
            "assumptions unmet: local verdicts say nothing about the composition"
        )
    return CompositionalReport(
        strategy=BY_PARTS,
        assumptions=tuple(assumptions),
        local_verdicts=locals_,
        global_conclusion=conclusion,
        notes=tuple(notes),
    )


def certify_in_context(
    iut1: Component,
    spec1: Component,
    iut2: Component,
    spec2: Component,
    relax: bool = False,
) -> CompositionalReport:
    """Certification strategy 2: conformance against in-context projections.

    Builds the composed specification, projects it onto each part and
    checks each implementation against its projection with unspecified
    inputs forbidden. Part specifications need not be input-enabled.
    """
    _require_pair_signature(iut1, spec1, "first pair")
    _require_pair_signature(iut2, spec2, "second pair")
    n1, n2 = _distinct_names(spec1, spec2)

    assumptions = _disjointness(spec1, spec2)
    build = build_system_full(Par(Leaf(n1, spec1), Leaf(n2, spec2)), relax=relax)
    notes = []
    root_report = build.reports[-1][1]
    if not root_report.synchronizable:
        notes.append("pair cannot synchronize in both directions; composed with relax")

    projections = _encoded_projections(build)
    locals_ = {
        name: _check_against_projection(iut, projection)
        for name, iut, projection in zip(build.leaves, (iut1, iut2), projections)
    }

    conclusion = _conclude(assumptions, locals_)
    if conclusion == NOT_APPLICABLE:
        notes.append(
            "assumptions unmet: local verdicts say nothing about the composition"
        )
    elif conclusion == SOUND_FAIL:
        failed = sorted(n for n, v in locals_.items() if v.failed)
        notes.append(f"implicated components: {failed}")
    return CompositionalReport(
        strategy=IN_CONTEXT,
        assumptions=tuple(assumptions),
        local_verdicts=locals_,
        global_conclusion=conclusion,
        notes=tuple(notes),
    )


def _distinct_names(spec1: Component, spec2: Component) -> tuple[str, str]:
    n1 = spec1.name or "left"
    n2 = spec2.name or "right"
    if n1 == n2:
        n1, n2 = f"{n1}.1", f"{n2}.2"
    return n1, n2


def localize_fault(
    expr_iut: SystemExpr,
    expr_spec: SystemExpr,
    ce: Counterexample | None,
    relax: bool = False,
) -> dict[str, Counterexample | None]:
    """Map a global counterexample back onto the basic components.

    Projects the violating trace onto every implementation leaf and
    replays each projection against the in-context projection of the
    specification, with unspecified inputs forbidden. The result maps
    every leaf to a local counterexample or None; a pass verdict (no
    counterexample) yields an empty map.

    Raises ``ShapeMismatchError`` when the two expressions have different
    leaf names, and ``SignatureMismatchError`` when an implementation
    leaf and the specification leaf of its name differ in inputs or
    outputs.
    """
    if ce is None:
        return {}
    iut_leaves = leaf_components(expr_iut)
    spec_leaves = leaf_components(expr_spec)
    if iut_leaves.keys() != spec_leaves.keys():
        raise ShapeMismatchError(
            f"leaf sets differ: {sorted(iut_leaves)} vs {sorted(spec_leaves)}"
        )
    for name in sorted(iut_leaves):
        _require_pair_signature(iut_leaves[name], spec_leaves[name], f"leaf '{name}'")

    iut_build = build_system_full(expr_iut, relax=relax)
    spec_build = build_system_full(expr_spec, relax=relax)
    projections = {  # one pass projects the specification onto every leaf
        name: projection.decode()
        for name, projection in zip(spec_build.leaves, _encoded_projections(spec_build))
    }
    full = ce.full_trace()

    located: dict[str, Counterexample | None] = {}
    for name in sorted(iut_leaves):
        projection = projections[name]
        candidates = []
        for tr in project_trace(iut_build, full, name).traces:
            found = _first_step_outside(tr, projection)
            if found is not None:
                candidates.append(found)
        located[name] = min(candidates, key=_ce_order) if candidates else None
    return located


def _first_step_outside(tr: Trace, projection: Component) -> Counterexample | None:
    """Earliest step of ``tr`` that leaves the projection's behaviour.

    The scanned prefix stays a trace of the projection until the first
    disallowed step, so the returned witness satisfies the
    counterexample invariants. Every input of ``tr`` is one of the
    projection's, since the two leaves share a signature.
    """
    for n, s in enumerate(tr):
        allowed = out_after(projection, tr[:n], s.input)
        if s.output not in allowed:
            return Counterexample(
                witness=tr[:n],
                input=s.input,
                offending_output=s.output,
                iut_outputs=frozenset([s.output]),
                spec_outputs=allowed,
            )
    return None


def _ce_order(ce: Counterexample):
    return (len(ce.witness), ce.witness, ce.input, ce.offending_output)
