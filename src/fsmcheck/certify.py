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

from . import _core, project
from .compose import (
    CompositionReport,
    Leaf,
    Par,
    SystemBuild,
    build_system_full,
    signature_check,
)
from .conform import Counterexample, Verdict, _check_against_projection, check_cioco_exact
from .conform import _decode_counterexample
from .errors import ShapeMismatchError, SignatureMismatchError
from .machine import Component, is_input_enabled
# component_in_context is unused here: perfbench/spans.py wraps it by this name
from .project import _encoded_projections, component_in_context  # noqa: F401

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


def _disjointness(report: CompositionReport) -> list[Assumption]:
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


def _conclude(assumptions: list[Assumption], locals_: dict[str, Verdict], notes: list[str]) -> str:
    """The global conclusion; an unmet assumption also appends its note."""
    if not all(a.holds for a in assumptions):
        notes.append("assumptions unmet: local verdicts say nothing about the composition")
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
    n1, n2 = _pair_names(iut1, spec1, iut2, spec2)

    assumptions = _disjointness(signature_check(spec1, spec2))
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
    notes: list[str] = []
    conclusion = _conclude(assumptions, locals_, notes)
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
    n1, n2 = _pair_names(iut1, spec1, iut2, spec2)

    build = build_system_full(Par(Leaf(n1, spec1), Leaf(n2, spec2)), relax=relax)
    root_report = build.reports[-1][1]
    assumptions = _disjointness(root_report)
    notes = []
    if not root_report.synchronizable:
        notes.append("pair cannot synchronize in both directions; composed with relax")

    projections = _encoded_projections(build)
    locals_ = {
        name: _check_against_projection(iut, projection)
        for name, iut, projection in zip(build.leaves, (iut1, iut2), projections)
    }

    conclusion = _conclude(assumptions, locals_, notes)
    if conclusion == SOUND_FAIL:
        failed = sorted(n for n, v in locals_.items() if v.failed)
        notes.append(f"implicated components: {failed}")
    return CompositionalReport(
        strategy=IN_CONTEXT,
        assumptions=tuple(assumptions),
        local_verdicts=locals_,
        global_conclusion=conclusion,
        notes=tuple(notes),
    )


def _pair_names(iut1: Component, spec1: Component, iut2: Component,
                spec2: Component) -> tuple[str, str]:
    """Check each pair's signature, then name the two specifications apart."""
    _require_pair_signature(iut1, spec1, "first pair")
    _require_pair_signature(iut2, spec2, "second pair")
    n1 = spec1.name or "left"
    n2 = spec2.name or "right"
    if n1 == n2:
        n1, n2 = f"{n1}.1", f"{n2}.2"
    return n1, n2


def localize_fault(
    iut_build: SystemBuild, spec_build: SystemBuild, ce: Counterexample | None
) -> dict[str, Counterexample | None]:
    """Map a global counterexample back onto the basic components.

    ``ce`` is a counterexample of the implementation's build against the
    specification's, which this reads as they are and never rebuilds.
    Projects the violating trace onto every implementation leaf and
    checks each projection against the in-context projection of the
    specification, with unspecified inputs forbidden, all on ids: each
    projected trace is a one-run machine for the strict subset-pair
    search, whose violation is the trace's first step outside the
    projection. The result maps every leaf to its least violation
    (shortest witness first), the only one decoded, or None; a pass
    verdict (no counterexample) yields an empty map.

    Raises ``ShapeMismatchError`` when the two builds have different
    leaf names, and ``SignatureMismatchError`` when an implementation
    leaf and the specification leaf of its name differ in inputs or
    outputs.
    """
    if ce is None:
        return {}
    iut_leaves = dict(zip(iut_build.leaves, iut_build.leaf_builds))
    spec_leaves = dict(zip(spec_build.leaves, spec_build.leaf_builds))
    if iut_leaves.keys() != spec_leaves.keys():
        raise ShapeMismatchError(
            f"leaf sets differ: {sorted(iut_leaves)} vs {sorted(spec_leaves)}"
        )
    for name in sorted(iut_leaves):
        _require_pair_signature(iut_leaves[name].component, spec_leaves[name].component,
                                f"leaf '{name}'")

    # one pass projects the specification onto every leaf; both builds
    # share one label table, since their leaves share signatures
    projections = dict(zip(spec_build.leaves, _encoded_projections(spec_build)))
    full = ce.full_trace()

    located: dict[str, Counterexample | None] = {}
    for name in sorted(iut_leaves):
        projection = projections[name]
        found = [_core.cioco_bfs(_one_run(record, projection), projection, strict=True)[0]
                 for record in project._replay(iut_build, full, iut_build.leaves.index(name))]
        # label ids sort as their names, so this is the least by name
        least = min(filter(None, found), key=lambda v: (len(v[0]), *v[:3]), default=None)
        located[name] = least and _decode_counterexample(least, projection.label_names)
    return located


def _one_run(record: tuple[tuple[int, int], ...], projection: _core.EncodedComponent):
    """The machine whose one run performs ``record``, on the projection's
    slots: state ``k`` takes step ``record[k]`` to state ``k + 1``. Its
    states are numbers, not names: it is searched, never decoded."""
    moves = [[(i, o, k + 1)] for k, (i, o) in enumerate(record)] + [[]]
    return _core.EncodedComponent("run", range(len(moves)), 0, projection.label_names,
                                  projection.label_ids, projection.input_ids,
                                  projection.output_ids, moves=moves)
