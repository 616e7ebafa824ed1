"""Command-line front end.

Commands:
    validate       check component files, report issues and input-enabledness
    compose        build the synchronous parallel composition of loaded components
    traces         enumerate traces of a component up to a depth bound
    check          conformance of an implementation against a specification
    project        project a composed system onto one of its components
    compositional  certify a composition from local checks only

Exit codes: 0 pass/ok, 1 fail, 2 usage/structural error, 3 inconclusive
or not-applicable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import certify as certify_mod
from .certify import certify_by_parts, certify_in_context
from .compose import build_system_full
from .conform import Verdict, check_cioco_bounded, check_cioco_exact
from .errors import FsmCheckError, InvalidComponentError, ParseError
from .formats import (
    component_to_dict,
    indented_json,
    load_component,
    parse_system_expr,
    render_component,
    to_dot,
    trace_to_list,
)
from .machine import (
    DEFAULT_TRACE_GUARD,
    Component,
    _undeclared,
    format_trace,
    is_input_enabled,
    sorted_traces,
    traces_up_to,
    validate_component,
)
from .project import component_in_context

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _non_negative(what: str):
    """argparse type for a non-negative integer; ``what`` names it in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be non-negative, got {value}")
        return value

    return parse


_depth_bound = _non_negative("depth bound")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output on stdout")


def _add_guard(p: argparse.ArgumentParser, used_by: str) -> None:
    """``--guard``, only on the commands that run a bounded enumeration."""
    p.add_argument(
        "--guard",
        type=_non_negative("guard"),
        default=None,
        help=f"cardinality guard for {used_by} (default {DEFAULT_TRACE_GUARD})",
    )


def _guard(args) -> int:
    return DEFAULT_TRACE_GUARD if args.guard is None else args.guard


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsmcheck",
        description="composition and conformance checking for input/output state machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate component files")
    p.add_argument("paths", nargs="+", metavar="FILE")
    _add_common(p)

    p = sub.add_parser("compose", help="compose components per a system expression")
    p.add_argument("expr", help="system expression, e.g. '(par M D)'")
    p.add_argument("paths", nargs="+", metavar="FILE", help="component files binding names")
    p.add_argument("-o", "--out", required=True, help="output file (.json for JSON)")
    p.add_argument("--relax", action="store_true", help="compose even if the pair cannot synchronize")
    p.add_argument("--dot", help="also write a Graphviz rendering here")
    _add_common(p)

    p = sub.add_parser("traces", help="enumerate traces up to a depth bound")
    p.add_argument("path", metavar="FILE")
    p.add_argument("-k", "--depth", type=_depth_bound, required=True)
    _add_guard(p, "the enumeration")
    _add_common(p)

    p = sub.add_parser("check", help="conformance of an implementation against a specification")
    p.add_argument("iut", metavar="IUT_FILE")
    p.add_argument("spec", metavar="SPEC_FILE")
    p.add_argument("--method", choices=("exact", "bounded"), default="exact")
    p.add_argument("-k", "--depth", type=_depth_bound, default=None,
                   help="bound for --method bounded")
    p.add_argument(
        "--unspecified",
        choices=("allow", "forbid"),
        default="allow",
        help="whether inputs the specification leaves unconstrained permit any output",
    )
    _add_guard(p, "--method bounded")
    _add_common(p)

    p = sub.add_parser("project", help="project a composed system onto one component")
    p.add_argument("expr", help="system expression, e.g. '(par M D)'")
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.add_argument("--target", required=True, help="leaf component name")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--relax", action="store_true")
    p.add_argument("--dot", help="also write a Graphviz rendering here")
    _add_common(p)

    p = sub.add_parser("compositional", help="certify a composition from local checks")
    p.add_argument("--theorem", choices=("1", "2"), required=True,
                   help="1: by parts (needs input-enabled part specs); 2: against projections")
    p.add_argument("iut1", metavar="IUT1_FILE")
    p.add_argument("spec1", metavar="SPEC1_FILE")
    p.add_argument("iut2", metavar="IUT2_FILE")
    p.add_argument("spec2", metavar="SPEC2_FILE")
    p.add_argument("--relax", action="store_true", help="with --theorem 2: compose even if "
                   "the pair cannot synchronize")
    _add_common(p)

    return parser


def _load_named(paths) -> dict:
    components = {}
    for path in paths:
        c = load_component(path)
        if c.name in components:
            raise ParseError(f"component name '{c.name}' already bound", None, path)
        components[c.name] = c
    return components


def _emit(args, payload, human) -> None:
    """Print ``payload()`` as JSON with ``--json``, else ``human()``: only
    the form printed is built. A standard output that cannot be written
    is a usage error; its descriptor then goes to the null device, so that
    what is still buffered flushes there at exit."""
    text = indented_json(payload()) if args.json else human()
    try:
        print(text, flush=True)
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise FsmCheckError(f"cannot write standard output: {exc.strerror or exc}") from None


def _save(c: Component, out: str, dot: str | None) -> None:
    """Write ``c`` to ``out`` and, when ``dot`` is given, its Graphviz
    rendering there: both files or neither. Every target is opened, without
    truncating, before any is written; when one cannot be opened, or both
    name one file, the files this call created are removed. A target that
    exists is written into, so symlinks, devices and FIFOs work as targets
    and a file keeps its mode. A path that cannot be written, or one file
    named twice, is a usage error."""
    if dot == out:
        raise FsmCheckError(f"-o and --dot name the same file: {out}")
    targets = [(out, render_component(c, out))] + ([(dot, to_dot(c))] if dot else [])
    created: list[str] = []
    path, error = out, None
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path, text in targets:
                existed = os.path.exists(path)
                fh = stack.enter_context(open(path, "a", encoding="utf-8"))
                if not existed:  # through a dangling symlink, its target
                    created.append(os.path.realpath(path))
                handles.append((path, fh, text))
            if dot and os.path.samestat(*(os.fstat(fh.fileno()) for _, fh, _ in handles)):
                error = f"-o {out} and --dot {dot} name the same file"
            else:
                for path, fh, text in handles:
                    if os.path.isfile(path):
                        fh.truncate(0)
                    fh.write(text)
    except OSError as exc:
        error = f"cannot write {path}: {exc.strerror or exc}"
    if error is not None:
        for made in created:
            with contextlib.suppress(OSError):
                os.remove(made)
        raise FsmCheckError(error)


def cmd_validate(args) -> int:
    all_ok = True
    results = []
    for path in args.paths:
        c = load_component(path)
        report = validate_component(c)
        enabled = is_input_enabled(c)
        results.append(
            {
                "path": str(path),
                "component": c.name,
                "ok": report.ok,
                "input_enabled": enabled,
                "issues": [{"severity": i.severity, "message": i.message} for i in report.issues],
            }
        )
        all_ok = all_ok and report.ok

    def human() -> str:
        lines = []
        for r in results:
            status = "ok" if r["ok"] else "INVALID"
            enabled = "input-enabled" if r["input_enabled"] else "not input-enabled"
            lines.append(f"{r['path']}: component '{r['component']}' {status}, {enabled}")
            lines += [f"  {issue['severity']}: {issue['message']}" for issue in r["issues"]]
        return "\n".join(lines)

    _emit(args, lambda: results, human)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_compose(args) -> int:
    components = _load_named(args.paths)
    expr = parse_system_expr(args.expr, components)
    build = build_system_full(expr, relax=args.relax)
    _save(build.component, args.out, args.dot)

    def payload() -> dict:
        return {
            "component": component_to_dict(build.component),
            "reports": [{"node": path, **rep.to_dict()} for path, rep in build.reports],
        }

    def human() -> str:
        c = build.component
        lines = [f"wrote '{c.name}' to {args.out} "
                 f"({len(c.states)} states, {len(c.transitions)} transitions)"]
        for path, rep in build.reports:
            lines.append(
                f"node {path}: synchronizable={rep.synchronizable} "
                f"alphabets_disjoint={rep.alphabets_disjoint}"
            )
        relaxed = [path for path, rep in build.reports if not rep.synchronizable]
        if relaxed:
            lines.append(f"warning: composed with relax at: {relaxed}")
        return "\n".join(lines)

    _emit(args, payload, human)
    return EXIT_OK


def cmd_traces(args) -> int:
    c = load_component(args.path)
    undeclared = _undeclared(c)
    if undeclared:
        raise InvalidComponentError(undeclared)
    result = sorted_traces(traces_up_to(c, args.depth, guard=_guard(args)))
    _emit(args, lambda: [trace_to_list(tr) for tr in result],
          lambda: "\n".join(format_trace(tr) if tr else "<empty>" for tr in result))
    return EXIT_OK


def _verdict_exit(v: Verdict) -> int:
    if v.result == "pass":
        return EXIT_OK
    if v.result == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def _verdict_human(v: Verdict) -> str:
    lines = [f"{v.result} ({v.method}{'' if v.depth is None else f', depth {v.depth}'})"]
    for w in v.warnings:
        lines.append(f"warning: {w}")
    if v.counterexample is not None:
        ce = v.counterexample
        lines.append(f"witness: {format_trace(ce.witness) if ce.witness else '<empty>'}")
        lines.append(f"input: {ce.input}")
        lines.append(f"offending output: {ce.offending_output}")
        lines.append(f"implementation outputs: {sorted(ce.iut_outputs)}")
        lines.append(f"specification outputs: {sorted(ce.spec_outputs)}")
    return "\n".join(lines)


def cmd_check(args) -> int:
    iut = load_component(args.iut)
    spec = load_component(args.spec)
    if args.method == "bounded":
        if args.depth is None:
            raise ParseError("--method bounded requires --depth")
        verdict = check_cioco_bounded(
            iut, spec, args.depth, unspecified=args.unspecified, guard=_guard(args)
        )
    else:
        if args.depth is not None:
            raise ParseError("--depth requires --method bounded")
        if args.guard is not None:
            raise ParseError("--guard requires --method bounded")
        verdict = check_cioco_exact(iut, spec, unspecified=args.unspecified)
    _emit(args, verdict.to_dict, lambda: _verdict_human(verdict))
    return _verdict_exit(verdict)


def cmd_project(args) -> int:
    components = _load_named(args.paths)
    expr = parse_system_expr(args.expr, components)
    build = build_system_full(expr, relax=args.relax)
    ctx = component_in_context(build, args.target)
    _save(ctx.component, args.out, args.dot)
    _emit(
        args,
        lambda: {"component": component_to_dict(ctx.component), "provenance": ctx.provenance},
        lambda: f"wrote projection onto '{args.target}' to {args.out}",
    )
    return EXIT_OK


def cmd_compositional(args) -> int:
    if args.relax and args.theorem == "1":
        raise ParseError("--relax requires --theorem 2")
    iut1 = load_component(args.iut1)
    spec1 = load_component(args.spec1)
    iut2 = load_component(args.iut2)
    spec2 = load_component(args.spec2)
    if args.theorem == "1":
        report = certify_by_parts(iut1, spec1, iut2, spec2)
    else:
        report = certify_in_context(iut1, spec1, iut2, spec2, relax=args.relax)

    def human() -> str:
        lines = [f"strategy: {report.strategy}", f"conclusion: {report.global_conclusion}"]
        for a in report.assumptions:
            state = "holds" if a.holds else "FAILS"
            lines.append(f"assumption {a.name}: {state}" + (f" ({a.detail})" if a.detail else ""))
        for name, verdict in sorted(report.local_verdicts.items()):
            lines.append(f"local check '{name}': {verdict.result}")
            if verdict.counterexample is not None:
                ce = verdict.counterexample
                lines.append(
                    f"  witness {format_trace(ce.witness) if ce.witness else '<empty>'}"
                    f" + {ce.input}|{ce.offending_output}"
                )
        for note in report.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    _emit(args, report.to_dict, human)

    if report.global_conclusion == certify_mod.SOUND_PASS:
        return EXIT_OK
    if report.global_conclusion == certify_mod.SOUND_FAIL:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


COMMANDS = {
    "validate": cmd_validate,
    "compose": cmd_compose,
    "traces": cmd_traces,
    "check": cmd_check,
    "project": cmd_project,
    "compositional": cmd_compositional,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of ``main`` and reused after.

    Parsing does not modify it, so one process may call ``main`` many
    times.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except FsmCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
