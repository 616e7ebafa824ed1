"""Per-layer tracing from outside the library.

Each traced function is replaced where its caller looks it up, because
``cli``, ``certify`` and ``conform`` import names with ``from ... import``.
A span opens when a wrapper is entered and closes when it returns; its
self time is its duration minus the durations of the spans opened
inside it. Closed spans are folded into per-name totals at once, so a
run of millions of calls keeps no span list.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

#: (module attribute of the library namespace, function name, span name)
TARGETS = (
    ("cli", "load_component", "formats.load_component"),
    ("cli", "_emit", "cli.emit"),
    ("cli", "certify_in_context", "certify.certify_in_context"),
    ("certify", "build_system_full", "compose.build_system_full"),
    ("certify", "component_in_context", "project.component_in_context"),
    ("certify", "check_cioco_exact", "conform.check_cioco_exact"),
    ("compose", "compose_pair", "compose.compose_pair"),
    ("core", "encode_pair", "core.encode_pair"),
    ("core", "product_closure", "core.product_closure"),
    ("core", "cioco_bfs", "core.cioco_bfs"),
    ("core", "inclusion_bfs", "core.inclusion_bfs"),
    ("conform", "check_cioco_exact", "conform.check_cioco_exact"),
    ("conform", "check_trace_inclusion", "conform.check_trace_inclusion"),
    ("conform", "check_cioco_bounded", "conform.check_cioco_bounded"),
    ("conform", "sorted_traces", "machine.sorted_traces"),
    ("conform", "traces_up_to", "machine.traces_up_to"),
    ("conform", "states_after", "machine.states_after"),
    ("conform", "out_after", "machine.out_after"),
)

#: per_layer metric name -> (unit, better)
LAYER_METRICS = {
    "cli.emit_s": ("s", "lower"),
    "formats.load_component_s": ("s", "lower"),
    "formats.load_component_calls": ("count", "lower"),
    "certify.certify_in_context_self_s": ("s", "lower"),
    "certify.sound_pass": ("count", "higher"),
    "certify.sound_fail": ("count", "lower"),
    "compose.build_system_full_self_s": ("s", "lower"),
    "compose.compose_pair_self_s": ("s", "lower"),
    "compose.composed_states": ("count", "lower"),
    "compose.composed_transitions": ("count", "lower"),
    "project.component_in_context_s": ("s", "lower"),
    "project.context_states": ("count", "lower"),
    "project.context_transitions": ("count", "lower"),
    "conform.check_cioco_exact_self_s": ("s", "lower"),
    "conform.check_trace_inclusion_self_s": ("s", "lower"),
    "conform.check_cioco_bounded_self_s": ("s", "lower"),
    "conform.explored_pairs": ("count", "lower"),
    "conform.max_depth": ("count", "lower"),
    "conform.traces_checked": ("count", "lower"),
    "conform.pass_p50_ms": ("ms", "lower"),
    "conform.fail_p50_ms": ("ms", "lower"),
    "core.encode_pair_s": ("s", "lower"),
    "core.cioco_bfs_s": ("s", "lower"),
    "core.inclusion_bfs_s": ("s", "lower"),
    "core.product_closure_s": ("s", "lower"),
    "core.product_pairs": ("count", "lower"),
    "core.product_transitions": ("count", "lower"),
    "machine.traces_up_to_s": ("s", "lower"),
    "machine.sorted_traces_s": ("s", "lower"),
    "machine.out_after_s": ("s", "lower"),
    "machine.out_after_calls": ("count", "lower"),
    "machine.states_after_s": ("s", "lower"),
    "machine.states_after_calls": ("count", "lower"),
    "machine.live_trace_ratio": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


class Tracer:
    """Wraps library functions and accumulates self times and counts."""

    def __init__(self, lib):
        self.lib = lib
        self.open: list[float] = []  # child time accumulated by each open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.max_depth = 0
        self.verdict_ms: dict[str, list[float]] = {"pass": [], "fail": []}
        self.originals = []

    def span(self, name: str, fn):
        record = getattr(self, "_record_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            self.open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.close(name, duration)
            if record is not None:
                record(result, duration)
            return result

        return wrapper

    def close(self, name: str, duration: float) -> None:
        children = self.open.pop()
        self.self_s[name] += duration - children
        self.counts[name + ".calls"] += 1
        if self.open:
            self.open[-1] += duration

    def install(self) -> None:
        for module, attr, name in TARGETS:
            mod = getattr(self.lib, module)
            fn = getattr(mod, attr)
            self.originals.append((mod, attr, fn))
            setattr(mod, attr, self.span(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.originals):
            setattr(mod, attr, fn)
        self.originals.clear()

    def instance(self, call, *args):
        """Run one instance under a root span; returns (result, duration)."""
        self.open.append(0.0)
        start = perf_counter()
        try:
            result = call(*args)
        finally:
            duration = perf_counter() - start
            self.close("instance", duration)
        return result, duration

    # counts taken from return values

    def _record_certify_certify_in_context(self, report, _):
        self.counts["certify." + report.global_conclusion] += 1

    def _record_compose_compose_pair(self, pair, _):
        self.counts["compose.composed_states"] += len(pair.component.states)
        self.counts["compose.composed_transitions"] += len(pair.component.transitions)

    def _record_project_component_in_context(self, ctx, _):
        self.counts["project.context_states"] += len(ctx.component.states)
        self.counts["project.context_transitions"] += len(ctx.component.transitions)

    def _record_verdict(self, verdict, duration):
        key = "fail" if verdict.failed else "pass"
        self.verdict_ms[key].append(duration * 1e3)
        if verdict.method == "bounded":
            self.counts["conform.traces_checked"] += verdict.stats.explored_pairs
        else:
            self.counts["conform.explored_pairs"] += verdict.stats.explored_pairs
            self.max_depth = max(self.max_depth, verdict.stats.max_depth)

    _record_conform_check_cioco_exact = _record_verdict
    _record_conform_check_trace_inclusion = _record_verdict
    _record_conform_check_cioco_bounded = _record_verdict

    def _record_core_product_closure(self, result, _):
        pairs, transitions = result
        self.counts["core.product_pairs"] += len(pairs)
        self.counts["core.product_transitions"] += len(transitions)

    def _record_machine_traces_up_to(self, traces, _):
        self.counts["machine.traces_enumerated"] += len(traces)

    def _record_machine_states_after(self, states, _):
        if states:
            self.counts["machine.live_traces"] += 1

    def metrics(self, passes: int, slowdown: float, overhead_share: float) -> dict[str, float]:
        """Per-layer values per traced pass over the workload's instances.

        Times are divided by ``slowdown``, the host's mean slowdown over
        the traced passes, like the end-to-end times.
        """
        c = self.counts
        s = defaultdict(float, {name: t / slowdown for name, t in self.self_s.items()})

        def per_pass(x):
            return x / passes

        def p50(xs):
            return statistics.median(xs) / slowdown if xs else 0.0

        enumerated = c["machine.traces_enumerated"]
        values = {
            "cli.emit_s": per_pass(s["cli.emit"]),
            "formats.load_component_s": per_pass(s["formats.load_component"]),
            "formats.load_component_calls": per_pass(c["formats.load_component.calls"]),
            "certify.certify_in_context_self_s": per_pass(s["certify.certify_in_context"]),
            "certify.sound_pass": per_pass(c["certify.sound-pass"]),
            "certify.sound_fail": per_pass(c["certify.sound-fail"]),
            "compose.build_system_full_self_s": per_pass(s["compose.build_system_full"]),
            "compose.compose_pair_self_s": per_pass(s["compose.compose_pair"]),
            "compose.composed_states": per_pass(c["compose.composed_states"]),
            "compose.composed_transitions": per_pass(c["compose.composed_transitions"]),
            "project.component_in_context_s": per_pass(s["project.component_in_context"]),
            "project.context_states": per_pass(c["project.context_states"]),
            "project.context_transitions": per_pass(c["project.context_transitions"]),
            "conform.check_cioco_exact_self_s": per_pass(s["conform.check_cioco_exact"]),
            "conform.check_trace_inclusion_self_s": per_pass(s["conform.check_trace_inclusion"]),
            "conform.check_cioco_bounded_self_s": per_pass(s["conform.check_cioco_bounded"]),
            "conform.explored_pairs": per_pass(c["conform.explored_pairs"]),
            "conform.max_depth": self.max_depth,
            "conform.traces_checked": per_pass(c["conform.traces_checked"]),
            "conform.pass_p50_ms": p50(self.verdict_ms["pass"]),
            "conform.fail_p50_ms": p50(self.verdict_ms["fail"]),
            "core.encode_pair_s": per_pass(s["core.encode_pair"]),
            "core.cioco_bfs_s": per_pass(s["core.cioco_bfs"]),
            "core.inclusion_bfs_s": per_pass(s["core.inclusion_bfs"]),
            "core.product_closure_s": per_pass(s["core.product_closure"]),
            "core.product_pairs": per_pass(c["core.product_pairs"]),
            "core.product_transitions": per_pass(c["core.product_transitions"]),
            "machine.traces_up_to_s": per_pass(s["machine.traces_up_to"]),
            "machine.sorted_traces_s": per_pass(s["machine.sorted_traces"]),
            "machine.out_after_s": per_pass(s["machine.out_after"]),
            "machine.out_after_calls": per_pass(c["machine.out_after.calls"]),
            "machine.states_after_s": per_pass(s["machine.states_after"]),
            "machine.states_after_calls": per_pass(c["machine.states_after.calls"]),
            "machine.live_trace_ratio": c["machine.live_traces"] / enumerated if enumerated else 0.0,
            "trace.overhead_share": overhead_share,
        }
        assert values.keys() == LAYER_METRICS.keys()
        return values

    def shares(self) -> dict[str, float]:
        """Self time of each span name as a share of all instance time."""
        total = sum(self.self_s.values())
        return {name: t / total for name, t in sorted(self.self_s.items())} if total else {}
