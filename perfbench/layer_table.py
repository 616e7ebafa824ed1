#!/usr/bin/env python3
"""Per-call layer times of the in-context certification at 32 states.

Usage, from the root of a checkout:

    python3 perfbench/layer_table.py

Builds random composable pairs of exactly 32 states per side at density
0.6-0.9, the shape of the layer split in ROADMAP.md, runs
``certify_in_context`` on each (implementations are prunes) under the
benchmark's tracer, and prints the median self time per call of each
traced layer. ``core.product_closure`` and ``core.cioco_bfs`` together
are the search kernel.
"""

from __future__ import annotations

import random
import statistics
from collections import defaultdict

import run
import spans
import workloads

PAIRS = 30

LAYERS = ("core.encode_pair", "core.product_closure", "core.cioco_bfs",
          "compose.compose_pair", "compose.build_system_full",
          "project.component_in_context")


def main() -> None:
    lib = workloads.load_library(run.ROOT / "src")
    rng = random.Random(f"layer_table:{run.DEFAULT_SEED}")
    per_call = defaultdict(list)
    tracer = spans.Tracer(lib)
    for _ in range(PAIRS):
        spec1, spec2 = lib.randgen.random_composable_pair(
            rng, n_states=(32, 32), density=(0.6, 0.9)
        )
        iut1, iut2 = lib.randgen.prune(rng, spec1), lib.randgen.prune(rng, spec2)
        self_before, counts_before = dict(tracer.self_s), dict(tracer.counts)
        calibrations = [run.timed(run.calibrate)[1] for _ in range(30)]
        tracer.install()
        try:
            tracer.instance(lib.certify.certify_in_context, iut1, spec1, iut2, spec2)
        finally:
            tracer.uninstall()
        factor = run.slowdown(calibrations)
        for name in LAYERS:
            calls = tracer.counts[name + ".calls"] - counts_before.get(name + ".calls", 0)
            spent = tracer.self_s[name] - self_before.get(name, 0.0)
            if calls:
                per_call[name].append(spent / calls / factor)

    print(f"{PAIRS} pairs of 32-state components, median self time per call "
          f"at reference speed:")
    for name in LAYERS:
        print(f"  {name:<32} {statistics.median(per_call[name]) * 1e3:8.2f} ms")
    build = [a + b for a, b in zip(per_call["compose.build_system_full"],
                                   per_call["compose.compose_pair"])]
    print(f"  {'build_system_full incl. compose':<32} {statistics.median(build) * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()
