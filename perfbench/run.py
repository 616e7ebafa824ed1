#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of fsmcheck.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify_pipeline --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single caller:
each instance starts when the previous one has finished. Set-up
(importing fsmcheck, generating the seeded instances, rendering their
input files and loading the reference digests) is repeated and its
median reported. The repeats run in a forked child, so that the
process whose peak memory is reported sets up only once. The
instances are then run in passes until ``--seconds`` have
elapsed, and each instance's time is its median over the passes.

Times are reported at a fixed reference speed of the host. On a shared
host the speed of a CPU swings by up to 2x for seconds to minutes, as
other tenants load the same cores. A fixed pure-Python loop
(``calibrate``) is timed after every instance, and each instance's
time is divided by the median calibration time around it (its own and
its neighbours') over the loop's time on the unloaded reference host
(``CALIBRATION_REFERENCE_S``). A change to fsmcheck moves the reported
times; a busier host does not.

Every output is digested (SHA-256 of its canonical JSON bytes and exit
codes). An instance is wrong when it raises, when its digest changes
between passes, when it differs from the committed reference digest
for this seed, or when an independent check (see checks.py) rejects it.

With ``--trace 1`` the passes alternate between untraced and traced,
and the per-layer metrics of spans.py are reported instead, with the
tracing overhead as the ratio of the two.

The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Set-up is repeated at least this many times and for at least this
#: long, and its median reported.
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
REFERENCE = HERE / "reference.json"

#: Time of one ``calibrate()`` call on the reference host (a 2-vCPU VM
#: running Python 3.11.7) when no other tenant loads its cores.
CALIBRATION_REFERENCE_S = 0.36e-3
#: An instance's time is scaled by the median of the calibrations timed
#: after it and after this many neighbours on each side.
CALIBRATION_WINDOW = 2

END_TO_END = {
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibrate() -> None:
    """A fixed pure-Python workload in fsmcheck's style: tuple keys, frozenset unions."""
    acc: dict = {}
    for i in range(500):
        key = (i % 97, i % 13)
        acc[key] = frozenset((i % 7, i % 11)) | acc.get(key, frozenset())
    sorted(acc)


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def slowdown(calibrations) -> float:
    """How much slower than the reference host the calibrations ran."""
    return statistics.median(calibrations) / CALIBRATION_REFERENCE_S


def setup(workload: str, seed: int, workdir: Path):
    """Import fsmcheck, generate the instances and load their reference."""
    workdir.mkdir(parents=True)
    lib = workloads.load_library(ROOT / "src")
    instances = workloads.GENERATORS[workload](lib, seed, workdir, ROOT / "fixtures")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh).get(str(seed), {}).get(workload)
    return lib, instances, reference


def median_setup_s(workload: str, seed: int, workdir: Path) -> float:
    """Median set-up time at reference speed, over repeats in one process."""
    setup_times, calibrations = [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        calibrations += [timed(calibrate)[1] for _ in range(50)]
        setup_times.append(timed(setup, workload, seed, workdir / str(len(setup_times)))[1])
    calibrations += [timed(calibrate)[1] for _ in range(50)]
    return statistics.median(setup_times) / slowdown(calibrations)


def in_child(fn, *args) -> float:
    """Call ``fn`` in a forked child and return the number it returns.

    The child's memory does not count in this process's ``ru_maxrss``.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            os.write(write, repr(fn(*args)).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise SystemExit(f"perfbench: {fn.__name__} failed in a child process")
    return float(data)


def percentile(sorted_xs, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


class Run:
    """Times the instances in passes and records their digests."""

    def __init__(self, instances):
        self.instances = instances
        n = len(instances)
        self.samples = [[] for _ in range(n)]
        self.traced_samples = [[] for _ in range(n)]
        self.slowdowns: list[float] = []
        self.traced_slowdowns: list[float] = []
        self.outputs = [None] * n
        self.digests = [None] * n
        self.wrong: dict[int, str] = {}

    def one_pass(self, tracer=None) -> None:
        timings, calibrations = [], []
        for k, inst in enumerate(self.instances):
            if k in self.wrong:
                continue
            args = inst.fresh()
            try:
                if tracer is None:
                    result, elapsed = timed(inst.call, *args)
                else:
                    result, elapsed = tracer.instance(inst.call, *args)
                output = inst.render(result)
            except Exception:
                self.wrong[k] = "raised:\n" + traceback.format_exc()
                continue
            calibrations.append(timed(calibrate)[1])
            timings.append((k, elapsed))
            digest = output.digest()
            if self.digests[k] is None:
                self.digests[k], self.outputs[k] = digest, output
            elif digest != self.digests[k]:
                self.wrong[k] = "output changed between passes"
        if not calibrations:
            return
        factor = slowdown(calibrations)
        (self.slowdowns if tracer is None else self.traced_slowdowns).append(factor)
        samples = self.samples if tracer is None else self.traced_samples
        w = CALIBRATION_WINDOW
        for i, (k, elapsed) in enumerate(timings):
            samples[k].append(elapsed / slowdown(calibrations[max(0, i - w):i + w + 1]))

    def times(self, traced: bool = False) -> list[float]:
        """Each right instance's median time over the passes, at reference speed."""
        samples = self.traced_samples if traced else self.samples
        return [statistics.median(s) for k, s in enumerate(samples) if s and k not in self.wrong]


def measure(run: Run, seconds: float, tracer=None) -> tuple[int, int]:
    """Run passes until ``seconds`` have elapsed; return (untraced, traced) pass counts.

    With a tracer, passes alternate between untraced and traced and at
    least one of each is made.

    Before each pass, garbage is collected and every surviving object
    frozen, so that the cyclic collections the calls trigger do not
    traverse the benchmark's own instances and outputs, which a CLI
    process does not hold. Unfrozen, each full collection on
    certify_pipeline took about 30 ms and fell on whichever instance
    was running.
    """
    deadline = perf_counter() + seconds
    untraced = traced = 0
    while True:
        gc.collect()
        gc.freeze()
        if tracer is not None and traced < untraced:
            tracer.install()
            try:
                run.one_pass(tracer)
            finally:
                tracer.uninstall()
            traced += 1
        else:
            run.one_pass()
            untraced += 1
        if perf_counter() >= deadline and (tracer is None or traced >= 1):
            return untraced, traced


def verify(lib, workload: str, run: Run, reference) -> tuple[int, int]:
    """Compare with the reference digests and run the independent checks.

    Returns how many counterexamples the checks saw, and how many of
    them were deeper than ``checks.BOUNDED_CAP``.
    """
    counterexamples = deeper = 0
    if reference is not None and len(reference) != len(run.instances):
        raise SystemExit("perfbench: reference.json does not match the instance count")
    for k, inst in enumerate(run.instances):
        if k in run.wrong:
            continue
        if reference is not None and run.digests[k] != reference[k]:
            run.wrong[k] = "digest differs from the reference"
            continue
        try:
            problems = checks.check(lib, workload, inst, run.outputs[k])
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc()]
        if problems:
            run.wrong[k] = "; ".join(problems)
        else:
            found, beyond = checks.capped(workload, inst, run.outputs[k])
            counterexamples += found
            deeper += beyond
    return counterexamples, deeper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fsmcheck end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fsmcheck" / "__init__.py").is_file():
        print(f"perfbench: no fsmcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}"
    try:
        shutil.rmtree(workdir, ignore_errors=True)
        setup_seconds = in_child(median_setup_s, args.workload, args.seed, workdir / "timed")
        lib, instances, reference = setup(args.workload, args.seed, workdir / "run")
        workloads.write_files(instances)

        run = Run(instances)
        tracer = spans.Tracer(lib) if args.trace else None
        untraced, traced = measure(run, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        counterexamples, deeper = verify(lib, args.workload, run, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(instances)
    times = sorted(run.times())
    if not times:
        print("perfbench: every instance went wrong", file=sys.stderr)
        for k, why in sorted(run.wrong.items()):
            print(f"  {instances[k].name}: {why}", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = {
            "checks_per_s": len(times) / sum(times),
            "check_p50_ms": statistics.median(times) * 1e3,
            "check_p95_ms": percentile(times, 0.95) * 1e3,
            "setup_s": setup_seconds,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        overhead = sum(run.times(traced=True)) / sum(times) - 1
        metrics = tracer.metrics(traced, statistics.mean(run.traced_slowdowns), overhead)
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}

    print(f"workload {args.workload}, seed {args.seed}: {n} instances, "
          f"{untraced} untraced and {traced} traced passes, {len(run.wrong)} wrong, "
          f"host {statistics.median(run.slowdowns):.2f}x slower than the reference")
    for k, why in sorted(run.wrong.items()):
        print(f"  wrong {instances[k].name}: {why}")
    if counterexamples:
        print(f"  {deeper} of {counterexamples} counterexamples are deeper than "
              f"{checks.BOUNDED_CAP}, the depth of the bounded cross-check")
    print(f"  {'wrong_share':<40} {len(run.wrong) / n:>14.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if tracer is not None:
        print("  self-time shares of traced instance time:")
        for name, share in sorted(tracer.shares().items(), key=lambda kv: -kv[1]):
            print(f"    {name:<38} {share:>7.1%}")

    print(json.dumps({
        "correct": not run.wrong,
        "attempted": n,
        "failed": len(run.wrong),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
