#!/usr/bin/env python3
"""Regenerate reference.json, the digests the benchmark compares against.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Runs every instance of every workload once for the default and the
held-out seed, checks each output against the independent answers of
checks.py, and writes the SHA-256 digests only if every check passes.
Run it only when an output is meant to change, and say why in the
change that commits the new file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    reference: dict[str, dict[str, list[str]]] = {}
    bad = 0
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        for workload in workloads.WORKLOADS:
            workdir = run.ROOT / ".bench_build" / "perfbench" / f"reference-{workload}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                lib, instances, _ = run.setup(workload, seed, workdir)
                workloads.write_files(instances)
                result = run.Run(instances)
                result.one_pass()
                run.verify(lib, workload, result, None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for k, why in sorted(result.wrong.items()):
                print(f"seed {seed} {workload} {instances[k].name}: {why}", file=sys.stderr)
            bad += len(result.wrong)
            reference.setdefault(str(seed), {})[workload] = result.digests
            print(f"seed {seed} {workload}: {len(instances)} instances, "
                  f"{len(result.wrong)} rejected")
    if bad:
        print("reference.json left unchanged", file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
