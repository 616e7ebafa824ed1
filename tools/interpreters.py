#!/usr/bin/env python3
"""Check that other Python interpreters give this checkout's answers.

Usage, from anywhere:

    python3 tools/interpreters.py PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter; none needs anything
installed. For each one, two checks run:

- ``tests/cli_golden_runs.py --check``, with ``src`` and ``tests`` on
  the path, under ``PYTHONHASHSEED`` 0 and then 1: every golden CLI run
  gives the bytes and exit code in ``tests/cli_golden.json``;
- ``perfbench/run.py --workload W --seed 1 --seconds 1`` for each of the
  four workloads: the last line of its output reports ``correct`` true
  and ``failed`` 0, so every reference digest is reproduced.

One line is printed per check. The exit status is 1 if any check
differs, 2 without an interpreter, and 0 otherwise. Only the standard
library is used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify_pipeline", "conform_pass", "conform_mutant", "bounded_oracle")


def golden(python: str, hash_seed: str) -> str | None:
    """None when the golden CLI runs give ``cli_golden.json``, else what differs."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    done = subprocess.run([python, str(ROOT / "tests" / "cli_golden_runs.py"), "--check"],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        return f"exit {done.returncode}: " + " ".join(done.stderr.split()[-12:])
    return None


def workload(python: str, name: str) -> str | None:
    """None when one second of the workload is correct with no failure,
    else what differs."""
    done = subprocess.run([python, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                           "--seed", "1", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    try:
        last = json.loads(done.stdout.splitlines()[-1])
        correct, failed = last["correct"], last["failed"]
    except (IndexError, KeyError, TypeError, ValueError):
        return f"exit {done.returncode}, no result line: " + " ".join(done.stderr.split()[-12:])
    if done.returncode or correct is not True or failed != 0:
        return f"exit {done.returncode}, correct {correct}, failed {failed}"
    return None


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python3 tools/interpreters.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    checks = [(f"cli_golden_runs.py --check, PYTHONHASHSEED={seed}", golden, seed)
              for seed in ("0", "1")]
    checks += [(f"perfbench {name} --seed 1", workload, name) for name in WORKLOADS]
    differ = False
    for python in pythons:
        for label, check, argument in checks:
            try:
                problem = check(python, argument)
            except OSError as error:
                problem = str(error)
            differ |= problem is not None
            print(f"{python}: {label}: {'differs, ' + problem if problem else 'same'}",
                  flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
