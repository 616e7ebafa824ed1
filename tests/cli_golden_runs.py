"""The golden CLI runs: every command on the coffee and relay fixtures,
with and without ``--json``, and the generator of ``cli_golden.json``.

This module imports no pytest, so any interpreter can regenerate the
goldens: run ``python tests/cli_golden_runs.py > tests/cli_golden.json``
with ``src`` on the path. With ``--check`` it writes nothing: it compares
the runs with ``cli_golden.json``, names each run that differs on
stderr and exits 1 if any does, so that every interpreter the package
supports can be checked for the same bytes.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from fsmcheck.cli import main

from demos import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

C, R = "coffee/", "relay/"
COMPOSITIONAL = ["compositional", "--theorem"]

#: case id -> argv, run in a directory holding copies of fixtures/coffee
#: and fixtures/relay, so that the paths in the output are relative
CASES = {
    "coffee-validate": ["validate", C + "drink.fsm", C + "iut_money.fsm", C + "spec_money.fsm",
                        C + "spec_money_revised.fsm"],
    "coffee-compose": ["compose", "(par M D)", C + "iut_money.fsm", C + "drink.fsm",
                       "-o", "out.fsm"],
    "coffee-traces": ["traces", C + "drink.fsm", "-k", "3"],
    "coffee-check-pass": ["check", C + "iut_money.fsm", C + "spec_money.fsm"],
    "coffee-check-fail": ["check", C + "iut_money.fsm", C + "spec_money_revised.fsm"],
    "coffee-check-bounded": ["check", C + "iut_money.fsm", C + "spec_money_revised.fsm",
                             "--method", "bounded", "-k", "3"],
    "coffee-check-inconclusive": ["check", C + "iut_money.fsm", C + "spec_money_revised.fsm",
                                  "--method", "bounded", "-k", "1"],
    "coffee-project": ["project", "(par M D)", C + "spec_money_revised.fsm", C + "drink.fsm",
                       "--target", "M", "-o", "out.fsm"],
    "coffee-by-parts": [*COMPOSITIONAL, "1", C + "iut_money.fsm", C + "spec_money.fsm",
                        C + "drink.fsm", C + "drink.fsm"],
    "coffee-in-context": [*COMPOSITIONAL, "2", C + "iut_money.fsm", C + "spec_money.fsm",
                          C + "drink.fsm", C + "drink.fsm"],
    "coffee-in-context-revised": [*COMPOSITIONAL, "2", C + "iut_money.fsm",
                                  C + "spec_money_revised.fsm", C + "drink.fsm", C + "drink.fsm"],
    "coffee-in-context-pass": [*COMPOSITIONAL, "2", C + "spec_money_revised.fsm",
                               C + "spec_money_revised.fsm", C + "drink.fsm", C + "drink.fsm"],
    "relay-validate": ["validate", R + "iut_left.fsm", R + "right.fsm", R + "spec_left.fsm"],
    "relay-compose": ["compose", "(par A B)", R + "iut_left.fsm", R + "right.fsm", "-o", "out.fsm"],
    "relay-traces": ["traces", R + "iut_left.fsm", "-k", "2"],
    "relay-check": ["check", R + "iut_left.fsm", R + "spec_left.fsm"],
    "relay-check-bounded": ["check", R + "iut_left.fsm", R + "spec_left.fsm", "--method", "bounded",
                            "-k", "2", "--unspecified", "forbid"],
    "relay-project": ["project", "(par A B)", R + "spec_left.fsm", R + "right.fsm",
                      "--target", "B", "-o", "out.fsm"],
    "relay-by-parts": [*COMPOSITIONAL, "1", R + "iut_left.fsm", R + "spec_left.fsm",
                       R + "right.fsm", R + "right.fsm"],
    "relay-in-context": [*COMPOSITIONAL, "2", R + "iut_left.fsm", R + "spec_left.fsm",
                         R + "right.fsm", R + "right.fsm"],
}

RUNS = {f"{case}{suffix}": argv + extra for case, argv in CASES.items()
        for suffix, extra in (("", []), ("-json", ["--json"]))}


def run_in(directory: Path, argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` with ``directory`` as the working directory."""
    out, previous = io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(previous)
    return code, out.getvalue()


def copy_fixtures(directory: Path) -> None:
    """Copy fixtures/coffee and fixtures/relay into ``directory``."""
    for name in ("coffee", "relay"):
        shutil.copytree(FIXTURES / name, directory / name)


def generate() -> dict:
    """Every run's exit code and stdout, in ``cli_golden.json``'s form."""
    with tempfile.TemporaryDirectory() as tmp:
        copy_fixtures(Path(tmp))
        entries = {}
        for run_id, argv in RUNS.items():
            code, out = run_in(Path(tmp), argv)
            entries[run_id] = {"exit": code, "stdout": out}
    return entries


def differences(expected: dict, got: dict) -> list[str]:
    """The run ids whose entries differ, or that only one side has."""
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


if __name__ == "__main__":
    entries = generate()
    if sys.argv[1:] == ["--check"]:
        differ = differences(json.loads(GOLDEN.read_text(encoding="utf-8")), entries)
        for run_id in differ:
            print(f"differs from {GOLDEN.name}: {run_id}", file=sys.stderr)
        sys.exit(1 if differ else 0)
    json.dump(entries, sys.stdout, indent=2, ensure_ascii=False)
    print()
