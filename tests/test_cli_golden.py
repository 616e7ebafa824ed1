"""Every command on the coffee and relay fixtures, with and without
``--json``: the exact stdout and exit code of each run.

``cli_golden.json`` holds them, one entry per case id (the ``--json``
run's id ends in ``-json``). To regenerate it after a deliberate change
of output, run ``python tests/test_cli_golden.py > tests/cli_golden.json``
with ``src`` on the path.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def workdir(tmp_path) -> Path:
    for name in ("coffee", "relay"):
        shutil.copytree(FIXTURES / name, tmp_path / name)
    return tmp_path


def test_every_run_has_its_golden_output(golden):
    assert sorted(golden) == sorted(RUNS)
    assert {entry["exit"] for entry in golden.values()} == {0, 1, 3}


@pytest.mark.parametrize("run_id", RUNS)
def test_stdout_and_exit_code_are_unchanged(run_id, golden, workdir):
    code, out = run_in(workdir, RUNS[run_id])
    assert (code, out) == (golden[run_id]["exit"], golden[run_id]["stdout"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in ("coffee", "relay"):
            shutil.copytree(FIXTURES / name, Path(tmp) / name)
        entries = {}
        for run_id, argv in RUNS.items():
            code, out = run_in(Path(tmp), argv)
            entries[run_id] = {"exit": code, "stdout": out}
    json.dump(entries, sys.stdout, indent=2, ensure_ascii=False)
    print()
