"""Every command on the coffee and relay fixtures, with and without
``--json``: the exact stdout and exit code of each run.

``cli_golden.json`` holds them, one entry per case id (the ``--json``
run's id ends in ``-json``). ``cli_golden_runs.py`` lists the runs and
regenerates the file after a deliberate change of output, or with
``--check`` compares it with the runs on any interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_golden_runs import GOLDEN, RUNS, copy_fixtures, differences, run_in

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def workdir(tmp_path) -> Path:
    copy_fixtures(tmp_path)
    return tmp_path


def test_every_run_has_its_golden_output(golden):
    assert sorted(golden) == sorted(RUNS)
    assert {entry["exit"] for entry in golden.values()} == {0, 1, 3}


@pytest.mark.parametrize("run_id", RUNS)
def test_stdout_and_exit_code_are_unchanged(run_id, golden, workdir):
    code, out = run_in(workdir, RUNS[run_id])
    assert (code, out) == (golden[run_id]["exit"], golden[run_id]["stdout"])


def test_check_mode_exits_zero_on_the_goldens():
    without = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # the script finds the checkout's sources by itself when none are on the path
    for env in ({**os.environ, "PYTHONPATH": str(SRC)}, without):
        done = subprocess.run(
            [sys.executable, str(GOLDEN.with_name("cli_golden_runs.py")), "--check"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_check_mode_names_every_run_that_differs(golden):
    assert differences(golden, golden) == []
    changed = dict(golden)
    changed["relay-check"] = {**golden["relay-check"], "exit": 9}
    changed["coffee-traces-json"] = {**golden["coffee-traces-json"], "stdout": ""}
    del changed["relay-traces"]
    changed["extra"] = {"exit": 0, "stdout": ""}
    assert differences(golden, changed) == [
        "coffee-traces-json", "extra", "relay-check", "relay-traces"]
