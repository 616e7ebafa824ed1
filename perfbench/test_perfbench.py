"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SLICE = 12


def digests_in_subprocess(workload: str, seed: int, hashseed: int, workdir: Path) -> list[str]:
    code = (
        "import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
        "import workloads; print(json.dumps(workloads.digests("
        "Path(sys.argv[2]), sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]), int(sys.argv[6]))))"
    )
    workdir.mkdir(parents=True, exist_ok=True)
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(ROOT), workload, str(seed), str(workdir),
         str(SLICE)],
        env={**os.environ, "PYTHONHASHSEED": str(hashseed)},
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", ["certify_pipeline", "conform_mutant"])
def test_digests_do_not_depend_on_the_hash_seed(workload, tmp_path):
    first = digests_in_subprocess(workload, run.HELD_OUT_SEED, 0, tmp_path / "a")
    second = digests_in_subprocess(workload, run.HELD_OUT_SEED, 1, tmp_path / "b")
    assert len(first) == SLICE
    assert first == second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_digests_are_reproduced(workload, tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[str(run.DEFAULT_SEED)][workload]
    got = workloads.digests(ROOT, workload, run.DEFAULT_SEED, tmp_path, limit=SLICE)
    assert got == reference[:SLICE]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "conform_pass", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
