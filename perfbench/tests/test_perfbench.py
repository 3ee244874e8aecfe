"""Smoke tests of the benchmark itself (run with ``python -m pytest
perfbench/tests``): every workload emits every named metric with its unit,
the checks catch an injected wrong answer, the floor reduces parallel
edges by min, no process outlives a run, and the benchmark refuses to run
without the program."""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _group_members(pgid: int) -> list[str]:
    """``pid state`` of every process, zombies included, in group ``pgid``."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid:
            found.append(f"{entry.name} {fields[0]}")
    return found


def _result(proc: subprocess.CompletedProcess) -> dict:
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = _result(proc)
    assert result["correct"]
    specs = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
        if trace == "0":
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_row_fails_the_run(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--smoke", "--inject-fault")
    assert proc.returncode == 1, proc.stderr[-4000:]
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_process_outlives_a_run(workload):
    # The run leads its own process group, which every process it starts
    # (pool workers, resource trackers, the server child) inherits.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=600) == 0
    assert _group_members(proc.pid) == []


def test_floor_reduces_parallel_edges_by_min():
    # 0→1 twice (5 and 2), 1→2 twice (4 and 7): summing duplicates would
    # give d(0, 2) = 18; the min-reduced floor gives 6.
    src = np.array([0, 0, 1, 1])
    dst = np.array([1, 1, 2, 2])
    floor = harness.Floor(3, src, dst, np.array([5.0, 2.0, 4.0, 7.0]))
    assert floor.duplicates == 2
    assert floor.rows([0]).tolist() == [[0.0, 2.0, 6.0]]
    assert floor.path_weight([0, 1, 2]) == 6.0
    assert floor.path_weight([0, 2]) is None
    assert floor.reweighted(np.array([1]), np.array([9.0])).rows([0]).tolist() == [[0.0, 5.0, 9.0]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "grid-batch", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
