"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` (~1 min).

Every workload runs once untraced and once traced in smoke mode (tiny
sizes, one second), and must print a well-formed result naming exactly
the metrics ``BENCHMARK.json`` declares, with no failed operation.  A
run in which an op returns a wrong output must report ``correct: false``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
sys.path.insert(0, HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_oracle_rejects_perturbed_outputs():
    import oracle

    assert oracle.self_test() == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] == m["value"]


def test_wrong_output_makes_the_run_incorrect(monkeypatch, capsys):
    import run

    run._import_program()
    import oracle
    import workloads

    # every other timed op reports a wrong output; warm-ups stay right
    state = {"timed": False, "calls": 0}
    real_check, real_run = oracle.check_allreduce, workloads.MPAllreduce.run

    def check(*args):
        state["calls"] += 1
        if state["timed"] and state["calls"] % 2:
            return "forced wrong output"
        return real_check(*args)

    def timed_run(self, seconds):
        state["timed"] = True
        try:
            return real_run(self, seconds)
        finally:
            state["timed"] = False

    monkeypatch.setattr(oracle, "check_allreduce", check)
    monkeypatch.setattr(workloads.MPAllreduce, "run", timed_run)
    run.main(["--workload", "mp-hz-allreduce-4mb", "--seed", "3",
              "--seconds", "1", "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = run(str(tmp_path), BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
