"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload untraced and traced, checks that exactly the metrics
named in BENCHMARK.json come out with their units, and shows that the
correctness gate rejects corrupted reports and failing jobs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()
import workloads  # noqa: E402  (needs bilinlab on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    assert run.main([*argv, "--seed", "3", "--seconds", "0.1", "--tiny"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_emitted(capsys, workload, trace, section):
    result = _result(capsys, "--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS
    for name in run.WORKLOADS:
        assert len(workloads.workload(name)) == len(run.SLOTS)


def _corrupt(name, rep):
    """Break one invariant of job ``name``'s parsed report."""
    if name.startswith("rnmp"):
        rep["result"]["alpha_lower"] = rep["result"]["alpha_empirical"] + 0.1
    elif name == "toeplitz-eig":
        rep["exhaustive"] += 0.1
    elif name == "freiman":
        rep["result"]["diameter"] += 1
    elif name.startswith("embed"):
        rep["summary"]["skipped_near_kernel"] += 1
    elif name.startswith("phase"):
        rep["positive"] = False
    elif name.startswith("recover"):
        rep["sweep"][-1]["success_rate"] = 0.8
    else:
        raise KeyError(name)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_rejects_corrupted_reports(tmp_path, workload):
    for job in workloads.workload(workload, tiny=True):
        _, rep = job.report(job.prepare(7, tmp_path)())
        assert job.check(rep) == [], job.name
        _corrupt(job.name, rep)
        assert job.check(rep), job.name


def test_failing_job_is_counted(tmp_path):
    bad = workloads.CliJob("bad", "command = rnmp-bound\ns = 2\n",
                           workloads.check_rnmp)
    result = run.run_pass([bad], 0, tmp_path)
    assert [name for name, _ in result.failures] == ["bad"]
    assert len(result.times) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
