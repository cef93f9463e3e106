"""Smoke runs of the benchmark: one untimed pass of a workload, every answer checked."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _smoke(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0


def test_brute_all_k_runs_and_checks_out():
    _smoke("brute_all_k")


@pytest.mark.parametrize("workload", ["open_dp", "periodic_mix"])
def test_column_dp_workload_runs_and_checks_out(workload):
    # both run the column DP: a kernel that breaks an answer fails here
    _smoke(workload)


def test_continuum_runs_and_checks_out():
    # phase, classify and recover against the closed forms in perfbench/checks.py
    _smoke("continuum")
