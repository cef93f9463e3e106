"""Smoke run of the benchmark: one untimed pass of the brute_all_k workload."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_brute_all_k_runs_and_checks_out():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "brute_all_k",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
