"""The benchmark harness runs every workload against the current sources.

bench/run.py imports the package and wraps its functions by name, reads
datasets and the training split through the public objects, and checks
every run's outputs; a refactor that breaks what it reads makes each
run fail, and one that renames a set-up boundary is reported as
missing. Three runs per workload take about 12 s on a 2-vCPU host.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_runs_every_workload_correctly():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout[-2000:]
    assert result["failed"] == 0, done.stdout[-2000:]
    # setup_s ends at the dataset or checkpoint load; a renamed loader
    # would silently move it back to the end of the import.
    assert "boundary missing:" not in done.stdout, done.stdout[-2000:]
