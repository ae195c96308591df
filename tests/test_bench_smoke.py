"""The benchmark harness runs every workload against the current sources.

bench/run.py imports the package and wraps its functions by name, reads
datasets and the training split through the public objects, and checks
every run's outputs; a refactor that breaks what it reads makes each
run fail, and one that renames a set-up boundary is reported as
missing. Three runs per workload take about 12 s on a 2-vCPU host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Boundaries bench/spans.py still names whose functions no longer exist;
# the tracer reports them missing until its table follows the code.
DEAD_BOUNDARIES = {
    "cgnn.pcap.parse_pcap", "cgnn.preprocess.split_sessions",
    "cgnn.preprocess.decode_frame", "cgnn.preprocess.clean_packet",
    "cgnn.preprocess.vectorize", "cgnn.graph.build_chain_graph",
    "cgnn.graph.truncate_graph", "cgnn.train.predict",
}


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


def test_tracer_finds_every_boundary_that_was_live():
    """The per-layer tracer wraps functions by name, and a boundary it
    cannot find makes its metric read 0 without failing a run; renaming
    a traced function fails here instead."""
    code = ("import json, cgnn.cli, spans; tracer = spans.Tracer(); "
            "tracer.install(); print(json.dumps(tracer.missing))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "bench"])}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    missing = set(json.loads(done.stdout))
    assert missing <= DEAD_BOUNDARIES, sorted(missing - DEAD_BOUNDARIES)
