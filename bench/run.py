"""The cgnn benchmark: the three user paths, timed end to end.

    python3 bench/run.py --workload ingest_short --seed 1 --seconds 30 \
        --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload generates its inputs from --seed (gen.py), then runs its
cgnn command over and over in fresh processes until --seconds have
passed, checking every run's outputs and timing a fixed reference
loop (host_ref_ms) just before and after each, so that drift in the
host's speed shows beside every run. A run does what
`python -m cgnn.cli` does with PYTHONPATH=src, started through
launch.py so that the end of set-up can be time-stamped. With
--trace 0 it prints the end-to-end metrics (medians over the runs);
with --trace 1 it alternates untraced and traced runs and prints the
per-layer metrics of the traced ones and the tracing overhead. The
last line of output is one JSON object; the full record goes to
.bench_out/.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
OUT = ROOT / ".bench_out"
MIN_RUNS = 3  # of each kind (traced, untraced), however short --seconds
MAX_FAILS = 4 * MIN_RUNS  # of one kind, after which it is not retried
RUN_TIMEOUT_S = 150
TRAIN_EPOCHS = 1



class CheckFailed(Exception):
    """A run's outputs disagree with what the generator predicts."""


@dataclass
class Run:
    """One finished command: its times, its record, its output files."""

    wall: float  # spawn to exit
    setup: float  # spawn to the end of set-up
    main: float  # spawn to the return of cgnn.cli.main
    host_ref_ms: tuple[float, float]  # just before and just after
    record: dict
    stdout: str


@dataclass
class Workload:
    name: str  # why each exists is recorded in BENCHMARK.json
    # setup(work dir, seed) writes the inputs and returns the state that
    # check reads; state["args"] is the cgnn command line, run in work dir
    setup: Callable[[Path, int], dict]
    # check(state, run) raises on a wrong output and returns the frames
    # the run handled and the seconds of work they took
    check: Callable[[dict, Run], tuple[int, float]]


# --- child processes -------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], work: Path, trace: bool) -> Run:
    """Run `cgnn <args>` in a fresh interpreter and time it."""
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    log = work / "stdout.txt"
    ref_before = host_ref_ms()
    with open(log, "wb") as out, open(work / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(record_path),
             "1" if trace else "0", "--", *args],
            stdout=out, stderr=err, env=child_env(), cwd=work)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
        ended = time.monotonic()
    ref_after = host_ref_ms()
    stdout = log.read_text(encoding="utf-8", errors="replace")
    if code != 0 or not record_path.exists():
        err = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise CheckFailed(f"cgnn {args[0]} exited with {code}: {err}")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    setup_end = record.get("loaded", record["import_end"])
    return Run(wall=ended - spawned, setup=setup_end - spawned,
               main=record["main_end"] - spawned,
               host_ref_ms=(ref_before, ref_after), record=record,
               stdout=stdout)


def import_cgnn():
    """The program under test, imported into this process for set-up
    and for reading its outputs back."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cgnn
    return cgnn


# --- workloads -------------------------------------------------------------

LABELS = sorted(gen.CLASS_NAMES)  # the program numbers classes this way


def _check_dataset(path: Path, per_class: list[gen.CaptureFacts]) -> None:
    """The dataset holds one graph per predicted session, in order, with
    the predicted vertex counts and labels, and round-trips bit for bit."""
    cgnn = import_cgnn()
    raw = path.read_bytes()
    dataset = cgnn.parse_dataset(raw)
    if dataset.label_names != LABELS or dataset.p != 1500:
        raise CheckFailed(f"dataset header: {dataset.label_names} "
                          f"p={dataset.p}")
    want = [(label, n) for label, facts in enumerate(per_class)
            for n in facts.graphs]
    got = [(g.label, g.n) for g in dataset.graphs]
    if got != want:
        raise CheckFailed(f"dataset has {len(got)} graphs with "
                          f"{sum(n for _, n in got)} vertices; expected "
                          f"{len(want)} with {sum(n for _, n in want)}")
    if dataset.to_bytes() != raw:
        raise CheckFailed("dataset does not round-trip through "
                          "load_dataset")


def _check_totals(stdout: str, per_class: list[gen.CaptureFacts]) -> None:
    """The preprocess summary accounts for every frame it did not keep."""
    def total(attr: str) -> int:
        return sum(getattr(f, attr) for f in per_class)
    want = (f"skipped {total('skipped')} frames, discarded "
            f"{total('empty_packets')} empty packets, dropped "
            f"{total('dropped_sessions')} empty sessions, dropped "
            f"{sum(f.noise['dns'] for f in per_class)} DNS packets")
    line = next((line for line in stdout.splitlines()
                 if line.startswith("total:")), "")
    if not line.endswith(want):
        raise CheckFailed(f"expected {want!r}, got {line!r}")


def ingest_setup(work: Path, seed: int) -> dict:
    per_class = gen.write_tree(work / "captures", seed, sessions_per_file=250,
                               low=2, high=18)
    return {"args": ["preprocess", "captures", "out.cgd1", "--drop-dns"],
            "per_class": per_class,
            "frames": sum(f.frames for f in per_class)}


def ingest_check(state: dict, run: Run) -> tuple[int, float]:
    _check_totals(run.stdout, state["per_class"])
    _check_dataset(Path(state["work"]) / "out.cgd1", state["per_class"])
    return state["frames"], run.wall - run.setup


def train_setup(work: Path, seed: int) -> dict:
    per_class = gen.write_tree(work / "captures", seed, sessions_per_file=200,
                               low=1, high=60)
    proc = subprocess.run(
        [sys.executable, "-m", "cgnn.cli", "preprocess", "captures",
         "train.cgd1", "--drop-dns"], cwd=work, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    if proc.returncode:
        raise CheckFailed(f"set-up preprocess failed: {proc.stderr[-2000:]}")
    _check_totals(proc.stdout.decode(), per_class)
    _check_dataset(work / "train.cgd1", per_class)
    # patience above the epoch count: early stopping never cuts the work
    return {"args": ["train", "train.cgd1", "run",
                     "--max-epochs", str(TRAIN_EPOCHS),
                     "--patience", str(TRAIN_EPOCHS + 1),
                     "--seed", str(seed), "--split-seed", str(seed)]}


def train_check(state: dict, run: Run) -> tuple[int, float]:
    cgnn = import_cgnn()
    out = Path(state["work"]) / "run"
    with open(out / "history.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != TRAIN_EPOCHS:
        raise CheckFailed(f"history.csv has {len(rows)} epochs, "
                          f"expected {TRAIN_EPOCHS}")
    for row in rows:
        for key in ("train_loss", "valid_loss", "valid_accuracy"):
            if not math.isfinite(float(row[key])):
                raise CheckFailed(f"{key} is {row[key]} in epoch "
                                  f"{row['epoch']}")
    checkpoint = cgnn.load_checkpoint(out / "best.cgm1")
    if checkpoint.label_names != LABELS or checkpoint.model.dims.p != 1500:
        raise CheckFailed("checkpoint does not match the dataset")
    state["val_accuracy"] = float(rows[-1]["valid_accuracy"])
    fit = run.record.get("fit")
    if fit is None:
        raise CheckFailed("cgnn.train.fit was not called, or its boundary "
                          f"moved: missing {run.record['missing']}")
    return fit["vertices"], fit["seconds"]


def predict_setup(work: Path, seed: int) -> dict:
    cgnn = import_cgnn()
    facts = gen.write_mixed_capture(work / "fresh.pcap", seed, sessions=150,
                                    low=60, high=260)
    model = cgnn.init_model(cgnn.ModelDims(m=len(LABELS)), seed=seed)
    cgnn.save_checkpoint(model, LABELS, work / "model.cgm1")
    return {"args": ["predict", "fresh.pcap", "model.cgm1", "--csv",
                     "pred.csv", "--drop-dns"],
            "facts": facts}


def predict_check(state: dict, run: Run) -> tuple[int, float]:
    facts: gen.CaptureFacts = state["facts"]
    with open(Path(state["work"]) / "pred.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header, rows = rows[0], rows[1:]
    if header != ["graph_id", "label", *LABELS]:
        raise CheckFailed(f"CSV header {header}")
    if len(rows) != len(facts.graphs):
        raise CheckFailed(f"{len(rows)} CSV rows, expected "
                          f"{len(facts.graphs)} sessions")
    for i, row in enumerate(rows):
        probs = [float(v) for v in row[2:]]
        if int(row[0]) != i or row[1] not in LABELS:
            raise CheckFailed(f"CSV row {i}: {row[:2]}")
        if abs(sum(probs) - 1) > 1e-5:
            raise CheckFailed(f"CSV row {i} sums to {sum(probs)}")
    sizes = [int(line.split(" [", 1)[1].split(" ", 1)[0])
             for line in run.stdout.splitlines() if " packets] -> " in line]
    if sizes != facts.graphs:
        raise CheckFailed("per-session packet counts differ from the "
                          "generated sessions")
    return facts.frames, run.wall - run.setup


WORKLOADS = {w.name: w for w in [
    Workload("ingest_short", ingest_setup, ingest_check),
    Workload("train_default", train_setup, train_check),
    Workload("predict_long", predict_setup, predict_check),
]}


# --- machine record --------------------------------------------------------

def host_ref_ms() -> float:
    """Time of a fixed pure-Python loop, so that drift in the host's
    speed shows beside every number."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def machine() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": threads}


# --- the measurement -------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """Set the workload up, run it until `seconds` have passed, and
    return its metrics and counts."""
    work = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        state = workload.setup(work, seed)
        state["work"] = str(work)
        runs: dict[bool, list] = {False: [], True: []}
        fails = {False: 0, True: 0}
        attempted = failed = 0
        errors: list[str] = []
        log: list[dict] = []
        kinds = [False, True] if trace else [False]
        deadline = time.monotonic() + seconds
        while attempted < MAX_FAILS or failed < attempted:
            # After the deadline, only a kind short of MIN_RUNS runs again,
            # and only until it has failed MAX_FAILS times.
            due = [k for k in kinds if time.monotonic() < deadline
                   or (len(runs[k]) < MIN_RUNS and fails[k] < MAX_FAILS)]
            if not due:
                break
            kind = due[attempted % len(due)]
            attempted += 1
            try:
                run = run_cli(state["args"], work, kind)
                frames, busy = workload.check(state, run)
            except Exception as exc:  # any failed check counts, and we go on
                failed += 1
                fails[kind] += 1
                errors.append(f"{type(exc).__name__}: {exc}")
                print(f"run {attempted} FAILED: {errors[-1]}", flush=True)
                continue
            runs[kind].append((run, frames, busy))
            log.append({"traced": kind, "wall_s": run.wall,
                        "setup_s": run.setup, "frames_per_s": frames / busy,
                        "host_ref_ms": run.host_ref_ms})
            print(f"run {attempted}{' traced' if kind else ''}: "
                  f"wall {run.wall:.3f} s, setup {run.setup:.3f} s, "
                  f"{frames / busy:.0f} frames/s, host_ref_ms "
                  f"{run.host_ref_ms[0]:.2f}/{run.host_ref_ms[1]:.2f}",
                  flush=True)
        result = {"attempted": attempted, "failed": failed, "errors": errors,
                  "runs": log,
                  "missing": sorted({m for kind in kinds for r, *_ in
                                     runs[kind] for m in r.record["missing"]})}
        if runs[False]:
            result["e2e"] = e2e_metrics(runs[False])
        if trace and runs[True]:
            result["layers"] = layer_medians(runs[True], runs[False])
            if "val_accuracy" in state:
                result["layers"]["train.val_accuracy"] = state["val_accuracy"]
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
            spans_path.write_text(
                json.dumps(runs[True][-1][0].record["spans"]))
        if "val_accuracy" in state:
            result["val_accuracy"] = state["val_accuracy"]
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def e2e_metrics(runs: list) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(r.wall for r, *_ in runs),
        "setup_s": med(r.setup for r, *_ in runs),
        "frames_per_s": med(f / b for _, f, b in runs),
        "peak_rss_mb": med(r.record["peak_rss_bytes"] / 2**20
                           for r, *_ in runs),
    }


def layer_medians(traced: list, untraced: list) -> dict[str, float]:
    keys = sorted({k for r, *_ in traced for k in r.record["layers"]})
    out = {k: statistics.median(r.record["layers"].get(k, 0.0)
                                for r, *_ in traced) for k in keys}
    if untraced:
        out["trace.overhead_s"] = (
            statistics.median(r.main for r, *_ in traced)
            - statistics.median(r.main for r, *_ in untraced))
    return out


# --- entry point -------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def report(name: str, result: dict, spec: dict, trace: bool) -> dict:
    """Print one workload's metrics with units; return them for JSON."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = result.get("layers" if trace else "e2e", {})
    metrics = {}
    for metric in wanted:
        # A layer the workload never enters reads 0 busy seconds.
        value = source.get(metric["name"], 0.0 if trace else None)
        if value is not None:
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(f"== {name}: {result['attempted']} runs, {result['failed']} failed"
          f" (failed_frac {result['failed'] / result['attempted']:.3f})")
    for key, value in metrics.items():
        print(f"  {key:32s} {value['value']:>16.6g} {value['unit']}")
    if "val_accuracy" in result:
        print(f"  {'val_accuracy':32s} {result['val_accuracy']:>16.6g}")
    for missing in result["missing"]:
        print(f"  boundary missing: {missing}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is stopped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "cgnn" / "cli.py").is_file():
        print(f"error: no cgnn sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    print("machine: " + json.dumps(record["machine"]), flush=True)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        print(f"== {name}: {whys[name]}", flush=True)
        try:
            result = measure(WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace))
        except CheckFailed as exc:
            print(f"error: {name} set-up failed: {exc}", file=sys.stderr)
            return 1
        record["workloads"][name] = result
        shown = report(name, result, spec, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1))
    if not metrics:
        print("error: no run succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
