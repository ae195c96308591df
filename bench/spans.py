"""Spans around the public functions at each cgnn module boundary.

The tracer replaces module attributes at run time; nothing under src/
changes. A function is replaced in its defining module and in every
cgnn module that imported it by name, so calls across modules and
within one module both pass through the wrapper. A nested stack gives
each span its parent. Spans stay in memory until the process ends.

A boundary that no longer exists (renamed or moved by a refactor), or
whose arguments or result no longer have the shape read here, is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
from typing import Callable

# (module, attribute) per boundary; the module names the layer.
BOUNDARIES = [
    ("cgnn.pcap", "parse_pcap"),
    ("cgnn.preprocess", "split_sessions"),
    ("cgnn.preprocess", "decode_frame"),
    ("cgnn.preprocess", "clean_packet"),
    ("cgnn.preprocess", "vectorize"),
    ("cgnn.graph", "build_chain_graph"),
    ("cgnn.graph", "truncate_graph"),
    ("cgnn.graph", "batch_graphs"),
    ("cgnn.graph", "ChainPropagation.apply"),
    ("cgnn.model", "forward"),
    ("cgnn.model", "pool"),
    ("cgnn.model", "relu"),
    ("cgnn.model", "fc_softmax"),
    ("cgnn.model", "load_checkpoint"),
    ("cgnn.model", "save_checkpoint"),
    ("cgnn.train", "fit"),
    ("cgnn.train", "cross_entropy"),
    ("cgnn.train", "backward"),
    ("cgnn.train", "adam_step"),
    ("cgnn.train", "evaluate"),
    ("cgnn.train", "predict"),
    ("cgnn.dataset", "save_dataset"),
    ("cgnn.dataset", "load_dataset"),
    ("cgnn.cli", "graphs_from_records"),
    ("cgnn.ioutil", "atomic_write_bytes"),
]


def peak_rss_bytes() -> int:
    """This process's own peak RSS. ru_maxrss is not used where VmHWM is
    available: Linux carries it over from the parent across fork and
    exec, so it would report the benchmark's own peak as well."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _note(attr: str, args: tuple, result):
    """What is worth keeping from one call: a count, a size, the model
    shape fit trained, or a dataset file's bytes with the process's peak
    RSS once it was read or written."""
    if attr == "parse_pcap":
        return len(result.records)
    if attr == "split_sessions":
        return result.skipped
    if attr == "batch_graphs":
        return result.features.shape[0]
    if attr == "graphs_from_records":
        return result[2].vertices
    if attr == "fit":
        return [args[2].p, args[2].d1]
    if attr in ("save_dataset", "load_dataset"):
        path = args[1] if attr == "save_dataset" else args[0]
        return [os.path.getsize(path), peak_rss_bytes()]
    return None


def replace(module_name: str, attr: str, make: Callable) -> bool:
    """Swap function `attr` of a loaded module for make(function), in its
    own module and wherever a cgnn module imported it by name. An attr
    "Class.method" swaps the method on the class. False when absent."""
    module = sys.modules.get(module_name)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = getattr(owner, name, None) if owner is not None else None
    if not callable(original):
        return False
    wrapper = make(original)
    if owner_name:
        setattr(owner, name, wrapper)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cgnn" or mod_name.startswith("cgnn."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return True


class Tracer:
    """Records (name, parent, start, end, note) per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.notes: dict[int, object] = {}
        self.missing: list[str] = []
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every boundary that exists in the loaded cgnn modules."""
        for module_name, attr in BOUNDARIES:
            name = attr.rpartition(".")[2]
            if not replace(module_name, attr,
                           lambda fn: self._wrap(fn, name)):
                self.missing.append(f"{module_name}.{attr}")

    def _wrap(self, fn: Callable, name: str) -> Callable:
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack, notes = self._stack, self.notes
        clock = time.perf_counter
        keyed = name == "apply"  # propagation, keyed by input width

        def wrapper(*args, **kwargs):
            idx = len(names)
            label = name
            if keyed:
                try:
                    label = f"apply.w{args[1].shape[1]}"
                except (IndexError, AttributeError):
                    self._moved(name)
            names.append(label)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            try:
                note = _note(name, args, result)
            except Exception:  # the boundary's signature or result changed
                self._moved(name)
            else:
                if note is not None:
                    notes[idx] = note
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _moved(self, name: str) -> None:
        """Report a boundary whose arguments or result no longer have the
        shape the tracer reads, once, without failing the call."""
        entry = f"{name}: arguments or result changed"
        if entry not in self.missing:
            self.missing.append(entry)

    def spans_json(self) -> dict:
        return {"names": self.names, "parents": self.parents,
                "starts": self.starts, "ends": self.ends,
                "notes": {str(k): v for k, v in self.notes.items()},
                "missing": self.missing}


def gemm_floor_ms(rows: int, p: int, d1: int, repeats: int = 15) -> float:
    """Median time of the two p x d1 products of a training step, forward
    X @ theta1 and backward X.T @ dz, at a batch of `rows` vertices."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.random((rows, p), dtype=np.float32)
    theta = rng.random((p, d1), dtype=np.float32)
    dz = rng.random((rows, d1), dtype=np.float32)
    times = []
    for _ in range(repeats + 2):
        t0 = time.perf_counter()
        x @ theta
        x.T @ dz
        times.append(time.perf_counter() - t0)
    return statistics.median(times[2:]) * 1e3


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer numbers from one traced run's spans."""
    names, parents = spans["names"], spans["parents"]
    durs = [e - s for s, e in zip(spans["starts"], spans["ends"])]
    notes = {int(k): v for k, v in spans["notes"].items()}
    child = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += durs[i]

    def busy(*wanted: str) -> float:
        return sum(d for n, d in zip(names, durs) if n in wanted)

    def calls(name: str) -> int:
        return sum(1 for n in names if n == name)

    def noted(name: str) -> list[float]:
        return [notes[i] for i, n in enumerate(names)
                if n == name and i in notes]

    frames = sum(noted("parse_pcap"))
    vertices = sum(noted("graphs_from_records"))
    decodes = calls("decode_frame")

    # A training step runs forward, loss, backward and Adam on one batch:
    # from a forward directly under fit to the Adam update that follows.
    fits = {i for i, n in enumerate(names) if n == "fit"}
    steps, rows, step_start = [], [], None
    for i, n in enumerate(names):
        if parents[i] not in fits:
            continue
        if n == "batch_graphs" and i in notes:
            rows.append(notes[i])
        elif n == "forward":
            step_start = spans["starts"][i]
        elif n == "adam_step" and step_start is not None:
            steps.append((spans["ends"][i] - step_start) * 1e3)
            step_start = None

    # [file bytes, peak RSS] per dataset read or write
    io = noted("save_dataset") + noted("load_dataset")
    dataset_bytes = max((b for b, _ in io), default=0)
    peak_rss = max((r for _, r in io), default=0)
    out = {
        "pcap.parse_s": busy("parse_pcap"),
        "pcap.frames": frames,
        "preprocess.split_s": busy("split_sessions"),
        "preprocess.clean_s": busy("clean_packet"),
        "preprocess.vectorize_s": busy("vectorize"),
        "preprocess.decode_calls": decodes,
        "preprocess.decodes_per_frame": decodes / frames if frames else 0.0,
        "preprocess.kept_ratio": vertices / frames if frames else 0.0,
        "preprocess.skipped": sum(noted("split_sessions")),
        "graph.build_s": busy("build_chain_graph", "truncate_graph"),
        "graph.batch_s": busy("batch_graphs"),
        "graph.batch_calls": calls("batch_graphs"),
        "graph.propagate_s.w1500": busy("apply.w1500"),
        "graph.propagate_s.w516": busy("apply.w516"),
        "model.forward_s": busy("forward"),
        "model.forward_self_s": sum(durs[i] - child[i]
                                    for i, n in enumerate(names)
                                    if n == "forward"),
        "model.pool_s": busy("pool"),
        "model.relu_s": busy("relu"),
        "model.head_s": busy("fc_softmax"),
        "model.checkpoint_load_s": busy("load_checkpoint"),
        "model.checkpoint_save_s": busy("save_checkpoint"),
        "train.step_ms_p50": _quantile(steps, 0.5),
        "train.step_ms_p95": _quantile(steps, 0.95),
        "train.backward_s": busy("backward"),
        "train.adam_s": busy("adam_step"),
        "train.validate_s": busy("evaluate"),
        "train.predict_s": busy("predict"),
        "dataset.save_s": busy("save_dataset"),
        "dataset.load_s": busy("load_dataset"),
        "dataset.bytes": dataset_bytes,
        "dataset.rss_over_bytes": peak_rss / dataset_bytes
        if dataset_bytes else 0.0,
        "cli.ingest_s": busy("graphs_from_records"),
        "ioutil.write_s": busy("atomic_write_bytes"),
    }
    out["train.batch_rows_p50"] = _quantile(rows, 0.5)
    return out


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]
