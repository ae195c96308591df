"""Run one cgnn command in this process, as `python -m cgnn.cli` does,
and record when its set-up ended and how long training ran.

    python bench/launch.py RECORD TRACE -- <cgnn arguments>

RECORD is a JSON file written on exit. Times are time.monotonic(),
which on Linux is one clock for every process, so the caller can
measure from the moment it spawned this one. Set-up ends after
`import cgnn`, or after the dataset or checkpoint load when the
command loads one. With TRACE=1 every module boundary is traced as
well (see spans.py) and the per-layer numbers go into the record.
"""

from __future__ import annotations

import json
import sys
import time


def _stamp_end(record: dict, key: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record.setdefault(key, time.monotonic())
            return result
        return wrapper
    return make


def _time_fit(record: dict):
    def make(fn):
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            result = fn(*args, **kwargs)
            seconds = time.monotonic() - start
            try:  # fit(train_graphs, ...) -> (model, report)
                vertices = sum(g.n for g in args[0]) * result[1].epochs_run
            except Exception:  # its signature or result changed
                record["missing"].append("cgnn.train.fit: arguments or "
                                         "result changed")
            else:
                record["fit"] = {"seconds": seconds, "vertices": vertices}
            return result
        return wrapper
    return make


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import cgnn.cli
    import spans
    record: dict = {"import_end": time.monotonic(), "missing": []}
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    marks = [("cgnn.dataset", "load_dataset", _stamp_end(record, "loaded")),
             ("cgnn.model", "load_checkpoint", _stamp_end(record, "loaded")),
             ("cgnn.train", "fit", _time_fit(record))]
    for module_name, attr, make in marks:
        if not spans.replace(module_name, attr, make):
            record["missing"].append(f"{module_name}.{attr}")
    try:
        record["rc"] = cgnn.cli.main(argv)
    finally:
        record["main_end"] = time.monotonic()
        record["peak_rss_bytes"] = spans.peak_rss_bytes()
        if tracer is not None:
            record["missing"] += tracer.missing
            record["spans"] = tracer.spans_json()
            record["layers"] = layers = spans.layer_metrics(record["spans"])
            shape = next((v for i, v in tracer.notes.items()
                          if tracer.names[i] == "fit"), None)
            if shape is not None and layers["train.batch_rows_p50"]:
                p, d1 = shape
                floor = spans.gemm_floor_ms(
                    int(layers["train.batch_rows_p50"]), p, d1)
                layers["train.gemm_floor_ms"] = floor
                layers["train.step_over_floor"] = \
                    layers["train.step_ms_p50"] / floor
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
