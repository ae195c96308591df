"""Operator command line: preprocess captures, train, evaluate, predict,
and inspect the binary artifacts.

Configuration is a flat key=value file; command-line flags override file
values. Each command takes flags for, and echoes at startup, only the keys
it reads (COMMAND_KEYS; evaluate reads none), in the same key=value form,
so a run can be reproduced by feeding the echo back in as a config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .dataset import DATASET_MAGIC, load_dataset, parse_dataset, save_dataset
from .errors import (CgnnError, ConfigError, CorruptFile, DimsMismatch,
                     EmptyDataset)
from .graph import split_dataset
from .ioutil import atomic_write_bytes, atomic_write_csv
from .metrics import classification_report, format_report, write_heatmap_csv
from .model import (CHECKPOINT_MAGIC, ModelDims, load_checkpoint,
                    parse_checkpoint, predict_probs, save_checkpoint)
from .preprocess import (PROTO_TCP, PROTO_UDP, IngestStats,
                         graphs_from_records)
from .train import TrainConfig, fit

CHECKPOINT_NAME = "best.cgm1"
TEST_NAME = "test.cgd1"  # the graphs train held out, beside the checkpoint


def _field_specs(cls, skip: tuple[str, ...] = ()) -> list[tuple]:
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name], f.default)
            for f in dataclasses.fields(cls) if f.name not in skip]


def _pick(cls, cfg, **extra):
    """An instance of dataclass cls with its fields taken from cfg,
    except those given in extra."""
    return cls(**{f.name: getattr(cfg, f.name)
                  for f in dataclasses.fields(cls) if f.name not in extra},
               **extra)


def _check(cfg) -> None:
    _pick(ModelDims, cfg, m=2)
    _pick(TrainConfig, cfg)
    if not 0 < cfg.fraction <= 1:
        raise ConfigError(f"fraction must lie in (0, 1], got {cfg.fraction}")
    if cfg.split_seed < 0:
        raise ConfigError("seeds cannot be negative")


# Every knob of the pipeline, with the recommended defaults: the model
# shape (the class count m comes from the dataset), preprocessing, the
# optimizer, and the dataset split. Building one runs every check (_check).
RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    _field_specs(ModelDims, skip=("m",))
    + [("fraction", float, 1.0), ("drop_dns", bool, False)]
    + _field_specs(TrainConfig)
    + [("split_seed", int, 0)],
    namespace={"__post_init__": _check}, frozen=True)


_FIELD_TYPES = get_type_hints(RunConfig)

# The keys each command reads; one config file may hold them all. Only
# preprocess sets p: train reads it from the dataset, and predict takes
# the whole model from the checkpoint. evaluate reads no key.
COMMAND_KEYS = {
    "preprocess": ("p", "fraction", "drop_dns"),
    "train": tuple(k for k in _FIELD_TYPES
                   if k not in ("p", "fraction", "drop_dns")),
    "predict": ("fraction", "drop_dns"),
}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key: str, text: str):
    kind = _FIELD_TYPES[key]
    text = text.strip()
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{key} expects true or false, got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} expects {kind.__name__}, got {text!r}")


def format_config(cfg: RunConfig, keys=tuple(_FIELD_TYPES)) -> str:
    """The given keys of cfg (all by default) as a key=value block."""
    lines = ["# configuration"]
    for key in keys:
        lines.append(f"{key} = {_format_value(getattr(cfg, key))}")
    lines.append("# end configuration")
    return "\n".join(lines)


def parse_config_text(text: str) -> RunConfig:
    """Parse key=value lines over the defaults. Comments (#) and blank
    lines are ignored; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, "
                              f"got {raw.strip()!r}")
        key, text_value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, text_value)
    return RunConfig(**values)


def parse_config_file(path: Path | str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # BOM or none
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}")
    return parse_config_text(text)


def _resolve_config(args) -> RunConfig:
    """Defaults < --config file < flags; echoes the command's keys."""
    cfg = RunConfig() if args.config is None else \
        parse_config_file(args.config)
    keys = COMMAND_KEYS[args.command]
    cfg = dataclasses.replace(cfg, **{
        k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    print(format_config(cfg, keys))
    return cfg


def _refuse_overwrite(out: Path, *inputs) -> None:
    """ConfigError when out is already the same file as an input."""
    for source in inputs:
        if out.exists() and Path(source).exists() and out.samefile(source):
            raise ConfigError(f"{source} is the {out.name} this run would "
                              f"overwrite; choose another output")


def _ingest_capture(path: Path, label: int, p: int, cfg: RunConfig):
    """Graphs, session key rows and stats of one capture file, read in
    blocks, never whole; an error in the capture names the file."""
    try:
        with open(path, "rb") as capture:
            graphs, keys, stats = graphs_from_records(
                capture, label, p, cfg.fraction, cfg.drop_dns)
    except CgnnError as exc:
        raise type(exc)(f"{path}: {exc}")
    if stats.truncated:
        print(f"warning: {path} ends mid-record; kept what parsed",
              file=sys.stderr)
    return graphs, keys, stats


def cmd_preprocess(args) -> int:
    cfg = _resolve_config(args)
    root = Path(args.root)
    if not root.is_dir():
        raise EmptyDataset(f"{root} is not a directory")
    labels = sorted(d.name for d in root.iterdir() if d.is_dir())
    for name in labels:  # saved as UTF-8, which a directory name need not be
        raw = name.encode("utf-8", "surrogateescape")  # its bytes on disk
        if raw.decode("utf-8", "replace") != name:
            raise ConfigError(f"{root}: label directory {raw!r} is not UTF-8")
    if not labels:
        raise EmptyDataset(f"no label directories under {root}")
    paths = [sorted((root / name).glob("*.pcap")) for name in labels]
    _refuse_overwrite(Path(args.out), *(path for group in paths
                                         for path in group))

    per_label = [IngestStats() for _ in labels]

    def captures():
        """Each capture's graphs, as soon as that capture is ingested."""
        for label_id, group in enumerate(paths):
            for path in group:
                graphs, _, stats = _ingest_capture(path, label_id, cfg.p, cfg)
                per_label[label_id].add(stats)
                yield graphs

    count = save_dataset(captures(), args.out, labels, cfg.p)
    total = IngestStats()
    for label_id, (name, stats) in enumerate(zip(labels, per_label)):
        print(f"label {name} (id {label_id}): {len(paths[label_id])} files, "
              f"{stats.describe()}")
        if stats.sessions == 0:
            print(f"warning: label {name} produced no sessions",
                  file=sys.stderr)
        total.add(stats)
    print(f"total: {sum(map(len, paths))} files, {total.describe()}")
    print(f"skipped frames by reason: {total.non_ipv4} non-IPv4, "
          f"{total.non_tcp_udp} non-TCP/UDP, {total.fragments} fragments, "
          f"{total.malformed} malformed")
    print(f"wrote {count} graphs to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(args.out)
    existing = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{existing} is not a directory")
    test_path = out_dir / TEST_NAME
    _refuse_overwrite(test_path, args.data)
    dataset = load_dataset(args.data)
    graphs = dataset.graphs
    if not len(graphs):
        raise EmptyDataset(f"{args.data} holds no graphs")
    train_idx, valid_idx, test_idx = split_dataset(graphs,
                                                   seed=cfg.split_seed)
    train_set, valid_set = graphs[train_idx], graphs[valid_idx]
    missing = np.flatnonzero(np.bincount(
        train_set.labels, minlength=dataset.num_classes) == 0)
    if missing.size:
        raise EmptyDataset(f"label {dataset.label_names[missing[0]]} has "
                           f"no graphs in the training split")
    print(f"split: {len(train_idx)} train, {len(valid_idx)} validation, "
          f"{len(test_idx)} test")

    dims = _pick(ModelDims, cfg, p=dataset.p, m=dataset.num_classes)
    model, report = fit(train_set, valid_set, dims, _pick(TrainConfig, cfg),
                        log=print)

    checkpoint_path = out_dir / CHECKPOINT_NAME
    save_checkpoint(model, dataset.label_names, checkpoint_path)
    save_dataset([graphs[test_idx]], test_path, dataset.label_names,
                 dataset.p)
    print(f"wrote {test_path}")
    atomic_write_bytes(out_dir / "config.txt", (format_config(
        cfg, COMMAND_KEYS["train"]) + "\n").encode("utf-8"))

    epochs = zip(report.train_losses, report.val_losses,
                 report.val_accuracies)
    atomic_write_csv(out_dir / "history.csv", [
        ["epoch", "train_loss", "valid_loss", "valid_accuracy"],
        *([i, *(f"{v:.6f}" for v in row)]
          for i, row in enumerate(epochs, 1))])

    if report.best_epoch:
        print(f"best epoch {report.best_epoch}: validation loss "
              f"{report.best_val_loss:.6f}, validation accuracy "
              f"{report.val_accuracies[report.best_epoch - 1]:.4f}")
    else:
        print("no epochs ran; saved the initialized model")
    print(f"wrote {checkpoint_path}")
    return 0


def cmd_evaluate(args) -> int:
    data = args.data or Path(args.checkpoint).parent / TEST_NAME
    heatmap = Path(args.heatmap) if args.heatmap else \
        Path(args.checkpoint).parent / "confusion.csv"
    _refuse_overwrite(heatmap, args.checkpoint, data)
    checkpoint = load_checkpoint(args.checkpoint)
    dataset = load_dataset(data)
    model = checkpoint.model
    if model.dims.m != dataset.num_classes:
        raise DimsMismatch(f"checkpoint has {model.dims.m} classes, "
                           f"dataset has {dataset.num_classes}")
    if model.dims.p != dataset.p:
        raise DimsMismatch(f"checkpoint expects feature length "
                           f"{model.dims.p}, dataset has {dataset.p}")
    if checkpoint.label_names != dataset.label_names:
        print("warning: checkpoint and dataset label names differ",
              file=sys.stderr)

    graphs = dataset.graphs
    if not len(graphs):
        raise EmptyDataset(f"{data} holds no graphs")

    pred = predict_probs(model, graphs).argmax(axis=1)
    report = classification_report(graphs.labels, pred, dataset.label_names,
                                   weighted=args.weighted)
    print(format_report(report))

    write_heatmap_csv(report, heatmap)
    print(f"wrote {heatmap}")
    return 0


def format_key(low: int, high: int, protocol: int) -> str:
    """A row of graphs_from_records' session keys as ip:port-ip:port/tcp
    (or /udp), the lower endpoint first."""
    a, b = (".".join(map(str, (end >> 16).to_bytes(4, "big")))
            + f":{end & 0xFFFF}" for end in (low, high))
    name = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}[protocol]
    return f"{a}-{b}/{name}"


def cmd_predict(args) -> int:
    if args.csv:
        _refuse_overwrite(args.csv, args.pcap, args.checkpoint)
    cfg = _resolve_config(args)
    checkpoint = load_checkpoint(args.checkpoint)
    model = checkpoint.model
    pcap_path = Path(args.pcap)
    graphs, keys, stats = _ingest_capture(pcap_path, 0, model.dims.p, cfg)
    if not len(graphs):
        raise EmptyDataset(f"no sessions survived cleaning in {pcap_path} "
                           f"({stats.describe()})")

    rows = [["graph_id", "label", *checkpoint.label_names]]
    probs = predict_probs(model, graphs)
    for graph_id, (key, n, dist) in enumerate(
            zip(keys.tolist(), graphs.lengths.tolist(), probs)):
        label = int(dist.argmax())
        name = checkpoint.label_names[label]
        print(f"{format_key(*key)} [{n} packets] -> {name} "
              f"({dist[label]:.4f})")
        rows.append([graph_id, name, *(f"{v:.6f}" for v in dist)])
    if args.csv:
        atomic_write_csv(args.csv, rows)
        print(f"wrote {args.csv}")
    return 0


def cmd_inspect(args) -> int:
    data = Path(args.file).read_bytes()
    magic = data[:4]
    if magic == DATASET_MAGIC:
        dataset = parse_dataset(data)
        graphs = dataset.graphs
        rows, widths = graphs.packed()
        print(f"dataset: feature length {dataset.p}, "
              f"{dataset.num_classes} classes, {len(graphs)} graphs")
        print(f"rows: {widths.size}, stored in {rows.size} bytes of "
              f"{widths.size} x {dataset.p} = {widths.size * dataset.p}")
        counts = np.bincount(graphs.labels, minlength=dataset.num_classes)
        for label_id, name in enumerate(dataset.label_names):
            print(f"label {name} (id {label_id}): {counts[label_id]} graphs")
        print("vertex-count histogram:")
        for n, count in zip(*np.unique(graphs.lengths, return_counts=True)):
            print(f"  {n}: {count}")
        return 0
    if magic == CHECKPOINT_MAGIC:
        checkpoint = parse_checkpoint(data)
        dims = checkpoint.model.dims
        total = sum(w.size for w in checkpoint.model.params())
        print("checkpoint: " + " ".join(
            f"{f.name}={_format_value(getattr(dims, f.name))}"
            for f in dataclasses.fields(dims)))
        print(f"labels: {', '.join(checkpoint.label_names)}")
        print(f"parameters: {total}")
        return 0
    raise CorruptFile(f"{args.file} is not a dataset or checkpoint file")


def _add_config_flags(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="key=value config file; flags override it")
    defaults = RunConfig()
    for key in COMMAND_KEYS[command]:
        kind = _FIELD_TYPES[key]
        sub.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                         help=f"(default "
                              f"{_format_value(getattr(defaults, key))})",
                         **({"action": argparse.BooleanOptionalAction}
                            if kind is bool else {"type": kind}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgnn",
        description="Classify pcap traffic sessions with a chained-graph "
                    "neural network.")
    commands = parser.add_subparsers(dest="command", required=True)

    # Whole flag names only, so a knob a command lacks is always refused.
    sub = commands.add_parser(
        "preprocess", allow_abbrev=False,
        help="build a dataset from <root>/<label>/*.pcap directories")
    sub.add_argument("root", help="directory of per-label pcap directories")
    sub.add_argument("out", help="output dataset path (.cgd1)")
    _add_config_flags(sub, "preprocess")
    sub.set_defaults(func=cmd_preprocess)

    sub = commands.add_parser("train", allow_abbrev=False,
                              help="train a model on a dataset file")
    sub.add_argument("data", help="dataset path (.cgd1)")
    sub.add_argument("out", help="output directory for the checkpoint")
    _add_config_flags(sub, "train")
    sub.set_defaults(func=cmd_train)

    sub = commands.add_parser("evaluate", allow_abbrev=False,
                              help="score a checkpoint against a dataset")
    sub.add_argument("checkpoint", help="checkpoint path (.cgm1)")
    sub.add_argument("data", nargs="?", default=None,
                     help="dataset path (.cgd1; default the test.cgd1 "
                          "train wrote next to the checkpoint)")
    sub.add_argument("--heatmap", type=Path, default=None,
                     help="confusion CSV path (default next to checkpoint)")
    sub.add_argument("--weighted", action="store_true",
                     help="weigh macro averages by class support")
    sub.set_defaults(func=cmd_evaluate)

    sub = commands.add_parser("predict", allow_abbrev=False,
                              help="classify every session in one pcap")
    sub.add_argument("pcap", help="capture file to classify")
    sub.add_argument("checkpoint", help="checkpoint path (.cgm1)")
    sub.add_argument("--csv", type=Path, default=None,
                     help="also write per-session probabilities as CSV")
    _add_config_flags(sub, "predict")
    sub.set_defaults(func=cmd_predict)

    sub = commands.add_parser("inspect",
                              help="describe a dataset or checkpoint file")
    sub.add_argument("file", help="path to a .cgd1 or .cgm1 file")
    sub.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CgnnError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# The modules, classes and functions alive now (numpy's and cgnn's, some
# 22k objects) live until the process exits anyway. Freezing them keeps
# the collection at exit from walking them and freeing them one by one.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
