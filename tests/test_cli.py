"""The command line, driven end to end on hand-built capture files."""

from __future__ import annotations

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgnn
from cgnn.cli import (RunConfig, format_config, main, parse_config_text)
from cgnn.dataset import DATASET_VERSION, Dataset, load_dataset
from cgnn.errors import ConfigError
from cgnn.graph import split_dataset
from cgnn.model import (CHECKPOINT_VERSION, ModelDims, load_checkpoint,
                        predict_probs)
from cgnn.preprocess import graphs_from_records

from conftest import (arp_frame, ethernet, ipv4, pcap_bytes, tcp, tcp_frame,
                      udp_frame)


README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

# Positional arguments that let each command parse; nothing need exist.
POSITIONALS = {"preprocess": ["captures", "data.cgd1"],
               "train": ["data.cgd1", "run"],
               "evaluate": ["run/best.cgm1", "data.cgd1"],
               "predict": ["fresh.pcap", "run/best.cgm1"]}

# Options of each command that are not configuration keys.
OWN_OPTIONS = {"preprocess": set(), "train": set(),
               "evaluate": {"heatmap", "weighted"},
               "predict": {"csv"}}


def readme_key_table() -> dict[str, list[str]]:
    """The README's per-command configuration key table."""
    table = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) == 2 and cells[0].strip().startswith("`"):
            table[cells[0].strip().strip("`")] = re.findall(r"`(\w+)`",
                                                            cells[1])
    assert sorted(table) == sorted(POSITIONALS), table
    return table


def config_echo(captured: str) -> str:
    """The key=value block a command printed at startup."""
    lines = captured.splitlines()
    start = lines.index("# configuration")
    end = lines.index("# end configuration")
    return "\n".join(lines[start:end + 1])


def session_frames(fill: int, sessions: int, packets: int = 3,
                   base_port: int = 41000) -> list[bytes]:
    """Several one-directional TCP sessions, told apart by source port."""
    frames = []
    for s in range(sessions):
        for _ in range(packets):
            frames.append(tcp_frame(bytes([fill]) * 40, sport=base_port + s))
    return frames


def write_capture_tree(root, sessions: int = 12,
                       names: tuple[str, str] = ("chat", "mail")) -> None:
    """Two label directories with separable payload patterns."""
    for name, fill in zip(names, (0x11, 0xEE)):
        directory = root / name
        directory.mkdir(parents=True)
        (directory / "traffic.pcap").write_bytes(
            pcap_bytes(session_frames(fill, sessions)))


def write_sessionless_label(root, name: str) -> None:
    """A label directory whose only capture is SYN-only traffic: no
    packet carries payload, so the label yields no session."""
    (root / name).mkdir(parents=True)
    (root / name / "syn.pcap").write_bytes(
        pcap_bytes([tcp_frame(b"", flags=0x02)]))


# --- config handling ---------------------------------------------------------

def test_config_text_round_trip():
    cfg = RunConfig(p=64, lr=0.005, drop_dns=True, pooling="max")
    assert parse_config_text(format_config(cfg)) == cfg


def test_config_defaults_round_trip():
    assert parse_config_text(format_config(RunConfig())) == RunConfig()


DEFAULT_ECHOES = {
    "preprocess": """\
# configuration
p = 1500
fraction = 1.0
drop_dns = false
# end configuration""",
    "train": """\
# configuration
d1 = 516
d2 = 256
layers = 2
hops = 1
pooling = avg
lr = 0.001
batch_size = 32
max_epochs = 400
patience = 20
seed = 0
split_seed = 0
# end configuration""",
    "predict": """\
# configuration
fraction = 1.0
drop_dns = false
# end configuration""",
}


def test_default_config_echo_is_pinned(tmp_path, capsys, monkeypatch):
    # Each command echoes the keys it reads, in RunConfig's order, with
    # their defaults; the echo is printed before any input is opened.
    monkeypatch.chdir(tmp_path)
    for command, echo in DEFAULT_ECHOES.items():
        assert main([command, *POSITIONALS[command]]) == 1
        captured = capsys.readouterr()
        assert config_echo(captured.out) == echo, command
        assert "error:" in captured.err


def test_command_flags_match_the_readme_table(capsys):
    for command, keys in readme_key_table().items():
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--([\w-]+)", capsys.readouterr().out))
        flags -= {"help", "config"} | OWN_OPTIONS[command]
        flags -= {"no-" + flag for flag in flags}  # --no-drop-dns
        assert flags == {k.replace("_", "-") for k in keys}, command


def test_readme_states_the_format_versions():
    text = README.read_text(encoding="utf-8")
    formats = text.split("## Binary formats")[1].split("\n## ")[0]
    stated = re.findall(r"`\.(cgd1|cgm1)`\*\* — magic `\w+`, "
                        r"version u32 \((\d+)\)", formats)
    assert dict(stated) == {"cgd1": str(DATASET_VERSION),
                            "cgm1": str(CHECKPOINT_VERSION)}


def test_readme_states_the_checkpoint_shape_in_field_order():
    # ModelDims's field order is the checkpoint's shape header, so the
    # README's list must follow it: reordering a field changes the format.
    text = " ".join(README.read_text(encoding="utf-8").split())
    shape = re.search(r"the model shape \((.*?)\)", text).group(1)
    stated = [name.strip() for part in shape.split(";")
              for name in part.split(" as ")[0].split(",")]
    assert stated == [f.name for f in dataclasses.fields(ModelDims)]


def test_commands_refuse_config_flags_they_do_not_read(capsys):
    every_key = {f.name for f in dataclasses.fields(RunConfig)}
    for command, keys in readme_key_table().items():
        for key in sorted(every_key - set(keys)):
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exit_info:
                main([command, *POSITIONALS[command], flag, "1"])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err


def test_package_root_exposes_what_the_benchmark_reads():
    for name in ("ModelDims", "init_model", "save_checkpoint",
                 "load_checkpoint", "parse_dataset"):
        assert callable(getattr(cgnn, name)), name


def test_config_parser_accepts_comments_and_hyphens():
    cfg = parse_config_text("""
        # a comment
        batch-size = 8   # trailing comment
        drop-dns = yes
        lr = 2e-3
    """)
    assert cfg.batch_size == 8
    assert cfg.drop_dns is True
    assert cfg.lr == 2e-3


def test_config_parser_rejects_junk():
    with pytest.raises(ConfigError):
        parse_config_text("unknown_key = 5")
    with pytest.raises(ConfigError):
        parse_config_text("just some words")
    with pytest.raises(ConfigError):
        parse_config_text("p = abc")
    with pytest.raises(ConfigError, match="drop_dns expects true or false"):
        parse_config_text("drop_dns = maybe")
    with pytest.raises(ConfigError, match="unknown key 'standardize'"):
        parse_config_text("standardize = true")


def test_all_fields_survive_formatting():
    cfg = RunConfig()
    text = format_config(cfg)
    for f in dataclasses.fields(RunConfig):
        assert f"\n{f.name} = " in "\n" + text


# --- preprocess --------------------------------------------------------------

def test_preprocess_builds_a_dataset(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=3)
    out = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(out), "--p", "64"]) == 0
    captured = capsys.readouterr()
    dataset = load_dataset(out)
    assert dataset.p == 64
    assert dataset.label_names == ["chat", "mail"]
    assert len(dataset.graphs) == 6
    assert sorted({g.label for g in dataset.graphs}) == [0, 1]
    assert all(g.n == 3 for g in dataset.graphs)
    assert "label chat (id 0)" in captured.out
    assert "wrote 6 graphs" in captured.out


def test_preprocess_prints_skipped_frames_by_reason(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    (root / "mail" / "noise.pcap").write_bytes(pcap_bytes([
        arp_frame(),  # not IPv4
        ethernet(ipv4(b"\x08\x00\x00\x00", 1)),  # ICMP
        ethernet(ipv4(tcp(b"data"), 6, frag=0x0010)),  # a later fragment
        ethernet(b"\x45\x00"),  # an IPv4 header cut short
        tcp_frame(b"kept")]))
    assert main(["preprocess", str(root), str(tmp_path / "data.cgd1"),
                 "--p", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    total = next(i for i, line in enumerate(lines)
                 if line.startswith("total: "))
    assert lines[total].endswith(", skipped 4 frames, discarded 0 empty "
                                 "packets, dropped 0 empty sessions, "
                                 "dropped 0 DNS packets")
    assert lines[total + 1] == ("skipped frames by reason: 1 non-IPv4, "
                                "1 non-TCP/UDP, 1 fragments, 1 malformed")


def test_preprocess_builds_no_session_key(tmp_path, capsys, keys_formatted):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=3)
    (root / "chat" / "more.pcap").write_bytes(
        pcap_bytes(session_frames(0x22, 2, base_port=42000)))
    assert main(["preprocess", str(root), str(tmp_path / "data.cgd1"),
                 "--p", "64"]) == 0
    assert "total: 3 files, 8 sessions" in capsys.readouterr().out
    assert keys_formatted == []


def test_preprocess_is_deterministic(tmp_path):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    out_a = tmp_path / "a.cgd1"
    out_b = tmp_path / "b.cgd1"
    assert main(["preprocess", str(root), str(out_a), "--p", "48"]) == 0
    assert main(["preprocess", str(root), str(out_b), "--p", "48"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_preprocess_echo_reproduces_the_run(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    out = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(out),
                 "--p", "64", "--fraction", "0.5"]) == 0
    echo = config_echo(capsys.readouterr().out)
    assert parse_config_text(echo) == RunConfig(p=64, fraction=0.5)


def test_flags_override_config_file(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    config = tmp_path / "run.conf"
    config.write_text("p = 32\nfraction = 0.5\n")
    out = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(out),
                 "--config", str(config), "--p", "64"]) == 0
    cfg = parse_config_text(config_echo(capsys.readouterr().out))
    assert cfg.p == 64  # flag wins
    assert cfg.fraction == 0.5  # file survives where no flag is given
    assert load_dataset(out).p == 64


def test_config_file_keys_of_other_commands_are_checked_not_echoed(
        tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    config = tmp_path / "run.conf"
    config.write_text("p = 64\nlr = 0.005\nsplit_seed = 4\n")
    out = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(out),
                 "--config", str(config)]) == 0
    assert config_echo(capsys.readouterr().out) == \
        "# configuration\np = 64\nfraction = 1.0\ndrop_dns = false\n" \
        "# end configuration"
    config.write_text("p = 64\nlr = -1\n")
    assert main(["preprocess", str(root), str(out),
                 "--config", str(config)]) == 1
    assert "learning rate" in capsys.readouterr().err


def test_config_file_value_is_checked_though_a_flag_overrides_it(
        tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    config = tmp_path / "run.conf"
    config.write_text("lr = -1\n")
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--config", str(config),
                 "--lr", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: learning rate must be positive and "
                            "finite, got -1.0\n")
    assert not run.exists()


def test_config_file_that_is_not_utf8_is_an_error(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    config = tmp_path / "run.conf"
    config.write_bytes(b"p = 64\n\xff\xfe\n")
    out = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(out),
                 "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err
    assert not out.exists()


def test_preprocess_rejects_missing_or_empty_root(tmp_path, capsys):
    out = tmp_path / "data.cgd1"
    assert main(["preprocess", str(tmp_path / "nowhere"), str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["preprocess", str(empty), str(out)]) == 1
    assert "no label directories" in capsys.readouterr().err


def test_preprocess_warns_on_sessionless_label(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    write_sessionless_label(root, "quiet")
    out = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(out), "--p", "64"]) == 0
    captured = capsys.readouterr()
    assert "label quiet produced no sessions" in captured.err
    assert load_dataset(out).label_names == ["chat", "mail", "quiet"]


def test_preprocess_failing_second_capture_leaves_no_file(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    (root / "chat" / "zz-broken.pcap").write_bytes(b"\xde\xad" * 20)
    out = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(out), "--p", "64"]) == 1
    err = capsys.readouterr().err
    assert "zz-broken.pcap" in err and "magic" in err
    assert not out.exists()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["captures"]


def test_preprocess_failing_leaves_no_new_directories(tmp_path, capsys):
    root = tmp_path / "captures"
    (root / "chat").mkdir(parents=True)
    (root / "chat" / "notes.pcap").write_bytes(b"not a capture at all")
    out = tmp_path / "newdir" / "sub" / "out.cgd1"
    assert main(["preprocess", str(root), str(out), "--p", "64"]) == 1
    assert "notes.pcap" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["captures"]


def test_preprocess_refuses_an_output_over_a_capture(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    victim = root / "chat" / "traffic.pcap"
    before = victim.read_bytes()
    assert main(["preprocess", str(root), str(victim), "--p", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {victim} is the {victim.name} this run would overwrite")
    assert "wrote" not in captured.out
    assert victim.read_bytes() == before


def test_preprocess_rejects_unknown_config_key(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    config = tmp_path / "run.conf"
    config.write_text("padding = 3\n")
    assert main(["preprocess", str(root), str(tmp_path / "d.cgd1"),
                 "--config", str(config)]) == 1
    assert "unknown key" in capsys.readouterr().err


# --- train, evaluate, predict ------------------------------------------------

TRAIN_FLAGS = ["--d1", "8", "--d2", "8", "--lr", "0.01",
               "--batch-size", "4", "--max-epochs", "6", "--patience", "6"]


@pytest.fixture
def trained(tmp_path, capsys):
    """A dataset built from captures plus a checkpoint trained on it.
    Yields the dataset path, the checkpoint path, and train's stdout."""
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=12)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    run = tmp_path / "run"
    assert main(["train", str(data), str(run)] + TRAIN_FLAGS) == 0
    return data, run / "best.cgm1", capsys.readouterr().out


def test_train_writes_the_advertised_artifacts(trained):
    data, checkpoint_path, captured = trained
    assert "split: 20 train, 2 validation, 2 test" in captured
    assert "epoch 1:" in captured
    assert "best epoch" in captured
    assert checkpoint_path.exists()

    run = checkpoint_path.parent
    saved_text = (run / "config.txt").read_text()
    assert saved_text.startswith("# configuration\n")
    assert saved_text in captured  # the echo, saved
    assert not any(line.startswith("p ") for line in saved_text.splitlines())
    saved_config = parse_config_text(saved_text)
    assert saved_config.d1 == 8 and saved_config.lr == 0.01

    history = (run / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,valid_loss,valid_accuracy"
    assert history[1].startswith("1,")
    assert len(history) >= 2

    checkpoint = load_checkpoint(checkpoint_path)
    assert checkpoint.label_names == ["chat", "mail"]
    assert checkpoint.model.dims.p == 64


def test_train_learns_the_separable_corpus(trained):
    data, checkpoint_path, _ = trained
    history = (checkpoint_path.parent / "history.csv").read_text()
    last = history.strip().splitlines()[-1].split(",")
    assert float(last[3]) == 1.0  # validation accuracy


def test_out_of_range_fraction_or_seed_stops_before_any_work(tmp_path,
                                                             capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    data = tmp_path / "data.cgd1"
    csv_path = tmp_path / "predictions.csv"
    predict = ["predict", str(next(root.rglob("*.pcap"))),
               str(tmp_path / "best.cgm1"), "--csv", str(csv_path)]
    for value in ("0", "1.5"):
        for argv, output in ((["preprocess", str(root), str(data)], data),
                             (predict, csv_path)):
            assert main([*argv, "--fraction", value]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == \
                f"error: fraction must lie in (0, 1], got {float(value)}\n"
            assert not output.exists()
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seeds cannot be negative\n"
    assert not run.exists()


def test_zero_feature_length_or_unknown_pooling_stops_before_any_work(
        tmp_path, capsys):
    # The config is the one check of both rules: ingest and pooling
    # trust what it passed.
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: feature length must be positive, got 0\n"
    assert not data.exists()
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--pooling", "median"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: pooling must be one of ('avg', 'max', "
                            "'sum'), got 'median'\n")
    assert not run.exists()


def test_dataset_with_zero_graphs_is_refused(trained, tmp_path, capsys):
    _, checkpoint_path, _ = trained
    root = tmp_path / "quiet"
    for name in ("chat", "mail"):
        write_sessionless_label(root, name)
    data = tmp_path / "empty.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    assert "wrote 0 graphs" in capsys.readouterr().out
    run = tmp_path / "run-empty"
    assert main(["train", str(data), str(run)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {data} holds no graphs\n"
    assert epoch_lines(captured.out) == [] and not run.exists()
    assert main(["evaluate", str(checkpoint_path), str(data)]) == 1
    assert capsys.readouterr().err == f"error: {data} holds no graphs\n"


def test_train_refuses_a_label_with_no_training_graph(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    write_sessionless_label(root, "quiet")
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", str(data), str(run)]) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        "error: label quiet has no graphs in the training split\n"
    assert "split:" not in captured.out and not run.exists()


def test_train_with_zero_epochs_saves_the_initialized_model(tmp_path,
                                                            capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=12)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--d1", "8", "--d2", "8",
                 "--max-epochs", "0"]) == 0
    captured = capsys.readouterr()
    assert epoch_lines(captured.out) == []
    assert captured.out.splitlines()[-2:] == [
        "no epochs ran; saved the initialized model",
        f"wrote {run / 'best.cgm1'}"]
    assert captured.err == ""
    assert (run / "history.csv").read_text() == \
        "epoch,train_loss,valid_loss,valid_accuracy\n"
    checkpoint = load_checkpoint(run / "best.cgm1")
    assert checkpoint.label_names == ["chat", "mail"]
    assert (checkpoint.model.dims.p, checkpoint.model.dims.d1) == (64, 8)


def test_train_rejects_bad_dimensions_before_working(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--d1", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not run.exists()


def epoch_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("epoch")]


def test_train_reports_a_model_too_large_for_memory(tmp_path, capsys,
                                                    monkeypatch):
    # A size the checkpoint can store may still not fit in memory. The
    # allocation is faked: a host that overcommits would attempt it.
    def refuse(dims, seed=0):
        raise MemoryError(f"Unable to allocate a {dims.p} x {dims.d1} array")

    monkeypatch.setattr(cgnn.train, "init_model", refuse)
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=12)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--d1", "4000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        "error: Unable to allocate a 64 x 4000000000 array\n"
    assert epoch_lines(captured.out) == []
    assert not run.exists()


def test_commands_reject_sizes_the_files_cannot_store(tmp_path, capsys):
    # The dataset stores p, and the checkpoint every int of ModelDims,
    # as u32.
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    out = tmp_path / "big.cgd1"
    assert main(["preprocess", str(root), str(out),
                 "--p", str(2 ** 32)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    for flags in (["--layers", "1", "--d2", str(2 ** 32)],
                  ["--layers", "1", "--d2", "-1"], ["--d1", str(2 ** 32)],
                  ["--hops", str(2 ** 32)]):
        assert main(["train", str(data), str(run), "--max-epochs", "2",
                     *flags]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "32-bit" in captured.err
        assert epoch_lines(captured.out) == []
    assert not run.exists()


def test_train_rejects_non_finite_optimizer_values(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    for value in ("nan", "inf"):
        assert main(["train", str(data), str(run), "--max-epochs", "3",
                     "--lr", value]) == 1
        captured = capsys.readouterr()
        assert "must be positive and finite" in captured.err
        assert epoch_lines(captured.out) == []
    assert not run.exists()


def test_train_refuses_a_config_with_retired_adam_keys(tmp_path, capsys):
    # Adam's beta1, beta2 and eps are constants, not keys. A config.txt
    # that still holds them is refused rather than partly applied.
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    config = tmp_path / "config.txt"
    config.write_text("lr = 0.001\nbeta1 = 0.9\nbatch_size = 32\n")
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert "unknown key 'beta1'" in captured.err
    assert epoch_lines(captured.out) == []
    assert not run.exists()


def test_train_refuses_the_retired_per_layer_hops(tmp_path, capsys):
    # Every layer propagates the same hops; k1 and k2 are no longer keys.
    config = tmp_path / "config.txt"
    config.write_text("k1 = 1\nk2 = 1\n")
    run = tmp_path / "run"
    assert main(["train", "data.cgd1", str(run), "--config", str(config)]) == 1
    assert "unknown key 'k1'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "data.cgd1", str(run), "--k1", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --k1" in capsys.readouterr().err
    assert not run.exists()


def test_train_refuses_the_retired_standardize_flags(tmp_path, capsys):
    # Bytes are always divided by 255; standardize is no longer a key.
    run = tmp_path / "run"
    for flag in ("--standardize", "--no-standardize"):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "data.cgd1", str(run), flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not run.exists()


def test_train_rejects_an_output_path_that_is_a_file(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=2)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    run.write_text("not a directory")
    for out in (run, run / "sub"):
        assert main(["train", str(data), str(out), "--max-epochs", "2"]) == 1
        captured = capsys.readouterr()
        assert f"{run} is not a directory" in captured.err
        assert epoch_lines(captured.out) == []
    # Checked before the dataset is opened.
    assert main(["train", str(tmp_path / "missing.cgd1"), str(run)]) == 1
    assert "is not a directory" in capsys.readouterr().err
    assert run.read_text() == "not a directory"


def test_train_echo_reproduces_the_run(tmp_path, capsys):
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=12)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    first, second = tmp_path / "first", tmp_path / "second"
    flags = ["--pooling", "max", "--seed", "3", "--split-seed", "5"]
    assert main(["train", str(data), str(first)] + TRAIN_FLAGS + flags) == 0
    out = capsys.readouterr().out
    config = tmp_path / "echo.conf"
    config.write_text(config_echo(out))
    assert main(["train", str(data), str(second),
                 "--config", str(config)]) == 0
    assert capsys.readouterr().out == out.replace(str(first), str(second))
    for name in ("best.cgm1", "history.csv", "config.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert load_checkpoint(second / "best.cgm1").model.dims.pooling == "max"


def test_evaluate_scores_and_writes_heatmap(trained, tmp_path, capsys):
    data, checkpoint_path, _ = trained
    assert main(["evaluate", str(checkpoint_path), str(data)]) == 0
    captured = capsys.readouterr().out
    assert "accuracy" in captured
    default_heatmap = checkpoint_path.parent / "confusion.csv"
    assert default_heatmap.exists()
    header = default_heatmap.read_text().splitlines()[0]
    assert header == "true\\predicted,chat,mail"

    elsewhere = tmp_path / "elsewhere.csv"
    assert main(["evaluate", str(checkpoint_path), str(data),
                 "--heatmap", str(elsewhere)]) == 0
    assert elsewhere.exists()


def test_evaluate_weighted_weighs_the_macro_lines_by_support(tmp_path,
                                                            capsys):
    """On an imbalanced dataset the --weighted macro lines are the
    support-weighted means of the per-class lines, where the plain ones
    are their means, and the heat map is the same either way. Four mail
    sessions carry chat's bytes, so the two classes score apart."""
    root = tmp_path / "captures"
    for name, frames in (
            ("chat", session_frames(0x11, 30)),
            ("mail", session_frames(0xEE, 6)
             + session_frames(0x11, 4, base_port=42000))):
        (root / name).mkdir(parents=True)
        (root / name / "traffic.pcap").write_bytes(pcap_bytes(frames))
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    run = tmp_path / "run"
    assert main(["train", str(data), str(run)] + TRAIN_FLAGS) == 0
    capsys.readouterr()
    scores, heatmaps = [], []
    for flags in ([], ["--weighted"]):
        heatmap = tmp_path / f"confusion{len(flags)}.csv"
        assert main(["evaluate", str(run / "best.cgm1"), str(data),
                     "--heatmap", str(heatmap), *flags]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        per_class = np.array([[float(v) for v in row[1:]] for row in rows
                              if row[:1] in (["chat"], ["mail"])])
        macro = [float(row[-1]) for row in rows if row[:1] == ["macro"]]
        scores.append((per_class, macro))
        heatmaps.append(heatmap.read_bytes())
    (per_class, plain), (same_per_class, weighted) = scores
    assert np.array_equal(per_class, same_per_class)
    support = per_class[:, 2]
    assert support.tolist() == [30, 10]
    assert plain == pytest.approx(per_class[:, :2].mean(axis=0), abs=1e-4)
    assert weighted == pytest.approx(
        support / support.sum() @ per_class[:, :2], abs=1e-4)
    assert weighted != plain
    assert heatmaps[0] == heatmaps[1]


def class_support(out: str, names) -> dict[str, int]:
    """Per-class support from a printed classification report."""
    rows = (line.split() for line in out.splitlines())
    return {row[0]: int(row[-1]) for row in rows if row and row[0] in names}


def test_evaluate_with_train_config_scores_the_held_out_split(tmp_path,
                                                             capsys):
    # train writes the graphs it held out next to the checkpoint, and a
    # plain evaluate scores them.
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=12)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--split-seed", "5"]
                + TRAIN_FLAGS) == 0
    assert f"wrote {run / 'test.cgd1'}\n" in capsys.readouterr().out
    dataset = load_dataset(data)
    _, _, test_idx = split_dataset(dataset.graphs, seed=5)
    held_out = Dataset(dataset.graphs[test_idx], dataset.label_names)
    assert (run / "test.cgd1").read_bytes() == held_out.to_bytes()
    assert main(["evaluate", str(run / "best.cgm1")]) == 0
    out = capsys.readouterr().out
    assert "# configuration" not in out
    want = np.bincount(held_out.graphs.labels, minlength=dataset.num_classes)
    assert class_support(out, dataset.label_names) == \
        dict(zip(dataset.label_names, want.tolist()))


def test_evaluate_scores_the_same_graphs_after_the_dataset_grows(tmp_path,
                                                                  capsys):
    # A seed re-split of a grown dataset would move training graphs into
    # the test split; the written held-out file does not move.
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=12)
    data = tmp_path / "data.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    run = tmp_path / "run"
    assert main(["train", str(data), str(run), "--split-seed", "5"]
                + TRAIN_FLAGS) == 0
    capsys.readouterr()
    assert main(["evaluate", str(run / "best.cgm1")]) == 0
    before = capsys.readouterr().out
    (root / "chat" / "more.pcap").write_bytes(
        pcap_bytes(session_frames(0x11, 12, base_port=42000)))
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    grown = load_dataset(data).graphs
    _, _, resplit = split_dataset(grown, seed=5)
    assert np.bincount(grown.labels[resplit]).tolist() == [2, 1]
    capsys.readouterr()
    assert main(["evaluate", str(run / "best.cgm1")]) == 0
    assert capsys.readouterr().out == before
    assert class_support(before, ["chat", "mail"]) == {"chat": 1, "mail": 1}


def test_train_refuses_to_overwrite_its_own_input(trained, capsys):
    # Retraining on a run's held-out split into the same run would
    # replace the dataset with its own test split.
    _, checkpoint_path, _ = trained
    run = checkpoint_path.parent
    held_out = run / "test.cgd1"
    before = held_out.read_bytes()
    assert main(["train", str(held_out), str(run)] + TRAIN_FLAGS) == 1
    captured = capsys.readouterr()
    assert f"error: {held_out} is the test.cgd1" in captured.err
    assert epoch_lines(captured.out) == []
    assert held_out.read_bytes() == before


@pytest.mark.parametrize("target", ["checkpoint", "data"])
def test_evaluate_refuses_a_heatmap_over_its_input(trained, capsys, target):
    data, checkpoint_path, _ = trained
    victim = {"checkpoint": checkpoint_path, "data": data}[target]
    before = victim.read_bytes()
    assert main(["evaluate", str(checkpoint_path), str(data),
                 "--heatmap", str(victim)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {victim} is the {victim.name} this run would overwrite")
    assert captured.out == ""
    assert victim.read_bytes() == before


def test_evaluate_refuses_the_old_argument_order(trained, capsys):
    data, checkpoint_path, _ = trained
    assert main(["evaluate", str(data), str(checkpoint_path)]) == 1
    assert capsys.readouterr().err == \
        "error: not a checkpoint file (bad magic)\n"


def test_evaluate_takes_no_config_file(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", *POSITIONALS["evaluate"], "--config", "run.conf"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_evaluate_test_split_needs_enough_graphs(trained, tmp_path,
                                                 capsys):
    _, checkpoint_path, _ = trained
    root = tmp_path / "quiet"
    for name in ("chat", "mail"):
        write_sessionless_label(root, name)
    held_out = checkpoint_path.parent / "test.cgd1"
    assert main(["preprocess", str(root), str(held_out), "--p", "64"]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(checkpoint_path)]) == 1
    assert capsys.readouterr().err == f"error: {held_out} holds no graphs\n"


def test_evaluate_rejects_mismatched_dataset(trained, tmp_path, capsys):
    data, checkpoint_path, _ = trained
    solo_root = tmp_path / "solo"
    (solo_root / "only").mkdir(parents=True)
    (solo_root / "only" / "t.pcap").write_bytes(
        pcap_bytes(session_frames(0x11, 2)))
    solo = tmp_path / "solo.cgd1"
    assert main(["preprocess", str(solo_root), str(solo), "--p", "64"]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(checkpoint_path), str(solo)]) == 1
    assert "classes" in capsys.readouterr().err


def test_evaluate_rejects_another_feature_length(trained, tmp_path,
                                                 capsys):
    _, checkpoint_path, _ = trained
    root = tmp_path / "narrow"
    write_capture_tree(root, sessions=12)
    data = tmp_path / "narrow.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "32"]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(checkpoint_path), str(data)]) == 1
    assert capsys.readouterr().err == \
        "error: checkpoint expects feature length 64, dataset has 32\n"


def test_evaluate_warns_when_label_names_differ(trained, tmp_path, capsys):
    _, checkpoint_path, _ = trained
    root = tmp_path / "renamed"
    write_capture_tree(root, names=("alpha", "beta"))
    data = tmp_path / "renamed.cgd1"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(checkpoint_path), str(data)]) == 0
    captured = capsys.readouterr()
    assert captured.err == \
        "warning: checkpoint and dataset label names differ\n"
    assert "accuracy" in captured.out and "alpha" in captured.out


def test_predict_labels_each_session(trained, tmp_path, capsys):
    _, checkpoint_path, _ = trained
    capture = tmp_path / "fresh.pcap"
    capture.write_bytes(pcap_bytes(
        session_frames(0x11, 1)
        + session_frames(0xEE, 1, packets=2, base_port=42000)
        + [arp_frame()]))
    capsys.readouterr()
    csv_path = tmp_path / "predictions.csv"
    assert main(["predict", str(capture), str(checkpoint_path),
                 "--csv", str(csv_path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "->" in l]
    assert len(lines) == 2
    assert all("packets]" in line for line in lines)

    rows = csv_path.read_text().splitlines()
    assert rows[0] == "graph_id,label,chat,mail"
    assert len(rows) == 3
    names = rows[0].split(",")[2:]
    cells = [row.split(",") for row in rows[1:]]
    assert [int(c[0]) for c in cells] == list(range(len(cells)))
    for c in cells:
        probs = [float(v) for v in c[2:]]
        assert c[1] == names[probs.index(max(probs))]


def test_csv_outputs_keep_a_label_name_with_a_comma_and_quotes(tmp_path,
                                                               capsys):
    # preprocess takes any directory name as a label; the heat map and
    # the predictions quote a name that holds a comma or a quote, so no
    # column moves.
    names = ['a,"b"', "mail"]
    root = tmp_path / "captures"
    write_capture_tree(root, sessions=12, names=tuple(names))
    data, run = tmp_path / "data.cgd1", tmp_path / "run"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    assert main(["train", str(data), str(run), "--d1", "8", "--d2", "8",
                 "--max-epochs", "0"]) == 0
    heatmap, predictions = tmp_path / "heat.csv", tmp_path / "pred.csv"
    assert main(["evaluate", str(run / "best.cgm1"), str(data),
                 "--heatmap", str(heatmap)]) == 0
    capture = tmp_path / "fresh.pcap"
    capture.write_bytes(pcap_bytes(session_frames(0x11, 2)))
    assert main(["predict", str(capture), str(run / "best.cgm1"),
                 "--csv", str(predictions)]) == 0
    with heatmap.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["true\\predicted", *names]
    assert [row[0] for row in rows[1:]] == names
    assert [len(row) for row in rows] == [3, 3, 3]
    with predictions.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["graph_id", "label", *names]
    assert [row[0] for row in rows[1:]] == ["0", "1"]
    assert all(len(row) == 4 and row[1] in names for row in rows[1:])


def run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter with the sources on its path, as
    `python -m cgnn.cli` is run. Its piped stdout is block-buffered, so
    what it prints is complete only if the process exits cleanly."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_cli_freezes_the_start_up_heap():
    done = run_python("-c", "import gc, cgnn.cli; "
                            "print(gc.get_freeze_count() > 0, gc.isenabled())")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


def test_splitting_a_dataset_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, which costs a train process about 15 ms
    # and 1.3 MB on first use; nothing else train runs needs it. Label 1
    # is absent, so the split must skip it as np.unique would.
    done = run_python("-c", "\n".join([
        "import sys, numpy as np",
        "from cgnn.graph import GraphSet, split_dataset",
        "graphs = GraphSet.from_widths(np.zeros(0, np.uint8), 4,",
        "    np.zeros(30, np.int64), [1] * 30, [0, 2, 3] * 10)",
        "parts = split_dataset(graphs, seed=5)",
        "print(*[len(part) for part in parts], 'numpy.ma' in sys.modules)"]))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["24", "3", "3", "False"]


def test_predict_process_leaves_complete_outputs(trained, tmp_path, capsys):
    # What a separate process writes and prints matches the same command
    # run in this one, so nothing waited on the work skipped at exit.
    _, checkpoint_path, _ = trained
    capture = tmp_path / "fresh.pcap"
    capture.write_bytes(pcap_bytes(
        session_frames(0x11, 40) + session_frames(0xEE, 40, base_port=42000)))
    capsys.readouterr()
    assert main(["predict", str(capture), str(checkpoint_path),
                 "--csv", str(tmp_path / "here.csv")]) == 0
    here = capsys.readouterr().out
    done = run_python("-m", "cgnn.cli", "predict", str(capture),
                      str(checkpoint_path), "--csv", "there.csv",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == here.replace(str(tmp_path / "here.csv"),
                                       "there.csv")
    assert done.stdout.count(" -> ") == 80
    assert (tmp_path / "there.csv").read_bytes() \
        == (tmp_path / "here.csv").read_bytes()


def test_capture_cut_mid_record_warns_and_keeps_what_parsed(
        trained, tmp_path, capsys):
    _, checkpoint_path, _ = trained
    root = tmp_path / "cut"
    write_capture_tree(root, sessions=2)
    capture = root / "chat" / "traffic.pcap"
    # A third session's only packet is cut short.
    capture.write_bytes(pcap_bytes(
        session_frames(0x11, 2) + [tcp_frame(b"x" * 40, sport=43000)])[:-5])
    data = tmp_path / "cut.cgd1"
    warning = f"warning: {capture} ends mid-record; kept what parsed"
    assert main(["preprocess", str(root), str(data), "--p", "64"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines().count(warning) == 1
    assert "label chat (id 0): 1 files, 2 sessions, 6 vertices" \
        in captured.out
    graphs = load_dataset(data).graphs
    assert graphs.labels.tolist() == [0, 0, 1, 1]
    assert graphs.lengths.tolist() == [3, 3, 3, 3]

    assert main(["predict", str(capture), str(checkpoint_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [warning]
    lines = [l for l in captured.out.splitlines() if "->" in l]
    assert [l.split(" -> ")[0].split(" ", 1)[1] for l in lines] \
        == ["[3 packets]", "[3 packets]"]
    assert all(":4100" in l.split(" ")[0] for l in lines)


@pytest.mark.parametrize("target", ["pcap", "checkpoint"])
def test_predict_refuses_a_csv_over_its_input(trained, tmp_path, capsys,
                                              target):
    _, checkpoint_path, _ = trained
    capture = tmp_path / "fresh.pcap"
    capture.write_bytes(pcap_bytes(session_frames(0x11, 2)))
    victim = {"pcap": capture, "checkpoint": checkpoint_path}[target]
    before = victim.read_bytes()
    capsys.readouterr()
    assert main(["predict", str(capture), str(checkpoint_path),
                 "--csv", str(victim)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {victim} is the {victim.name} this run would overwrite")
    assert captured.out == ""
    assert victim.read_bytes() == before


def test_predict_builds_one_key_per_printed_session(trained, tmp_path,
                                                    capsys, keys_formatted):
    """One key is formatted per printed line, and a line reads
    <key> [<n> packets] -> <label> (<probability>)."""
    _, checkpoint_path, _ = trained
    capture = tmp_path / "fresh.pcap"
    capture.write_bytes(pcap_bytes(
        session_frames(0x11, 3) + [udp_frame(b"\x11" * 30)]))
    capsys.readouterr()
    assert main(["predict", str(capture), str(checkpoint_path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "->" in l]
    assert len(lines) == len(keys_formatted) == 4
    checkpoint = load_checkpoint(checkpoint_path)
    with open(capture, "rb") as handle:
        graphs, _, _ = graphs_from_records(handle, 0, 64)
    dist = predict_probs(checkpoint.model, graphs)[0]
    name = checkpoint.label_names[int(dist.argmax())]
    assert lines[0] == (f"10.0.0.1:41000-10.0.0.2:80/tcp [3 packets] -> "
                        f"{name} ({dist.max():.4f})")
    assert lines[3].startswith(
        "10.0.0.1:40000-10.0.0.2:5353/udp [1 packets] -> ")


def test_predict_with_no_usable_sessions(trained, tmp_path, capsys):
    _, checkpoint_path, _ = trained
    capture = tmp_path / "noise.pcap"
    capture.write_bytes(pcap_bytes([arp_frame(),
                                    tcp_frame(b"", flags=0x02)]))
    capsys.readouterr()
    assert main(["predict", str(capture), str(checkpoint_path)]) == 1
    assert "no sessions" in capsys.readouterr().err


def test_predict_uses_udp_sessions(trained, tmp_path, capsys):
    _, checkpoint_path, _ = trained
    capture = tmp_path / "udp.pcap"
    capture.write_bytes(pcap_bytes([udp_frame(b"\x11" * 30),
                                    udp_frame(b"\x11" * 30)]))
    capsys.readouterr()
    assert main(["predict", str(capture), str(checkpoint_path)]) == 0
    assert "/udp [2 packets]" in capsys.readouterr().out


def test_predict_echo_reproduces_the_run(trained, tmp_path, capsys):
    _, checkpoint_path, _ = trained
    capture = tmp_path / "fresh.pcap"
    capture.write_bytes(pcap_bytes(
        session_frames(0x11, 2, packets=4)
        + [udp_frame(b"\x11" * 30, dport=53)] * 2))
    csv_path = tmp_path / "predictions.csv"
    args = ["predict", str(capture), str(checkpoint_path),
            "--csv", str(csv_path)]
    capsys.readouterr()
    assert main(args + ["--fraction", "0.5", "--drop-dns"]) == 0
    out = capsys.readouterr().out
    first_csv = csv_path.read_bytes()
    assert out.count("[2 packets]") == 2 and "/udp" not in out
    config = tmp_path / "echo.conf"
    config.write_text(config_echo(out))
    assert main(args + ["--config", str(config)]) == 0
    assert capsys.readouterr().out == out
    assert csv_path.read_bytes() == first_csv


# --- inspect -----------------------------------------------------------------

def test_inspect_dataset(trained, capsys):
    data, _, _ = trained
    capsys.readouterr()
    assert main(["inspect", str(data)]) == 0
    captured = capsys.readouterr().out
    assert "dataset: feature length 64, 2 classes, 24 graphs" in captured
    # 72 rows of 20 + 20 + 40 bytes, each cut to p
    assert "rows: 72, stored in 4608 bytes of 72 x 64 = 4608" in captured
    assert "label chat (id 0): 12 graphs" in captured
    assert "vertex-count histogram:" in captured
    assert "  3: 24" in captured
    wide = data.parent / "wide.cgd1"
    assert main(["preprocess", str(data.parent / "captures"), str(wide),
                 "--p", "128"]) == 0
    capsys.readouterr()
    assert main(["inspect", str(wide)]) == 0
    assert "rows: 72, stored in 5760 bytes of 72 x 128 = 9216" \
        in capsys.readouterr().out


def test_inspect_checkpoint(trained, capsys):
    _, checkpoint_path, _ = trained
    capsys.readouterr()
    assert main(["inspect", str(checkpoint_path)]) == 0
    captured = capsys.readouterr().out
    assert "checkpoint: p=64 d1=8 d2=8 m=2" in captured
    assert "labels: chat, mail\nparameters: " in captured
    assert "parameters:" in captured


def test_inspect_rejects_other_files(tmp_path, capsys):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"not a real artifact")
    assert main(["inspect", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
