"""Shipping gate: one test per release criterion.

Each test prints a single PASS or FAIL line with the measured numbers
and the pinned tolerance, writing straight to the real stdout so the
lines survive pytest's capture. Tolerances and time limits here are
fixed; loosening them is not a fix.
"""

from __future__ import annotations

import io
import os
import time

import numpy as np
import pytest

from cgnn.dataset import Dataset, parse_dataset
from cgnn.graph import ChainPropagation, batch_graphs, split_dataset
from cgnn.model import (ModelDims, forward, init_model, load_checkpoint,
                        predict_probs, save_checkpoint)
from cgnn.preprocess import graphs_from_records
from cgnn.train import TrainConfig, backward, evaluate, fit

from conftest import (IP_A, IP_B, arp_frame, dense_propagation_oracle,
                      graph_rows, graph_set, pcap_bytes, random_graphs,
                      tcp_frame, udp_frame, unpack_key)
from test_preprocess import (_only_row, expected_tcp_clean,
                             expected_udp_clean)
from test_train import max_rel_error, numeric_gradient, smooth_case


def _report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {number}/8] {name}: {status} ({detail})",
              flush=True)


def test_criterion_1_propagation_matches_dense_oracle(capsys):
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        got = ChainPropagation.for_batch([n]).apply(np.eye(n))
        diff = np.abs(got - dense_propagation_oracle(n))
        worst = max(worst, float(diff.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(capsys, 1, "propagation oracle n=1..10", ok,
            f"max abs err {worst:.2e} <= 1e-12, {elapsed:.2f}s < 1s")
    assert ok


def test_criterion_2_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    dims = ModelDims(p=6, d1=5, d2=4, m=2)
    rng = np.random.default_rng(2024)
    worst = 0.0
    trials = 20
    for trial in range(trials):
        model, batch, cache = smooth_case(dims, seed=trial * 17, rng=rng)
        analytic = backward(model, batch, cache)
        for param, grad in zip(model.params(), analytic):
            numeric = numeric_gradient(model, batch, param, h=1e-4)
            worst = max(worst, max_rel_error(grad, numeric))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(capsys, 2, f"gradient check, {trials} trials", ok,
            f"max rel err {worst:.2e} <= 1e-4, h=1e-4 central, "
            f"{elapsed:.2f}s < 10s")
    assert ok


def test_criterion_3_batched_forward_equals_single_graphs(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    dims = ModelDims(p=20, d1=12, d2=8, m=3)
    model = init_model(dims, seed=0)
    graphs = random_graphs(rng, 32, p=20, num_classes=3)
    batched = forward(model, batch_graphs(graphs)).probs
    singles = np.concatenate(
        [forward(model, batch_graphs(graphs, [i])).probs
         for i in range(len(graphs))])
    worst = float(np.abs(batched - singles).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    _report(capsys, 3, "batching equivalence, 32 graphs", ok,
            f"max abs diff {worst:.2e} <= 1e-5, {elapsed:.2f}s < 5s")
    assert ok


def test_criterion_4_overfits_patterned_sessions(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    features = []
    for i in range(200):
        n = int(rng.integers(3, 9))
        fill = 0x11 if i % 2 == 0 else 0xEE
        features.append(np.full((n, 64), fill, dtype=np.uint8))
    graphs = graph_set(features, [i % 2 for i in range(200)])
    train, valid, test = (graphs[idx] for idx in split_dataset(graphs,
                                                               seed=0))
    dims = ModelDims(p=64, d1=32, d2=16, m=2)
    config = TrainConfig(lr=0.01, batch_size=32, max_epochs=200,
                         patience=200, seed=0)
    model, run = fit(train, valid, dims, config)
    _, train_acc = evaluate(model, train)
    _, test_acc = evaluate(model, test)
    rerun_model, _ = fit(train, valid, dims, config)
    identical = all(a.tobytes() == b.tobytes() for a, b in
                    zip(model.params(), rerun_model.params()))
    elapsed = time.perf_counter() - start
    ok = (train_acc == 1.0 and test_acc >= 0.95 and identical
          and run.epochs_run <= 200 and elapsed < 60.0)
    _report(capsys, 4, "synthetic overfit, 200 graphs", ok,
            f"train acc {train_acc:.3f} == 1.0, held-out acc "
            f"{test_acc:.3f} >= 0.95, rerun identical={identical}, "
            f"{run.epochs_run} epochs <= 200, {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_5_golden_capture_cleaning(capsys):
    payload = bytes(range(1, 41))
    p = 200
    checks = []

    def row_is(row: np.ndarray, expected: bytes) -> bool:
        """Byte-exact against the hand-built bytes, then zeros to p."""
        return (bytes(row[:len(expected)]) == expected
                and not row[len(expected):].any())

    # TCP with payload: exact cleaned bytes, addresses zeroed.
    checks.append(row_is(_only_row(tcp_frame(payload), p),
                         expected_tcp_clean(payload)))

    # SYN-only handshake packet: no payload, discarded.
    graphs, _, stats = graphs_from_records(
        io.BytesIO(pcap_bytes([tcp_frame(b"", flags=0x02)])), 0, p)
    checks.append(len(graphs) == 0 and stats.discarded_empty == 1)

    # UDP: 8-byte header padded to 20 with zeros.
    checks.append(row_is(_only_row(udp_frame(b"ping"), p),
                         expected_udp_clean(b"ping")))

    # ARP noise: not a session packet, skipped not fatal.
    graphs, _, stats = graphs_from_records(
        io.BytesIO(pcap_bytes([arp_frame()])), 0, p)
    checks.append(len(graphs) == 0 and stats.non_ipv4 == 1)

    # Bidirectional flow: both directions in one session, order kept,
    # and the vectorized output is byte-exact including the padding.
    frames = [tcp_frame(payload, sport=50000, dport=80),
              tcp_frame(payload[:8], sport=80, dport=50000,
                        src=IP_B, dst=IP_A),
              tcp_frame(payload, sport=50000, dport=80),
              arp_frame()]
    graphs, keys, stats = graphs_from_records(
        io.BytesIO(pcap_bytes(frames)), 0, p)
    checks.append(len(graphs) == 1)
    checks.append(stats.skipped == 1)
    checks.append([unpack_key(*key) for key in keys.tolist()]
                  == [(IP_A, 50000, IP_B, 80, 6)])
    vectors = graph_rows(graphs, 0)
    checks.append(vectors.shape == (3, 200) and vectors.dtype == np.uint8)
    expected = [expected_tcp_clean(payload, sport=50000, dport=80),
                expected_tcp_clean(payload[:8], sport=80, dport=50000),
                expected_tcp_clean(payload, sport=50000, dport=80)]
    checks.extend(row_is(row, want) for row, want in zip(vectors, expected))

    ok = all(checks)
    _report(capsys, 5, "golden capture fixtures", ok,
            f"{sum(checks)}/{len(checks)} byte-exact checks")
    assert ok


def test_criterion_6_probabilities_form_distributions(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    dims = ModelDims(p=32, d1=10, d2=8, m=4)
    model = init_model(dims, seed=1)
    graphs = random_graphs(rng, 1000, p=32, num_classes=4)
    probs = predict_probs(model, graphs)
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    nonneg = bool((probs >= 0).all())
    elapsed = time.perf_counter() - start
    ok = nonneg and worst <= 1e-6 and probs.shape == (1000, 4)
    _report(capsys, 6, "probability rows, 1000 graphs", ok,
            f"min {probs.min():.2e} >= 0, max |sum-1| {worst:.2e} <= 1e-6, "
            f"{elapsed:.2f}s")
    assert ok


def test_criterion_7_artifacts_round_trip_bit_exact(tmp_path, capsys):
    rng = np.random.default_rng(77)
    failures = 0
    trials = 0

    for trial in range(20):
        p = int(rng.integers(1, 30))
        m = int(rng.integers(1, 5))
        names = [f"class-{i}" for i in range(m)]
        graphs = random_graphs(rng, int(rng.integers(0, 10)), p=p,
                               num_classes=m)
        raw = Dataset(graphs=graphs, label_names=names).to_bytes()
        trials += 1
        if parse_dataset(raw).to_bytes() != raw:
            failures += 1

    for trial in range(10):
        dims = ModelDims(p=int(rng.integers(1, 12)),
                         d1=int(rng.integers(1, 8)),
                         d2=int(rng.integers(1, 8)),
                         m=int(rng.integers(2, 5)),
                         layers=int(rng.integers(1, 4)),
                         hops=int(rng.integers(1, 3)),
                         pooling=("avg", "max", "sum")[trial % 3])
        model = init_model(dims, seed=trial)
        names = [f"label-{i}" for i in range(dims.m)]
        first = tmp_path / f"a{trial}.cgm1"
        second = tmp_path / f"b{trial}.cgm1"
        save_checkpoint(model, names, first)
        save_checkpoint(load_checkpoint(first).model, names, second)
        trials += 1
        if first.read_bytes() != second.read_bytes():
            failures += 1

    ok = failures == 0
    _report(capsys, 7, "serialization fuzz", ok,
            f"{trials - failures}/{trials} round trips bit-exact")
    assert ok


def test_criterion_8_real_traffic_benchmark(tmp_path, capsys):
    root = os.environ.get("CGNN_ISCX_ROOT")
    if not root:
        with capsys.disabled():
            print("[acceptance 8/8] real-traffic benchmark: SKIP "
                  "(set CGNN_ISCX_ROOT to a directory of per-label pcap "
                  "directories to run)", flush=True)
        pytest.skip("CGNN_ISCX_ROOT not set")

    from cgnn.cli import main
    data = tmp_path / "real.cgd1"
    assert main(["preprocess", root, str(data)]) == 0
    run = tmp_path / "run"
    assert main(["train", str(data), str(run)]) == 0

    from cgnn.dataset import load_dataset
    dataset = load_dataset(data)
    _, _, test_idx = split_dataset(dataset.graphs, seed=0)
    test = dataset.graphs[test_idx]
    checkpoint = load_checkpoint(run / "best.cgm1")
    _, accuracy = evaluate(checkpoint.model, test)
    ok = accuracy >= 0.90
    _report(capsys, 8, "real-traffic benchmark", ok,
            f"test accuracy {accuracy:.4f} >= 0.90")
    assert ok
