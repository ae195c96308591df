"""Confusion matrices, per-class scores, and the heat-map CSV."""

from __future__ import annotations

import numpy as np
import pytest

from cgnn.metrics import (classification_report, format_report,
                          write_heatmap_csv)


def scored(counts, label_names: list[str], **kwargs):
    """classification_report of (true, pred) pairs, counts[i][j] of them
    with true class i predicted as j."""
    counts = np.asarray(counts)
    true, pred = (np.repeat(axis.ravel(), counts.ravel())
                  for axis in np.indices(counts.shape))
    return classification_report(true, pred, label_names, **kwargs)


def heatmap(counts, tmp_path) -> list[list[float]]:
    """The fractions write_heatmap_csv writes for the given counts."""
    path = tmp_path / "confusion.csv"
    write_heatmap_csv(scored(counts, ["a", "b"]), path)
    return [[float(v) for v in line.split(",")[1:]]
            for line in path.read_text().splitlines()[1:]]


# --- confusion matrix --------------------------------------------------------

def test_perfect_predictions_fill_the_diagonal():
    true = np.array([0, 1, 2, 0, 1, 2])
    counts = classification_report(true, true, ["a", "b", "c"]).confusion
    assert np.array_equal(counts, np.diag([2, 2, 2]))


def test_known_tally():
    counts = classification_report(np.array([0, 0, 1]), np.array([0, 1, 1]),
                                   ["a", "b"]).confusion
    assert counts.tolist() == [[1, 1], [0, 1]]


def test_matrix_total_equals_sample_count(rng):
    true = rng.integers(0, 4, size=100)
    pred = rng.integers(0, 4, size=100)
    report = classification_report(true, pred, ["a", "b", "c", "d"])
    assert report.confusion.sum() == 100


# --- report ------------------------------------------------------------------

def test_known_precision_and_recall():
    # Class 0: 3 correct, 1 false positive, 1 false negative.
    counts = np.array([[3, 1], [1, 5]])
    report = scored(counts, ["a", "b"])
    assert report.precision[0] == pytest.approx(0.75)
    assert report.recall[0] == pytest.approx(0.75)
    assert report.precision[1] == pytest.approx(5 / 6)
    assert report.recall[1] == pytest.approx(5 / 6)
    assert report.accuracy == pytest.approx(0.8)


def test_perfect_diagonal_scores_one():
    report = scored(np.diag([4, 2, 9]), ["a", "b", "c"])
    assert report.precision.tolist() == [1.0, 1.0, 1.0]
    assert report.recall.tolist() == [1.0, 1.0, 1.0]
    assert report.accuracy == 1.0
    assert report.macro_precision == 1.0
    assert report.macro_recall == 1.0


def test_absent_class_scores_zero_not_nan():
    # Nothing was ever labeled or predicted as class 1.
    counts = np.array([[5, 0], [0, 0]])
    report = scored(counts, ["seen", "unseen"])
    assert report.precision[1] == 0.0
    assert report.recall[1] == 0.0
    assert np.isfinite(report.precision).all()


def test_accuracy_is_trace_over_total(rng):
    true = rng.integers(0, 3, size=60)
    pred = rng.integers(0, 3, size=60)
    report = classification_report(true, pred, ["a", "b", "c"])
    counts = report.confusion
    assert report.accuracy == pytest.approx(np.trace(counts) / counts.sum())


def test_precision_times_predicted_count_recovers_diagonal(rng):
    true = rng.integers(0, 3, size=80)
    pred = rng.integers(0, 3, size=80)
    report = classification_report(true, pred, ["a", "b", "c"])
    predicted = report.confusion.sum(axis=0)
    recovered = report.precision * predicted
    assert np.abs(recovered - np.diag(report.confusion)).max() <= 1e-9


def test_scores_follow_a_class_permutation(rng):
    true = rng.integers(0, 3, size=50)
    pred = rng.integers(0, 3, size=50)
    base = classification_report(true, pred, ["a", "b", "c"])
    perm = np.array([2, 0, 1])
    swapped = classification_report(perm[true], perm[pred], ["a", "b", "c"])
    assert swapped.accuracy == pytest.approx(base.accuracy)
    for i in range(3):
        assert swapped.precision[perm[i]] == pytest.approx(base.precision[i])
        assert swapped.recall[perm[i]] == pytest.approx(base.recall[i])


def test_weighted_macro_weighs_by_support():
    # 9 of 10 samples are class 0 and perfectly predicted; class 1's
    # single sample is missed.
    counts = np.array([[9, 0], [1, 0]])
    plain = scored(counts, ["a", "b"])
    weighted = scored(counts, ["a", "b"], weighted=True)
    assert plain.macro_recall == pytest.approx(0.5)
    assert weighted.macro_recall == pytest.approx(0.9)


def test_macro_average_of_per_class_scores():
    counts = np.array([[3, 1], [1, 5]])
    report = scored(counts, ["a", "b"])
    assert report.macro_precision == pytest.approx(
        report.precision.mean())
    assert report.macro_recall == pytest.approx(report.recall.mean())


# --- normalization and output ------------------------------------------------

def test_normalized_rows_are_fractions(tmp_path):
    fractions = heatmap([[1, 1], [0, 2]], tmp_path)
    assert fractions == [[0.5, 0.5], [0.0, 1.0]]


def test_normalized_empty_row_stays_zero(tmp_path):
    fractions = heatmap([[0, 0], [1, 3]], tmp_path)
    assert fractions[0] == [0.0, 0.0]
    assert sum(fractions[1]) == pytest.approx(1.0)


def test_heatmap_csv_layout(tmp_path):
    counts = np.array([[1, 1], [0, 2]])
    report = scored(counts, ["chat", "mail"])
    path = tmp_path / "confusion.csv"
    write_heatmap_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "true\\predicted,chat,mail"
    assert lines[1] == "chat,0.500000,0.500000"
    assert lines[2] == "mail,0.000000,1.000000"
    assert len(lines) == 3


def test_heatmap_csv_rows_parse_back(tmp_path, rng):
    true = rng.integers(0, 3, size=40)
    pred = rng.integers(0, 3, size=40)
    report = classification_report(true, pred, ["a", "b", "c"])
    path = tmp_path / "confusion.csv"
    write_heatmap_csv(report, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    parsed = np.array([[float(v) for v in row[1:]] for row in rows])
    counts = report.confusion
    assert counts.sum(axis=1).min() > 0
    assert np.abs(parsed - counts / counts.sum(axis=1, keepdims=True)).max() \
        <= 1e-6
    assert [row[0] for row in rows] == ["a", "b", "c"]


def test_format_report_mentions_every_score():
    counts = np.array([[3, 1], [1, 5]])
    text = format_report(scored(counts, ["chat", "mail"]))
    assert "chat" in text and "mail" in text
    assert "accuracy" in text and "0.8000" in text
    assert "macro precision" in text
    assert "0.7500" in text  # class 0 precision
