"""Evaluation: confusion matrix, per-class precision and recall,
accuracy, and a row-normalized heat-map CSV of the confusion matrix.

Each class is scored one-vs-rest: precision TP/(TP+FP) and recall
TP/(TP+FN), both defined as 0 when their denominator is 0. Accuracy is
correct predictions over all predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_csv


@dataclass
class EvalReport:
    """Scores for one evaluation run."""

    label_names: list[str]
    confusion: np.ndarray  # (m, m) counts, rows true, columns predicted
    accuracy: float
    precision: np.ndarray  # (m,) one-vs-rest
    recall: np.ndarray  # (m,)
    macro_precision: float
    macro_recall: float


def _safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def classification_report(true: np.ndarray, pred: np.ndarray,
                          label_names: list[str],
                          weighted: bool = False) -> EvalReport:
    """Score predictions against true labels.

    Macro averages weigh every class equally; with weighted=True they
    are weighed by class support instead.
    """
    m = len(label_names)
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    diag = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1)
    precision = _safe_divide(diag, counts.sum(axis=0))
    recall = _safe_divide(diag, support)
    weights = support / support.sum() if weighted else np.full(m, 1.0 / m)
    return EvalReport(
        label_names=list(label_names),
        confusion=counts,
        accuracy=float(diag.sum() / counts.sum()),
        precision=precision,
        recall=recall,
        macro_precision=float(precision @ weights),
        macro_recall=float(recall @ weights),
    )


def write_heatmap_csv(report: EvalReport, path: Path | str) -> None:
    """Row-normalized confusion matrix as CSV: one row per true class,
    one column per predicted class, fractions in [0, 1]; a class with no
    graphs has a row of zeros."""
    counts = report.confusion
    fractions = _safe_divide(counts.astype(np.float64),
                             counts.sum(axis=1, keepdims=True))
    atomic_write_csv(path, [["true\\predicted", *report.label_names]] + [
        [name, *(f"{v:.6f}" for v in row)]
        for name, row in zip(report.label_names, fractions)])


def format_report(report: EvalReport) -> str:
    """Human-readable score table for the terminal."""
    width = max(5, max(len(name) for name in report.label_names))
    lines = [f"{'class':<{width}}  {'precision':>9}  {'recall':>9}  "
             f"{'support':>7}"]
    support = report.confusion.sum(axis=1)
    for i, name in enumerate(report.label_names):
        lines.append(f"{name:<{width}}  {report.precision[i]:>9.4f}  "
                     f"{report.recall[i]:>9.4f}  {support[i]:>7d}")
    lines.append("")
    lines.append(f"accuracy        {report.accuracy:.4f}")
    lines.append(f"macro precision {report.macro_precision:.4f}")
    lines.append(f"macro recall    {report.macro_recall:.4f}")
    return "\n".join(lines)
