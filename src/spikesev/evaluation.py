"""Confusion matrix, classification metrics under named averaging
conventions, and rank-based ROC-AUC.

The positive class is label 1 (mild). Precision, recall and F1 are reported
under three conventions side by side, because the class-conditional,
macro-averaged and support-weighted values of the same metric can differ
substantially on imbalanced data; every reported number is labeled with its
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONVENTIONS = ("positive", "macro", "weighted")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def to_tsv(self) -> str:
        return (
            "\tpredicted_negative\tpredicted_positive\n"
            f"actual_negative\t{self.tn}\t{self.fp}\n"
            f"actual_positive\t{self.fn}\t{self.tp}\n"
        )


def check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")


def confusion(y_true, scores, threshold: float = 0.5) -> ConfusionMatrix:
    check_threshold(threshold)
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError(f"length mismatch: {y.shape} labels vs {s.shape} scores")
    if y.size == 0:
        raise ValueError("empty input")
    if not (s.min() >= 0.0 and s.max() <= 1.0):  # a NaN score makes min and max NaN
        raise ValueError("scores must lie in [0, 1]")
    pred = s >= threshold
    actual = y == 1
    return ConfusionMatrix(
        tp=int(np.sum(pred & actual)),
        tn=int(np.sum(~pred & ~actual)),
        fp=int(np.sum(pred & ~actual)),
        fn=int(np.sum(~pred & actual)),
    )


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def basic_rates(cm: ConfusionMatrix) -> tuple[float | None, float | None, float | None]:
    """(sensitivity, specificity, accuracy); None where the denominator is 0."""
    return (
        _ratio(cm.tp, cm.tp + cm.fn),
        _ratio(cm.tn, cm.tn + cm.fp),
        _ratio(cm.tp + cm.tn, cm.total),
    )


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    degenerate: bool  # some per-class value was undefined and entered as 0


def _class_prf(tp: int, fp: int, fn: int) -> tuple[float | None, float | None, float | None]:
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    if precision is None or recall is None or precision + recall == 0.0:
        f1 = None if precision is None or recall is None else 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def prf(cm: ConfusionMatrix, convention: str) -> PRF:
    """Per-class precision/recall/F1 combined under the given convention.

    Positive takes class 1 alone; macro averages over classes that are
    present (support > 0); weighted uses supports as weights. Undefined
    per-class values count as 0 and set the degenerate flag.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    per_class = {
        1: _class_prf(cm.tp, cm.fp, cm.fn),
        0: _class_prf(cm.tn, cm.fn, cm.fp),
    }
    supports = {1: cm.tp + cm.fn, 0: cm.tn + cm.fp}

    classes = [1] if convention == "positive" else [c for c in (0, 1) if supports[c] > 0]
    degenerate = convention != "positive" and len(classes) < 2
    sums = [0.0, 0.0, 0.0]
    weight_total = 0.0
    for c in classes:
        weight = float(supports[c]) if convention == "weighted" else 1.0
        weight_total += weight
        for j, value in enumerate(per_class[c]):
            if value is None:
                degenerate = True
                value = 0.0
            sums[j] += weight * value
    return PRF(sums[0] / weight_total, sums[1] / weight_total, sums[2] / weight_total, degenerate)


def roc_auc(y_true, scores) -> float:
    """Probability a random positive outscores a random negative (ties 1/2).

    Computed from midranks; equivalent to counting over all positive-negative
    pairs and to the trapezoidal ROC integral.
    """
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.size == 0:
        raise ValueError("labels and scores must be equal-length and non-empty")
    if np.isnan(s).any():
        raise ValueError("scores contain NaN")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs both classes present")
    # Ranks 1..n, tied scores sharing the mean of their rank range.
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = ((2 * ends - counts + 1) / 2)[inverse]
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    accuracy: float | None
    prf_by_convention: dict[str, PRF]
    roc_auc: float
    sensitivity: float | None
    specificity: float | None
    threshold: float


def evaluate_scores(y_true, scores, threshold: float = 0.5) -> EvalReport:
    cm = confusion(y_true, scores, threshold)
    sensitivity, specificity, accuracy = basic_rates(cm)
    return EvalReport(
        confusion=cm,
        accuracy=accuracy,
        prf_by_convention={c: prf(cm, c) for c in CONVENTIONS},
        roc_auc=roc_auc(y_true, scores),
        sensitivity=sensitivity,
        specificity=specificity,
        threshold=threshold,
    )


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def report_tsv(report: EvalReport) -> str:
    lines = ["metric\tconvention\tvalue"]
    lines.append(f"accuracy\t-\t{_fmt(report.accuracy)}")
    lines.append(f"sensitivity\tpositive-class recall\t{_fmt(report.sensitivity)}")
    lines.append(f"specificity\tnegative-class recall\t{_fmt(report.specificity)}")
    lines.append(f"roc_auc\trank-based\t{report.roc_auc:.6f}")
    for convention in CONVENTIONS:
        r = report.prf_by_convention[convention]
        flag = " (degenerate)" if r.degenerate else ""
        lines.append(f"precision\t{convention}{flag}\t{r.precision:.6f}")
        lines.append(f"recall\t{convention}{flag}\t{r.recall:.6f}")
        lines.append(f"f1\t{convention}{flag}\t{r.f1:.6f}")
    lines.append(f"threshold\t-\t{report.threshold:.6f}")
    return "\n".join(lines) + "\n"


def report_text(report: EvalReport) -> str:
    cm = report.confusion
    lines = [
        "confusion matrix (rows: actual, columns: predicted; positive = mild = 1)",
        f"  actual negative: tn={cm.tn}  fp={cm.fp}",
        f"  actual positive: fn={cm.fn}  tp={cm.tp}",
        f"accuracy     {_fmt(report.accuracy)}",
        f"sensitivity  {_fmt(report.sensitivity)}   (recall of the positive class)",
        f"specificity  {_fmt(report.specificity)}   (recall of the negative class)",
        f"roc_auc      {report.roc_auc:.6f}   (rank-based)",
    ]
    for convention in CONVENTIONS:
        r = report.prf_by_convention[convention]
        note = "  [degenerate: some per-class value undefined, counted as 0]" if r.degenerate else ""
        lines.append(
            f"{convention:<9} precision={r.precision:.6f} recall={r.recall:.6f} f1={r.f1:.6f}{note}"
        )
    lines.append(f"threshold    {report.threshold:.6f}")
    lines.append("note: each figure is labeled with its averaging convention; the")
    lines.append("conventions do not agree on imbalanced data, so compare like with like.")
    return "\n".join(lines) + "\n"
