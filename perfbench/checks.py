"""Output checks for each pipeline stage, and a float64 reference forward pass
that `evaluate` is checked against.

Files are read through their documented formats (README "File formats"), not
through the program, so a defect in the program's readers cannot hide a
defect in its writers.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MATRIX_MAGIC = b"SSEVMAT1"
HEADER = len(MATRIX_MAGIC) + 8

# Scores are float32 outputs of a float32 network; the reference runs in
# float64. A score within SCORE_TOL of the threshold, or two scores within it
# of each other, may fall either way.
SCORE_TOL = 1e-6


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def split_sizes(n: int, ratio: float = 0.8) -> tuple[int, int]:
    """(train, test) rows of one class under the program's floor rule."""
    train = int(math.floor(ratio * n))
    return train, n - train


def matrix_shape(path: Path) -> tuple[int, int]:
    with open(path, "rb") as fh:
        head = fh.read(HEADER)
    expect(head[: len(MATRIX_MAGIC)] == MATRIX_MAGIC, f"{path.name}: bad magic")
    return struct.unpack_from("<II", head, len(MATRIX_MAGIC))


def matrix_labels(path: Path) -> np.ndarray:
    rows, cols = matrix_shape(path)
    with open(path, "rb") as fh:
        fh.seek(HEADER + rows * cols * 4)
        labels = np.frombuffer(fh.read(), dtype=np.uint8)
    expect(labels.size == rows, f"{path.name}: {labels.size} labels for {rows} rows")
    return labels


def matrix_values(path: Path) -> np.ndarray:
    rows, cols = matrix_shape(path)
    return np.fromfile(path, dtype="<f4", count=rows * cols, offset=HEADER).reshape(rows, cols)


def write_leading_columns(src: Path, dst: Path, cols: int) -> None:
    """Write a matrix file of the first `cols` columns of `src`, labels unchanged."""
    rows, width = matrix_shape(src)
    expect(cols <= width, f"{src.name} has {width} columns, fewer than {cols}")
    x = np.memmap(src, dtype="<f4", mode="r", offset=HEADER, shape=(rows, width))
    with open(dst, "wb") as fh:
        fh.write(MATRIX_MAGIC + struct.pack("<II", rows, cols))
        fh.write(np.ascontiguousarray(x[:, :cols]).tobytes())
        fh.write(matrix_labels(src).tobytes())
    del x


def class_counts(path: Path) -> tuple[int, int]:
    """(severe, mild) rows; labels are 0 = severe, 1 = mild."""
    labels = matrix_labels(path)
    return int((labels == 0).sum()), int((labels == 1).sum())


# ---------------------------------------------------------------------------
# per-stage checks; each returns a one-line summary or raises CheckFailed


def check_ingest(wd: Path, records: int) -> str:
    lines = (wd / "cohort.tsv").read_text(encoding="utf-8").splitlines()
    expect(len(lines) == records + 1, f"cohort.tsv has {len(lines) - 1} records, expected {records}")
    return f"cohort of {records} records"


def check_featurize(wd: Path, records: int, width: int) -> str:
    shape = matrix_shape(wd / "features.mat")
    expect(shape == (records, width), f"features.mat is {shape}, expected {(records, width)}")
    return f"features.mat {records} x {width}"


def check_split(wd: Path, severe: int, mild: int, width: int) -> str:
    (sev_train, sev_test), (mild_train, mild_test) = split_sizes(severe), split_sizes(mild)
    for name, want in (("train", (sev_train, mild_train)), ("test", (sev_test, mild_test))):
        path = wd / f"{name}.mat"
        expect(matrix_shape(path)[1] == width, f"{name}.mat width {matrix_shape(path)[1]} != {width}")
        got = class_counts(path)
        expect(got == want, f"{name}.mat severe/mild {got[0]}/{got[1]}, expected {want[0]}/{want[1]}")
    return f"severe/mild train {sev_train}/{mild_train}, test {sev_test}/{mild_test}, width {width}"


def check_balance(wd: Path, severe: int, mild: int, width: int) -> str:
    majority = max(split_sizes(severe)[0], split_sizes(mild)[0])
    cols = matrix_shape(wd / "balanced.mat")[1]
    expect(cols == width, f"balanced.mat width {cols} != {width}")
    got = class_counts(wd / "balanced.mat")
    expect(got == (majority, majority), f"balanced.mat severe/mild {got[0]}/{got[1]}, expected {majority} each")
    return f"balanced severe/mild {majority}/{majority}, width {width}"


def check_train(wd: Path) -> str:
    lines = (wd / "epochs.tsv").read_text(encoding="utf-8").splitlines()
    expect(len(lines) == 2, f"epochs.tsv has {len(lines) - 1} epochs, expected 1")
    loss = float(lines[1].split("\t")[1])
    expect(math.isfinite(loss), f"train loss {loss} is not finite")
    expect((wd / "model.ckpt").stat().st_size > 0, "model.ckpt is empty")
    return f"one epoch, train loss {loss:.6f}"


def read_confusion(wd: Path) -> tuple[int, int, int, int]:
    """(tn, fp, fn, tp) from confusion.tsv."""
    rows = (wd / "confusion.tsv").read_text(encoding="utf-8").splitlines()[1:]
    (tn, fp), (fn, tp) = ([int(v) for v in row.split("\t")[1:]] for row in rows)
    return tn, fp, fn, tp


def read_roc_auc(wd: Path) -> float:
    for line in (wd / "report.tsv").read_text(encoding="utf-8").splitlines():
        if line.startswith("roc_auc\t"):
            return float(line.split("\t")[2])
    raise CheckFailed("report.tsv has no roc_auc line")


def check_evaluate(wd: Path, labels: np.ndarray, reference: np.ndarray, threshold: float = 0.5) -> str:
    """Confusion totals and ROC-AUC against reference scores: only rows or
    pairs that the reference places within SCORE_TOL may go either way."""
    tn, fp, fn, tp = read_confusion(wd)
    pos, neg = labels == 1, labels == 0
    expect(tn + fp == neg.sum() and fn + tp == pos.sum(),
           f"confusion totals {tn + fp}/{fn + tp} != label counts {neg.sum()}/{pos.sum()}")
    sure = reference >= threshold + SCORE_TOL
    maybe = reference >= threshold - SCORE_TOL
    for name, got, cls in (("tp", tp, pos), ("fp", fp, neg)):
        low, high = int((sure & cls).sum()), int((maybe & cls).sum())
        expect(low <= got <= high, f"{name}={got} outside reference range [{low}, {high}]")

    neg_scores = np.sort(reference[neg])
    pos_scores = reference[pos]
    below = np.searchsorted(neg_scores, pos_scores - SCORE_TOL, side="left")
    upto = np.searchsorted(neg_scores, pos_scores + SCORE_TOL, side="right")
    pairs = pos_scores.size * neg_scores.size
    low, high = below.sum() / pairs, upto.sum() / pairs
    auc = read_roc_auc(wd)
    expect(low - 1e-6 <= auc <= high + 1e-6, f"roc_auc {auc:.6f} outside reference range [{low:.6f}, {high:.6f}]")
    return f"tn/fp/fn/tp {tn}/{fp}/{fn}/{tp}, roc_auc {auc:.6f}, both within the float64 reference"


# ---------------------------------------------------------------------------
# reference forward pass


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def reference_scores(specs, params, x: np.ndarray, chunk: int = 16) -> np.ndarray:
    """Inference-mode scores of a stock-shaped network in float64: valid
    convolution as one product over unfolded windows, max pool over whole tiles,
    dropout as identity, LSTM final hidden state, dense layers."""
    scores = []
    for start in range(0, x.shape[0], chunk):
        h = x[start : start + chunk].astype(np.float64)[:, :, None]
        for spec, p in zip(specs, params):
            kind = type(spec).__name__
            if kind == "Conv1DSpec":
                kernel, channels, filters = p["w"].shape
                windows = sliding_window_view(h, kernel, axis=1)  # (batch, out_len, channels, kernel)
                cols = windows.reshape(-1, channels * kernel)
                w = p["w"].astype(np.float64).transpose(1, 0, 2).reshape(channels * kernel, filters)
                h = (cols @ w + p["b"]).reshape(windows.shape[0], windows.shape[1], filters)
            elif kind == "MaxPool1DSpec":
                batch, length, channels = h.shape
                tiles = length // spec.pool
                h = h[:, : tiles * spec.pool].reshape(batch, tiles, spec.pool, channels).max(axis=2)
            elif kind == "LSTMSpec":
                w, u, b = (p[k].astype(np.float64) for k in ("w", "u", "b"))
                units = u.shape[0]
                xw = h @ w + b
                hidden = np.zeros((h.shape[0], units))
                cell = np.zeros_like(hidden)
                for t in range(h.shape[1]):
                    z = xw[:, t] + hidden @ u
                    i, f, o = (_sigmoid(z[:, k * units : (k + 1) * units]) for k in (0, 1, 3))
                    cell = f * cell + i * np.tanh(z[:, 2 * units : 3 * units])
                    hidden = o * np.tanh(cell)
                h = hidden
            elif kind == "DenseSpec":
                z = h @ p["w"].astype(np.float64) + p["b"]
                h = np.maximum(z, 0.0) if spec.activation == "relu" else (
                    _sigmoid(z) if spec.activation == "sigmoid" else z)
            elif kind != "DropoutSpec":
                raise CheckFailed(f"reference pass has no rule for {kind}")
        scores.append(h.reshape(-1))
    return np.concatenate(scores)
