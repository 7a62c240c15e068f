"""Model-ready dataset assembly: covariate encoding, feature concatenation
with zero padding, stratified splitting, SMOTE balancing and the on-disk
matrix format.

Labels are binary: mild = 1 (the positive class), severe = 0.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .config import DEFAULT_N_MODEL
from .ingest import Severity, SpikeRecord
from .scales import ScalesRegistry
from .seqfeatures import GLOBAL_DESCRIPTOR_LENGTH, write_sequence_features

LABEL_OF = {Severity.MILD: 1, Severity.SEVERE: 0}

# Fixed field order of the one-hot covariate blocks.
COVARIATE_FIELDS = ("gender", "age", "clade", "lineage")

MATRIX_MAGIC = b"SSEVMAT1"

# The most columns the u32 column count of the matrix header holds.
MATRIX_MAX_COLS = 2**32 - 1

# Bytes of the one reused row block through which `write_features` and
# `write_split` stream a matrix to disk.
MATRIX_BLOCK_BYTES = 16 << 20

# Bytes of the one reused float64 (rows, minority rows) block of approximate
# squared distances through which `smote` searches for neighbours.
NEIGHBOR_BLOCK_BYTES = 1 << 20


class MatrixFormatError(ValueError):
    pass


class CodebookFormatError(ValueError):
    pass


@dataclass(frozen=True)
class CovariateCodebook:
    """Per-field category vocabularies, fixed after fitting.

    Categories are stored as strings in lexicographic order; ages are their
    decimal representations. Values unseen at fit time encode to an
    all-zero block.
    """

    categories: dict[str, tuple[str, ...]]

    @property
    def width(self) -> int:
        return sum(len(v) for v in self.categories.values())

    def to_text(self, registry_hash: str) -> str:
        lines = ["# covariate codebook v1", f"# registry_hash {registry_hash}", "# age_binning exact"]
        for fieldname in COVARIATE_FIELDS:
            lines.extend(f"{fieldname}\t{value}" for value in self.categories[fieldname])
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> tuple["CovariateCodebook", str]:
        """Parse `to_text` output into the codebook and the registry hash it
        was stamped with. First lines other than `# covariate codebook v1`
        and `# registry_hash <hash>`, a malformed line, or an age binning
        other than `exact` (one category per integer age), raises
        CodebookFormatError."""
        lines = text.splitlines()
        cats: dict[str, list[str]] = {f: [] for f in COVARIATE_FIELDS}
        for lineno, line in enumerate(lines, start=1):
            if line.startswith("# age_binning"):
                age_binning = line[len("# age_binning"):].strip()
                if age_binning != "exact":
                    raise CodebookFormatError(f"line {lineno}: unknown age binning {age_binning!r}")
                continue
            if not line.strip() or line.startswith("#"):
                continue
            fieldname, tab, value = line.partition("\t")
            if not tab:
                raise CodebookFormatError(f"line {lineno}: no tab after the field in {line!r}")
            if fieldname not in cats:
                raise CodebookFormatError(f"line {lineno}: unknown covariate field {fieldname!r}")
            if value in cats[fieldname]:
                raise CodebookFormatError(f"line {lineno}: duplicate {fieldname} value {value!r}")
            cats[fieldname].append(value)
        if lines[:1] != ["# covariate codebook v1"]:
            raise CodebookFormatError("line 1: expected '# covariate codebook v1'")
        tag, _, registry_hash = (lines[1:2] or [""])[0].rpartition(" ")
        if tag != "# registry_hash":
            raise CodebookFormatError("line 2: expected '# registry_hash <hash>'")
        return cls(categories={f: tuple(v) for f, v in cats.items()}), registry_hash


def fit_codebook(records: list[SpikeRecord]) -> CovariateCodebook:
    if not records:
        raise ValueError("cannot fit a codebook on an empty record list")
    values: dict[str, set[str]] = {f: set() for f in COVARIATE_FIELDS}
    for rec in records:
        for fieldname in COVARIATE_FIELDS:
            values[fieldname].add(str(getattr(rec, fieldname)))
    return CovariateCodebook(categories={f: tuple(sorted(v)) for f, v in values.items()})


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Rows x (float32, n x d), labels y (uint8, 1 = mild, 0 = severe) and
    row-aligned accessions ids ("-" where unknown)."""

    x: np.ndarray
    y: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float32))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.uint8))
        object.__setattr__(self, "ids", tuple(self.ids))
        n = len(self.y)
        if self.x.ndim != 2 or len(self.x) != n or self.y.ndim != 1 or len(self.ids) != n:
            raise ValueError(
                f"{self.x.shape} rows, {self.y.shape} labels and {len(self.ids)} ids do not align"
            )

    def __len__(self) -> int:
        return len(self.y)

    @classmethod
    def concatenate(cls, parts: list["FeatureMatrix"]) -> "FeatureMatrix":
        """The rows of `parts`, one after the other."""
        return cls(
            np.concatenate([p.x for p in parts]),
            np.concatenate([p.y for p in parts]),
            tuple(a for p in parts for a in p.ids),
        )

    def take(self, idx: np.ndarray) -> "FeatureMatrix":
        """The rows at `idx`, in that order."""
        return FeatureMatrix(self.x[idx], self.y[idx], tuple(self.ids[i] for i in idx))


def _covariate_offsets(codebook: CovariateCodebook) -> list[tuple[str, dict[str, int]]]:
    """Each field with the offset of each of its categories in the
    covariate block: the fields in COVARIATE_FIELDS order, each one-hot
    over its sorted categories."""
    offsets, start = [], 0
    for fieldname in COVARIATE_FIELDS:
        cats = codebook.categories[fieldname]
        offsets.append((fieldname, {value: start + i for i, value in enumerate(cats)}))
        start += len(cats)
    return offsets


def _check_model_length(n_model: int, codebook: CovariateCodebook) -> None:
    if n_model - codebook.width < GLOBAL_DESCRIPTOR_LENGTH:
        raise ValueError(
            f"model length too small: need at least {GLOBAL_DESCRIPTOR_LENGTH + codebook.width}, got {n_model}"
        )
    if n_model > MATRIX_MAX_COLS:
        raise ValueError(f"model length too large: a feature matrix holds at most {MATRIX_MAX_COLS} columns, "
                         f"got {n_model}")


def _fill_rows(
    x: np.ndarray, records: Sequence[SpikeRecord], registry: ScalesRegistry, codebook: CovariateCodebook
) -> int:
    """Write the `featurize` row of each record into the float32 rows of `x`,
    every slot of them, whose width `_check_model_length` has passed; return
    the number of truncated residue blocks."""
    head = x.shape[1] - codebook.width
    offsets = _covariate_offsets(codebook)
    truncated = 0
    for row, record in zip(x, records):
        size = write_sequence_features(row[:head], record.sequence, registry)
        truncated += size > head
        start = min(size, head)
        row[start:] = 0.0
        for fieldname, index in offsets:
            offset = index.get(str(getattr(record, fieldname)))
            if offset is not None:
                row[start + offset] = 1.0
    return truncated


def featurize(
    records: list[SpikeRecord],
    registry: ScalesRegistry,
    codebook: CovariateCodebook,
    n_model: int = DEFAULT_N_MODEL,
) -> tuple[FeatureMatrix, int]:
    """One row per record, [global | residue rows (row-major) | covariates |
    zero padding], written into one float32 matrix; and the number of records
    whose residue block was truncated.

    Each row is filled in place: the global descriptors are rounded to
    float32 on store, the residue rows are gathered from the float32
    weighted residue table, and each covariate is a 1.0 at its codebook
    offset. A residue block that does not fit is truncated at the tail.
    """
    _check_model_length(n_model, codebook)
    x = np.empty((len(records), n_model), dtype=np.float32)
    truncated = _fill_rows(x, records, registry, codebook)
    labels = [LABEL_OF[r.label] for r in records]
    return FeatureMatrix(x, labels, [r.accession_id for r in records]), truncated


def _row_blocks(rows: int, cols: int, fill: Callable[[np.ndarray, int], None]) -> Iterator[np.ndarray]:
    """The `rows` rows of a `cols`-wide matrix as parts of one reused float32
    block of MATRIX_BLOCK_BYTES (at least one row); `fill(part, start)` writes
    rows `start`, `start + 1`, ... into each part before it is yielded."""
    block = np.empty((max(1, min(rows, MATRIX_BLOCK_BYTES // (4 * cols))), cols), dtype=np.float32)
    for start in range(0, rows, len(block)):
        part = block[: rows - start]
        fill(part, start)
        yield part


def write_features(
    records: list[SpikeRecord],
    registry: ScalesRegistry,
    codebook: CovariateCodebook,
    n_model: int,
    path: str | Path,
) -> int:
    """`write_matrix(featurize(records, registry, codebook, n_model)[0], path)`,
    with the rows filled one reused block at a time, so the matrix is never
    held whole; return the number of truncated records."""
    _check_model_length(n_model, codebook)
    truncated = []

    def fill(part: np.ndarray, start: int) -> None:
        truncated.append(_fill_rows(part, records[start : start + len(part)], registry, codebook))

    blocks = _row_blocks(len(records), n_model, fill)
    labels = [LABEL_OF[r.label] for r in records]
    write_matrix_blocks(path, n_model, blocks, labels, [r.accession_id for r in records])
    return sum(truncated)


def assemble(
    record: SpikeRecord,
    registry: ScalesRegistry,
    codebook: CovariateCodebook,
    n_model: int = DEFAULT_N_MODEL,
) -> FeatureMatrix:
    """The one-row matrix `featurize` builds for `record`."""
    return featurize([record], registry, codebook, n_model)[0]


@dataclass(frozen=True)
class DatasetSplit:
    train: FeatureMatrix
    test: FeatureMatrix


def split_indices(y: np.ndarray, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class seeded shuffle of the labels `y`; floor(ratio * n_class) of
    each class to train, the rest to test.

    Deterministic given the seed; both index arrays are sorted, so each part
    keeps the input order of its members.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    by_class = [np.flatnonzero(y == label) for label in (0, 1)]
    for label, idxs in enumerate(by_class):
        if not idxs.size:
            raise ValueError(f"class {label} has no records")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for idxs in by_class:
        rng.shuffle(idxs)
        n_train = int(np.floor(ratio * len(idxs)))
        train_idx.append(idxs[:n_train])
        test_idx.append(idxs[n_train:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def stratified_split(m: FeatureMatrix, ratio: float, seed: int) -> DatasetSplit:
    """The rows of `m` at each part of `split_indices(m.y, ratio, seed)`."""
    train_idx, test_idx = split_indices(m.y, ratio, seed)
    return DatasetSplit(train=m.take(train_idx), test=m.take(test_idx))


def check_smote(y: np.ndarray, k: int) -> None:
    """Every precondition of `smote` with `k` on labels `y`: k >= 1, and at
    least two minority rows unless the classes are equal."""
    if k < 1:
        raise ValueError("smote_k must be >= 1")
    counts = np.bincount(y, minlength=2)
    if counts[0] != counts[1] and counts.min() < 2:
        raise ValueError("SMOTE requires >=2 minority samples")


def _nearest_neighbors(rows: np.ndarray, k: int) -> np.ndarray:
    """Row i of the result is the first k of the stable argsort of
    `np.sqrt(((rows[i] - rows) ** 2).sum(axis=1))` with entry i set to inf:
    the k nearest of the other float64 `rows` (float32 values, n x d), ties
    to the lower index and NaN last. Found in the two passes `smote`
    describes, through one reused block of NEIGHBOR_BLOCK_BYTES."""
    n, d = rows.shape
    norms = np.einsum("ij,ij->i", rows, rows)
    # The margin e_i bounds |GEMM form - exact form| for a finite pair. Let
    # u = 2**-53 and N = |x_i|^2 + |x_j|^2. The rows hold float32 values, so
    # every product of two is exact in float64, and a sum of m terms in any
    # order, with or without FMA, is off by at most (m - 1)u times the sum
    # of the terms' sizes (here and below to first order).
    # - Exact form: the difference, its square and the sum of d squares put
    #   each term off by (d + 2)u of itself, and the terms sum to at most 2N.
    # - GEMM form: each norm is off by (d - 1)u of itself, 2 x_i.x_j by
    #   (d - 1)u N (sum |x_it x_jt| <= N / 2), and its two additions round
    #   by at most 2uN and 3uN.
    # In all under (4d + 7)uN; e_i = (6d + 32)uN_i, N_i = |x_i|^2 +
    # max_j |x_j|^2, leaves room for second-order terms and the rounding of
    # e and the limit. A row or pair with inf or NaN has a non-finite GEMM
    # value and an inf or NaN exact distance, which sorts after every finite
    # one; a non-finite row i gets an inf or NaN limit, so every j.
    margin = (3 * d + 16) * 2.0**-52 * (norms + np.max(norms, where=np.isfinite(norms), initial=0.0))
    neighbor_idx = np.empty((n, k), dtype=np.int64)
    buffer = np.empty((max(1, min(n, NEIGHBOR_BLOCK_BYTES // (8 * n))), n))
    for lo in range(0, n, len(buffer)):
        block = np.matmul(rows[lo : lo + len(buffer)], rows.T, out=buffer[: n - lo])
        block *= -2.0
        block += norms[lo : lo + len(block), None]
        block += norms
        for i, approx in enumerate(block, start=lo):
            approx[i] = np.inf
            kth = np.partition(approx, k - 1)[k - 1]
            # The k-th smallest exact sum is at most kth + e_i, and a sum
            # above it by a factor 1 + 8u has a larger square root even after
            # both roots round: any j above the limit comes after k others.
            # The limit is monotone in kth and at least kth + 4e_i, also for
            # a kth slightly below zero (duplicate rows).
            top = kth + 2 * margin[i]
            cand = np.flatnonzero(~(approx > top + abs(top) * 2.0**-48 + 2 * margin[i]))
            dists = np.sqrt(((rows[i] - rows[cand]) ** 2).sum(axis=1))
            dists[cand == i] = np.inf
            neighbor_idx[i] = cand[np.argsort(dists, kind="stable")[:k]]
    return neighbor_idx


def smote(m: FeatureMatrix, k: int = 5, seed: int = 0) -> FeatureMatrix:
    """Balance classes by interpolating synthetic minority samples.

    Each synthetic sample is x + lam * (z - x) for a random minority sample x,
    one of its k nearest minority neighbours z (Euclidean) and lam ~ U[0, 1],
    computed in float64 and stored as float32. The original rows come first,
    unchanged, then the synthetics, all written into one float32 matrix.

    The neighbours are found in two passes (`_nearest_neighbors`). One GEMM
    per block of minority rows gives approximate squared distances
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j, and every row whose value is not above a
    row's k-th smallest plus a rounding margin (NaN and inf included) is its
    candidate. The candidates are then ranked by their exact Euclidean
    distance, ties to the lower row. The margin bounds the GEMM's rounding
    for any summation order, so the candidates always hold the exact first
    k: the neighbours, and the output bytes, depend neither on the BLAS nor
    on its thread count, and no n x n array is held.
    """
    check_smote(m.y, k)
    counts = np.bincount(m.y, minlength=2)
    if counts[0] == counts[1]:
        return m
    minority = 0 if counts[0] < counts[1] else 1
    n_min, n_maj = int(counts[minority]), int(counts[1 - minority])
    k = min(k, n_min - 1)

    minority_rows = m.x[m.y == minority].astype(np.float64)
    neighbor_idx = _nearest_neighbors(minority_rows, k)

    rng = np.random.default_rng(seed)
    n = len(m)
    x = np.empty((n + n_maj - n_min, m.x.shape[1]), dtype=np.float32)
    x[:n] = m.x
    for i in range(n, len(x)):
        x_i = int(rng.integers(0, n_min))
        z_i = int(neighbor_idx[x_i, int(rng.integers(0, k))])
        lam = float(rng.random())
        x[i] = minority_rows[x_i] + lam * (minority_rows[z_i] - minority_rows[x_i])
    y = np.concatenate([m.y, np.full(len(x) - n, minority, dtype=np.uint8)])
    return FeatureMatrix(x, y, m.ids + tuple(f"synthetic-{i}" for i in range(len(x) - n)))


def to_arrays(m: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    return m.x, m.y


def write_matrix(m: FeatureMatrix | list[FeatureMatrix], path: str | Path) -> None:
    """Binary matrix (magic, u32 rows, u32 cols, f32 LE payload, u8 labels)
    plus its `.ids` sidecar, one accession per row. A list of matrices, such
    as `assemble` rows, is written as their concatenation."""
    if not len(m):
        raise ValueError("refusing to write an empty matrix")
    if not isinstance(m, FeatureMatrix):
        m = FeatureMatrix.concatenate(m)
    write_matrix_blocks(path, m.x.shape[1], [m.x], m.y, m.ids)


def write_matrix_blocks(
    path: str | Path, cols: int, blocks: Iterable[np.ndarray], y: Sequence[int], ids: Sequence[str]
) -> None:
    """The `write_matrix` format from blocks of rows: the header, each block
    of `cols` float32 columns in turn, then the labels `y`; then the `.ids`
    sidecar. The payload goes to a temporary file next to `path` that
    replaces `path` only once every block is written, so a failure while
    the blocks are made leaves `path` as it was and no temporary file."""
    if not len(y):
        raise ValueError("refusing to write an empty matrix")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MATRIX_MAGIC)
            fh.write(struct.pack("<II", len(y), cols))
            rows = 0
            for block in blocks:
                np.ascontiguousarray(block, dtype="<f4").tofile(fh)
                rows += len(block)
            if rows != len(y):
                raise ValueError(f"{rows} matrix rows for {len(y)} labels")
            np.asarray(y, dtype=np.uint8).tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    path.with_suffix(".ids").write_text("".join(f"{a}\n" for a in ids), encoding="utf-8")


def _open_matrix(fh: BinaryIO, path: str | Path) -> tuple[int, np.ndarray, list[str]]:
    """The column count, labels and accessions of the matrix file open as
    `fh`, after checking all of it but the payload, which is left unread
    with `fh` at its start: the magic and header, the exact file size, a
    label byte other than 0 or 1 and a `.ids` sidecar of another row count
    are refused. The accessions are all "-" if there is no sidecar."""
    path = Path(path)
    header_bytes = len(MATRIX_MAGIC) + 8
    header = fh.read(header_bytes)
    if len(header) < header_bytes:
        raise MatrixFormatError(f"{path}: truncated header")
    if header[: len(MATRIX_MAGIC)] != MATRIX_MAGIC:
        raise MatrixFormatError(f"{path}: bad magic, not a feature matrix file")
    rows, cols = struct.unpack_from("<II", header, len(MATRIX_MAGIC))
    size = os.fstat(fh.fileno()).st_size
    expected = header_bytes + rows * cols * 4 + rows
    if size < expected:
        raise MatrixFormatError(f"{path}: truncated payload (expected {expected} bytes, got {size})")
    if size > expected:
        raise MatrixFormatError(f"{path}: payload size inconsistent with header dimensions")
    fh.seek(expected - rows)
    y = np.fromfile(fh, dtype=np.uint8, count=rows)
    if (y > 1).any():
        raise MatrixFormatError(f"{path}: labels must be 0 (severe) or 1 (mild)")
    ids_path = path.with_suffix(".ids")
    ids = ids_path.read_text(encoding="utf-8").splitlines() if ids_path.exists() else ["-"] * rows
    if len(ids) != rows:
        raise MatrixFormatError(f"{ids_path}: {len(ids)} accessions for {rows} matrix rows")
    fh.seek(header_bytes)
    return cols, y, ids


def read_matrix(path: str | Path) -> FeatureMatrix:
    """The matrix at `path` with the accessions of its `.ids` sidecar; all
    "-" if there is none. A sidecar of another row count is refused."""
    with open(path, "rb") as fh:
        cols, y, ids = _open_matrix(fh, path)
        x = np.fromfile(fh, dtype="<f4", count=len(y) * cols).reshape(len(y), cols)
    return FeatureMatrix(x, y, ids)


def write_split(
    path: str | Path, ratio: float, seed: int, train_path: str | Path, test_path: str | Path
) -> tuple[np.ndarray, np.ndarray]:
    """`write_matrix` of each part of `stratified_split(read_matrix(path),
    ratio, seed)` to `train_path` and `test_path`; return the parts' row
    indices. Each part's rows are read by offset from the file at `path`
    into one reused block, so the matrix is never held, and every check of
    the input is made before a part is written. The file stays open, so
    `train_path` may be `path` itself."""
    with open(path, "rb") as fh:
        cols, y, ids = _open_matrix(fh, path)
        payload, row_bytes = fh.tell(), 4 * cols

        def fill(idx: np.ndarray, part: np.ndarray, start: int) -> None:
            # The rows at idx[start:], one positioned read per run of
            # consecutive rows, straight into `part`.
            rows = idx[start : start + len(part)]
            breaks = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), len(rows)]
            for a, b in zip(breaks, breaks[1:]):
                offset = payload + int(rows[a]) * row_bytes
                got = os.preadv(fh.fileno(), [part[a:b]], offset)
                if got != (b - a) * row_bytes:
                    raise MatrixFormatError(f"{path}: short read of {got} bytes at offset {offset}")

        parts = split_indices(y, ratio, seed)
        for idx, out in zip(parts, (train_path, test_path)):
            blocks = _row_blocks(len(idx), cols, partial(fill, idx))
            write_matrix_blocks(out, cols, blocks, y[idx], [ids[i] for i in idx])
    return parts
