import re
import tracemalloc

import numpy as np
import pytest

from helpers import cohort_fixture_texts, random_sequence
from spikesev import dataset
from spikesev.dataset import (
    COVARIATE_FIELDS,
    LABEL_OF,
    CodebookFormatError,
    CovariateCodebook,
    FeatureMatrix,
    MatrixFormatError,
    assemble,
    check_smote,
    featurize,
    fit_codebook,
    read_matrix,
    smote,
    split_indices,
    stratified_split,
    to_arrays,
    write_features,
    write_matrix,
)
from spikesev.ingest import Severity, SpikeRecord, build_cohort, parse_fasta, parse_metadata
from spikesev.scales import AMINO_ACIDS, default_registry
from spikesev.seqfeatures import (
    GLOBAL_DESCRIPTOR_LENGTH,
    RBD_END,
    RBD_START,
    RBD_WEIGHT,
    global_descriptors,
    residue_encoding,
    residue_row_table,
)

REG = default_registry()


def _record(accession="EPI1", sequence="MKVLL", age=54, gender="male", clade="GR",
            lineage="P.1", label=Severity.MILD):
    return SpikeRecord(accession, sequence, age, gender, clade, lineage, label)


def _cohort():
    fasta_text, meta_text = cohort_fixture_texts()
    cohort, _ = build_cohort(parse_fasta(fasta_text)[0], parse_metadata(meta_text, "\t"))
    return cohort


def _ref_encode_covariates(record, codebook):
    """The covariate block `featurize` writes, built field by field:
    concatenated one-hot blocks in fixed field order; unseen values -> zeros."""
    out = np.zeros(codebook.width, dtype=np.float64)
    offset = 0
    for fieldname in COVARIATE_FIELDS:
        cats = codebook.categories[fieldname]
        value = str(getattr(record, fieldname))
        try:
            out[offset + cats.index(value)] = 1.0
        except ValueError:
            pass
        offset += len(cats)
    return out


class TestCodebook:
    def test_gender_block_width(self):
        records = [_record(gender="male"), _record("EPI2", gender="female")]
        cb = fit_codebook(records)
        assert cb.categories["gender"] == ("female", "male")

    def test_lexicographic_clade_order(self):
        records = [_record(clade="GK"), _record("EPI2", clade="GR")]
        cb = fit_codebook(records)
        offset = len(cb.categories["gender"]) + len(cb.categories["age"])
        encoded = _ref_encode_covariates(_record("EPI3", clade="GR"), cb)
        assert encoded[offset : offset + 2].tolist() == [0.0, 1.0]

    def test_training_record_has_one_hot_per_field(self):
        records = _cohort()
        cb = fit_codebook(records)
        for rec in records:
            assert _ref_encode_covariates(rec, cb).sum() == 4.0

    def test_unseen_category_gives_zero_block(self):
        records = _cohort()
        cb = fit_codebook(records)
        novel = _record("EPIX", lineage="XBB.1.5")
        assert _ref_encode_covariates(novel, cb).sum() == 3.0

    def test_width_consistent(self):
        records = _cohort()
        cb = fit_codebook(records)
        widths = {_ref_encode_covariates(r, cb).shape[0] for r in records}
        assert widths == {cb.width}

    def test_codebook_text_round_trip(self):
        cb = fit_codebook(_cohort())
        restored, registry_hash = CovariateCodebook.from_text(cb.to_text(registry_hash="ab12"))
        assert restored == cb
        assert registry_hash == "ab12"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: expected '# covariate codebook v1'"),
            ("gender\tmale\n", "line 1: expected '# covariate codebook v1'"),
            ("# covariate codebook v1\ngender\tmale\n", "line 2: expected '# registry_hash <hash>'"),
            ("# covariate codebook v1\n# age_binning exact\n# registry_hash ab\n",
             "line 2: expected '# registry_hash <hash>'"),
        ],
        ids=["empty", "no-title", "no-hash", "hash-not-second"],
    )
    def test_title_and_registry_hash_lines_required(self, text, message):
        with pytest.raises(CodebookFormatError, match=re.escape(message)):
            CovariateCodebook.from_text(text)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("colour\tred", "unknown covariate field 'colour'"),
            ("gender male", "no tab after the field"),
            ("# age_binning weekly", "unknown age binning 'weekly'"),
            ("# age_binning decade", "unknown age binning 'decade'"),
            ("gender\tfemale", "duplicate gender value 'female'"),
        ],
    )
    def test_malformed_line_refused_with_its_number(self, line, message):
        text = "# covariate codebook v1\ngender\tfemale\n" + line + "\nage\t54\n"
        with pytest.raises(CodebookFormatError, match=f"line 3: {message}"):
            CovariateCodebook.from_text(text)
        assert issubclass(CodebookFormatError, ValueError)


class TestAssemble:
    def test_layout_and_padding(self):
        records = [_record(sequence="MKVLL"), _record("EPI2", sequence="ACDEF", label=Severity.SEVERE)]
        cb = fit_codebook(records)
        n_model = GLOBAL_DESCRIPTOR_LENGTH + 50 + cb.width + 17
        m, truncated = featurize(records[:1], REG, cb, n_model)
        # each block sits where the sizes of the blocks before it put it
        blocks = [
            global_descriptors(records[0].sequence, REG).to_vector(),
            residue_encoding(records[0].sequence, REG).reshape(-1),
            _ref_encode_covariates(records[0], cb),
        ]
        ends = np.cumsum([b.size for b in blocks]).tolist()
        assert ends == [29, 79, 79 + cb.width]
        assert n_model - ends[-1] == 17
        for block, start, end in zip(blocks, [0, *ends], ends):
            np.testing.assert_array_equal(m.x[0, start:end], block.astype(np.float32))
        assert (m.x[0, ends[-1] :] == 0.0).all()
        assert truncated == 0
        assert m.y.tolist() == [1] and m.ids == ("EPI1",)

    def test_severe_maps_to_zero(self):
        records = [_record(), _record("EPI2", label=Severity.SEVERE)]
        cb = fit_codebook(records)
        assert assemble(records[1], REG, cb, 200).y.tolist() == [0]

    def test_truncation_flagged_and_tail_dropped(self):
        records = [_record(sequence=random_sequence(np.random.default_rng(0), 40))]
        cb = fit_codebook(records)
        n_model = GLOBAL_DESCRIPTOR_LENGTH + 100 + cb.width  # room for 10 of 40 rows
        m, truncated = featurize(records, REG, cb, n_model)
        assert truncated == 1
        full = assemble(records[0], REG, cb, 2000)
        np.testing.assert_array_equal(m.x[0, 29 : 29 + 100], full.x[0, 29 : 29 + 100])

    def test_model_length_too_small(self):
        records = [_record()]
        cb = fit_codebook(records)
        with pytest.raises(ValueError, match="model length too small"):
            assemble(records[0], REG, cb, GLOBAL_DESCRIPTOR_LENGTH + cb.width - 1)

    def test_deterministic_bit_exact(self):
        records = _cohort()
        cb = fit_codebook(records)
        a = assemble(records[0], REG, cb, 700)
        b = assemble(records[0], REG, cb, 700)
        assert a.x.tobytes() == b.x.tobytes()

    def test_rows_equal_one_record_assembly(self):
        rng = np.random.default_rng(3)
        records = [
            _record(f"EPI{i}", random_sequence(rng, length), age=30 + i, label=Severity(label))
            for i, (length, label) in enumerate([(5, "mild"), (12, "severe"), (3, "severe")])
        ]
        cb = fit_codebook(records)
        n_model = GLOBAL_DESCRIPTOR_LENGTH + 60 + cb.width  # truncates the 12-residue record
        m, truncated = featurize(records, REG, cb, n_model)
        rows = [assemble(r, REG, cb, n_model) for r in records]
        assert m.x.tobytes() == np.concatenate([r.x for r in rows]).tobytes()
        assert m.y.tolist() == [1, 0, 0] and m.ids == ("EPI0", "EPI1", "EPI2")
        assert truncated == 1


def _reference_featurize(records, registry, codebook, n_model):
    """The per-record loop `featurize` once ran: each row's head built in
    float64 from the unweighted residue table times the RBD weights, cut to
    fit, and rounded to float32 on store, then the covariate block."""
    width = codebook.width
    x = np.zeros((len(records), n_model), dtype=np.float32)
    truncated = 0
    table = residue_row_table(registry)
    for row, record in zip(x, records):
        idx = [AMINO_ACIDS.index(aa) for aa in record.sequence]
        weights = np.ones(len(idx))
        weights[RBD_START - 1 : RBD_END] = RBD_WEIGHT
        residues = table[idx] * weights[:, None]
        seq = np.concatenate([global_descriptors(record.sequence, registry).to_vector(), residues.reshape(-1)])
        truncated += seq.size > n_model - width
        seq = seq[: n_model - width]
        row[: seq.size] = seq
        row[seq.size : seq.size + width] = _ref_encode_covariates(record, codebook)
    return x, truncated


# Lengths that end before the RBD, inside it and past it.
ORACLE_LENGTHS = (40, RBD_START + 30, RBD_END + 60)


def _oracle_records(n: int) -> tuple[list[SpikeRecord], CovariateCodebook]:
    """`n` records cycling through ORACLE_LENGTHS, and a codebook fitted on
    all but the last, whose clade, lineage and age it has not seen."""
    rng = np.random.default_rng(n)
    records = [
        _record(f"EPI{i}", random_sequence(rng, ORACLE_LENGTHS[i % 3]), age=20 + i,
                gender=("male", "female")[i % 2], clade=f"G{i % 2}", lineage=f"B.{i}",
                label=Severity(("mild", "severe")[i % 2]))
        for i in range(n)
    ]
    fitted = records[:-1] or [_record(clade="other", lineage="other", age=99)]
    return records, fit_codebook(fitted)


class TestAgainstPerRecordReference:
    # Residue slots after the descriptors: a first row cut mid-row, a
    # boundary inside the RBD, a cut mid-row inside the RBD, the middle
    # length exactly, and room to spare for every length (zero padding).
    @pytest.mark.parametrize("slots", [0, 3, 10 * RBD_START, 10 * RBD_START + 7,
                                       10 * ORACLE_LENGTHS[1], 10 * ORACLE_LENGTHS[2] + 13])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_rows_have_the_reference_bytes(self, n, slots, tmp_path, monkeypatch):
        records, cb = _oracle_records(n)
        n_model = GLOBAL_DESCRIPTOR_LENGTH + slots + cb.width
        monkeypatch.setattr(dataset, "MATRIX_BLOCK_BYTES", 2 * 4 * n_model)  # blocks of 2 rows
        want, want_truncated = _reference_featurize(records, REG, cb, n_model)
        m, truncated = featurize(records, REG, cb, n_model)
        labels, ids = [LABEL_OF[r.label] for r in records], tuple(r.accession_id for r in records)
        assert m.x.tobytes() == want.tobytes()
        assert truncated == want_truncated
        assert m.y.tolist() == labels and m.ids == ids
        if n:
            assert write_features(records, REG, cb, n_model, tmp_path / "f.mat") == want_truncated
            write_matrix(FeatureMatrix(want, labels, ids), tmp_path / "want.mat")
            assert (tmp_path / "f.mat").read_bytes() == (tmp_path / "want.mat").read_bytes()
            assert (tmp_path / "f.ids").read_bytes() == (tmp_path / "want.ids").read_bytes()


def _matrix(n0: int, n1: int, dim: int = 6, seed: int = 0) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    x = np.stack([rng.normal(size=dim) for _ in range(n0 + n1)])
    return FeatureMatrix(x, [0] * n0 + [1] * n1, [f"ID{i:03d}" for i in range(n0 + n1)])


def _count(m: FeatureMatrix, label: int) -> int:
    return int((m.y == label).sum())


class TestStratifiedSplit:
    def test_reference_cohort_sizes(self):
        split = stratified_split(_matrix(2313, 1154, dim=2), 0.8, seed=5)
        assert len(split.test) == 694
        assert len(split.train) == 2773

    def test_per_class_floor_rule(self):
        split = stratified_split(_matrix(11, 5), 0.8, seed=1)
        train_counts = [_count(split.train, c) for c in (0, 1)]
        assert train_counts == [8, 4]

    def test_deterministic_membership(self):
        m = _matrix(20, 12)
        a = stratified_split(m, 0.8, seed=9)
        b = stratified_split(m, 0.8, seed=9)
        assert a.train.ids == b.train.ids
        assert a.test.ids == b.test.ids

    def test_disjoint_and_union_by_accession(self):
        m = _matrix(17, 9)
        split = stratified_split(m, 0.75, seed=3)
        train_ids, test_ids = set(split.train.ids), set(split.test.ids)
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(m.ids)

    def test_parts_take_rows_with_their_labels(self):
        m = _matrix(17, 9)
        split = stratified_split(m, 0.75, seed=3)
        for part in (split.train, split.test):
            idx = [m.ids.index(a) for a in part.ids]
            assert idx == sorted(idx)
            assert part.x.tobytes() == m.x[idx].tobytes()
            assert part.y.tolist() == m.y[idx].tolist()

    def test_class_proportions_within_one_sample(self):
        # exhaustive check over a grid of small cohorts
        for n0 in range(2, 14):
            for n1 in range(2, 14):
                m = _matrix(n0, n1, dim=2, seed=n0 * 31 + n1)
                split = stratified_split(m, 0.8, seed=0)
                for part in (split.train, split.test):
                    frac = len(part) / len(m)
                    for label, n_class in ((0, n0), (1, n1)):
                        got = _count(part, label)
                        assert abs(got - frac * n_class) <= 1.0

    def test_parts_are_the_split_indices(self):
        m = _matrix(17, 9)
        train_idx, test_idx = split_indices(m.y, 0.75, seed=3)
        split = stratified_split(m, 0.75, seed=3)
        assert split.train.ids == m.take(train_idx).ids
        assert split.test.ids == m.take(test_idx).ids

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError, match="class"):
            stratified_split(_matrix(5, 0), 0.8, seed=0)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.1, 1.5])
    def test_ratio_bounds(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            stratified_split(_matrix(4, 4), ratio, seed=0)


class TestSmote:
    def test_one_dimensional_convex_bound(self):
        m = FeatureMatrix([[0.0], [1.0], [5.0], [6.0], [7.0], [8.0]], [1, 1, 0, 0, 0, 0], ["-"] * 6)
        balanced = smote(m, k=1, seed=0)
        synth = [i for i, a in enumerate(balanced.ids) if a.startswith("synthetic")]
        assert len(synth) == 2
        for i in synth:
            assert 0.0 <= balanced.x[i, 0] <= 1.0
            assert balanced.y[i] == 1

    def test_balances_counts(self):
        balanced = smote(_matrix(10, 4), k=3, seed=2)
        counts = {c: _count(balanced, c) for c in (0, 1)}
        assert counts == {0: 10, 1: 10}

    def test_majority_and_minority_originals_unchanged(self):
        m = _matrix(9, 4)
        balanced = smote(m, k=2, seed=7)
        assert balanced.x[: len(m)].tobytes() == m.x.tobytes()
        assert balanced.y[: len(m)].tolist() == m.y.tolist()
        assert balanced.ids[: len(m)] == m.ids
        assert balanced.ids[len(m) :] == tuple(f"synthetic-{i}" for i in range(5))

    def test_balanced_input_is_identity_on_counts(self):
        m = _matrix(6, 6)
        balanced = smote(m, k=3, seed=1)
        assert balanced.x.tobytes() == m.x.tobytes()
        assert balanced.y.tolist() == m.y.tolist() and balanced.ids == m.ids

    def test_minority_too_small(self):
        with pytest.raises(ValueError, match="minority"):
            smote(_matrix(5, 1), k=3, seed=0)

    @pytest.mark.parametrize(
        "n0, n1, k",
        [(3, 3, 2), (1, 1, 5), (0, 4, 2), (4, 1, 2), (2, 5, 3), (5, 2, 1), (4, 4, 0), (2, 5, 0)],
        ids=["equal", "equal-1", "minority-0", "minority-1", "minority-2", "minority-2-k-1", "equal-k-0",
             "k-0"],
    )
    def test_check_smote_refuses_exactly_what_smote_refuses(self, n0, n1, k):
        m = _matrix(n0, n1)

        def outcome(call):
            try:
                call()
            except ValueError as exc:
                return str(exc)
            return None

        refused = outcome(lambda: check_smote(m.y, k))
        assert refused == outcome(lambda: smote(m, k=k, seed=0))
        assert (refused is None) == (k >= 1 and (n0 == n1 or min(n0, n1) >= 2))

    def test_deterministic(self):
        m = _matrix(12, 5, dim=4)
        a = smote(m, k=3, seed=42)
        b = smote(m, k=3, seed=42)
        assert a.x.tobytes() == b.x.tobytes()

    def test_synthetics_lie_on_neighbor_segments(self):
        m = _matrix(30, 11, dim=8, seed=3)
        k = 4
        balanced = smote(m, k=k, seed=3)
        minority = m.x[m.y == 1].astype(np.float64)
        synth = balanced.x[len(m) :].astype(np.float64)
        dists = np.sqrt(((minority[:, None] - minority[None, :]) ** 2).sum(-1))
        np.fill_diagonal(dists, np.inf)
        neighbors = np.argsort(dists, axis=1)[:, :k]
        for s in synth:
            best = np.inf
            for i in range(len(minority)):
                for j in neighbors[i]:
                    x, z = minority[i], minority[j]
                    seg = z - x
                    t = np.clip(np.dot(s - x, seg) / max(np.dot(seg, seg), 1e-30), 0.0, 1.0)
                    best = min(best, np.linalg.norm(s - (x + t * seg)))
            assert best < 1e-6


    @pytest.mark.parametrize("minority_label, k", [(1, 5), (0, 3), (1, 1)])
    def test_matches_the_pairwise_tensor_reference(self, minority_label, k):
        # Small integer features and repeated rows give many tied distances,
        # so the stable index tie-break decides which neighbours are taken.
        rng = np.random.default_rng(k)
        minority = rng.integers(0, 3, (24, 7)).astype(np.float32)
        minority[12:] = minority[:12]
        majority = rng.normal(size=(40, 7)).astype(np.float32)
        x = np.concatenate([minority, majority])
        y = [minority_label] * 24 + [1 - minority_label] * 40
        m = FeatureMatrix(x, y, [f"ID{i}" for i in range(len(y))])
        balanced = smote(m, k=k, seed=9)
        assert balanced.x[len(m) :].tobytes() == _reference_smote_synthetics(x, np.array(y), k, 9).tobytes()

    def test_memory_linear_in_the_minority_rows(self):
        # The pairwise difference tensor would take 8 * 100 * 100 * 256 bytes
        # (20 MB); row by row needs a few copies of the rows plus the
        # 100 x 100 distance matrix.
        m = _matrix(120, 100, dim=256, seed=4)
        tracemalloc.start()
        try:
            smote(m, k=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        minority_bytes = 100 * 256 * 8
        assert peak < 6 * minority_bytes + 3 * 100 * 100 * 8 + 2 * m.x.nbytes


def _reference_smote_synthetics(x, y, k, seed):
    """SMOTE's synthetic rows with the neighbour search of the full pairwise
    difference tensor, as `smote` computed it before it went row by row."""
    counts = np.bincount(y, minlength=2)
    minority = 0 if counts[0] < counts[1] else 1
    n_min, n_maj = int(counts[minority]), int(counts[1 - minority])
    k = min(k, n_min - 1)
    rows = x[y == minority].astype(np.float64)
    deltas = rows[:, None, :] - rows[None, :, :]
    dists = np.sqrt((deltas**2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    neighbor_idx = np.argsort(dists, axis=1, kind="stable")[:, :k]
    rng = np.random.default_rng(seed)
    synthetic = np.empty((n_maj - n_min, x.shape[1]), dtype=np.float32)
    for i in range(len(synthetic)):
        x_i = int(rng.integers(0, n_min))
        z_i = int(neighbor_idx[x_i, int(rng.integers(0, k))])
        lam = float(rng.random())
        synthetic[i] = rows[x_i] + lam * (rows[z_i] - rows[x_i])
    return synthetic


class TestMatrixIO:
    def test_round_trip_bit_exact(self, tmp_path):
        m = _matrix(5, 3, dim=7, seed=1)
        path = tmp_path / "m.mat"
        write_matrix(m, path)
        first = path.read_bytes()
        restored = read_matrix(path)
        assert restored.y.tolist() == m.y.tolist()
        assert restored.x.tobytes() == m.x.tobytes()
        assert restored.ids == m.ids
        write_matrix(restored, path)
        assert path.read_bytes() == first

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "m.mat"
        write_matrix(_matrix(2, 2), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(MatrixFormatError, match="magic"):
            read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.mat"
        write_matrix(_matrix(2, 2), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(MatrixFormatError, match="truncated"):
            read_matrix(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "m.mat"
        write_matrix(_matrix(2, 2), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(MatrixFormatError, match="inconsistent"):
            read_matrix(path)

    def test_accession_sidecar(self, tmp_path):
        m = _matrix(3, 2)
        write_matrix(m, tmp_path / "m.mat")
        assert (tmp_path / "m.ids").read_text() == "ID000\nID001\nID002\nID003\nID004\n"
        assert read_matrix(tmp_path / "m.mat").ids == m.ids

    def test_list_of_matrices_written_as_their_concatenation(self, tmp_path):
        m = _matrix(3, 2)
        write_matrix([m.take(np.array([i])) for i in range(len(m))], tmp_path / "rows.mat")
        write_matrix(m, tmp_path / "m.mat")
        assert (tmp_path / "rows.mat").read_bytes() == (tmp_path / "m.mat").read_bytes()
        assert (tmp_path / "rows.ids").read_text() == (tmp_path / "m.ids").read_text()

    def test_missing_sidecar_reads_as_dashes(self, tmp_path):
        write_matrix(_matrix(2, 2), tmp_path / "m.mat")
        (tmp_path / "m.ids").unlink()
        assert read_matrix(tmp_path / "m.mat").ids == ("-",) * 4

    @pytest.mark.parametrize("lines", [3, 5])
    def test_sidecar_row_count_mismatch_refused(self, tmp_path, lines):
        write_matrix(_matrix(2, 2), tmp_path / "m.mat")
        (tmp_path / "m.ids").write_text("".join(f"A{i}\n" for i in range(lines)))
        with pytest.raises(MatrixFormatError, match=f"{lines} accessions for 4 matrix rows"):
            read_matrix(tmp_path / "m.mat")

    def test_label_outside_zero_one_refused(self, tmp_path):
        path = tmp_path / "m.mat"
        write_matrix(_matrix(2, 2), path)
        path.write_bytes(path.read_bytes()[:-1] + b"\x02")
        with pytest.raises(MatrixFormatError, match="labels"):
            read_matrix(path)


def test_to_arrays_shapes_and_dtypes():
    x, y = to_arrays(_matrix(3, 4, dim=5))
    assert x.shape == (7, 5) and x.dtype == np.float32
    assert y.shape == (7,) and y.dtype == np.uint8
    assert y.tolist() == [0, 0, 0, 1, 1, 1, 1]


class TestFeatureMatrix:
    def test_concatenate_keeps_row_order(self):
        rows = [FeatureMatrix(np.full((1, 2), i), [i % 2], [f"R{i}"]) for i in range(3)]
        m = FeatureMatrix.concatenate(rows)
        assert m.x.tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
        assert m.y.tolist() == [0, 1, 0] and m.ids == ("R0", "R1", "R2")

    def test_misaligned_parts_refused(self):
        with pytest.raises(ValueError, match="align"):
            FeatureMatrix(np.zeros((3, 2)), [0, 1, 0], ["a", "b"])
