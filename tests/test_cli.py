import argparse
import dataclasses
import hashlib
import os
import re
import shutil
import tracemalloc
from pathlib import Path

import pytest

from helpers import cohort_fixture_texts, separable_blobs
from spikesev import dataset
from spikesev.checkpoint import save_checkpoint
from spikesev.cli import build_parser, main
from spikesev.config import ConfigError, RunConfig, load_config
from spikesev.ingest import Severity, SpikeRecord, read_cohort, write_cohort
from spikesev.layers import DenseSpec, LSTMSpec
from spikesev.dataset import DEFAULT_N_MODEL
from spikesev.network import AdamState, Architecture, Network
from spikesev.scales import default_registry
from spikesev.training import TrainConfig

TINY_CONFIG = """
n_model = 600
conv_filters = 4
kernel_size = 3
pool_size = 2
dropout_rate = 0.1
lstm_units = 6
dense_units = 8
epochs = 2
batch_size = 16
learning_rate = 0.003
"""


@pytest.fixture()
def fixture_files(tmp_path):
    fasta_text, meta_text = cohort_fixture_texts()
    fasta = tmp_path / "spike.fasta"
    meta = tmp_path / "meta.tsv"
    cfg = tmp_path / "run.cfg"
    fasta.write_text(fasta_text)
    meta.write_text(meta_text)
    cfg.write_text(TINY_CONFIG)
    return fasta, meta, cfg


class TestPipeline:
    def test_full_pipeline(self, tmp_path, fixture_files, capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "run"

        assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta),
                     "--workdir", str(wd)]) == 0
        assert (wd / "cohort.tsv").exists()
        report = (wd / "exclusion_report.tsv").read_text()
        assert "retained\t40" in report
        assert (wd / "ingest.resolved.cfg").exists()

        out = tmp_path / "stats.tsv"
        assert main(["stats", "--cohort", str(wd / "cohort.tsv"), "--out", str(out)]) == 0
        stats = out.read_text()
        assert "label\tsevere\t28" in stats
        assert "label\tmild\t12" in stats

        assert main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
                     "--workdir", str(wd)]) == 0
        features = dataset.read_matrix(wd / "features.mat")
        assert features.x.shape == (40, 600)
        assert "registry_hash" in (wd / "codebook.tsv").read_text()

        assert main(["split", "--matrix", str(wd / "features.mat"), "--workdir", str(wd),
                     "--ratio", "0.8", "--seed", "1"]) == 0
        train_rows = dataset.read_matrix(wd / "train.mat")
        test_rows = dataset.read_matrix(wd / "test.mat")
        assert len(train_rows) == 31 and len(test_rows) == 9  # floor(0.8*28)+floor(0.8*12)

        assert main(["balance", "--matrix", str(wd / "train.mat"), "--workdir", str(wd),
                     "--k", "3", "--seed", "2"]) == 0
        balanced = dataset.read_matrix(wd / "balanced.mat")
        labels = balanced.y.tolist()
        assert labels.count(0) == labels.count(1)

        assert main(["train", "--config", str(cfg), "--matrix", str(wd / "balanced.mat"),
                     "--workdir", str(wd), "--seed", "4"]) == 0
        assert (wd / "model.ckpt").exists()
        epochs = (wd / "epochs.tsv").read_text().splitlines()
        assert len(epochs) == 3  # header + 2 epochs

        assert main(["evaluate", "--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                     "--matrix", str(wd / "test.mat"), "--workdir", str(wd)]) == 0
        assert "roc_auc" in (wd / "report.tsv").read_text()
        assert (wd / "confusion.tsv").exists()

        assert main(["predict", "--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                     "--codebook", str(wd / "codebook.tsv"), "--cohort", str(wd / "cohort.tsv"),
                     "--workdir", str(wd)]) == 0
        lines = (wd / "predictions.tsv").read_text().splitlines()
        assert lines[0] == "accession\tscore\tpredicted_label\tpredicted_class"
        assert len(lines) == 41
        capsys.readouterr()

    def test_predict_with_unseen_lineage(self, tmp_path, fixture_files, capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "run"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        main(["train", "--config", str(cfg), "--matrix", str(wd / "features.mat"),
              "--workdir", str(wd)])

        novel = [
            SpikeRecord("NOVEL1", read_cohort(wd / "cohort.tsv")[0].sequence, 33,
                        "male", "GR", "XBB.1.5", Severity.MILD)
        ]
        write_cohort(novel, wd / "novel.tsv")
        assert main(["predict", "--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                     "--codebook", str(wd / "codebook.tsv"), "--cohort", str(wd / "novel.tsv"),
                     "--workdir", str(wd)]) == 0
        line = (wd / "predictions.tsv").read_text().splitlines()[1]
        accession, score, label, name = line.split("\t")
        assert accession == "NOVEL1"
        assert 0.0 <= float(score) <= 1.0
        assert label in ("0", "1") and name in ("mild", "severe")
        capsys.readouterr()

    def test_train_then_evaluate_learns_separable_data(self, tmp_path, capsys):
        x, y = separable_blobs(n=240, length=160, seed=9)
        blobs = dataset.FeatureMatrix(x, y, [f"S{i}" for i in range(len(y))])
        split = dataset.stratified_split(blobs, 0.8, seed=0)
        wd = tmp_path / "wd"
        wd.mkdir()
        dataset.write_matrix(split.train, wd / "train.mat")
        dataset.write_matrix(split.test, wd / "test.mat")
        cfg = tmp_path / "blob.cfg"
        cfg.write_text(
            "conv_filters = 8,8\nkernel_size = 4\nlstm_units = 16\ndense_units = 16\n"
            "epochs = 10\nbatch_size = 32\nlearning_rate = 0.003\ndropout_rate = 0.166\n"
        )
        assert main(["train", "--config", str(cfg), "--matrix", str(wd / "train.mat"),
                     "--workdir", str(wd)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                     "--matrix", str(wd / "test.mat"), "--workdir", str(wd)]) == 0
        report = (wd / "report.tsv").read_text()
        f1_line = next(l for l in report.splitlines() if l.startswith("f1\tweighted"))
        assert float(f1_line.split("\t")[2]) >= 0.95
        capsys.readouterr()


class TestExitCodes:
    def test_missing_file_is_input_error_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.fasta"
        code = main(["ingest", "--fasta", str(missing), "--metadata", str(missing),
                     "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert "nope.fasta" in capsys.readouterr().err

    def test_all_inconclusive_statuses_keep_exit_zero_with_warning(self, tmp_path, capsys):
        fasta = tmp_path / "s.fasta"
        meta = tmp_path / "m.tsv"
        fasta.write_text(">a\nMKVLL\n>b\nACDEF\n")
        meta.write_text(
            "accession\tstatus\tage\tgender\tclade\tlineage\tdate\n"
            "a\tHospitalized\t50\tmale\tGR\tP.1\t2021-03-05\n"
            "b\tLive\t60\tfemale\tGK\tP.2\t2021-03-06\n"
        )
        wd = tmp_path / "w"
        assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta),
                     "--workdir", str(wd)]) == 0
        assert "empty cohort" in capsys.readouterr().err
        assert read_cohort(wd / "cohort.tsv") == []

    def test_rejected_sequences_warned_with_their_reason(self, tmp_path, fixture_files, capsys):
        _, meta, _ = fixture_files
        fasta = tmp_path / "s.fasta"
        fasta.write_text(">a\nMKVLL\n>b\n>c\nMKXLL\n")
        wd = tmp_path / "w"
        assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta),
                     "--workdir", str(wd)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "excluded" in line]
        assert warnings == [
            "warning: sequence 'b' excluded (empty sequence)",
            "warning: sequence 'c' excluded (invalid character 'X' at position 3)",
        ]
        assert "invalid sequences\t2\n" in (wd / "exclusion_report.tsv").read_text()

    def test_featurize_model_length_too_small(self, tmp_path, fixture_files, capsys):
        fasta, meta, _ = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        code = main(["featurize", "--cohort", str(wd / "cohort.tsv"), "--workdir", str(wd),
                     "--n-model", "30"])
        assert code == 2
        assert "model length too small" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_featurize_width_below_one_is_refused_before_writing(self, tmp_path, fixture_files, width, capsys):
        fasta, meta, _ = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        capsys.readouterr()
        code = main(["featurize", "--cohort", str(wd / "cohort.tsv"), "--workdir", str(wd), "--n-model", width])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model length too small: need at least ") and err.count("\n") == 1
        assert err.endswith(f", got {width}\n")
        assert not {"features.mat", "features.mat.tmp", "codebook.tsv"} & {p.name for p in wd.iterdir()}

    def test_featurize_width_the_matrix_header_cannot_hold_is_refused(self, tmp_path, fixture_files, capsys):
        fasta, meta, _ = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        capsys.readouterr()
        code = main(["featurize", "--cohort", str(wd / "cohort.tsv"), "--workdir", str(wd),
                     "--n-model", str(2**32)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: model length too large: a feature matrix holds at most 4294967295 columns, got 4294967296\n"
        )
        assert not {"features.mat", "features.mat.tmp", "codebook.tsv"} & {p.name for p in wd.iterdir()}

    def test_stats_on_empty_cohort(self, tmp_path, capsys):
        write_cohort([], tmp_path / "empty.tsv")
        assert main(["stats", "--cohort", str(tmp_path / "empty.tsv")]) == 2
        capsys.readouterr()

    def test_evaluate_width_mismatch(self, tmp_path, fixture_files, capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        main(["train", "--config", str(cfg), "--matrix", str(wd / "features.mat"),
              "--workdir", str(wd)])
        x, y = separable_blobs(n=8, length=40, seed=1)
        dataset.write_matrix(dataset.FeatureMatrix(x, y, ["-"] * 8), wd / "other.mat")
        code = main(["evaluate", "--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                     "--matrix", str(wd / "other.mat"), "--workdir", str(wd)])
        assert code == 2
        assert "width" in capsys.readouterr().err

    def test_train_validation_width_mismatch_writes_no_checkpoint(self, tmp_path, fixture_files,
                                                                   capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        x, y = separable_blobs(n=8, length=40, seed=1)
        dataset.write_matrix(dataset.FeatureMatrix(x, y, ["-"] * 8), wd / "other.mat")
        code = main(["train", "--config", str(cfg), "--matrix", str(wd / "features.mat"),
                     "--val-matrix", str(wd / "other.mat"), "--workdir", str(wd)])
        assert code == 2
        assert "validation feature width 40" in capsys.readouterr().err
        assert not (wd / "model.ckpt").exists()

    def test_predict_warns_on_truncated_sequences(self, tmp_path, fixture_files, capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        main(["train", "--config", str(cfg), "--matrix", str(wd / "features.mat"),
              "--workdir", str(wd)])
        records = read_cohort(wd / "cohort.tsv")[:2]
        records[0] = dataclasses.replace(records[0], sequence=records[0].sequence * 4)
        write_cohort(records, wd / "long.tsv")
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                     "--codebook", str(wd / "codebook.tsv"), "--cohort", str(wd / "long.tsv"),
                     "--workdir", str(wd)]) == 0
        assert "warning: residue block truncated for 1 record(s)" in capsys.readouterr().err
        assert len((wd / "predictions.tsv").read_text().splitlines()) == 3

    def test_sidecar_of_another_row_count_is_input_error(self, tmp_path, fixture_files, capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        ids = wd / "features.ids"
        ids.write_text("".join(ids.read_text().splitlines(keepends=True)[:-1]))
        code = main(["split", "--matrix", str(wd / "features.mat"), "--workdir", str(wd)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (wd / "train.mat").exists()

    def test_checkpoint_without_seed_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Network(64, seed=3), path, default_registry().content_hash)
        blob = path.read_bytes()
        assert blob.count(b'"seed":3}') == 1
        path.write_bytes(blob.replace(b'"seed":3}', b'"sead":3}'))
        code = main(["evaluate", "--checkpoint", str(path), "--matrix", str(tmp_path / "x.mat"),
                     "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_with_non_utf8_tensor_name_is_input_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Network(64, seed=3), path, default_registry().content_hash)
        blob = path.read_bytes()
        name = b"\x03\x00\x00\x000/w"  # the length-prefixed name of conv1's weight
        assert blob.count(name) == 1
        path.write_bytes(blob.replace(name, b"\x03\x00\x00\x00\xff/w"))
        code = main(["evaluate", "--checkpoint", str(path), "--matrix", str(tmp_path / "x.mat"),
                     "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert f"error: {path}: tensor name is not UTF-8" in capsys.readouterr().err

    def test_checkpoint_with_input_length_below_one_is_input_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        net = Network(20, [LSTMSpec(4), DenseSpec(1, "sigmoid")], seed=3)
        save_checkpoint(net, path, default_registry().content_hash)
        blob = path.read_bytes()
        assert blob.count(b'"input_length":20,') == 1
        path.write_bytes(blob.replace(b'"input_length":20,', b'"input_length":-5,'))
        code = main(["evaluate", "--checkpoint", str(path), "--matrix", str(tmp_path / "x.mat"),
                     "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert f"error: {path}: input length -5 < 1" in capsys.readouterr().err

    def test_malformed_codebook_is_input_error_with_line(self, tmp_path, fixture_files, capsys):
        fasta, meta, _ = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        save_checkpoint(Network(64, seed=3), wd / "m.ckpt", default_registry().content_hash)
        (wd / "codebook.tsv").write_text("# covariate codebook v1\nsex\tmale\n")
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(wd / "m.ckpt"), "--codebook",
                     str(wd / "codebook.tsv"), "--cohort", str(wd / "cohort.tsv"),
                     "--workdir", str(wd)])
        assert code == 2
        assert "line 2: unknown covariate field 'sex'" in capsys.readouterr().err

    def test_cohort_label_outside_mild_severe_is_input_error(self, tmp_path, capsys):
        record = SpikeRecord("EPI1", "MKVLL", 54, "male", "GR", "P.1", Severity.INCONCLUSIVE)
        write_cohort([record], tmp_path / "cohort.tsv")
        code = main(["featurize", "--cohort", str(tmp_path / "cohort.tsv"),
                     "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert "label must be mild or severe" in capsys.readouterr().err

    def test_log_search_range_at_zero_is_input_error(self, tmp_path, capsys):
        x, y = separable_blobs(n=20, length=64, seed=1)
        dataset.write_matrix(dataset.FeatureMatrix(x, y, ["-"] * 20), tmp_path / "x.mat")
        space = tmp_path / "space.tsv"
        space.write_text("learning_rate\tlog\t0\t0.01\n")
        code = main(["search", "--matrix", str(tmp_path / "x.mat"), "--space", str(space),
                     "--trials", "1", "--k", "2", "--epochs", "1", "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert "log-scale range needs low > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "-2"])
    def test_threshold_outside_unit_interval_is_input_error(self, tmp_path, fixture_files,
                                                           threshold, capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        save_checkpoint(Network(600, seed=3), wd / "m.ckpt", default_registry().content_hash)
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(wd / "m.ckpt"), "--matrix",
                     str(wd / "features.mat"), "--threshold", threshold, "--workdir", str(wd)]) == 2
        assert main(["predict", "--checkpoint", str(wd / "m.ckpt"), "--codebook",
                     str(wd / "codebook.tsv"), "--cohort", str(wd / "cohort.tsv"),
                     "--threshold", threshold, "--workdir", str(wd)]) == 2
        assert capsys.readouterr().err.count("threshold must lie in [0, 1]") == 2
        assert not (wd / "report.tsv").exists() and not (wd / "predictions.tsv").exists()

    @pytest.mark.parametrize(
        "key",
        ["not_a_key", "shuffle", "block_weight_sequence", "block_weight_covariates", "age_binning",
         "delimiter", "fasta", "metadata", "lambda_l2"],
    )
    def test_unknown_config_key_rejected(self, tmp_path, key, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{key} = 1\n")
        assert main(["gradcheck", "--config", str(bad)]) == 2
        assert f"unknown configuration key: {key}" in capsys.readouterr().err

    def test_lambda_l2_flag_is_unknown(self, tmp_path, capsys):
        dataset.write_matrix(dataset.FeatureMatrix(*separable_blobs(n=20, length=64, seed=1), ["-"] * 20),
                             tmp_path / "x.mat")
        wd = tmp_path / "w"
        wd.mkdir()
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--matrix", str(tmp_path / "x.mat"), "--lambda-l2", "0.001", "--workdir", str(wd)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --lambda-l2 0.001" in capsys.readouterr().err
        assert list(wd.iterdir()) == []

    def test_decade_codebook_is_input_error_with_line(self, tmp_path, fixture_files, capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        codebook = wd / "codebook.tsv"
        text = codebook.read_text()
        assert text.splitlines()[2] == "# age_binning exact"
        codebook.write_text(text.replace("# age_binning exact", "# age_binning decade"))
        save_checkpoint(Network(600, seed=3), wd / "m.ckpt", default_registry().content_hash)
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(wd / "m.ckpt"), "--codebook", str(codebook),
                     "--cohort", str(wd / "cohort.tsv"), "--workdir", str(wd)])
        assert code == 2
        assert "line 3: unknown age binning 'decade'" in capsys.readouterr().err
        assert not (wd / "predictions.tsv").exists()

    @pytest.mark.parametrize("stamp", ["", "# covariate codebook v1\n# registry_hash 0123456789abcdef\n"],
                             ids=["empty-file", "other-registry"])
    def test_codebook_not_stamped_with_this_registry_is_input_error(self, tmp_path, fixture_files, stamp,
                                                                   capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        codebook = wd / "codebook.tsv"
        body = [line for line in codebook.read_text().splitlines(keepends=True) if not line.startswith("#")]
        codebook.write_text(stamp + ("".join(body) if stamp else ""))
        save_checkpoint(Network(600, seed=3), wd / "m.ckpt", default_registry().content_hash)
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(wd / "m.ckpt"), "--codebook", str(codebook),
                     "--cohort", str(wd / "cohort.tsv"), "--workdir", str(wd)])
        assert code == 2
        err = capsys.readouterr().err
        if stamp:
            assert f"error: {codebook}: codebook was built against registry 0123456789ab..., " in err
        else:
            assert f"error: {codebook}: line 1: expected '# covariate codebook v1'" in err
        assert not (wd / "predictions.tsv").exists()

    def test_repeated_fasta_record_id_is_input_error(self, tmp_path, capsys):
        fasta = tmp_path / "spike.fasta"
        meta = tmp_path / "meta.tsv"
        fasta.write_text(">A1\nMKV\n>A1\nGGG\n>B2\nAAA\n")
        meta.write_text("accession\tstatus\tage\tgender\tclade\tlineage\tdate\n"
                        "A1\tMild\t40\tmale\tGR\tB.1\t2021-01-02\n")
        code = main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert f"error: {fasta}: line 3: repeated record id 'A1' (first on line 1)\n" == capsys.readouterr().err
        assert not (tmp_path / "w" / "cohort.tsv").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            (["--k", "1"], "k must be >= 2"),
            (["--config", "bad.cfg"], "conv filters and kernel must be >= 1"),
            (["--config", "smote.cfg"], "smote_k must be >= 1"),
        ],
        ids=["k-1", "conv-filters-0", "smote-k-0"],
    )
    def test_search_refuses_a_bad_setting_before_any_trial(self, tmp_path, setting, message, monkeypatch,
                                                           capsys):
        dataset.write_matrix(dataset.FeatureMatrix(*separable_blobs(n=20, length=64, seed=1), ["-"] * 20),
                             tmp_path / "x.mat")
        (tmp_path / "bad.cfg").write_text("conv_filters = 0,4\n")
        (tmp_path / "smote.cfg").write_text("smote_k = 0\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("spikesev.training.cross_validate", lambda *a, **k: pytest.fail("a trial ran"))
        code = main(["search", "--matrix", "x.mat", "--trials", "1", "--epochs", "1", *setting, "--workdir", "w"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "w" / "trials.tsv").exists()

    def test_search_refuses_a_fold_smote_cannot_balance_before_any_trial(self, tmp_path, monkeypatch, capsys):
        # --k 2 deals the two class-0 rows one to each fold, so each training
        # part holds one class-0 row against four class-1 rows
        x, _ = separable_blobs(n=10, length=64, seed=1)
        dataset.write_matrix(dataset.FeatureMatrix(x, [0, 0] + [1] * 8, ["-"] * 10), tmp_path / "x.mat")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("spikesev.training.cross_validate", lambda *a, **k: pytest.fail("a trial ran"))
        code = main(["search", "--matrix", "x.mat", "--trials", "1", "--epochs", "1", "--k", "2", "--workdir", "w"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cv_k=2 leaves a training fold that SMOTE cannot balance: SMOTE requires >=2 minority samples\n"
        )
        assert not (tmp_path / "w" / "trials.tsv").exists()

    @pytest.mark.parametrize("which", ["fasta", "metadata", "registry", "search-space", "codebook"])
    def test_every_text_input_error_names_its_file(self, tmp_path, which, capsys):
        fasta, meta = tmp_path / "s.fasta", tmp_path / "m.tsv"
        fasta_text, meta_text = cohort_fixture_texts()
        fasta.write_text(fasta_text)
        meta.write_text(meta_text)
        dataset.write_matrix(dataset.FeatureMatrix(*separable_blobs(n=20, length=64, seed=1), ["-"] * 20),
                             tmp_path / "x.mat")
        save_checkpoint(Network(64, seed=3), tmp_path / "m.ckpt", default_registry().content_hash)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\n")
        (tmp_path / "run.cfg").write_text(f"registry = {bad}\n")
        wd = str(tmp_path / "w")
        argv = {
            "fasta": ["ingest", "--fasta", str(bad), "--metadata", str(meta)],
            "metadata": ["ingest", "--fasta", str(fasta), "--metadata", str(bad)],
            "registry": ["featurize", "--config", str(tmp_path / "run.cfg"), "--cohort", str(tmp_path / "c.tsv")],
            "search-space": ["search", "--matrix", str(tmp_path / "x.mat"), "--space", str(bad), "--k", "2"],
            "codebook": ["predict", "--checkpoint", str(tmp_path / "m.ckpt"), "--codebook", str(bad),
                         "--cohort", str(tmp_path / "c.tsv")],
        }[which]
        assert main([*argv, "--workdir", wd]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("stage, flag", [("train", "--epochs"), ("split", "--ratio")], ids=["epochs", "ratio"])
    def test_bad_flag_value_is_refused_like_a_config_value(self, tmp_path, stage, flag, capsys):
        dataset.write_matrix(dataset.FeatureMatrix(*separable_blobs(n=20, length=64, seed=1), ["-"] * 20),
                             tmp_path / "x.mat")
        wd = tmp_path / "w"
        wd.mkdir()
        code = main([stage, "--matrix", str(tmp_path / "x.mat"), flag, "x", "--workdir", str(wd)])
        assert code == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: bad value for {key}: 'x' (")
        assert list(wd.iterdir()) == []

    @pytest.mark.parametrize("stage, key", [
        ("split", "split_seed"),
        ("balance", "smote_seed"),
        ("train", "train_seed"),
        ("search", "train_seed"),
        ("gradcheck", "train_seed"),
    ], ids=["split", "balance", "train", "search", "gradcheck"])
    def test_negative_seed_is_refused_naming_its_key(self, tmp_path, stage, key, capsys):
        """Refused where the config is parsed, so no workdir is made."""
        dataset.write_matrix(dataset.FeatureMatrix(*separable_blobs(n=20, length=64, seed=1), ["-"] * 20),
                             tmp_path / "x.mat")
        wd = tmp_path / "w"
        matrix = [] if stage == "gradcheck" else ["--matrix", str(tmp_path / "x.mat")]
        assert main([stage, *matrix, "--seed", "-1", "--workdir", str(wd)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad value for {key}: '-1' (a seed must be a non-negative integer)\n"
        assert not wd.exists()

    def test_train_with_zero_learning_rate_writes_no_checkpoint(self, tmp_path, fixture_files,
                                                                capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        capsys.readouterr()
        code = main(["train", "--config", str(cfg), "--matrix", str(wd / "features.mat"),
                     "--learning-rate", "0", "--workdir", str(wd)])
        assert code == 2
        assert "learning_rate must be a positive finite number" in capsys.readouterr().err
        assert not (wd / "model.ckpt").exists()

    def test_search_range_with_one_bound_is_input_error(self, tmp_path, capsys):
        x, y = separable_blobs(n=20, length=64, seed=1)
        dataset.write_matrix(dataset.FeatureMatrix(x, y, ["-"] * 20), tmp_path / "x.mat")
        space = tmp_path / "space.tsv"
        space.write_text("learning_rate\tlinear\t0.1\n")
        code = main(["search", "--matrix", str(tmp_path / "x.mat"), "--space", str(space),
                     "--trials", "1", "--k", "2", "--epochs", "1", "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert "search space line 1: linear range needs 2 bounds, got 1" in capsys.readouterr().err
        assert not (tmp_path / "w" / "trials.tsv").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("kernel_size\tchoice\tabc", "expected a whole number, got 'abc'"),
            ("conv1_filters\tchoice\t1.5", "expected a whole number, got '1.5'"),
            ("lstm_units\tchoice\t2.5", "expected a whole number, got '2.5'"),
            ("lstm_units\tlinear\t16\t96", "lstm_units takes whole numbers: use a choice or an int range, not linear"),
            ("dropout_rate\tchoice\tx", "could not convert string to float: 'x'"),
            ("learning_rate\tchoice\tabc", "could not convert string to float: 'abc'"),
            ("dropout_rate\tint\t0\t1", "dropout_rate takes real numbers: use a choice, a linear or a log range, not int"),
            ("learning_rate\tint\t1\t2", "learning_rate takes real numbers: use a choice, a linear or a log range, not int"),
        ],
        ids=["kernel-word", "filters-fraction", "units-fraction", "units-linear", "dropout-word", "rate-word",
             "dropout-int", "rate-int"],
    )
    def test_search_value_of_the_wrong_type_is_input_error(self, tmp_path, line, message, capsys):
        dataset.write_matrix(dataset.FeatureMatrix(*separable_blobs(n=20, length=64, seed=1), ["-"] * 20),
                             tmp_path / "x.mat")
        space = tmp_path / "space.tsv"
        space.write_text(f"# comment\n{line}\n")
        code = main(["search", "--matrix", str(tmp_path / "x.mat"), "--space", str(space),
                     "--trials", "1", "--k", "2", "--epochs", "1", "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert f"error: {space}: search space line 2: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "w" / "trials.tsv").exists()

    @pytest.mark.parametrize("clade", ["G\tR", "G\nR"], ids=["tab", "line-feed"])
    def test_metadata_cell_the_cohort_cannot_hold_is_input_error(self, tmp_path, clade, capsys):
        fasta = tmp_path / "spike.fasta"
        meta = tmp_path / "meta.csv"
        fasta.write_text(">A1\nMKVLL\n")
        meta.write_text(f'accession,status,age,gender,clade,lineage,date\nA1,Mild,40,male,"{clade}",B.1,2021-01-02\n')
        code = main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert f"error: {meta}: line 2, column 'clade': tab or line break in " in capsys.readouterr().err
        assert not (tmp_path / "w" / "cohort.tsv").exists()

    @pytest.mark.parametrize("stage", ["split", "ingest", "stats", "gradcheck"])
    def test_a_path_of_the_wrong_kind_is_input_error(self, tmp_path, fixture_files, stage, capsys):
        """A directory named where a file is read, or a file named as the
        workdir: exit 2 with one error line, and no file is written."""
        fasta, meta, _ = fixture_files
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        wd = tmp_path / "w"
        argv = {
            "split": ["split", "--matrix", str(a_dir), "--workdir", str(wd)],
            "ingest": ["ingest", "--fasta", str(fasta), "--metadata", str(a_dir), "--workdir", str(wd)],
            "stats": ["stats", "--cohort", str(a_dir / "cohort.tsv"), "--workdir", str(fasta)],
            "gradcheck": ["gradcheck", "--workdir", str(fasta)],
        }[stage]
        if stage == "stats":  # a readable cohort, so only the workdir is wrong
            assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(a_dir)]) == 0
            capsys.readouterr()

        def files():
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        before = files()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert files() == before

    def test_bare_carriage_return_in_metadata_is_input_error(self, tmp_path, capsys):
        """A bare CR in an unquoted cell reaches `csv` as it is, not as a line
        break that splits the row in two."""
        fasta = tmp_path / "spike.fasta"
        meta = tmp_path / "meta.csv"
        fasta.write_text(">A1\nMKVLL\n")
        meta.write_bytes(b"accession,status,age,gender,clade,lineage,date\nA1,Mild,40,male,G\rR,B.1,2021-01-02\n")
        code = main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {meta}: line 2: new-line character seen in unquoted field\n"
        assert not (tmp_path / "w" / "cohort.tsv").exists()

    def test_crlf_metadata_changes_no_ingest_byte(self, tmp_path, fixture_files, capsys):
        fasta, meta, _ = fixture_files
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(meta.read_bytes().replace(b"\n", b"\r\n"))
        for name, path in (("lf", meta), ("crlf", crlf)):
            assert main(["ingest", "--fasta", str(fasta), "--metadata", str(path),
                         "--workdir", str(tmp_path / name)]) == 0
        for output in ("cohort.tsv", "exclusion_report.tsv"):
            assert (tmp_path / "crlf" / output).read_bytes() == (tmp_path / "lf" / output).read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("marked", ["fasta", "metadata"])
    def test_byte_order_mark_changes_no_ingest_byte(self, tmp_path, fixture_files, marked, capsys):
        """A UTF-8 byte-order mark, as spreadsheet tools write, is not part of
        the first header or column name."""
        fasta, meta, _ = fixture_files
        inputs = {"fasta": fasta, "metadata": meta}
        bom = tmp_path / f"bom{inputs[marked].suffix}"
        bom.write_bytes(b"\xef\xbb\xbf" + inputs[marked].read_bytes())
        for name, paths in (("plain", inputs), ("bom", {**inputs, marked: bom})):
            assert main(["ingest", "--fasta", str(paths["fasta"]), "--metadata", str(paths["metadata"]),
                         "--workdir", str(tmp_path / name)]) == 0
        for output in ("cohort.tsv", "exclusion_report.tsv"):
            assert (tmp_path / "bom" / output).read_bytes() == (tmp_path / "plain" / output).read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("column", ["country", "location"])
    def test_extra_metadata_column_changes_no_ingest_byte(self, tmp_path, fixture_files, column, capsys):
        fasta, meta, _ = fixture_files
        lines = meta.read_text().splitlines()
        with_column = tmp_path / "with_column.tsv"
        with_column.write_text("".join(
            f"{head}\t{column if n == 0 else f'Region {n}'}\t{tail}\n"
            for n, (head, tail) in enumerate(line.split("\t", 1) for line in lines)
        ))
        for name, path in (("plain", meta), ("extra", with_column)):
            assert main(["ingest", "--fasta", str(fasta), "--metadata", str(path),
                         "--workdir", str(tmp_path / name)]) == 0
        for output in ("cohort.tsv", "exclusion_report.tsv"):
            assert (tmp_path / "extra" / output).read_bytes() == (tmp_path / "plain" / output).read_bytes()
        capsys.readouterr()


class TestGradcheckCommand:
    def test_exit_zero_and_per_tensor_lines(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "gradient check: PASS" in out
        assert out.count("PASS") >= 9


class TestSearchCommand:
    def test_small_search_writes_trial_table(self, tmp_path, fixture_files, capsys):
        fasta, meta, cfg = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        space = tmp_path / "space.tsv"
        space.write_text(
            "conv1_filters\tchoice\t4\nconv2_filters\tchoice\t4\n"
            "conv3_filters\tchoice\t4\nconv4_filters\tchoice\t4\n"
            "kernel_size\tchoice\t3\nlstm_units\tchoice\t4\n"
            "dense1_units\tchoice\t8\ndense2_units\tchoice\t4\ndense3_units\tchoice\t4\n"
            "dropout_rate\tlinear\t0.05\t0.2\nlearning_rate\tlog\t0.001\t0.003\n"
        )
        code = main(["search", "--matrix", str(wd / "features.mat"), "--workdir", str(wd),
                     "--space", str(space), "--trials", "1", "--k", "2", "--epochs", "1"])
        assert code == 0
        lines = (wd / "trials.tsv").read_text().splitlines()
        assert len(lines) == 2
        assert "\tok\t" in lines[1]
        capsys.readouterr()

    def test_trials_build_on_the_config_architecture(self, tmp_path, fixture_files, capsys):
        fasta, meta, cfg = fixture_files
        cfg.write_text(TINY_CONFIG.replace("pool_size = 2", "pool_size = 3"))
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
              "--workdir", str(wd)])
        space = tmp_path / "space.tsv"
        space.write_text("learning_rate\tlog\t0.001\t0.003\n")
        code = main(["search", "--config", str(cfg), "--matrix", str(wd / "features.mat"),
                     "--workdir", str(wd), "--space", str(space), "--trials", "1", "--k", "2",
                     "--epochs", "1", "--include-default"])
        assert code == 0
        header, *rows = (wd / "trials.tsv").read_text().splitlines()
        arch = Architecture(conv_filters=(4,), kernel_size=3, pool_size=3, dropout_rate=0.1,
                            lstm_units=6, dense_units=(8,))
        assert len(rows) == 2  # the configured architecture as a fixed trial, then one draw
        for row in rows:
            fields = dict(zip(header.split("\t"), row.split("\t")))
            assert fields["status"] == "ok"
            assert fields["param_count"] == str(Network(600, arch.specs()).param_count())
        capsys.readouterr()


def test_prep_stage_outputs_pinned(tmp_path, fixture_files, capsys):
    """sha256 of every matrix and sidecar that featurize, split and balance
    write for the fixture cohort, recorded with numpy 2.4 on x86-64."""
    fasta, meta, cfg = fixture_files
    wd = tmp_path / "w"
    main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
    assert main(["featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
                 "--workdir", str(wd)]) == 0
    assert main(["split", "--matrix", str(wd / "features.mat"), "--workdir", str(wd),
                 "--ratio", "0.8", "--seed", "1"]) == 0
    assert main(["balance", "--matrix", str(wd / "train.mat"), "--workdir", str(wd),
                 "--k", "3", "--seed", "2"]) == 0
    expected = {
        "features.mat": "8387bb999f42083c3a18ca8832036b2795f7976d318741e8b0a4e68d792e7734",
        "features.ids": "ac175f3b7f60f54d5901a4924e99460dd680bbbd63693edd46c6d4b6b4b029e6",
        "train.mat": "73cc6228037eb5e9885f0546e621abc701e14f12c9367f0c6e3e4cd0b73ede0f",
        "train.ids": "d04498fd74f9d85d1bf35f8984b5995ae5def9106b1b8554259bcb1e05787c2a",
        "test.mat": "2277240b167f7b0a989290125b180a599cbffa6e46f0a45d98ca2f04ae56b099",
        "test.ids": "108cb099bcea35277dfab4b13515fcff9b17896812a6ff8719dc687746c664a3",
        "balanced.mat": "4636c6ade8759d053a9c6617a4621e6c8f5bd605d81dca56221971968f68b89e",
        "balanced.ids": "07ebf898eb007f71d2698c9f9dbad8a014d4448b9b1bfaa5c289cb3e46ad0ae8",
    }
    got = {name: hashlib.sha256((wd / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected
    capsys.readouterr()


def test_featurize_holds_one_copy_of_the_matrix(tmp_path, fixture_files, capsys):
    """Rows are written into one preallocated matrix, so the traced peak stays
    near the matrix's size; a list of rows plus a stacked copy is twice it."""
    fasta, meta, _ = fixture_files
    wd = tmp_path / "w"
    main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
    tracemalloc.start()
    try:
        code = main(["featurize", "--cohort", str(wd / "cohort.tsv"), "--workdir", str(wd),
                     "--n-model", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    nbytes = dataset.read_matrix(wd / "features.mat").x.nbytes
    assert peak < 1.25 * nbytes, (peak, nbytes)
    capsys.readouterr()


def test_split_holds_one_part_at_a_time(tmp_path, capsys):
    """The read matrix plus one part: the train part is written and dropped
    before the test part is taken; both parts at once reach twice the matrix."""
    x, y = separable_blobs(n=400, length=2000)
    dataset.write_matrix(dataset.FeatureMatrix(x, y, [f"r{i}" for i in range(len(y))]),
                         tmp_path / "features.mat")
    tracemalloc.start()
    try:
        code = main(["split", "--matrix", str(tmp_path / "features.mat"),
                     "--workdir", str(tmp_path / "w"), "--ratio", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.6 * x.nbytes, (peak, x.nbytes)
    capsys.readouterr()


def _featurize_argv(wd: Path, n_model: int) -> list[str]:
    return ["featurize", "--cohort", str(wd / "cohort.tsv"), "--workdir", str(wd),
            "--n-model", str(n_model)]


def test_featurize_streams_the_bytes_of_the_whole_matrix(tmp_path, fixture_files, monkeypatch, capsys):
    """Blocks of 3 rows, the last one partial (40 records), write the bytes
    `write_matrix(featurize(...))` writes."""
    fasta, meta, _ = fixture_files
    wd = tmp_path / "w"
    main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
    monkeypatch.setattr(dataset, "MATRIX_BLOCK_BYTES", 3 * 4 * 640)
    assert main(_featurize_argv(wd, 640)) == 0
    records = read_cohort(wd / "cohort.tsv")
    m, _ = dataset.featurize(records, default_registry(), dataset.fit_codebook(records), 640)
    assert len(m) % 3
    dataset.write_matrix(m, tmp_path / "whole.mat")
    assert (wd / "features.mat").read_bytes() == (tmp_path / "whole.mat").read_bytes()
    assert (wd / "features.ids").read_bytes() == (tmp_path / "whole.ids").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("n_mild, n_severe", [(12, 28), (48, 112)])
def test_featurize_holds_one_block_whatever_the_cohort_size(tmp_path, monkeypatch, capsys,
                                                            n_mild, n_severe):
    """The traced peak stays under two row blocks plus 1 MiB at 3.2 MB and
    12.8 MB of matrix; the whole matrix is never held."""
    fasta_text, meta_text = cohort_fixture_texts(n_mild=n_mild, n_severe=n_severe)
    (tmp_path / "s.fasta").write_text(fasta_text)
    (tmp_path / "m.tsv").write_text(meta_text)
    wd = tmp_path / "w"
    main(["ingest", "--fasta", str(tmp_path / "s.fasta"), "--metadata", str(tmp_path / "m.tsv"),
          "--workdir", str(wd)])
    block = 256 << 10
    monkeypatch.setattr(dataset, "MATRIX_BLOCK_BYTES", block)
    tracemalloc.start()
    try:
        code = main(_featurize_argv(wd, 20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (wd / "features.mat").stat().st_size > 12 * block
    assert peak < 2 * block + (1 << 20), peak
    capsys.readouterr()


def test_featurize_failure_leaves_the_old_matrix(tmp_path, fixture_files, monkeypatch, capsys):
    """A non-canonical residue in the last record is an input error after
    every earlier block was written: the previous features.mat stays as it
    was and no temporary file is left."""
    fasta, meta, _ = fixture_files
    wd = tmp_path / "w"
    main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
    assert main(_featurize_argv(wd, 640)) == 0
    before = {p.name: p.read_bytes() for p in wd.iterdir()}
    records = read_cohort(wd / "cohort.tsv")
    last = records[-1]
    records[-1] = SpikeRecord(last.accession_id, last.sequence[:-1] + "X", last.age, last.gender,
                              last.clade, last.lineage, last.label)
    write_cohort(records, wd / "cohort.tsv")
    before["cohort.tsv"] = (wd / "cohort.tsv").read_bytes()
    monkeypatch.setattr(dataset, "MATRIX_BLOCK_BYTES", 3 * 4 * 640)
    capsys.readouterr()
    assert main(_featurize_argv(wd, 640)) == 2
    assert "non-canonical residues" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in wd.iterdir()} == before


def test_split_writes_its_parts_in_row_blocks(tmp_path, monkeypatch, capsys):
    """The read matrix plus one reused block of rows: the traced peak stays
    within 1.15x the read matrix."""
    x, y = separable_blobs(n=400, length=2000)
    dataset.write_matrix(dataset.FeatureMatrix(x, y, [f"r{i}" for i in range(len(y))]),
                         tmp_path / "features.mat")
    matrix_bytes = dataset.read_matrix(tmp_path / "features.mat").x.nbytes
    monkeypatch.setattr(dataset, "MATRIX_BLOCK_BYTES", 64 << 10)
    tracemalloc.start()
    try:
        code = main(["split", "--matrix", str(tmp_path / "features.mat"),
                     "--workdir", str(tmp_path / "w"), "--ratio", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.15 * matrix_bytes, (peak, matrix_bytes)
    capsys.readouterr()


def _blob_matrix(path: Path, n: int, length: int) -> None:
    x, y = separable_blobs(n=n, length=length)
    dataset.write_matrix(dataset.FeatureMatrix(x, y, [f"r{i}" for i in range(n)]), path)


def _split_argv(matrix: Path, wd: Path) -> list[str]:
    return ["split", "--matrix", str(matrix), "--workdir", str(wd), "--ratio", "0.8", "--seed", "3"]


def test_split_streams_the_bytes_of_each_part(tmp_path, monkeypatch, capsys):
    """Blocks of 3 rows, the last one partial in each part, write the bytes
    `write_matrix(read_matrix(src).take(idx))` writes."""
    _blob_matrix(tmp_path / "features.mat", 60, 64)
    monkeypatch.setattr(dataset, "MATRIX_BLOCK_BYTES", 3 * 4 * 64)
    assert main(_split_argv(tmp_path / "features.mat", tmp_path / "w")) == 0
    whole = dataset.read_matrix(tmp_path / "features.mat")
    parts = dataset.split_indices(whole.y, 0.8, 3)
    assert all(len(idx) % 3 for idx in parts)
    for name, idx in zip(("train", "test"), parts):
        dataset.write_matrix(whole.take(idx), tmp_path / f"{name}.mat")
        for suffix in (".mat", ".ids"):
            assert (tmp_path / "w" / f"{name}{suffix}").read_bytes() == (tmp_path / f"{name}{suffix}").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("rows", [200, 800])
def test_split_holds_one_block_whatever_the_matrix_size(tmp_path, monkeypatch, capsys, rows):
    """The traced peak stays under two row blocks plus 1 MiB at 3.2 MB and
    12.8 MB of matrix; the matrix is never held."""
    _blob_matrix(tmp_path / "features.mat", rows, 4000)
    block = 256 << 10
    monkeypatch.setattr(dataset, "MATRIX_BLOCK_BYTES", block)
    tracemalloc.start()
    try:
        code = main(_split_argv(tmp_path / "features.mat", tmp_path / "w"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (tmp_path / "features.mat").stat().st_size > 12 * block
    assert peak < 2 * block + (1 << 20), peak
    capsys.readouterr()


def _corrupt_magic(path: Path) -> None:
    path.write_bytes(b"X" + path.read_bytes()[1:])


def _truncate_payload(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-3])


def _label_two(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-1] + b"\x02")


def _drop_an_accession(path: Path) -> None:
    ids = path.with_suffix(".ids")
    ids.write_text("".join(ids.read_text().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize("corrupt, message", [
    (_corrupt_magic, "bad magic"),
    (_truncate_payload, "truncated payload"),
    (_label_two, "labels must be 0 (severe) or 1 (mild)"),
    (_drop_an_accession, "59 accessions for 60 matrix rows"),
], ids=["magic", "truncated", "label-2", "ids-row-count"])
def test_split_refuses_bad_input_before_writing_a_part(tmp_path, capsys, corrupt, message):
    """Exit 2 with no new train.*, test.* or .tmp file, in a new workdir and
    in one that holds the parts of an earlier split, which stay as they were."""
    src = tmp_path / "in" / "features.mat"
    src.parent.mkdir()
    _blob_matrix(src, 60, 32)
    earlier = tmp_path / "earlier"
    assert main(_split_argv(src, earlier)) == 0
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}
    corrupt(src)
    capsys.readouterr()
    for wd in (tmp_path / "new", earlier):
        assert main(_split_argv(src, wd)) == 2
        assert message in capsys.readouterr().err
    assert list((tmp_path / "new").iterdir()) == []
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before


def test_split_refuses_a_short_read(tmp_path, monkeypatch):
    """A matrix cut to 10 rows after its checks passed: the read of the
    first part comes back short, and nothing is written."""
    src = tmp_path / "features.mat"
    _blob_matrix(src, 60, 32)
    split_indices = dataset.split_indices

    def cut_then_split(y, ratio, seed):
        os.truncate(src, len(dataset.MATRIX_MAGIC) + 8 + 10 * 32 * 4)
        return split_indices(y, ratio, seed)

    monkeypatch.setattr(dataset, "split_indices", cut_then_split)
    with pytest.raises(dataset.MatrixFormatError, match="short read"):
        dataset.write_split(src, 0.8, 3, tmp_path / "train.mat", tmp_path / "test.mat")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.ids", "features.mat"]


def test_split_may_overwrite_its_own_input(tmp_path, monkeypatch, capsys):
    """`split --matrix <wd>/train.mat --workdir <wd>` writes the bytes a split
    of a copy writes: the test part is read from the open input after
    train.mat was replaced."""
    _blob_matrix(tmp_path / "features.mat", 80, 32)
    wd = tmp_path / "w"
    assert main(_split_argv(tmp_path / "features.mat", wd)) == 0
    copy = tmp_path / "copy"
    copy.mkdir()
    for suffix in (".mat", ".ids"):
        shutil.copy(wd / f"train{suffix}", copy / f"train{suffix}")
    monkeypatch.setattr(dataset, "MATRIX_BLOCK_BYTES", 3 * 4 * 32)
    assert main(_split_argv(wd / "train.mat", wd)) == 0
    assert main(_split_argv(copy / "train.mat", tmp_path / "from_copy")) == 0
    for name in ("train.mat", "train.ids", "test.mat", "test.ids"):
        assert (wd / name).read_bytes() == (tmp_path / "from_copy" / name).read_bytes()
    capsys.readouterr()


def test_config_flags_reach_the_resolved_config(tmp_path, fixture_files, capsys):
    """Every flag whose dest is a `RunConfig` field shows up, with its value,
    in the `<command>.resolved.cfg` the command writes."""
    fasta, meta, cfg = fixture_files
    wd = tmp_path / "w"
    space = tmp_path / "space.tsv"
    space.write_text("learning_rate\tlog\t0.001\t0.003\n")
    runs = {
        "ingest": ["--fasta", str(fasta), "--metadata", str(meta)],
        "stats": ["--cohort", str(wd / "cohort.tsv")],
        "featurize": ["--config", str(cfg), "--cohort", str(wd / "cohort.tsv"), "--n-model", "640"],
        "split": ["--matrix", str(wd / "features.mat"), "--ratio", "0.75", "--seed", "3"],
        "balance": ["--matrix", str(wd / "train.mat"), "--k", "2", "--seed", "4"],
        "train": ["--config", str(cfg), "--matrix", str(wd / "balanced.mat"), "--epochs", "1",
                  "--batch-size", "8", "--learning-rate", "0.002",
                  "--seed", "5"],
        "evaluate": ["--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                     "--matrix", str(wd / "test.mat"), "--threshold", "0.4"],
        "predict": ["--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                    "--codebook", str(wd / "codebook.tsv"), "--cohort", str(wd / "cohort.tsv"),
                    "--threshold", "0.6"],
        "search": ["--config", str(cfg), "--matrix", str(wd / "features.mat"),
                   "--space", str(space), "--trials", "1", "--k", "2", "--epochs", "1",
                   "--seed", "6"],
        "gradcheck": ["--seed", "7"],
    }
    config_keys = {f.name for f in dataclasses.fields(RunConfig)}
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert sorted(subparsers) == sorted(runs)
    for command, argv in runs.items():
        argv = [command, *argv, "--workdir", str(wd)]
        assert main(argv) == 0, command
        lines = (wd / f"{command}.resolved.cfg").read_text().splitlines()
        resolved = dict(line.split(" = ", 1) for line in lines)
        for action in subparsers[command]._actions:
            if action.dest not in config_keys:
                continue
            given = [flag for flag in action.option_strings if flag in argv]
            assert given, f"{command}: no value given for {action.option_strings}"
            raw = argv[argv.index(given[0]) + 1]
            value = action.type(raw) if action.type else raw
            assert resolved[action.dest] == str(value), (command, given[0])
    capsys.readouterr()


def test_every_subcommand_binds_a_handler():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for command, parser in subparsers.items():
        assert callable(parser.get_default("handler")), command


def test_readme_configuration_table_lists_every_config_key():
    """The backticked keys in the first column of README's Configuration
    table are exactly `RunConfig`'s fields."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = [
        key
        for line in section.splitlines()
        if line.startswith("| `")
        for key in re.findall(r"`([^`]+)`", line.split("|")[1])
    ]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_run_config_defaults_are_the_stock_values():
    cfg, stock = RunConfig(), TrainConfig()
    arch = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(Architecture)}
    assert arch == dataclasses.asdict(Architecture())
    assert (cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.train_seed) == (
        stock.epochs, stock.batch_size, stock.learning_rate, stock.seed)
    assert cfg.n_model == DEFAULT_N_MODEL
    assert AdamState().learning_rate == stock.learning_rate


@pytest.mark.parametrize("sep", ["\t", ","], ids=["tab", "comma"])
def test_metadata_delimiter_comes_from_the_header_line_of_a_txt_file(tmp_path, fixture_files, sep, capsys):
    fasta, meta, _ = fixture_files
    txt = tmp_path / "meta.txt"
    txt.write_text(meta.read_text().replace("\t", sep))
    assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(tmp_path / "a")]) == 0
    assert main(["ingest", "--fasta", str(fasta), "--metadata", str(txt), "--workdir", str(tmp_path / "b")]) == 0
    cohort = (tmp_path / "a" / "cohort.tsv").read_bytes()
    assert cohort.count(b"\n") == 41
    assert (tmp_path / "b" / "cohort.tsv").read_bytes() == cohort
    capsys.readouterr()


def test_commands_write_only_into_workdir(tmp_path, fixture_files, monkeypatch, capsys):
    """`stats` and `gradcheck` write no outputs, so without `--workdir` they
    leave the current directory as it was."""
    fasta, meta, _ = fixture_files
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.chdir(scratch)
    wd = tmp_path / "w"
    assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta),
                 "--workdir", str(wd)]) == 0
    assert main(["stats", "--cohort", str(wd / "cohort.tsv")]) == 0
    assert main(["gradcheck"]) == 0
    assert list(scratch.iterdir()) == []
    capsys.readouterr()


def test_search_with_every_trial_failed_exits_1_and_writes_its_record(tmp_path, capsys):
    _blob_matrix(tmp_path / "x.mat", 30, 40)
    space = tmp_path / "space.tsv"
    space.write_text("kernel_size\tchoice\t50\n")  # no stage fits a width of 40
    wd = tmp_path / "w"
    code = main(["search", "--matrix", str(tmp_path / "x.mat"), "--space", str(space),
                 "--trials", "2", "--k", "2", "--epochs", "1", "--workdir", str(wd)])
    assert code == 1
    assert capsys.readouterr().err == "no trial completed successfully\n"
    assert [line.split("\t")[2] for line in (wd / "trials.tsv").read_text().splitlines()[1:]] == ["failed"] * 2
    assert load_config(str(wd / "search.resolved.cfg"), {}).search_space == str(space)


class TestConfigFile:
    def test_repeated_key_refused_with_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\n# comment\nepochs = 7\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        assert f"{cfg}:3: epochs is already set on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line, value", [
        ("registry = /data/run#2/scales.tsv", "/data/run#2/scales.tsv"),
        ("registry = /data/scales.tsv # note", "/data/scales.tsv"),
        ("registry = /data/scales.tsv\t# note", "/data/scales.tsv"),
        ("registry = #2.tsv", ""),
    ])
    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path, line, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# header\n  # indented comment\n{line}\n")
        assert load_config(str(cfg), {}).registry == value

    def test_resolved_config_with_hash_in_workdir_loads_back(self, tmp_path, fixture_files, capsys):
        fasta, meta, _ = fixture_files
        wd = tmp_path / "run#2"
        assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta),
                     "--workdir", str(wd)]) == 0
        resolved = wd / "ingest.resolved.cfg"
        cfg = load_config(str(resolved), {})
        assert cfg.workdir == str(wd)
        assert cfg.resolved_lines() == resolved.read_text()
        capsys.readouterr()

    @pytest.mark.parametrize("key, value", [
        ("workdir", "w #2"),
        ("workdir", "w\t#2"),
        ("workdir", "#w"),
        ("workdir", " lead"),
        ("workdir", "trail "),
        ("registry", "/data/a\nb=c"),
        ("registry", "/data/a\rb"),
        ("registry", "/data/a\u2028b"),  # a line break to str.splitlines
    ])
    def test_value_the_resolved_config_cannot_load_back_is_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for {key}: "):
            load_config(None, {key: value})

    @pytest.mark.parametrize("value", ["run#2", "a=b", "with space", ""])
    def test_value_the_resolved_config_loads_back_is_kept(self, tmp_path, value):
        cfg = load_config(None, {"registry": value})
        resolved = tmp_path / "run.cfg"
        resolved.write_text(cfg.resolved_lines())
        assert load_config(str(resolved), {}).registry == value

    @pytest.mark.parametrize("value", ["4,,4", ",4,"])
    def test_list_with_an_empty_element_is_refused(self, tmp_path, value, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"conv_filters = {value}\n")
        with pytest.raises(ConfigError, match=f"^bad value for conv_filters: {re.escape(repr(value))} "):
            load_config(str(cfg), {})
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad value for conv_filters: {value!r} ")

    @pytest.mark.parametrize("key", ["split_seed", "smote_seed", "train_seed"])
    def test_negative_seed_in_a_file_is_refused(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = -1\n")
        with pytest.raises(ConfigError, match=f"^bad value for {key}: '-1' "):
            load_config(str(cfg), {})

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfsplit_seed = 3\nratio = 0.5\n")
        loaded = load_config(str(cfg), {})
        assert (loaded.split_seed, loaded.ratio) == (3, 0.5)

    def test_empty_list_loads_back_as_no_stages(self, tmp_path):
        resolved = tmp_path / "run.cfg"
        resolved.write_text(load_config(None, {"dense_units": ""}).resolved_lines())
        assert "\ndense_units = \n" in resolved.read_text()
        assert load_config(str(resolved), {}).dense_units == ()

    def test_ingest_with_an_unwritable_workdir_creates_nothing(self, tmp_path, fixture_files,
                                                                 monkeypatch, capsys):
        fasta, meta, _ = fixture_files
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", "w #2"]) == 2
        assert "bad value for workdir: 'w #2'" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("stage_args", [
        ["stats", "--cohort", "cohort.tsv"],
        ["featurize", "--cohort", "cohort.tsv"],
        ["split", "--matrix", "features.mat"],
        ["balance", "--matrix", "train.mat"],
        ["train", "--matrix", "train.mat"],
        ["evaluate", "--checkpoint", "model.ckpt", "--matrix", "test.mat"],
        ["predict", "--checkpoint", "model.ckpt", "--codebook", "codebook.tsv", "--cohort", "cohort.tsv"],
        ["search", "--matrix", "train.mat"],
        ["gradcheck"],
    ], ids=lambda args: args[0])
    def test_every_other_stage_refuses_the_workdir_before_reading_or_writing(self, tmp_path, stage_args,
                                                                              monkeypatch, capsys):
        # the named inputs do not exist: the config error must come first
        monkeypatch.chdir(tmp_path)
        assert main([*stage_args, "--workdir", "w #2"]) == 2
        assert "bad value for workdir: 'w #2'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
