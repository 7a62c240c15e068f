import pytest

from helpers import cohort_fixture_texts, separable_blobs
from spikesev import dataset
from spikesev.cli import main
from spikesev.ingest import Severity, SpikeRecord, read_cohort, write_cohort
from spikesev.network import Architecture, param_count

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
        vectors = dataset.read_matrix(wd / "features.mat")
        assert len(vectors) == 40
        assert vectors[0].values.shape == (600,)
        assert "registry_hash" in (wd / "codebook.tsv").read_text()

        assert main(["split", "--matrix", str(wd / "features.mat"), "--workdir", str(wd),
                     "--ratio", "0.8", "--seed", "1"]) == 0
        train_rows = dataset.read_matrix(wd / "train.mat")
        test_rows = dataset.read_matrix(wd / "test.mat")
        assert len(train_rows) == 31 and len(test_rows) == 9  # floor(0.8*28)+floor(0.8*12)

        assert main(["balance", "--matrix", str(wd / "train.mat"), "--workdir", str(wd),
                     "--k", "3", "--seed", "2"]) == 0
        balanced = dataset.read_matrix(wd / "balanced.mat")
        labels = [v.label for v in balanced]
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
        vectors = [
            dataset.FeatureVector(values=x[i], label=int(y[i]), accession=f"S{i}")
            for i in range(len(y))
        ]
        split = dataset.stratified_split(vectors, 0.8, seed=0)
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

    def test_featurize_model_length_too_small(self, tmp_path, fixture_files, capsys):
        fasta, meta, _ = fixture_files
        wd = tmp_path / "w"
        main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd)])
        code = main(["featurize", "--cohort", str(wd / "cohort.tsv"), "--workdir", str(wd),
                     "--n-model", "30"])
        assert code == 2
        assert "model length too small" in capsys.readouterr().err

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
        other = [dataset.FeatureVector(values=x[i], label=int(y[i])) for i in range(8)]
        dataset.write_matrix(other, wd / "other.mat")
        code = main(["evaluate", "--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
                     "--matrix", str(wd / "other.mat"), "--workdir", str(wd)])
        assert code == 2
        assert "width" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        assert main(["gradcheck", "--config", str(bad)]) == 2
        assert "unknown configuration key" in capsys.readouterr().err


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
            assert fields["param_count"] == str(param_count(arch.specs(), 600))
        capsys.readouterr()


def test_parallel_featurize_is_bit_identical(tmp_path, fixture_files, capsys):
    fasta, meta, cfg = fixture_files
    wd1, wd2 = tmp_path / "serial", tmp_path / "parallel"
    main(["ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd1)])
    assert main(["featurize", "--config", str(cfg), "--cohort", str(wd1 / "cohort.tsv"),
                 "--workdir", str(wd1), "--jobs", "1"]) == 0
    assert main(["featurize", "--config", str(cfg), "--cohort", str(wd1 / "cohort.tsv"),
                 "--workdir", str(wd2), "--jobs", "2"]) == 0
    assert (wd1 / "features.mat").read_bytes() == (wd2 / "features.mat").read_bytes()
    assert (wd1 / "features.ids").read_bytes() == (wd2 / "features.ids").read_bytes()
    capsys.readouterr()


def test_commands_write_only_into_workdir(tmp_path, fixture_files, monkeypatch, capsys):
    fasta, meta, _ = fixture_files
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.chdir(scratch)
    wd = tmp_path / "w"
    assert main(["ingest", "--fasta", str(fasta), "--metadata", str(meta),
                 "--workdir", str(wd)]) == 0
    assert list(scratch.iterdir()) == []
    capsys.readouterr()
