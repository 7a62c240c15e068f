import io

import numpy as np
import pytest

import spikesev.training as training_module
from helpers import best_threshold_accuracy, scaled_stack, separable_blobs
from spikesev.dataset import FeatureVector
from spikesev.network import Architecture, Network, default_architecture, param_count
from spikesev.training import (
    Choice,
    CrossValResult,
    EpochLog,
    Range,
    TrainConfig,
    cross_validate,
    default_search_space,
    parse_search_space,
    random_search,
    sample_hyperparams,
    specs_from_hyperparams,
    stratified_folds,
    train,
    write_epoch_logs,
    write_trials,
)

TINY = dict(n_stages=1, filters=4, lstm_units=8, dense_units=8)


def _blob_vectors(n=60, length=40, seed=5):
    x, y = separable_blobs(n=n, length=length, seed=seed)
    return [
        FeatureVector(values=x[i], label=int(y[i]), accession=f"R{i:03d}")
        for i in range(n)
    ]


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            TrainConfig(lambda_l2=-0.1)

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(batch_size=0)


class TestTrain:
    def test_same_seed_identical_epoch_logs(self):
        x, y = separable_blobs(n=40, length=40, seed=2)
        logs = []
        for _ in range(2):
            net = Network(40, scaled_stack(**TINY), seed=3)
            run_logs, _ = train(net, x, y, TrainConfig(epochs=3, seed=3, batch_size=16))
            logs.append(run_logs)
        assert logs[0] == logs[1]

    def test_log_length_matches_epochs(self):
        x, y = separable_blobs(n=30, length=40, seed=2)
        net = Network(40, scaled_stack(**TINY), seed=3)
        run_logs, _ = train(net, x, y, TrainConfig(epochs=4, seed=1, batch_size=16))
        assert [log.epoch for log in run_logs] == [1, 2, 3, 4]
        assert all(0.0 <= log.train_accuracy <= 1.0 for log in run_logs)

    def test_width_mismatch_rejected(self):
        x, y = separable_blobs(n=10, length=40, seed=2)
        net = Network(41, scaled_stack(**TINY), seed=3)
        with pytest.raises(ValueError, match="width"):
            train(net, x, y, TrainConfig(epochs=1))

    def test_non_finite_loss_aborts_with_diagnostic(self):
        x, y = separable_blobs(n=10, length=40, seed=2)
        x = x.copy()
        x[0, 0] = np.inf
        net = Network(40, scaled_stack(**TINY), seed=3)
        with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match="non-finite loss at epoch 1"
        ):
            train(net, x, y, TrainConfig(epochs=1, batch_size=10, shuffle=False))

    def test_validation_metrics_logged(self):
        x, y = separable_blobs(n=30, length=40, seed=2)
        net = Network(40, scaled_stack(**TINY), seed=3)
        run_logs, _ = train(net, x[:20], y[:20], TrainConfig(epochs=2, batch_size=10),
                            validation=(x[20:], y[20:]))
        assert all(log.val_loss is not None and log.val_accuracy is not None for log in run_logs)

    def test_epoch_log_tsv(self):
        logs = [EpochLog(1, 0.5, 0.75), EpochLog(2, 0.4, 0.8, 0.45, 0.7)]
        buf = io.StringIO()
        write_epoch_logs(logs, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epoch\tloss\taccuracy\tval_loss\tval_accuracy"
        assert lines[1] == "1\t0.500000\t0.750000\t-\t-"
        assert lines[2].startswith("2\t0.400000\t0.800000\t0.450000\t0.700000")


class TestStratifiedFolds:
    def test_every_fold_holds_both_classes(self):
        labels = np.array([0] * 13 + [1] * 7, dtype=np.uint8)
        for train_idx, val_idx in stratified_folds(labels, 3, seed=0):
            assert set(labels[val_idx]) == {0, 1}
            assert set(labels[train_idx]) == {0, 1}

    def test_folds_partition_the_data(self):
        labels = np.array([0] * 10 + [1] * 8, dtype=np.uint8)
        folds = stratified_folds(labels, 4, seed=1)
        all_val = np.concatenate([v for _, v in folds])
        assert sorted(all_val.tolist()) == list(range(18))
        for train_idx, val_idx in folds:
            assert not set(train_idx) & set(val_idx)

    def test_deterministic(self):
        labels = np.array([0] * 9 + [1] * 6, dtype=np.uint8)
        a = stratified_folds(labels, 3, seed=5)
        b = stratified_folds(labels, 3, seed=5)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)

    def test_class_smaller_than_k_rejected(self):
        labels = np.array([0] * 9 + [1] * 2, dtype=np.uint8)
        with pytest.raises(ValueError, match="fewer than k"):
            stratified_folds(labels, 3, seed=0)


class TestCrossValidate:
    def test_separable_set_scores_high(self):
        vectors = _blob_vectors(n=60, length=40)
        # independent separability oracle: one thresholded coordinate suffices
        x = np.stack([v.values for v in vectors])
        y = np.array([v.label for v in vectors], dtype=np.uint8)
        assert best_threshold_accuracy(x[:, 0], y) >= 0.95
        config = TrainConfig(epochs=8, seed=4, batch_size=16, learning_rate=3e-3)
        result = cross_validate(vectors, 3, config, specs=scaled_stack(**TINY), smote_k=3)
        assert isinstance(result, CrossValResult)
        assert len(result.fold_f1) == 3
        assert result.mean_f1 >= 0.95

    def test_balancing_stays_inside_the_fold(self, monkeypatch):
        vectors = _blob_vectors(n=30, length=40)
        calls = []
        real_smote = training_module.smote

        def spy(train_vectors, k, seed):
            calls.append(list(train_vectors))
            return real_smote(train_vectors, k=k, seed=seed)

        monkeypatch.setattr(training_module, "smote", spy)
        config = TrainConfig(epochs=1, seed=0, batch_size=16)
        cross_validate(vectors, 3, config, specs=scaled_stack(**TINY), smote_k=2)
        assert len(calls) == 3
        originals = {id(v) for v in vectors}
        for fold_train in calls:
            # balancing only ever sees original training vectors
            assert {id(v) for v in fold_train} <= originals
            assert len(fold_train) == 20

    def test_fold_membership_deterministic(self):
        vectors = _blob_vectors(n=30, length=40)
        config = TrainConfig(epochs=1, seed=9, batch_size=16)
        a = cross_validate(vectors, 2, config, specs=scaled_stack(**TINY), smote_k=2)
        b = cross_validate(vectors, 2, config, specs=scaled_stack(**TINY), smote_k=2)
        assert a == b


SMALL_SPACE = {
    "conv1_filters": Choice((4, 8)),
    "conv2_filters": Choice((4,)),
    "conv3_filters": Choice((4,)),
    "conv4_filters": Choice((4,)),
    "kernel_size": Choice((3,)),
    "dropout_rate": Range(0.05, 0.2),
    "lstm_units": Choice((4, 8)),
    "dense1_units": Choice((8,)),
    "dense2_units": Choice((4,)),
    "dense3_units": Choice((4,)),
    "learning_rate": Range(1e-3, 5e-3, scale="log"),
}


class TestRandomSearch:
    def test_single_trial_is_best(self):
        vectors = _blob_vectors(n=40, length=200, seed=8)
        config = TrainConfig(epochs=1, seed=2, batch_size=16)
        trials = random_search(SMALL_SPACE, 1, vectors, config, Architecture(), cv_k=2, smote_k=2)
        assert len(trials) == 1
        assert trials[0].status == "ok"
        assert trials[0].mean_f1 is not None

    def test_identical_seeds_identical_trial_sequence(self):
        rng_a = np.random.default_rng(12)
        rng_b = np.random.default_rng(12)
        draws_a = [sample_hyperparams(SMALL_SPACE, rng_a) for _ in range(5)]
        draws_b = [sample_hyperparams(SMALL_SPACE, rng_b) for _ in range(5)]
        assert draws_a == draws_b

    def test_failing_shapes_recorded_not_fatal(self):
        vectors = _blob_vectors(n=30, length=40)
        bad_space = dict(SMALL_SPACE)
        bad_space["kernel_size"] = Choice((50,))  # cannot fit a length-40 input
        config = TrainConfig(epochs=1, seed=1, batch_size=16)
        trials = random_search(bad_space, 2, vectors, config, Architecture(), cv_k=2, smote_k=2)
        assert all(t.status == "failed" for t in trials)
        assert all(t.error for t in trials)

    def test_ranking_by_f1_then_param_count(self):
        vectors = _blob_vectors(n=40, length=200, seed=8)
        config = TrainConfig(epochs=1, seed=3, batch_size=16)
        trials = random_search(SMALL_SPACE, 3, vectors, config, Architecture(), cv_k=2, smote_k=2)
        ok = [t for t in trials if t.status == "ok"]
        for a, b in zip(ok, ok[1:]):
            assert (a.mean_f1, -a.n_params) >= (b.mean_f1, -b.n_params)

    def test_stock_configuration_as_fixed_trial(self):
        vectors = _blob_vectors(n=24, length=512, seed=6)
        config = TrainConfig(epochs=1, seed=0, batch_size=12)
        trials = random_search(
            SMALL_SPACE, 1, vectors, config, Architecture(), cv_k=2, smote_k=2,
            fixed_trials=[{}],
        )
        fixed = [t for t in trials if t.index == 0]
        assert fixed and fixed[0].hyperparams == {}
        assert fixed[0].status == "ok"
        assert fixed[0].mean_f1 is not None

    def test_trial_table_output(self):
        vectors = _blob_vectors(n=30, length=40)
        config = TrainConfig(epochs=1, seed=1, batch_size=16)
        trials = random_search(SMALL_SPACE, 2, vectors, config, Architecture(), cv_k=2, smote_k=2)
        buf = io.StringIO()
        write_trials(trials, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("rank\ttrial\tstatus\tmean_f1")
        assert len(lines) == 3

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            random_search(SMALL_SPACE, 0, [], TrainConfig(epochs=1), Architecture())


class TestSearchSpaceParsing:
    def test_parse_choice_and_ranges(self):
        text = (
            "# comment\n"
            "kernel_size\tchoice\t3\t4\t5\n"
            "dropout_rate\tlinear\t0.05\t0.3\n"
            "learning_rate\tlog\t1e-4\t1e-2\n"
            "lstm_units\tint\t16\t96\n"
        )
        space = parse_search_space(text)
        assert space["kernel_size"] == Choice((3, 4, 5))
        assert space["dropout_rate"] == Range(0.05, 0.3)
        assert space["learning_rate"] == Range(1e-4, 1e-2, scale="log")
        assert space["lstm_units"] == Range(16, 96, integer=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_search_space("x\tgaussian\t0\t1\n")

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_search_space("# nothing\n")

    def test_default_space_samples_build_valid_models(self):
        rng = np.random.default_rng(0)
        space = default_search_space()
        for _ in range(10):
            hp = sample_hyperparams(space, rng)
            specs = specs_from_hyperparams(hp, Architecture())
            assert specs  # every sampled stack is constructible

    def test_stock_defaults_build_the_default_stack(self):
        assert specs_from_hyperparams({}, Architecture()) == default_architecture()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameter 'kernal_size'"):
            parse_search_space("kernal_size\tchoice\t3\t4\n")
        with pytest.raises(ValueError, match="unknown hyperparameter 'conv_filters'"):
            parse_search_space("conv_filters\tchoice\t3\n")


class TestSearchBase:
    BASE = Architecture(conv_filters=(4, 3), kernel_size=3, pool_size=3, lstm_units=5, dense_units=(6,))

    def test_unsampled_values_come_from_the_base(self):
        assert specs_from_hyperparams({"learning_rate": 0.01}, self.BASE) == self.BASE.specs()

    def test_indexed_name_replaces_that_element(self):
        specs = specs_from_hyperparams({"conv2_filters": 7, "dense1_units": 9}, self.BASE)
        expected = Architecture(
            conv_filters=(4, 7), kernel_size=3, pool_size=3, lstm_units=5, dense_units=(9,)
        )
        assert specs == expected.specs()

    def test_index_beyond_the_base_stack_fails_the_trial(self):
        vectors = _blob_vectors(n=30, length=40)
        space = {"conv3_filters": Choice((4,)), "learning_rate": Range(1e-3, 2e-3)}
        trials = random_search(space, 1, vectors, TrainConfig(epochs=1), self.BASE, cv_k=2, smote_k=2)
        assert trials[0].status == "failed"
        assert "conv3_filters" in trials[0].error

    def test_trial_parameter_count_is_the_base_architecture(self):
        vectors = _blob_vectors(n=30, length=40)
        space = {"learning_rate": Range(1e-3, 2e-3)}
        config = TrainConfig(epochs=1, batch_size=16)
        trials = random_search(space, 1, vectors, config, self.BASE, cv_k=2, smote_k=2)
        assert trials[0].status == "ok"
        assert trials[0].n_params == param_count(self.BASE.specs(), 40)
