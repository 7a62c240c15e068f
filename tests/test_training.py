import re

import numpy as np
import pytest

import spikesev.training as training_module
from helpers import best_threshold_accuracy, scaled_stack, separable_blobs
from spikesev.dataset import FeatureMatrix
from spikesev.network import Architecture, Network
from spikesev.training import (
    Choice,
    EpochLog,
    Range,
    TrainConfig,
    cross_validate,
    default_search_space,
    epoch_logs_tsv,
    parse_search_space,
    random_search,
    sample_hyperparams,
    specs_from_hyperparams,
    stratified_folds,
    train,
    trials_tsv,
)

TINY = dict(n_stages=1, filters=4, lstm_units=8, dense_units=8)


def _blob_matrix(n=60, length=40, seed=5):
    x, y = separable_blobs(n=n, length=length, seed=seed)
    return FeatureMatrix(x, y, [f"R{i:03d}" for i in range(n)])


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_not_positive_finite_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be a positive finite number"):
            TrainConfig(learning_rate=rate)


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
            train(net, x, y, TrainConfig(epochs=1, batch_size=10))

    def test_validation_metrics_logged(self):
        x, y = separable_blobs(n=30, length=40, seed=2)
        net = Network(40, scaled_stack(**TINY), seed=3)
        run_logs, _ = train(net, x[:20], y[:20], TrainConfig(epochs=2, batch_size=10),
                            validation=(x[20:], y[20:]))
        assert all(log.val_loss is not None and log.val_accuracy is not None for log in run_logs)

    @pytest.mark.parametrize(
        "rows, validation, match",
        [
            (20, lambda x, y: (x[20:, :39], y[20:]), "validation feature width 39"),
            (20, lambda x, y: (x[20:], y[21:]), "validation set has 10 rows but 9 labels"),
            (19, None, "training set has 19 rows but 20 labels"),
            (20, lambda x, y: (x[:0], y[:0]), "empty validation set"),
        ],
        ids=["val-width", "val-labels", "train-labels", "val-empty"],
    )
    def test_mismatched_sets_refused_before_the_first_step(self, rows, validation, match):
        x, y = separable_blobs(n=30, length=40, seed=2)
        net = Network(40, scaled_stack(**TINY), seed=3)
        before = [p.copy() for layer in net.params for p in layer.values()]
        with pytest.raises(ValueError, match=match):
            train(net, x[:rows], y[:20], TrainConfig(epochs=1, batch_size=10),
                  validation=validation(x, y) if validation else None)
        after = [p for layer in net.params for p in layer.values()]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))

    def test_epoch_log_tsv(self):
        logs = [EpochLog(1, 0.5, 0.75), EpochLog(2, 0.4, 0.8, 0.45, 0.7)]
        lines = epoch_logs_tsv(logs).splitlines()
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

    def test_indices_pinned_for_a_seeded_label_vector(self):
        # recorded from the list-of-lists deal this one-pass assignment replaced
        labels = np.array([0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8)
        folds = stratified_folds(labels, 3, seed=7)
        assert [(t.tolist(), v.tolist()) for t, v in folds] == [
            ([0, 1, 2, 5, 6, 7, 9, 11, 12, 13], [3, 4, 8, 10, 14]),
            ([1, 3, 4, 8, 9, 10, 11, 12, 13, 14], [0, 2, 5, 6, 7]),
            ([0, 2, 3, 4, 5, 6, 7, 8, 10, 14], [1, 9, 11, 12, 13]),
        ]
        assert all(t.dtype == v.dtype == np.intp for t, v in folds)

    def test_class_smaller_than_k_rejected(self):
        labels = np.array([0] * 9 + [1] * 2, dtype=np.uint8)
        with pytest.raises(ValueError, match="fewer than k"):
            stratified_folds(labels, 3, seed=0)


class TestCrossValidate:
    def test_separable_set_scores_high(self):
        m = _blob_matrix(n=60, length=40)
        # independent separability oracle: one thresholded coordinate suffices
        assert best_threshold_accuracy(m.x[:, 0], m.y) >= 0.95
        config = TrainConfig(epochs=8, seed=4, batch_size=16, learning_rate=3e-3)
        result = cross_validate(m, 3, config, specs=scaled_stack(**TINY), smote_k=3)
        assert isinstance(result, list)
        assert len(result) == 3
        assert np.mean(result) >= 0.95

    def test_balancing_stays_inside_the_fold(self, monkeypatch):
        m = _blob_matrix(n=30, length=40)
        calls = []
        real_smote = training_module.smote

        def spy(fold_train, k, seed):
            calls.append(fold_train)
            return real_smote(fold_train, k=k, seed=seed)

        monkeypatch.setattr(training_module, "smote", spy)
        config = TrainConfig(epochs=1, seed=0, batch_size=16)
        cross_validate(m, 3, config, specs=scaled_stack(**TINY), smote_k=2)
        assert len(calls) == 3
        for fold_train in calls:
            # balancing only ever sees original training rows
            idx = [m.ids.index(a) for a in fold_train.ids]
            assert fold_train.x.tobytes() == m.x[idx].tobytes()
            assert fold_train.y.tolist() == m.y[idx].tolist()
            assert len(fold_train) == 20

    def test_fold_membership_deterministic(self):
        m = _blob_matrix(n=30, length=40)
        config = TrainConfig(epochs=1, seed=9, batch_size=16)
        a = cross_validate(m, 2, config, specs=scaled_stack(**TINY), smote_k=2)
        b = cross_validate(m, 2, config, specs=scaled_stack(**TINY), smote_k=2)
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
    "learning_rate": Range(1e-3, 5e-3, "log"),
}


class TestRandomSearch:
    def test_single_trial_is_best(self):
        m = _blob_matrix(n=40, length=200, seed=8)
        config = TrainConfig(epochs=1, seed=2, batch_size=16)
        trials = random_search(SMALL_SPACE, 1, m, config, Architecture(), cv_k=2, smote_k=2)
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
        m = _blob_matrix(n=30, length=40)
        bad_space = dict(SMALL_SPACE)
        bad_space["kernel_size"] = Choice((50,))  # cannot fit a length-40 input
        config = TrainConfig(epochs=1, seed=1, batch_size=16)
        trials = random_search(bad_space, 2, m, config, Architecture(), cv_k=2, smote_k=2)
        assert all(t.status == "failed" for t in trials)
        assert all(t.error for t in trials)

    def test_ranking_by_f1_then_param_count(self):
        m = _blob_matrix(n=40, length=200, seed=8)
        config = TrainConfig(epochs=1, seed=3, batch_size=16)
        trials = random_search(SMALL_SPACE, 3, m, config, Architecture(), cv_k=2, smote_k=2)
        ok = [t for t in trials if t.status == "ok"]
        for a, b in zip(ok, ok[1:]):
            assert (a.mean_f1, -a.n_params) >= (b.mean_f1, -b.n_params)

    def test_stock_configuration_as_fixed_trial(self):
        m = _blob_matrix(n=24, length=512, seed=6)
        config = TrainConfig(epochs=1, seed=0, batch_size=12)
        trials = random_search(
            SMALL_SPACE, 1, m, config, Architecture(), cv_k=2, smote_k=2,
            include_default=True,
        )
        fixed = [t for t in trials if t.index == 0]
        assert fixed and fixed[0].hyperparams == {}
        assert fixed[0].status == "ok"
        assert fixed[0].mean_f1 is not None

    def test_trial_table_output(self):
        m = _blob_matrix(n=30, length=40)
        config = TrainConfig(epochs=1, seed=1, batch_size=16)
        trials = random_search(SMALL_SPACE, 2, m, config, Architecture(), cv_k=2, smote_k=2)
        lines = trials_tsv(trials).splitlines()
        assert lines[0].startswith("rank\ttrial\tstatus\tmean_f1")
        assert len(lines) == 3

    def test_non_positive_sampled_learning_rate_fails_the_trial(self):
        m = _blob_matrix(n=30, length=40)
        space = {"learning_rate": Range(-1e-3, 0.0)}
        base = Architecture(conv_filters=(4,), kernel_size=3, lstm_units=5, dense_units=(6,))
        trials = random_search(space, 2, m, TrainConfig(epochs=1), base, cv_k=2, smote_k=2)
        assert [t.status for t in trials] == ["failed", "failed"]
        assert all("learning_rate must be a positive finite number" in t.error for t in trials)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            random_search(SMALL_SPACE, 0, _blob_matrix(), TrainConfig(epochs=1), Architecture())


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
        assert space["learning_rate"] == Range(1e-4, 1e-2, "log")
        assert space["lstm_units"] == Range(16, 96, "int")

    @pytest.mark.parametrize("name", ["dropout_rate", "learning_rate"])
    def test_float_field_refuses_an_int_range(self, name):
        message = f"search space line 2: {name} takes real numbers: use a choice, a linear or a log range, not int"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_search_space(f"kernel_size\tchoice\t3\n{name}\tint\t1\t2\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_search_space("x\tgaussian\t0\t1\n")

    def test_range_refuses_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown range kind 'gaussian', expected one of linear, log, int"):
            Range(0.0, 1.0, "gaussian")

    def test_each_range_kind_draws_its_pinned_values(self):
        # pinned draws of a seeded generator: any change to how a kind samples shows here
        space = parse_search_space(
            "dropout_rate\tlinear\t0.05\t0.3\n"
            "learning_rate\tlog\t1e-4\t1e-2\n"
            "lstm_units\tint\t16\t96\n"
        )
        rng = np.random.default_rng(11)
        draws = [sample_hyperparams(space, rng) for _ in range(4)]
        assert [d["lstm_units"] for d in draws] == [63, 64, 59, 26]
        assert all(type(d["lstm_units"]) is int for d in draws)
        assert [d["dropout_rate"] for d in draws] == pytest.approx(
            [0.0821425506922999, 0.05717225209298614, 0.28205275574009236, 0.28708211332294375], rel=1e-12
        )
        assert [d["learning_rate"] for d in draws] == pytest.approx(
            [0.0009966799572101498, 0.00019762968078073265, 0.00013830604178168284, 0.001752940542347515],
            rel=1e-12,
        )

    @pytest.mark.parametrize("low", ["0", "-0.001"])
    def test_log_range_needs_positive_low(self, low):
        with pytest.raises(ValueError, match="low > 0"):
            parse_search_space(f"learning_rate\tlog\t{low}\t0.01\n")
        with pytest.raises(ValueError, match="low > 0"):
            Range(float(low), 0.01, "log")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("learning_rate\tlinear\t0.1", "linear range needs 2 bounds, got 1"),
            ("learning_rate\tlog\t1e-4\t1e-3\t1e-2", "log range needs 2 bounds, got 3"),
            ("lstm_units\tint\t16", "int range needs 2 bounds, got 1"),
            ("learning_rate\tlinear\t0.1\tfast", "could not convert string to float: 'fast'"),
            ("lstm_units\tint\t96\t16", "range high < low"),
        ],
        ids=["one-bound", "three-bounds", "int-one-bound", "not-a-number", "high-below-low"],
    )
    def test_malformed_range_refused_with_its_line(self, line, message):
        with pytest.raises(ValueError, match=f"search space line 2: {message}"):
            parse_search_space(f"# comment\n{line}\n")

    def test_repeated_name_refused_with_its_line(self):
        text = "lstm_units\tchoice\t16\t32\nkernel_size\tchoice\t3\nlstm_units\tint\t8\t64\n"
        with pytest.raises(ValueError, match="search space line 3: repeated name 'lstm_units'"):
            parse_search_space(text)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_search_space("# nothing\n")

    def test_default_space_samples_build_valid_models(self):
        rng = np.random.default_rng(0)
        space = default_search_space(Architecture())
        for _ in range(10):
            hp = sample_hyperparams(space, rng)
            specs = specs_from_hyperparams(hp, Architecture())
            assert specs  # every sampled stack is constructible

    def test_default_space_of_the_stock_stack_keeps_its_draws(self):
        # a seeded draw of the stock space, pinned: trials.tsv's bytes follow it
        space = default_search_space(Architecture())
        assert sample_hyperparams(space, np.random.default_rng(7)) == {
            "conv1_filters": 160, "conv2_filters": 64, "conv3_filters": 64, "conv4_filters": 32,
            "dense1_units": 64, "dense2_units": 48, "dense3_units": 24,
            "dropout_rate": 0.12504157122780635, "kernel_size": 3,
            "learning_rate": 0.005586076652115127, "lstm_units": 96,
        }

    @pytest.mark.parametrize(
        "base",
        [Architecture(conv_filters=(4,)), Architecture(conv_filters=(4, 3), dense_units=(6,)),
         Architecture(dense_units=())],
        ids=["one-conv-stage", "two-conv-one-dense", "no-dense"],
    )
    def test_default_space_only_names_stages_the_base_has(self, base):
        space = default_search_space(base)
        assert sum(name.startswith("conv") for name in space) == len(base.conv_filters)
        assert sum(name.startswith("dense") for name in space) == len(base.dense_units)
        rng = np.random.default_rng(0)
        for _ in range(20):
            Network(200, specs_from_hyperparams(sample_hyperparams(space, rng), base))

    def test_stock_defaults_build_the_default_stack(self):
        assert specs_from_hyperparams({}, Architecture()) == Architecture().specs()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("kernel_size\tchoice\tabc", "expected a whole number, got 'abc'"),
            ("conv1_filters\tchoice\t64\t1.5", "expected a whole number, got '1.5'"),
            ("dense5_units\tchoice\t2.5", "expected a whole number, got '2.5'"),
            ("pool_size\tlog\t2\t4", "pool_size takes whole numbers: use a choice or an int range, not log"),
            ("lstm_units\tint\t16\t96.5", "expected a whole number, got '96.5'"),
            ("learning_rate\tchoice\tnan", "expected a finite number, got 'nan'"),
            ("dropout_rate\tlinear\t0\tinf", "expected a finite number, got 'inf'"),
        ],
        ids=["word", "fraction", "index-past-stock", "log-on-int", "fractional-int-bound", "nan", "inf"],
    )
    def test_value_of_the_wrong_type_refused_with_its_line(self, line, message):
        with pytest.raises(ValueError, match=re.escape(f"search space line 2: {message}")):
            parse_search_space(f"# comment\n{line}\n")

    def test_values_take_the_type_of_their_field(self):
        space = parse_search_space(
            "dropout_rate\tchoice\t0\t0.1\nlearning_rate\tchoice\t1\nconv3_filters\tchoice\t8\t16\n"
        )
        assert [type(v) for v in space["dropout_rate"].values] == [float, float]
        assert [type(v) for v in space["learning_rate"].values] == [float]
        assert space["conv3_filters"] == Choice((8, 16))
        assert [type(v) for v in space["conv3_filters"].values] == [int, int]

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
        m = _blob_matrix(n=30, length=40)
        space = {"conv3_filters": Choice((4,)), "learning_rate": Range(1e-3, 2e-3)}
        trials = random_search(space, 1, m, TrainConfig(epochs=1), self.BASE, cv_k=2, smote_k=2)
        assert trials[0].status == "failed"
        assert "conv3_filters" in trials[0].error

    def test_trial_parameter_count_is_the_base_architecture(self):
        m = _blob_matrix(n=30, length=40)
        space = {"learning_rate": Range(1e-3, 2e-3)}
        config = TrainConfig(epochs=1, batch_size=16)
        trials = random_search(space, 1, m, config, self.BASE, cv_k=2, smote_k=2)
        assert trials[0].status == "ok"
        assert trials[0].n_params == Network(40, self.BASE.specs()).param_count()
