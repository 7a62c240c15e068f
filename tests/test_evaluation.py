import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_auc, reference_confusion_fixture, scaled_stack
from spikesev.evaluation import (
    PRF,
    ConfusionMatrix,
    _class_prf,
    basic_rates,
    confusion,
    evaluate_scores,
    prf,
    report_text,
    report_tsv,
    roc_auc,
)
from spikesev.network import Network

# confusion counts the reference fixture must reproduce
REF_TN, REF_FP, REF_FN, REF_TP = 383, 84, 37, 190


def _two_branch_prf(cm: ConfusionMatrix, convention: str) -> PRF:
    """Oracle: `prf` as it was written before the positive convention joined
    the averaging loop (an early return for class 1, then one loop over the
    present classes for macro and weighted)."""
    per_class = {1: _class_prf(cm.tp, cm.fp, cm.fn), 0: _class_prf(cm.tn, cm.fn, cm.fp)}
    supports = {1: cm.tp + cm.fn, 0: cm.tn + cm.fp}
    if convention == "positive":
        p, r, f = per_class[1]
        degenerate = any(v is None for v in (p, r, f))
        return PRF(p if p is not None else 0.0, r if r is not None else 0.0, f if f is not None else 0.0, degenerate)
    present = [c for c in (0, 1) if supports[c] > 0]
    degenerate = len(present) < 2
    sums = [0.0, 0.0, 0.0]
    weight_total = 0.0
    for c in present:
        weight = 1.0 if convention == "macro" else float(supports[c])
        weight_total += weight
        for j, value in enumerate(per_class[c]):
            if value is None:
                degenerate = True
                value = 0.0
            sums[j] += weight * value
    return PRF(sums[0] / weight_total, sums[1] / weight_total, sums[2] / weight_total, degenerate)


@pytest.fixture(scope="module")
def ref_cm():
    y, scores = reference_confusion_fixture()
    return confusion(y, scores)


class TestConfusion:
    def test_reference_fixture_counts(self, ref_cm):
        assert (ref_cm.tn, ref_cm.fp, ref_cm.fn, ref_cm.tp) == (REF_TN, REF_FP, REF_FN, REF_TP)
        assert ref_cm.total == 694

    def test_perfect_scores(self):
        cm = confusion([0, 0, 1, 1], [0.1, 0.2, 0.9, 0.8])
        assert cm.fp == 0 and cm.fn == 0

    def test_threshold_zero_makes_everything_positive(self):
        cm = confusion([0, 1, 0], [0.0, 0.5, 0.9], threshold=0.0)
        assert cm.tn == 0 and cm.fn == 0
        assert cm.fp == 2 and cm.tp == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([0, 1], [0.5])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            confusion([], [])

    def test_scores_outside_unit_interval(self):
        with pytest.raises(ValueError, match="scores"):
            confusion([0, 1], [0.5, 1.2])

    def test_nan_score_refused(self):
        with pytest.raises(ValueError, match="scores"):
            confusion([0, 1, 1], [0.2, np.nan, 0.9])

    @pytest.mark.parametrize("threshold", [np.nan, 1.5, -2.0])
    def test_threshold_outside_unit_interval_refused(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            confusion([0, 1], [0.2, 0.9], threshold=threshold)

    def test_tsv_orientation(self, ref_cm):
        lines = ref_cm.to_tsv().splitlines()
        assert lines[1] == f"actual_negative\t{REF_TN}\t{REF_FP}"
        assert lines[2] == f"actual_positive\t{REF_FN}\t{REF_TP}"


class TestBasicRates:
    def test_reference_sensitivity_and_specificity(self, ref_cm):
        sensitivity, specificity, accuracy = basic_rates(ref_cm)
        assert sensitivity == pytest.approx(0.8370, abs=1e-4)
        assert specificity == pytest.approx(0.8201, abs=1e-4)
        assert accuracy == pytest.approx((REF_TP + REF_TN) / 694)

    def test_all_correct(self):
        cm = ConfusionMatrix(tp=3, tn=4, fp=0, fn=0)
        assert basic_rates(cm) == (1.0, 1.0, 1.0)

    def test_zero_denominator_reported_as_undefined(self):
        cm = ConfusionMatrix(tp=0, tn=5, fp=0, fn=0)
        sensitivity, specificity, accuracy = basic_rates(cm)
        assert sensitivity is None
        assert specificity == 1.0
        assert accuracy == 1.0


class TestPRF:
    def test_reference_weighted_f1(self, ref_cm):
        assert prf(ref_cm, "weighted").f1 == pytest.approx(0.8292, abs=1e-4)

    def test_reference_macro_recall(self, ref_cm):
        assert prf(ref_cm, "macro").recall == pytest.approx(0.8286, abs=2e-4)

    def test_reference_per_class_f1(self, ref_cm):
        # hand-derived from the counts: negative 0.8636, positive 0.7585
        pos = prf(ref_cm, "positive")
        assert pos.f1 == pytest.approx(0.7585, abs=1e-4)
        macro = prf(ref_cm, "macro")
        neg_f1 = 2 * macro.f1 - pos.f1
        assert neg_f1 == pytest.approx(0.8636, abs=1e-4)

    def test_reference_precision_conventions(self, ref_cm):
        assert prf(ref_cm, "positive").precision == pytest.approx(190 / 274, abs=1e-6)
        assert prf(ref_cm, "macro").precision == pytest.approx(0.8027, abs=1e-4)
        assert prf(ref_cm, "weighted").precision == pytest.approx(0.8404, abs=1e-4)

    def test_sensitivity_is_positive_class_recall(self, ref_cm):
        sensitivity, specificity, _ = basic_rates(ref_cm)
        assert prf(ref_cm, "positive").recall == sensitivity

    def test_weighted_recall_equals_accuracy(self, ref_cm):
        _, _, accuracy = basic_rates(ref_cm)
        assert prf(ref_cm, "weighted").recall == pytest.approx(accuracy, abs=1e-12)

    def test_f1_between_per_class_values(self, ref_cm):
        pos_f1 = prf(ref_cm, "positive").f1
        macro = prf(ref_cm, "macro").f1
        weighted = prf(ref_cm, "weighted").f1
        neg_f1 = 2 * macro - pos_f1
        lo, hi = min(pos_f1, neg_f1), max(pos_f1, neg_f1)
        assert lo <= macro <= hi
        assert lo <= weighted <= hi

    def test_single_class_input_flagged_and_macro_equals_defined_class(self):
        cm = confusion([1, 1, 1], [0.9, 0.4, 0.8])
        pos = prf(cm, "positive")
        macro = prf(cm, "macro")
        assert macro.degenerate
        assert macro.recall == pytest.approx(pos.recall)
        assert macro.f1 == pytest.approx(pos.f1)

    def test_unknown_convention(self, ref_cm):
        with pytest.raises(ValueError, match="convention"):
            prf(ref_cm, "micro")

    @pytest.mark.parametrize("convention", ["positive", "macro", "weighted"])
    def test_matches_the_two_branch_oracle_exactly(self, convention):
        counts = list(itertools.product(range(9), repeat=4))
        counts += [(10**6, 3, 12345, 7), (999983, 999979, 1, 2), (2**40, 5, 2**33, 3)]
        for tp, tn, fp, fn in counts:
            if tp + tn + fp + fn == 0:
                continue  # no class present: macro and weighted divide by zero in both versions
            cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
            assert repr(prf(cm, convention)) == repr(_two_branch_prf(cm, convention)), (tp, tn, fp, fn)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.7, 0.9]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_small_example(self):
        # brute force over the 4 positive-negative pairs gives 3/4
        assert roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)

    def test_one_class_absent(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([1, 1], [0.2, 0.4])

    def test_nan_score_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            roc_auc([0, 1, 0, 1], [0.1, np.nan, 0.3, 0.8])

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 64))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            scores = np.round(rng.random(n), 2)  # coarse grid forces ties
            assert roc_auc(y, scores) == pytest.approx(brute_force_auc(y, scores), abs=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transforms(self, data):
        n = data.draw(st.integers(4, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = rng.random(n)
        squashed = 1.0 / (1.0 + np.exp(-(3.0 * scores + 1.0)))
        assert roc_auc(y, scores) == pytest.approx(roc_auc(y, squashed), abs=1e-12)


class TestEvaluate:
    def test_report_from_reference_fixture(self):
        y, scores = reference_confusion_fixture()
        report = evaluate_scores(y, scores)
        assert report.sensitivity == pytest.approx(0.8370, abs=1e-4)
        assert report.specificity == pytest.approx(0.8201, abs=1e-4)
        assert report.prf_by_convention["weighted"].f1 == pytest.approx(0.8292, abs=1e-4)
        assert report.prf_by_convention["macro"].recall == pytest.approx(0.8286, abs=2e-4)

    def test_degenerate_thresholds(self):
        y, scores = reference_confusion_fixture()
        everything_positive = evaluate_scores(y, scores, threshold=0.0)
        assert everything_positive.confusion.tn == 0
        assert everything_positive.confusion.fn == 0
        nothing_positive = evaluate_scores(y, scores, threshold=1.0)
        assert nothing_positive.confusion.tp == 0

    def test_model_evaluation_deterministic(self):
        net = Network(40, scaled_stack(n_stages=1, filters=3, lstm_units=4, dense_units=4), seed=1)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 40)).astype(np.float32)
        y = rng.integers(0, 2, 12).astype(np.uint8)
        a = evaluate_scores(y, net.predict_scores(x))
        b = evaluate_scores(y, net.predict_scores(x))
        assert a == b

    def test_report_tsv_six_decimals(self):
        y, scores = reference_confusion_fixture()
        text = report_tsv(evaluate_scores(y, scores))
        assert "sensitivity\tpositive-class recall\t0.837004" in text
        assert "specificity\tnegative-class recall\t0.820128" in text
        for convention in ("positive", "macro", "weighted"):
            assert f"precision\t{convention}\t" in text

    def test_report_text_labels_conventions(self):
        y, scores = reference_confusion_fixture()
        text = report_text(evaluate_scores(y, scores))
        assert "averaging convention" in text
        assert "weighted" in text and "macro" in text
