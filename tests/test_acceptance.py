"""Acceptance suite: one test (or tightly related pair) per shipping
criterion, each printing a pass/fail line. Run with `pytest
tests/test_acceptance.py -v -s` to see the per-criterion lines."""

import os
import subprocess
import sys
from collections import Counter

import numpy as np

import spikesev
from helpers import (
    best_threshold_accuracy,
    brute_force_auc,
    reference_confusion_fixture,
    scaled_stack,
    separable_blobs,
)
from spikesev.dataset import FeatureMatrix, smote, stratified_split
from spikesev.evaluation import basic_rates, confusion, evaluate_scores, prf, roc_auc
from spikesev.gradcheck import DEFAULT_STEP, DEFAULT_TOLERANCE, INPUT_LENGTH, run_gradient_checks
from spikesev.ingest import Severity, normalize_status
from spikesev.layers import DropoutSpec
from spikesev.network import Network, infer_shapes
from spikesev.training import TrainConfig, train


def _report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


# ---------------------------------------------------------------------------
# 1. Architecture fidelity


def test_criterion_1_architecture_fidelity():
    net = Network(16730)
    specs = net.specs
    total = net.param_count()
    per_layer = [c for c in (sum(t.size for t in p.values()) for p in net.params) if c > 0]
    shapes = [
        s for spec, s in zip(specs, infer_shapes(specs, 16730))
        if not isinstance(spec, DropoutSpec)
    ]
    expected_counts = [640, 32832, 16448, 6168, 22784, 4160, 2080, 528, 17]
    expected_shapes = [
        (16727, 128), (8363, 128), (8360, 64), (4180, 64), (4177, 64),
        (2088, 64), (2085, 24), (1042, 24), (64,), (64,), (32,), (16,), (1,),
    ]
    ok = total == 85657 and per_layer == expected_counts and shapes == expected_shapes
    _report("1 architecture fidelity", ok, f"total={total}")
    assert total == 85657
    assert per_layer == expected_counts
    assert shapes == expected_shapes


# ---------------------------------------------------------------------------
# 2. Metric oracle


def test_criterion_2_metric_oracle():
    y, scores = reference_confusion_fixture()
    cm = confusion(y, scores)
    assert (cm.tn, cm.fp, cm.fn, cm.tp) == (383, 84, 37, 190)
    sensitivity, specificity, _ = basic_rates(cm)
    weighted_f1 = prf(cm, "weighted").f1
    macro_recall = prf(cm, "macro").recall
    checks = [
        abs(sensitivity - 0.8370) <= 1e-4,
        abs(specificity - 0.8201) <= 1e-4,
        abs(weighted_f1 - 0.8292) <= 1e-4,
        abs(macro_recall - 0.8286) <= 2e-4,
    ]
    # the reference precision figure is not derivable from these counts under
    # any of the three conventions; assert the documented non-match
    precisions = {c: prf(cm, c).precision for c in ("positive", "macro", "weighted")}
    non_match = all(abs(p - 0.8356) > 1e-4 for p in precisions.values())
    ok = all(checks) and non_match
    _report(
        "2 metric oracle", ok,
        f"sens={sensitivity:.4f} spec={specificity:.4f} wF1={weighted_f1:.4f} "
        f"macroR={macro_recall:.4f}",
    )
    assert all(checks)
    assert non_match, f"a precision convention unexpectedly matches 0.8356: {precisions}"


# ---------------------------------------------------------------------------
# 3. Gradient correctness


def test_criterion_3_gradient_correctness():
    assert (INPUT_LENGTH, DEFAULT_STEP, DEFAULT_TOLERANCE) == (32, 1e-5, 1e-4)
    results, passed = run_gradient_checks(seed=2024)
    worst = max(r.rel_error for r in results)
    _report("3 gradient correctness", passed, f"worst rel error {worst:.2e}")
    assert passed
    for r in results:
        assert r.rel_error < 1e-4, f"{r.tensor}: {r.rel_error}"


# ---------------------------------------------------------------------------
# 4. Split fidelity


def _reference_cohort_matrix() -> FeatureMatrix:
    rng = np.random.default_rng(17)
    x = np.stack([rng.normal(size=4) for _ in range(2313 + 1154)])
    ids = [f"S{i}" for i in range(2313)] + [f"M{i}" for i in range(1154)]
    return FeatureMatrix(x, [0] * 2313 + [1] * 1154, ids)


def test_criterion_4_split_sizes():
    split = stratified_split(_reference_cohort_matrix(), 0.8, seed=123)
    ok = len(split.test) == 694 and len(split.train) == 2773
    _report("4 split fidelity: test size", ok, f"test={len(split.test)}")
    assert len(split.test) == 694
    assert len(split.train) == 2773


def test_criterion_4_split_class_marginals():
    """Test-set class counts within 1 of the reference marginals 467/227.

    A stratified 80/20 split allocates floor(0.8*n) of each class to
    training, so 2,313/1,154 deterministically yields 463 negatives and 231
    positives in the test set. The reference marginals (467/227) deviate from
    the cohort's class ratio by 4 samples and therefore cannot be produced by
    any stratified 80/20 split of these counts; this check records that
    discrepancy rather than hiding it.
    """
    split = stratified_split(_reference_cohort_matrix(), 0.8, seed=123)
    counts = Counter(split.test.y.tolist())
    ok = abs(counts[0] - 467) <= 1 and abs(counts[1] - 227) <= 1
    _report(
        "4 split fidelity: class counts within 1 of 467/227", ok,
        f"got {counts[0]}/{counts[1]}",
    )
    assert ok, (
        f"stratified test-set class counts are {counts[0]}/{counts[1]}; "
        "467/227 is not an 80/20 stratification of 2,313/1,154 "
        "(0.2*2313 = 462.6, 0.2*1154 = 230.8)"
    )


# ---------------------------------------------------------------------------
# 5. SMOTE properties


def test_criterion_5_smote_properties():
    rng = np.random.default_rng(31)
    all_ok = True
    for trial in range(6):
        d = int(rng.integers(2, 51))
        n_min = int(rng.integers(4, 60))
        n_maj = int(rng.integers(n_min + 1, 141))
        if n_min + n_maj > 200:
            n_maj = 200 - n_min
        k = int(rng.integers(1, 6))
        x = np.stack([rng.normal(size=d) for _ in range(n_maj + n_min)])
        ids = [f"maj{i}" for i in range(n_maj)] + [f"min{i}" for i in range(n_min)]
        m = FeatureMatrix(x, [0] * n_maj + [1] * n_min, ids)
        balanced = smote(m, k=k, seed=trial)

        counts = Counter(balanced.y.tolist())
        assert counts[0] == counts[1] == n_maj, "classes must balance exactly"
        n = len(m)
        assert (
            balanced.x[:n].tobytes() == m.x.tobytes()
            and balanced.y[:n].tolist() == m.y.tolist()
            and balanced.ids[:n] == m.ids
        ), "originals must pass through unchanged"
        synthetics = balanced.x[n:]
        assert (balanced.y[n:] == 1).all()

        # brute-force segment verification
        minority = m.x[m.y == 1].astype(np.float64)
        k_eff = min(k, n_min - 1)
        dists = np.sqrt(((minority[:, None] - minority[None, :]) ** 2).sum(-1))
        np.fill_diagonal(dists, np.inf)
        neighbors = np.argsort(dists, axis=1)[:, :k_eff]
        max_dev = 0.0
        for s in synthetics.astype(np.float64):
            best = np.inf
            for i in range(n_min):
                for j in neighbors[i]:
                    x, z = minority[i], minority[j]
                    seg = z - x
                    t = np.clip(np.dot(s - x, seg) / max(np.dot(seg, seg), 1e-30), 0.0, 1.0)
                    best = min(best, float(np.linalg.norm(s - (x + t * seg))))
            max_dev = max(max_dev, best)
        ok = max_dev < 1e-6
        all_ok &= ok
        assert ok, f"trial {trial}: synthetic point {max_dev} away from nearest valid segment"
    _report("5 SMOTE properties", all_ok)


# ---------------------------------------------------------------------------
# 6. End-to-end learnability (substitute for the unavailable real cohort)


def test_criterion_6_end_to_end_learnability():
    x, y = separable_blobs(n=1000, length=512, seed=7)
    n_train = 800
    xt, yt = x[:n_train], y[:n_train]
    xv, yv = x[n_train:], y[n_train:]

    # independent separability oracle before any training
    oracle_acc = best_threshold_accuracy(xt[:, 0], yt)
    assert oracle_acc >= 0.95, "fixture is not threshold-separable"

    net = Network(512, scaled_stack(n_stages=3, filters=8, lstm_units=16, dense_units=16), seed=3)
    logs, _ = train(net, xt, yt, TrainConfig(epochs=30, seed=3))

    report = evaluate_scores(yv, net.predict_scores(xv))
    best_acc = max(log.train_accuracy for log in logs)
    f1 = report.prf_by_convention["weighted"].f1
    loss_drop = logs[-1].train_loss < logs[0].train_loss
    ok = best_acc >= 0.95 and f1 >= 0.95 and loss_drop
    _report(
        "6 end-to-end learnability", ok,
        f"train acc {best_acc:.3f}, held-out weighted F1 {f1:.3f}, "
        f"loss {logs[0].train_loss:.3f}->{logs[-1].train_loss:.3f}",
    )
    assert best_acc >= 0.95
    assert f1 >= 0.95
    assert loss_drop


# ---------------------------------------------------------------------------
# 7. ROC-AUC oracle


def test_criterion_7_roc_auc_oracle():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[rng.integers(0, n)] = 1 - y[0]
        # mix continuous and coarsely quantized scores so ties occur
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        worst = max(worst, abs(roc_auc(y, scores) - brute_force_auc(y, scores)))
    separated = roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
    ties = roc_auc([0, 1, 0, 1], [0.4, 0.4, 0.4, 0.4])
    ok = worst < 1e-12 and separated == 1.0 and ties == 0.5
    _report("7 ROC-AUC oracle", ok, f"max |diff| {worst:.2e}")
    assert worst < 1e-12
    assert separated == 1.0
    assert ties == 0.5


# ---------------------------------------------------------------------------
# 8. Status normalization totality

# the full 31-term vocabulary, stated independently of the implementation
STATUS_VOCABULARY = {
    "not hospitalized": Severity.MILD,
    "alive/not hospitalized": Severity.MILD,
    "Asymptomatic": Severity.MILD,
    "Home": Severity.MILD,
    "Not Hospitalized.": Severity.MILD,
    "mild symptomatic": Severity.MILD,
    "Mild": Severity.MILD,
    "Mild symptoms, not-hospitalized": Severity.MILD,
    "No clinical signs": Severity.MILD,
    "Not hospitalized": Severity.MILD,
    "DEAD": Severity.SEVERE,
    "Dead, hospitalized": Severity.SEVERE,
    "Death": Severity.SEVERE,
    "deceased 14/8": Severity.SEVERE,
    "deceased 20/8": Severity.SEVERE,
    "Decease": Severity.SEVERE,
    "Deceased": Severity.SEVERE,
    "Hospitalized (Intensive care unit)": Severity.SEVERE,
    "Hospitalized, Live.": Severity.SEVERE,
    "IC": Severity.SEVERE,
    "Intensive Care": Severity.SEVERE,
    "Intensive Care Unit": Severity.SEVERE,
    "severe symptomatic, required IC": Severity.SEVERE,
    "ALIVE": Severity.INCONCLUSIVE,
    "Alive, hospitalized": Severity.INCONCLUSIVE,
    "Emergency Care": Severity.INCONCLUSIVE,
    "Hospitalized": Severity.INCONCLUSIVE,
    "Inpatient": Severity.INCONCLUSIVE,
    "Live": Severity.INCONCLUSIVE,
    "moderate symptomatic, hospita": Severity.INCONCLUSIVE,
    "Moderate": Severity.INCONCLUSIVE,
}


def test_criterion_8_normalization_totality():
    assert len(STATUS_VOCABULARY) == 31
    ok = True
    for term, expected in STATUS_VOCABULARY.items():
        ok &= normalize_status(term) is expected
    # 20 adversarial case/whitespace variants
    terms = sorted(STATUS_VOCABULARY)[:10]
    variants = [t.upper() for t in terms] + [f"  {t.replace(' ', '  ')}\t" for t in terms]
    assert len(variants) == 20
    for variant, term in zip(variants, terms + terms):
        ok &= normalize_status(variant) is STATUS_VOCABULARY[term]
    for unknown in ("recovering at home", "fine", "", "hospitalised??"):
        ok &= normalize_status(unknown) is Severity.UNMAPPED
    _report("8 normalization totality", ok)
    assert ok
    for term, expected in STATUS_VOCABULARY.items():
        assert normalize_status(term) is expected, term


# ---------------------------------------------------------------------------
# 9. Determinism of the full pipeline


def _run_pipeline(root, tag: str) -> dict[str, bytes]:
    from helpers import cohort_fixture_texts

    fasta = root / "spike.fasta"
    meta = root / "meta.tsv"
    cfg = root / "tiny.cfg"
    if not fasta.exists():
        fasta_text, meta_text = cohort_fixture_texts()
        fasta.write_text(fasta_text)
        meta.write_text(meta_text)
        cfg.write_text(
            "n_model = 600\nconv_filters = 4\nkernel_size = 3\nlstm_units = 6\n"
            "dense_units = 8\nepochs = 5\nbatch_size = 16\nlearning_rate = 0.003\n"
            "dropout_rate = 0.1\n"
        )
    wd = root / tag
    base = [sys.executable, "-m", "spikesev"]
    # The children run from `root`, where a relative PYTHONPATH does not
    # resolve; point them at the very package this process imported.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(spikesev.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )

    def run(*args):
        proc = subprocess.run(
            base + list(args), capture_output=True, text=True, cwd=root, env=env
        )
        assert proc.returncode == 0, f"{args}: {proc.stderr}"

    run("ingest", "--fasta", str(fasta), "--metadata", str(meta), "--workdir", str(wd))
    run("featurize", "--config", str(cfg), "--cohort", str(wd / "cohort.tsv"),
        "--workdir", str(wd))
    run("split", "--matrix", str(wd / "features.mat"), "--workdir", str(wd),
        "--ratio", "0.8", "--seed", "7")
    run("balance", "--matrix", str(wd / "train.mat"), "--workdir", str(wd),
        "--k", "3", "--seed", "7")
    run("train", "--config", str(cfg), "--matrix", str(wd / "balanced.mat"),
        "--workdir", str(wd), "--seed", "7")
    run("evaluate", "--config", str(cfg), "--checkpoint", str(wd / "model.ckpt"),
        "--matrix", str(wd / "test.mat"), "--workdir", str(wd))
    names = [
        "features.mat", "train.mat", "test.mat", "balanced.mat",
        "model.ckpt", "epochs.tsv", "report.tsv", "confusion.tsv",
    ]
    return {name: (wd / name).read_bytes() for name in names}


def test_criterion_9_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path, "run1")
    second = _run_pipeline(tmp_path, "run2")
    mismatched = [name for name in first if first[name] != second[name]]
    _report("9 pipeline determinism", not mismatched,
            f"{len(first)} artifacts compared")
    assert not mismatched, f"artifacts differ between identical runs: {mismatched}"
