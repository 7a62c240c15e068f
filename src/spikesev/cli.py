"""Command-line surface: one subcommand per pipeline stage, so every
intermediate artifact (cohort, matrix, split, balanced set, checkpoint,
report) is an inspectable file.

Exit codes: 0 success, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from dataclasses import fields
from pathlib import Path

from . import checkpoint as ckpt
from . import dataset, evaluation, ingest, training
from .config import ConfigError, RunConfig, load_config
from .gradcheck import run_gradient_checks
from .network import Architecture, Network
from .scales import RegistryError, ScalesRegistry, default_registry, load_registry

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_INPUT_ERRORS = (
    ConfigError,
    RegistryError,
    ingest.FastaError,
    ingest.MetadataError,
    dataset.MatrixFormatError,
    ckpt.CheckpointError,
    FileNotFoundError,
    ValueError,
)


def _load_registry(cfg: RunConfig) -> ScalesRegistry:
    return load_registry(cfg.registry) if cfg.registry else default_registry()


def _workdir(cfg: RunConfig) -> Path:
    wd = Path(cfg.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    return wd


def _write_resolved(cfg: RunConfig, wd: Path, command: str, extra: dict[str, str] | None = None):
    (wd / f"{command}.resolved.cfg").write_text(cfg.resolved_lines(extra), encoding="utf-8")


def _detect_delimiter(cfg: RunConfig, path: str, text: str) -> str:
    if cfg.delimiter == "tab":
        return "\t"
    if cfg.delimiter == "comma":
        return ","
    suffix = Path(path).suffix.casefold()
    if suffix in (".tsv", ".tab"):
        return "\t"
    if suffix == ".csv":
        return ","
    first = text.splitlines()[0] if text.splitlines() else ""
    return "\t" if "\t" in first else ","


def _read_vectors(matrix_path: str) -> list[dataset.FeatureVector]:
    vectors = dataset.read_matrix(matrix_path)
    ids_path = Path(matrix_path).with_suffix(".ids")
    if ids_path.exists():
        accessions = dataset.read_accessions(ids_path)
        if len(accessions) == len(vectors):
            vectors = [
                dataset.FeatureVector(values=v.values, label=v.label, accession=a)
                for v, a in zip(vectors, accessions)
            ]
    return vectors


def _write_vectors(vectors, wd: Path, stem: str) -> None:
    dataset.write_matrix(vectors, wd / f"{stem}.mat")
    dataset.write_accessions(vectors, wd / f"{stem}.ids")


def _block_weights(cfg: RunConfig) -> dataset.BlockWeights:
    return dataset.BlockWeights(
        sequence=cfg.block_weight_sequence, covariates=cfg.block_weight_covariates
    )


def _train_config(cfg: RunConfig) -> training.TrainConfig:
    return training.TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        lambda_l2=cfg.lambda_l2,
        seed=cfg.train_seed,
        shuffle=cfg.shuffle,
    )


def _arch_from_config(cfg: RunConfig) -> Architecture:
    return Architecture(**{f.name: getattr(cfg, f.name) for f in fields(Architecture)})


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(cfg: RunConfig) -> int:
    wd = _workdir(cfg)
    fasta_text = Path(cfg.fasta).read_text(encoding="utf-8")
    meta_text = Path(cfg.metadata).read_text(encoding="utf-8")
    delimiter = _detect_delimiter(cfg, cfg.metadata, meta_text)
    fasta_records, rejects = ingest.parse_fasta(fasta_text)
    rows = ingest.parse_metadata(meta_text, delimiter)
    cohort, report = ingest.build_cohort(fasta_records, rows)
    ingest.write_cohort(cohort, wd / "cohort.tsv")
    report_text = report.to_tsv() + f"invalid sequences\t{len(rejects)}\n"
    (wd / "exclusion_report.tsv").write_text(report_text, encoding="utf-8")
    _write_resolved(cfg, wd, "ingest")
    for reject in rejects:
        print(
            f"warning: sequence {reject.record_id!r} excluded "
            f"(invalid character {reject.character!r} at position {reject.position})",
            file=sys.stderr,
        )
    if not cohort:
        print("warning: empty cohort after filtering", file=sys.stderr)
    print(f"retained {report.retained} of {report.retained + report.excluded} metadata rows")
    return EXIT_OK


def cmd_stats(cfg: RunConfig, cohort_path: str, out: str | None, record_config: bool) -> int:
    records = ingest.read_cohort(cohort_path)
    text = ingest.cohort_stats(records).to_tsv()
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if record_config:
        _write_resolved(cfg, _workdir(cfg), "stats")
    return EXIT_OK


_FEATURIZE_CTX: dict = {}


def _featurize_init(registry, codebook, n_model, weights):
    _FEATURIZE_CTX.update(
        registry=registry, codebook=codebook, n_model=n_model, weights=weights
    )


def _featurize_one(record):
    c = _FEATURIZE_CTX
    return dataset.assemble(record, c["registry"], c["codebook"], c["n_model"], c["weights"])


def cmd_featurize(cfg: RunConfig, cohort_path: str) -> int:
    wd = _workdir(cfg)
    registry = _load_registry(cfg)
    records = ingest.read_cohort(cohort_path)
    if not records:
        raise ValueError(f"{cohort_path}: cohort is empty, nothing to featurize")
    codebook = dataset.fit_codebook(records, age_binning=cfg.age_binning)
    weights = _block_weights(cfg)
    if cfg.jobs > 1:
        with multiprocessing.Pool(
            cfg.jobs,
            initializer=_featurize_init,
            initargs=(registry, codebook, cfg.n_model, weights),
        ) as pool:
            vectors = pool.map(_featurize_one, records, chunksize=32)
    else:
        vectors = [
            dataset.assemble(r, registry, codebook, cfg.n_model, weights) for r in records
        ]
    truncated = sum(1 for v in vectors if v.truncated)
    if truncated:
        print(f"warning: residue block truncated for {truncated} record(s)", file=sys.stderr)
    _write_vectors(vectors, wd, "features")
    (wd / "codebook.tsv").write_text(codebook.to_text(registry.content_hash), encoding="utf-8")
    _write_resolved(
        cfg, wd, "featurize",
        {"registry_hash": registry.content_hash, "truncated_records": str(truncated)},
    )
    print(f"featurized {len(vectors)} records at width {cfg.n_model}")
    return EXIT_OK


def cmd_split(cfg: RunConfig, matrix_path: str) -> int:
    wd = _workdir(cfg)
    vectors = _read_vectors(matrix_path)
    split = dataset.stratified_split(vectors, cfg.ratio, cfg.split_seed)
    _write_vectors(split.train, wd, "train")
    _write_vectors(split.test, wd, "test")
    _write_resolved(cfg, wd, "split")
    print(f"split {len(vectors)} rows into {len(split.train)} train / {len(split.test)} test")
    return EXIT_OK


def cmd_balance(cfg: RunConfig, matrix_path: str) -> int:
    wd = _workdir(cfg)
    vectors = _read_vectors(matrix_path)
    balanced = dataset.smote(vectors, k=cfg.smote_k, seed=cfg.smote_seed)
    _write_vectors(balanced, wd, "balanced")
    _write_resolved(cfg, wd, "balance")
    print(f"balanced {len(vectors)} rows to {len(balanced)}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, matrix_path: str, val_matrix: str | None) -> int:
    wd = _workdir(cfg)
    registry = _load_registry(cfg)
    x, y = dataset.to_arrays(_read_vectors(matrix_path))
    validation = None
    if val_matrix:
        validation = dataset.to_arrays(_read_vectors(val_matrix))
    net = Network(x.shape[1], _arch_from_config(cfg).specs(), seed=cfg.train_seed)
    logs, optimizer = training.train(net, x, y, _train_config(cfg), validation)
    ckpt.save_checkpoint(net, wd / "model.ckpt", registry.content_hash, optimizer)
    training.write_epoch_logs(logs, wd / "epochs.tsv")
    _write_resolved(cfg, wd, "train", {"registry_hash": registry.content_hash})
    last = logs[-1]
    print(
        f"trained {len(logs)} epochs; final loss {last.train_loss:.6f}, "
        f"accuracy {last.train_accuracy:.6f} ({net.param_count()} parameters)"
    )
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, checkpoint_path: str, matrix_path: str) -> int:
    wd = _workdir(cfg)
    registry = _load_registry(cfg)
    net, _, _ = ckpt.load_checkpoint(checkpoint_path, expect_registry_hash=registry.content_hash)
    x, y = dataset.to_arrays(_read_vectors(matrix_path))
    if x.shape[1] != net.input_length:
        raise ValueError(
            f"matrix width {x.shape[1]} does not match checkpoint input length {net.input_length}"
        )
    report = evaluation.evaluate(net, x, y, cfg.threshold)
    header = f"# registry_hash {registry.content_hash}\n"
    (wd / "report.tsv").write_text(header + evaluation.report_tsv(report), encoding="utf-8")
    (wd / "confusion.tsv").write_text(report.confusion.to_tsv(), encoding="utf-8")
    (wd / "report.txt").write_text(evaluation.report_text(report), encoding="utf-8")
    _write_resolved(cfg, wd, "evaluate", {"registry_hash": registry.content_hash})
    sys.stdout.write(evaluation.report_text(report))
    return EXIT_OK


def cmd_predict(cfg: RunConfig, checkpoint_path: str, codebook_path: str, cohort_path: str) -> int:
    wd = _workdir(cfg)
    registry = _load_registry(cfg)
    net, _, _ = ckpt.load_checkpoint(checkpoint_path, expect_registry_hash=registry.content_hash)
    codebook = dataset.CovariateCodebook.from_text(
        Path(codebook_path).read_text(encoding="utf-8")
    )
    records = ingest.read_cohort(cohort_path)
    if not records:
        raise ValueError(f"{cohort_path}: cohort is empty, nothing to predict")
    weights = _block_weights(cfg)
    vectors = [
        dataset.assemble(r, registry, codebook, net.input_length, weights) for r in records
    ]
    x, _ = dataset.to_arrays(vectors)
    scores = net.predict_scores(x)
    lines = ["accession\tscore\tpredicted_label\tpredicted_class"]
    for record, score in zip(records, scores):
        label = int(score >= cfg.threshold)
        name = "mild" if label == 1 else "severe"
        lines.append(f"{record.accession_id}\t{score:.6f}\t{label}\t{name}")
    (wd / "predictions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_resolved(cfg, wd, "predict", {"registry_hash": registry.content_hash})
    print(f"scored {len(records)} records at threshold {cfg.threshold}")
    return EXIT_OK


def cmd_search(cfg: RunConfig, matrix_path: str, include_default: bool) -> int:
    wd = _workdir(cfg)
    vectors = _read_vectors(matrix_path)
    space = (
        training.parse_search_space(Path(cfg.search_space).read_text(encoding="utf-8"))
        if cfg.search_space
        else training.default_search_space()
    )
    fixed = [{}] if include_default else None  # nothing sampled: the configured model as is
    trials = training.random_search(
        space,
        cfg.trials,
        vectors,
        _train_config(cfg),
        _arch_from_config(cfg),
        cv_k=cfg.cv_k,
        smote_k=cfg.smote_k,
        fixed_trials=fixed,
    )
    training.write_trials(trials, wd / "trials.tsv")
    _write_resolved(cfg, wd, "search")
    best = trials[0]
    if best.status == "ok":
        print(f"best trial {best.index}: mean F1 {best.mean_f1:.4f} with {best.hyperparams}")
    else:
        print("no trial completed successfully", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig) -> int:
    results, passed = run_gradient_checks(seed=cfg.train_seed)
    for r in results:
        print(f"{r.tensor}\t{r.rel_error:.3e}\t{'PASS' if r.passed else 'FAIL'}")
    print("gradient check:", "PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--workdir", help="output directory (all files are written here)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikesev",
        description="Spike-protein severity classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse FASTA + metadata into a clean cohort")
    _add_common(p)
    p.add_argument("--fasta", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--delimiter", choices=["auto", "tab", "comma"])

    p = sub.add_parser("stats", help="cohort frequency tables and mean ages")
    _add_common(p)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out")

    p = sub.add_parser("featurize", help="cohort -> feature matrix + codebook")
    _add_common(p)
    p.add_argument("--cohort", required=True)
    p.add_argument("--n-model", type=int, dest="n_model")
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("split", help="stratified train/test split of a matrix")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--ratio", type=float)
    p.add_argument("--seed", type=int, dest="split_seed")

    p = sub.add_parser("balance", help="SMOTE-balance a training matrix")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, dest="smote_k")
    p.add_argument("--seed", type=int, dest="smote_seed")

    p = sub.add_parser("train", help="train a model on a matrix")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--val-matrix")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--lambda-l2", type=float, dest="lambda_l2")
    p.add_argument("--seed", type=int, dest="train_seed")

    p = sub.add_parser("evaluate", help="score a checkpoint on a test matrix")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("predict", help="per-record scores from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("search", help="random hyperparameter search")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--space", dest="search_space")
    p.add_argument("--trials", type=int)
    p.add_argument("--k", type=int, dest="cv_k")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int, dest="train_seed")
    p.add_argument("--include-default", action="store_true",
                   help="score the configured architecture as a fixed first trial")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p)
    p.add_argument("--seed", type=int, dest="train_seed")

    return parser


_CONFIG_KEYS = (
    "workdir", "delimiter", "n_model", "jobs", "ratio", "split_seed", "smote_k",
    "smote_seed", "epochs", "batch_size", "learning_rate", "lambda_l2", "train_seed",
    "threshold", "search_space", "trials", "cv_k", "shuffle",
)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        key: str(getattr(args, key))
        for key in _CONFIG_KEYS
        if getattr(args, key, None) is not None
    }
    return load_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "ingest":
            cfg.apply({"fasta": args.fasta, "metadata": args.metadata})
            return cmd_ingest(cfg)
        if args.command == "stats":
            return cmd_stats(cfg, args.cohort, args.out, record_config=args.workdir is not None)
        if args.command == "featurize":
            return cmd_featurize(cfg, args.cohort)
        if args.command == "split":
            return cmd_split(cfg, args.matrix)
        if args.command == "balance":
            return cmd_balance(cfg, args.matrix)
        if args.command == "train":
            return cmd_train(cfg, args.matrix, args.val_matrix)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint, args.matrix)
        if args.command == "predict":
            return cmd_predict(cfg, args.checkpoint, args.codebook, args.cohort)
        if args.command == "search":
            return cmd_search(cfg, args.matrix, args.include_default)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RuntimeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
