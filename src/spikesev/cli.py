"""Command-line surface: one subcommand per pipeline stage, so every
intermediate artifact (cohort, matrix, split, balanced set, checkpoint,
report) is an inspectable file.

Exit codes: 0 success, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from .config import Architecture, RunConfig, TrainConfig, load_config

if TYPE_CHECKING:
    from .scales import ScalesRegistry

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# Every loader's own error (ConfigError, MatrixFormatError, ...) is a ValueError;
# OSError covers a path that is missing, a directory, or not a directory.
_INPUT_ERRORS = (ValueError, OSError)

# A handler's exit code and the lines it adds to its `<command>.resolved.cfg`.
Outcome = tuple[int, dict[str, str]]


def _parse_file(path: str, parse):
    """`parse` applied to the UTF-8 text of `path`, less a leading byte-order
    mark, read with no newline translation (a line break inside a quoted
    metadata cell reaches `csv`, which rules on it); a ValueError, from the
    decoding or from `parse`, is raised again naming the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_registry(cfg: RunConfig) -> ScalesRegistry:
    from .scales import default_registry, parse_registry

    return _parse_file(cfg.registry, parse_registry) if cfg.registry else default_registry()


def _detect_delimiter(path: str, text: str) -> str:
    """A tab for `.tsv`/`.tab`, a comma for `.csv`, else a tab if the header line holds one."""
    suffix = Path(path).suffix.casefold()
    if suffix in (".tsv", ".tab"):
        return "\t"
    if suffix == ".csv":
        return ","
    return "\t" if "\t" in (text.splitlines() or [""])[0] else ","


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        seed=cfg.train_seed,
    )


def _warn_truncated(truncated: int) -> None:
    if truncated:
        print(f"warning: residue block truncated for {truncated} record(s)", file=sys.stderr)


def _arch_from_config(cfg: RunConfig) -> Architecture:
    return Architecture(**{f.name: getattr(cfg, f.name) for f in fields(Architecture)})


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved config, the parsed arguments and the
# workdir `main` has made, and writes its outputs there; `main` writes the record.
# Each imports the modules it runs in its own body, so that a stage process
# loads only those: `ingest` and `stats` start without numpy.

def cmd_ingest(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import ingest

    fasta_records, rejects = _parse_file(args.fasta, ingest.parse_fasta)
    rows = _parse_file(
        args.metadata, lambda text: ingest.parse_metadata(text, _detect_delimiter(args.metadata, text))
    )
    cohort, report = ingest.build_cohort(fasta_records, rows)
    ingest.write_cohort(cohort, wd / "cohort.tsv")
    report_text = report.to_tsv() + f"invalid sequences\t{len(rejects)}\n"
    (wd / "exclusion_report.tsv").write_text(report_text, encoding="utf-8")
    for reject in rejects:
        print(f"warning: sequence {reject.record_id!r} excluded ({reject.reason})", file=sys.stderr)
    if not cohort:
        print("warning: empty cohort after filtering", file=sys.stderr)
    print(f"retained {report.retained} of {report.retained + report.excluded} metadata rows")
    return EXIT_OK, {}


def cmd_stats(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import ingest

    records = ingest.read_cohort(args.cohort)
    text = ingest.cohort_stats(records).to_tsv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK, {}


def cmd_featurize(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import dataset, ingest

    registry = _load_registry(cfg)
    records = ingest.read_cohort(args.cohort)
    if not records:
        raise ValueError(f"{args.cohort}: cohort is empty, nothing to featurize")
    codebook = dataset.fit_codebook(records)
    truncated = dataset.write_features(records, registry, codebook, cfg.n_model, wd / "features.mat")
    _warn_truncated(truncated)
    (wd / "codebook.tsv").write_text(codebook.to_text(registry.content_hash), encoding="utf-8")
    print(f"featurized {len(records)} records at width {cfg.n_model}")
    return EXIT_OK, {"registry_hash": registry.content_hash, "truncated_records": str(truncated)}


def cmd_split(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import dataset

    train_idx, test_idx = dataset.write_split(
        args.matrix, cfg.ratio, cfg.split_seed, wd / "train.mat", wd / "test.mat"
    )
    print(f"split {len(train_idx) + len(test_idx)} rows into {len(train_idx)} train / {len(test_idx)} test")
    return EXIT_OK, {}


def cmd_balance(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import dataset

    m = dataset.read_matrix(args.matrix)
    balanced = dataset.smote(m, k=cfg.smote_k, seed=cfg.smote_seed)
    dataset.write_matrix(balanced, wd / "balanced.mat")
    print(f"balanced {len(m)} rows to {len(balanced)}")
    return EXIT_OK, {}


def cmd_train(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import checkpoint, dataset, training
    from .network import Network

    registry = _load_registry(cfg)
    m = dataset.read_matrix(args.matrix)
    validation = None
    if args.val_matrix:
        v = dataset.read_matrix(args.val_matrix)
        validation = v.x, v.y
    net = Network(m.x.shape[1], _arch_from_config(cfg).specs(), seed=cfg.train_seed)
    logs, optimizer = training.train(net, m.x, m.y, _train_config(cfg), validation)
    checkpoint.save_checkpoint(net, wd / "model.ckpt", registry.content_hash, optimizer)
    (wd / "epochs.tsv").write_text(training.epoch_logs_tsv(logs), encoding="utf-8")
    last = logs[-1]
    print(
        f"trained {len(logs)} epochs; final loss {last.train_loss:.6f}, "
        f"accuracy {last.train_accuracy:.6f} ({net.param_count()} parameters)"
    )
    return EXIT_OK, {"registry_hash": registry.content_hash}


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import checkpoint, dataset, evaluation

    evaluation.check_threshold(cfg.threshold)
    registry = _load_registry(cfg)
    net, _, _ = checkpoint.load_checkpoint(args.checkpoint, expect_registry_hash=registry.content_hash)
    m = dataset.read_matrix(args.matrix)
    if m.x.shape[1] != net.input_length:
        raise ValueError(
            f"matrix width {m.x.shape[1]} does not match checkpoint input length {net.input_length}"
        )
    report = evaluation.evaluate_scores(m.y, net.predict_scores(m.x), cfg.threshold)
    header = f"# registry_hash {registry.content_hash}\n"
    (wd / "report.tsv").write_text(header + evaluation.report_tsv(report), encoding="utf-8")
    (wd / "confusion.tsv").write_text(report.confusion.to_tsv(), encoding="utf-8")
    (wd / "report.txt").write_text(evaluation.report_text(report), encoding="utf-8")
    sys.stdout.write(evaluation.report_text(report))
    return EXIT_OK, {"registry_hash": registry.content_hash}


def cmd_predict(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import checkpoint, dataset, evaluation, ingest

    evaluation.check_threshold(cfg.threshold)
    registry = _load_registry(cfg)
    net, _, _ = checkpoint.load_checkpoint(args.checkpoint, expect_registry_hash=registry.content_hash)
    codebook, codebook_hash = _parse_file(args.codebook, dataset.CovariateCodebook.from_text)
    if codebook_hash != registry.content_hash:
        raise ValueError(f"{args.codebook}: codebook was built against registry {codebook_hash[:12]}..., "
                         f"current registry is {registry.content_hash[:12]}...")
    records = ingest.read_cohort(args.cohort)
    if not records:
        raise ValueError(f"{args.cohort}: cohort is empty, nothing to predict")
    m, truncated = dataset.featurize(records, registry, codebook, net.input_length)
    _warn_truncated(truncated)
    scores = net.predict_scores(m.x)
    lines = ["accession\tscore\tpredicted_label\tpredicted_class"]
    for record, score in zip(records, scores):
        label = int(score >= cfg.threshold)
        name = "mild" if label == 1 else "severe"
        lines.append(f"{record.accession_id}\t{score:.6f}\t{label}\t{name}")
    (wd / "predictions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"scored {len(records)} records at threshold {cfg.threshold}")
    return EXIT_OK, {"registry_hash": registry.content_hash}


def cmd_search(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from . import dataset, training

    m = dataset.read_matrix(args.matrix)
    base = _arch_from_config(cfg)
    space = (
        _parse_file(cfg.search_space, training.parse_search_space)
        if cfg.search_space
        else training.default_search_space(base)
    )
    trials = training.random_search(
        space,
        cfg.trials,
        m,
        _train_config(cfg),
        base,
        cv_k=cfg.cv_k,
        smote_k=cfg.smote_k,
        include_default=args.include_default,
    )
    (wd / "trials.tsv").write_text(training.trials_tsv(trials), encoding="utf-8")
    best = trials[0]
    if best.status != "ok":
        print("no trial completed successfully", file=sys.stderr)
        return EXIT_CHECK_FAILED, {}
    print(f"best trial {best.index}: mean F1 {best.mean_f1:.4f} with {best.hyperparams}")
    return EXIT_OK, {}


def cmd_gradcheck(cfg: RunConfig, args: argparse.Namespace, wd: Path) -> Outcome:
    from .gradcheck import run_gradient_checks

    results, passed = run_gradient_checks(seed=cfg.train_seed)
    for r in results:
        print(f"{r.tensor}\t{r.rel_error:.3e}\t{'PASS' if r.passed else 'FAIL'}")
    print("gradient check:", "PASS" if passed else "FAIL")
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), {}


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(sub: argparse.ArgumentParser, handler, writes_workdir: bool = True) -> None:
    """`writes_workdir=False`: the command writes nothing into the workdir, so
    `main` makes it and writes the record only when `--workdir` is given."""
    sub.set_defaults(handler=handler, writes_workdir=writes_workdir)
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--workdir", help="output directory (all files are written here)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikesev",
        description="Spike-protein severity classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse FASTA + metadata into a clean cohort")
    _add_common(p, cmd_ingest)
    p.add_argument("--fasta", required=True)
    p.add_argument("--metadata", required=True)

    p = sub.add_parser("stats", help="cohort frequency tables and mean ages")
    _add_common(p, cmd_stats, writes_workdir=False)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out")

    p = sub.add_parser("featurize", help="cohort -> feature matrix + codebook")
    _add_common(p, cmd_featurize)
    p.add_argument("--cohort", required=True)
    p.add_argument("--n-model")

    p = sub.add_parser("split", help="stratified train/test split of a matrix")
    _add_common(p, cmd_split)
    p.add_argument("--matrix", required=True)
    p.add_argument("--ratio")
    p.add_argument("--seed", dest="split_seed")

    p = sub.add_parser("balance", help="SMOTE-balance a training matrix")
    _add_common(p, cmd_balance)
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", dest="smote_k")
    p.add_argument("--seed", dest="smote_seed")

    p = sub.add_parser("train", help="train a model on a matrix")
    _add_common(p, cmd_train)
    p.add_argument("--matrix", required=True)
    p.add_argument("--val-matrix")
    p.add_argument("--epochs")
    p.add_argument("--batch-size")
    p.add_argument("--learning-rate")
    p.add_argument("--seed", dest="train_seed")

    p = sub.add_parser("evaluate", help="score a checkpoint on a test matrix")
    _add_common(p, cmd_evaluate)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold")

    p = sub.add_parser("predict", help="per-record scores from a checkpoint")
    _add_common(p, cmd_predict)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--threshold")

    p = sub.add_parser("search", help="random hyperparameter search")
    _add_common(p, cmd_search)
    p.add_argument("--matrix", required=True)
    p.add_argument("--space", dest="search_space")
    p.add_argument("--trials")
    p.add_argument("--k", dest="cv_k")
    p.add_argument("--epochs")
    p.add_argument("--seed", dest="train_seed")
    p.add_argument("--include-default", action="store_true",
                   help="score the configured architecture as a fixed first trial")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p, cmd_gradcheck, writes_workdir=False)
    p.add_argument("--seed", dest="train_seed")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by the text of every given flag
    whose dest names a `RunConfig` field; `RunConfig.apply` parses both."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return load_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    """Make the workdir, run the command, then write `<command>.resolved.cfg`
    on whatever exit code the command returns; a refused input raises and
    leaves no record."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        wd = Path(cfg.workdir)
        record = args.writes_workdir or args.workdir is not None
        if record:
            wd.mkdir(parents=True, exist_ok=True)
        code, extra = args.handler(cfg, args, wd)
        if record:
            (wd / f"{args.command}.resolved.cfg").write_text(cfg.resolved_lines(extra), encoding="utf-8")
        return code
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RuntimeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
