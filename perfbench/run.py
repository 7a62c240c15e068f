"""spikesev pipeline benchmark.

    python3 perfbench/run.py --workload prep-paper --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; `--workload all` runs the two workloads in
turn. Each workload is a closed loop with one client that runs the six CLI
stages one at a time: ingest, featurize, split and balance on the workload's
prep cohort, then train and evaluate on matrices made in set-up. Each stage
runs in a fresh `python -m spikesev` process (see launcher.py for its
limits). After one pass in pipeline order, stages run again, the one with
the fewest runs for its length first, until `--seconds` is used up. Each
stage metric is the median over all its runs, and `setup_s` the median of
SETUP_REPEATS set-ups.

Shapes. `prep-paper` runs the paper's cohort (3,467 records of 1,273
residues, 2,313 severe / 1,154 mild) at the paper's width of 16,730, except
`balance`: it balances the leading BALANCE_WIDTH columns of the split's
train matrix, all 2,773 rows. SMOTE's pairwise difference tensor takes
8 x minority rows^2 x width bytes: 106 GiB at the paper's width, where
`balance` fails with a `MemoryError` on every run, and 0.9 GB at 128
columns, where the tensor and its square peak at 1.7 GB RSS, against under
0.1 GB for `balance` on 30 records. So SMOTE's quadratic memory shows in
balance_peak_rss_mb while no timed stage fails; the traced run still calls
`smote` at the paper's width and counts its failure in
`dataset.smote_failed`.
`model-paper` trains the stock network for one epoch of two batches of 32,
and scores one full 256-row inference batch (171 severe / 85 mild) with a
seeded untrained stock checkpoint, both at an eighth of the paper's width
(2,091): backward and forward at batch 32 in `train`, forward only at batch
256 with the caches dropped in `evaluate`, so a kernel that speeds one and
slows the other shows as train_step_s and evaluate_s moving apart. At full
width one training step takes about 43 s on a 2-vCPU VM and one inference
batch peaks at 6.3 GB RSS, which fit neither the run time nor a shared 8 GB
machine. Every workload runs every stage, so
every metric is measured on every workload; the stages a workload does not
stress run on 30 records (prep) or 32 rows at width 256 (model). Training
and scoring share one workload, not one each, so that each of the two
workloads gets a longer window within a fixed budget for all runs: on a
shared 2-vCPU VM stage times swing by up to 30 % over minutes, and a longer
window averages more of that.

Failures. A stage run fails when it exits non-zero (a `MemoryError`
included) or its output check fails. It counts in `failed`, and its time and
peak RSS are charged FAIL_CHARGE_S and FAIL_CHARGE_MB on top of what was
measured, so a failing stage never reads as a fast one. No stage fails on
these inputs at the seed commit. `correct` is false when any output check
fails.

Tracing. With `--trace 1` the run makes the same untraced passes for stage
wall times, then one traced pass in a child process (trace.py), and prints
the per-layer metrics. `cli.<stage>.self_s` is the untraced stage time minus
the library spans of that stage: interpreter start, imports, argument and
configuration handling, sidecar and report files. It compares two runs, so
a slow spell of the machine during one of them can push it below zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import launcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0
FAIL_CHARGE_S = 180.0
FAIL_CHARGE_MB = float(launcher.ADDRESS_LIMIT >> 20)
SETUP_REPEATS = 5
PAPER_WIDTH = 16730
BALANCE_WIDTH = 128
MODEL_WIDTH = PAPER_WIDTH // 8
LIGHT_WIDTH = 256
BATCH = 32
STAGES = ("ingest", "featurize", "split", "balance", "train", "evaluate")

# Which end-to-end metric each per-layer group should move, on which workload.
LAYER_TO_END_TO_END = (
    ("layers.*.bwd_s, layers.lstm.*", "train_step_s on model-paper; no change in its evaluate_s"),
    ("layers.conv*.fwd_s, layers.pool*.fwd_s", "train_step_s and evaluate_s on model-paper"),
    ("layers.pool*.cache_bytes, network.predict_peak_bytes",
     "evaluate_peak_rss_mb and train_peak_rss_mb on model-paper"),
    ("network.adam_s", "nothing (under 1 ms of a step): null check"),
    ("ingest.*", "ingest_s on prep-paper"),
    ("seqfeatures.*, dataset.assemble_s", "featurize_s on prep-paper"),
    ("dataset.read_matrix_s, dataset.to_arrays_s, dataset.write_matrix_s",
     "split_s and balance_s on prep-paper, a small part of evaluate_s"),
    ("dataset.smote_s, dataset.smote_peak_bytes", "balance_s and balance_peak_rss_mb on prep-paper"),
    ("dataset.smote_failed", "nothing: smote at the paper's width, which fails at the seed commit"),
    ("checkpoint.load_s, evaluation.*", "a small part of evaluate_s on model-paper"),
)


@dataclass(frozen=True)
class Cohort:
    severe: int
    mild: int

    @property
    def records(self) -> int:
        return self.severe + self.mild


@dataclass(frozen=True)
class Workload:
    prep: Cohort  # ingest -> featurize at the paper's width -> split -> balance
    train: Cohort  # one epoch at batch 32, so records / 32 steps
    train_width: int
    evaluate: Cohort  # scored by a seeded untrained stock checkpoint
    evaluate_width: int


PAPER = Cohort(2313, 1154)
SMALL_PREP = Cohort(20, 10)
ONE_BATCH = Cohort(21, 11)
WORKLOADS = {
    "prep-paper": Workload(PAPER, ONE_BATCH, LIGHT_WIDTH, ONE_BATCH, LIGHT_WIDTH),
    "model-paper": Workload(SMALL_PREP, Cohort(43, 21), MODEL_WIDTH, Cohort(171, 85), MODEL_WIDTH),
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Stage:
    name: str
    wall_s: float
    peak_rss_mb: float
    failure: str | None = None
    note: str = ""


class Runner:
    """Runs stage processes one at a time through the launcher (see
    launcher.py for why they are not started from this process)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py"), str(SRC)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def child(self, name: str, argv: list[str], log: Path) -> Stage:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run time limit of {RUN_LIMIT_S:.0f} s reached before {name}")
        request = {"argv": argv, "log": str(log), "timeout": remaining}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("stage launcher exited")
        result = json.loads(reply)
        stage = Stage(name, result["wall_s"], result["maxrss_kib"] / 1024)
        if result["code"] != 0:
            text = Path(f"{log}.err").read_text(errors="replace")
            tail = text.strip().splitlines()[-1:] or [""]
            kind = "MemoryError" if "MemoryError" in text else f"exit {result['code']}"
            stage.failure = f"{kind}: {tail[0][:160]}"
        return stage

    def spikesev(self, stage: str, args: list, log: Path) -> Stage:
        return self.child(stage, [sys.executable, "-m", "spikesev", stage, *map(str, args)], log)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Inputs:
    fasta: Path
    metadata: Path
    train_matrix: Path
    evaluate_matrix: Path
    checkpoint: Path
    network: object


def setup(runner: Runner, w: Workload, seed: int, directory: Path) -> Inputs:
    """Cohort files for the prep stages; train and evaluate matrices made by
    the CLI from their own cohorts; a seeded untrained stock checkpoint."""
    import cohort
    from spikesev.checkpoint import save_checkpoint
    from spikesev.network import Network
    from spikesev.scales import default_registry

    if directory.exists():
        shutil.rmtree(directory)
    fasta, metadata = cohort.write_cohort(directory / "prep", seed, w.prep.severe, w.prep.mild)
    matrices = {}
    for c, width in dict.fromkeys([(w.train, w.train_width), (w.evaluate, w.evaluate_width)]):
        d = directory / f"model-{c.records}-{width}"
        cfasta, cmeta = cohort.write_cohort(d, seed, c.severe, c.mild)
        for stage, args in (("ingest", ["--fasta", cfasta, "--metadata", cmeta, "--workdir", d]),
                            ("featurize", ["--cohort", d / "cohort.tsv", "--workdir", d, "--n-model", width])):
            result = runner.spikesev(stage, args, d / stage)
            if result.failure:
                raise BenchError(f"set-up {stage} failed: {result.failure}")
        matrices[c, width] = d / "features.mat"
    net = Network(w.evaluate_width, seed=seed)
    ckpt = directory / "untrained.ckpt"
    save_checkpoint(net, ckpt, default_registry().content_hash)
    return Inputs(fasta, metadata, matrices[w.train, w.train_width],
                  matrices[w.evaluate, w.evaluate_width], ckpt, net)


# ---------------------------------------------------------------------------
# one pass


def stage_plan(w: Workload, inputs: Inputs, seed: int, directory: Path, reference) -> list[tuple]:
    """(stage, CLI arguments, output check) in pipeline order."""
    import checks

    prep, train, scored = directory / "prep", directory / "train", directory / "evaluate"
    for d in (prep, train, scored):
        d.mkdir(parents=True)
    labels = checks.matrix_labels(inputs.evaluate_matrix)
    return [
        ("ingest", ["--fasta", inputs.fasta, "--metadata", inputs.metadata, "--workdir", prep],
         lambda: checks.check_ingest(prep, w.prep.records)),
        ("featurize", ["--cohort", prep / "cohort.tsv", "--workdir", prep, "--n-model", PAPER_WIDTH],
         lambda: checks.check_featurize(prep, w.prep.records, PAPER_WIDTH)),
        ("split", ["--matrix", prep / "features.mat", "--workdir", prep, "--ratio", 0.8, "--seed", seed],
         lambda: split_then_narrow(prep, w)),
        ("balance", ["--matrix", prep / "narrow.mat", "--workdir", prep, "--k", 5, "--seed", seed],
         lambda: checks.check_balance(prep, w.prep.severe, w.prep.mild, BALANCE_WIDTH)),
        ("train", ["--matrix", inputs.train_matrix, "--workdir", train, "--epochs", 1,
                   "--batch-size", BATCH, "--seed", seed],
         lambda: checks.check_train(train)),
        ("evaluate", ["--checkpoint", inputs.checkpoint, "--matrix", inputs.evaluate_matrix, "--workdir", scored],
         lambda: checks.check_evaluate(scored, labels, reference)),
    ]


def split_then_narrow(prep: Path, w: Workload) -> str:
    """Check the split, then write `balance`'s input, narrow.mat: the
    leading BALANCE_WIDTH columns of train.mat (a rerun of split rewrites
    the same train.mat)."""
    import checks

    note = checks.check_split(prep, w.prep.severe, w.prep.mild, PAPER_WIDTH)
    checks.write_leading_columns(prep / "train.mat", prep / "narrow.mat", BALANCE_WIDTH)
    return note


def run_stages(runner: Runner, w: Workload, inputs: Inputs, seed: int, directory: Path, reference,
               seconds: float) -> list[Stage]:
    """One pass in pipeline order, then, while the window lasts, the stage
    with the lowest runs x sqrt(typical run time) among those that still fit
    runs again (each stage is idempotent once its inputs exist). Every stage's
    runs are thus spread over the whole window, so a slow spell of the machine
    falls on a share of each stage's samples; a stage of several seconds
    still gets a second sample, and a stage of a fraction of a second gets
    many more, for its larger start-up jitter."""
    import checks

    begin = time.monotonic()
    plan = stage_plan(w, inputs, seed, directory, reference)
    stages: list[Stage] = []
    walls: dict[str, list[float]] = {name: [] for name, _, _ in plan}
    order = iter(plan)
    while True:
        step = next(order, None)
        if step is None:
            left = seconds - (time.monotonic() - begin)
            fits = [p for p in plan if statistics.median(walls[p[0]]) <= left]
            if not fits:
                return stages
            step = min(fits, key=lambda p: len(walls[p[0]]) * math.sqrt(statistics.median(walls[p[0]])))
        name, args, check = step
        stage = runner.spikesev(name, args, directory / name)
        if stage.failure is None:
            try:
                stage.note = check()
            except checks.CheckFailed as exc:
                stage.failure = f"check: {exc}"
        stages.append(stage)
        walls[name].append(stage.wall_s)


def stage_metrics(stages: list[Stage], train_steps: int) -> dict[str, float]:
    """Median over each stage's runs; a failed run is charged."""
    runs: dict[str, list[tuple[float, float]]] = {}
    for s in stages:
        charge = s.failure is not None
        wall = s.wall_s / train_steps if s.name == "train" else s.wall_s
        runs.setdefault(s.name, []).append((wall + FAIL_CHARGE_S * charge, s.peak_rss_mb + FAIL_CHARGE_MB * charge))
    out = {}
    for name, values in runs.items():
        out["train_step_s" if name == "train" else f"{name}_s"] = statistics.median(v[0] for v in values)
        out[f"{name}_peak_rss_mb"] = statistics.median(v[1] for v in values)
    return out


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    config = getattr(getattr(np, "__config__", None), "CONFIG", None)
    if config:
        dep = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{dep.get('name', '?')} {dep.get('version', '?')}"
    mem_total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "threads": launcher.THREADS, "mem_total_mb": mem_total >> 20,
            "address_limit_mb": launcher.ADDRESS_LIMIT >> 20}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(name: str, declared: list[dict], values: dict[str, float], stages: list[Stage], attempted: int,
           failed: int, correct: bool, extra_lines=()) -> dict:
    print(f"# workload {name}: attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for stage in STAGES:
        runs = [s for s in stages if s.name == stage]
        bad = [s.failure for s in runs if s.failure]
        print(f"# {stage:<9} {len(runs):3d} runs {len(bad):3d} failed  median "
              f"{statistics.median(s.wall_s for s in runs):8.3f} s {statistics.median(s.peak_rss_mb for s in runs):8.1f} MB"
              f"  check: {next((s.note for s in runs if s.note), 'no run completed')}")
        for failure in dict.fromkeys(bad):
            print(f"#   failed {bad.count(failure)}x: {failure}")
    for line in extra_lines:
        print(f"# {line}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]:>16.6f} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# runs


def measured_run(runner: Runner, name: str, seed: int, seconds: float, spec: dict) -> dict:
    import checks

    w = WORKLOADS[name]
    work = WORK / name
    setup_times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = setup(runner, w, seed, work / f"setup{i}")
        setup_times.append(time.perf_counter() - start)
    reference = checks.reference_scores(inputs.network.specs, inputs.network.params,
                                        checks.matrix_values(inputs.evaluate_matrix))
    stages = run_stages(runner, w, inputs, seed, work / "pass", reference, seconds)
    values = stage_metrics(stages, w.train.records // BATCH)
    values["setup_s"] = statistics.median(setup_times)
    failures = [s for s in stages if s.failure]
    correct = not any(s.failure.startswith("check:") for s in failures)
    lines = [f"setup {t:.3f} s" for t in setup_times]
    if w.prep == PAPER:
        lines.append(f"balance ran on the leading {BALANCE_WIDTH} columns; smote at the paper's width "
                     "is called by the traced run (dataset.smote_failed)")
    return report(name, spec["end_to_end"], values, stages, len(stages), len(failures), correct, lines)


def traced_run(runner: Runner, name: str, seed: int, seconds: float, spec: dict) -> dict:
    import checks

    w = WORKLOADS[name]
    work = WORK / name
    inputs = setup(runner, w, seed, work / "setup0")
    reference = checks.reference_scores(inputs.network.specs, inputs.network.params,
                                        checks.matrix_values(inputs.evaluate_matrix))
    untraced = run_stages(runner, w, inputs, seed, work / "pass", reference, seconds)
    walls = {stage: statistics.median(s.wall_s for s in untraced if s.name == stage) for stage in STAGES}
    traced_dir = work / "traced"
    (traced_dir / "prep").mkdir(parents=True)
    args = {"fasta": str(inputs.fasta), "metadata": str(inputs.metadata), "prep_dir": str(traced_dir / "prep"),
            "prep_width": PAPER_WIDTH, "seed": seed, "train_matrix": str(inputs.train_matrix),
            "train_dir": str(traced_dir / "train"), "evaluate_matrix": str(inputs.evaluate_matrix),
            "checkpoint": str(inputs.checkpoint)}
    child = runner.child("traced", [sys.executable, str(HERE / "trace.py"), json.dumps(args)],
                         traced_dir / "trace")
    if child.failure:
        raise BenchError(f"traced pass failed: {child.failure}")
    result = json.loads((traced_dir / "trace.out").read_text().strip().splitlines()[-1])
    values = result["metrics"]
    for stage in STAGES:
        values[f"cli.{stage}.self_s"] = walls[stage] - result["library_s"][stage]
    values["trace.overhead_share"] = values["trace.overhead_s"] / sum(walls.values())
    failures = [s for s in untraced if s.failure] + result["failed"]
    correct = not any(s.failure.startswith("check:") for s in untraced if s.failure)
    lines = [f"traced pass failure: {f}" for f in result["failed"]]
    lines += [f"traced pass {child.wall_s:.3f} s, peak RSS {child.peak_rss_mb:.1f} MB"]
    lines += [f"{layer} -> {moves}" for layer, moves in LAYER_TO_END_TO_END]
    return report(name, spec["per_layer"], values, untraced, len(untraced) + len(STAGES), len(failures),
                  correct, lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spikesev" / "__init__.py").is_file():
        print(f"error: no spikesev sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    runner = Runner()
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            runner.deadline = time.monotonic() + RUN_LIMIT_S
            shutil.rmtree(WORK / name, ignore_errors=True)
            if args.trace:
                results[name] = traced_run(runner, name, args.seed, args.seconds, spec)
            else:
                results[name] = measured_run(runner, name, args.seed, args.seconds, spec)
            if args.workload == "all":
                print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(WORK, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
