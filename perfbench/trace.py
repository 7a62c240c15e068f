"""Traced pass: the six pipeline stages of one workload in one process, each
library call wrapped in a span.

The stage bodies make the same public library calls, in the same order, as
the CLI's subcommands, so the spans of a stage add up to the library work the
untraced stage did. Probe spans (`probe=True`) time extra work that the CLI
does not do, to split a whole into parts:

- `seqfeatures.*`: the descriptor and residue encoding of every record,
  called again outside `dataset.assemble`;
- `network.*` in the train stage: one training step per batch with
  `Network.forward`, the loss, `Network.backward`, the L2 gradient and
  `adam_step` timed as wholes;
- `layers.*`: the same steps, and then each 256-row inference batch of the
  evaluate stage, driven one layer kernel of `spikesev.layers` at a time with
  the network's own parameters, so each kernel sees the shape
  `network.infer_shapes` gives for its layer.

Per-layer times are totals over the pass. Flop counts are computed from the
shapes; byte figures are the largest array a layer made, file sizes, or the
tracemalloc peak during the call (numpy reports its allocations to
tracemalloc, and a request it could not satisfy is recorded too).

Run by `run.py` as `python3 perfbench/trace.py '<json arguments>'`; prints
one JSON object as its last line.
"""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks
from run import BALANCE_WIDTH, BATCH, STAGES
from spikesev import checkpoint, dataset, evaluation, ingest, layers, network, scales, seqfeatures, training

INFERENCE_BATCH = 256  # the default batch of Network.predict_scores
LAMBDA_L2 = 0.001  # the CLI's default lambda_l2


class Tracer:
    """Spans kept in memory: (stage, name, start, end, probe). The stage is
    the parent of every span in it."""

    def __init__(self):
        self.stage = ""
        self.spans: list[tuple[str, str, float, float, bool]] = []
        self.values: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, probe: bool = False):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.stage, name, start, time.perf_counter(), probe))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, 0), value)

    def total(self, prefix: str = "", suffix: str = "", stage: str | None = None, probe: bool | None = None) -> float:
        return sum(
            end - start
            for s, name, start, end, p in self.spans
            if name.startswith(prefix) and name.endswith(suffix)
            and stage in (None, s) and probe in (None, p)
        )


def read_matrix(t: Tracer, path: Path) -> list:
    vectors = t.call("dataset.read_matrix", dataset.read_matrix, path)
    t.add("dataset.read_matrix_bytes", path.stat().st_size)
    return vectors


def write_matrix(t: Tracer, vectors: list, path: Path) -> None:
    t.call("dataset.write_matrix", dataset.write_matrix, vectors, path)
    t.add("dataset.write_matrix_bytes", path.stat().st_size)


def layer_names(specs) -> list[str]:
    """conv1..convN and pool1..poolN by position; dropout, lstm and dense
    layers share one name per kind."""
    seen: dict[str, int] = {}
    names = []
    for spec in specs:
        kind = {"Conv1DSpec": "conv", "MaxPool1DSpec": "pool", "DropoutSpec": "dropout",
                "LSTMSpec": "lstm", "DenseSpec": "dense"}[type(spec).__name__]
        seen[kind] = seen.get(kind, 0) + 1
        names.append(f"{kind}{seen[kind]}" if kind in ("conv", "pool") else kind)
    return names


def drive_layers(t: Tracer, net, x: np.ndarray, masks=None, dout=None) -> None:
    """Forward through the layer kernels; with `dout`, backward as well.
    Without `masks` dropout is the identity, as at inference."""
    cur = x.astype(net.dtype)[:, :, None]
    names = layer_names(net.specs)
    masks = iter(masks or ())
    caches = []
    for spec, p, name in zip(net.specs, net.params, names):
        kind = type(spec).__name__
        batch = cur.shape[0]
        with t.span(f"layers.{name}.fwd", probe=True):
            if kind == "Conv1DSpec":
                cur, cache = layers.conv1d_forward(cur, p["w"], p["b"])
            elif kind == "MaxPool1DSpec":
                cur, cache = layers.maxpool1d_forward(cur, spec.pool)
            elif kind == "DropoutSpec":
                cache = next(masks) if dout is not None and spec.rate > 0 else None
                if cache is not None:
                    cur = layers.dropout_forward(cur, spec.rate, cache)
            elif kind == "LSTMSpec":
                cur, cache = layers.lstm_forward(cur, p["w"], p["u"], p["b"])
            else:
                cur, cache = layers.dense_forward(cur, p["w"], p["b"], spec.activation)
        if kind == "Conv1DSpec":
            k, c_in, filters = p["w"].shape
            t.add(f"layers.{name}.fwd_flop", 2 * batch * cur.shape[1] * c_in * k * filters)
            t.peak(f"layers.{name}.out_bytes", cur.nbytes)
        elif kind == "MaxPool1DSpec":
            t.peak(f"layers.{name}.cache_bytes", cache[0].nbytes)
        elif kind == "LSTMSpec":
            steps, c_in, units = cache[0].shape[1], p["w"].shape[0], p["u"].shape[0]
            t.add("layers.lstm.fwd_flop", 2 * steps * batch * (c_in + units) * 4 * units)
            t.peak("layers.lstm.cache_bytes", sum(a.nbytes for a in cache))
        if dout is not None:
            caches.append(cache)
    if dout is None:
        return
    grad = dout
    for spec, p, name, cache in reversed(list(zip(net.specs, net.params, names, caches))):
        kind = type(spec).__name__
        with t.span(f"layers.{name}.bwd", probe=True):
            if kind == "Conv1DSpec":
                grad, _, _ = layers.conv1d_backward(grad, cache, p["w"])
            elif kind == "MaxPool1DSpec":
                grad = layers.maxpool1d_backward(grad, cache, spec.pool)
            elif kind == "DropoutSpec":
                if cache is not None:
                    grad = layers.dropout_backward(grad, spec.rate, cache)
            elif kind == "LSTMSpec":
                grad, _, _, _ = layers.lstm_backward(grad, cache, p["w"], p["u"])
            else:
                grad, _, _ = layers.dense_backward(grad, cache, p["w"], spec.activation)


def probe_train_steps(t: Tracer, x: np.ndarray, y: np.ndarray, seed: int) -> None:
    """One pass over the batches as `training.train` makes it, with the
    network-level calls timed as wholes, then each step again through the
    layer kernels with the same dropout masks and output gradient."""
    net = network.Network(x.shape[1], seed=seed)
    optimizer = network.AdamState.for_network(net)
    rng = np.random.default_rng([seed, 1])
    for start in range(0, len(y), BATCH):
        xb, yb = x[start : start + BATCH], y[start : start + BATCH]
        with t.span("network.forward", probe=True):
            out, caches = net.forward(xb, train=True, rng=rng, want_caches=True)
        masks = net.dropout_masks_from_caches(caches)
        with t.span("network.loss", probe=True):
            _, dpred = network.batch_bce_l2(out.reshape(-1), yb, net, LAMBDA_L2)
        dout = dpred.reshape(-1, 1).astype(net.dtype)
        with t.span("network.backward", probe=True):
            grads = net.backward(dout, caches)
        del caches
        with t.span("network.l2_grad", probe=True):
            net.add_l2_gradients(grads, LAMBDA_L2)
        with t.span("network.adam", probe=True):
            network.adam_step(optimizer, net.params, grads)
        drive_layers(t, net, xb, masks=masks, dout=dout)


# ---------------------------------------------------------------------------
# stages; each mirrors the CLI subcommand of the same name


def stage_ingest(t: Tracer, a: dict) -> None:
    fasta_text = Path(a["fasta"]).read_text(encoding="utf-8")
    meta_text = Path(a["metadata"]).read_text(encoding="utf-8")
    records, _ = t.call("ingest.parse_fasta", ingest.parse_fasta, fasta_text)
    rows = t.call("ingest.parse_metadata", ingest.parse_metadata, meta_text, "\t")
    cohort, _ = t.call("ingest.build_cohort", ingest.build_cohort, records, rows)
    t.call("ingest.write_cohort", ingest.write_cohort, cohort, Path(a["prep_dir"]) / "cohort.tsv")
    t.add("ingest.residues", sum(len(seq) for _, seq in records))


def stage_featurize(t: Tracer, a: dict) -> None:
    wd = Path(a["prep_dir"])
    registry = t.call("scales.default_registry", scales.default_registry)
    records = t.call("ingest.read_cohort", ingest.read_cohort, wd / "cohort.tsv")
    codebook = t.call("dataset.fit_codebook", dataset.fit_codebook, records)
    vectors = [
        t.call("dataset.assemble", dataset.assemble, r, registry, codebook, a["prep_width"])
        for r in records
    ]
    write_matrix(t, vectors, wd / "features.mat")
    for r in records:
        with t.span("seqfeatures.global_descriptors", probe=True):
            seqfeatures.global_descriptors(r.sequence, registry)
        with t.span("seqfeatures.residue_encoding", probe=True):
            seqfeatures.residue_encoding(r.sequence, registry)


def stage_split(t: Tracer, a: dict) -> None:
    wd = Path(a["prep_dir"])
    vectors = read_matrix(t, wd / "features.mat")
    split = t.call("dataset.stratified_split", dataset.stratified_split, vectors, 0.8, a["seed"])
    write_matrix(t, split.train, wd / "train.mat")
    write_matrix(t, split.test, wd / "test.mat")


def stage_balance(t: Tracer, a: dict) -> None:
    """On the narrow train matrix, as the untraced stage; then a probe:
    `smote` on the full-width train matrix, whose `MemoryError` is counted
    in `dataset.smote_failed`."""
    wd = Path(a["prep_dir"])
    checks.write_leading_columns(wd / "train.mat", wd / "narrow.mat", BALANCE_WIDTH)
    vectors = read_matrix(t, wd / "narrow.mat")
    tracemalloc.start()
    try:
        balanced = t.call("dataset.smote", dataset.smote, vectors, k=5, seed=a["seed"])
    finally:
        t.peak("dataset.smote_peak_bytes", tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    write_matrix(t, balanced, wd / "balanced.mat")
    del vectors, balanced
    full = dataset.read_matrix(wd / "train.mat")
    try:
        dataset.smote(full, k=5, seed=a["seed"])
    except MemoryError:
        t.add("dataset.smote_failed", 1)


def stage_train(t: Tracer, a: dict) -> None:
    wd = Path(a["train_dir"])
    registry = t.call("scales.default_registry", scales.default_registry)
    x, y = t.call("dataset.to_arrays", dataset.to_arrays, read_matrix(t, Path(a["train_matrix"])))
    net = t.call("network.init", network.Network, x.shape[1], seed=a["seed"])
    config = training.TrainConfig(epochs=1, batch_size=BATCH, seed=a["seed"])
    _, optimizer = t.call("training.train", training.train, net, x, y, config)
    t.add("training.steps", math.ceil(len(y) / BATCH))
    path = wd / "model.ckpt"
    t.call("checkpoint.save", checkpoint.save_checkpoint, net, path, registry.content_hash, optimizer)
    t.add("checkpoint.bytes", path.stat().st_size)
    probe_train_steps(t, x, y, a["seed"])


def stage_evaluate(t: Tracer, a: dict) -> None:
    registry = t.call("scales.default_registry", scales.default_registry)
    path = Path(a["checkpoint"])
    net, _, _ = t.call("checkpoint.load", checkpoint.load_checkpoint, path,
                       expect_registry_hash=registry.content_hash)
    t.add("checkpoint.bytes", path.stat().st_size)
    x, y = t.call("dataset.to_arrays", dataset.to_arrays, read_matrix(t, Path(a["evaluate_matrix"])))
    tracemalloc.start()
    try:
        scores = t.call("network.predict_scores", net.predict_scores, x)
    finally:
        t.peak("network.predict_peak_bytes", tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    t.call("evaluation.evaluate_scores", evaluation.evaluate_scores, y, scores, 0.5)
    for start in range(0, len(y), INFERENCE_BATCH):
        drive_layers(t, net, x[start : start + INFERENCE_BATCH])


STAGE_BODIES = dict(zip(STAGES, (stage_ingest, stage_featurize, stage_split, stage_balance,
                                 stage_train, stage_evaluate)))


def span_cost(samples: int = 20000) -> float:
    """Seconds one span adds, measured on a scratch tracer."""
    scratch = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with scratch.span("x"):
            pass
    return (time.perf_counter() - start) / samples


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def traced_pass(a: dict) -> dict:
    t = Tracer()
    t.values["dataset.smote_failed"] = 0
    Path(a["train_dir"]).mkdir(parents=True, exist_ok=True)
    failed = []
    for stage in STAGES:
        t.stage = stage
        try:
            STAGE_BODIES[stage](t, a)
        except MemoryError as exc:
            failed.append(f"{stage}: MemoryError: {exc}")
    metrics: dict[str, float] = {}
    for _, name, start, end, _ in t.spans:
        metrics[f"{name}_s"] = metrics.get(f"{name}_s", 0.0) + end - start
    metrics.update(t.values)
    metrics["network.forward_covered"] = _share(
        t.total("layers.", ".fwd", stage="train"), t.total("network.forward", stage="train"))
    metrics["network.backward_covered"] = _share(t.total("layers.", ".bwd"), t.total("network.backward"))
    metrics["network.predict_covered"] = _share(
        t.total("layers.", ".fwd", stage="evaluate"), t.total("network.predict_scores"))
    metrics["trace.overhead_s"] = span_cost() * len(t.spans)
    library = {stage: t.total(stage=stage, probe=False) for stage in STAGES}
    return {"metrics": metrics, "library_s": library, "failed": failed}


if __name__ == "__main__":
    print(json.dumps(traced_pass(json.loads(sys.argv[1]))))
