"""The traced benchmark pass (`perfbench/trace.py`) drives the layer kernels
directly and reads their caches. These checks run its train-step probe and
its layer driver on a small stock network, and every stage body of one
traced pass on a small cohort, so a kernel, cache-layout or library-name
change that breaks `perfbench/run.py --trace 1` fails here."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from spikesev.checkpoint import save_checkpoint
from spikesev.cli import main
from spikesev.layers import LSTMSpec, MaxPool1DSpec
from spikesev.network import Network
from spikesev.scales import default_registry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WIDTH = 64
SEED = 3
PASS_WIDTH = 256


def _load(name: str, siblings: tuple[str, ...] = ()):
    """The benchmark module `name`, loaded by path; the sibling modules it
    imports by bare name are found next to it and then forgotten. No
    bytecode is written next to the benchmark's sources."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
        for sibling in siblings:
            sys.modules.pop(sibling, None)
    return module


@pytest.fixture(scope="module")
def trace():
    # Loaded by path: `trace` is also a stdlib module.
    return _load("trace", siblings=("checks", "run", "launcher"))


def _cache_bytes(x: np.ndarray) -> dict[str, int]:
    """Bytes of every array each pool and LSTM layer caches on `x`; a pool's
    cache is one per row range."""
    net = Network(WIDTH, seed=SEED)
    _, caches = net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
    out, pools = {}, 0
    for spec, cache in zip(net.specs, caches):
        if isinstance(spec, MaxPool1DSpec):
            pools += 1
            out[f"layers.pool{pools}.cache_bytes"] = sum(a.nbytes for part in cache for a in part)
        elif isinstance(spec, LSTMSpec):
            out["layers.lstm.cache_bytes"] = sum(a.nbytes for a in cache)
    return out


def _rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1)
    return rng.normal(size=(n, WIDTH)).astype(np.float32), np.arange(n, dtype=np.uint8) % 2


def test_train_step_probe_reports_the_cached_bytes(trace):
    x, y = _rows(trace.BATCH)
    t = trace.Tracer()
    trace.probe_train_steps(t, x, y, SEED)
    expected = _cache_bytes(x)
    assert {name: t.values[name] for name in expected} == expected
    spans = {name for _, name, *_ in t.spans}
    assert {"network.forward", "network.backward", "layers.lstm.bwd", "layers.pool1.bwd"} <= spans


def test_inference_drive_reports_the_cached_bytes(trace):
    x, _ = _rows(5)
    t = trace.Tracer()
    trace.drive_layers(t, Network(WIDTH, seed=SEED), x)
    expected = _cache_bytes(x)
    assert {name: t.values[name] for name in expected} == expected


def test_traced_pass_runs_every_stage_body(trace, tmp_path):
    """One traced pass as `run.py --trace 1` makes it, on a 30-record cohort
    at width 256: every stage body completes and reports every per-layer
    metric `BENCHMARK.json` declares, except the ones `run.py` adds."""
    cohort = _load("cohort")
    fasta, metadata = cohort.write_cohort(tmp_path / "prep", SEED, 20, 10)
    model = tmp_path / "model"
    assert main(["ingest", "--fasta", str(fasta), "--metadata", str(metadata), "--workdir", str(model)]) == 0
    assert main(["featurize", "--cohort", str(model / "cohort.tsv"), "--workdir", str(model),
                 "--n-model", str(PASS_WIDTH)]) == 0
    ckpt = tmp_path / "untrained.ckpt"
    save_checkpoint(Network(PASS_WIDTH, seed=SEED), ckpt, default_registry().content_hash)
    result = trace.traced_pass({
        "fasta": str(fasta), "metadata": str(metadata), "prep_dir": str(tmp_path / "prep"),
        "prep_width": PASS_WIDTH, "seed": SEED, "train_matrix": str(model / "features.mat"),
        "train_dir": str(tmp_path / "train"), "evaluate_matrix": str(model / "features.mat"),
        "checkpoint": str(ckpt),
    })
    assert result["failed"] == []
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = [metric["name"] for metric in spec["per_layer"]]
    added_by_run = [name for name in declared
                    if name.startswith("cli.") and name.endswith(".self_s") or name == "trace.overhead_share"]
    assert added_by_run
    missing = [name for name in declared if name not in added_by_run and name not in result["metrics"]]
    assert missing == []
