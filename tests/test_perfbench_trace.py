"""The traced benchmark pass (`perfbench/trace.py`) drives the layer kernels
directly and reads their caches. These checks run its train-step probe and
its layer driver on a small stock network, so a kernel or cache-layout change
that breaks `perfbench/run.py --trace 1` fails here."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from spikesev.layers import LSTMSpec, MaxPool1DSpec
from spikesev.network import Network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WIDTH = 64
SEED = 3


@pytest.fixture(scope="module")
def trace():
    # Loaded by path: `trace` is also a stdlib module. trace.py imports its
    # sibling modules `checks`, `run` and `launcher` by bare name. No
    # bytecode is written next to the benchmark's sources.
    siblings = ("checks", "run", "launcher")
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
        for name in siblings:
            sys.modules.pop(name, None)
    return module


def _cache_bytes(x: np.ndarray) -> dict[str, int]:
    """Bytes of every array each pool and LSTM layer caches on `x`."""
    net = Network(WIDTH, seed=SEED)
    _, caches = net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
    out, pools = {}, 0
    for spec, cache in zip(net.specs, caches):
        if isinstance(spec, MaxPool1DSpec):
            pools += 1
            out[f"layers.pool{pools}.cache_bytes"] = sum(a.nbytes for a in cache)
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
