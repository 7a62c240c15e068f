"""Versioned binary checkpoint container.

Layout: magic, format version, an architecture JSON block (input length,
seed, layer stack), the registry content hash, the parameter tensors
(shape + little-endian 32-bit floats), then optionally the Adam state.
Round trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .layers import LAYER_KINDS, LayerSpec
from .network import AdamState, Network

CHECKPOINT_MAGIC = b"SSEVCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def spec_to_dict(spec: LayerSpec) -> dict:
    return {"type": spec.kind, **asdict(spec)}


def spec_from_dict(d: dict) -> LayerSpec:
    kind = d.get("type")
    cls = LAYER_KINDS.get(kind)
    if cls is None:
        raise CheckpointError(f"unknown layer type {kind!r}")
    values = {k: v for k, v in d.items() if k != "type"}
    types = {f.name: get_type_hints(cls)[f.name] for f in fields(cls)}
    if sorted(values) != sorted(types):
        raise CheckpointError(f"{kind} layer has fields {sorted(values)}, expected {sorted(types)}")
    for name, expected in types.items():
        allowed = (int, float) if expected is float else expected  # DropoutSpec(0) saves rate 0
        if isinstance(values[name], bool) or not isinstance(values[name], allowed):
            raise CheckpointError(f"{kind} layer field {name!r} is not a {expected.__name__}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise CheckpointError(f"{kind} layer: {exc}") from None


def _write_block(fh, payload: bytes) -> None:
    fh.write(struct.pack("<I", len(payload)))
    fh.write(payload)


def _write_tensor(fh, name: str, tensor: np.ndarray) -> None:
    _write_block(fh, name.encode("utf-8"))
    fh.write(struct.pack("<B", tensor.ndim))
    fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
    fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def block(self) -> bytes:
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n)

    def tensor(self) -> tuple[str, np.ndarray]:
        name = self.block().decode("utf-8")
        (ndim,) = struct.unpack("<B", self.take(1))
        shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        data = np.frombuffer(self.take(4 * count), dtype="<f4").reshape(shape)
        return name, data.astype(np.float32)


def _tensor_items(params: list[dict[str, np.ndarray]]):
    for idx, layer in enumerate(params):
        for key in sorted(layer):
            yield f"{idx}/{key}", layer[key]


def _read_tensors(reader: _Reader, prefix: str, expected: dict, into: list[dict]) -> None:
    """Read one tensor per expected name (each under `prefix`) into `into`,
    refusing unknown, repeated and misshapen tensors."""
    seen = set()
    for _ in range(len(expected)):
        full_name, data = reader.tensor()
        name = full_name[len(prefix) :] if full_name.startswith(prefix) else None
        if name not in expected:
            raise CheckpointError(f"{reader.path}: unexpected tensor {full_name!r}")
        if name in seen:
            raise CheckpointError(f"{reader.path}: duplicate tensor {full_name!r}")
        if data.shape != expected[name]:
            raise CheckpointError(
                f"{reader.path}: tensor {full_name!r} has shape {data.shape}, expected {expected[name]}"
            )
        seen.add(name)
        idx, key = name.split("/")
        into[int(idx)][key] = data.copy()


def save_checkpoint(
    network: Network,
    path: str | Path,
    registry_hash: str,
    optimizer: AdamState | None = None,
) -> None:
    arch = {
        "input_length": network.input_length,
        "seed": network.seed,
        "layers": [spec_to_dict(s) for s in network.specs],
    }
    arch_json = json.dumps(arch, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = list(_tensor_items(network.params))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        _write_block(fh, arch_json)
        _write_block(fh, registry_hash.encode("utf-8"))
        fh.write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors:
            _write_tensor(fh, name, tensor)
        if optimizer is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(
                struct.pack(
                    "<ddddQ",
                    optimizer.learning_rate,
                    optimizer.beta1,
                    optimizer.beta2,
                    optimizer.epsilon,
                    optimizer.step,
                )
            )
            for name, tensor in _tensor_items(optimizer.m):
                _write_tensor(fh, "m/" + name, tensor)
            for name, tensor in _tensor_items(optimizer.v):
                _write_tensor(fh, "v/" + name, tensor)


def load_checkpoint(
    path: str | Path,
    expect_registry_hash: str | None = None,
) -> tuple[Network, AdamState | None, str]:
    """Restore (network, optimizer state, registry hash) from a checkpoint.

    If expect_registry_hash is given, a mismatching checkpoint is refused.
    """
    reader = _Reader(Path(path).read_bytes(), path)
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    (version,) = struct.unpack("<I", reader.take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    arch = json.loads(reader.block().decode("utf-8"))
    registry_hash = reader.block().decode("utf-8")
    if expect_registry_hash is not None and registry_hash != expect_registry_hash:
        raise CheckpointError(
            f"{path}: checkpoint was built against registry {registry_hash[:12]}..., "
            f"current registry is {expect_registry_hash[:12]}..."
        )
    specs = [spec_from_dict(d) for d in arch["layers"]]
    network = Network(arch["input_length"], specs, seed=arch["seed"])
    expected = {name: t.shape for name, t in _tensor_items(network.params)}
    (n_tensors,) = struct.unpack("<I", reader.take(4))
    if n_tensors != len(expected):
        raise CheckpointError(f"{path}: expected {len(expected)} tensors, found {n_tensors}")
    _read_tensors(reader, "", expected, network.params)

    (has_optimizer,) = struct.unpack("<B", reader.take(1))
    optimizer = None
    if has_optimizer:
        lr, b1, b2, eps, step = struct.unpack("<ddddQ", reader.take(40))
        optimizer = AdamState(
            learning_rate=lr,
            beta1=b1,
            beta2=b2,
            epsilon=eps,
            step=step,
            m=network.zero_like_params(),
            v=network.zero_like_params(),
        )
        _read_tensors(reader, "m/", expected, optimizer.m)
        _read_tensors(reader, "v/", expected, optimizer.v)
    if reader.pos != len(reader.blob):
        raise CheckpointError(f"{path}: trailing bytes after checkpoint payload")
    return network, optimizer, registry_hash
