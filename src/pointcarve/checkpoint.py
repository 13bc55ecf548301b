"""Versioned binary checkpoint container for the carve network.

Layout (integers little-endian; documented in docs/formats.md):

    magic        4 bytes  b"PCRV"
    version      u32      currently 5
    text_len     u32      byte length of the config text
    config text  UTF-8    canonical RunConfig.to_text() of the training run
    config hash  12 bytes RunConfig.config_hash() of that text, ASCII hex
    tensors      raw float32, little-endian, in declared parameter order

The config text fixes the architecture and every pipeline setting, so a
loaded model runs the pipeline it was trained with. It must be exactly the
to_text() of the config it parses to. Parameters are stored as float32
regardless of the compute dtype.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .carving import CarveModelParams
from .config import RunConfig

MAGIC = b"PCRV"
VERSION = 5
_HEAD = struct.Struct("<4sII")
_HASH_LEN = 12


@dataclass(frozen=True)
class CheckpointMeta:
    """The run configuration `save_checkpoint` stores with the parameters."""

    config: RunConfig

    @staticmethod
    def from_config(config: RunConfig) -> "CheckpointMeta":
        return CheckpointMeta(config)


def save_checkpoint(path: str | Path, params: CarveModelParams, meta: CheckpointMeta) -> None:
    """Write params with meta.config, whose architecture must be theirs (dtype aside)."""
    config = meta.config
    if replace(config.carve_config(), dtype=params.config.dtype) != params.config:
        raise ValueError(
            f"config architecture {config.carve_config()} does not match params {params.config}"
        )
    text = config.to_text().encode()
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION, len(text)))
        fh.write(text)
        fh.write(config.config_hash().encode())
        for arr in params.tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(
    path: str | Path, dtype: str | None = None
) -> tuple[CarveModelParams, RunConfig]:
    """Params and the run config they were saved with.

    The params are built in the stored config's dtype unless `dtype` is
    given; the returned config carries the dtype used.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEAD.size:
        raise ValueError(f"{path}: truncated checkpoint header")
    magic, version, text_len = _HEAD.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, not a checkpoint")
    if version != VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {version} (this build reads version {VERSION})"
        )
    pos = _HEAD.size + text_len + _HASH_LEN
    if pos > len(raw):
        raise ValueError(f"{path}: truncated config text")
    text = raw[_HEAD.size:_HEAD.size + text_len]
    stored_hash = raw[_HEAD.size + text_len:pos]
    if hashlib.sha256(text).hexdigest()[:_HASH_LEN].encode() != stored_hash:
        raise ValueError(f"{path}: config text does not match its stored hash")
    config = RunConfig.from_text(text.decode(), source=f"{path}: config")
    # Any other text that parses to this config would load under a hash
    # other than the stored one.
    if config.to_text().encode() != text:
        raise ValueError(f"{path}: config text is not canonical")
    if dtype is not None:
        config = config.replace(dtype=dtype)
    cfg = config.carve_config()
    tensors: dict[str, np.ndarray] = {}
    for name, shape in cfg.tensor_shapes().items():
        count = int(np.prod(shape))
        if pos + 4 * count > len(raw):
            raise ValueError(f"{path}: truncated tensor data at {name}")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=pos)
        tensors[name] = arr.reshape(shape).astype(cfg.np_dtype)
        pos += 4 * count
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after tensor data")
    return CarveModelParams(config=cfg, tensors=tensors), config
