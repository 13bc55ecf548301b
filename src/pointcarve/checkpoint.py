"""Versioned binary checkpoint container for the carve network.

Layout (all integers little-endian uint32 unless noted; documented in
docs/formats.md):

    magic        4 bytes  b"PCRV"
    version      u32      currently 1
    res_h/w/m    3 x u32  grid resolution
    stages       u32      encoder/decoder stage count E
    base_width   u32      C0
    kernel_size  u32      K
    feature_dim  u32      F
    n_per_axis   u32      block filler lattice side
    coarse_m     u32      gridding-reverse point budget
    threshold    f64      carve threshold
    padding      f64      partial-derived bounds padding used at inference
    n_refine     u32      number of refinement layers
    widths       n x u32  refinement layer widths
    tensors      raw float32, little-endian, in declared parameter order

Parameters are always stored as float32 regardless of the compute dtype.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .carving import CarveModelConfig, CarveModelParams
from .config import RunConfig

MAGIC = b"PCRV"
VERSION = 1


@dataclass(frozen=True)
class CheckpointMeta:
    """Inference-relevant settings carried alongside the architecture."""

    n_per_axis: int
    coarse_m: int
    threshold: float
    bounds_padding_partial: float

    @staticmethod
    def from_config(config: RunConfig) -> "CheckpointMeta":
        return CheckpointMeta(
            n_per_axis=config.n_per_axis,
            coarse_m=config.coarse_m,
            threshold=config.carve_threshold,
            bounds_padding_partial=config.bounds_padding_partial,
        )

    def apply_to(self, config: RunConfig) -> RunConfig:
        return config.replace(
            n_per_axis=self.n_per_axis,
            coarse_m=self.coarse_m,
            carve_threshold=self.threshold,
            bounds_padding_partial=self.bounds_padding_partial,
        )


def save_checkpoint(path: str | Path, params: CarveModelParams, meta: CheckpointMeta) -> None:
    cfg = params.config
    head = struct.pack(
        "<4sI3I5I2I2dI",
        MAGIC,
        VERSION,
        *cfg.resolution,
        cfg.stages,
        cfg.base_width,
        cfg.kernel_size,
        cfg.feature_dim,
        meta.n_per_axis,
        meta.coarse_m,
        0,  # reserved
        meta.threshold,
        meta.bounds_padding_partial,
        len(cfg.refine_widths),
    )
    widths = struct.pack(f"<{len(cfg.refine_widths)}I", *cfg.refine_widths)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(widths)
        for arr in params.tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path, dtype: str = "float32") -> tuple[CarveModelParams, CheckpointMeta]:
    raw = Path(path).read_bytes()
    head_fmt = "<4sI3I5I2I2dI"
    head_size = struct.calcsize(head_fmt)
    if len(raw) < head_size:
        raise ValueError(f"{path}: truncated checkpoint header")
    (magic, version, rh, rw, rm, stages, base_width, kernel_size, feature_dim,
     n_per_axis, coarse_m, _reserved, threshold, padding, n_refine) = struct.unpack(
        head_fmt, raw[:head_size]
    )
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, not a checkpoint")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    pos = head_size
    if pos + 4 * n_refine > len(raw):
        raise ValueError(f"{path}: truncated refinement widths")
    widths = struct.unpack_from(f"<{n_refine}I", raw, pos)
    pos += 4 * n_refine
    cfg = CarveModelConfig(
        resolution=(rh, rw, rm),
        stages=stages,
        base_width=base_width,
        kernel_size=kernel_size,
        feature_dim=feature_dim,
        refine_widths=widths,
        dtype=dtype,
    )
    tensors: dict[str, np.ndarray] = {}
    for name, shape in cfg.tensor_shapes().items():
        nbytes = int(np.prod(shape)) * 4
        if pos + nbytes > len(raw):
            raise ValueError(f"{path}: truncated tensor data at {name}")
        arr = np.frombuffer(raw, dtype="<f4", count=int(np.prod(shape)), offset=pos)
        tensors[name] = arr.reshape(shape).astype(cfg.np_dtype)
        pos += nbytes
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after tensor data")
    params = CarveModelParams(config=cfg, tensors=tensors)
    meta = CheckpointMeta(
        n_per_axis=n_per_axis,
        coarse_m=coarse_m,
        threshold=threshold,
        bounds_padding_partial=padding,
    )
    return params, meta
