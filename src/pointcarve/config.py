"""Run configuration: every settable pipeline hyperparameter in one flat record.

The on-disk format is plain ``key = value`` lines ('#' starts a comment);
unknown keys are rejected and every field is validated with an explicit
message. Fields hold their declared types and string values hold no '#',
line break or outer whitespace, so `from_text(to_text(c)) == c` (and the
`config_hash` is kept) for every config that validates.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .carving import KERNEL_SLAB_VOXELS, CarveModelConfig
from .cloud import DEFAULT_EPS_BOX_FRAC
from .pcio import read_text
from .sensoraug import DEFAULT_DEPTH_BUFFER_RES, DEFAULT_FOV_DEG

# Largest grid side. At 256^3 each float32 channel of a full-resolution
# activation takes 64 MB (a desk-width stem output 0.5 GB), so a config text,
# such as one stored in a checkpoint, cannot ask for a far larger grid.
MAX_GRID_RES = 256

# Most elements any one array of a run may hold (1 GiB of float32). Every
# size field feeds some array (`_largest_array`), so a config text, such as
# one stored in a checkpoint, cannot ask for an allocation that fails only
# once a run makes it. The largest array of a desk-width model at
# MAX_GRID_RES, its level-0 activation, holds 2^27.
MAX_ARRAY_ELEMS = 1 << 28

_CONSTRUCTION_MODES = ("uniform", "none")
_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class RunConfig:
    """Defaults are the `desk` preset (32^3 grid, toy-scale clouds)."""

    # Grid / network architecture
    grid_res: int = 32
    unet_stages: int = 3
    unet_base_width: int = 8
    kernel_size: int = 3
    feature_dim: int = 32
    refine_widths: tuple[int, ...] = (256, 128, 64, 12)
    coarse_m: int = 256
    carve_threshold: float = 0.0
    dtype: str = "float32"
    # Point-block construction
    block_construction: str = "uniform"
    n_per_axis: int = 13
    bounds_padding_gt: float = 0.0
    bounds_padding_partial: float = 0.15
    eps_box_frac: float = DEFAULT_EPS_BOX_FRAC
    # Objective / optimizer
    alpha: float = 0.5
    t_variants: int = 2
    sensoraug: bool = True
    lr: float = 1e-4
    batch_size: int = 4
    epochs: int = 12
    max_steps: int = 0
    seed: int = 0
    # Virtual sensor
    sensor_vfov_deg: float = DEFAULT_FOV_DEG
    sensor_hfov_deg: float = DEFAULT_FOV_DEG
    depth_buffer_res: int = DEFAULT_DEPTH_BUFFER_RES
    # Data
    data_manifest: str = ""
    val_count: int = 20

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f.name, f.type, getattr(self, f.name)))
        self._validate()

    def _validate(self):
        def check(cond: bool, msg: str):
            if not cond:
                raise ValueError(f"invalid config: {msg}")

        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                check(math.isfinite(value), f"{f.name} must be finite, got {value!r}")
            if f.type == "str":
                # Anything `from_text` would cut or strip cannot round-trip.
                check(
                    "#" not in value and len(f"<{value}>".splitlines()) == 1 and value == value.strip(),
                    f"{f.name} must not contain '#' or a line break, "
                    f"or start or end with whitespace, got {value!r}",
                )
        check(self.grid_res >= 4, f"grid_res must be >= 4, got {self.grid_res}")
        check(self.grid_res <= MAX_GRID_RES, f"grid_res must be <= {MAX_GRID_RES}, got {self.grid_res}")
        check(self.unet_stages >= 1, "unet_stages must be >= 1")
        # Past this depth not even a MAX_GRID_RES grid keeps 2 cells per axis
        # at the bottleneck; checked first, so 2^unet_stages below stays small.
        max_stages = MAX_GRID_RES.bit_length() - 2
        check(self.unet_stages <= max_stages, f"unet_stages must be <= {max_stages}, got {self.unet_stages}")
        # CarveModelConfig's two rules: whole cells at every stage, and at
        # least 2 of them per axis at the bottleneck.
        d = 2**self.unet_stages
        check(
            self.grid_res % d == 0 and self.grid_res >= 2 * d,
            f"grid_res={self.grid_res} must be divisible by 2^unet_stages={d} "
            f"and at least 2^(unet_stages+1)={2 * d}",
        )
        check(self.unet_base_width >= 1, "unet_base_width must be >= 1")
        check(self.kernel_size >= 1 and self.kernel_size % 2 == 1, "kernel_size must be odd and >= 1")
        check(self.feature_dim >= 1, "feature_dim must be >= 1")
        check(
            bool(self.refine_widths) and self.refine_widths[-1] % 3 == 0,
            "refine_widths must end in a multiple of 3",
        )
        check(all(w >= 3 for w in self.refine_widths), "refine_widths must all be >= 3")
        check(self.coarse_m >= 1, "coarse_m must be >= 1")
        check(self.dtype in _DTYPES, f"dtype must be one of {_DTYPES}, got {self.dtype!r}")
        check(
            self.block_construction in _CONSTRUCTION_MODES,
            f"block_construction must be one of {_CONSTRUCTION_MODES}, got {self.block_construction!r}",
        )
        check(self.n_per_axis >= 2, "n_per_axis must be >= 2")
        check(self.bounds_padding_gt >= 0, "bounds_padding_gt must be >= 0")
        check(self.bounds_padding_partial >= 0, "bounds_padding_partial must be >= 0")
        check(self.eps_box_frac > 0, "eps_box_frac must be > 0")
        check(self.alpha >= 0, "alpha must be >= 0")
        check(self.t_variants >= 0, "t_variants must be >= 0")
        check(self.lr > 0, "lr must be > 0")
        check(self.batch_size >= 1, "batch_size must be >= 1")
        check(self.epochs >= 1, "epochs must be >= 1")
        check(self.max_steps >= 0, "max_steps must be >= 0 (0 = unlimited)")
        check(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        check(0 < self.sensor_vfov_deg < 180, "sensor_vfov_deg must be in (0, 180)")
        check(0 < self.sensor_hfov_deg < 180, "sensor_hfov_deg must be in (0, 180)")
        check(self.depth_buffer_res >= 16, "depth_buffer_res must be >= 16")
        check(self.val_count >= 0, "val_count must be >= 0")
        elems, field, what = _largest_array(self)
        check(
            elems <= MAX_ARRAY_ELEMS,
            f"{field}={getattr(self, field)!r} makes the {what} at least "
            f"2^{elems.bit_length() - 1} elements, over the limit of {MAX_ARRAY_ELEMS}",
        )

    # -- presets ----------------------------------------------------------

    @staticmethod
    def preset(name: str) -> "RunConfig":
        if name == "desk":
            return RunConfig()
        if name == "paper":
            # Scale-up documented from the published configuration; no claim
            # of parameter parity with the original 76.8 M-parameter model.
            return RunConfig(
                grid_res=64,
                unet_base_width=16,
                refine_widths=(1792, 2448, 112, 24),
                coarse_m=2048,
                batch_size=24,
                epochs=200,
            )
        raise ValueError(f"unknown preset {name!r} (expected 'desk' or 'paper')")

    # -- derived views ----------------------------------------------------

    def carve_config(self) -> CarveModelConfig:
        return CarveModelConfig(
            resolution=(self.grid_res,) * 3,
            stages=self.unet_stages,
            base_width=self.unet_base_width,
            kernel_size=self.kernel_size,
            feature_dim=self.feature_dim,
            refine_widths=self.refine_widths,
            dtype=self.dtype,
        )

    @property
    def expansion(self) -> int:
        return self.refine_widths[-1] // 3

    def replace(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{f.name} = {rendered}")
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @staticmethod
    def load(path: str | Path) -> "RunConfig":
        return RunConfig.from_text(read_text(path), source=str(path))

    @staticmethod
    def from_text(text: str, source: str = "<config>") -> "RunConfig":
        known = {f.name: f for f in fields(RunConfig)}
        values: dict = {}
        first_line: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, rendered = line.partition("=")
            key = key.strip()
            rendered = rendered.strip()
            if key not in known:
                raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
            if key in first_line:
                raise ValueError(f"{source}:{lineno}: duplicate config key {key!r} "
                                 f"(first on line {first_line[key]})")
            first_line[key] = lineno
            try:
                values[key] = _parse_value(known[key].type, rendered)
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
        try:
            return RunConfig(**values)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


def _largest_array(cfg: RunConfig) -> tuple[int, str, str]:
    """(elements, field, name) of the largest array `cfg` implies, named by
    the size field that gives it its largest factor."""
    base, F, m = cfg.unet_base_width, cfg.feature_dim, cfg.coarse_m
    grid = cfg.grid_res**3
    # The widest decoder weight, decoder `unet_stages`'s, is (3, 3, 3, 3 * c, c).
    c = base * 2 ** (cfg.unet_stages - 1)
    # cell_conv's taps cover one slab of whole x-planes at a time.
    slab = min(grid, max(cfg.grid_res**2, KERNEL_SLAB_VOXELS))
    arrays = [
        ("block lattice", [(cfg.n_per_axis**3, "n_per_axis"), (3, None)]),
        ("level-0 activation", [(grid, "grid_res"), (base, "unet_base_width")]),
        ("widest decoder weight", [(27 * 3 * c, "unet_base_width"), (c, None)]),
        ("kernel head slab", [(cfg.kernel_size**3, "kernel_size"), (slab, "grid_res")]),
        ("feature head weight", [(base, "unet_base_width"), (F, "feature_dim")]),
        ("refine input", [(m, "coarse_m"), (F + 3, "feature_dim")]),
        ("depth buffer", [(cfg.depth_buffer_res**2, "depth_buffer_res")]),
    ]
    in_dim, in_field = F + 3, "feature_dim"
    for width in cfg.refine_widths:
        arrays.append(("refine weight", [(in_dim, in_field), (width, "refine_widths")]))
        arrays.append(("refine activation", [(m, "coarse_m"), (width, "refine_widths")]))
        in_dim, in_field = width, "refine_widths"
    what, factors = max(arrays, key=lambda a: math.prod(n for n, _ in a[1]))
    field = max((f for f in factors if f[1]), key=lambda f: f[0])[1]
    return math.prod(n for n, _ in factors), field, what


_KINDS = {"float": numbers.Real, "int": numbers.Integral, "bool": bool, "str": str}


def _is_kind(kind: str, value) -> bool:
    """Whether value may fill a `kind` field; bools are not numbers here."""
    return isinstance(value, _KINDS[kind]) and (kind == "bool" or not isinstance(value, bool))


def _typed(name: str, annotation: str, value):
    """value as its field's declared type, so `to_text` renders it as parsed.

    Integers are accepted for float fields.
    """
    if "tuple" in annotation:
        if not (isinstance(value, tuple) and all(_is_kind("int", v) for v in value)):
            raise ValueError(f"invalid config: {name} must be a tuple of int, got {value!r}")
        return tuple(int(v) for v in value)
    if not _is_kind(annotation, value):
        raise ValueError(f"invalid config: {name} must be {annotation}, got {value!r}")
    return {"float": float, "int": int, "bool": bool, "str": str}[annotation](value)


def _parse_value(annotation: str, rendered: str):
    kind = str(annotation)
    if "tuple" in kind:
        parts = [p for p in rendered.split(",") if p.strip()]
        if not parts:
            raise ValueError("expected a comma-separated integer list")
        return tuple(int(p) for p in parts)
    if kind == "bool":
        if rendered.lower() in ("true", "1", "yes"):
            return True
        if rendered.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {rendered!r}")
    if kind == "int":
        return int(rendered)
    if kind == "float":
        return float(rendered)
    return rendered
