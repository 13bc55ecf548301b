"""Corrupt-input sweep: every file the CLI reads, mutated mechanically.

Each mutation runs one CLI command in-process. Whatever the bytes, no
exception escapes `main` and no warning is raised, and the run either
exits 0 (the mutated file is still a valid input) or exits 1 or 2 with
exactly one stderr line and no traceback.
"""

import struct
import warnings

import numpy as np
import pytest

from pointcarve import CarveModelParams, CheckpointMeta, PointCloud, RunConfig, save_checkpoint
from pointcarve.cli import main
from pointcarve.pcio import write_ply, write_xyz
from pointcarve.shapes import SyntheticShapeSpec, gen_shape

# The keys that keep a run small come first, so a truncation that still
# parses trains for one epoch on at most one sample.
SWEEP_CFG_TEXT = """epochs = 1
sensoraug = false
val_count = 0
batch_size = 2
grid_res = 8
unet_stages = 2
unet_base_width = 2
feature_dim = 4
refine_widths = 8,6
coarse_m = 32
n_per_axis = 3
dtype = float64
"""

TRUNCATIONS = 16
BAD_VALUES = ("nan", "inf", "3e38")
VALUE_SITES = 4  # evenly spaced lines or floats per bad value
CKPT_HEAD = 12  # magic, version, config text length


def _spaced(lo: int, hi: int, n: int) -> list[int]:
    """At most n distinct offsets spread evenly over [lo, hi)."""
    return sorted({int(v) for v in np.linspace(lo, hi - 1, n)})


def _truncations(data: bytes, start: int = 0) -> dict[str, bytes]:
    return {f"truncated at {n}": data[:n] for n in _spaced(start, len(data), TRUNCATIONS)}


def _flips(data: bytes, offsets) -> dict[str, bytes]:
    """Each byte at `offsets` with its low bit flipped, and with its high bit."""
    out = {}
    for i in offsets:
        for bit in (0x01, 0x80):
            flipped = bytearray(data)
            flipped[i] ^= bit
            out[f"byte {i} ^ {bit:#04x}"] = bytes(flipped)
    return out


def _bad_lines(text: str, first: int) -> dict[str, bytes]:
    """A coordinate of evenly spaced lines from `first` on set to each bad value."""
    lines = text.splitlines(keepends=True)
    out = {}
    for value in BAD_VALUES:
        for i in _spaced(first, len(lines), VALUE_SITES):
            mutated = list(lines)
            _, rest = mutated[i].split(" ", 1)
            mutated[i] = f"{value} {rest}"
            out[f"line {i + 1} = {value}"] = "".join(mutated).encode()
    return out


def _bad_floats(data: bytes, lo: int, hi: int) -> dict[str, bytes]:
    """Float32s at evenly spaced aligned offsets in [lo, hi) set to each bad value."""
    out = {}
    for value in BAD_VALUES:
        for k in _spaced(0, (hi - lo) // 4, VALUE_SITES):
            at = lo + 4 * k
            out[f"float at {at} = {value}"] = (
                data[:at] + struct.pack("<f", float(value)) + data[at + 4:]
            )
    return out


def _ply_header_end(data: bytes) -> int:
    return data.index(b"end_header\n") + len(b"end_header\n")


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A directory of valid inputs, one for each file the CLI reads."""
    work = tmp_path_factory.mktemp("sweep")
    cfg = RunConfig.from_text(SWEEP_CFG_TEXT)
    (work / "run.cfg").write_text(SWEEP_CFG_TEXT)
    save_checkpoint(work / "model.ckpt", CarveModelParams.initialize(cfg.carve_config(), 0),
                    CheckpointMeta.from_config(cfg))
    for i, family in enumerate(("box", "sphere")):
        gt, _ = gen_shape(SyntheticShapeSpec(family, count=64, seed=i))
        write_xyz(work / f"gt{i}.xyz", gt)
        write_xyz(work / f"part{i}.xyz", PointCloud(gt.points[:40]))
    cloud = PointCloud(np.random.default_rng(0).random((24, 3)))
    write_xyz(work / "in.xyz", cloud)
    write_ply(work / "in_ascii.ply", cloud, binary=False)
    write_ply(work / "in_binary.ply", cloud, binary=True)
    (work / "dataset.txt").write_text("box part0.xyz gt0.xyz\nsphere part1.xyz gt1.xyz\n")
    (work / "sequence.txt").write_text("car 0 gt0.xyz\ncar 1 part0.xyz\n")
    return work


# Each kind of input and the valid file in `good` its mutations start from.
SOURCES = {
    "xyz": "in.xyz",
    "ply-ascii": "in_ascii.ply",
    "ply-binary": "in_binary.ply",
    "dataset-manifest": "dataset.txt",
    "sequence-manifest": "sequence.txt",
    "cfg": "run.cfg",
    "checkpoint": "model.ckpt",
}


def _mutations(kind: str, data: bytes) -> dict[str, bytes]:
    if kind == "xyz":
        return {**_truncations(data), **_bad_lines(data.decode(), 0)}
    if kind.startswith("ply-"):
        end = _ply_header_end(data)
        payload = (_bad_lines(data.decode(), data[:end].count(b"\n")) if kind == "ply-ascii"
                   else _bad_floats(data, end, len(data)))
        return {**_truncations(data), **_flips(data, range(end)), **payload}
    if kind == "checkpoint":
        text_end = CKPT_HEAD + int.from_bytes(data[8:12], "little")
        return {
            **_truncations(data),
            **_flips(data, range(CKPT_HEAD)),
            **_flips(data, _spaced(CKPT_HEAD, text_end, TRUNCATIONS)),
            # The tensors start after the 12-byte config hash.
            **_bad_floats(data, text_end + 12, len(data)),
        }
    # An empty .cfg is valid: a desk-scale training run, which this sweep
    # does not need to time.
    return _truncations(data, start=1 if kind == "cfg" else 0)


def _argv(kind: str, work, target) -> list[str]:
    """The command that reads `target` as the input of `kind`; every other
    input is the valid file in `work`."""
    out = str(work / "out")
    ckpt, infile = str(work / "model.ckpt"), str(work / "in.xyz")
    if kind == "dataset-manifest":
        return ["eval", "--ckpt", ckpt, "--manifest", str(target), "--report", out + ".txt"]
    if kind == "sequence-manifest":
        return ["consistency", "--manifest", str(target)]
    if kind == "cfg":
        return ["train", "--config", str(target), "--out", out + ".ckpt",
                "--manifest", str(work / "dataset.txt")]
    if kind == "checkpoint":
        ckpt = str(target)
    else:
        infile = str(target)
    return ["complete", "--ckpt", ckpt, "--in", infile, "--out", out + ".xyz"]


@pytest.mark.parametrize("kind", list(SOURCES))
def test_every_mutation_exits_cleanly(good, tmp_path, capsys, kind):
    source = good / SOURCES[kind]
    assert main(_argv(kind, good, source)) == 0
    target = tmp_path / f"bad{source.suffix}"
    cases = _mutations(kind, source.read_bytes())
    problems = []
    for label, data in cases.items():
        target.write_bytes(data)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(_argv(kind, good, target))
            except Exception as exc:  # an escape is what the sweep looks for
                problems.append(f"{label}: {type(exc).__name__} escaped main: {exc}")
                continue
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        if caught:
            problems.append(f"{label}: warning {caught[0].message!s}")
        if "Traceback" in err:
            problems.append(f"{label}: traceback on stderr")
        if code not in (0, 1, 2):
            problems.append(f"{label}: exit code {code}")
        elif code != 0 and len(lines) != 1:
            problems.append(f"{label}: exit {code} with {len(lines)} stderr lines: {lines}")
    assert not problems, f"{len(problems)} of {len(cases)} mutations:\n" + "\n".join(problems)
