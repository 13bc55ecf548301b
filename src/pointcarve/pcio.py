"""Point-cloud file IO: plain-text XYZ, vertex-only PLY, and manifests."""

from __future__ import annotations

import io
import os
import warnings
from pathlib import Path

import numpy as np

from .cloud import PointCloud


def read_text(path: str | Path) -> str:
    """The file's UTF-8 text; any other bytes raise one error naming the file."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None


def read_xyz(path: str | Path) -> PointCloud:
    """One point per line, three reals separated by whitespace.

    '#' comment lines and blank lines are ignored; a malformed line or a
    non-finite coordinate raises with its line number.
    """
    pts, linenos = [], []
    # Lines as a text-mode file splits them: at \n, \r\n and \r only.
    with io.StringIO(read_text(path), newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                pts.append([float(p) for p in parts])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed number in {line!r}") from None
            linenos.append(lineno)
    pts = np.array(pts, dtype=np.float64).reshape(-1, 3)
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}:{linenos[bad[0]]}: non-finite coordinate")
    return PointCloud(pts)


def write_xyz(path: str | Path, cloud: PointCloud) -> None:
    """One line per point, each coordinate in `.9g`."""
    with open(path, "w") as fh:
        fh.write(_xyz_text(cloud.points))


def _xyz_text(points: np.ndarray) -> str:
    """The XYZ lines of (N, 3) points: one `%` over the flattened coordinates
    as Python floats, the same text as a `{:.9g}` f-string per line."""
    return "%.9g %.9g %.9g\n" * len(points) % tuple(points.ravel().tolist())


_PLY_FLOAT_NAMES = ("float", "float32")
_PLY_SIZES = {"float": 4, "float32": 4, "double": 8, "float64": 8,
              "uchar": 1, "uint8": 1, "char": 1, "int8": 1,
              "short": 2, "ushort": 2, "int16": 2, "uint16": 2,
              "int": 4, "uint": 4, "int32": 4, "uint32": 4}


def read_ply(path: str | Path) -> PointCloud:
    """Vertex-only PLY, ascii or binary_little_endian, x/y/z float32.

    Unknown vertex properties are skipped with a warning; missing x/y/z, a
    truncated binary payload or a non-finite coordinate raise.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"ply":
            raise ValueError(f"{path}: not a PLY file")
        fmt = None
        n_vertices = None
        properties: list[tuple[str, str]] = []
        in_vertex_element = False
        while True:
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: unterminated PLY header")
            tokens = line.decode("ascii", "replace").strip().split()
            if not tokens:
                continue
            if tokens[0] == "comment":
                continue
            if tokens[0] in ("format", "element", "property") and len(tokens) < 3:
                raise ValueError(f"{path}: malformed PLY header line {' '.join(tokens)!r}")
            if tokens[0] == "format":
                fmt = tokens[1]
            elif tokens[0] == "element":
                if not tokens[2].isdigit():
                    raise ValueError(f"{path}: bad PLY element count {tokens[2]!r}")
                in_vertex_element = tokens[1] == "vertex"
                if in_vertex_element:
                    n_vertices = int(tokens[2])
                elif int(tokens[2]) > 0:
                    raise ValueError(f"{path}: unsupported non-vertex element {tokens[1]!r}")
            elif tokens[0] == "property" and in_vertex_element:
                if tokens[1] == "list":
                    raise ValueError(f"{path}: list properties are not supported")
                if tokens[1] not in _PLY_SIZES:
                    raise ValueError(f"{path}: unknown PLY property type {tokens[1]!r}")
                properties.append((tokens[1], tokens[2]))
            elif tokens[0] == "end_header":
                break
        if fmt not in ("ascii", "binary_little_endian"):
            raise ValueError(f"{path}: unsupported PLY format {fmt!r}")
        if n_vertices is None:
            raise ValueError(f"{path}: missing vertex element")
        names = [name for _, name in properties]
        for coord in ("x", "y", "z"):
            if coord not in names:
                raise ValueError(f"{path}: missing {coord} property")
        extras = [n for n in names if n not in ("x", "y", "z")]
        if extras:
            warnings.warn(f"{path}: skipping PLY properties {extras}")
        if fmt == "ascii":
            rows = []
            for i in range(n_vertices):
                tokens = fh.readline().split()
                if len(tokens) != len(properties):
                    raise ValueError(f"{path}: vertex {i}: expected {len(properties)} fields")
                row = []
                for t in tokens:
                    try:
                        row.append(float(t))
                    except ValueError:
                        bad = t.decode("ascii", "replace")
                        raise ValueError(f"{path}: vertex {i}: malformed number {bad!r}") from None
                rows.append(row)
            data = np.array(rows, dtype=np.float64).reshape(n_vertices, len(properties))
            cols = {name: data[:, k] for k, (_, name) in enumerate(properties)}
        else:
            stride = sum(_PLY_SIZES[ptype] for ptype, _ in properties)
            # Checked before reading, so a huge claimed count allocates nothing.
            if stride * n_vertices > os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError(f"{path}: truncated binary payload")
            payload = fh.read(stride * n_vertices)
            offsets = {}
            offset = 0
            for ptype, name in properties:
                if name in ("x", "y", "z"):
                    if ptype not in _PLY_FLOAT_NAMES:
                        raise ValueError(f"{path}: {name} must be float32, got {ptype}")
                    offsets[name] = offset
                offset += _PLY_SIZES[ptype]
            # One stride-sized record per vertex, x/y/z read at their offsets
            # (an empty payload gives empty columns).
            record = np.dtype({"names": list(offsets), "formats": ["<f4"] * len(offsets),
                               "offsets": list(offsets.values()), "itemsize": stride})
            vertices = np.frombuffer(payload, record)
            cols = {name: vertices[name].astype(np.float64) for name in offsets}
        pts = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if len(bad):
            raise ValueError(f"{path}: vertex {bad[0]}: non-finite coordinate")
        return PointCloud(pts)


def write_ply(path: str | Path, cloud: PointCloud, binary: bool = True) -> None:
    """Vertex-only PLY with x/y/z float32 properties."""
    n = len(cloud)
    header = [
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    pts32 = cloud.points.astype("<f4")
    if binary:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            fh.write(pts32.tobytes())
    else:
        with open(path, "w") as fh:
            fh.write("\n".join(header) + "\n")
            for x, y, z in pts32:
                fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


def load_cloud(path: str | Path) -> PointCloud:
    """Dispatch on suffix: .ply via read_ply, everything else as XYZ text."""
    return read_ply(path) if Path(path).suffix.lower() == ".ply" else read_xyz(path)


def read_dataset_manifest(path: str | Path) -> list[tuple[str, Path, Path]]:
    """Lines `category partial_path gt_path`; paths relative to the manifest."""
    base = Path(path).parent
    entries = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'category partial gt', got {raw!r}")
        entries.append((parts[0], base / parts[1], base / parts[2]))
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries


def read_sequence_manifest(path: str | Path) -> dict[str, list[tuple[int, Path]]]:
    """Lines `object_id frame_index path`, grouped by object, sorted by frame;
    no object lists a frame twice."""
    base = Path(path).parent
    groups: dict[str, list[tuple[int, Path]]] = {}
    first_line: dict[tuple[str, int], int] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"{path}:{lineno}: expected 'object_id frame_index path', got {raw!r}"
            )
        try:
            frame = int(parts[1])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: frame index must be an integer, got {parts[1]!r}"
            ) from None
        key = (parts[0], frame)
        if key in first_line:
            raise ValueError(
                f"{path}:{lineno}: duplicate frame {frame} of {parts[0]!r} "
                f"(first on line {first_line[key]})"
            )
        first_line[key] = lineno
        groups.setdefault(parts[0], []).append((frame, base / parts[2]))
    for frames in groups.values():
        frames.sort(key=lambda t: t[0])
    if not groups:
        raise ValueError(f"{path}: empty manifest")
    return groups
