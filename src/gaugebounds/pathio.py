"""Path files: CSV and raw binary, both float-exact round trips.

CSV: comma-separated, one point per row.  The header names the columns:
coordinates c0..c{D-1}, plus `label` or `target` for product points, or a
single `symbol` column for discrete paths.  Reals are written with 17
significant digits, which round-trips IEEE doubles exactly.

Binary: a 16-byte little-endian header (magic, n, D) followed by the payload
as float64 rows.

    bytes 0..3   magic  b"GB" + variant byte (c/s/l/p) + version b"1"
    bytes 4..11  n      uint64, number of points
    bytes 12..15 D      uint32, coordinate dimension (1 for symbol paths)

Rows carry the D coordinates, then the label or target column if the variant
has one.  Symbols are stored as float64, which is exact only below 2^53, so
the writer rejects larger symbols.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path as FsPath

import numpy as np

from .geometry import SamplePath

__all__ = ["write_path_csv", "read_path_csv", "write_path_bin", "read_path_bin",
           "write_path", "read_path"]

_VARIANT_BYTE = {"coords": b"c", "symbol": b"s", "labeled": b"l", "paired": b"p"}
_BYTE_VARIANT = {v: k for k, v in _VARIANT_BYTE.items()}
_HEADER = struct.Struct("<4sQI")
_MAX_BIN_SYMBOL = 2 ** 53


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_path_csv(path: SamplePath, file) -> None:
    file = FsPath(file)
    with file.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if path.kind == "symbol":
            writer.writerow(["symbol"])
            for s in path.symbols:
                writer.writerow([int(s)])
            return
        dim = path.dim
        header = [f"c{i}" for i in range(dim)]
        if path.kind == "labeled":
            header.append("label")
        elif path.kind == "paired":
            header.append("target")
        writer.writerow(header)
        for i in range(len(path)):
            row = [_fmt(v) for v in path.coords[i]]
            if path.kind == "labeled":
                row.append(str(int(path.labels[i])))
            elif path.kind == "paired":
                row.append(_fmt(path.targets[i]))
            writer.writerow(row)


def read_path_csv(file) -> SamplePath:
    file = FsPath(file)
    with file.open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{file}: empty path file") from None
        rows = [row for row in reader if row]
    if header == ["symbol"]:
        return SamplePath.from_symbols([int(r[0]) for r in rows])
    extra = None
    if header and header[-1] in ("label", "target"):
        extra = header[-1]
        coord_names = header[:-1]
    else:
        coord_names = header
    if coord_names != [f"c{i}" for i in range(len(coord_names))] or not coord_names:
        raise ValueError(f"{file}: unrecognized path CSV header {header!r}")
    dim = len(coord_names)
    width = dim + (1 if extra else 0)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValueError(f"{file}:{lineno}: expected {width} fields, got {len(row)}")
    coords = np.array([[float(v) for v in row[:dim]] for row in rows], dtype=np.float64)
    if extra == "label":
        return SamplePath.from_labeled(coords, [int(row[dim]) for row in rows])
    if extra == "target":
        return SamplePath.from_paired(coords, [float(row[dim]) for row in rows])
    return SamplePath.from_coords(coords)


def write_path_bin(path: SamplePath, file) -> None:
    file = FsPath(file)
    n = len(path)
    if path.kind == "symbol":
        top = int(path.symbols.max())
        if top >= _MAX_BIN_SYMBOL:
            raise ValueError(f"symbol {top} does not fit the binary format's float64 "
                             f"column (symbols must be below 2^53); use CSV")
        dim = 1
        payload = path.symbols.astype(np.float64).reshape(n, 1)
    else:
        dim = path.dim
        payload = path.coords
        if path.kind == "labeled":
            payload = np.hstack((payload, path.labels.astype(np.float64).reshape(n, 1)))
        elif path.kind == "paired":
            payload = np.hstack((payload, path.targets.reshape(n, 1)))
    magic = b"GB" + _VARIANT_BYTE[path.kind] + b"1"
    with file.open("wb") as fh:
        fh.write(_HEADER.pack(magic, n, dim))
        fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def read_path_bin(file) -> SamplePath:
    file = FsPath(file)
    blob = file.read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{file}: truncated path file")
    magic, n, dim = _HEADER.unpack_from(blob)
    if magic[:2] != b"GB" or magic[3:] != b"1" or magic[2:3] not in _BYTE_VARIANT:
        raise ValueError(f"{file}: bad magic {magic!r}")
    kind = _BYTE_VARIANT[magic[2:3]]
    width = dim + (1 if kind in ("labeled", "paired") else 0)
    expected = _HEADER.size + 8 * n * width
    if len(blob) != expected:
        raise ValueError(f"{file}: payload size mismatch ({len(blob)} vs {expected} bytes)")
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(n, width)
    if kind == "symbol":
        return SamplePath.from_symbols(data[:, 0].astype(np.int64))
    if kind == "labeled":
        return SamplePath.from_labeled(data[:, :dim], data[:, dim].astype(np.int64))
    if kind == "paired":
        return SamplePath.from_paired(data[:, :dim], data[:, dim])
    return SamplePath.from_coords(data)


def write_path(path: SamplePath, file, fmt: str) -> None:
    if fmt == "csv":
        write_path_csv(path, file)
    elif fmt == "bin":
        write_path_bin(path, file)
    else:
        raise ValueError(f"unknown path format {fmt!r}")


def read_path(file, fmt: str | None = None) -> SamplePath:
    file = FsPath(file)
    if fmt is None:
        fmt = "bin" if file.suffix == ".bin" else "csv"
    if fmt == "csv":
        return read_path_csv(file)
    if fmt == "bin":
        return read_path_bin(file)
    raise ValueError(f"unknown path format {fmt!r}")
