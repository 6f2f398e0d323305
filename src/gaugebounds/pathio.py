"""Path files, CSV and raw binary, both float-exact round trips, and CLI tables.

A path file's name decides its format: a name ending in `.bin` is binary,
any other name is CSV, for writing and reading alike.

CSV, for paths and every table the command line writes (write_table:
estimate's profile dump, study's wide and long tables): a header row naming
the columns, then comma-separated rows streamed one at a time, each ending
in CRLF, as csv.writer ends them, with reals in 17 significant digits, which
round-trip IEEE doubles exactly.  A path's columns are c0..c{D-1}, plus
`label` or `target` for product points, or `symbol` for discrete paths.

Binary: a 16-byte little-endian header (magic, n, D) followed by the payload
as float64 rows, written and read straight from and into arrays.

    bytes 0..3   magic  b"GB" + variant byte (c/s/l/p) + version b"1"
    bytes 4..11  n      uint64, number of points
    bytes 12..15 D      uint32, coordinate dimension (1 for symbol paths)

Rows carry the D coordinates, then the label or target column if the variant
has one.  Symbols are stored as float64, which is exact only below 2^53, so
the writer rejects larger symbols.
"""

from __future__ import annotations

import csv
import os
import struct
import warnings
from pathlib import Path as FsPath

import numpy as np

from .geometry import SamplePath

__all__ = ["write_path_csv", "read_path_csv", "write_path_bin", "read_path_bin",
           "write_path", "read_path", "write_table"]

_VARIANT_BYTE = {"coords": b"c", "symbol": b"s", "labeled": b"l", "paired": b"p"}
_BYTE_VARIANT = {v: k for k, v in _VARIANT_BYTE.items()}
_HEADER = struct.Struct("<4sQI")
_MAX_BIN_SYMBOL = 2 ** 53
_REAL = "%.17g"


def _write_csv(file, header: str, rows) -> None:
    """Every CSV file: the header row, then each row's text, all ending in CRLF."""
    with FsPath(file).open("w", newline="") as fh:
        fh.write(header + "\r\n")
        for row in rows:
            fh.write(row + "\r\n")


def _layout(path: SamplePath) -> tuple[str, np.ndarray, str]:
    """Header row, (n, k) table and row %-format of a path: the CSV file's
    rows, and as float64 the binary payload."""
    if path.kind == "symbol":
        return "symbol", path.symbols.reshape(-1, 1), "%d"
    header = [f"c{i}" for i in range(path.dim)]
    fmt = [_REAL] * path.dim
    if path.kind == "coords":
        return ",".join(header), path.coords, ",".join(fmt)
    # labels of -1/+1 are exact in the float64 table
    name, column, last = (("label", path.labels, "%d") if path.kind == "labeled"
                          else ("target", path.targets, _REAL))
    return (",".join(header + [name]), np.column_stack((path.coords, column)),
            ",".join(fmt + [last]))


def write_path_csv(path: SamplePath, file) -> None:
    header, table, line = _layout(path)
    _write_csv(file, header, (line % tuple(row) for row in table))


def _field(value) -> str:
    """A table field: a name as it is, None empty, an integer or a real."""
    if value is None or isinstance(value, str):
        return value or ""
    return ("%d" if isinstance(value, (int, np.integer)) else _REAL) % value


def write_table(file, header, rows) -> None:
    """Write a CLI table as CSV: the names in header, then one row per entry
    of rows, each field by _field."""
    _write_csv(file, ",".join(header), (",".join(map(_field, row)) for row in rows))


def _field_count_error(file: FsPath, width: int) -> ValueError | None:
    """The first data row whose field count is not `width`, as the reader's error."""
    with file.open("r", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate((row for row in reader if row), start=2):
            if len(row) != width:
                return ValueError(f"{file}:{lineno}: expected {width} fields, got {len(row)}")
    return None


def read_path_csv(file) -> SamplePath:
    file = FsPath(file)
    with file.open("r", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError(f"{file}: empty path file") from None
        if header == ["symbol"]:
            fields = [("symbol", np.int64)]
        else:
            extra = header[-1] if header and header[-1] in ("label", "target") else None
            coord_names = header[:-1] if extra else header
            if coord_names != [f"c{i}" for i in range(len(coord_names))] or not coord_names:
                raise ValueError(f"{file}: unrecognized path CSV header {header!r}")
            fields = [("coords", np.float64, (len(coord_names),))]
            if extra:
                fields.append((extra, np.int64 if extra == "label" else np.float64))
        dtype = np.dtype(fields)
        try:
            with warnings.catch_warnings():
                # a header-only file is rejected below, as an empty path
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1)
        except ValueError as err:
            bad = _field_count_error(file, len(header))
            if bad is None:
                raise
            raise bad from err
    if "symbol" in dtype.names:
        return SamplePath.from_symbols(data["symbol"])
    if "label" in dtype.names:
        return SamplePath.from_labeled(data["coords"], data["label"])
    if "target" in dtype.names:
        return SamplePath.from_paired(data["coords"], data["target"])
    return SamplePath.from_coords(data["coords"])


def write_path_bin(path: SamplePath, file) -> None:
    file = FsPath(file)
    if path.kind == "symbol":
        top = int(path.symbols.max())
        if top >= _MAX_BIN_SYMBOL:
            raise ValueError(f"symbol {top} does not fit the binary format's float64 "
                             f"column (symbols must be below 2^53); use CSV")
    dim = 1 if path.kind == "symbol" else path.dim
    magic = b"GB" + _VARIANT_BYTE[path.kind] + b"1"
    with file.open("wb") as fh:
        fh.write(_HEADER.pack(magic, len(path), dim))
        np.ascontiguousarray(_layout(path)[1], dtype="<f8").tofile(fh)


def read_path_bin(file) -> SamplePath:
    file = FsPath(file)
    with file.open("rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{file}: truncated path file")
        magic, n, dim = _HEADER.unpack(head)
        if magic[:2] != b"GB" or magic[3:] != b"1" or magic[2:3] not in _BYTE_VARIANT:
            raise ValueError(f"{file}: bad magic {magic!r}")
        kind = _BYTE_VARIANT[magic[2:3]]
        width = dim + (1 if kind in ("labeled", "paired") else 0)
        expected = _HEADER.size + 8 * n * width
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{file}: payload size mismatch ({size} vs {expected} bytes)")
        # the payload goes straight into its array, with no bytes copy of the file
        data = np.fromfile(fh, dtype="<f8", count=n * width).reshape(n, width)
    if kind == "symbol":
        return SamplePath.from_symbols(data[:, 0].astype(np.int64))
    if kind == "labeled":
        return SamplePath.from_labeled(data[:, :dim], data[:, dim].astype(np.int64))
    if kind == "paired":
        return SamplePath.from_paired(data[:, :dim], data[:, dim])
    return SamplePath.from_coords(data)


def _is_bin(file) -> bool:
    return FsPath(file).suffix == ".bin"


def write_path(path: SamplePath, file) -> None:
    """Write a path file; a `.bin` name gets the binary format, any other CSV."""
    (write_path_bin if _is_bin(file) else write_path_csv)(path, file)


def read_path(file) -> SamplePath:
    """Read a path file, in the format write_path gives its name."""
    return read_path_bin(file) if _is_bin(file) else read_path_csv(file)
