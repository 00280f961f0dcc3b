"""Fixture serialization: the canonical text format and Matrix Market.

The canonical format is line oriented and diffable:

    spmv-fixture-v1
    rows <M>
    cols <N>
    nnz <count>
    meta <key> <value>          (zero or more)
    rowptr <M+1> <ints...>
    colidx <nnz> <ints...>
    values <nnz> <floats...>
    x <N> <floats...>
    z <M> <floats...>

Every array line carries its own length so truncation is caught by the
parser, not by downstream index errors. Floats are written with repr so a
read of a write restores them bit for bit.

Matrix Market export writes the matrix as a 1-based coordinate real general
file in cell-key order, the order the sorted-entry oracle sums in, plus an
array file for x next to it. Import accepts entries in any order; z is not
in the format and is recomputed from the sorted-entry oracle on import.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import (CsrMatrix, _cell_order, _row_ids,
                   spmv_sorted_oracle, validate_csr)
from .fixtures import Fixture

__all__ = ["FORMAT_HEADER", "FixtureFormatError", "FixtureValidationError",
           "validate_fixture", "write_fixture", "read_fixture",
           "export_matrix_market", "import_matrix_market", "companion_x_path"]

FORMAT_HEADER = "spmv-fixture-v1"

_ARRAY_FIELDS = ("rowptr", "colidx", "values", "x", "z")
_SCALAR_FIELDS = ("rows", "cols", "nnz")


class FixtureFormatError(ValueError):
    """The document does not parse as a fixture file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FixtureValidationError(ValueError):
    """The document parsed but its contents are inconsistent."""


def validate_fixture(fixture: Fixture) -> None:
    """Raise FixtureValidationError unless row_ptr, x and z have the lengths
    the extents M and N give, the matrix passes validate_csr and values, x
    and z are all finite; the readers and the verifier call it."""
    for name, arr, want in (("row_ptr", fixture.row_ptr, fixture.M + 1),
                            ("x", fixture.x, fixture.N),
                            ("z", fixture.z, fixture.M)):
        if len(arr) != want:
            raise FixtureValidationError(
                f"{name} has {len(arr)} entries, expected {want}")
    # the fixture's own arrays, which fixture.matrix() would copy
    report = validate_csr(CsrMatrix.sequential(
        fixture.row_ptr, fixture.col_idx, fixture.values, n=fixture.N))
    if not report.ok:
        raise FixtureValidationError("invalid CSR: " + report.violations[0])
    for name in ("values", "x", "z"):
        _require_finite(name, getattr(fixture, name))


def _require_finite(name: str, arr: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(arr))
    if len(bad):
        raise FixtureValidationError(
            f"non-finite {name}[{bad[0]}] = {float(arr[bad[0]])!r}")


def _read_text(source) -> str:
    try:
        return Path(source).read_text()
    except UnicodeDecodeError as exc:
        raise FixtureFormatError(
            f"{source}: not text ({exc.reason} at byte {exc.start})") from None


def _int64(token: str) -> int:
    value = int(token)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{token!r} does not fit in int64")
    return value


def write_fixture(fixture: Fixture, dest) -> None:
    """Write a fixture in the canonical text format.

    The caller is responsible for handing in a consistent fixture; the
    writer serializes what it is given, which also allows writing
    deliberately corrupted challenge files from tests.
    """
    lines = [FORMAT_HEADER]
    lines.append(f"rows {fixture.M}")
    lines.append(f"cols {fixture.N}")
    lines.append(f"nnz {fixture.nnz}")
    for key, value in fixture.metadata.items():
        lines.append(f"meta {key} {value}")
    # repr of a Python int is its str, so one rule serves every array
    for name, arr in zip(_ARRAY_FIELDS, (fixture.row_ptr, fixture.col_idx,
                                         fixture.values, fixture.x, fixture.z)):
        body = " ".join(map(repr, arr.tolist()))
        lines.append(f"{name} {len(arr)} {body}".rstrip())
    Path(dest).write_text("\n".join(lines) + "\n")


def _parse_array(tokens: list[str], lineno: int, name: str, caster):
    if not tokens:
        raise FixtureFormatError(f"{name}: missing length", lineno)
    try:
        declared = int(tokens[0])
    except ValueError:
        raise FixtureFormatError(
            f"{name}: length {tokens[0]!r} is not an integer", lineno) from None
    body = tokens[1:]
    if len(body) != declared:
        raise FixtureFormatError(
            f"{name}: expected {declared} values, got {len(body)}", lineno)
    try:
        return [caster(t) for t in body]
    except ValueError as exc:
        raise FixtureFormatError(f"{name}: {exc}", lineno) from None


def read_fixture(source, *, check_ground_truth: bool = True) -> Fixture:
    """Parse and validate a canonical fixture file.

    validate_fixture always runs. With check_ground_truth the stored z is
    compared against a fresh sorted-entry oracle product and any difference is
    rejected; pass False when the point of loading the file
    is to let the multiplication itself judge the stored product.
    """
    lines = _read_text(source).splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise FixtureFormatError(
            f"missing '{FORMAT_HEADER}' header", line=1)
    scalars: dict[str, int] = {}
    arrays: dict[str, list] = {}
    metadata: dict[str, str] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        tokens = raw.split()
        key = tokens[0]
        if key == "meta":
            if len(tokens) < 2:
                raise FixtureFormatError("meta: missing key", lineno)
            metadata[tokens[1]] = raw.split(None, 2)[2] if len(tokens) > 2 else ""
        elif key in _SCALAR_FIELDS:
            if key in scalars:
                raise FixtureFormatError(f"duplicate field '{key}'", lineno)
            if len(tokens) != 2:
                raise FixtureFormatError(
                    f"{key}: expected one integer", lineno)
            try:
                scalars[key] = int(tokens[1])
            except ValueError:
                raise FixtureFormatError(
                    f"{key}: {tokens[1]!r} is not an integer", lineno) from None
        elif key in _ARRAY_FIELDS:
            if key in arrays:
                raise FixtureFormatError(f"duplicate field '{key}'", lineno)
            caster = _int64 if key in ("rowptr", "colidx") else float
            arrays[key] = _parse_array(tokens[1:], lineno, key, caster)
        else:
            raise FixtureFormatError(f"unknown field {key!r}", lineno)
    for name in _SCALAR_FIELDS:
        if name not in scalars:
            raise FixtureFormatError(f"missing field '{name}'")
    for name in _ARRAY_FIELDS:
        if name not in arrays:
            raise FixtureFormatError(f"missing field '{name}'")
    M, N, nnz = scalars["rows"], scalars["cols"], scalars["nnz"]
    # only the header states nnz; validate_fixture checks the other lengths
    for name in ("colidx", "values"):
        if len(arrays[name]) != nnz:
            raise FixtureFormatError(
                f"{name} has {len(arrays[name])} entries, expected {nnz}")
    fixture = Fixture(M=M, N=N, row_ptr=arrays["rowptr"],
                      col_idx=arrays["colidx"], values=arrays["values"],
                      x=arrays["x"], z=arrays["z"], metadata=metadata)
    validate_fixture(fixture)
    if check_ground_truth:
        recomputed = spmv_sorted_oracle(fixture.matrix(),
                                        fixture.x_vector()).values
        if not np.array_equal(recomputed, fixture.z):
            bad = int(np.nonzero(recomputed != fixture.z)[0][0])
            raise FixtureValidationError(
                f"ground truth mismatch: stored z[{bad}] = "
                f"{float(fixture.z[bad])!r} but recomputed product is "
                f"{float(recomputed[bad])!r}")
    return fixture


# -- Matrix Market ----------------------------------------------------------

_MM_BANNER = "%%MatrixMarket"
# core._cell_order's cell keys row * N + col are int64, and numpy refuses
# arrays of 2**63 bytes or more; below this bound neither the keys nor the
# M + 1 eight-byte row pointers reach those limits
_MAX_CELLS = 2**59


def companion_x_path(matrix_path) -> Path:
    """Path of the input-vector file written next to a matrix export."""
    return Path(matrix_path).with_suffix(".x.mtx")


def export_matrix_market(fixture: Fixture, dest) -> Path:
    """Write the matrix as coordinate real general plus an x array file.

    Entries are 1-based and in cell-key order, by row and then column, for a
    fixture that has passed validate_fixture, as the readers' output has; on
    any other the line order is unspecified. Returns companion_x_path(dest),
    where the x file went. z is not written; importers recompute it.
    """
    dest = Path(dest)
    x_path = companion_x_path(dest)
    rows = _row_ids(fixture.row_ptr)
    order = _cell_order(rows, fixture.col_idx, fixture.N)
    lines = [f"{_MM_BANNER} matrix coordinate real general",
             f"{fixture.M} {fixture.N} {fixture.nnz}"]
    lines.extend(f"{r} {c} {v!r}" for r, c, v in zip(
        (rows[order] + 1).tolist(), (fixture.col_idx[order] + 1).tolist(),
        fixture.values[order].tolist()))
    dest.write_text("\n".join(lines) + "\n")
    x_lines = [f"{_MM_BANNER} matrix array real general", f"{fixture.N} 1",
               *map(repr, fixture.x.tolist())]
    x_path.write_text("\n".join(x_lines) + "\n")
    return x_path


def _mm_header(first_line: str, path, want_format: str) -> None:
    tokens = first_line.strip().split()
    if not tokens or tokens[0] != _MM_BANNER:
        raise FixtureFormatError(f"{path}: missing {_MM_BANNER} banner", line=1)
    if len(tokens) != 5:
        raise FixtureFormatError(
            f"{path}: banner needs object, format, field and symmetry", line=1)
    obj, fmt, field_kind, symmetry = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        raise FixtureFormatError(
            f"{path}: unsupported object {obj!r}", line=1)
    if fmt != want_format:
        raise FixtureFormatError(
            f"{path}: expected {want_format} format, got {fmt!r}", line=1)
    if field_kind not in ("real", "integer"):
        raise FixtureFormatError(
            f"{path}: unsupported Matrix Market qualifier {field_kind!r}; "
            f"only real or integer entries are supported", line=1)
    if symmetry != "general":
        raise FixtureFormatError(
            f"{path}: unsupported Matrix Market qualifier {symmetry!r}; "
            f"only general matrices are supported", line=1)


def _mm_body(source) -> tuple[list[str], list[int], str]:
    lines = _read_text(source).splitlines()
    if not lines:
        raise FixtureFormatError(f"{source}: empty file", line=1)
    header = lines[0]
    body = []
    numbers = []
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        body.append(stripped)
        numbers.append(lineno)
    if not body:
        raise FixtureFormatError(f"{source}: missing size line")
    return body, numbers, header


def _read_mm_x(source, expected_n: int) -> np.ndarray:
    body, numbers, header = _mm_body(source)
    _mm_header(header, source, "array")
    dims = body[0].split()
    if len(dims) != 2 or dims[1] != "1" or not dims[0].isdecimal():
        raise FixtureFormatError(
            f"{source}: expected an N x 1 array size line, got {body[0]!r}",
            numbers[0])
    n = int(dims[0])
    if n != expected_n:
        raise FixtureValidationError(
            f"{source}: x has {n} entries but the matrix has {expected_n} "
            f"columns")
    if len(body) - 1 != n:
        raise FixtureFormatError(
            f"{source}: expected {n} vector entries, got {len(body) - 1}")
    try:
        return np.array([float(t) for t in body[1:]], dtype=np.float64)
    except ValueError as exc:
        raise FixtureFormatError(f"{source}: {exc}") from None


def import_matrix_market(source, x_source=None, *, x_seed: int = 0) -> Fixture:
    """Read a coordinate real general matrix and build a full fixture.

    x comes from the companion array file (x_source, or the derived sibling
    path when present) and is otherwise generated from x_seed as small
    positive integers. z is always recomputed with the sorted-entry oracle.
    """
    body, numbers, header = _mm_body(source)
    _mm_header(header, source, "coordinate")
    size_tokens = body[0].split()
    if len(size_tokens) != 3:
        raise FixtureFormatError(
            f"{source}: size line must be 'M N NNZ', got {body[0]!r}",
            numbers[0])
    try:
        M, N, nnz = (int(t) for t in size_tokens)
    except ValueError:
        raise FixtureFormatError(
            f"{source}: size line must be integers, got {body[0]!r}",
            numbers[0]) from None
    if M < 1 or N < 1 or nnz < 0:
        raise FixtureFormatError(
            f"{source}: invalid sizes M={M} N={N} nnz={nnz}", numbers[0])
    if M * N > _MAX_CELLS:
        raise FixtureFormatError(
            f"{source}: {M} x {N} exceeds {_MAX_CELLS} cells", numbers[0])
    if len(body) - 1 != nnz:
        raise FixtureFormatError(
            f"{source}: expected {nnz} entries, got {len(body) - 1}")
    rows, cols, vals = [], [], []
    for stripped, lineno in zip(body[1:], numbers[1:]):
        tokens = stripped.split()
        if len(tokens) != 3:
            raise FixtureFormatError(
                f"{source}: entry must be 'row col value', got {stripped!r}",
                lineno)
        try:
            r, c = int(tokens[0]), int(tokens[1])
            v = float(tokens[2])
        except ValueError as exc:
            raise FixtureFormatError(f"{source}: {exc}", lineno) from None
        if not (1 <= r <= M and 1 <= c <= N):
            raise FixtureFormatError(
                f"{source}: entry ({r}, {c}) outside 1..{M} x 1..{N}", lineno)
        rows.append(r - 1)
        cols.append(c - 1)
        vals.append(v)
    rows, cols = np.array([rows, cols], dtype=np.int64)
    order = _cell_order(rows, cols, N)
    row_ptr = np.zeros(M + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=M), out=row_ptr[1:])
    metadata = {"source": "matrix-market"}
    x_path = Path(x_source) if x_source is not None else companion_x_path(source)
    if x_path.exists():
        x = _read_mm_x(x_path, N)
        metadata["x_source"] = "companion-file"
    else:
        if x_source is not None:
            raise FixtureFormatError(f"{x_path}: no such file")
        rng = np.random.default_rng(x_seed)
        x = rng.integers(1, 10, size=N).astype(np.float64)
        metadata["x_source"] = f"generated seed={x_seed}"
    # zeros stand in for z until the parsed arrays have passed the boundary
    fixture = Fixture(M=M, N=N, row_ptr=row_ptr, col_idx=cols[order],
                      values=np.array(vals, dtype=np.float64)[order], x=x,
                      z=np.zeros(M), metadata=metadata)
    validate_fixture(fixture)
    fixture.z = spmv_sorted_oracle(fixture.matrix(), fixture.x_vector()).values
    # finite entries can still overflow to a non-finite product
    _require_finite("z", fixture.z)
    return fixture
