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

Both readers take files as UTF-8 and convert a whole array line, or a block
of Matrix Market entry lines, at a time, but every token still follows
Python's int() or float() rules. Of several bad tokens or lines the first in
file order is reported, with the number of the line that holds it; only a
bad value in the Matrix Market x file is reported without one.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import islice
from pathlib import Path

import numpy as np

from .core import (CsrMatrix, DenseVector, _cell_order, _row_ids,
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
    report = validate_csr(_own_matrix(fixture))
    if not report.ok:
        raise FixtureValidationError("invalid CSR: " + report.violations[0])
    for name in ("values", "x", "z"):
        _require_finite(name, getattr(fixture, name))


def _own_matrix(fixture: Fixture) -> CsrMatrix:
    """The fixture's matrix over its own arrays, which fixture.matrix()
    would copy; for the boundary's checks, which only read them."""
    return CsrMatrix.sequential(fixture.row_ptr, fixture.col_idx,
                                fixture.values, n=fixture.N)


def _oracle_product(fixture: Fixture) -> np.ndarray:
    """The sorted-entry oracle's product of the fixture's own arrays."""
    return spmv_sorted_oracle(_own_matrix(fixture),
                              DenseVector.sequential(fixture.x)).values


def _require_finite(name: str, arr: np.ndarray) -> None:
    bad = (~np.isfinite(arr)).nonzero()[0]
    if len(bad):
        raise FixtureValidationError(
            f"non-finite {name}[{bad[0]}] = {float(arr[bad[0]])!r}")


def _read_text(source) -> str:
    try:
        return Path(source).read_text(encoding="utf-8")
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
    Path(dest).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_array(tokens: list[str], lineno: int, name: str, dtype):
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
    caster = float if dtype is np.float64 else int
    try:
        try:
            return np.fromiter(map(caster, body), dtype, declared)
        except OverflowError:
            # a token beyond int64: walk again so _int64 words the first one
            return np.array([_int64(t) for t in body], dtype)
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
    arrays: dict[str, np.ndarray] = {}
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
            dtype = np.int64 if key in ("rowptr", "colidx") else np.float64
            arrays[key] = _parse_array(tokens[1:], lineno, key, dtype)
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
        recomputed = _oracle_product(fixture)
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
# entry lines parsed per block: a block's token lists stay in cache, where
# one pass over a whole large file's tokens does not
_BLOCK_LINES = 2048


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
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    x_lines = [f"{_MM_BANNER} matrix array real general", f"{fixture.N} 1",
               *map(repr, fixture.x.tolist())]
    x_path.write_text("\n".join(x_lines) + "\n", encoding="utf-8")
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


def _mm_body(source) -> tuple[list[str], Callable[[int], int], str]:
    """The stripped lines after the header that are not blank or % comments,
    a function giving the line number of body[k], and the header line."""
    lines = _read_text(source).splitlines()
    if not lines:
        raise FixtureFormatError(f"{source}: empty file", line=1)
    body = [s for s in map(str.strip, lines[1:]) if s and s[0] != "%"]
    if not body:
        raise FixtureFormatError(f"{source}: missing size line")

    def line_of(k: int) -> int:
        kept = (lineno for lineno, raw in enumerate(lines[1:], start=2)
                if (s := raw.strip()) and s[0] != "%")
        return next(islice(kept, k, None))

    return body, line_of, lines[0]


def _read_mm_x(source, expected_n: int) -> np.ndarray:
    body, line_of, header = _mm_body(source)
    _mm_header(header, source, "array")
    dims = body[0].split()
    if len(dims) != 2 or dims[1] != "1" or not dims[0].isdecimal():
        raise FixtureFormatError(
            f"{source}: expected an N x 1 array size line, got {body[0]!r}",
            line_of(0))
    n = int(dims[0])
    if n != expected_n:
        raise FixtureValidationError(
            f"{source}: x has {n} entries but the matrix has {expected_n} "
            f"columns")
    if len(body) - 1 != n:
        raise FixtureFormatError(
            f"{source}: expected {n} vector entries, got {len(body) - 1}")
    try:
        return np.fromiter(map(float, islice(body, 1, None)), np.float64, n)
    except ValueError as exc:
        raise FixtureFormatError(f"{source}: {exc}") from None


def _mm_entries(source, body, line_of, M: int, N: int):
    """0-based rows, 0-based columns and values of the entry lines body[1:].

    Each block of k lines, at most _BLOCK_LINES, is joined with " ; " and
    split once. When that gives 4k - 1 tokens and every token off the k - 1
    places of the separators in three-token lines passes int() or float(),
    and so is not ";", the separators fill those places: no line held a ";"
    and each held exactly three tokens. A block that fails any check hands
    over to _raise_entry_error.
    """
    nnz = len(body) - 1
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    try:
        for lo in range(0, nnz, _BLOCK_LINES):
            block = body[1 + lo:1 + lo + _BLOCK_LINES]
            k = len(block)
            tokens = " ; ".join(block).split()
            if len(tokens) != 4 * k - 1:
                raise ValueError("an entry line without 3 tokens")
            r = np.fromiter(map(int, tokens[0::4]), np.int64, k)
            c = np.fromiter(map(int, tokens[1::4]), np.int64, k)
            if r.min() < 1 or r.max() > M or c.min() < 1 or c.max() > N:
                raise ValueError("an entry outside the matrix")
            np.subtract(r, 1, out=rows[lo:lo + k])
            np.subtract(c, 1, out=cols[lo:lo + k])
            vals[lo:lo + k] = np.fromiter(map(float, tokens[2::4]),
                                          np.float64, k)
    except (ValueError, OverflowError):
        _raise_entry_error(source, body, line_of, M, N)
        raise
    return rows, cols, vals


def _raise_entry_error(source, body, line_of, M: int, N: int) -> None:
    """Raise the error of the first bad entry line in file order."""
    for k, stripped in enumerate(islice(body, 1, None), start=1):
        tokens = stripped.split()
        if len(tokens) != 3:
            raise FixtureFormatError(
                f"{source}: entry must be 'row col value', got {stripped!r}",
                line_of(k))
        try:
            r, c = int(tokens[0]), int(tokens[1])
            float(tokens[2])
        except ValueError as exc:
            raise FixtureFormatError(f"{source}: {exc}", line_of(k)) from None
        if not (1 <= r <= M and 1 <= c <= N):
            raise FixtureFormatError(
                f"{source}: entry ({r}, {c}) outside 1..{M} x 1..{N}",
                line_of(k))


def import_matrix_market(source, x_source=None, *, x_seed: int = 0) -> Fixture:
    """Read a coordinate real general matrix and build a full fixture.

    x comes from the companion array file (x_source, or the derived sibling
    path when present) and is otherwise generated from x_seed as small
    positive integers. z is always recomputed with the sorted-entry oracle.
    """
    body, line_of, header = _mm_body(source)
    _mm_header(header, source, "coordinate")
    size_tokens = body[0].split()
    if len(size_tokens) != 3:
        raise FixtureFormatError(
            f"{source}: size line must be 'M N NNZ', got {body[0]!r}",
            line_of(0))
    try:
        M, N, nnz = (int(t) for t in size_tokens)
    except ValueError:
        raise FixtureFormatError(
            f"{source}: size line must be integers, got {body[0]!r}",
            line_of(0)) from None
    if M < 1 or N < 1 or nnz < 0:
        raise FixtureFormatError(
            f"{source}: invalid sizes M={M} N={N} nnz={nnz}", line_of(0))
    if M * N > _MAX_CELLS:
        raise FixtureFormatError(
            f"{source}: {M} x {N} exceeds {_MAX_CELLS} cells", line_of(0))
    if len(body) - 1 != nnz:
        raise FixtureFormatError(
            f"{source}: expected {nnz} entries, got {len(body) - 1}")
    rows, cols, vals = _mm_entries(source, body, line_of, M, N)
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
                      values=vals[order], x=x,
                      z=np.zeros(M), metadata=metadata)
    validate_fixture(fixture)
    fixture.z = _oracle_product(fixture)
    # finite entries can still overflow to a non-finite product
    _require_finite("z", fixture.z)
    return fixture
