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
read of a write restores them bit for bit. Within each row, colidx strictly
increases, as in PETSc's AIJ format: the readers refuse a row that repeats
a column or stores one after a higher one.

Matrix Market export writes the matrix as a 1-based coordinate real general
file in storage order, plus an array file for x next to it. Import accepts
entries in any order and sorts them by row, then column; it reads x from
that companion file (or a named one) or, when there is none, generates it
from a seed, and refuses a seed given for an x it reads. z is not in the
format and is recomputed from the sorted-entry oracle on import.

Both writers and both readers share one number codec, which works with
NumPy on a whole array, or a bounded slice of one, as ASCII bytes.
 - It spells int64 arrays, and float arrays whose entries are all integral
   with |v| < 2**53, as decimal digits, plus ".0" for a float and a "-"
   wherever the sign bit is set: repr's own spelling of those values, -0.0
   included. Any other slice is spelled by repr.
 - It reads an integer token of the form -?[0-9]{1,18} as its digits, and
   a float token of that form, optionally ending ".0", with magnitude below
   2**53, as its digits cast to float64 (exact), signed last so "-0.0"
   reads as -0.0. Tokens are separated by single spaces, and Matrix Market
   text must also have the exporter's shape: lines of "row col value" or of
   one x entry, each ended by a line feed.
Files are read as UTF-8 text, which turns CRLF and CR line ends into line
feeds. A slice holding any token or line outside that grammar goes, with
the rest of its array or file, through Python's int() and float() a token
at a time, so "0.5" and "1e5" still parse, "1_0" still reads as 10, and
every error reads as before; Matrix Market text in one walk that checks the
line count before any conversion. Of several bad tokens or lines the first
in file order is reported, with the number of the line that holds it.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .core import _row_ids, spmv_sorted_oracle, validate_csr
from .fixtures import Fixture

__all__ = ["FORMAT_HEADER", "FixtureFormatError", "FixtureValidationError",
           "validate_fixture", "write_fixture", "read_fixture",
           "export_matrix_market", "import_matrix_market", "companion_x_path"]

FORMAT_HEADER = "spmv-fixture-v1"

_SCALAR_FIELDS = ("rows", "cols", "nnz")
# each array line's key, in file order (Fixture's field order too), and the
# dtype it is read as
_ARRAY_FIELDS = {"rowptr": np.int64, "colidx": np.int64,
                 "values": np.float64, "x": np.float64, "z": np.float64}


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
    violation = validate_csr(fixture.matrix())
    if violation is not None:
        raise FixtureValidationError("invalid CSR: " + violation)
    for name in ("values", "x", "z"):
        _require_finite(name, getattr(fixture, name))


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


# -- the number codec --------------------------------------------------------

# text characters one parse slice holds and entries one format slice holds,
# so the codec's temporaries stay within a few MB for any size of file
_SLICE = 1 << 16


def _format(columns: list[np.ndarray], end: str) -> str:
    """Row i of the equal-length columns as repr(column[i]) for each column,
    joined by single spaces and followed by end, for every row i: an array
    line's body (end " ", so with one trailing space) or Matrix Market lines
    (end a line feed)."""
    return "".join(_format_slice([c[lo:lo + _SLICE] for c in columns], end)
                   for lo in range(0, len(columns[0]), _SLICE))


def _format_slice(columns: list[np.ndarray], end: str) -> str:
    spellings = [_spelling(c) for c in columns]
    if any(s is None for s in spellings):
        reprs = [map(repr, c.tolist()) for c in columns]
        rows = reprs[0] if len(reprs) == 1 else map(" ".join, zip(*reprs))
        return end.join(rows) + end
    ends = [" "] * (len(columns) - 1) + [end]
    fields = [_spell(*s, e) for s, e in zip(spellings, ends)]
    return np.hstack(fields).tobytes().translate(None, b"\0").decode("ascii")


def _spelling(column: np.ndarray) -> tuple | None:
    """The sign bits, uint64 magnitudes and suffix ("" or ".0") that spell
    column's reprs; None unless column is int64, or float64 with only
    integral entries of magnitude below 2**53."""
    if column.dtype == np.int64:
        mag = column.astype(np.uint64)
        neg = column < 0
        np.negative(mag, out=mag, where=neg)  # |-2**63| fits in uint64
        return neg, mag, ""
    if column.dtype != np.float64:
        return None
    mag = np.abs(column)
    if not (mag < 2.0**53).all():  # nan and inf fail this too
        return None
    whole = mag.astype(np.uint64)
    if not (whole == mag).all():
        return None
    return np.signbit(column), whole, ".0"


def _spell(neg: np.ndarray, mag: np.ndarray, suffix: str,
           end: str) -> np.ndarray:
    """A uint8 matrix whose row i is zero bytes, then a "-" if neg[i], the
    decimal digits of mag[i] and suffix, then end."""
    width = len(str(int(mag.max())))
    tail = (suffix + end).encode("ascii")
    out = np.zeros((len(mag), 1 + width + len(tail)), dtype=np.uint8)
    for j, byte in enumerate(tail, start=width + 1):
        out[:, j] = byte
    for k in range(width):  # the k-th digit from the right, in column width-k
        live = mag != 0 if k else True  # zeros before the first digit stay 0
        mag, digit = np.divmod(mag, 10)
        digit += ord("0")
        np.multiply(digit, live, out=out[:, width - k], casting="unsafe")
    rows = neg.nonzero()[0]
    out[rows, width - (out[rows, 1:width + 1] != 0).sum(axis=1)] = ord("-")
    return out


def _parse(text: str, n: int, dtypes: tuple, end: str) -> list | None:
    """The inverse of _format: n rows of text, each of one token per dtype
    joined by single spaces and followed by end (the text's last end may be
    missing), as one array per column; None when text is not exactly that
    or a token is outside the codec's grammar."""
    seps = " " * (len(dtypes) - 1) + end
    if 2 * n * len(seps) > len(text) + 1:  # too short, whatever n claims
        return None
    outs = [np.empty(n, dtype) for dtype in dtypes]
    k, done, lo = len(seps), 0, 0
    while lo < len(text):
        # a slice ends just after a row, or at the end of the text
        hi = text.find(seps[-1], lo + _SLICE) + 1 or len(text)
        chunk = text[lo:hi]
        if chunk[-1] != seps[-1]:
            chunk += seps[-1]
        lo = hi
        try:
            b = np.frombuffer(chunk.encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            return None
        is_sep = b == ord(seps[-1])
        for sep in set(seps) - {seps[-1]}:
            is_sep |= b == ord(sep)
        cut = is_sep.nonzero()[0]
        rows, extra = divmod(len(cut), k)
        if extra or done + rows > n:
            return None
        starts = np.concatenate(([0], cut[:-1] + 1))
        for j, out in enumerate(outs):
            # the separator after each token is the one its column calls for
            if (b[cut[j::k]] != ord(seps[j])).any():
                return None
            part = _decode(b, starts[j::k], cut[j::k], out.dtype)
            if part is None:
                return None
            out[done:done + rows] = part
        done += rows
    return outs if done == n else None


def _decode(b: np.ndarray, starts: np.ndarray, ends: np.ndarray,
            dtype) -> np.ndarray | None:
    """The numbers the ASCII tokens b[starts[i]:ends[i]] spell, or None if
    one, an empty one too, is outside the codec's grammar for dtype."""
    neg = b[starts] == ord("-")
    first = starts + neg
    width = ends - first
    if width.min() < 1:
        return None
    if dtype != np.int64:
        # a float's ".0" is dropped where a digit comes before it
        point = ((width > 2) & (b[ends - 2] == ord("."))
                 & (b[ends - 1] == ord("0")))
        ends, width = ends - 2 * point, width - 2 * point
    w = int(width.max())
    if w > 18:
        return None
    # row j holds each token's j-th of w places before its end: digits 0..9,
    # and zeros before the token; tokens run along rows for NumPy's loops
    at = ends + np.arange(-w, 0)[:, None]
    digits = b[at] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
    np.multiply(digits, at >= first, out=digits)
    if (digits > 9).any():
        return None
    value = np.zeros(len(ends), dtype=np.int64)
    for place in digits:
        value *= 10
        value += place
    if dtype == np.int64:
        return np.negative(value, out=value, where=neg)
    if (value >= 2**53).any():
        return None
    # every integer below 2**53 is a double; the sign last keeps -0.0
    out = value.astype(np.float64)
    return np.negative(out, out=out, where=neg)


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
    for name, arr in zip(_ARRAY_FIELDS, (fixture.row_ptr, fixture.col_idx,
                                         fixture.values, fixture.x, fixture.z)):
        # rstrip drops the space _format puts after the last entry
        lines.append(f"{name} {len(arr)} {_format([arr], ' ')}".rstrip())
    Path(dest).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_array(text: str, lineno: int, name: str, dtype):
    """The array an array line's text after its key gives."""
    count, _, body = text.partition(" ")
    if count.isdecimal():
        parsed = _parse(body, int(count), (dtype,), " ")
        if parsed is not None:
            return parsed[0]
    tokens = text.split()
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
    # _int64 words a token beyond int64 before NumPy could overflow on it
    caster = float if dtype is np.float64 else _int64
    try:
        return np.fromiter(map(caster, body), dtype, declared)
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
    fields: dict = {}
    metadata: dict[str, str] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        head = raw.split(None, 1)
        if not head:
            continue
        key = head[0]
        if key == "meta":
            parts = raw.split(None, 2)
            if len(parts) < 2:
                raise FixtureFormatError("meta: missing key", lineno)
            metadata[parts[1]] = parts[2] if len(parts) > 2 else ""
            continue
        if key not in _ARRAY_FIELDS and key not in _SCALAR_FIELDS:
            raise FixtureFormatError(f"unknown field {key!r}", lineno)
        if key in fields:
            raise FixtureFormatError(f"duplicate field '{key}'", lineno)
        if key in _ARRAY_FIELDS:
            # split once: the body of a large line is not cut into tokens
            fields[key] = _parse_array(head[1] if len(head) == 2 else "",
                                       lineno, key, _ARRAY_FIELDS[key])
            continue
        tokens = raw.split()
        if len(tokens) != 2:
            raise FixtureFormatError(f"{key}: expected one integer", lineno)
        try:
            fields[key] = int(tokens[1])
        except ValueError:
            raise FixtureFormatError(
                f"{key}: {tokens[1]!r} is not an integer", lineno) from None
    for name in (*_SCALAR_FIELDS, *_ARRAY_FIELDS):
        if name not in fields:
            raise FixtureFormatError(f"missing field '{name}'")
    nnz = fields["nnz"]
    # only the header states nnz; validate_fixture checks the other lengths
    for name in ("colidx", "values"):
        if len(fields[name]) != nnz:
            raise FixtureFormatError(
                f"{name} has {len(fields[name])} entries, expected {nnz}")
    fixture = Fixture(fields["rows"], fields["cols"],
                      *map(fields.get, _ARRAY_FIELDS), metadata=metadata)
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
# the importer's cell keys row * N + col are int64, and numpy refuses
# arrays of 2**63 bytes or more; below this bound neither the keys nor the
# M + 1 eight-byte row pointers reach those limits
_MAX_CELLS = 2**59


def companion_x_path(matrix_path) -> Path:
    """Path of the input-vector file written next to a matrix export."""
    return Path(matrix_path).with_suffix(".x.mtx")


def export_matrix_market(fixture: Fixture, dest) -> Path:
    """Write the matrix as coordinate real general plus an x array file.

    Entries are 1-based and in storage order, which for a fixture that has
    passed validate_fixture, as the readers' output has, is by row and then
    column. Returns companion_x_path(dest), where the x file went. z is not
    written; importers recompute it.
    """
    dest = Path(dest)
    x_path = companion_x_path(dest)
    entries = _format([_row_ids(fixture.row_ptr) + 1, fixture.col_idx + 1,
                       fixture.values], "\n")
    dest.write_text(f"{_MM_BANNER} matrix coordinate real general\n"
                    f"{fixture.M} {fixture.N} {fixture.nnz}\n" + entries,
                    encoding="utf-8")
    x_path.write_text(f"{_MM_BANNER} matrix array real general\n"
                      f"{fixture.N} 1\n" + _format([fixture.x], "\n"),
                      encoding="utf-8")
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


# the line breaks str.splitlines cuts at
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _mm_body(source) -> tuple[str, str, int, str]:
    """The header line; the first later line that is neither blank nor a %
    comment, stripped, and its line number; and the text after that line.
    Lines end where str.splitlines ends them."""
    text = _read_text(source)
    if not text:
        raise FixtureFormatError(f"{source}: empty file", line=1)
    header, start, lineno = None, 0, 0
    while start < len(text):
        brk = _LINE_BREAK.search(text, start)
        end, after = brk.span() if brk else (len(text), len(text))
        line, start, lineno = text[start:end], after, lineno + 1
        if header is None:
            header = line
        elif (stripped := line.strip()) and stripped[0] != "%":
            return header, stripped, lineno, text[start:]
    raise FixtureFormatError(f"{source}: missing size line")


def _kept_lines(text: str, lineno: int) -> list[tuple[int, str]]:
    """Each line of text that is neither blank nor a % comment, stripped,
    with its number, where text's first line is line lineno."""
    return [(number, line)
            for number, raw in enumerate(text.splitlines(), lineno)
            if (line := raw.strip()) and line[0] != "%"]


def _read_mm_x(source, expected_n: int) -> np.ndarray:
    header, size, lineno, text = _mm_body(source)
    _mm_header(header, source, "array")
    dims = size.split()
    if len(dims) != 2 or dims[1] != "1" or not dims[0].isdecimal():
        raise FixtureFormatError(
            f"{source}: expected an N x 1 array size line, got {size!r}",
            lineno)
    n = int(dims[0])
    if n != expected_n:
        raise FixtureValidationError(
            f"{source}: x has {n} entries but the matrix has {expected_n} "
            f"columns")
    parsed = _parse(text, n, (np.float64,), "\n")
    if parsed is not None:
        return parsed[0]
    # the count is checked first: it is reported ahead of any bad line, and
    # no array is sized from n before the text bears it out
    lines = _kept_lines(text, lineno + 1)
    if len(lines) != n:
        raise FixtureFormatError(
            f"{source}: expected {n} vector entries, got {len(lines)}")
    x = np.empty(n, dtype=np.float64)
    try:
        for k, (number, line) in enumerate(lines):
            x[k] = float(line)
    except ValueError as exc:
        raise FixtureFormatError(f"{source}: {exc}", number) from None
    return x


def _mm_entries(source, text: str, lineno: int, M: int, N: int, nnz: int):
    """0-based rows, 0-based columns and values of the nnz entry lines in
    text, the text after the size line, which is line lineno: through the
    codec when text is as the exporter writes it, and otherwise a line at a
    time, raising the error of the first bad line."""
    parsed = _parse(text, nnz, (np.int64, np.int64, np.float64), "\n")
    if parsed is not None:
        rows, cols, vals = parsed
        if nnz == 0 or (rows.min() >= 1 and rows.max() <= M
                        and cols.min() >= 1 and cols.max() <= N):
            rows -= 1
            cols -= 1
            return rows, cols, vals
    lines = _kept_lines(text, lineno + 1)  # counted first, as in _read_mm_x
    if len(lines) != nnz:
        raise FixtureFormatError(
            f"{source}: expected {nnz} entries, got {len(lines)}")
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    try:
        for k, (number, line) in enumerate(lines):
            tokens = line.split()
            if len(tokens) != 3:
                raise ValueError(
                    f"entry must be 'row col value', got {line!r}")
            r, c = int(tokens[0]), int(tokens[1])
            vals[k] = float(tokens[2])
            if not (1 <= r <= M and 1 <= c <= N):
                raise ValueError(f"entry ({r}, {c}) outside 1..{M} x 1..{N}")
            rows[k], cols[k] = r - 1, c - 1
    except ValueError as exc:
        raise FixtureFormatError(f"{source}: {exc}", number) from None
    return rows, cols, vals


def import_matrix_market(source, x_source=None, *,
                         x_seed: int | None = None) -> Fixture:
    """Read a coordinate real general matrix and build a full fixture.

    x comes from the companion array file (x_source, or the derived sibling
    path when present) and is otherwise generated from x_seed (0 when not
    given) as small positive integers. A missing x_source raises
    FixtureFormatError, and an x_seed given while x comes from a file raises
    ValueError, since the seed would go unused. z is always recomputed with
    the sorted-entry oracle.
    """
    header, size, lineno, text = _mm_body(source)
    _mm_header(header, source, "coordinate")
    size_tokens = size.split()
    if len(size_tokens) != 3:
        raise FixtureFormatError(
            f"{source}: size line must be 'M N NNZ', got {size!r}", lineno)
    try:
        M, N, nnz = (int(t) for t in size_tokens)
    except ValueError:
        raise FixtureFormatError(
            f"{source}: size line must be integers, got {size!r}",
            lineno) from None
    if M < 1 or N < 1 or nnz < 0:
        raise FixtureFormatError(
            f"{source}: invalid sizes M={M} N={N} nnz={nnz}", lineno)
    if M * N > _MAX_CELLS:
        raise FixtureFormatError(
            f"{source}: {M} x {N} exceeds {_MAX_CELLS} cells", lineno)
    rows, cols, vals = _mm_entries(source, text, lineno, M, N, nnz)
    del text  # the arrays hold what the text held
    # by row, then column: the order validate_fixture holds rows to
    order = (rows * N + cols).argsort(kind="stable")
    row_ptr = np.zeros(M + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=M), out=row_ptr[1:])
    metadata = {"source": "matrix-market"}
    x_path = Path(x_source) if x_source is not None else companion_x_path(source)
    if x_path.exists():
        if x_seed is not None:
            raise ValueError(f"{x_path}: x is read from this file, so x seed "
                             f"{x_seed} would go unused")
        x = _read_mm_x(x_path, N)
        metadata["x_source"] = "companion-file"
    else:
        if x_source is not None:
            raise FixtureFormatError(f"{x_path}: no such file")
        if x_seed is None:
            x_seed = 0
        rng = np.random.default_rng(x_seed)
        x = rng.integers(1, 10, size=N).astype(np.float64)
        metadata["x_source"] = f"generated seed={x_seed}"
    # zeros stand in for z until the parsed arrays have passed the boundary
    fixture = Fixture(M=M, N=N, row_ptr=row_ptr, col_idx=cols[order],
                      values=vals[order], x=x,
                      z=np.zeros(M), metadata=metadata)
    validate_fixture(fixture)
    fixture.z = spmv_sorted_oracle(fixture.matrix(), fixture.x_vector()).values
    # finite entries can still overflow to a non-finite product
    _require_finite("z", fixture.z)
    return fixture
