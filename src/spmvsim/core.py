"""CSR matrix and dense vector containers plus the sequential kernels.

Matrices carry local and global extents, so one container serves sequential
use and the per-rank pieces of a block-row distribution (columns stay
global). spmv_seq forms all products at once and adds them into their rows
with np.bincount, which sums in storage order from +0.0 like a row loop;
large matrices go in blocks of whole rows. The package checks it against
spmv_sorted_oracle, an O(nnz) COO scatter-add in cell-key order with
np.add.at; tests check that oracle against the paper's dense brute-force one.
Both trust the input boundary's validate_csr (fixture_io.validate_fixture)
and check only that x is as wide as the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CsrMatrix",
    "DenseVector",
    "DenseMatrix",
    "ValidationReport",
    "SizeMismatch",
    "DuplicateEntry",
    "validate_csr",
    "spmv_seq",
    "residual_sq",
    "dense_from_csr",
    "spmv_dense_oracle",
    "spmv_sorted_oracle",
]


class SizeMismatch(ValueError):
    """Operand shapes do not conform."""


class DuplicateEntry(ValueError):
    """The same (row, column) cell is stored more than once."""


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix, possibly a local piece of a global one.

    m, n are the local row count and diagonal-block width; M, N the global
    extents; rstart, cstart the global offsets of the local block. Column
    indices are always global. A sequential matrix has m == M, n == N and
    zero offsets.
    """

    m: int
    n: int
    M: int
    N: int
    rstart: int
    cstart: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(self.col_idx, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @classmethod
    def sequential(cls, row_ptr, col_idx, values, n: int) -> "CsrMatrix":
        """Build a non-distributed matrix; row count comes from row_ptr."""
        m = len(row_ptr) - 1
        return cls(m=m, n=n, M=m, N=n, rstart=0, cstart=0,
                   row_ptr=row_ptr, col_idx=col_idx, values=values)


@dataclass
class DenseVector:
    """Dense vector with local length n out of a global length N."""

    n: int
    N: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.values) != self.n:
            raise SizeMismatch(
                f"vector declares n={self.n} but stores {len(self.values)} values")
        if self.n > self.N:
            raise SizeMismatch(f"local length {self.n} exceeds global length {self.N}")

    @classmethod
    def sequential(cls, values) -> "DenseVector":
        v = np.asarray(values, dtype=np.float64)
        return cls(n=len(v), N=len(v), values=v)


@dataclass
class DenseMatrix:
    """Dense m x n matrix used only by the brute-force oracle."""

    m: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.m, self.n):
            raise SizeMismatch(
                f"dense storage shape {self.values.shape} != ({self.m}, {self.n})")


@dataclass
class ValidationReport:
    """Outcome of validate_csr: ok flag plus human-readable violations."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    duplicate_cell: tuple[int, int] | None = None


def validate_csr(mat: CsrMatrix) -> ValidationReport:
    """Check the structural CSR invariants and report every violation found.

    Checks: row pointer length, zero start, monotonicity, agreement of
    row_ptr[m] with the stored entry count, column indices within [0, N),
    local block placement within the global extents and, once all of those
    hold, no cell stored twice; the lowest such (row, column) is returned
    as duplicate_cell.
    """
    v: list[str] = []
    rp, cj, av = mat.row_ptr, mat.col_idx, mat.values
    if mat.m < 0 or mat.n < 0:
        v.append(f"negative local size m={mat.m} n={mat.n}")
        return ValidationReport(ok=False, violations=v)
    if len(rp) != mat.m + 1:
        v.append(f"row_ptr length {len(rp)} != m+1 = {mat.m + 1}")
        return ValidationReport(ok=False, violations=v)
    if rp[0] != 0:
        v.append(f"row_ptr[0] != 0 (got {rp[0]})")
    drops = np.nonzero(np.diff(rp) < 0)[0]
    if len(drops):
        k = int(drops[0])
        v.append(f"row_ptr decreases at index {k + 1} ({rp[k]} -> {rp[k + 1]})")
    if rp[mat.m] != len(cj):
        v.append(f"row_ptr[m] = {rp[mat.m]} != stored entry count {len(cj)}")
    if len(av) != len(cj):
        v.append(f"values length {len(av)} != col_idx length {len(cj)}")
    if len(cj):
        bad = np.nonzero((cj < 0) | (cj >= mat.N))[0]
        if len(bad):
            p = int(bad[0])
            v.append(f"col_idx[{p}] = {cj[p]} out of range [0, {mat.N})")
    if not (0 <= mat.rstart and mat.rstart + mat.m <= mat.M):
        v.append(f"row block [{mat.rstart}, {mat.rstart + mat.m}) outside [0, {mat.M})")
    if not (0 <= mat.cstart and mat.cstart + mat.n <= mat.N):
        v.append(f"column block [{mat.cstart}, {mat.cstart + mat.n}) outside [0, {mat.N})")
    duplicate = None
    if not v:
        # sorted row-major cell keys sit side by side exactly when repeated
        keys = np.sort(_row_ids(rp) * mat.N + cj)
        repeats = np.nonzero(keys[1:] == keys[:-1])[0]
        if len(repeats):
            duplicate = divmod(int(keys[repeats[0]]), mat.N)
            v.append(f"duplicate cell {duplicate} stored more than once")
    return ValidationReport(ok=not v, violations=v, duplicate_cell=duplicate)


def _row_ids(row_ptr: np.ndarray) -> np.ndarray:
    """Row of every stored entry of a CSR row pointer."""
    return np.repeat(np.arange(len(row_ptr) - 1, dtype=np.int64),
                     np.diff(row_ptr))


def _cell_order(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Stable argsort of the row-major cell keys rows * n + cols: the order
    the sorted-entry oracle sums in and Matrix Market I/O stores entries in."""
    return np.argsort(rows * n + cols, kind="stable")


# entries per bincount call: larger matrices are summed in blocks of whole
# rows holding at most this many entries (a longer row is a block of its
# own). On the multiply-large matrix (303,617 entries), one whole-matrix call
# kept two nnz-sized temporaries alive and made glibc trim and refault the
# heap top, with hundreds of minor faults per call in a loop with
# run_distributed; blocks of this size took 2 per operation.
_BLOCK_ENTRIES = 1 << 15


def spmv_seq(mat: CsrMatrix, x: DenseVector) -> DenseVector:
    """Multiply a CSR matrix by a dense vector, each row left to right.

    Every output entry is 0.0 + p0 + p1 + ... over its row's products
    values[p] * x[col_idx[p]] in storage order, so the result is bitwise
    reproducible. The products are formed at once, and
    np.bincount(row_ids, weights=prods) sums them: it is one compiled loop
    out[row_ids[p]] += prods[p] over ascending p into zeros, which is a row
    loop's accumulation, one correctly rounded add at a time. Summing a
    block of whole rows per call keeps that true, since no row's sum is
    split between calls. mat must have passed validate_csr and x.n must
    equal mat.N: indices are global, so a local piece takes the full-width
    vector.
    """
    if mat.N != x.n:
        raise SizeMismatch(f"matrix width {mat.N} != vector length {x.n}")
    rp, cj, av, xv = mat.row_ptr, mat.col_idx, mat.values, x.values
    # overflow to inf and inf + -inf = nan stay silent, as in a Python loop
    with np.errstate(over="ignore", invalid="ignore"):
        if mat.nnz <= _BLOCK_ENTRIES:
            out = _row_sums(rp, cj, av, xv)
        else:
            out = np.empty(mat.m, dtype=np.float64)
            r0 = 0
            while r0 < mat.m:
                p0 = int(rp[r0])
                # the last row boundary within the block's entries, or the
                # next one when row r0 alone is longer than a block
                r1 = max(r0 + 1, int(np.searchsorted(
                    rp, p0 + _BLOCK_ENTRIES, side="right")) - 1)
                p1 = int(rp[r1])
                out[r0:r1] = _row_sums(rp[r0:r1 + 1], cj[p0:p1], av[p0:p1], xv)
                r0 = r1
    return DenseVector(n=mat.m, N=mat.M, values=out)


def _row_sums(row_ptr, col_idx, values, x) -> np.ndarray:
    """Row sums of the products of one block of whole rows, in storage
    order from +0.0; the products take the gathered x's buffer."""
    prods = x[col_idx]
    np.multiply(values, prods, out=prods)
    # with no entries this gives int64 zeros, which the float64 output
    # (DenseVector, or spmv_seq's block array) turns into +0.0
    return np.bincount(_row_ids(row_ptr), weights=prods,
                       minlength=len(row_ptr) - 1)


def residual_sq(y: DenseVector, z: DenseVector) -> float:
    """Squared 2-norm of y - z, accumulated left to right.

    np.cumsum adds strictly in order, unlike np.sum's pairwise summation,
    and 0.0 + d0*d0 == d0*d0 because a square is never -0.0, so this equals
    a loop that starts from 0.0.
    """
    if y.n != z.n:
        raise SizeMismatch(f"result length {y.n} != reference length {z.n}")
    if not y.n:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        d = y.values - z.values
        return float(np.cumsum(d * d)[-1])


def dense_from_csr(mat: CsrMatrix) -> DenseMatrix:
    """Expand a CSR matrix into dense m x N storage.

    Raises DuplicateEntry on a cell stored twice, since the dense form
    cannot represent summed duplicates faithfully, and ValueError on any
    other validate_csr violation.
    """
    report = validate_csr(mat)
    if not report.ok:
        error = DuplicateEntry if report.duplicate_cell else ValueError
        raise error("invalid CSR: " + report.violations[0])
    dense = np.zeros((mat.m, mat.N), dtype=np.float64)
    dense[_row_ids(mat.row_ptr), mat.col_idx] = mat.values
    return DenseMatrix(m=mat.m, n=mat.N, values=dense)


def spmv_dense_oracle(dense: DenseMatrix, x: DenseVector) -> DenseVector:
    """Schoolbook dense product, the independent check for spmv_seq."""
    if dense.n != x.n:
        raise SizeMismatch(f"matrix width {dense.n} != vector length {x.n}")
    rows = dense.values.tolist()
    xs = x.values.tolist()
    out = np.zeros(dense.m, dtype=np.float64)
    for i, row in enumerate(rows):
        acc = 0.0
        for a, xv in zip(row, xs):
            acc += a * xv
        out[i] = acc
    return DenseVector(n=dense.m, N=dense.m, values=out)


def spmv_sorted_oracle(mat: CsrMatrix, x: DenseVector) -> DenseVector:
    """Sorted-entry product in O(nnz), the independent check for spmv_seq.

    A COO scatter-add: np.add.at adds each product into its row in cell-key
    (row * N + col) order, so each row is 0.0 + p0 + p1 + ... by ascending
    column. For finite inputs that equals the dense oracle on dense_from_csr
    bit for bit: a dense row's extra products are +-0.0, which never change a
    sum begun at +0.0. The kernel gathers in storage order instead, with
    other code and another order. np.add.at's index-order accumulation is
    undocumented; test_sorted_oracle_output_is_pinned fails if it changes.
    Like spmv_seq, it needs a validated mat and x.n == mat.N.
    """
    if mat.N != x.n:
        raise SizeMismatch(f"matrix width {mat.N} != vector length {x.n}")
    order = _cell_order(_row_ids(mat.row_ptr), mat.col_idx, mat.N)
    out = np.zeros(mat.m, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        prods = mat.values[order] * x.values[mat.col_idx[order]]
        # the cell order moves entries only within their row, so the
        # storage-order row ids are the cell-order ones; making them after
        # order is gone keeps one nnz-sized array fewer alive
        del order
        np.add.at(out, _row_ids(mat.row_ptr), prods)
    return DenseVector(n=mat.m, N=mat.M, values=out)
