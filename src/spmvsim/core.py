"""CSR matrix and dense vector containers plus the sequential kernels.

Matrices carry local and global extents, so one container serves sequential
use and the per-rank pieces of a block-row distribution (columns stay
global). spmv_seq adds all products into their rows with np.bincount, which
sums in storage order from +0.0 like a row loop, one block of whole rows per
call. The package checks it against spmv_sorted_oracle, an O(nnz) COO
scatter-add with row ids of its own over fixed windows of entries; tests
check that oracle against the paper's dense brute-force one,
spmv_dense_oracle over the plain (m, N) float64 array that dense_from_csr
returns. All of them trust the input boundary's validate_csr
(fixture_io.validate_fixture) and only read their operands, so they take
the read-only views that Fixture's accessors and extract_local hand out,
both built by _read_only here.
A solver multiplies once per iteration, a rank only its own rows, so small
calls matter: per-call paths use ndarray methods and slices, not NumPy's
Python-level np.diff, repeat, searchsorted, cumsum, nonzero, sort or argsort
(spmv_seq on the 32x36 reference: 16.4 -> 11.8 us per call).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CsrMatrix",
    "DenseVector",
    "ValidationReport",
    "SizeMismatch",
    "validate_csr",
    "spmv_seq",
    "residual_sq",
    "dense_from_csr",
    "spmv_dense_oracle",
    "spmv_sorted_oracle",
]


class SizeMismatch(ValueError):
    """Operand shapes do not conform."""


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


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of arr (no copy) that raises ValueError on a write."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass
class ValidationReport:
    """Outcome of validate_csr: ok flag plus human-readable violations."""

    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_csr(mat: CsrMatrix) -> ValidationReport:
    """Check the structural CSR invariants and report every violation found.

    Checks: row pointer length, zero start, monotonicity, agreement of
    row_ptr[m] with the stored entry count, column indices within [0, N),
    local block placement within the global extents and, once all of those
    hold, columns strictly increasing within each row, naming the first
    entry in storage order that repeats or undercuts the column before it.
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
    drops = (rp[1:] < rp[:-1]).nonzero()[0]
    if len(drops):
        k = int(drops[0])
        v.append(f"row_ptr decreases at index {k + 1} ({rp[k]} -> {rp[k + 1]})")
    if rp[mat.m] != len(cj):
        v.append(f"row_ptr[m] = {rp[mat.m]} != stored entry count {len(cj)}")
    if len(av) != len(cj):
        v.append(f"values length {len(av)} != col_idx length {len(cj)}")
    # one mask: a negative index reads as 2**63 or more in uint64
    bad = (cj.view(np.uint64) >= mat.N).nonzero()[0]
    if len(bad):
        p = int(bad[0])
        v.append(f"col_idx[{p}] = {cj[p]} out of range [0, {mat.N})")
    if not (0 <= mat.rstart and mat.rstart + mat.m <= mat.M):
        v.append(f"row block [{mat.rstart}, {mat.rstart + mat.m}) outside [0, {mat.M})")
    if not (0 <= mat.cstart and mat.cstart + mat.n <= mat.N):
        v.append(f"column block [{mat.cstart}, {mat.cstart + mat.n}) outside [0, {mat.N})")
    if not v:
        # falls[p]: entry p's column is not above entry p - 1's, unless a
        # row starts at p (row_ptr holds 0 and nnz, which clears both ends)
        falls = np.empty(len(cj) + 1, dtype=bool)
        np.less_equal(cj[1:], cj[:-1], out=falls[1:-1])
        falls[rp] = False
        first = falls.nonzero()[0]
        if len(first):
            p = int(first[0])
            r = int(rp.searchsorted(p, side="right")) - 1
            c, before = int(cj[p]), int(cj[p - 1])
            v.append(f"duplicate cell {(r, c)} stored more than once"
                     if c == before else
                     f"row {r} stores column {c} after column {before}")
    return ValidationReport(ok=not v, violations=v)


def _row_ids(row_ptr: np.ndarray) -> np.ndarray:
    """Row of every stored entry of a CSR row pointer."""
    return np.arange(len(row_ptr) - 1, dtype=np.int64).repeat(
        row_ptr[1:] - row_ptr[:-1])


# entries per block: spmv_seq's bincount calls each take a block of whole
# rows holding at most this many entries (a longer row is a block of its
# own), the oracle's np.add.at calls a window of this many entries, cut
# rows and all. On the multiply-large matrix (303,617 entries), one
# whole-matrix bincount call kept two nnz-sized temporaries alive and made
# glibc trim and refault the heap top, with hundreds of minor faults per
# call in a loop with run_distributed; blocks of this size took 2 per
# operation.
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
                r1 = max(r0 + 1, int(rp.searchsorted(
                    p0 + _BLOCK_ENTRIES, side="right")) - 1)
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

    cumsum adds strictly in order, unlike np.sum's pairwise summation,
    and 0.0 + d0*d0 == d0*d0 because a square is never -0.0, so this equals
    a loop that starts from 0.0.
    """
    if y.n != z.n:
        raise SizeMismatch(f"result length {y.n} != reference length {z.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        d = y.values - z.values
        d *= d
        return float(d.cumsum()[-1]) if y.n else 0.0


def dense_from_csr(mat: CsrMatrix) -> np.ndarray:
    """Expand a CSR matrix into a dense (m, N) float64 array. mat must have
    passed validate_csr: of a cell stored twice, dense storage keeps one value."""
    dense = np.zeros((mat.m, mat.N), dtype=np.float64)
    dense[_row_ids(mat.row_ptr), mat.col_idx] = mat.values
    return dense


def spmv_dense_oracle(dense: np.ndarray, x: DenseVector) -> DenseVector:
    """Schoolbook dense product, the independent check for spmv_seq."""
    m, n = dense.shape
    if n != x.n:
        raise SizeMismatch(f"matrix width {n} != vector length {x.n}")
    xs = x.values.tolist()
    out = np.zeros(m, dtype=np.float64)
    for i, row in enumerate(dense.tolist()):
        acc = 0.0
        for a, xv in zip(row, xs):
            acc += a * xv
        out[i] = acc
    return DenseVector(n=m, N=m, values=out)


def spmv_sorted_oracle(mat: CsrMatrix, x: DenseVector) -> DenseVector:
    """Sorted-entry product in O(nnz) time, the independent check for spmv_seq.

    A COO scatter-add: np.add.at adds each product into its row in storage
    order, which validate_csr makes ascending-column order, so each row is
    0.0 + p0 + p1 + ... by ascending column. For finite inputs that equals
    the dense oracle on dense_from_csr bit for bit: a dense row's extra
    products are +-0.0, which never change a sum begun at +0.0. It walks the
    entries in windows of _BLOCK_ENTRIES, so its temporaries fit in one
    window; a row that a window boundary cuts keeps its running sum in out.
    The kernel sums with other code, row ids of its own (_row_ids) and
    blocks of whole rows. np.add.at's index-order accumulation is
    undocumented; test_sorted_oracle_output_is_pinned fails if it changes.
    Like spmv_seq, it needs a validated mat and x.n == mat.N.
    """
    if mat.N != x.n:
        raise SizeMismatch(f"matrix width {mat.N} != vector length {x.n}")
    rp, cj, av, xv = mat.row_ptr, mat.col_idx, mat.values, x.values
    out = np.zeros(mat.m, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for p0 in range(0, mat.nnz, _BLOCK_ENTRIES):
            p1 = min(p0 + _BLOCK_ENTRIES, mat.nnz)
            # rp[:a] are the row starts at or before p0, so the window
            # begins in row a - 1, and rp[a:b] the starts inside it: entry
            # p's row is a - 1 plus the count of those at or before p
            a, b = rp.searchsorted((p0 + 1, p1)).tolist()
            rows = np.bincount(rp[a:b] - p0, minlength=p1 - p0)
            rows.cumsum(out=rows)
            rows += a - 1
            prods = xv[cj[p0:p1]]
            np.multiply(av[p0:p1], prods, out=prods)
            np.add.at(out, rows, prods)
    return DenseVector(n=mat.m, N=mat.M, values=out)
