"""Random test fixture generation and the bundled reference instance.

A fixture packages a global CSR matrix A, an input vector x, and the known
product z = A x. All data is integer-valued in small ranges so products are
exact in double precision and every downstream comparison can demand exact
equality. z always comes from the sorted-entry oracle, never from the CSR
kernel, so the generator cannot share a bug with the code under test.
A fixture holds the one copy of its entries: matrix(), x_vector() and
z_vector() build their containers over core._read_only views of its arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .core import CsrMatrix, DenseVector, _read_only, spmv_sorted_oracle

__all__ = ["GenParams", "Fixture", "InvalidGenParams", "RNG_NAME",
           "generate", "reference_fixture"]

# fixtures are reproducible only for a fixed generator family; record it
RNG_NAME = "numpy-pcg64"


class InvalidGenParams(ValueError):
    """Generation parameters are inconsistent or infeasible."""


def _require_integer(name: str, value) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise InvalidGenParams(
            f"{name} must be an integer, got {value!r}") from None


@dataclass
class GenParams:
    """Parameters for random fixture generation.

    Exactly one of target_nnz (total entry budget) and row_fill (maximum
    entries per row) must be set. Value ranges are inclusive integer bounds
    and must stay positive so generated data is exactly representable. Every
    field set is an integer (operator.index takes it), the seed is
    nonnegative, and a range bound is at most 2**63 - 1 (it is drawn as
    int64).
    """

    M: int
    N: int
    target_nnz: int | None = None
    row_fill: int | None = None
    value_range: tuple[int, int] = (1, 11)
    x_range: tuple[int, int] = (1, 9)
    seed: int = 0

    def validate(self) -> None:
        for name in ("M", "N", "target_nnz", "row_fill", "seed"):
            value = getattr(self, name)
            if value is not None or name in ("M", "N", "seed"):
                _require_integer(name, value)
        if self.seed < 0:
            raise InvalidGenParams(f"seed must be >= 0, got {self.seed}")
        if self.M < 1 or self.N < 1:
            raise InvalidGenParams(f"matrix extents must be >= 1, got "
                                   f"M={self.M} N={self.N}")
        if (self.target_nnz is None) == (self.row_fill is None):
            raise InvalidGenParams(
                "exactly one of target_nnz and row_fill must be set")
        if self.target_nnz is not None:
            if self.target_nnz < 0:
                raise InvalidGenParams(f"target_nnz must be >= 0, got "
                                       f"{self.target_nnz}")
            capacity = self.M * self.N
            if self.target_nnz > capacity:
                raise InvalidGenParams(
                    f"nnz exceeds capacity: {self.target_nnz} > {capacity} "
                    f"({self.M}x{self.N})")
        if self.row_fill is not None and self.row_fill < 0:
            raise InvalidGenParams(f"row_fill must be >= 0, got {self.row_fill}")
        for name, (lo, hi) in (("value_range", self.value_range),
                               ("x_range", self.x_range)):
            _require_integer(f"{name} bound", lo)
            _require_integer(f"{name} bound", hi)
            if lo < 1 or hi < lo:
                raise InvalidGenParams(
                    f"{name} must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
            if hi >= 2**63:
                raise InvalidGenParams(
                    f"{name} must satisfy hi <= 2**63 - 1, got ({lo}, {hi})")


@dataclass
class Fixture:
    """Global CSR matrix with input vector and known product."""

    M: int
    N: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    x: np.ndarray
    z: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(self.col_idx, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64)
        self.z = np.asarray(self.z, dtype=np.float64)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def matrix(self) -> CsrMatrix:
        """The global matrix as a sequential CsrMatrix over read-only views
        of the fixture's arrays; a caller that edits it copies them first."""
        return CsrMatrix.sequential(_read_only(self.row_ptr),
                                    _read_only(self.col_idx),
                                    _read_only(self.values), n=self.N)

    def x_vector(self) -> DenseVector:
        return DenseVector.sequential(_read_only(self.x))

    def z_vector(self) -> DenseVector:
        return DenseVector.sequential(_read_only(self.z))


def generate(params: GenParams) -> Fixture:
    """Generate a random fixture; the same params give a bit-identical one.

    target_nnz mode draws exactly that many distinct cells uniformly over
    the M x N grid. row_fill mode draws a per-row entry count uniformly from
    0..min(row_fill, N), then that many distinct columns straight into the
    row's slice of col_idx. Column indices are strictly increasing within
    each row either way. target_nnz mode's draw permutes the whole M * N
    grid once its density passes about 2% (75 MB at 3000 x 3000 with
    303,617 entries, against 4.9 MB of arrays); it stays, since another
    draw gives other fixtures. Otherwise generation needs, beyond its
    arrays, only the oracle's one block of scratch memory.
    """
    params.validate()
    rng = np.random.default_rng(params.seed)
    M, N = params.M, params.N
    # draw in a fixed order (structure, values, x) so fixtures are stable
    if params.target_nnz is not None:
        # the sorted cell keys row * N + col become the column indices in
        # place, so no other nnz-sized array is made
        col_idx = rng.choice(M * N, size=params.target_nnz, replace=False)
        col_idx.sort()
        row_ptr = np.searchsorted(col_idx, np.arange(M + 1) * N)
        np.remainder(col_idx, N, out=col_idx)
    else:
        cap = min(params.row_fill, N)
        row_ptr = np.zeros(M + 1, dtype=np.int64)
        np.cumsum(rng.integers(0, cap + 1, size=M), out=row_ptr[1:])
        col_idx = np.empty(int(row_ptr[-1]), dtype=np.int64)
        for p0, p1 in zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist()):
            row = col_idx[p0:p1]
            row[:] = rng.choice(N, size=p1 - p0, replace=False)
            row.sort()
    vlo, vhi = params.value_range
    xlo, xhi = params.x_range
    drawn = rng.integers(vlo, vhi + 1, size=len(col_idx))
    # cast the int64 draws to float64 in their own buffer: each element is
    # read before it is overwritten, so no second nnz-sized array is made
    values = drawn.view(np.float64)
    values[...] = drawn
    x = rng.integers(xlo, xhi + 1, size=N).astype(np.float64)
    mat = CsrMatrix.sequential(row_ptr, col_idx, values, n=N)
    z = spmv_sorted_oracle(mat, DenseVector.sequential(x)).values
    metadata = {
        "rng": RNG_NAME,
        "seed": str(params.seed),
        "M": str(M),
        "N": str(N),
        "value_range": f"{vlo}..{vhi}",
        "x_range": f"{xlo}..{xhi}",
    }
    if params.target_nnz is not None:
        metadata["target_nnz"] = str(params.target_nnz)
    else:
        metadata["row_fill"] = str(params.row_fill)
    return Fixture(M=M, N=N, row_ptr=row_ptr, col_idx=col_idx,
                   values=values, x=x, z=z, metadata=metadata)


# Bundled 32 x 36 reference instance with a known product. The row pointer
# addresses 49 stored entries; the declared entry budget in the originating
# source was 50 with a trailing zero-initialized slot that no row addresses,
# so the authoritative count here is len(values) == 49.
_REF_ROW_PTR = [0, 1, 1, 2, 6, 9, 10, 10, 11, 11, 13, 13, 13, 16, 17, 18, 18,
                19, 20, 22, 23, 27, 28, 31, 32, 34, 37, 37, 41, 44, 44, 47, 49]
_REF_COL_IDX = [25, 13, 1, 5, 7, 35, 18, 19, 31, 32, 21, 32, 33, 0, 8, 27, 16,
                25, 3, 24, 17, 27, 13, 3, 28, 29, 30, 2, 23, 29, 31, 10, 8,
                29, 1, 20, 22, 3, 8, 16, 19, 10, 14, 24, 2, 6, 15, 17, 34]
_REF_VALUES = [8, 3, 7, 5, 6, 7, 1, 9, 8, 9, 9, 9, 5, 1, 5, 8, 4, 4, 2, 11, 3,
               8, 9, 7, 7, 4, 2, 2, 7, 6, 9, 3, 4, 2, 2, 9, 7, 4, 7, 8, 1, 8,
               6, 1, 3, 3, 6, 6, 1]
_REF_X = [3, 2, 2, 7, 1, 5, 3, 3, 6, 6, 4, 8, 8, 4, 7, 8, 9, 7, 7, 6, 9, 5, 8,
          5, 7, 5, 5, 5, 2, 4, 8, 1, 3, 6, 9, 8]
_REF_Z = [40, 0, 12, 113, 69, 27, 0, 45, 0, 57, 0, 0, 73, 36, 20, 0, 14, 77,
          61, 36, 95, 4, 68, 12, 32, 141, 0, 148, 81, 0, 63, 51]


def reference_fixture() -> Fixture:
    """The bundled reference instance; arrays are fresh copies per call."""
    return Fixture(
        M=32,
        N=36,
        row_ptr=np.array(_REF_ROW_PTR, dtype=np.int64),
        col_idx=np.array(_REF_COL_IDX, dtype=np.int64),
        values=np.array(_REF_VALUES, dtype=np.float64),
        x=np.array(_REF_X, dtype=np.float64),
        z=np.array(_REF_Z, dtype=np.float64),
        metadata={"source": "builtin-reference"},
    )
