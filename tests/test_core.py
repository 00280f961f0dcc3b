"""CSR validation, the kernel, residual, and the two oracles."""

import hashlib
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spmvsim.core
from conftest import (NON_INTEGER, csr_matrices, order_sensitive_row,
                      spmv_by_row_loop, spmv_exact, two_products)
from spmvsim import (
    CsrMatrix,
    DenseVector,
    GenParams,
    SizeMismatch,
    build_layout,
    dense_from_csr,
    extract_local,
    generate,
    residual_sq,
    run_distributed,
    spmv_dense_oracle,
    spmv_seq,
    spmv_sorted_oracle,
    validate_csr,
)

# known product of the bundled reference instance
REF_Z = [40, 0, 12, 113, 69, 27, 0, 45, 0, 57, 0, 0, 73, 36, 20, 0, 14, 77,
         61, 36, 95, 4, 68, 12, 32, 141, 0, 148, 81, 0, 63, 51]

# every finite double too: signed zeros, subnormals, and magnitudes whose
# products underflow to +-0.0 or overflow to +-inf
FINITE = NON_INTEGER | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def products(draw, canonical=True):
    """A matrix, with canonical rows if canonical, and an x of its width,
    both drawn from FINITE."""
    mat = draw(csr_matrices(canonical=canonical, values=FINITE))
    x = draw(st.lists(FINITE, min_size=mat.N, max_size=mat.N))
    return mat, DenseVector.sequential(x)


def dense_by_entry_loop(mat):
    """Per-entry expansion into dense storage: the reference dense_from_csr
    must equal bit for bit."""
    dense = np.zeros((mat.m, mat.N), dtype=np.float64)
    rp, cj, av = mat.row_ptr.tolist(), mat.col_idx.tolist(), mat.values.tolist()
    for i in range(mat.m):
        for p in range(rp[i], rp[i + 1]):
            dense[i, cj[p]] = av[p]
    return dense


def oracle_by_entry_loop(mat, x):
    """Entries lexsorted by (row, column), then one Python add per entry:
    the reference spmv_sorted_oracle must equal bit for bit."""
    rows = np.repeat(np.arange(mat.m, dtype=np.int64), np.diff(mat.row_ptr))
    order = np.lexsort((mat.col_idx, rows))
    xs = x.values.tolist()
    out = [0.0] * mat.m
    for r, c, a in zip(rows[order].tolist(), mat.col_idx[order].tolist(),
                       mat.values[order].tolist()):
        out[r] += a * xs[c]
    return np.array(out, dtype=np.float64)


def residual_by_loop(y, z):
    """Squared 2-norm of y - z in one left-to-right loop from 0.0: the
    reference residual_sq must equal bit for bit."""
    total = 0.0
    for a, b in zip(y.tolist(), z.tolist()):
        d = a - b
        total += d * d
    return total


def repeated_rows(row_cols, row_values, copies):
    """A sequential matrix of `copies` identical rows."""
    k = len(row_cols)
    return CsrMatrix.sequential(np.arange(copies + 1) * k, row_cols * copies,
                                row_values * copies, n=max(row_cols) + 1)


def small_matrix():
    # 3 x 4, one empty row, unsorted columns in row 2
    return CsrMatrix.sequential(
        row_ptr=[0, 2, 2, 4],
        col_idx=[0, 3, 2, 1],
        values=[2.0, 1.0, 5.0, 3.0],
        n=4,
    )


def test_validate_reference_ok(ref):
    assert validate_csr(ref.matrix()) is None


def test_validate_accepts_empty_matrix():
    mat = CsrMatrix.sequential(row_ptr=[0, 0], col_idx=[], values=[], n=3)
    assert validate_csr(mat) is None


def test_validate_rejects_nonzero_first_pointer():
    mat = CsrMatrix.sequential([1, 2], [0], [1.0], n=2)
    assert "row_ptr[0]" in validate_csr(mat)


def test_validate_rejects_decreasing_pointer():
    mat = CsrMatrix.sequential([0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0], n=2)
    assert "decreases" in validate_csr(mat)


def test_validate_rejects_pointer_count_disagreement():
    mat = CsrMatrix.sequential([0, 1], [0, 1], [1.0, 1.0], n=2)
    assert "row_ptr[m]" in validate_csr(mat)


def test_validate_rejects_column_out_of_range():
    mat = CsrMatrix.sequential([0, 1], [5], [1.0], n=2)
    assert "out of range" in validate_csr(mat)


@pytest.mark.parametrize("cols, first_bad", [
    ([0, -1], "col_idx[1] = -1"),
    ([-2**63, 5], f"col_idx[0] = {-2**63}"),
    ([1, 2, -1], "col_idx[1] = 2"),
    ([1, 2**63 - 1], f"col_idx[1] = {2**63 - 1}"),
])
def test_validate_names_first_column_out_of_range(cols, first_bad):
    # negative and too-large indices alike, whichever comes first
    mat = CsrMatrix.sequential([0, len(cols)], cols, [1.0] * len(cols), n=2)
    assert validate_csr(mat) == f"{first_bad} out of range [0, 2)"


def test_validate_rejects_bad_local_block():
    mat = CsrMatrix(m=2, n=2, M=3, N=2, rstart=2, cstart=0,
                    row_ptr=[0, 0, 0], col_idx=[], values=[])
    assert "row block" in validate_csr(mat)


@pytest.mark.parametrize("shape, violation", [
    (dict(m=-1, n=2, row_ptr=[0]), "negative local size m=-1 n=2"),
    (dict(m=1, n=-1, row_ptr=[0, 0]), "negative local size m=1 n=-1"),
    (dict(m=2, n=2, row_ptr=[0, 0]), "row_ptr length 2 != m+1 = 3"),
    (dict(m=1, n=3, row_ptr=[0, 0]), "column block [0, 3) outside [0, 2)"),
    (dict(m=1, n=1, cstart=-1, row_ptr=[0, 0]),
     "column block [-1, 0) outside [0, 2)"),
    (dict(m=1, n=2, row_ptr=[0, 2], col_idx=[0, 1], values=[1.0]),
     "values length 1 != col_idx length 2"),
])
def test_validate_rejects_bad_shapes(shape, violation):
    # a 1 x 2 global matrix unless the case says otherwise
    mat = CsrMatrix(**{"M": 1, "N": 2, "rstart": 0, "cstart": 0,
                       "col_idx": [], "values": [], **shape})
    assert validate_csr(mat) == violation


def test_validate_rejects_duplicate_cell():
    mat = CsrMatrix.sequential([0, 1, 3], [2, 0, 0], [1.5, 2.5, 3.5], n=3)
    assert validate_csr(mat) == "duplicate cell (1, 0) stored more than once"


def unsorted_column_by_row_loop(mat):
    """The first entry, in storage order, whose column is not above the one
    before it in its row, worded as validate_csr words it, or None: the
    reference validate_csr's last check must equal."""
    rp, cj = mat.row_ptr.tolist(), mat.col_idx.tolist()
    for i in range(mat.m):
        for p in range(rp[i] + 1, rp[i + 1]):
            if cj[p] == cj[p - 1]:
                return f"duplicate cell {(i, cj[p])} stored more than once"
            if cj[p] < cj[p - 1]:
                return (f"row {i} stores column {cj[p]} after column "
                        f"{cj[p - 1]}")
    return None


@settings(max_examples=300, deadline=None)
@given(mat=csr_matrices(canonical=False))
# a repeat in row 1 after a decrease in row 0: storage order names row 0
@example(mat=CsrMatrix.sequential([0, 2, 4], [1, 0, 2, 2], [0.5] * 4, n=3))
# leading and trailing empty rows around a row that repeats column 0
@example(mat=CsrMatrix.sequential([0, 0, 2, 2], [0, 0], [0.5] * 2, n=1))
# equal columns on either side of a row start are no violation
@example(mat=CsrMatrix.sequential([0, 1, 1, 2], [1, 1], [0.5] * 2, n=2))
def test_validate_flags_first_unsorted_column_like_a_row_loop(mat):
    # arbitrary rows: repeats and any order
    assert validate_csr(mat) == unsorted_column_by_row_loop(mat)


@settings(max_examples=300, deadline=None)
@given(mat=csr_matrices(canonical=True))
@example(mat=CsrMatrix.sequential([0, 0, 2, 2], [1, 3], [-2.25, 0.5], n=4))
@example(mat=CsrMatrix.sequential([0], [], [], n=3))
def test_dense_from_csr_equals_entry_loop(mat):
    dense = dense_from_csr(mat)
    reference = dense_by_entry_loop(mat)
    assert dense.shape == reference.shape
    assert dense.tobytes() == reference.tobytes()


def test_spmv_reproduces_reference_product(ref):
    y = spmv_seq(ref.matrix(), ref.x_vector())
    assert np.array_equal(y.values, np.array(REF_Z, dtype=np.float64))
    assert y.n == 32
    assert y.N == 32


def test_spmv_small_known_product():
    # row 0: 2*1 + 1*4 = 6; row 1 empty; row 2: 5*3 + 3*2 = 21
    y = spmv_seq(small_matrix(), DenseVector.sequential([1.0, 2.0, 3.0, 4.0]))
    assert y.values.tolist() == [6.0, 0.0, 21.0]


def test_spmv_empty_rows_are_exact_zero(ref):
    y = spmv_seq(ref.matrix(), ref.x_vector())
    empty_rows = [i for i in range(ref.M)
                  if ref.row_ptr[i] == ref.row_ptr[i + 1]]
    assert empty_rows  # the reference instance has some
    for i in empty_rows:
        assert y.values[i] == 0.0


def test_spmv_zero_row_matrix():
    mat = CsrMatrix(m=0, n=4, M=8, N=4, rstart=3, cstart=0,
                    row_ptr=[0], col_idx=[], values=[])
    y = spmv_seq(mat, DenseVector.sequential([1.0, 2.0, 3.0, 4.0]))
    assert y.values.shape == (0,)
    assert y.N == 8


def test_spmv_rejects_short_x():
    with pytest.raises(SizeMismatch):
        spmv_seq(small_matrix(), DenseVector.sequential([1.0, 2.0]))


def test_spmv_sums_duplicate_cells():
    # kernel tolerates duplicates; contributions add in storage order
    mat = CsrMatrix.sequential([0, 2], [1, 1], [2.0, 3.0], n=2)
    y = spmv_seq(mat, DenseVector.sequential([0.0, 10.0]))
    assert y.values.tolist() == [50.0]


def test_spmv_accumulates_left_to_right():
    # same entry multiset, different storage order, different float result:
    # (1e16 - 1e16) + 1 == 1 but (1 - 1e16) + 1e16 == 0 in float64
    forward = CsrMatrix.sequential([0, 3], [0, 1, 2], [1e16, -1e16, 1.0], n=3)
    reversed_ = CsrMatrix.sequential([0, 3], [2, 1, 0], [1.0, -1e16, 1e16], n=3)
    ones = DenseVector.sequential([1.0, 1.0, 1.0])
    assert spmv_seq(forward, ones).values[0] == 1.0
    assert spmv_seq(reversed_, ones).values[0] == 0.0


@st.composite
def skewed_products(draw):
    """Many empty or 1 to 4 entry rows plus one full-width row, all of them
    canonical, with non-integer values and x."""
    n = draw(st.integers(5, 24))
    m = draw(st.integers(1, 24))
    full = draw(st.integers(0, m - 1))
    short = st.lists(st.integers(0, n - 1), unique=True, max_size=4).map(sorted)
    rows = [list(range(n)) if i == full else draw(short) for i in range(m)]
    col_idx = [j for row in rows for j in row]
    values = draw(st.lists(NON_INTEGER, min_size=len(col_idx),
                           max_size=len(col_idx)))
    x = draw(st.lists(NON_INTEGER, min_size=n, max_size=n))
    row_ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    return (CsrMatrix.sequential(row_ptr, col_idx, values, n=n),
            DenseVector.sequential(x))


ROWS = 32


@settings(max_examples=300, deadline=None)
@given(case=products(canonical=False) | skewed_products())
# a zero-row matrix
@example(case=(CsrMatrix.sequential([0], [], [], n=3),
               DenseVector.sequential([0.5, -1.5, 2.5])))
# many rows, all of them empty
@example(case=(CsrMatrix.sequential([0] * (ROWS + 1), [], [], n=2),
               DenseVector.sequential([0.5, -1.5])))
# +-0.0 against negative x: row 1's lone product is -0.0, which 0.0 + -0.0
# turns into 0.0
@example(case=(CsrMatrix.sequential([0, 2, 3], [2, 0, 1], [0.0, -0.0, 0.0], n=3),
               DenseVector.sequential([-1.5, -2.5, 0.5])))
# products that overflow to +inf and -inf, and inf + -inf = nan in row 2
@example(case=(CsrMatrix.sequential([0, 1, 2, 4], [0, 1, 1, 0],
                                    [1e300, -1e300, 1e300, -3e300], n=2),
               DenseVector.sequential([1e10, 1e300])))
# the order-sensitive row of test_spmv_accumulates_left_to_right, repeated
@example(case=(repeated_rows([0, 1, 2], [1e16, -1e16, 1.0], ROWS),
               DenseVector.sequential([1.0, 1.0, 1.0])))
# 1e16 then sixteen 1.0: added in order every 1.0 is lost, summed pairwise
# they are not
@example(case=(repeated_rows(list(range(17)), [1e16] + [1.0] * 16, ROWS),
               DenseVector.sequential([1.0] * 17)))
def test_kernel_equals_row_loop(case):
    mat, x = case
    assert spmv_seq(mat, x).values.tobytes() == spmv_by_row_loop(mat, x).tobytes()


@st.composite
def scaled_products(draw):
    """Up to 8 canonical rows of up to 40 entries, and x. NumPy, seeded by
    the draw, picks each row's columns and the values and x: non-integers
    of both signs with magnitudes in [2**-spread, 2**(spread + 1)), spread
    at most 40. Products, their error terms and every row sum then stay far
    from overflow and underflow, the scope in which two_products is exact
    and the summation bound below holds."""
    n = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(0, n), min_size=1, max_size=8))
    spread = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def scaled(size):
        v = np.ldexp(rng.uniform(1, 2, size) * rng.choice([-1.0, 1.0], size),
                     rng.integers(-spread, spread + 1, size))
        return np.where(v == np.trunc(v), v + np.copysign(0.5, v), v)

    col_idx = np.concatenate(
        [np.sort(rng.choice(n, k, replace=False)) for k in lengths])
    row_ptr = np.concatenate([[0], np.cumsum(lengths)])
    return (CsrMatrix.sequential(row_ptr, col_idx, scaled(len(col_idx)),
                                 n=n),
            DenseVector.sequential(scaled(n)))


U = Fraction(1, 2**53)


@settings(max_examples=200, deadline=None)
@given(case=scaled_products())
def test_kernel_is_within_the_summation_bound_of_the_exact_product(case):
    # a sum of n products in any order is within gamma_n * sum |a_i x_i| of
    # the exact sum, gamma_n = n u / (1 - n u) (Higham, Accuracy and
    # Stability of Numerical Algorithms, 3.1); the reference adds half its
    # own ulp, and the bound's sum, rounded once by fsum, is scaled by 1 + u.
    # Both sides are compared as rationals.
    mat, x = case
    y = spmv_seq(mat, x).values.tolist()
    exact = spmv_exact(mat, x).tolist()
    p, e = two_products(mat.values, x.values[mat.col_idx])
    e_along_p = np.sign(p) * e  # |p + e| = |p| + sign(p) e, as |e| < |p|
    rp = mat.row_ptr.tolist()
    for i, (lo, hi) in enumerate(zip(rp[:-1], rp[1:])):
        n = hi - lo
        magnitude = math.fsum([*np.abs(p[lo:hi]), *e_along_p[lo:hi]])
        bound = (n * U / (1 - n * U) * Fraction(magnitude) * (1 + U)
                 + Fraction(math.ulp(exact[i])) / 2)
        assert abs(Fraction(y[i]) - Fraction(exact[i])) <= bound, i


@settings(max_examples=100, deadline=None)
@given(case=scaled_products())
def test_exact_reference_equals_fractions(case):
    mat, x = case
    a, b = mat.values, x.values[mat.col_idx]
    products = [Fraction(v) * Fraction(w)
                for v, w in zip(a.tolist(), b.tolist())]
    p, e = two_products(a, b)
    assert [Fraction(v) + Fraction(w)
            for v, w in zip(p.tolist(), e.tolist())] == products
    rp = mat.row_ptr.tolist()
    # float() of a Fraction rounds once to nearest, as fsum does
    assert spmv_exact(mat, x).tolist() == [
        float(sum(products[lo:hi], Fraction(0)))
        for lo, hi in zip(rp[:-1], rp[1:])]


def test_kernel_equals_row_loop_across_blocks(monkeypatch):
    # blocks of at most 3 entries: small matrices cross many block
    # boundaries, and every longer row is a block of its own
    monkeypatch.setattr(spmvsim.core, "_BLOCK_ENTRIES", 3)
    test_kernel_equals_row_loop()


def test_kernel_equals_row_loop_at_scale():
    # the non-integer matrix of test_sorted_oracle_output_is_pinned: a
    # NumPy change to np.bincount's accumulation order fails here
    fx = generate(GenParams(M=3000, N=3000, row_fill=200, seed=1))
    rng = np.random.default_rng(7)
    nnz = len(fx.values)
    values = rng.normal(size=nnz) * 10.0 ** rng.integers(-8, 9, size=nnz)
    mat = CsrMatrix.sequential(fx.row_ptr, fx.col_idx, values, n=fx.N)
    x = DenseVector.sequential(rng.normal(size=fx.N))
    assert mat.nnz > 9 * spmvsim.core._BLOCK_ENTRIES
    assert spmv_seq(mat, x).values.tobytes() == spmv_by_row_loop(mat, x).tobytes()


def test_kernel_equals_row_loop_on_a_skewed_matrix():
    # 20000 x 20000, 0 to 4 entries per row plus one full row
    n = 20000
    rng = np.random.default_rng(11)
    lengths = rng.integers(0, 5, size=n)
    lengths[n // 2] = n
    col_idx = np.concatenate([rng.choice(n, size=k, replace=False)
                              for k in lengths])
    row_ptr = np.concatenate([[0], np.cumsum(lengths)])
    mat = CsrMatrix.sequential(row_ptr, col_idx,
                               rng.normal(size=len(col_idx)) * 1.37, n=n)
    x = DenseVector.sequential(rng.normal(size=n))
    assert spmv_seq(mat, x).values.tobytes() == spmv_by_row_loop(mat, x).tobytes()


@pytest.mark.parametrize("row_ptr", [[0], [0, 0, 0, 0]])
def test_spmv_without_entries_gives_float_positive_zeros(row_ptr):
    y = spmv_seq(CsrMatrix.sequential(row_ptr, [], [], n=2),
                 DenseVector.sequential([-1.5, 2.5])).values
    assert y.dtype == np.float64
    assert y.tolist() == [0.0] * (len(row_ptr) - 1)
    assert not np.signbit(y).any()


def test_spmv_paths_stay_silent_on_overflow():
    mat = CsrMatrix.sequential([0, 1], [0], [1e300], n=1)
    x = DenseVector.sequential([1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spmv_seq(mat, x).values.tolist() == [float("inf")]
        assert spmv_by_row_loop(mat, x).tolist() == [float("inf")]
        assert spmv_sorted_oracle(mat, x).values.tolist() == [float("inf")]
        assert residual_sq(DenseVector.sequential([1e300]),
                           DenseVector.sequential([-1e300])) == float("inf")


@settings(max_examples=300, deadline=None)
@given(pair=st.integers(0, 40).flatmap(
    lambda n: st.tuples(st.lists(FINITE, min_size=n, max_size=n),
                        st.lists(FINITE, min_size=n, max_size=n))))
@example(pair=([], []))
@example(pair=([-0.0, 0.0], [0.0, -0.0]))
# squares 1e16 then sixteen 1.0: added in order every 1.0 is lost, summed
# pairwise (as np.sum does) they are not
@example(pair=([1e8] + [1.0] * 16, [0.0] * 17))
def test_residual_equals_loop(pair):
    y, z = (DenseVector.sequential(v) for v in pair)
    got = residual_sq(y, z)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(
        residual_by_loop(y.values, z.values)).tobytes()


def test_residual_zero_on_equal(ref):
    z = ref.z_vector()
    assert residual_sq(z, ref.z_vector()) == 0.0


def test_residual_single_entry_difference(ref):
    # ref.z_vector() is read-only, so y takes a copy of z to edit
    y = DenseVector.sequential(ref.z.copy())
    y.values[0] += 1.0
    assert residual_sq(y, ref.z_vector()) == 1.0


def test_residual_rejects_length_mismatch():
    with pytest.raises(SizeMismatch):
        residual_sq(DenseVector.sequential([1.0]),
                    DenseVector.sequential([1.0, 2.0]))


def test_dense_from_csr_layout():
    dense = dense_from_csr(small_matrix())
    assert dense.shape == (3, 4)
    assert dense[0, 0] == 2.0
    assert dense[0, 3] == 1.0
    assert dense[1].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert dense[2, 2] == 5.0
    assert dense[2, 1] == 3.0


@settings(max_examples=300, deadline=None)
@given(case=products())
# empty rows
@example(case=(CsrMatrix.sequential([0, 0, 2, 2], [1, 3], [-2.25, 0.5], n=4),
               DenseVector.sequential([-1.5, 0.25, 2.5, -0.75])))
# a zero-row matrix
@example(case=(CsrMatrix.sequential([0], [], [], n=3),
               DenseVector.sequential([0.5, -1.5, 2.5])))
# explicit zeros against x of both signs: products of both signed zeros
@example(case=(CsrMatrix.sequential([0, 2, 3], [0, 2, 1], [0.0, 0.0, -0.0], n=3),
               DenseVector.sequential([-1.5, -2.5, 0.5])))
# products that overflow to +inf and -inf, and inf + -inf = nan in row 2
@example(case=(CsrMatrix.sequential([0, 1, 2, 4], [0, 1, 0, 1],
                                    [1e300, -1e300, -3e300, 1e300], n=2),
               DenseVector.sequential([1e10, 1e300])))
def test_sorted_oracle_equals_dense_oracle(case):
    mat, x = case
    sorted_y = spmv_sorted_oracle(mat, x).values
    dense_y = spmv_dense_oracle(dense_from_csr(mat), x).values
    assert sorted_y.tobytes() == dense_y.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=products() | skewed_products())
# a zero-row matrix
@example(case=(CsrMatrix.sequential([0], [], [], n=3),
               DenseVector.sequential([0.5, -1.5, 2.5])))
# many rows, all of them empty
@example(case=(CsrMatrix.sequential([0] * (ROWS + 1), [], [], n=2),
               DenseVector.sequential([0.5, -1.5])))
# +-0.0 against negative x: row 1's lone product is -0.0, which 0.0 + -0.0
# turns into 0.0
@example(case=(CsrMatrix.sequential([0, 2, 3], [0, 2, 1], [-0.0, 0.0, 0.0], n=3),
               DenseVector.sequential([-1.5, -2.5, 0.5])))
# products that overflow to +inf and -inf, and inf + -inf = nan, in one row
@example(case=(CsrMatrix.sequential([0, 1, 2, 4], [0, 1, 0, 1],
                                    [1e300, -1e300, -3e300, 1e300], n=2),
               DenseVector.sequential([1e10, 1e300])))
# 1e16, 1.0, -1e16 by ascending column: added in order the 1.0 is lost
@example(case=(CsrMatrix.sequential([0, 3], [0, 1, 2], [1e16, 1.0, -1e16], n=3),
               DenseVector.sequential([1.0, 1.0, 1.0])))
# one row longer than the 8192-element buffer np.add.at works through
@example(case=order_sensitive_row(10_000, seed=3))
def test_sorted_oracle_equals_entry_loop(case):
    mat, x = case
    assert (spmv_sorted_oracle(mat, x).values.tobytes()
            == oracle_by_entry_loop(mat, x).tobytes())


def test_sorted_oracle_equals_entry_loop_across_blocks(monkeypatch):
    # windows of 1 to 3 entries: small matrices cross many window
    # boundaries, and most rows longer than one are cut
    for window in (1, 2, 3):
        monkeypatch.setattr(spmvsim.core, "_BLOCK_ENTRIES", window)
        test_sorted_oracle_equals_entry_loop()


def row_ids_by_loop(row_ptr):
    """Row i once for each of its entries, one append at a time: the
    reference core._row_ids must equal."""
    rows = []
    for i in range(len(row_ptr) - 1):
        for _ in range(row_ptr[i], row_ptr[i + 1]):
            rows.append(i)
    return rows


@settings(max_examples=300, deadline=None)
@given(lengths=st.lists(st.integers(0, 5), max_size=30),
       base=st.integers(0, 40))
@example(lengths=[], base=0)  # m = 0
@example(lengths=[0, 0, 0], base=0)
@example(lengths=[2, spmvsim.core._BLOCK_ENTRIES + 1, 0, 1], base=3)
def test_row_ids_equal_loop(lengths, base):
    # the kernel, dense_from_csr and the Matrix Market exporter take their
    # row ids from this helper (the oracle has its own); a nonzero base is
    # a block's slice of a longer row pointer
    row_ptr = np.array(list(itertools.accumulate(lengths, initial=base)),
                       dtype=np.int64)
    rows = spmvsim.core._row_ids(row_ptr)
    assert rows.dtype == np.int64
    assert rows.tolist() == row_ids_by_loop(row_ptr.tolist())


# NumPy's Python-level wrappers of ndarray methods; see the core docstring
NUMPY_WRAPPERS = ("diff", "repeat", "searchsorted", "cumsum", "nonzero",
                  "sort", "argsort")


@pytest.mark.parametrize("block", [None, 3])
def test_per_call_paths_use_no_numpy_wrappers(monkeypatch, ref, block):
    def refuse(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"np.{name} called")
        return wrapper

    if block is not None:
        # every path works through many blocks, and some rows are longer
        # than a block
        monkeypatch.setattr(spmvsim.core, "_BLOCK_ENTRIES", block)
    for name in NUMPY_WRAPPERS:
        monkeypatch.setattr(np, name, refuse(name))
    mat, x, z = ref.matrix(), ref.x_vector(), ref.z_vector()
    assert validate_csr(mat) is None
    y = spmv_seq(mat, x)
    assert y.values.tolist() == REF_Z
    assert spmv_sorted_oracle(mat, x).values.tolist() == REF_Z
    assert residual_sq(y, z) == 0.0
    # 36 columns: two ranks gather with allgather, five with allgatherv
    for size, mode in ((2, "parallel"), (5, "serial")):
        assert run_distributed(ref, size, mode=mode).residual_sq == 0.0
    # an adjacent repeat in row 3 and a decrease in row 20: the first in
    # storage order is named, then, with row 3 mended, the second; the
    # fixture's col_idx is read-only, so the edits go to a copy
    mat.col_idx = mat.col_idx.copy()
    row3 = mat.col_idx[2:6].copy()
    mat.col_idx[3] = mat.col_idx[2]
    mat.col_idx[[23, 24]] = mat.col_idx[[24, 23]]
    assert validate_csr(mat) == "duplicate cell (3, 1) stored more than once"
    mat.col_idx[2:6] = row3
    assert validate_csr(mat) == "row 20 stores column 3 after column 28"


def test_sorted_oracle_temporaries_fit_in_one_block():
    # NumPy reports its buffers to tracemalloc: on the 303,617-entry
    # matrix, one nnz-sized array alone takes 2.4 MB, and on the one-row
    # matrix of 200,000 entries 1.6 MB
    fx = generate(GenParams(M=3000, N=3000, row_fill=200, seed=1))
    spmv_sorted_oracle(CsrMatrix.sequential([0, 1], [0], [1.0], n=1),
                       DenseVector.sequential([1.0]))  # lazy imports stay out
    for mat, x in ((fx.matrix(), fx.x_vector()),
                   order_sensitive_row(200_000, seed=5)):
        tracemalloc.start()
        try:
            spmv_sorted_oracle(mat, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (mat.m, peak)


def test_sorted_oracle_output_is_pinned():
    # integer fixtures sum exactly in any order, so pin non-integer data
    fx = generate(GenParams(M=3000, N=3000, row_fill=200, seed=1))
    rng = np.random.default_rng(7)
    nnz = len(fx.values)
    values = rng.normal(size=nnz) * 10.0 ** rng.integers(-8, 9, size=nnz)
    mat = CsrMatrix.sequential(fx.row_ptr, fx.col_idx, values, n=fx.N)
    y = spmv_sorted_oracle(mat, DenseVector.sequential(rng.normal(size=fx.N)))
    assert hashlib.sha256(y.values.tobytes()).hexdigest().startswith(
        "75f0adc0716ea043"), (
        f"oracle output changed under NumPy {np.__version__}: np.add.at "
        "may no longer accumulate in index order")


def test_sorted_oracle_rejects_width_mismatch():
    with pytest.raises(SizeMismatch, match="matrix width 4 != vector length 2"):
        spmv_sorted_oracle(small_matrix(), DenseVector.sequential([1.0, 2.0]))


def test_oracle_matches_kernel_on_reference(ref):
    mat = ref.matrix()
    x = ref.x_vector()
    y = spmv_seq(mat, x)
    oracle = spmv_dense_oracle(dense_from_csr(mat), x)
    assert np.array_equal(y.values, oracle.values)
    # rank 1's block at K = 3: the sorted-entry oracle reports the kernel's
    # local and global lengths
    local = extract_local(ref.row_ptr, ref.col_idx, ref.values,
                          build_layout(ref.M, 3), build_layout(ref.N, 3), 1)
    y = spmv_seq(local, x)
    oracle = spmv_sorted_oracle(local, x)
    assert (oracle.n, oracle.N) == (y.n, y.N) == (11, 32)
    assert np.array_equal(y.values, oracle.values)


def test_oracle_rejects_width_mismatch():
    dense = dense_from_csr(small_matrix())
    with pytest.raises(SizeMismatch):
        spmv_dense_oracle(dense, DenseVector.sequential([1.0, 2.0]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 24), n=st.integers(1, 24),
       fill=st.integers(0, 6))
def test_kernel_equals_oracle_on_generated(seed, m, n, fill):
    fx = generate(GenParams(M=m, N=n, row_fill=fill, seed=seed))
    mat = fx.matrix()
    x = fx.x_vector()
    y = spmv_seq(mat, x)
    oracle = spmv_dense_oracle(dense_from_csr(mat), x)
    assert np.array_equal(y.values, oracle.values)
    assert np.array_equal(y.values, fx.z)


def test_dense_vector_checks_declared_length():
    with pytest.raises(SizeMismatch):
        DenseVector(n=3, N=3, values=[1.0, 2.0])
    with pytest.raises(SizeMismatch):
        DenseVector(n=3, N=2, values=[1.0, 2.0, 3.0])
