"""CSR validation, the kernel, residual, and the two oracles."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spmvsim.core
from conftest import NON_INTEGER, csr_matrices, spmv_by_row_loop
from spmvsim import (
    CsrMatrix,
    DenseVector,
    DuplicateEntry,
    GenParams,
    SizeMismatch,
    build_layout,
    dense_from_csr,
    extract_local,
    generate,
    residual_sq,
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
def products(draw, unique_columns=True):
    """A matrix, without duplicate cells if unique_columns, and an x of its
    width, both drawn from FINITE."""
    mat = draw(csr_matrices(unique_columns=unique_columns, values=FINITE))
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
    report = validate_csr(ref.matrix())
    assert report.ok
    assert report.violations == []


def test_validate_accepts_empty_matrix():
    mat = CsrMatrix.sequential(row_ptr=[0, 0], col_idx=[], values=[], n=3)
    assert validate_csr(mat).ok


def test_validate_rejects_nonzero_first_pointer():
    mat = CsrMatrix.sequential([1, 2], [0], [1.0], n=2)
    report = validate_csr(mat)
    assert not report.ok
    assert any("row_ptr[0]" in v for v in report.violations)


def test_validate_rejects_decreasing_pointer():
    mat = CsrMatrix.sequential([0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0], n=2)
    report = validate_csr(mat)
    assert not report.ok
    assert any("decreases" in v for v in report.violations)


def test_validate_rejects_pointer_count_disagreement():
    mat = CsrMatrix.sequential([0, 1], [0, 1], [1.0, 1.0], n=2)
    report = validate_csr(mat)
    assert not report.ok
    assert any("row_ptr[m]" in v for v in report.violations)


def test_validate_rejects_column_out_of_range():
    mat = CsrMatrix.sequential([0, 1], [5], [1.0], n=2)
    report = validate_csr(mat)
    assert not report.ok
    assert any("out of range" in v for v in report.violations)


def test_validate_rejects_bad_local_block():
    mat = CsrMatrix(m=2, n=2, M=3, N=2, rstart=2, cstart=0,
                    row_ptr=[0, 0, 0], col_idx=[], values=[])
    report = validate_csr(mat)
    assert not report.ok
    assert any("row block" in v for v in report.violations)


def test_validate_collects_every_violation():
    # bad first pointer and a column out of range at once
    mat = CsrMatrix.sequential([1, 2], [9], [1.0], n=2)
    report = validate_csr(mat)
    assert len(report.violations) >= 2


def test_validate_rejects_duplicate_cell():
    mat = CsrMatrix.sequential([0, 1, 3], [2, 0, 0], [1.5, 2.5, 3.5], n=3)
    report = validate_csr(mat)
    assert not report.ok
    assert report.violations == ["duplicate cell (1, 0) stored more than once"]
    assert report.duplicate_cell == (1, 0)


@settings(max_examples=300, deadline=None)
@given(mat=csr_matrices(unique_columns=False))
def test_validate_flags_duplicates_like_a_set(mat):
    pairs = [(i, int(j)) for i in range(mat.m)
             for j in mat.col_idx[mat.row_ptr[i]:mat.row_ptr[i + 1]]]
    seen, repeated = set(), set()
    for pair in pairs:
        (repeated if pair in seen else seen).add(pair)
    report = validate_csr(mat)
    assert report.ok == (not repeated)
    assert report.duplicate_cell == (min(repeated) if repeated else None)


@settings(max_examples=300, deadline=None)
@given(mat=csr_matrices(unique_columns=True))
@example(mat=CsrMatrix.sequential([0, 0, 2, 2], [3, 1], [0.5, -2.25], n=4))
@example(mat=CsrMatrix.sequential([0], [], [], n=3))
def test_dense_from_csr_equals_entry_loop(mat):
    dense = dense_from_csr(mat).values
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
    """Many empty or 1 to 4 entry rows plus one full-width row in shuffled
    column order, with non-integer values and x."""
    n = draw(st.integers(5, 24))
    m = draw(st.integers(1, 24))
    full = draw(st.integers(0, m - 1))
    short = st.lists(st.integers(0, n - 1), unique=True, max_size=4)
    rows = [draw(st.permutations(range(n))) if i == full else draw(short)
            for i in range(m)]
    col_idx = [j for row in rows for j in row]
    values = draw(st.lists(NON_INTEGER, min_size=len(col_idx),
                           max_size=len(col_idx)))
    x = draw(st.lists(NON_INTEGER, min_size=n, max_size=n))
    row_ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    return (CsrMatrix.sequential(row_ptr, col_idx, values, n=n),
            DenseVector.sequential(x))


ROWS = 32


@settings(max_examples=300, deadline=None)
@given(case=products(unique_columns=False) | skewed_products())
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
    y = ref.z_vector()
    y.values[0] += 1.0
    assert residual_sq(y, ref.z_vector()) == 1.0


def test_residual_rejects_length_mismatch():
    with pytest.raises(SizeMismatch):
        residual_sq(DenseVector.sequential([1.0]),
                    DenseVector.sequential([1.0, 2.0]))


def test_dense_from_csr_layout():
    dense = dense_from_csr(small_matrix())
    assert dense.values.shape == (3, 4)
    assert dense.values[0, 0] == 2.0
    assert dense.values[0, 3] == 1.0
    assert dense.values[1].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert dense.values[2, 2] == 5.0
    assert dense.values[2, 1] == 3.0


def test_dense_from_csr_rejects_duplicates():
    mat = CsrMatrix.sequential([0, 2], [1, 1], [2.0, 3.0], n=2)
    with pytest.raises(DuplicateEntry):
        dense_from_csr(mat)


def test_dense_from_csr_rejects_invalid():
    mat = CsrMatrix.sequential([1, 2], [0], [1.0], n=2)
    with pytest.raises(ValueError, match="invalid CSR"):
        dense_from_csr(mat)


@settings(max_examples=300, deadline=None)
@given(case=products())
# empty rows
@example(case=(CsrMatrix.sequential([0, 0, 2, 2], [3, 1], [0.5, -2.25], n=4),
               DenseVector.sequential([-1.5, 0.25, 2.5, -0.75])))
# a zero-row matrix
@example(case=(CsrMatrix.sequential([0], [], [], n=3),
               DenseVector.sequential([0.5, -1.5, 2.5])))
# explicit zeros against negative x: every product is -0.0
@example(case=(CsrMatrix.sequential([0, 2, 3], [2, 0, 1], [0.0, 0.0, -0.0], n=3),
               DenseVector.sequential([-1.5, -2.5, 0.5])))
# products that overflow to +inf and -inf, and inf + -inf = nan in row 2
@example(case=(CsrMatrix.sequential([0, 1, 2, 4], [0, 1, 1, 0],
                                    [1e300, -1e300, 1e300, -3e300], n=2),
               DenseVector.sequential([1e10, 1e300])))
def test_sorted_oracle_equals_dense_oracle(case):
    mat, x = case
    sorted_y = spmv_sorted_oracle(mat, x).values
    dense_y = spmv_dense_oracle(dense_from_csr(mat), x).values
    assert sorted_y.tobytes() == dense_y.tobytes()


def order_sensitive_row(n, seed):
    """One row of n entries in shuffled column order, with values whose sum
    depends on the order they are added in."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    return (CsrMatrix.sequential([0, n], rng.permutation(n), values, n=n),
            DenseVector.sequential(rng.normal(size=n)))


@settings(max_examples=300, deadline=None)
@given(case=products())
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
# products that overflow to +inf and -inf, and inf + -inf = nan, in one row
@example(case=(CsrMatrix.sequential([0, 1, 2, 4], [0, 1, 1, 0],
                                    [1e300, -1e300, 1e300, -3e300], n=2),
               DenseVector.sequential([1e10, 1e300])))
# 1e16, 1.0, -1e16 by ascending column, stored with the columns reversed
@example(case=(CsrMatrix.sequential([0, 3], [2, 1, 0], [-1e16, 1.0, 1e16], n=3),
               DenseVector.sequential([1.0, 1.0, 1.0])))
# one row longer than the 8192-element buffer np.add.at works through
@example(case=order_sensitive_row(10_000, seed=3))
def test_sorted_oracle_equals_entry_loop(case):
    mat, x = case
    assert (spmv_sorted_oracle(mat, x).values.tobytes()
            == oracle_by_entry_loop(mat, x).tobytes())


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
