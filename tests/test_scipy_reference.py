"""SciPy as a third reference: its CSR product and Matrix Market files.

SciPy's csr_matrix @ x is a compiled row loop, sum += a * x[j] from 0.0 in
storage order, in code that shares nothing with spmv_seq's np.bincount or
spmv_sorted_oracle's np.add.at. If a NumPy release changed how both of those
accumulate, the kernel and the oracle could still agree with each other;
they would not agree with SciPy.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NON_INTEGER, csr_matrices, order_sensitive_row
from spmvsim import (
    CsrMatrix,
    DenseVector,
    GenParams,
    export_matrix_market,
    generate,
    import_matrix_market,
    spmv_seq,
    spmv_sorted_oracle,
)

sparse = pytest.importorskip("scipy.sparse", reason="SciPy is not installed")
scipy_io = pytest.importorskip("scipy.io", reason="SciPy is not installed")


def scipy_product(mat, x):
    return sparse.csr_matrix((mat.values, mat.col_idx, mat.row_ptr),
                             shape=(mat.m, mat.N)) @ x.values


# a1 * x1 = 1 + 2**-29 + 2**-60 rounds to 1 + 2**-29, which a0 * x0
# cancels: added unfused the row is 0.0, while a fused multiply-add keeps
# the 2**-60
CANARY = (CsrMatrix.sequential([0, 2], [0, 1], [-(1 + 2**-29), 1 + 2**-30],
                               n=2),
          DenseVector.sequential([1.0, 1 + 2**-30]))
SCIPY_FUSES = scipy_product(*CANARY).tolist() != [0.0]

# non-integral values, signed zeros, magnitudes whose products or sums
# overflow to +-inf and then to nan, and every other finite double
VALUES = (NON_INTEGER | st.sampled_from([0.0, -0.0, 1e300, -1e300])
          | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def products(draw):
    mat = draw(csr_matrices(canonical=True, values=VALUES))
    x = draw(st.lists(VALUES, min_size=mat.N, max_size=mat.N))
    return mat, DenseVector.sequential(x)


def assert_same_results(a, b):
    """Equal bit for bit outside NaN, and NaN in the same places: a NaN's
    payload and sign depend on which operation made it."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def test_kernel_and_oracle_add_the_canary_row_unfused():
    assert spmv_seq(*CANARY).values.tolist() == [0.0]
    assert spmv_sorted_oracle(*CANARY).values.tolist() == [0.0]


@pytest.mark.skipif(SCIPY_FUSES, reason="SciPy's CSR product fuses multiply "
                    "and add on this build, so its row sums differ from an "
                    "unfused row loop")
@settings(max_examples=300, deadline=None)
@given(case=products())
# empty rows around a row of 1e16, 1.0, -1e16: added in order the 1.0 is lost
@example(case=(CsrMatrix.sequential([0, 0, 3, 3], [0, 1, 2],
                                    [1e16, 1.0, -1e16], n=3),
               DenseVector.sequential([1.0, 1.0, 1.0])))
# -0.0 products, which 0.0 + -0.0 turns into 0.0, and inf + -inf = nan
@example(case=(CsrMatrix.sequential([0, 2, 4], [0, 1, 0, 1],
                                    [-0.0, 0.0, 1e300, -1e300], n=2),
               DenseVector.sequential([1.5, 1e300])))
# one row longer than any of the kernel's or the oracle's blocks
@example(case=order_sensitive_row(40_000, seed=2))
def test_kernel_oracle_and_scipy_agree(case):
    mat, x = case
    y = spmv_seq(mat, x).values
    assert_same_results(y, spmv_sorted_oracle(mat, x).values)
    assert_same_results(y, scipy_product(mat, x))


def non_integral_fixture():
    """A generated fixture with non-integral values over 10**+-300."""
    fx = generate(GenParams(M=60, N=50, row_fill=12, seed=4))
    rng = np.random.default_rng(4)
    fx.values = (rng.normal(size=fx.nnz)
                 * 10.0 ** rng.integers(-300, 301, size=fx.nnz))
    fx.z = spmv_sorted_oracle(fx.matrix(), fx.x_vector()).values
    return fx


def test_scipy_reads_exported_matrix_market(tmp_path):
    fx = non_integral_fixture()
    path = tmp_path / "a.mtx"
    export_matrix_market(fx, path)
    got = sparse.csr_matrix(scipy_io.mmread(path))
    assert got.shape == (fx.M, fx.N)
    assert np.array_equal(got.indptr, fx.row_ptr)
    assert np.array_equal(got.indices, fx.col_idx)
    assert got.data.tobytes() == fx.values.tobytes()


def test_import_reads_scipy_matrix_market(tmp_path):
    fx = non_integral_fixture()
    path = tmp_path / "a.mtx"
    scipy_io.mmwrite(path, sparse.csr_matrix(
        (fx.values, fx.col_idx, fx.row_ptr), shape=(fx.M, fx.N)),
        field="real", precision=17, symmetry="general")
    back = import_matrix_market(path)
    assert (back.M, back.N) == (fx.M, fx.N)
    assert np.array_equal(back.row_ptr, fx.row_ptr)
    assert np.array_equal(back.col_idx, fx.col_idx)
    assert back.values.tobytes() == fx.values.tobytes()
