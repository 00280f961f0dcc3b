import numpy as np
import pytest
from hypothesis import strategies as st

from spmvsim import CsrMatrix, reference_fixture

# non-integer floats, so a wrong placement or order cannot hide behind
# exactly representable integers
NON_INTEGER = st.floats(-1e3, 1e3, allow_nan=False).filter(
    lambda v: not v.is_integer())


@st.composite
def csr_matrices(draw, unique_columns, values=NON_INTEGER):
    """Small sequential matrices with unsorted columns within each row;
    rows may be empty, and repeat a column unless unique_columns."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    cols = st.lists(st.integers(0, n - 1), unique=unique_columns,
                    max_size=n if unique_columns else n + 2)
    rows = [draw(cols) for _ in range(m)]
    col_idx = [j for row in rows for j in row]
    values = draw(st.lists(values, min_size=len(col_idx),
                           max_size=len(col_idx)))
    row_ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    return CsrMatrix.sequential(row_ptr.astype(np.int64), col_idx, values, n=n)


@pytest.fixture
def ref():
    return reference_fixture()


def assert_fixture_equal(a, b, *, include_metadata=True):
    assert a.M == b.M
    assert a.N == b.N
    for name in ("row_ptr", "col_idx", "values", "x", "z"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    if include_metadata:
        assert a.metadata == b.metadata
