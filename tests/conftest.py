import numpy as np
import pytest
from hypothesis import strategies as st

from spmvsim import reference_fixture

# non-integer floats, so a wrong placement or order cannot hide behind
# exactly representable integers
NON_INTEGER = st.floats(-1e3, 1e3, allow_nan=False).filter(
    lambda v: not v.is_integer())


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
