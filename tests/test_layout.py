"""Block distribution arithmetic and local submatrix extraction."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spmvsim import (
    CollectiveEngine,
    GenParams,
    LayoutSumMismatch,
    block_local_size,
    build_layout,
    extract_local,
    generate,
    reference_fixture,
    spmv_seq,
    validate_csr,
)


def test_block_sizes_32_over_3():
    assert [block_local_size(32, 3, r) for r in range(3)] == [11, 11, 10]


def test_block_sizes_36_over_5():
    assert [block_local_size(36, 5, r) for r in range(5)] == [8, 7, 7, 7, 7]


def test_block_sizes_even_split():
    assert [block_local_size(36, 3, r) for r in range(3)] == [12, 12, 12]


def test_block_sizes_more_ranks_than_rows():
    assert [block_local_size(4, 6, r) for r in range(6)] == [1, 1, 1, 1, 0, 0]


def test_block_size_argument_checks():
    with pytest.raises(ValueError):
        block_local_size(10, 0, 0)
    with pytest.raises(ValueError):
        block_local_size(10, 2, 2)
    with pytest.raises(ValueError):
        block_local_size(-1, 2, 0)


def test_build_layout_default_starts():
    layout = build_layout(32, 3)
    assert layout.local_sizes == (11, 11, 10)
    assert layout.starts == (0, 11, 22)
    assert layout.total == 32
    assert not layout.explicit


def test_build_layout_uneven_starts():
    layout = build_layout(36, 5)
    assert layout.local_sizes == (8, 7, 7, 7, 7)
    assert layout.starts == (0, 8, 15, 22, 29)


def test_build_layout_explicit():
    layout = build_layout(32, 2, [20, 12])
    assert layout.local_sizes == (20, 12)
    assert layout.starts == (0, 20)
    assert layout.explicit


def test_build_layout_explicit_sum_mismatch_is_eager():
    with pytest.raises(LayoutSumMismatch, match="sum 31 != 32"):
        build_layout(32, 2, [16, 15])


@pytest.mark.parametrize("sizes, message", [
    ([32], "expected 2 block sizes, got 1"),
    ([33, -1], "block sizes must be >= 0, got (33, -1)"),
    ([-2, -3], "block sizes must be >= 0, got (-2, -3)"),
])
def test_build_layout_bad_explicit_split_is_a_mismatch(sizes, message):
    with pytest.raises(LayoutSumMismatch, match=re.escape(message)):
        build_layout(32, 2, sizes)


@pytest.mark.parametrize("total, size, message", [
    (4, 0, "size must be >= 1, got 0"),
    (4, -2, "size must be >= 1, got -2"),
    (-1, 2, "total must be >= 0, got -1"),
])
@pytest.mark.parametrize("explicit", [None, [2, 2]])
def test_build_layout_argument_checks(total, size, message, explicit):
    # checked before any explicit split is looked at
    with pytest.raises(ValueError, match=re.escape(message)):
        build_layout(total, size, explicit)


def test_build_layout_explicit_rejects_negative_and_wrong_count():
    with pytest.raises(ValueError):
        build_layout(4, 2, [5, -1])
    with pytest.raises(ValueError):
        build_layout(4, 2, [2, 1, 1])


def test_local_range():
    layout = build_layout(36, 5)
    assert layout.local_range(0) == (0, 8)
    assert layout.local_range(4) == (29, 36)


@given(total=st.integers(0, 500), size=st.integers(1, 32))
def test_block_sizes_sum_and_balance(total, size):
    sizes = [block_local_size(total, size, r) for r in range(size)]
    assert sum(sizes) == total
    assert max(sizes) - min(sizes) <= 1
    # remainder goes to the lowest ranks, so sizes never increase
    assert sorted(sizes, reverse=True) == sizes


@given(total=st.integers(0, 500), size=st.integers(1, 32))
def test_layout_starts_are_prefix_sums(total, size):
    layout = build_layout(total, size)
    acc = 0
    for r in range(size):
        assert layout.starts[r] == acc
        acc += layout.local_sizes[r]
    assert acc == total


def test_starts_match_engine_exscan():
    # the layout's precomputed starts must be exactly what a live exscan
    # over per-rank sizes yields
    for total in (0, 1, 7, 31, 32, 36, 100, 199, 200):
        for size in range(1, 9):
            layout = build_layout(total, size)

            def program(ctx):
                return ctx.exscan_sum(layout.local_sizes[ctx.rank])

            offsets = CollectiveEngine(size).run(program)
            assert tuple(offsets) == layout.starts, (total, size)


def test_extract_local_reference_rank0_of_3():
    fx = reference_fixture()
    rows = build_layout(fx.M, 3)
    cols = build_layout(fx.N, 3)
    local = extract_local(fx.row_ptr, fx.col_idx, fx.values, rows, cols, 0)
    assert local.m == 11
    assert local.rstart == 0
    # first 11 rows of the global pointer, unshifted since the base is 0
    assert local.row_ptr.tolist() == [0, 1, 1, 2, 6, 9, 10, 10, 11, 11, 13, 13]
    assert np.array_equal(local.col_idx, fx.col_idx[:13])
    assert np.array_equal(local.values, fx.values[:13])


def test_extract_local_reference_rank1_of_3():
    fx = reference_fixture()
    rows = build_layout(fx.M, 3)
    cols = build_layout(fx.N, 3)
    local = extract_local(fx.row_ptr, fx.col_idx, fx.values, rows, cols, 1)
    assert local.m == 11
    assert local.rstart == 11
    assert local.cstart == 12
    # global pointer over rows 11..22 shifted down by row_ptr[11] == 13
    assert local.row_ptr.tolist() == [0, 0, 3, 4, 5, 5, 6, 7, 9, 10, 14, 15]
    assert np.array_equal(local.col_idx, fx.col_idx[13:28])
    assert np.array_equal(local.values, fx.values[13:28])
    # column indices stay global
    assert local.col_idx.max() >= local.n


def test_extract_local_blocks_are_read_only():
    fx = reference_fixture()
    before = (fx.col_idx.tobytes(), fx.values.tobytes())
    rows = build_layout(fx.M, 3)
    cols = build_layout(fx.N, 3)
    local = extract_local(fx.row_ptr, fx.col_idx, fx.values, rows, cols, 1)
    with pytest.raises(ValueError, match="read-only"):
        local.col_idx[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        local.values[-1] += 1.0
    assert (fx.col_idx.tobytes(), fx.values.tobytes()) == before
    # only the views are read-only, not the fixture's own arrays
    assert fx.col_idx.flags.writeable and fx.values.flags.writeable


def test_extract_local_zero_row_rank():
    fx = generate(GenParams(M=4, N=4, row_fill=2, seed=5))
    rows = build_layout(fx.M, 6)
    cols = build_layout(fx.N, 6)
    local = extract_local(fx.row_ptr, fx.col_idx, fx.values, rows, cols, 5)
    assert local.m == 0
    assert local.row_ptr.tolist() == [0]
    assert local.nnz == 0


def test_extract_local_pieces_validate_and_recombine():
    fx = reference_fixture()
    for size in (1, 2, 3, 5, 8):
        rows = build_layout(fx.M, size)
        cols = build_layout(fx.N, size)
        col_parts = []
        val_parts = []
        total_rows = 0
        for rank in range(size):
            local = extract_local(fx.row_ptr, fx.col_idx, fx.values,
                                  rows, cols, rank)
            assert validate_csr(local) is None, (size, rank)
            col_parts.append(local.col_idx)
            val_parts.append(local.values)
            total_rows += local.m
        assert total_rows == fx.M
        assert np.array_equal(np.concatenate(col_parts), fx.col_idx)
        assert np.array_equal(np.concatenate(val_parts), fx.values)


def test_extract_local_slices_equal_per_row_multiply():
    # multiplying each extracted block against the full x must tile the
    # sequential product
    fx = generate(GenParams(M=13, N=9, target_nnz=30, seed=11))
    full = spmv_seq(fx.matrix(), fx.x_vector())
    for size in (2, 4, 7):
        rows = build_layout(fx.M, size)
        cols = build_layout(fx.N, size)
        parts = []
        for rank in range(size):
            local = extract_local(fx.row_ptr, fx.col_idx, fx.values,
                                  rows, cols, rank)
            parts.append(spmv_seq(local, fx.x_vector()).values)
        assert np.array_equal(np.concatenate(parts), full.values)


def test_extract_local_rank_check():
    fx = reference_fixture()
    rows = build_layout(fx.M, 2)
    cols = build_layout(fx.N, 2)
    with pytest.raises(ValueError):
        extract_local(fx.row_ptr, fx.col_idx, fx.values, rows, cols, 2)
