"""Distributed SpMV driver: correctness, gather paths, determinism."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spmvsim.distributed
from conftest import NON_INTEGER, spmv_by_row_loop
from spmvsim import (
    MAX_RANKS,
    CollectiveError,
    Fixture,
    GatherPath,
    GenParams,
    LayoutSumMismatch,
    RESIDUAL_TOLERANCE,
    check_pass,
    gather_x,
    generate,
    reference_fixture,
    run_distributed,
    spmv_seq,
    spmv_sorted_oracle,
    verify_distributed,
)
from spmvsim.collectives import exclusive_prefix_sums


def test_reference_runs_match_ground_truth(ref):
    for size in (1, 3, 5):
        report = run_distributed(ref, size)
        assert report.residual_sq == 0.0
        combined = np.concatenate(report.per_rank_y)
        assert np.array_equal(combined, ref.z)


def test_per_rank_result_lengths_follow_layout(ref):
    report = run_distributed(ref, 3)
    assert [len(y) for y in report.per_rank_y] == [11, 11, 10]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_rank_blocks_are_views_of_the_fixture(ref, monkeypatch, size):
    before = {name: getattr(ref, name).copy()
              for name in ("row_ptr", "col_idx", "values", "x", "z")}
    extract = spmvsim.distributed.extract_local
    blocks = []

    def spy(*args):
        blocks.append(extract(*args))
        return blocks[-1]

    monkeypatch.setattr(spmvsim.distributed, "extract_local", spy)
    assert run_distributed(ref, size).residual_sq == 0.0
    for name, array in before.items():
        assert getattr(ref, name).tobytes() == array.tobytes(), name
    assert len(blocks) == size
    for local in blocks:
        assert local.nnz
        assert np.shares_memory(local.col_idx, ref.col_idx)
        assert np.shares_memory(local.values, ref.values)


def test_gather_path_even_split(ref):
    report = run_distributed(ref, 4)  # 36 % 4 == 0
    assert report.gather_path is GatherPath.EQUAL_BLOCKS


def test_gather_path_uneven_split(ref):
    report = run_distributed(ref, 5)  # 36 % 5 == 1
    assert report.gather_path is GatherPath.UNEVEN_BLOCKS


def test_gather_path_explicit_equal_blocks(ref):
    # user-chosen equal split goes through the runtime equality check and
    # still lands on plain allgather
    report = run_distributed(ref, 2, explicit_col_sizes=[18, 18])
    assert report.gather_path is GatherPath.EQUAL_BLOCKS
    assert report.residual_sq == 0.0


def test_gather_path_explicit_unequal_blocks(ref):
    report = run_distributed(ref, 2, explicit_col_sizes=[20, 16])
    assert report.gather_path is GatherPath.UNEVEN_BLOCKS
    assert report.residual_sq == 0.0


def test_explicit_row_sizes(ref):
    report = run_distributed(ref, 2, explicit_row_sizes=[30, 2])
    assert [len(y) for y in report.per_rank_y] == [30, 2]
    assert np.array_equal(np.concatenate(report.per_rank_y), ref.z)


def test_explicit_layout_mismatch_raises_before_running(ref):
    with pytest.raises(LayoutSumMismatch, match="sum 31 != 32"):
        run_distributed(ref, 2, explicit_row_sizes=[16, 15])


def test_trace_ops_even_path(ref):
    report = run_distributed(ref, 4)
    ops = [r.op for r in report.trace.records]
    # two exscans, the x gather, the residual reduction; no size gather
    assert ops == (["exscan_sum"] * 4 + ["exscan_sum"] * 4
                   + ["allgather"] * 4 + ["allreduce_sum"] * 4)


def test_trace_ops_uneven_path(ref):
    report = run_distributed(ref, 5)
    ops = [r.op for r in report.trace.records]
    # the uneven branch first gathers the block lengths, then allgatherv
    assert ops == (["exscan_sum"] * 5 + ["exscan_sum"] * 5
                   + ["allgather"] * 5 + ["allgatherv"] * 5
                   + ["allreduce_sum"] * 5)


@pytest.mark.parametrize("mode", ["parallel", "serial"])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_rank_on_the_other_gather_branch_is_refused(ref, monkeypatch, size,
                                                    mode):
    # 36 columns split evenly, so every rank should take plain allgather;
    # rank 1 gathers the block lengths for allgatherv instead
    def rank_1_uneven(ctx, local_x, col_layout):
        if ctx.rank != 1:
            return gather_x(ctx, local_x, col_layout)
        counts = ctx.allgather(np.array([len(local_x)])).tolist()
        return ctx.allgatherv(local_x, counts, exclusive_prefix_sums(counts))

    monkeypatch.setattr(spmvsim.distributed, "gather_x", rank_1_uneven)
    with pytest.raises(CollectiveError):
        run_distributed(ref, size, mode=mode)


def test_perturbed_matrix_value_residual(ref):
    # +1 on the first stored entry changes y[0] by x[25] == 5, so the
    # squared residual is exactly 25
    ref.values[0] += 1.0
    report = run_distributed(ref, 3)
    assert report.residual_sq == 25.0
    assert not check_pass(report.residual_sq)


def test_perturbed_z_entry_residual(ref):
    ref.z[0] += 1.0
    report = run_distributed(ref, 3)
    assert report.residual_sq == 1.0
    assert not check_pass(report.residual_sq)


def test_check_pass_boundary():
    assert check_pass(0.0)
    assert check_pass(RESIDUAL_TOLERANCE)
    assert not check_pass(np.nextafter(RESIDUAL_TOLERANCE, 1.0))
    assert not check_pass(1.0)


def test_more_ranks_than_rows():
    fx = generate(GenParams(M=4, N=6, row_fill=3, seed=2))
    report = run_distributed(fx, 6)
    assert report.residual_sq == 0.0
    assert [len(y) for y in report.per_rank_y] == [1, 1, 1, 1, 0, 0]
    assert np.array_equal(np.concatenate(report.per_rank_y), fx.z)


def test_distributed_equals_sequential_on_generated():
    fx = generate(GenParams(M=23, N=17, target_nnz=60, seed=9))
    seq = spmv_seq(fx.matrix(), fx.x_vector())
    for size in (1, 2, 4, 5, 8):
        report = run_distributed(fx, size)
        assert np.array_equal(np.concatenate(report.per_rank_y), seq.values)


def test_modes_agree_bitwise(ref):
    a = run_distributed(ref, 7, mode="parallel")
    b = run_distributed(ref, 7, mode="serial")
    assert a.residual_sq == b.residual_sq
    assert all(np.array_equal(x, y) for x, y in zip(a.per_rank_y, b.per_rank_y))
    assert a.gather_path == b.gather_path
    assert a.trace.dump() == b.trace.dump()


def test_size_must_be_positive(ref):
    with pytest.raises(ValueError):
        run_distributed(ref, 0)


def test_report_carries_layouts(ref):
    report = run_distributed(ref, 5)
    assert report.row_layout.local_sizes == (7, 7, 6, 6, 6)
    assert report.col_layout.local_sizes == (8, 7, 7, 7, 7)
    assert report.col_layout.starts == (0, 8, 15, 22, 29)


def with_oracle_z(fx):
    """fx with z recomputed by the sorted-entry oracle."""
    fx.z = spmv_sorted_oracle(fx.matrix(), fx.x_vector()).values
    return fx


def non_integer_reference():
    """The reference structure with non-integer values and x."""
    fx = reference_fixture()
    fx.values = fx.values * 0.1 + 1 / 3
    fx.x = fx.x / 7
    return with_oracle_z(fx)


@st.composite
def splits(draw, total, size):
    """None for the default block layout, or size block sizes that sum to
    total, zero-size blocks included."""
    if draw(st.booleans()):
        return None
    cuts = draw(st.lists(st.integers(0, total), min_size=size - 1,
                         max_size=size - 1))
    return np.diff([0, *sorted(cuts), total]).tolist()


@st.composite
def distributed_cases(draw):
    """A fixture with non-integer values and columns in any order within a
    row, a rank count, and row and column splits."""
    m, n = draw(st.integers(0, 10)), draw(st.integers(1, 10))
    rows = [draw(st.lists(st.integers(0, n - 1), unique=True))
            for _ in range(m)]
    col_idx = [j for row in rows for j in row]
    fx = with_oracle_z(Fixture(
        M=m, N=n, row_ptr=np.cumsum([0] + [len(r) for r in rows]),
        col_idx=col_idx,
        values=draw(st.lists(NON_INTEGER, min_size=len(col_idx),
                             max_size=len(col_idx))),
        x=draw(st.lists(NON_INTEGER, min_size=n, max_size=n)), z=[]))
    size = draw(st.integers(1, 8))
    return fx, size, draw(splits(m, size)), draw(splits(n, size))


# rank counts stay within MAX_RANKS: a test never starts more threads
@settings(max_examples=80, deadline=None)
@given(case=distributed_cases())
@example(case=(non_integer_reference(), MAX_RANKS, None, None))
@example(case=(non_integer_reference(), MAX_RANKS,
               [0] * (MAX_RANKS - 1) + [32], [36] + [0] * (MAX_RANKS - 1)))
def test_distributed_run_equals_sequential(case):
    fx, size, row_sizes, col_sizes = case
    seq = spmv_seq(fx.matrix(), fx.x_vector()).values
    runs = []
    for mode in ("parallel", "serial"):
        run = run_distributed(fx, size, row_sizes, col_sizes, mode=mode)
        assert np.concatenate(run.per_rank_y).tobytes() == seq.tobytes()
        assert verify_distributed(fx, size, row_sizes, col_sizes,
                                  mode=mode).overall
        runs.append(run)
    parallel, serial = runs
    assert parallel.residual_sq.hex() == serial.residual_sq.hex()
    assert parallel.trace.dump() == serial.trace.dump()


def order_sensitive_fixture():
    """256 rows of 1 to 8 entries with non-integer values and x, so that
    every rank block at K <= 4 has at least 64 rows. Every other row starts
    with a 1e16 product, and its later products of 1 to 2 each round the
    sum, so any other summation order changes bits."""
    m, n = 256, 40
    rng = np.random.default_rng(5)
    lengths = np.arange(m) % 8 + 1
    col_idx = np.concatenate([np.sort(rng.choice(n, size=k, replace=False))
                              for k in lengths])
    row_ptr = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.uniform(0.9, 1.3, size=len(col_idx))
    values[row_ptr[:-1:2]] = 1e16
    return with_oracle_z(Fixture(M=m, N=n, row_ptr=row_ptr, col_idx=col_idx,
                                 values=values, x=rng.uniform(1.1, 1.6, n),
                                 z=[]))


@pytest.mark.parametrize("mode", ["parallel", "serial"])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_rank_sweeps_equal_row_loop_on_order_sensitive_rows(size, mode):
    fx = order_sensitive_fixture()
    run = run_distributed(fx, size, mode=mode)
    y = np.concatenate(run.per_rank_y).tobytes()
    assert y == spmv_seq(fx.matrix(), fx.x_vector()).values.tobytes()
    assert y == spmv_by_row_loop(fx.matrix(), fx.x_vector()).tobytes()
    assert verify_distributed(fx, size, mode=mode).overall
