"""Structured verification reports."""

import dataclasses
import sys

import numpy as np
import pytest

import spmvsim.collectives
import spmvsim.distributed
import spmvsim.layout
import spmvsim.verify
from spmvsim import (
    MAX_RANKS,
    RESIDUAL_TOLERANCE,
    CollectiveMismatch,
    Fixture,
    GenParams,
    RankContext,
    build_layout,
    export_matrix_market,
    extract_local,
    generate,
    import_matrix_market,
    read_fixture,
    reference_fixture,
    run_distributed,
    spmv_seq,
    spmv_sorted_oracle,
    validate_csr,
    verify_distributed,
    verify_sequential,
    write_fixture,
)
from spmvsim.collectives import exclusive_prefix_sums


def check_names(report):
    return [c.name for c in report.checks]


def test_sequential_reference_passes(ref):
    report = verify_sequential(ref)
    assert report.overall
    assert check_names(report) == ["kernel-matches-oracle",
                                   "residual-within-tolerance"]


def test_sequential_detects_corrupt_z(ref):
    ref.z[0] += 1.0
    report = verify_sequential(ref)
    assert not report.overall
    by_name = {c.name: c for c in report.checks}
    # the kernel still agrees with the oracle; only the residual fails
    assert by_name["kernel-matches-oracle"].passed
    assert not by_name["residual-within-tolerance"].passed
    assert "1.0" in by_name["residual-within-tolerance"].detail
    # every check was still evaluated
    assert len(report.checks) == 2


def invalid_fixtures():
    """Fixtures that fail validate_fixture, each with the text its failed
    input-valid check must name."""
    duplicate, non_finite, short_z, short_ptr, long_ptr, offset_ptr = (
        reference_fixture() for _ in range(6))
    duplicate.col_idx[3] = duplicate.col_idx[2]
    non_finite.x[4] = float("inf")  # column 4 is never stored
    short_z.z = short_z.z[:-1]
    short_ptr.row_ptr = short_ptr.row_ptr[:-1]
    long_ptr.row_ptr[-1] = 60
    offset_ptr.row_ptr[0] = 1
    return [
        (duplicate, "duplicate cell (3, 1)"),
        (non_finite, "non-finite x[4] = inf"),
        (short_z, "z has 31 entries, expected 32"),
        (short_ptr, "row_ptr has 32 entries, expected 33"),
        (long_ptr, "row_ptr[m] = 60 != stored entry count 49"),
        (offset_ptr, "row_ptr[0] != 0 (got 1)"),
        # one-row matrices: a cell stored twice, a row pointer off zero
        (Fixture(M=1, N=2, row_ptr=[0, 2], col_idx=[1, 1], values=[2.0, 3.0],
                 x=[1.0, 2.0], z=[10.0]), "duplicate cell (0, 1)"),
        (Fixture(M=1, N=2, row_ptr=[1, 2], col_idx=[0], values=[1.0],
                 x=[1.0, 2.0], z=[1.0]), "row_ptr[0] != 0 (got 1)"),
    ]


def test_sequential_invalid_input_is_a_failed_check():
    # both verifiers gate on validate_fixture before anything else runs
    for fx, named in invalid_fixtures():
        reports = [verify_sequential(fx)]
        reports += [verify_distributed(fx, size, mode=mode)
                    for size in (1, 2) for mode in ("parallel", "serial")]
        for report in reports:
            assert not report.overall
            assert check_names(report) == ["input-valid"]
            assert named in report.checks[0].detail


def patch_bindings(monkeypatch, original, replacement):
    """Replace original in every package module that binds it by name."""
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "spmvsim" and name != "spmvsim"
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, replacement)


@pytest.fixture
def validate_csr_calls(monkeypatch):
    """Every validate_csr call made through a package module, by entry count."""
    calls = []

    def counting(mat):
        calls.append(mat.nnz)
        return validate_csr(mat)

    patch_bindings(monkeypatch, validate_csr, counting)
    return calls


def test_validate_csr_runs_once_per_checked_call(tmp_path, validate_csr_calls):
    # input is validated once at the boundary; the generator builds valid
    # matrices and the kernel, oracle and distributed run trust their input
    fx = reference_fixture()
    write_fixture(fx, tmp_path / "ref.fx")
    export_matrix_market(fx, tmp_path / "ref.mtx")
    calls = {
        "generate": (0, lambda: generate(GenParams(M=20, N=30, row_fill=5))),
        "read_fixture": (1, lambda: read_fixture(tmp_path / "ref.fx")),
        "read_fixture unchecked": (1, lambda: read_fixture(
            tmp_path / "ref.fx", check_ground_truth=False)),
        "import_matrix_market": (
            1, lambda: import_matrix_market(tmp_path / "ref.mtx")),
        "verify_sequential": (1, lambda: verify_sequential(fx)),
        "verify_distributed": (1, lambda: verify_distributed(fx, 2)),
        "run_distributed": (0, lambda: run_distributed(fx, 2)),
    }
    counts = {}
    for name, (_, call) in calls.items():
        validate_csr_calls.clear()
        call()
        counts[name] = len(validate_csr_calls)
    assert counts == {name: want for name, (want, _) in calls.items()}


def test_sequential_kernel_mismatch_names_the_entry(ref, monkeypatch):
    real_spmv_seq = spmvsim.verify.spmv_seq

    def off_by_half(mat, x):
        y = real_spmv_seq(mat, x)
        y.values[3] += 0.5
        return y

    monkeypatch.setattr(spmvsim.verify, "spmv_seq", off_by_half)
    check = verify_sequential(ref).checks[0]
    assert check.name == "kernel-matches-oracle" and not check.passed
    assert check.detail == "first difference at index 3: 113.5 != 113.0"


def nan_product_fixture():
    """Finite entries whose products overflow to inf + -inf = nan."""
    return Fixture(M=1, N=2, row_ptr=[0, 2], col_idx=[0, 1],
                   values=[1e300, -1e300], x=[1e300, 1e300], z=[0.0])


def test_nan_result_fails_only_the_residual():
    # kernel and oracle agree on nan; only the residual may fail
    reports = [verify_sequential(nan_product_fixture())]
    reports += [verify_distributed(nan_product_fixture(), size)
                for size in (1, 2)]
    for report in reports:
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["residual-within-tolerance"]
        assert failed[0].detail == "residualSq == nan"


def test_first_diff_skips_shared_nan():
    nan = float("nan")
    detail = spmvsim.verify._first_diff(np.array([nan, 1.0, 2.0]),
                                        np.array([nan, 1.0, 3.0]))
    assert detail == "first difference at index 2: 2.0 != 3.0"


def test_sequential_trivial_instance():
    fx = generate(GenParams(M=1, N=1, row_fill=0, seed=0))
    assert verify_sequential(fx).overall


def test_distributed_reference_passes(ref):
    for size in (3, 5):
        report = verify_distributed(ref, size)
        assert report.overall, report.as_text()
        assert check_names(report) == ["layout-sums",
                                       "per-rank-sub-multiply",
                                       "concatenation-matches-sequential",
                                       "residual-within-tolerance",
                                       "gather-path-prediction"]


def test_distributed_explicit_layouts_pass(ref):
    # an explicit split need not have the default shape, and may grow
    for rows, cols in (([30, 2], [18, 18]), ([2, 30], [10, 26])):
        report = verify_distributed(ref, 2, explicit_row_sizes=rows,
                                    explicit_col_sizes=cols)
        assert report.overall, report.as_text()


def test_distributed_bad_layout_named(ref):
    for sizes, named in (([16, 15], "sum 31 != 32"),
                         ([32], "expected 2 block sizes, got 1"),
                         ([33, -1], "block sizes must be >= 0, got (33, -1)")):
        report = verify_distributed(ref, 2, explicit_row_sizes=sizes)
        assert not report.overall
        assert report.checks[0].name == "layout-sums"
        assert not report.checks[0].passed
        assert named in report.checks[0].detail
        assert report.checks[1].detail == (
            "not evaluated: layout construction failed")


def test_distributed_run_failure_is_a_failed_check(ref, monkeypatch):
    # the engine refuses a rank count before any layout is sized by it
    def refuse_oversized(total, size, explicit_local_sizes=None):
        if size > MAX_RANKS:
            pytest.fail(f"a layout was sized by {size} ranks")
        return build_layout(total, size, explicit_local_sizes)

    patch_bindings(monkeypatch, build_layout, refuse_oversized)
    report = verify_distributed(ref, MAX_RANKS + 1)
    assert check_names(report) == ["layout-sums", "distributed-run"]
    assert report.checks[0].detail == "not evaluated: distributed run failed"
    assert f"1..{MAX_RANKS}" in report.checks[1].detail

    def broken_run(*args, **kwargs):
        raise CollectiveMismatch("rank 1 called 'allgather' out of turn")

    monkeypatch.setattr(spmvsim.verify, "run_distributed", broken_run)
    report = verify_distributed(ref, 2)
    assert not report.overall
    assert report.checks[-1].name == "distributed-run"
    assert "out of turn" in report.checks[-1].detail


def test_distributed_reuses_the_run(ref, monkeypatch):
    # layouts and blocks come from the run; verify adds one whole product
    calls = {"build_layout": 0, "extract_local": 0, "spmv_seq": 0}

    def counted(original):
        def call(*args, **kwargs):
            calls[original.__name__] += 1
            return original(*args, **kwargs)
        return call

    for original in (build_layout, extract_local, spmv_seq):
        patch_bindings(monkeypatch, original, counted(original))
    for size in (1, 3, 8):
        calls.update(dict.fromkeys(calls, 0))
        assert verify_distributed(ref, size).overall
        assert calls == {"build_layout": 2, "extract_local": size,
                         "spmv_seq": size + 1}


def test_per_rank_check_catches_a_wrong_block(ref, monkeypatch):
    # the run uses the wrong blocks, so only an independent product sees it
    def last_value_plus_one(*args):
        local = extract_local(*args)
        values = local.values.copy()
        values[-1] += 1.0
        return dataclasses.replace(local, values=values)

    patch_bindings(monkeypatch, extract_local, last_value_plus_one)
    by_name = {c.name: c for c in verify_distributed(ref, 3).checks}
    assert not by_name["per-rank-sub-multiply"].passed
    assert by_name["per-rank-sub-multiply"].detail.startswith("rank 0: ")
    assert not by_name["concatenation-matches-sequential"].passed


def test_per_rank_check_catches_a_misplaced_row(ref, monkeypatch):
    # rank 0 returns one row too many and rank 1 one too few, so only the
    # slices, not their concatenation, show it
    real = run_distributed(ref, 2)
    y0, y1 = real.per_rank_y
    shifted = dataclasses.replace(
        real, per_rank_y=[np.concatenate([y0, y1[:1]]), y1[1:]])
    monkeypatch.setattr(spmvsim.verify, "run_distributed",
                        lambda *args, **kwargs: shifted)
    by_name = {c.name: c for c in verify_distributed(ref, 2).checks}
    assert by_name["concatenation-matches-sequential"].passed
    assert not by_name["per-rank-sub-multiply"].passed
    assert by_name["per-rank-sub-multiply"].detail == "rank 0: length 17 != 16"


def test_distributed_detects_corrupt_value(ref):
    ref.values[0] += 1.0
    report = verify_distributed(ref, 4)
    by_name = {c.name: c for c in report.checks}
    assert not report.overall
    assert not by_name["residual-within-tolerance"].passed
    assert "25.0" in by_name["residual-within-tolerance"].detail
    # distribution machinery itself is still consistent
    assert by_name["per-rank-sub-multiply"].passed
    assert by_name["concatenation-matches-sequential"].passed


def test_report_text_rendering(ref):
    report = verify_sequential(ref)
    text = report.as_text()
    assert text.splitlines()[0].startswith("PASS kernel-matches-oracle")
    assert text.splitlines()[-1] == "overall: PASS"


def test_report_records_rendering(ref):
    records = verify_sequential(ref).as_records()
    assert all(set(r) == {"name", "passed", "detail"} for r in records)
    assert all(r["passed"] for r in records)


def test_distributed_verify_on_generated():
    fx = generate(GenParams(M=40, N=28, target_nnz=150, seed=77))
    for size in (1, 4, 6):
        report = verify_distributed(fx, size)
        assert report.overall, report.as_text()


def test_gather_path_prediction_check(ref):
    report = verify_distributed(ref, 5)
    by_name = {c.name: c for c in report.checks}
    assert "allgatherv" in by_name["gather-path-prediction"].detail
    report = verify_distributed(ref, 4)
    by_name = {c.name: c for c in report.checks}
    assert "allgather," in by_name["gather-path-prediction"].detail


def test_verify_uses_requested_engine_mode(ref):
    a = verify_distributed(ref, 7, mode="serial")
    b = verify_distributed(ref, 7, mode="parallel")
    assert a.overall and b.overall
    assert a.as_records() == b.as_records()


# -- seeded faults ------------------------------------------------------------

FAULT_RANKS = (1, 2, 3, 5, 8)


def near_miss_fixture():
    """The reference structure with non-integer values and x, and z off the
    exact product by 1e-5 in every row: each rank's residual partial is
    nonzero, yet their sum is within tolerance, so an unfaulted run passes
    and a fault that loses or zeroes a partial can show."""
    fx = reference_fixture()
    fx.values = fx.values * 0.1 + 1 / 3
    fx.x = fx.x / 7
    fx.z = spmv_sorted_oracle(fx.matrix(), fx.x_vector()).values + 1e-5
    return fx


def exscan_off_by_one(monkeypatch, fx):
    real = RankContext.exscan_sum
    monkeypatch.setattr(RankContext, "exscan_sum",
                        lambda ctx, value: real(ctx, value) + (ctx.rank > 0))


def allreduce_per_rank_totals(monkeypatch, fx):
    real = spmvsim.collectives._reduce_allreduce_sum
    monkeypatch.setattr(
        spmvsim.collectives, "_reduce_allreduce_sum",
        lambda payloads: [t + r for r, t in enumerate(real(payloads))])


def kernel_index_error(monkeypatch, fx):
    def raises(mat, x):
        raise IndexError(f"index {mat.N} is out of bounds for size {mat.N}")

    patch_bindings(monkeypatch, spmv_seq, raises)


def allreduce_drops_last_partial(monkeypatch, fx):
    real = spmvsim.collectives._reduce_allreduce_sum
    monkeypatch.setattr(spmvsim.collectives, "_reduce_allreduce_sum",
                        lambda payloads: real([*payloads[:-1], 0.0]))


def rank_residual_zero(monkeypatch, fx):
    monkeypatch.setattr(spmvsim.distributed, "residual_sq", lambda y, z: 0.0)


def remainder_to_high_ranks(monkeypatch, fx):
    monkeypatch.setattr(
        spmvsim.layout, "block_local_size",
        lambda total, size, rank: total // size + (rank >= size - total % size))


def reversed_allgather(monkeypatch, fx):
    real = spmvsim.collectives._reduce_allgather
    monkeypatch.setattr(spmvsim.collectives, "_reduce_allgather",
                        lambda payloads: real(payloads[::-1]))


def wrong_extract_local_value(monkeypatch, fx):
    def last_value_plus_half(*args):
        local = extract_local(*args)
        values = local.values.copy()
        values[-1:] += 0.5
        return dataclasses.replace(local, values=values)

    patch_bindings(monkeypatch, extract_local, last_value_plus_half)


def layout_drops_a_row(monkeypatch, fx):
    def short_rows(total, size, explicit_local_sizes=None):
        return build_layout(total - (total == fx.M), size, explicit_local_sizes)

    patch_bindings(monkeypatch, build_layout, short_rows)


def always_allgatherv(monkeypatch, fx):
    def gather(ctx, local_x, col_layout):
        counts = ctx.allgather(np.array([len(local_x)])).tolist()
        return ctx.allgatherv(local_x, counts, exclusive_prefix_sums(counts))

    monkeypatch.setattr(spmvsim.distributed, "gather_x", gather)


def kernel_drops_an_entry(monkeypatch, fx):
    def drops_last(mat, x):
        values = mat.values.copy()
        values[-1:] = 0.0
        return spmv_seq(dataclasses.replace(mat, values=values), x)

    patch_bindings(monkeypatch, spmv_seq, drops_last)


def kernel_drops_last_row(monkeypatch, fx):
    # on the whole matrix only, as a fault in a path that only large
    # matrices take would; rank blocks of two or more ranks are right
    def short(mat, x):
        y = spmv_seq(mat, x)
        if mat.m < fx.M:
            return y
        return dataclasses.replace(y, n=y.n - 1, values=y.values[:-1])

    patch_bindings(monkeypatch, spmv_seq, short)


def at(ranks, *checks):
    """The same failing (section, check) pairs at each of ranks."""
    return dict.fromkeys(ranks, checks)


SEQ, DIST = "sequential", "distributed"
# fault -> {K: the (section, check) pairs that must fail at K}; a K is
# absent where the fault changes nothing (one rank, or even blocks)
FAULTS = {
    exscan_off_by_one: at((2, 3, 5, 8), (DIST, "distributed-run")),
    allreduce_per_rank_totals: at((2, 3, 5, 8), (DIST, "distributed-run")),
    kernel_index_error: at(FAULT_RANKS, (SEQ, "kernel-matches-oracle"),
                           (SEQ, "residual-within-tolerance"),
                           (DIST, "distributed-run")),
    allreduce_drops_last_partial: at(FAULT_RANKS,
                                     (DIST, "residual-within-tolerance")),
    rank_residual_zero: at(FAULT_RANKS, (DIST, "residual-within-tolerance")),
    # 32 rows and 36 columns split evenly over 1 and 2 ranks
    remainder_to_high_ranks: at((3, 5, 8), (DIST, "layout-sums")),
    # equal blocks gather x reversed; uneven ones gather reversed counts
    reversed_allgather: {**at((2, 3), (DIST, "per-rank-sub-multiply")),
                         **at((5, 8), (DIST, "distributed-run"))},
    wrong_extract_local_value: at(FAULT_RANKS,
                                  (DIST, "per-rank-sub-multiply")),
    layout_drops_a_row: at(FAULT_RANKS, (DIST, "layout-sums")),
    # 36 columns over 5 and 8 ranks take allgatherv anyway
    always_allgatherv: at((1, 2, 3), (DIST, "gather-path-prediction")),
    kernel_drops_an_entry: at(FAULT_RANKS, (SEQ, "kernel-matches-oracle"),
                              (DIST, "residual-within-tolerance")),
    # a short product makes its residual raise, in the run at K = 1 and in
    # verify's own residuals at every K
    kernel_drops_last_row: at(FAULT_RANKS, (SEQ, "kernel-matches-oracle"),
                              (SEQ, "residual-within-tolerance"),
                              (DIST, "distributed-run")),
}


def test_near_miss_fixture_passes_unfaulted():
    fx = near_miss_fixture()
    assert verify_sequential(fx).overall
    for size in FAULT_RANKS:
        report = verify_distributed(fx, size)
        assert report.overall, report.as_text()
        assert 0.0 < run_distributed(fx, size).residual_sq <= RESIDUAL_TOLERANCE


def test_residual_fault_names_both_sums(ref, monkeypatch):
    ref.z[-1] += 0.5
    allreduce_drops_last_partial(monkeypatch, ref)
    by_name = {c.name: c for c in verify_distributed(ref, 3).checks}
    assert by_name["residual-within-tolerance"].detail == (
        "residualSq == 0.0, but the sequential product's rank partials sum "
        "to 0.25")
    assert [name for name, c in by_name.items() if not c.passed] == [
        "residual-within-tolerance"]


def test_layout_shape_fault_names_the_blocks(ref, monkeypatch):
    remainder_to_high_ranks(monkeypatch, ref)
    check = verify_distributed(ref, 5).checks[0]
    assert check.name == "layout-sums" and not check.passed
    assert check.detail == (
        "row blocks sum to 32 of 32, column blocks to 36 of 36; default row "
        "blocks (6, 6, 6, 7, 7) do not step down by at most one from rank 0; "
        "default column blocks (7, 7, 7, 7, 8) do not step down by at most "
        "one from rank 0")


@pytest.mark.parametrize("fault, size, failing", [
    pytest.param(fault, size, failing, id=f"{fault.__name__}-{size}")
    for fault, by_size in FAULTS.items() for size, failing in by_size.items()])
def test_seeded_fault_fails_its_check(monkeypatch, fault, size, failing):
    fx = near_miss_fixture()
    fault(monkeypatch, fx)
    sections = {SEQ: verify_sequential(fx), DIST: verify_distributed(fx, size)}
    assert not sections[DIST].overall, sections[DIST].as_text()
    for section, name in failing:
        by_name = {c.name: c for c in sections[section].checks}
        assert not by_name[name].passed, sections[section].as_text()
