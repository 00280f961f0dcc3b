"""Structured verification reports."""

import dataclasses
import sys

import numpy as np
import pytest

import spmvsim.verify
from spmvsim import (
    MAX_RANKS,
    CollectiveMismatch,
    Fixture,
    GenParams,
    build_layout,
    export_matrix_market,
    extract_local,
    generate,
    import_matrix_market,
    read_fixture,
    reference_fixture,
    run_distributed,
    spmv_seq,
    validate_csr,
    verify_distributed,
    verify_sequential,
    write_fixture,
)


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
    report = verify_distributed(ref, 2, explicit_row_sizes=[30, 2],
                                explicit_col_sizes=[18, 18])
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
        local.values[-1] += 1.0
        return local

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
