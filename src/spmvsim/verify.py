"""Verification obligations packaged as structured pass/fail reports.

verify_fixture validates a fixture once, multiplies it once and returns a
report per section. Each section evaluates every check it owns, never
stopping at the first failure and never raising; its overall verdict is the
conjunction of the outcomes, and details carry the observed numbers so a
failing report is diagnosable on its own. A fixture that validate_fixture
rejects gets one failed input-valid check in every section and no other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DenseVector, residual_sq, spmv_seq, spmv_sorted_oracle
from .distributed import GatherPath, check_pass, run_distributed
from .fixture_io import FixtureValidationError, validate_fixture
from .fixtures import Fixture
from .layout import LayoutSumMismatch

__all__ = ["CheckResult", "VerificationReport", "verify_fixture",
           "verify_sequential"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    """Named check outcomes; overall is true only when every check passed."""

    checks: list[CheckResult]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_text(self) -> str:
        lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
                 for c in self.checks]
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)

    def as_records(self) -> list[dict]:
        return [{"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks]


def _first_diff(a: np.ndarray, b: np.ndarray) -> str | None:
    """Where results a and b first differ, or None when they agree: equal
    entries, and NaN wherever the other has NaN."""
    if len(a) != len(b):
        return f"length {len(a)} != {len(b)}"
    idx = np.nonzero((a != b) & ~(np.isnan(a) & np.isnan(b)))[0]
    if not len(idx):
        return None
    k = int(idx[0])
    return f"first difference at index {k}: {float(a[k])!r} != {float(b[k])!r}"


def _steps_down(sizes) -> bool:
    """The default split's shape: block sizes that never increase from
    rank 0 and differ by at most one."""
    return (list(sizes) == sorted(sizes, reverse=True)
            and max(sizes, default=0) - min(sizes, default=0) <= 1)


def verify_fixture(fixture: Fixture, sizes=(), explicit_row_sizes=None,
                   explicit_col_sizes=None
                   ) -> list[tuple[str, VerificationReport]]:
    """The "sequential" section, then one "distributed size=K" section per K in
    sizes, in order, each run on the parallel engine. One spmv_seq product of
    the fixture's own arrays serves them all; if it raises, the sequential
    section's first check and each distributed section's distributed-run check
    name the exception, unless that section's run fails first."""
    names = ["sequential", *(f"distributed size={k}" for k in sizes)]
    try:
        validate_fixture(fixture)
    except FixtureValidationError as exc:
        invalid = CheckResult("input-valid", False, str(exc))
        return [(name, VerificationReport(checks=[invalid])) for name in names]
    mat, x = fixture.matrix(), fixture.x_vector()
    try:
        y = spmv_seq(mat, x)
    except Exception as exc:
        y = exc
    reports = [_sequential(fixture, mat, x, y)]
    reports += [_distributed(fixture, y, k, explicit_row_sizes,
                             explicit_col_sizes) for k in sizes]
    return list(zip(names, reports))


def verify_sequential(fixture: Fixture) -> VerificationReport:
    """The sequential section of verify_fixture(fixture)."""
    return verify_fixture(fixture)[0][1]


def _sequential(fixture: Fixture, mat, x, product) -> VerificationReport:
    """Checks: exact agreement of the product of mat and x with the
    sorted-entry oracle (spmv_sorted_oracle, itself tested against the dense
    reference) and its squared residual against the stored z staying within
    tolerance. A product that raised, or a residual of it that raises, fails
    the first, naming the exception, and leaves the second not evaluated.
    """
    try:
        if isinstance(product, Exception):
            raise product
        rsq = residual_sq(product, fixture.z_vector())
    except Exception as exc:
        return VerificationReport(checks=[
            CheckResult("kernel-matches-oracle", False,
                        f"{type(exc).__name__}: {exc}"),
            CheckResult("residual-within-tolerance", False,
                        "not evaluated: the kernel or its residual raised")])
    oracle = spmv_sorted_oracle(mat, x).values
    diff = _first_diff(product.values, oracle)
    return VerificationReport(checks=[
        CheckResult(
            "kernel-matches-oracle", diff is None,
            diff or "kernel output equals sorted-entry oracle exactly"),
        CheckResult("residual-within-tolerance", check_pass(rsq),
                    f"residualSq == {rsq!r}")])


def _distributed(fixture: Fixture, product, size: int, explicit_row_sizes,
                 explicit_col_sizes) -> VerificationReport:
    """Check one distributed run at the given rank count against the
    sequential product.

    Checks, all read from the run's own report: layout sizes summing to
    the global extents (and, for a default layout, blocks that step down by
    at most one from rank 0), each rank's result slice equalling its rows
    of the product, the concatenation equalling the product, the residual
    within tolerance and bit-equal to the product's per-rank residuals
    summed in rank order, and the gather path matching the prediction from
    the column sizes. A layout the run refuses fails layout-sums; any other
    exception from the run, the product or its residuals fails
    distributed-run.
    """
    try:
        report = run_distributed(fixture, size, explicit_row_sizes,
                                 explicit_col_sizes)
        if isinstance(product, Exception):
            raise product
        seq_y = product.values
        # the run's allreduce, redone over the sequential product
        partials_sum = 0.0
        for rank in range(report.size):
            lo, hi = report.row_layout.local_range(rank)
            partials_sum += residual_sq(
                DenseVector.sequential(seq_y[lo:hi]),
                DenseVector.sequential(fixture.z[lo:hi]))
    except LayoutSumMismatch as exc:
        return VerificationReport(checks=[
            CheckResult("layout-sums", False, str(exc)),
            CheckResult("distributed-run", False,
                        "not evaluated: layout construction failed")])
    except Exception as exc:
        return VerificationReport(checks=[
            CheckResult("layout-sums", False,
                        "not evaluated: distributed run failed"),
            CheckResult("distributed-run", False,
                        f"{type(exc).__name__}: {exc}")])
    row_sum = sum(report.row_layout.local_sizes)
    col_sum = sum(report.col_layout.local_sizes)
    sums_ok = row_sum == fixture.M and col_sum == fixture.N
    misshapen = [
        f"; default {name} blocks {layout.local_sizes} do not step down by "
        f"at most one from rank 0"
        for name, layout in (("row", report.row_layout),
                             ("column", report.col_layout))
        if not (layout.explicit or _steps_down(layout.local_sizes))]
    checks = [CheckResult(
        "layout-sums", sums_ok and not misshapen,
        f"row blocks sum to {row_sum} of {fixture.M}, column blocks to "
        f"{col_sum} of {fixture.N}" + "".join(misshapen))]
    diff = None
    for rank, y in enumerate(report.per_rank_y):
        lo, hi = report.row_layout.local_range(rank)
        if rank_diff := _first_diff(y, seq_y[lo:hi]):
            diff = f"rank {rank}: {rank_diff}"
            break
    checks.append(CheckResult(
        "per-rank-sub-multiply", diff is None,
        diff or "every rank slice equals its local sequential multiply"))
    diff = _first_diff(np.concatenate(report.per_rank_y), seq_y)
    checks.append(CheckResult(
        "concatenation-matches-sequential", diff is None, diff
        or "concatenated rank slices equal the sequential result exactly"))
    rsq = report.residual_sq
    same_bits = float(rsq).hex() == partials_sum.hex()
    residual_detail = f"residualSq == {rsq!r}"
    if not same_bits:
        residual_detail += (f", but the sequential product's rank partials "
                            f"sum to {partials_sum!r}")
    checks.append(CheckResult("residual-within-tolerance",
                              same_bits and check_pass(rsq), residual_detail))
    predicted = (GatherPath.EQUAL_BLOCKS
                 if len(set(report.col_layout.local_sizes)) == 1
                 else GatherPath.UNEVEN_BLOCKS)
    path_ok = report.gather_path == predicted
    checks.append(CheckResult(
        "gather-path-prediction", path_ok,
        f"took {report.gather_path.value}, predicted {predicted.value}"))
    return VerificationReport(checks=checks)
