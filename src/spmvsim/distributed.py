"""Block-row distributed SpMV on top of the simulated collectives.

Every rank owns a contiguous block of rows (and a matching block of the
input vector), gathers the full input with allgather or allgatherv, runs
the sequential kernel on its rows, and contributes its part of the squared
residual against the known product to a global allreduce. Every run records
its collective trace, and the report reads the gather path from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .collectives import CollectiveEngine, CollectiveTrace, RankContext
from .core import DenseVector, residual_sq, spmv_seq
from .fixtures import Fixture
from .layout import Layout, build_layout, extract_local

__all__ = ["RESIDUAL_TOLERANCE", "GatherPath", "DistRunReport", "gather_x",
           "run_distributed", "check_pass"]

# pass/fail threshold on the squared 2-norm of y - z
RESIDUAL_TOLERANCE = 1e-6


class GatherPath(enum.Enum):
    """Which collective assembled the global input vector."""

    EQUAL_BLOCKS = "allgather"
    UNEVEN_BLOCKS = "allgatherv"


@dataclass
class DistRunReport:
    """Everything observable about one distributed run."""

    size: int
    row_layout: Layout
    col_layout: Layout
    per_rank_y: list[np.ndarray]
    residual_sq: float
    gather_path: GatherPath
    trace: CollectiveTrace


def check_pass(residual_sq_value: float) -> bool:
    """True when the squared residual is within the fixed tolerance."""
    return residual_sq_value <= RESIDUAL_TOLERANCE


def gather_x(ctx: RankContext, local_x, col_layout: Layout) -> np.ndarray:
    """Assemble the global input vector from per-rank blocks.

    Only the default split with size dividing the extent has provably equal
    blocks; any other split first gathers the block lengths. allgatherv
    runs when those lengths differ, allgather otherwise.
    """
    local_x = np.asarray(local_x, dtype=np.float64)
    if col_layout.explicit or col_layout.total % ctx.size:
        counts = ctx.allgather(np.array([len(local_x)], dtype=np.int64)).tolist()
        if len(set(counts)) > 1:
            return ctx.allgatherv(local_x)
    return ctx.allgather(local_x)


def run_distributed(fixture: Fixture, size: int, explicit_row_sizes=None,
                    explicit_col_sizes=None, *,
                    mode: str = "parallel") -> DistRunReport:
    """Run the distributed SpMV of a fixture across simulated ranks.

    Row and column layouts default to the block formula; explicit size
    lists override them, raising LayoutSumMismatch when they do not split
    the extents over the ranks. The report carries the layouts used,
    per-rank result slices, the residual against the fixture's known
    product, the collective trace, and the gather path that trace shows.
    It trusts the fixture to pass validate_fixture.
    """
    # the engine checks size before the layouts are sized by it
    engine = CollectiveEngine(size, mode=mode, record_trace=True)
    row_layout = build_layout(fixture.M, size, explicit_row_sizes)
    col_layout = build_layout(fixture.N, size, explicit_col_sizes)
    gi, gj, ga = fixture.row_ptr, fixture.col_idx, fixture.values
    x_global, z_global = fixture.x, fixture.z

    def program(ctx: RankContext):
        m = row_layout.local_sizes[ctx.rank]
        n = col_layout.local_sizes[ctx.rank]
        rstart = ctx.exscan_sum(m)
        cstart = ctx.exscan_sum(n)
        local = extract_local(gi, gj, ga, row_layout, col_layout, ctx.rank)
        if (rstart, cstart) != (local.rstart, local.cstart):
            raise AssertionError(
                f"exscan offsets ({rstart}, {cstart}) disagree with layout "
                f"({local.rstart}, {local.cstart})")
        x_local = x_global[cstart:cstart + n]
        z_local = z_global[rstart:rstart + m]
        full_x = gather_x(ctx, x_local, col_layout)
        y = spmv_seq(local, DenseVector.sequential(full_x))
        partial = residual_sq(y, DenseVector(n=m, N=fixture.M, values=z_local))
        return y.values, ctx.allreduce_sum(partial)

    ys, totals = map(list, zip(*engine.run(program)))
    # bit patterns, so a NaN total that every rank shares agrees
    if len({t.hex() for t in totals}) > 1:
        raise AssertionError(f"allreduce left ranks disagreeing: {totals}")
    # the engine refuses ranks whose collectives differ at one seq, so an
    # allgatherv record from any rank means every rank took that branch
    uneven = any(r.op == "allgatherv" for r in engine.trace.records)
    return DistRunReport(size=size, row_layout=row_layout,
                         col_layout=col_layout, per_rank_y=ys,
                         residual_sq=totals[0],
                         gather_path=(GatherPath.UNEVEN_BLOCKS if uneven
                                      else GatherPath.EQUAL_BLOCKS),
                         trace=engine.trace)
