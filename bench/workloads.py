"""The benchmark's three closed-loop workloads.

Each workload has one client: the next operation starts only after the
previous one returned. `setup` builds the inputs, `op(api, i, rec)` runs
operation i and appends its timings to `rec`, and `probe(api, tracer)` runs,
in traced runs only, the extra calls that give per-layer numbers for the
operation just done. Operation i's inputs depend only on the seed and i.

Every timed result is judged exactly: generated fixtures hold small
integers, so every product is exact in float64 and a correct result is
bitwise equal to the stored z. A miss raises `Miss`, naming the layer whose
error counter it goes to.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from spmvsim import (CollectiveEngine, DenseVector, GatherPath, GenParams)
from spmvsim.cli import SUCCESS_LINE

FIXTURE_ARRAYS = ("row_ptr", "col_idx", "values", "x", "z")
# Matrix Market stores no z; the importer recomputes it
MM_ARRAYS = ("row_ptr", "col_idx", "values", "x")
RANKS = 2


class Miss(Exception):
    """A timed result differed from the expected one."""

    def __init__(self, layer: str, message: str, count: int = 1):
        super().__init__(f"{layer}: {message}")
        self.layer = layer
        self.count = count


def check(ok: bool, layer: str, message: str) -> None:
    if not ok:
        raise Miss(layer, message)


def same_arrays(a, b, names) -> bool:
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)


def check_dist(report, fixture, path: GatherPath) -> None:
    y = np.concatenate(report.per_rank_y)
    check(np.array_equal(y, fixture.z), "distributed",
          "concatenated per_rank_y != z")
    check(report.residual_sq == 0.0, "distributed",
          f"residual_sq {report.residual_sq!r} != 0.0")
    check(report.gather_path is path, "distributed",
          f"gather path {report.gather_path.value}, expected {path.value}")


def expected_path(fixture) -> GatherPath:
    # default block layout: equal blocks exactly when RANKS divides N
    return (GatherPath.EQUAL_BLOCKS if fixture.N % RANKS == 0
            else GatherPath.UNEVEN_BLOCKS)


def timed_kernel(api, mat, x, fixture, reps: int) -> float:
    """Seconds for `reps` back-to-back spmv_seq calls, each result checked.
    One call on a small matrix lands in either the host's fast or its slow
    phase, so single-call medians jump between the two; a batch averages
    over them."""
    t0 = perf_counter()
    ys = [api.spmv_seq(mat, x) for _ in range(reps)]
    seconds = perf_counter() - t0
    for y in ys:
        check(np.array_equal(y.values, fixture.z), "core", "spmv_seq != z")
    return seconds


def working_set(M: int, N: int, nnz: int) -> dict[str, int]:
    """Bytes of one fixture's arrays and of its dense oracle, computed from
    the array sizes (not measured)."""
    return {"M": M, "N": N, "nnz": nnz,
            "csr_x_z_bytes": 8 * ((M + 1) + 2 * nnz + N + M),
            # dense float64 M x N plus the bool mask dense_from_csr fills
            "oracle_dense_mask_bytes": 9 * M * N}


@dataclass
class Rec:
    """Timings of one run: (wall, process CPU) seconds per operation, and
    (seconds, nnz, kind) per timed kernel sample, where kind tells apart the
    inputs a workload rotates through."""

    op: list[tuple[float, float]] = field(default_factory=list)
    seq: list[tuple[float, int, int]] = field(default_factory=list)
    dist: list[tuple[float, int, int]] = field(default_factory=list)


def mirror(api, tracer, fixture, report, mode: str) -> None:
    """Repeat run_distributed's rank program from public functions on an
    engine that records its CollectiveTrace, and require the same per-rank
    results. This is where the collective spans and counts come from."""
    rows, cols = report.row_layout, report.col_layout
    engine = CollectiveEngine(report.size, mode=mode, record_trace=True)

    def program(ctx):
        with tracer.span("collectives.rank_program", parent=engine_span):
            m = rows.local_sizes[ctx.rank]
            n = cols.local_sizes[ctx.rank]
            rstart = api.exscan_sum(ctx, m)
            cstart = api.exscan_sum(ctx, n)
            local = api.extract_local(fixture.row_ptr, fixture.col_idx,
                                      fixture.values, rows, cols, ctx.rank)
            full_x = api.gather_x(ctx, fixture.x[cstart:cstart + n], cols)
            y = api.spmv_seq(local, DenseVector.sequential(full_x))
            z = DenseVector(n=m, N=fixture.M, values=fixture.z[rstart:rstart + m])
            total = api.allreduce_sum(ctx, api.residual_sq(y, z))
            return y.values, total, (rstart, cstart), (local.rstart, local.cstart)

    with tracer.span("collectives.run_ranks") as engine_span:
        outputs = engine.run(program)
    tracer.count_collectives(engine_span, engine.trace)
    for rank, (y, total, offsets, placed) in enumerate(outputs):
        check(offsets == placed, "layout",
              f"rank {rank}: exscan offsets {offsets} != extract_local {placed}")
        check(np.array_equal(y, report.per_rank_y[rank]), "collectives",
              f"rank {rank}: rank-program y differs from run_distributed")
        check(total == 0.0, "collectives", f"allreduce_sum gave {total!r}")


class Pipeline:
    """fixture-pipeline: one new fixture per operation, through the whole
    gen -> write -> checked read -> run seq -> verify -> run dist -> cli run
    -> Matrix Market export -> import flow."""

    name = "fixture-pipeline"
    aliases = {"op_p50_s": "pipeline_p50_s", "op_p90_s": "pipeline_p90_s"}
    warmup_ops = 1
    trace_pairs_per_s = 1.0
    # spmv_seq calls per seq_nnz_per_s sample, about 20 ms in all
    kernel_reps = 16

    def __init__(self, seed: int, smoke: bool, work, dims=None):
        self.M, self.N, self.nnz = dims or ((24, 24, 60) if smoke
                                            else (700, 700, 4900))
        # operation i uses generator seed base + i; warm-up uses base - 1
        self.base = 100_000 * seed + 1
        self.fx_path = work / f"pipeline-{self.N}.fx"
        self.mtx_path = work / f"pipeline-{self.N}.mtx"
        self.last = None

    def setup(self, api) -> None:
        pass  # the inputs are made inside each operation

    def working_sets(self):
        return [working_set(self.M, self.N, self.nnz)]

    def op(self, api, i: int, rec: Rec) -> None:
        start, cpu = perf_counter(), process_time()
        fx = api.generate(GenParams(M=self.M, N=self.N, target_nnz=self.nnz,
                                    seed=self.base + i))
        api.write_fixture(fx, self.fx_path)
        back = api.read_fixture(self.fx_path)
        check(same_arrays(back, fx, FIXTURE_ARRAYS), "fixture_io",
              "read_fixture differs from what write_fixture wrote")
        mat, x = back.matrix(), back.x_vector()
        y = api.spmv_seq(mat, x)
        check(np.array_equal(y.values, fx.z), "core", "spmv_seq != z")
        report = api.verify_sequential(back)
        failed = [c.name for c in report.checks if not c.passed]
        if failed:
            raise Miss("verify", f"failed checks {failed}", count=len(failed))
        t0 = perf_counter()
        dist = api.run_distributed(back, RANKS)
        rec.dist.append((perf_counter() - t0, back.nnz, 0))
        check_dist(dist, fx, expected_path(fx))
        out = io.StringIO()
        with redirect_stdout(out):
            rc = api.main(["run", "--fixture", str(self.fx_path), "--mode",
                           "dist", "--ranks", str(RANKS)])
        check(rc == 0 and out.getvalue() == SUCCESS_LINE + "\n", "cli",
              f"cli run exited {rc} with {out.getvalue()!r}")
        api.export_matrix_market(back, self.mtx_path)
        mm = api.import_matrix_market(self.mtx_path)
        check(same_arrays(mm, fx, MM_ARRAYS), "fixture_io",
              "Matrix Market round trip changed an array")
        rec.op.append((perf_counter() - start, process_time() - cpu))
        # the kernel's rate, timed outside the operation's latency
        rec.seq.append((timed_kernel(api, mat, x, fx, self.kernel_reps),
                        self.kernel_reps * back.nnz, 0))
        self.last = (fx, dist)

    def probe(self, api, tracer) -> None:
        fx, dist = self.last
        plain = api.read_fixture_nocheck(self.fx_path, check_ground_truth=False)
        check(same_arrays(plain, fx, FIXTURE_ARRAYS), "fixture_io",
              "unchecked read differs from what write_fixture wrote")
        check(np.array_equal(api.oracle(fx), fx.z), "core", "dense oracle != z")
        mirror(api, tracer, fx, dist, "parallel")

    def setup_probe(self, api) -> None:
        pass  # each operation writes, and probes, its own fixture


class MultiplyLarge:
    """multiply-large: one spmv_seq then one run_distributed per operation,
    on one fixture built in set-up."""

    name = "multiply-large"
    aliases: dict[str, str] = {}
    warmup_ops = 1
    trace_pairs_per_s = 2.0

    def __init__(self, seed: int, smoke: bool, work):
        # row lengths are uniform over 0..row_fill, so some rows are empty
        self.M, self.N, self.row_fill = (60, 60, 8) if smoke else (3000, 3000, 200)
        self.seed = seed
        self.work = work
        self.fx = None
        self.last = None

    def setup(self, api) -> None:
        fx = api.generate(GenParams(M=self.M, N=self.N, row_fill=self.row_fill,
                                    seed=self.seed))
        if self.fx is not None:
            check(same_arrays(fx, self.fx, FIXTURE_ARRAYS), "fixtures",
                  "set-up repetitions generated different fixtures")
        self.fx = fx
        self.mat, self.x = fx.matrix(), fx.x_vector()

    def working_sets(self):
        return [working_set(self.fx.M, self.fx.N, self.fx.nnz)]

    def op(self, api, i: int, rec: Rec) -> None:
        t0, cpu = perf_counter(), process_time()
        y = api.spmv_seq(self.mat, self.x)
        t1 = perf_counter()
        dist = api.run_distributed(self.fx, RANKS)
        t2 = perf_counter()
        rec.op.append((t2 - t0, process_time() - cpu))
        rec.seq.append((t1 - t0, self.fx.nnz, 0))
        rec.dist.append((t2 - t1, self.fx.nnz, 0))
        check(np.array_equal(y.values, self.fx.z), "core", "spmv_seq != z")
        check_dist(dist, self.fx, expected_path(self.fx))
        self.last = dist

    def probe(self, api, tracer) -> None:
        mirror(api, tracer, self.fx, self.last, "parallel")

    def setup_probe(self, api) -> None:
        check(np.array_equal(api.oracle(self.fx), self.fx.z), "core",
              "dense oracle != z")
        api.write_fixture(self.fx, self.work / "multiply-large.fx")


class RankRendezvous:
    """rank-rendezvous: one run_distributed per operation on tiny problems,
    rotating allgather/parallel, allgatherv/parallel, allgather/serial."""

    name = "rank-rendezvous"
    aliases: dict[str, str] = {}
    warmup_ops = 3
    trace_pairs_per_s = 100.0
    kernel_reps = 4

    def __init__(self, seed: int, smoke: bool, work):
        self.M, self.N, self.nnz = (20, 21, 100) if smoke else (200, 201, 2000)
        self.seed = seed
        self.work = work
        self.kinds = None
        self.last = None

    def setup(self, api) -> None:
        ref = api.reference_fixture()
        gen = api.generate(GenParams(M=self.M, N=self.N, target_nnz=self.nnz,
                                     seed=self.seed))
        # (fixture, engine mode, expected gather path, its matrix and x)
        self.kinds = [(fx, mode, expected_path(fx), fx.matrix(), fx.x_vector())
                      for fx, mode in ((ref, "parallel"), (gen, "parallel"),
                                       (ref, "serial"))]

    def working_sets(self):
        return [working_set(fx.M, fx.N, fx.nnz) for fx, *_ in self.kinds[:2]]

    def op(self, api, i: int, rec: Rec) -> None:
        kind = i % 3
        fx, mode, path, mat, x = self.kinds[kind]
        t0, cpu = perf_counter(), process_time()
        dist = api.run_distributed(fx, RANKS, mode=mode)
        t1 = perf_counter()
        rec.op.append((t1 - t0, process_time() - cpu))
        rec.dist.append((t1 - t0, fx.nnz, kind))
        check_dist(dist, fx, path)
        # the plain single-threaded baseline of the same problem, timed on
        # its own and outside the operation's latency
        rec.seq.append((timed_kernel(api, mat, x, fx, self.kernel_reps),
                        self.kernel_reps * fx.nnz, kind))
        self.last = (fx, dist, mode)

    def probe(self, api, tracer) -> None:
        fx, dist, mode = self.last
        mirror(api, tracer, fx, dist, mode)

    def setup_probe(self, api) -> None:
        for fx, *_ in self.kinds[:2]:
            check(np.array_equal(api.oracle(fx), fx.z), "core",
                  "dense oracle != z")
        api.write_fixture(self.kinds[1][0], self.work / "rank-rendezvous.fx")


WORKLOADS = {w.name: w for w in (Pipeline, MultiplyLarge, RankRendezvous)}
