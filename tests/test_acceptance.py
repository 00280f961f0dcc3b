"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned where the criteria pin them: integer-valued data makes
every equality check exact (==, array_equal), the residual threshold is the
fixed 1e-6 of check_pass, and the runtime bounds are asserted on measured
wall time.
"""

from __future__ import annotations

import struct
import time

import numpy as np

from spmvsim import (
    CollectiveEngine,
    GatherPath,
    GenParams,
    build_layout,
    check_pass,
    dense_from_csr,
    generate,
    read_fixture,
    reference_fixture,
    residual_sq,
    run_distributed,
    spmv_dense_oracle,
    spmv_seq,
    verify_sequential,
    write_fixture,
    import_matrix_market,
    export_matrix_market,
)
from spmvsim.cli import main

REF_Z = np.array([40, 0, 12, 113, 69, 27, 0, 45, 0, 57, 0, 0, 73, 36, 20, 0,
                  14, 77, 61, 36, 95, 4, 68, 12, 32, 141, 0, 148, 81, 0, 63,
                  51], dtype=np.float64)


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE PASS criterion {criterion}: {text}")


def test_criterion_1_sequential_reference_exact(tmp_path, capsys):
    fx = reference_fixture()
    y = spmv_seq(fx.matrix(), fx.x_vector())
    assert np.array_equal(y.values, REF_Z)          # all 32 entries, exact
    assert residual_sq(y, fx.z_vector()) == 0.0
    # success message and exit code through the real front end
    path = tmp_path / "ref.fx"
    write_fixture(fx, path)
    code = main(["run", "--fixture", str(path), "--mode", "seq"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "Succeeded in computing y = Ax"
    # runtime: best kernel invocation under 1 ms
    mat, x = fx.matrix(), fx.x_vector()
    best = min(_timed(lambda: spmv_seq(mat, x)) for _ in range(5))
    assert best < 1e-3, f"kernel took {best * 1e3:.3f} ms"
    report(1, f"product exact, success line, exit 0, "
              f"kernel {best * 1e6:.0f} us")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_distributed_reference_all_sizes():
    fx = reference_fixture()
    expect_uneven = {5, 7, 8}                       # 36 % size != 0
    t0 = time.perf_counter()
    for size in range(1, 9):
        run = run_distributed(fx, size)
        assert run.residual_sq == 0.0, size
        assert np.array_equal(np.concatenate(run.per_rank_y), REF_Z), size
        want = (GatherPath.UNEVEN_BLOCKS if size in expect_uneven
                else GatherPath.EQUAL_BLOCKS)
        assert run.gather_path is want, size
        # the trace is the evidence for the path actually taken
        ops = {r.op for r in run.trace.records}
        assert ("allgatherv" in ops) == (size in expect_uneven), size
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"eight runs took {elapsed:.3f} s"
    report(2, f"sizes 1..8 exact with correct gather paths in "
              f"{elapsed * 1e3:.0f} ms")


def test_criterion_3_layout_obligations_exhaustive():
    t0 = time.perf_counter()
    for total in range(0, 201):
        for size in range(1, 17):
            sizes = [total // size + (r < total % size) for r in range(size)]
            assert sum(sizes) == total, (total, size)
            assert max(sizes) - min(sizes) <= 1, (total, size)
            layout = build_layout(total, size)
            assert layout.local_sizes == tuple(sizes)
            acc = 0
            for r in range(size):
                assert layout.starts[r] == acc, (total, size, r)
                acc += sizes[r]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"exhaustive sweep took {elapsed:.3f} s"
    # live engine exscan agrees with the precomputed starts
    for total in (0, 1, 36, 200):
        for size in range(1, 17):
            layout = build_layout(total, size)
            starts = CollectiveEngine(size).run(
                lambda ctx: ctx.exscan_sum(layout.local_sizes[ctx.rank]))
            assert tuple(starts) == layout.starts, (total, size)
    report(3, f"3216 (global, size) pairs checked in {elapsed * 1e3:.0f} ms, "
              f"engine exscan agrees on sampled grid")


def _fixture_corpus(count: int):
    rng = np.random.default_rng(20260815)
    for k in range(count):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        seed = int(rng.integers(0, 2**31))
        if k % 2 == 0:
            cap = max(1, (m * n) // int(rng.integers(2, 9)))
            params = GenParams(M=m, N=n, target_nnz=int(rng.integers(0, cap)),
                               seed=seed)
        else:
            params = GenParams(M=m, N=n, row_fill=int(rng.integers(0, n + 1)),
                               seed=seed)
        yield generate(params)


def test_criterion_4_oracle_equivalence_and_distribution():
    checked = 0
    for fx in _fixture_corpus(100):
        mat, x = fx.matrix(), fx.x_vector()
        y = spmv_seq(mat, x)
        oracle = spmv_dense_oracle(dense_from_csr(mat), x)
        assert np.array_equal(y.values, oracle.values)
        assert np.array_equal(y.values, fx.z)
        for size in range(1, 9):
            run = run_distributed(fx, size)
            assert np.array_equal(np.concatenate(run.per_rank_y), y.values), \
                (fx.metadata, size)
            assert run.residual_sq == 0.0
        checked += 1
    assert checked >= 100
    report(4, f"{checked} generated fixtures: kernel == oracle exactly, "
              f"distributed sizes 1..8 == sequential exactly")


def test_criterion_5_mutation_sensitivity():
    base = reference_fixture()
    occupied = sorted(set(base.col_idx.tolist()))
    rng = np.random.default_rng(42)
    flunked = 0
    for k in range(24):
        fx = reference_fixture()
        sign = 1.0 if k % 2 == 0 else -1.0
        kind = ("value", "x", "z")[k % 3]
        if kind == "value":
            fx.values[rng.integers(0, fx.nnz)] += sign
        elif kind == "x":
            # only columns some stored entry references can influence A x
            fx.x[occupied[rng.integers(0, len(occupied))]] += sign
        else:
            fx.z[rng.integers(0, fx.M)] += sign
        y = spmv_seq(fx.matrix(), fx.x_vector())
        rsq = residual_sq(y, fx.z_vector())
        assert rsq > 1e-6, (kind, k, rsq)
        assert not check_pass(rsq)
        assert not verify_sequential(fx).overall
        dist = run_distributed(fx, 3)
        assert dist.residual_sq == rsq
        flunked += 1
    assert flunked >= 20
    report(5, f"{flunked} single +-1 perturbations each rejected with "
              f"residualSq > 1e-6")


def _run_signature(fx, mode: str) -> tuple:
    run = run_distributed(fx, 7, mode=mode)
    return (
        run.size,
        run.row_layout.local_sizes, run.row_layout.starts,
        run.col_layout.local_sizes, run.col_layout.starts,
        tuple(y.tobytes() for y in run.per_rank_y),
        struct.pack("<d", run.residual_sq),
        run.gather_path.value,
        run.trace.dump(),
    )


def test_criterion_6_repeated_runs_bit_identical():
    fx = reference_fixture()
    reference_sig = _run_signature(fx, "parallel")
    for _ in range(49):
        assert _run_signature(fx, "parallel") == reference_sig
    for _ in range(50):
        assert _run_signature(fx, "serial") == reference_sig
    report(6, "50 parallel and 50 serial runs at size 7 bit-identical "
              "(slices, residual bits, layouts, paths, traces)")


def test_criterion_7_round_trips_lossless(tmp_path):
    corpus = [reference_fixture()]
    rng = np.random.default_rng(7)
    for k in range(20):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 40))
        if k % 2 == 0:
            params = GenParams(M=m, N=n,
                               target_nnz=int(rng.integers(0, m * n + 1)),
                               seed=k)
        else:
            params = GenParams(M=m, N=n, row_fill=int(rng.integers(0, 7)),
                               seed=k)
        corpus.append(generate(params))
    for idx, fx in enumerate(corpus):
        path = tmp_path / f"f{idx}.fx"
        write_fixture(fx, path)
        back = read_fixture(path)
        assert back.M == fx.M and back.N == fx.N
        for name in ("row_ptr", "col_idx", "values", "x", "z"):
            assert np.array_equal(getattr(back, name), getattr(fx, name)), \
                (idx, name)
        assert back.metadata == fx.metadata
        mtx = tmp_path / f"f{idx}.mtx"
        export_matrix_market(fx, mtx)
        imported = import_matrix_market(mtx)
        for name in ("row_ptr", "col_idx", "values", "x", "z"):
            assert np.array_equal(getattr(imported, name), getattr(fx, name)), \
                (idx, name)
    report(7, f"fixture-file and Matrix Market round trips lossless for "
              f"{len(corpus)} fixtures")
