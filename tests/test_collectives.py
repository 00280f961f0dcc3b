"""Rendezvous semantics, determinism, misuse detection, and tracing."""

import gc
import itertools
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import spmvsim
from conftest import ARRIVAL_ORDERS
from spmvsim import (
    MAX_RANKS,
    CollectiveEngine,
    CollectiveError,
    CollectiveMismatch,
    UnequalBlockLength,
    reference_fixture,
)


def test_exscan_reference_sizes():
    # contributions 11, 11, 10 give offsets 0, 11, 22
    sizes = [11, 11, 10]
    offsets = CollectiveEngine(3).run(
        lambda ctx: ctx.exscan_sum(sizes[ctx.rank]))
    assert offsets == [0, 11, 22]


def test_exscan_rank_zero_is_zero():
    offsets = CollectiveEngine(4).run(
        lambda ctx: ctx.exscan_sum(ctx.rank + 100))
    assert offsets[0] == 0
    assert offsets == [0, 100, 201, 303]


def test_exscan_rejects_non_integers():
    with pytest.raises(TypeError):
        CollectiveEngine(2).run(lambda ctx: ctx.exscan_sum(1.5))


@pytest.mark.parametrize("value, name", [("1.5", "str"), (None, "NoneType"),
                                         (1j, "complex")])
@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_allreduce_rejects_non_numbers(value, name, mode):
    # refused before the rendezvous, so no rank joins a collective
    def program(ctx):
        try:
            ctx.allreduce_sum(value)
        except TypeError as exc:
            return str(exc)

    engine = CollectiveEngine(2, mode=mode, record_trace=True)
    assert engine.run(program) == [
        f"allreduce_sum takes a real number, got {name}"] * 2
    assert engine.trace.records == []


def test_allgather_concatenates_in_rank_order():
    fx = reference_fixture()

    def program(ctx):
        lo = ctx.rank * 12
        return ctx.allgather(fx.x[lo:lo + 12])

    results = CollectiveEngine(3).run(program)
    for full in results:
        assert np.array_equal(full, fx.x)


def test_allgather_empty_blocks():
    results = CollectiveEngine(3).run(lambda ctx: ctx.allgather(np.array([])))
    for full in results:
        assert full.shape == (0,)


def test_allgather_results_are_private_copies():
    def program(ctx):
        full = ctx.allgather(np.array([float(ctx.rank)]))
        if ctx.rank == 0:
            full[:] = -99.0  # must not leak into other ranks' results
        return full

    results = CollectiveEngine(3).run(program)
    assert results[0].tolist() == [-99.0, -99.0, -99.0]
    assert results[1].tolist() == [0.0, 1.0, 2.0]
    assert results[2].tolist() == [0.0, 1.0, 2.0]


def test_allgatherv_reassembles_uneven_blocks():
    fx = reference_fixture()
    layout_sizes = [8, 7, 7, 7, 7]
    starts = [0, 8, 15, 22, 29]

    def program(ctx):
        lo = starts[ctx.rank]
        block = fx.x[lo:lo + layout_sizes[ctx.rank]]
        return ctx.allgatherv(block)

    results = CollectiveEngine(5).run(program)
    for full in results:
        assert np.array_equal(full, fx.x)


def test_allgatherv_zero_length_blocks():
    data = {0: [7.0], 1: [], 2: [9.0]}

    def program(ctx):
        return ctx.allgatherv(np.array(data[ctx.rank]))

    results = CollectiveEngine(3).run(program)
    for full in results:
        assert full.tolist() == [7.0, 9.0]


def test_allreduce_sums_in_rank_order():
    # 1.0 in rank order, 0.0 in reverse: 1e16 + 1.0 rounds back to 1e16
    values = [1e16, 1.0, -1e16, 1.0]
    results = CollectiveEngine(4).run(
        lambda ctx: ctx.allreduce_sum(values[ctx.rank]))
    assert ((1e16 + 1.0) + -1e16) + 1.0 == 1.0
    assert ((1.0 + -1e16) + 1.0) + 1e16 == 0.0
    assert results == [1.0] * 4


def test_sequence_mismatch_detected():
    def program(ctx):
        if ctx.rank == 0:
            return ctx.allreduce_sum(1.0)
        return ctx.allgather(np.array([1.0]))

    with pytest.raises(CollectiveMismatch, match="seq 0"):
        CollectiveEngine(2).run(program)


# the deserter returns after joining the first `joined` of its peers' two
# collectives; joined=1 makes it desert mid-run
DESERTION_CASES = pytest.mark.parametrize("size, mode, joined", [
    (size, mode, joined) for size in (2, 8)
    for mode in ("parallel", "serial") for joined in (0, 1)])


@DESERTION_CASES
def test_desertion_detected_instead_of_deadlock(size, mode, joined):
    # the last rank returns while its peers wait, so its return finds the
    # desertion
    def program(ctx):
        if ctx.rank == size - 1:
            for _ in range(joined):
                ctx.allreduce_sum(1.0)
            time.sleep(0.02)
            return None
        ctx.allreduce_sum(1.0)
        return ctx.allreduce_sum(1.0)

    with pytest.raises(CollectiveMismatch, match=(
            rf"rank\(s\) \[{size - 1}\] finished without joining "
            rf"'allreduce_sum' at seq {joined}$")):
        CollectiveEngine(size, mode=mode).run(program)


@DESERTION_CASES
def test_late_collective_against_finished_peer(size, mode, joined):
    # reverse of desertion: rank 0 finishes first, then the slow ranks
    # deposit; detection happens at deposit time
    def program(ctx):
        if ctx.rank == 0:
            for _ in range(joined):
                ctx.allreduce_sum(1.0)
            return None
        for seq in range(2):
            if seq == joined:
                time.sleep(0.02)
            ctx.allreduce_sum(1.0)

    with pytest.raises(CollectiveMismatch, match=(
            r"rank\(s\) \[0\] finished without joining "
            rf"'allreduce_sum' at seq {joined}$")):
        CollectiveEngine(size, mode=mode).run(program)


def test_unequal_allgather_blocks_detected():
    def program(ctx):
        return ctx.allgather(np.ones(ctx.rank + 1))

    with pytest.raises(UnequalBlockLength):
        CollectiveEngine(3).run(program)


@pytest.mark.parametrize("call, error, message", [
    (lambda ctx: ctx.allgather(np.ones((1, 2))), ValueError,
     "allgather block must be 1-D, got shape (1, 2)"),
    (lambda ctx: ctx.allgatherv(np.ones((1, 1))), ValueError,
     "allgatherv block must be 1-D, got shape (1, 1)"),
])
@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_gather_arguments_checked_before_the_rendezvous(call, error, message,
                                                        mode):
    def program(ctx):
        try:
            call(ctx)
        except error as exc:
            return str(exc)

    assert CollectiveEngine(2, mode=mode).run(program) == [message] * 2


@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_reducer_bug_fails_the_collective_on_every_rank(monkeypatch, mode):
    def broken(payloads):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(spmvsim.collectives, "_reduce_allreduce_sum", broken)

    def program(ctx):
        try:
            ctx.allreduce_sum(1.0)
        except CollectiveError as exc:
            return type(exc), str(exc)

    assert CollectiveEngine(3, mode=mode).run(program) == [
        (CollectiveError, "reducer failed: ZeroDivisionError('boom')")] * 3


def test_misuse_detected_in_serial_mode_too():
    def program(ctx):
        if ctx.rank == 0:
            return ctx.allreduce_sum(1.0)
        return None

    with pytest.raises(CollectiveMismatch):
        CollectiveEngine(2, mode="serial").run(program)


def test_program_exception_beats_sympathetic_mismatch():
    def program(ctx):
        if ctx.rank == 1:
            raise ValueError("rank 1 exploded")
        return ctx.allreduce_sum(1.0)

    with pytest.raises(ValueError, match="rank 1 exploded"):
        CollectiveEngine(3).run(program)


def test_specific_protocol_error_beats_peer_mismatch():
    # rank 0 carries on past the failed allgather and is deserted by its
    # peers; their UnequalBlockLength outranks its CollectiveMismatch
    def program(ctx):
        try:
            ctx.allgather(np.ones(2 if ctx.rank == 2 else 1))
        except UnequalBlockLength:
            if ctx.rank != 0:
                raise
        return ctx.allreduce_sum(1.0)

    with pytest.raises(UnequalBlockLength, match=r"\[1, 1, 2\]"):
        CollectiveEngine(3).run(program)


# summands whose sum in rank order differs from their sum in reverse at 3
# and 4 ranks; two summands add alike in either order
SUMMANDS = {2: [0.5, 0.25], 3: [1.0, 1e16, -1e16], 4: [1e16, 1.0, -1e16, 1.0]}
RANK_ORDER_SUMS = {2: 0.75, 3: 0.0, 4: 1.0}


def _every_kind(ctx):
    # each rank's contribution differs, so any order but rank order shows
    offset = ctx.exscan_sum(10 ** ctx.rank)
    gathered = ctx.allgather(np.array([ctx.rank + 0.5]))
    gathered_v = ctx.allgatherv(np.full(ctx.rank + 1, ctx.rank + 0.25))
    total = ctx.allreduce_sum(SUMMANDS[ctx.size][ctx.rank])
    return offset, gathered.tolist(), gathered_v.tolist(), total


@pytest.mark.parametrize("order", ARRIVAL_ORDERS, ids=str)
def test_every_kind_settles_in_rank_order_in_every_arrival_order(
        arrival_order, order):
    size = len(order)
    serial = CollectiveEngine(size, mode="serial", record_trace=True)
    serial.run(_every_kind)
    arrival_order(order)
    engine = CollectiveEngine(size, record_trace=True)
    gathered = [r + 0.5 for r in range(size)]
    gathered_v = [r + 0.25 for r in range(size) for _ in range(r + 1)]
    assert engine.run(_every_kind) == [
        (sum(10 ** q for q in range(r)), gathered, gathered_v,
         RANK_ORDER_SUMS[size]) for r in range(size)]
    assert engine.trace.dump() == serial.trace.dump()


def _outcomes(size, program):
    """Each rank's result, or the class and text of the CollectiveError it
    raised, and the class and text of what run() raises."""
    def caught(ctx):
        try:
            return program(ctx)
        except CollectiveError as exc:
            return type(exc), str(exc)

    per_rank = CollectiveEngine(size).run(caught)
    try:
        CollectiveEngine(size).run(program)
    except CollectiveError as exc:
        return per_rank, (type(exc), str(exc))
    return per_rank, None


def _two_ops(ctx):
    if ctx.rank == 0:
        return ctx.allreduce_sum(1.0)
    return ctx.allgather(np.array([1.0]))


def _three_ops(ctx):
    if ctx.rank == 0:
        return ctx.allreduce_sum(1.0)
    if ctx.rank == 1:
        return ctx.allgather(np.array([1.0]))
    return ctx.allgatherv(np.array([1.0]))


def _last_rank_deserts(ctx):
    if ctx.rank < ctx.size - 1:
        return ctx.allreduce_sum(1.0)


def _mismatch_and_desertion(ctx):
    if ctx.rank < ctx.size - 1:
        return _two_ops(ctx)


def _unequal_blocks(ctx):
    return ctx.allgather(np.ones(ctx.rank + 1))


MISMATCH = (CollectiveMismatch, "collective mismatch at seq 0: rank 1 called "
            "'allgather' while 'allreduce_sum' is in progress")
DESERTION = (CollectiveMismatch,
             "rank(s) [2] finished without joining 'allreduce_sum' at seq 0")
UNEQUAL = (UnequalBlockLength,
           "allgather blocks must have equal length, got [1, 2, 3]")


@pytest.mark.parametrize("program, size, per_rank, raised", [
    pytest.param(_two_ops, 2, [MISMATCH] * 2, MISMATCH, id="mismatch-2"),
    pytest.param(_three_ops, 3, [MISMATCH] * 3, MISMATCH, id="mismatch-3"),
    pytest.param(_last_rank_deserts, 3, [DESERTION] * 2 + [None], DESERTION,
                 id="desertion"),
    # a mismatch outranks a desertion in the same collective
    pytest.param(_mismatch_and_desertion, 3, [MISMATCH] * 2 + [None],
                 MISMATCH, id="mismatch-and-desertion"),
    pytest.param(_unequal_blocks, 3, [UNEQUAL] * 3, UNEQUAL, id="unequal"),
])
def test_errors_are_the_same_in_every_arrival_order(arrival_order, program,
                                                    size, per_rank, raised):
    for order in itertools.permutations(range(size)):
        arrival_order(order)
        assert _outcomes(size, program) == (per_rank, raised), order


def _jittery(ctx):
    # rank-dependent sleeps shake up the thread interleaving; results and
    # traces must come out identical regardless
    time.sleep(0.001 * ((ctx.rank * 7) % 3))
    offset = ctx.exscan_sum(ctx.rank + 1)
    gathered = ctx.allgather(np.array([float(ctx.rank), float(offset)]))
    time.sleep(0.0005 * ((ctx.rank + 1) % 2))
    total = ctx.allreduce_sum(float(offset) * 0.5)
    return offset, gathered.tolist(), total


@pytest.mark.parametrize("size", [8, MAX_RANKS])
def test_modes_agree_at_scale_without_lost_wakeups(size, monkeypatch):
    # a lost wake-up strands a waiter; the short timeout turns that into a
    # failure within seconds instead of a stall, and a short switch interval
    # interleaves the ranks more finely than the default
    monkeypatch.setattr(spmvsim.collectives, "_RUN_TIMEOUT", 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = {mode: CollectiveEngine(size, mode=mode).run(_jittery)
                for mode in ("parallel", "serial")}
    finally:
        sys.setswitchinterval(interval)
    assert runs["parallel"] == runs["serial"]
    offsets = [r * (r + 1) // 2 for r in range(size)]  # exscan of r + 1
    gathered = [float(v) for r in range(size) for v in (r, offsets[r])]
    assert runs["parallel"] == [
        (offsets[r], gathered, sum(float(o) * 0.5 for o in offsets))
        for r in range(size)]


@pytest.mark.parametrize("mode, most", [("parallel", 10 + 8), ("serial", 88)])
def test_collective_wakes_waiters_once_per_generation(mode, most):
    # ten allreduces at K=8: a deposit that leaves its generation open and
    # the serial baton in place must not notify; generation ends, baton
    # moves and rank returns may
    engine = CollectiveEngine(8, mode=mode)
    calls = []
    notify_all = engine._cond.notify_all

    def counting_notify_all():
        calls.append(None)
        notify_all()

    engine._cond.notify_all = counting_notify_all
    engine.run(lambda ctx: [ctx.allreduce_sum(1.0) for _ in range(10)])
    assert len(calls) <= most


def test_modes_produce_identical_results():
    parallel = CollectiveEngine(4, mode="parallel").run(_jittery)
    parallel_again = CollectiveEngine(4, mode="parallel").run(_jittery)
    serial = CollectiveEngine(4, mode="serial").run(_jittery)
    assert parallel == parallel_again == serial


def test_trace_is_canonical_and_complete():
    engine_a = CollectiveEngine(4, mode="parallel", record_trace=True)
    engine_a.run(_jittery)
    engine_b = CollectiveEngine(4, mode="serial", record_trace=True)
    engine_b.run(_jittery)
    assert engine_a.trace.dump() == engine_b.trace.dump()
    # every generation has exactly one record per rank
    per_gen = Counter(r.seq for r in engine_a.trace.records)
    assert per_gen == {0: 4, 1: 4, 2: 4}
    ops = {r.seq: r.op for r in engine_a.trace.records}
    assert ops == {0: "exscan_sum", 1: "allgather", 2: "allreduce_sum"}


def test_trace_line_format():
    engine = CollectiveEngine(2, record_trace=True)
    engine.run(lambda ctx: ctx.allgather(np.array([1.0, 2.0, 3.0])))
    assert engine.trace.dump() == ("seq=0 op=allgather rank=0 len=3\n"
                                   "seq=0 op=allgather rank=1 len=3")


def test_trace_off_by_default():
    engine = CollectiveEngine(2)
    engine.run(lambda ctx: ctx.allreduce_sum(1.0))
    assert engine.trace is None


def test_engine_is_single_use():
    engine = CollectiveEngine(2)
    engine.run(lambda ctx: ctx.allreduce_sum(1.0))
    with pytest.raises(RuntimeError, match="already ran"):
        engine.run(lambda ctx: ctx.allreduce_sum(1.0))


def test_engine_argument_checks():
    with pytest.raises(ValueError):
        CollectiveEngine(0)
    with pytest.raises(ValueError):
        CollectiveEngine(2, mode="turbo")
    # one above the cap is refused before any rank program starts
    started = []
    with pytest.raises(ValueError, match=f"1..{MAX_RANKS}"):
        CollectiveEngine(MAX_RANKS + 1).run(started.append)
    assert started == []


def test_single_rank_collectives_are_immediate():
    def program(ctx):
        assert ctx.exscan_sum(5) == 0
        assert ctx.allgather(np.array([1.0, 2.0])).tolist() == [1.0, 2.0]
        assert ctx.allreduce_sum(2.5) == 2.5
        return "done"

    assert CollectiveEngine(1).run(program) == ["done"]
    assert CollectiveEngine(1, mode="serial").run(program) == ["done"]


def test_results_keep_rank_order():
    results = CollectiveEngine(6).run(lambda ctx: ctx.rank * 10)
    assert results == [0, 10, 20, 30, 40, 50]


def test_timeout_backstop(monkeypatch):
    # a program that blocks outside any collective cannot hang the suite
    def stubborn(ctx):
        if ctx.rank == 0:
            time.sleep(1.0)
        return ctx.allreduce_sum(1.0)

    monkeypatch.setattr(spmvsim.collectives, "_RUN_TIMEOUT", 0.2)
    engine = CollectiveEngine(2)
    with pytest.raises(CollectiveError, match="timed out"):
        engine.run(stubborn)


def test_stuck_rank_cannot_hang_the_abort(monkeypatch):
    # rank 0 blocks outside any collective, so it never sees the abort
    release = threading.Event()

    def stuck(ctx):
        if ctx.rank == 0:
            release.wait()
        return ctx.allreduce_sum(1.0)

    monkeypatch.setattr(spmvsim.collectives, "_RUN_TIMEOUT", 0.3)
    engine = CollectiveEngine(2)
    began = time.monotonic()
    try:
        with pytest.raises(CollectiveError, match=r"rank\(s\) \[0\] did not stop"):
            engine.run(stuck)
        assert time.monotonic() - began < 2 * 0.3 + 0.5
    finally:
        release.set()
    for t in threading.enumerate():
        if t.name == "sim-rank-0":
            assert t.daemon
            t.join(5.0)
            assert not t.is_alive()


def test_parked_threads_keep_nothing_of_a_finished_run():
    def program_over(payload):
        return lambda ctx: ctx.allreduce_sum(payload[0])

    payload = np.ones(1000)
    alive = weakref.ref(payload)
    program = program_over(payload)
    del payload  # now reachable only through the program's closure
    assert CollectiveEngine(2).run(program) == [2.0, 2.0]
    del program
    gc.collect()
    assert alive() is None


def test_back_to_back_runs_reuse_parked_threads():
    # every run finds the threads of the run before it parked again
    seen = {thread for _ in range(100)
            for thread in CollectiveEngine(2).run(
                lambda ctx: threading.current_thread())}
    assert len(seen) == 2
    # a running rank thread carries its rank's name; a parked one does not
    names = CollectiveEngine(3).run(
        lambda ctx: threading.current_thread().name)
    assert names == ["sim-rank-0", "sim-rank-1", "sim-rank-2"]
    assert not any(t.name in names for t in threading.enumerate())


def test_pool_parks_at_most_the_threads_a_run_needed():
    # a fresh interpreter, so the runs of other tests leave no parked threads
    script = textwrap.dedent("""
        import threading
        import time
        from spmvsim import MAX_RANKS, CollectiveEngine, collectives

        CollectiveEngine(8).run(lambda ctx: ctx.allreduce_sum(1.0))
        CollectiveEngine(2).run(lambda ctx: ctx.allreduce_sum(1.0))
        assert len(collectives._parked) == 8, collectives._parked
        assert threading.active_count() == 1 + 8

        # two overlapping runs need 2 * MAX_RANKS threads; the ones beyond
        # MAX_RANKS exit instead of parking
        barrier = threading.Barrier(2 * MAX_RANKS, timeout=20)
        callers = [threading.Thread(
            target=CollectiveEngine(MAX_RANKS).run,
            args=(lambda ctx: barrier.wait(),))
            for _ in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(30)
            assert not t.is_alive()
        assert len(collectives._parked) == MAX_RANKS
        deadline = time.monotonic() + 10
        while (threading.active_count() > 1 + MAX_RANKS
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() == 1 + MAX_RANKS
        """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(spmvsim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_concurrent_callers_share_the_pool():
    expected = CollectiveEngine(4, mode="serial").run(_jittery)
    outcomes = [[], []]

    def caller(out):
        for _ in range(50):
            try:
                out.append(CollectiveEngine(4).run(_jittery))
            except Exception as exc:  # reported by the assertion below
                out.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(out,))
                   for out in outcomes]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [[expected] * 50] * 2


def test_interrupt_in_a_rank_reaches_the_caller_and_the_pool_survives(
        monkeypatch):
    def program(ctx):
        if ctx.rank == 1:
            raise KeyboardInterrupt("rank 1 interrupted")
        return ctx.allreduce_sum(1.0)

    with pytest.raises(KeyboardInterrupt, match="rank 1 interrupted"):
        CollectiveEngine(2).run(program)
    monkeypatch.setattr(spmvsim.collectives, "_RUN_TIMEOUT", 5)
    assert CollectiveEngine(2).run(
        lambda ctx: ctx.allreduce_sum(1.0)) == [2.0, 2.0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_ranks_without_the_parents_parked_threads(
        monkeypatch):
    CollectiveEngine(2).run(lambda ctx: ctx.allreduce_sum(1.0))
    monkeypatch.setattr(spmvsim.collectives, "_RUN_TIMEOUT", 2)
    with warnings.catch_warnings():
        # Python 3.12 warns about forking a process that has threads
        warnings.filterwarnings("ignore", category=DeprecationWarning,
                                message=".*fork")
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            engine = CollectiveEngine(2)
            if engine.run(lambda ctx: ctx.allreduce_sum(1.0)) == [2.0, 2.0]:
                status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
