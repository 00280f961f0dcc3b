"""Deterministic in-process simulation of message-passing collectives.

K logical ranks run the same program, each on a thread of its own while the
run lasts; between runs those daemon threads park in a module-private pool (at
most MAX_RANKS of them) and serve the next run. One collective is open at a
time, since a rank joins the next only after the last has settled. A
collective call joins it with the rank's op and contribution and blocks until
it settles: once every rank has joined it or returned, its outcome, errors
included, is decided once, in ascending rank order, so it is a pure function
of the contributions and never of thread scheduling. Waiters wake only on
what can end a wait: a collective settling, the serial baton moving, a rank
returning, or an abort; a join that leaves the collective open wakes nobody,
so in parallel mode a collective wakes each waiter once.

Two execution modes produce bitwise identical results:

- "parallel": ranks run concurrently and only synchronize at collectives.
- "serial": at most one rank is runnable at any moment. Ranks take strict
  turns in ascending order, handing the baton over at every collective, which
  gives a single deterministic interleaving for debugging.

Misuse that would deadlock or corrupt a real message-passing run is detected
and raised instead: mismatched collective sequences, a rank returning while
peers still wait, and unequal block lengths in allgather.
"""

from __future__ import annotations

import itertools
import numbers
import operator
import os
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_RANKS",
    "CollectiveError",
    "CollectiveMismatch",
    "UnequalBlockLength",
    "TraceRecord",
    "CollectiveTrace",
    "RankContext",
    "CollectiveEngine",
]


# each simulated rank runs on an OS thread, and at most this many threads stay
# parked between runs; engines refuse more ranks before starting any
MAX_RANKS = 64

# seconds a run may take before it is aborted, and then the grace its ranks
# get to stop before their threads are abandoned
_RUN_TIMEOUT = 60.0

# parked rank threads as (wake, slot) pairs: a parked thread blocks on its held
# wake lock until run() puts a job in slot and releases the lock
_parked: list[tuple[threading.Lock, list]] = []
_parked_lock = threading.Lock()


def _renew_pool() -> None:
    # a forked child has none of the parked threads, and the lock may be held
    global _parked_lock
    _parked.clear()
    _parked_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_pool)


def _serve(wake: threading.Lock, slot: list) -> None:
    """A pool thread: run the job handed over in slot, park, and repeat."""
    me, park = threading.current_thread(), True
    while park:
        wake.acquire()
        engine, rank, *job = slot.pop()
        me.name = f"sim-rank-{rank}"
        if not engine._worker(rank, *job):
            return  # abandoned by a run that timed out
        me.name = "sim-rank-parked"
        del job  # a parked thread keeps nothing of the finished run
        with _parked_lock:
            park = len(_parked) < MAX_RANKS
            if park:
                _parked.append((wake, slot))
            engine._unparked -= 1
            last = engine._unparked == 0
        # report done only once parked, so the next run finds this thread
        if last:
            engine._all_parked.release()
        del engine


def exclusive_prefix_sums(values) -> list:
    """[0, v0, v0 + v1, ...] without the grand total: exscan_sum's result
    and a layout's block starts."""
    return list(itertools.accumulate(values, initial=0))[:-1]


class CollectiveError(RuntimeError):
    """Base class for collective protocol failures."""


class CollectiveMismatch(CollectiveError):
    """Ranks disagree about which collective comes next."""


class UnequalBlockLength(CollectiveError):
    """allgather requires every rank to contribute the same block length."""


class TraceRecord(NamedTuple):
    """One rank's participation in one collective."""

    seq: int
    op: str
    rank: int
    length: int

    def format(self) -> str:
        return f"seq={self.seq} op={self.op} rank={self.rank} len={self.length}"


class CollectiveTrace:
    """Record of every collective participation in a run.

    Records are stored in canonical (seq, rank) order regardless of the
    thread interleaving that produced them, so dumps of equivalent runs
    compare equal byte for byte.
    """

    def __init__(self):
        self._records: list[TraceRecord] = []

    @property
    def records(self) -> list[TraceRecord]:
        return sorted(self._records, key=lambda r: (r.seq, r.rank))

    def dump(self) -> str:
        return "\n".join(r.format() for r in self.records)


class _Collective:
    """The op and payload each rank joined with, then the settled outcome."""

    def __init__(self, size: int):
        self.ops: list[str | None] = [None] * size
        self.payloads: list = [None] * size
        self.reducer = None
        self.results: list | None = None
        self.error: CollectiveError | None = None
        self.done = False


def _reduce_allreduce_sum(payloads: list) -> list:
    acc = 0.0
    for v in payloads:
        acc += v
    return [acc] * len(payloads)


def _reduce_allgatherv(payloads: list) -> list:
    full = np.concatenate(payloads)
    return [full.copy() for _ in payloads]


def _reduce_allgather(payloads: list) -> list:
    lengths = [len(b) for b in payloads]
    if len(set(lengths)) > 1:
        raise UnequalBlockLength(
            f"allgather blocks must have equal length, got {lengths}")
    return _reduce_allgatherv(payloads)


class CollectiveEngine:
    """Runs one program on K simulated ranks and arbitrates collectives.

    One engine corresponds to one run; run() may be called once. It keeps
    one open collective, the one ranks join next, and _settle() ends each.
    All shared state is guarded by a single condition variable, including
    the serial mode turn baton, so every blocking wait can also be released
    by the abort path, and it is notified only when some wait can end.
    """

    def __init__(self, size: int, *, mode: str = "parallel",
                 record_trace: bool = False):
        if not 1 <= size <= MAX_RANKS:
            raise ValueError(f"size must be in 1..{MAX_RANKS}, got {size}")
        if mode not in ("parallel", "serial"):
            raise ValueError(f"mode must be 'parallel' or 'serial', got {mode!r}")
        self.size = size
        self.mode = mode
        self.trace: CollectiveTrace | None = (
            CollectiveTrace() if record_trace else None)
        self._cond = threading.Condition()
        self._open = _Collective(size)
        self._seq = 0
        self._finished = [False] * size
        self._turn = 0 if mode == "serial" else None
        self._abort: CollectiveError | None = None
        self._abandoned = False
        self._ran = False
        # released by the last rank thread to park again after run()
        self._unparked = size
        self._all_parked = threading.Lock()
        self._all_parked.acquire()

    # -- thread lifecycle ---------------------------------------------------

    def run(self, program) -> list:
        """Execute program(ctx) on every rank; results in rank order.

        If any rank raises, the exception of the lowest-numbered failing
        rank is re-raised here after every rank's thread has parked again. A
        run still going after _RUN_TIMEOUT (60) seconds is aborted and raises
        CollectiveError at most another _RUN_TIMEOUT later, even if a rank
        never stops.
        """
        if self._ran:
            raise RuntimeError("engine already ran; build a new one per run")
        self._ran = True
        results: list = [None] * self.size
        failures: list = [None] * self.size
        with _parked_lock:
            idle = _parked[-self.size:]
            del _parked[-self.size:]
        for rank in range(self.size):
            job = (self, rank, program, results, failures)
            if idle:
                wake, slot = idle.pop()
                slot.append(job)
                wake.release()
            else:
                threading.Thread(target=_serve, args=(threading.Lock(), [job]),
                                 daemon=True).start()
        timeout = _RUN_TIMEOUT
        if not self._all_parked.acquire(timeout=timeout):
            with self._cond:
                self._abort = CollectiveError(
                    f"simulation timed out after {timeout}s")
                self._cond.notify_all()
            # a rank stuck outside any collective never sees the abort; give
            # up on it after one more timeout and abandon its daemon thread,
            # which exits instead of parking once its program returns
            stopped = self._all_parked.acquire(timeout=timeout)
            with self._cond:
                self._abandoned = not stopped
                stuck = [r for r, done in enumerate(self._finished) if not done]
            detail = f"; rank(s) {stuck} did not stop" if stuck else ""
            raise CollectiveError(f"simulation timed out after {timeout}s{detail}")
        self._raise_first_failure(failures)
        return results

    @staticmethod
    def _raise_first_failure(failures: list) -> None:
        # prefer root causes over sympathetic errors: a program exception
        # beats any protocol error, and a specific protocol error beats the
        # mismatch peers report when a failing rank deserts them; ties go to
        # the lowest rank so propagation is deterministic
        def severity(exc) -> int:
            if not isinstance(exc, CollectiveError):
                return 0
            if not isinstance(exc, CollectiveMismatch):
                return 1
            return 2

        candidates = [(severity(exc), rank, exc)
                      for rank, exc in enumerate(failures) if exc is not None]
        if candidates:
            candidates.sort(key=lambda t: (t[0], t[1]))
            raise candidates[0][2]

    def _worker(self, rank: int, program, results: list, failures: list) -> bool:
        """Run one rank; False if the run has abandoned this rank's thread."""
        ctx = RankContext(rank=rank, size=self.size, _engine=self)
        try:
            if self.mode == "serial":
                with self._cond:
                    while self._turn != rank and self._abort is None:
                        self._cond.wait()
                    self._check_abort()
            results[rank] = program(ctx)
        except BaseException as exc:  # handed to run(), which re-raises it
            failures[rank] = exc
        return self._finish_rank(rank)

    def _finish_rank(self, rank: int) -> bool:
        with self._cond:
            self._finished[rank] = True
            if self.mode == "serial" and self._turn == rank:
                self._advance_turn()
            self._settle()
            self._cond.notify_all()
            return not self._abandoned

    def _advance_turn(self) -> None:
        # under self._cond; pass the baton to the next unfinished rank
        for step in range(1, self.size + 1):
            cand = (self._turn + step) % self.size
            if not self._finished[cand]:
                self._turn = cand
                return

    def _check_abort(self) -> None:
        if self._abort is not None:
            raise type(self._abort)(*self._abort.args)

    # -- rendezvous ---------------------------------------------------------

    def _collective(self, rank: int, op: str, payload, length: int, reducer):
        with self._cond:
            self._check_abort()
            coll = self._open
            if self.trace is not None:
                self.trace._records.append(
                    TraceRecord(self._seq, op, rank, length))
            coll.ops[rank] = op
            coll.payloads[rank] = payload
            coll.reducer = reducer
            settled = self._settle()
            handed_over = self.mode == "serial" and self._turn == rank
            if handed_over:
                self._advance_turn()
            # an open collective with the baton unmoved releases no waiter
            if handed_over or settled:
                self._cond.notify_all()
            while True:
                self._check_abort()
                if coll.done and (coll.error is not None
                                  or self.mode != "serial"
                                  or self._turn == rank):
                    break
                self._cond.wait()
            if coll.error is not None:
                raise type(coll.error)(*coll.error.args)
            return coll.results[rank]

    def _settle(self) -> bool:
        """Under self._cond: end the open collective once every rank has
        joined it or returned, judged in rank order: a mismatch, else a
        desertion, else the reducer's results or error. True if it ended."""
        coll, seq = self._open, self._seq
        missing = [r for r, op in enumerate(coll.ops) if op is None]
        # open while nobody has joined it or a missing rank may still join
        if len(missing) == self.size or not all(
                self._finished[r] for r in missing):
            return False
        self._open, self._seq = _Collective(self.size), seq + 1
        op = next(op for op in coll.ops if op is not None)
        odd = [r for r, o in enumerate(coll.ops) if o not in (None, op)]
        if odd:
            coll.error = CollectiveMismatch(
                f"collective mismatch at seq {seq}: rank {odd[0]} "
                f"called '{coll.ops[odd[0]]}' while '{op}' is in progress")
        elif missing:
            coll.error = CollectiveMismatch(
                f"rank(s) {missing} finished without joining "
                f"'{op}' at seq {seq}")
        else:
            try:
                coll.results = coll.reducer(coll.payloads)
            except CollectiveError as exc:
                coll.error = exc
            except Exception as exc:  # reducer bug; fail loudly everywhere
                coll.error = CollectiveError(f"reducer failed: {exc!r}")
        coll.done = True
        return True


@dataclass(frozen=True)
class RankContext:
    """Handle a rank program uses to reach its peers."""

    rank: int
    size: int
    _engine: CollectiveEngine = field(repr=False)

    def exscan_sum(self, value: int) -> int:
        """Exclusive prefix sum over ranks; rank 0 receives 0."""
        contribution = operator.index(value)
        return self._engine._collective(
            self.rank, "exscan_sum", contribution, 1, exclusive_prefix_sums)

    def allgather(self, block) -> np.ndarray:
        """Concatenate equal-length blocks in rank order; all ranks get all."""
        return self._gather("allgather", block, _reduce_allgather)

    def allgatherv(self, block) -> np.ndarray:
        """Concatenate blocks of any lengths in rank order; all ranks get all."""
        return self._gather("allgatherv", block, _reduce_allgatherv)

    def _gather(self, op: str, block, reducer) -> np.ndarray:
        arr = np.asarray(block)
        if arr.ndim != 1:
            raise ValueError(f"{op} block must be 1-D, got shape {arr.shape}")
        return self._engine._collective(
            self.rank, op, arr.copy(), len(arr), reducer)

    def allreduce_sum(self, value: float) -> float:
        """Global sum, accumulated in ascending rank order on every rank."""
        if not isinstance(value, numbers.Real):
            raise TypeError(f"allreduce_sum takes a real number, "
                            f"got {type(value).__name__}")
        return self._engine._collective(
            self.rank, "allreduce_sum", float(value), 1, _reduce_allreduce_sum)
