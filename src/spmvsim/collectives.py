"""Deterministic in-process simulation of message-passing collectives.

K logical ranks run the same program, each on a thread of its own while the
run lasts; between runs those daemon threads park in a module-private pool (at
most MAX_RANKS of them) and serve the next run. A collective call deposits the
rank's contribution and blocks until every rank has contributed to the same
generation; results are then computed once, in ascending rank order, so the
outcome is a pure function of the contributions and never of thread
scheduling. Waiters wake only on what can end a wait: a generation ending
(complete, mismatched or deserted), the serial baton moving, a rank returning,
or an abort; a deposit that leaves its generation open wakes nobody, so in
parallel mode a collective wakes each waiter once.

Two execution modes produce bitwise identical results:

- "parallel": ranks run concurrently and only synchronize at collectives.
- "serial": at most one rank is runnable at any moment. Ranks take strict
  turns in ascending order, handing the baton over at every collective, which
  gives a single deterministic interleaving for debugging.

Misuse that would deadlock or corrupt a real message-passing run is detected
and raised instead: mismatched collective sequences, a rank returning while
peers still wait, unequal block lengths in allgather, and inconsistent
counts or displacements in allgatherv.
"""

from __future__ import annotations

import itertools
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
    "CountMismatch",
    "OverlappingDisplacement",
    "TraceRecord",
    "CollectiveTrace",
    "RankContext",
    "CollectiveEngine",
    "run_ranks",
]


# each simulated rank runs on an OS thread, and at most this many threads stay
# parked between runs; engines refuse more ranks before starting any
MAX_RANKS = 64

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
    """[0, v0, v0 + v1, ...] without the grand total: exscan_sum's result,
    a layout's block starts, and the displacements allgatherv accepts."""
    return list(itertools.accumulate(values, initial=0))[:-1]


class CollectiveError(RuntimeError):
    """Base class for collective protocol failures."""


class CollectiveMismatch(CollectiveError):
    """Ranks disagree about which collective comes next."""


class UnequalBlockLength(CollectiveError):
    """allgather requires every rank to contribute the same block length."""


class CountMismatch(CollectiveError):
    """allgatherv counts disagree with block lengths or across ranks."""


class OverlappingDisplacement(CollectiveError):
    """allgatherv displacements must be the exclusive prefix sums of counts."""


class TraceRecord(NamedTuple):
    """One rank's participation in one collective generation."""

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

    def _append(self, record: TraceRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> list[TraceRecord]:
        return sorted(self._records, key=lambda r: (r.seq, r.rank))

    def dump(self) -> str:
        return "\n".join(r.format() for r in self.records)


class _Generation:
    """Rendezvous state for one collective sequence number."""

    __slots__ = ("op", "payloads", "deposited", "results", "collected",
                 "done", "error_class", "error_message")

    def __init__(self, size: int, op: str):
        self.op = op
        self.payloads: list = [None] * size
        self.deposited: set[int] = set()
        self.results: list | None = None
        self.collected = 0
        self.done = False
        self.error_class: type[CollectiveError] | None = None
        self.error_message: str | None = None

    def fail(self, error_class: type[CollectiveError], message: str) -> None:
        if self.error_class is None:
            self.error_class = error_class
            self.error_message = message
        self.done = True


def _reduce_allreduce_sum(payloads: list) -> list:
    acc = 0.0
    for v in payloads:
        acc += v
    return [acc] * len(payloads)


def _reduce_allgather(payloads: list) -> list:
    lengths = [len(b) for b in payloads]
    if len(set(lengths)) > 1:
        raise UnequalBlockLength(
            f"allgather blocks must have equal length, got {lengths}")
    full = np.concatenate(payloads)
    return [full.copy() for _ in payloads]


def _reduce_allgatherv(payloads: list) -> list:
    blocks = [p[0] for p in payloads]
    counts0 = payloads[0][1]
    for rank, (_, counts, _) in enumerate(payloads):
        if counts != counts0:
            raise CountMismatch(
                f"allgatherv counts differ across ranks: rank 0 passed "
                f"{list(counts0)}, rank {rank} passed {list(counts)}")
    full = np.concatenate(blocks)
    return [full.copy() for _ in payloads]


class CollectiveEngine:
    """Runs one program on K simulated ranks and arbitrates collectives.

    One engine corresponds to one run; run() may be called once. All shared
    state is guarded by a single condition variable, including the serial
    mode turn baton, so every blocking wait can also be released by the
    abort path, and it is notified only when some wait can end.
    """

    def __init__(self, size: int, *, mode: str = "parallel",
                 record_trace: bool = False, timeout: float = 60.0):
        if not 1 <= size <= MAX_RANKS:
            raise ValueError(f"size must be in 1..{MAX_RANKS}, got {size}")
        if mode not in ("parallel", "serial"):
            raise ValueError(f"mode must be 'parallel' or 'serial', got {mode!r}")
        if not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be above 0 and at most "
                             f"{threading.TIMEOUT_MAX}s, got {timeout!r}")
        self.size = size
        self.mode = mode
        self.timeout = timeout
        self.trace: CollectiveTrace | None = (
            CollectiveTrace() if record_trace else None)
        self._cond = threading.Condition()
        self._generations: dict[int, _Generation] = {}
        self._next_seq = [0] * size
        self._finished = [False] * size
        self._turn = 0 if mode == "serial" else None
        self._abort: tuple[type[BaseException], str] | None = None
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
        run still going after timeout seconds is aborted and raises
        CollectiveError at most one more timeout later, even if a rank never
        stops.
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
        if not self._all_parked.acquire(timeout=self.timeout):
            with self._cond:
                self._abort = (CollectiveError,
                               f"simulation timed out after {self.timeout}s")
                self._cond.notify_all()
            # a rank stuck outside any collective never sees the abort; give
            # up on it after one more timeout and abandon its daemon thread,
            # which exits instead of parking once its program returns
            stopped = self._all_parked.acquire(timeout=self.timeout)
            with self._cond:
                self._abandoned = not stopped
                stuck = [r for r, done in enumerate(self._finished) if not done]
            detail = f"; rank(s) {stuck} did not stop" if stuck else ""
            raise CollectiveError(
                f"simulation timed out after {self.timeout}s{detail}")
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
            self._await_turn(rank)
            results[rank] = program(ctx)
        except BaseException as exc:  # handed to run(), which re-raises it
            failures[rank] = exc
        return self._finish_rank(rank)

    def _await_turn(self, rank: int) -> None:
        if self.mode != "serial":
            return
        with self._cond:
            while self._turn != rank and self._abort is None:
                self._cond.wait()
            self._check_abort()

    def _finish_rank(self, rank: int) -> bool:
        with self._cond:
            self._finished[rank] = True
            if self.mode == "serial" and self._turn == rank:
                self._advance_turn()
            for seq, gen in self._generations.items():
                self._fail_if_deserted(seq, gen)
            self._cond.notify_all()
            return not self._abandoned

    def _fail_if_deserted(self, seq: int, gen: _Generation) -> None:
        # under self._cond; a generation whose missing ranks have all
        # returned can never complete and would deadlock a real run
        missing = [r for r in range(self.size) if r not in gen.deposited]
        if not gen.done and missing and all(self._finished[r] for r in missing):
            gen.fail(CollectiveMismatch,
                     f"rank(s) {missing} finished without joining "
                     f"'{gen.op}' at seq {seq}")

    def _advance_turn(self) -> None:
        # under self._cond; pass the baton to the next unfinished rank
        for step in range(1, self.size + 1):
            cand = (self._turn + step) % self.size
            if not self._finished[cand]:
                self._turn = cand
                return

    def _check_abort(self) -> None:
        if self._abort is not None:
            cls, msg = self._abort
            raise cls(msg)

    # -- rendezvous ---------------------------------------------------------

    def _collective(self, rank: int, op: str, payload, length: int, reducer):
        with self._cond:
            self._check_abort()
            seq = self._next_seq[rank]
            self._next_seq[rank] += 1
            gen = self._generations.get(seq)
            if gen is None:
                gen = _Generation(self.size, op)
                self._generations[seq] = gen
            if self.trace is not None:
                self.trace._append(TraceRecord(seq, op, rank, length))
            was_done = gen.done
            if not was_done and gen.op != op:
                gen.fail(CollectiveMismatch,
                         f"collective mismatch at seq {seq}: rank {rank} "
                         f"called '{op}' while '{gen.op}' is in progress")
            gen.deposited.add(rank)
            if not gen.done:
                gen.payloads[rank] = payload
                if len(gen.deposited) == self.size:
                    try:
                        gen.results = reducer(gen.payloads)
                    except CollectiveError as exc:
                        gen.fail(type(exc), str(exc))
                    except Exception as exc:  # reducer bug; fail loudly everywhere
                        gen.fail(CollectiveError, f"reducer failed: {exc!r}")
                    gen.done = True
            self._fail_if_deserted(seq, gen)
            handed_over = self.mode == "serial" and self._turn == rank
            if handed_over:
                self._advance_turn()
            # an open generation with the baton unmoved releases no waiter
            if handed_over or gen.done != was_done:
                self._cond.notify_all()
            while True:
                self._check_abort()
                if gen.done and (gen.error_class is not None
                                 or self.mode != "serial"
                                 or self._turn == rank):
                    break
                self._cond.wait()
            gen.collected += 1
            if gen.collected == self.size:
                self._generations.pop(seq, None)
            if gen.error_class is not None:
                raise gen.error_class(gen.error_message)
            return gen.results[rank]


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
        arr = np.asarray(block)
        if arr.ndim != 1:
            raise ValueError(f"allgather block must be 1-D, got shape {arr.shape}")
        return self._engine._collective(
            self.rank, "allgather", arr.copy(), len(arr), _reduce_allgather)

    def allgatherv(self, block, counts, displs) -> np.ndarray:
        """Concatenate variable-length blocks placed by counts and displs.

        Only the canonical packed placement is supported: counts[r] must be
        the length of rank r's block and displs must be the exclusive prefix
        sums of counts, identical on every rank.
        """
        arr = np.asarray(block)
        if arr.ndim != 1:
            raise ValueError(f"allgatherv block must be 1-D, got shape {arr.shape}")
        counts_t = tuple(int(c) for c in counts)
        displs_t = tuple(int(d) for d in displs)
        if len(counts_t) != self.size or len(displs_t) != self.size:
            raise CountMismatch(
                f"expected {self.size} counts and displacements, got "
                f"{len(counts_t)} and {len(displs_t)}")
        if any(c < 0 for c in counts_t):
            raise CountMismatch(f"negative count in {list(counts_t)}")
        if counts_t[self.rank] != len(arr):
            raise CountMismatch(
                f"rank {self.rank} block has {len(arr)} entries but "
                f"counts[{self.rank}] = {counts_t[self.rank]}")
        expected = exclusive_prefix_sums(counts_t)
        if displs_t != tuple(expected):
            raise OverlappingDisplacement(
                f"displacements {list(displs_t)} are not the exclusive "
                f"prefix sums {expected} of counts {list(counts_t)}")
        payload = (arr.copy(), counts_t, displs_t)
        return self._engine._collective(
            self.rank, "allgatherv", payload, len(arr), _reduce_allgatherv)

    def allreduce_sum(self, value: float) -> float:
        """Global sum, accumulated in ascending rank order on every rank."""
        return self._engine._collective(
            self.rank, "allreduce_sum", float(value), 1, _reduce_allreduce_sum)


def run_ranks(size: int, program, *, mode: str = "parallel"):
    """Run program(ctx) across size simulated ranks; results in rank order."""
    return CollectiveEngine(size, mode=mode).run(program)
