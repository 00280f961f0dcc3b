"""Spans and exact counts recorded around the benchmark's calls into spmvsim.

Tracing is opt-in. Untraced, the workloads get `plain_api()`, whose
attributes are the package's own function objects: nothing is patched and
nothing is wrapped. Traced, they get `Tracer.api()`, whose attributes are
wrappers that record one span per call (id, parent, name, start, end) in
memory, plus counts derived exactly from the call's arguments and result.
Spans are only turned into per-layer numbers, and written out, once the run
has ended.

Span names follow `<module>.<function>`. A span's self time is its duration
minus the part of it that its child spans cover; `busy_s` sums self time.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import spmvsim
from spmvsim import GatherPath, RankContext, cli

LAYERS = ("core", "layout", "collectives", "distributed", "fixtures",
          "fixture_io", "verify", "cli")
COLLECTIVE_OPS = ("exscan_sum", "allgather", "allgatherv", "allreduce_sum")
# every payload element the engine moves is an int64 or a float64
ELEMENT_BYTES = 8


def dense_oracle(fixture):
    """z recomputed by the package's dense oracle (dense_from_csr followed by
    spmv_dense_oracle), the independent check that generate, the checked
    read, verify_sequential and Matrix Market import each run internally."""
    dense = spmvsim.dense_from_csr(fixture.matrix())
    return spmvsim.spmv_dense_oracle(dense, fixture.x_vector()).values


# -- exact counts, derived from a call's arguments and result ----------------

def _spmv_counts(tracer, args, y):
    mat, x = args
    # compulsory traffic from array sizes (row_ptr, col_idx, values, the
    # gathered x, y); computed, not measured, so cache misses are ignored
    moved = (mat.m + 1) + 2 * mat.nnz + x.n + mat.m
    return {"flops": 2 * mat.nnz, "nnz": mat.nnz,
            "bytes_computed": ELEMENT_BYTES * moved}


def _extract_counts(tracer, args, local):
    copied = len(local.row_ptr) + 2 * local.nnz
    return {"bytes_copied": ELEMENT_BYTES * copied}


def _oracle_counts(tracer, args, z):
    fixture = args[0]
    return {"cells": fixture.M * fixture.N}


def _write_counts(tracer, args, result):
    data = Path(args[1]).read_bytes()
    tracer.fixture_hashes.append(hashlib.sha256(data).hexdigest())
    return {"bytes": len(data)}


def _export_counts(tracer, args, x_path):
    return {"bytes": os.path.getsize(args[1]) + os.path.getsize(x_path)}


def _run_counts(tracer, args, report):
    return {"allgatherv_runs": int(report.gather_path is GatherPath.UNEVEN_BLOCKS)}


# span name -> (function, count hook); the API attribute is the part after
# the module name
API = {
    "fixtures.generate": (spmvsim.generate, None),
    "fixtures.reference_fixture": (spmvsim.reference_fixture, None),
    "fixture_io.write_fixture": (spmvsim.write_fixture, _write_counts),
    "fixture_io.read_fixture": (spmvsim.read_fixture, None),
    "fixture_io.read_fixture_nocheck": (spmvsim.read_fixture, None),
    "fixture_io.export_matrix_market": (spmvsim.export_matrix_market,
                                        _export_counts),
    "fixture_io.import_matrix_market": (spmvsim.import_matrix_market, None),
    "core.spmv_seq": (spmvsim.spmv_seq, _spmv_counts),
    "core.residual_sq": (spmvsim.residual_sq, None),
    "core.oracle": (dense_oracle, _oracle_counts),
    "layout.extract_local": (spmvsim.extract_local, _extract_counts),
    "collectives.exscan_sum": (RankContext.exscan_sum, None),
    "collectives.allreduce_sum": (RankContext.allreduce_sum, None),
    "distributed.gather_x": (spmvsim.gather_x, None),
    "distributed.run_distributed": (spmvsim.run_distributed, _run_counts),
    "verify.verify_sequential": (spmvsim.verify_sequential, None),
    "cli.main": (cli.main, None),
}


def plain_api() -> SimpleNamespace:
    """The package's functions themselves, for untraced runs."""
    return SimpleNamespace(**{name.split(".", 1)[1]: fn
                              for name, (fn, _) in API.items()})


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.fixture_hashes: list[str] = []
        # mirror engine span id -> gather collective its ranks used
        self.gather_ops: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; the parent defaults to this thread's open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                for stat, value in hook(self, args, result).items():
                    self.counts[f"{name}.{stat}"] += value
            return result
        return traced

    def api(self) -> SimpleNamespace:
        """Wrappers that record a span and counts around each call."""
        return SimpleNamespace(**{name.split(".", 1)[1]: self._wrap(name, fn, hook)
                                  for name, (fn, hook) in API.items()})

    def count_collectives(self, engine_span: int, trace) -> None:
        """Exact collective calls and payload bytes from a CollectiveTrace."""
        ops = set()
        for rec in trace.records:
            ops.add(rec.op)
            self.counts[f"collectives.{rec.op}.calls"] += 1
            self.counts[f"collectives.{rec.op}.bytes"] += ELEMENT_BYTES * rec.length
        self.gather_ops[engine_span] = ("allgatherv" if "allgatherv" in ops
                                        else "allgather")

    def fixture_digest(self) -> str:
        """One hash over the bytes of every fixture file written, in order."""
        return hashlib.sha256("".join(self.fixture_hashes).encode()).hexdigest()

    def layer_metrics(self, errors: Counter) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans and counts."""
        children = defaultdict(list)
        parent_of = {}
        for sid, parent, _, start, end in self.spans:
            children[parent].append((start, end))
            parent_of[sid] = parent
        busy_ns = Counter()
        waits_us = defaultdict(list)
        for sid, parent, name, start, end in self.spans:
            busy_ns[name] += (end - start) - _covered_ns(children.get(sid, ()),
                                                         start, end)
            op = name.split(".", 1)[1]
            if op in COLLECTIVE_OPS:
                waits_us[op].append((end - start) / 1e3)
            elif name == "distributed.gather_x":
                # gather_x span -> rank program span -> mirror engine span
                engine = parent_of.get(parent, 0)
                waits_us[self.gather_ops.get(engine, "allgather")].append(
                    (end - start) / 1e3)
        c = self.counts

        def busy(name):
            return busy_ns[name] / 1e9

        spmv_nnz = c["core.spmv_seq.nnz"]
        runs = c["distributed.run_distributed.calls"]
        m = {
            "core.spmv_seq.calls": (c["core.spmv_seq.calls"], "count"),
            "core.spmv_seq.busy_s": (busy("core.spmv_seq"), "s"),
            "core.spmv_seq.ns_per_nnz": (
                busy_ns["core.spmv_seq"] / spmv_nnz if spmv_nnz else 0.0, "ns"),
            "core.spmv_seq.flops": (c["core.spmv_seq.flops"], "count"),
            "core.spmv_seq.bytes_computed": (c["core.spmv_seq.bytes_computed"], "B"),
            "core.residual_sq.busy_s": (busy("core.residual_sq"), "s"),
            "core.oracle.busy_s": (busy("core.oracle"), "s"),
            "core.oracle.cells": (c["core.oracle.cells"], "count"),
            "layout.extract_local.busy_s": (busy("layout.extract_local"), "s"),
            "layout.extract_local.bytes_copied": (
                c["layout.extract_local.bytes_copied"], "B"),
        }
        for op in COLLECTIVE_OPS:
            w = waits_us[op]
            m[f"collectives.{op}.calls"] = (c[f"collectives.{op}.calls"], "count")
            m[f"collectives.{op}.bytes"] = (c[f"collectives.{op}.bytes"], "B")
            m[f"collectives.{op}.wait_p50_us"] = (
                statistics.median(w) if w else 0.0, "us")
            m[f"collectives.{op}.wait_max_us"] = (max(w) if w else 0.0, "us")
        m.update({
            "collectives.run_ranks.self_s": (busy("collectives.run_ranks"), "s"),
            "distributed.run_distributed.calls": (runs, "count"),
            "distributed.run_distributed.busy_s": (
                busy("distributed.run_distributed"), "s"),
            "distributed.gather_path.allgatherv_share": (
                c["distributed.run_distributed.allgatherv_runs"] / runs
                if runs else 0.0, "ratio"),
            "fixtures.generate.calls": (c["fixtures.generate.calls"], "count"),
            "fixtures.generate.busy_s": (busy("fixtures.generate"), "s"),
            "fixture_io.write_fixture.busy_s": (busy("fixture_io.write_fixture"), "s"),
            "fixture_io.write_fixture.bytes": (c["fixture_io.write_fixture.bytes"], "B"),
            "fixture_io.read_fixture.busy_s": (busy("fixture_io.read_fixture"), "s"),
            "fixture_io.read_fixture_nocheck.busy_s": (
                busy("fixture_io.read_fixture_nocheck"), "s"),
            "fixture_io.export_matrix_market.busy_s": (
                busy("fixture_io.export_matrix_market"), "s"),
            "fixture_io.export_matrix_market.bytes": (
                c["fixture_io.export_matrix_market.bytes"], "B"),
            "fixture_io.import_matrix_market.busy_s": (
                busy("fixture_io.import_matrix_market"), "s"),
            "verify.verify_sequential.busy_s": (busy("verify.verify_sequential"), "s"),
            "cli.main.busy_s": (busy("cli.main"), "s"),
        })
        for layer in LAYERS:
            name = "verify.checks_failed" if layer == "verify" else f"{layer}.errors"
            m[name] = (errors[layer], "count")
        return m
