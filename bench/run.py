#!/usr/bin/env python3
"""spmvsim benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 0 --seconds 1 --trace 1 --smoke

Run it from a checkout: it imports spmvsim from the checkout's src/ and
refuses to run without it. Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones (see bench/README.md). The exit code is 0 only if every checked result
was exact. A JSON report, with the spans of a traced run, is written to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("fixture-pipeline", "multiply-large", "rank-rendezvous")
# set-up repeats at least SETUP_MIN_REPS times and until it has used
# SETUP_MIN_S of CPU time (at most SETUP_MAX_REPS times); setup_s is the
# median CPU time of one set-up
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 2.0, 50
# printed with their sample counts and kept in the report, but left out of
# the result line: on a 2-vCPU VM under host contention their spread between
# runs reached 0.2-0.9 of the median, beyond any usable regression bound
REPORTED_ONLY = ("op_p50_s", "op_p90_s", "dist_nnz_per_s", "dist_run_p50_ms",
                 "dist_run_p90_ms")
# a p90 needs ten samples beyond it
MIN_OPS, SMOKE_MIN_OPS = 100, 5
# an untimed backstop so a run always ends well inside 180 s
MAX_LOOP_S = 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class Outcomes:
    """Attempted and failed checked operations, and misses per layer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def run(self, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # every failure is counted, then reported
            self.failed += 1
            # a workloads.Miss names its layer; anything else is attributed
            # to the module that raised it
            layer = getattr(exc, "layer", None) or _raising_layer(exc)
            self.errors[layer] += getattr(exc, "count", 1)
            if self.failed <= 3:
                traceback.print_exception(exc, file=sys.stderr)


def _raising_layer(exc: BaseException) -> str:
    # the deepest spmvsim module on the traceback raised it
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("spmvsim."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


def _cache_sizes() -> dict[str, int]:
    sizes = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            text = (d / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * scale
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, working_sets: list[dict]) -> dict:
    import numpy as np
    caches = _cache_sizes()
    l2, l3 = caches.get("l2_bytes"), caches.get("l3_bytes")
    for ws in working_sets:
        for key in ("csr_x_z_bytes", "oracle_dense_mask_bytes"):
            for level, size in (("l2", l2), ("l3", l3)):
                if size:
                    ws[f"{key[:-6]}_per_{level}"] = round(ws[key] / size, 4)
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "l2_bytes": l2, "l3_bytes": l3,
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "working_sets": working_sets,
            "working_set_note": "bytes computed from array sizes, not measured"}


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _rate(calls) -> float:
    """Entries multiplied per second with each kind of call at its median
    time, so one slow call moves the rate no more than it moves a median."""
    times, work = defaultdict(list), Counter()
    for seconds, nnz, kind in calls:
        times[kind].append(seconds)
        work[kind] += nnz
    return sum(work.values()) / sum(len(t) * statistics.median(t)
                                    for t in times.values())


def _untraced(w, args, outcomes):
    from tracing import plain_api
    from workloads import Rec
    api = plain_api()
    setups = []
    min_s = 0.0 if args.smoke else SETUP_MIN_S
    while len(setups) < SETUP_MIN_REPS or (sum(setups) < min_s and
                                           len(setups) < SETUP_MAX_REPS):
        cpu0 = process_time()
        w.setup(api)
        for k in range(1, w.warmup_ops + 1):
            w.op(api, -k, Rec())
        setups.append(process_time() - cpu0)
    min_ops = SMOKE_MIN_OPS if args.smoke else MIN_OPS
    rec = Rec()
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= args.seconds
                                     and outcomes.attempted >= min_ops):
            break
        outcomes.run(w.op, api, i, rec)
        i += 1
    wall = [t for t, _ in rec.op]
    cpu = [c for _, c in rec.op]
    dist_s = [t for t, _, _ in rec.dist]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_cpu_p50_s": (statistics.median(cpu), "s", len(cpu)),
        "op_p50_s": (statistics.median(wall), "s", len(wall)),
        "op_p90_s": (_p90(wall), "s", len(wall)),
        "seq_nnz_per_s": (_rate(rec.seq), "nnz/s", len(rec.seq)),
        "dist_nnz_per_s": (_rate(rec.dist), "nnz/s", len(rec.dist)),
        "dist_run_p50_ms": (statistics.median(dist_s) * 1e3, "ms", len(dist_s)),
        "dist_run_p90_ms": (_p90(dist_s) * 1e3, "ms", len(dist_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
    }
    return metrics, {}


def _traced(w, args, outcomes, work):
    from tracing import Tracer, plain_api
    from workloads import Pipeline, Rec
    tracer = Tracer()
    traced, plain = tracer.api(), plain_api()
    w.setup(traced)
    for k in range(1, w.warmup_ops + 1):
        w.op(traced, -k, Rec())
    outcomes.run(w.setup_probe, traced)
    # the same operation runs untraced and traced, alternating which goes
    # first; the pair count is fixed by --seconds so counts repeat exactly
    plain_rec, traced_rec = Rec(), Rec()
    for i in range(max(3, round(args.seconds * w.trace_pairs_per_s))):
        sides = [(plain, plain_rec), (traced, traced_rec)]
        for api, rec in (sides if i % 2 == 0 else sides[::-1]):
            outcomes.run(w.op, api, i, rec)
        outcomes.run(w.probe, traced, tracer)
    # coverage pass: one tiny pipeline operation per gather path, so every
    # layer has spans on every workload
    for dims in ((32, 36, 49), (32, 37, 49)):
        tiny = Pipeline(args.seed, args.smoke, work, dims=dims)
        outcomes.run(tiny.op, traced, 0, Rec())
        outcomes.run(tiny.probe, traced, tracer)
    metrics = {name: (value, unit, None)
               for name, (value, unit) in tracer.layer_metrics(outcomes.errors).items()}
    base = statistics.median(t for t, _ in plain_rec.op)
    traced_p50 = statistics.median(t for t, _ in traced_rec.op)
    metrics["trace_overhead_ratio"] = (traced_p50 / base, "ratio",
                                       len(traced_rec.op))
    metrics["trace_overhead_base_s"] = (base, "s", len(plain_rec.op))
    exact = dict(sorted(tracer.counts.items()))
    exact["fixtures_written"] = len(tracer.fixture_hashes)
    exact["fixture_digest"] = tracer.fixture_digest()
    extra = {"exact": exact,
             "spans": [list(s) for s in tracer.spans]}
    return metrics, extra


def run_one(args) -> int:
    from workloads import WORKLOADS
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        w = WORKLOADS[args.workload](args.seed, args.smoke, work)
        outcomes = Outcomes()
        if args.trace:
            metrics, extra = _traced(w, args, outcomes, work)
        else:
            metrics, extra = _untraced(w, args, outcomes)
    env = environment(args.seed, w.working_sets())
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print("environment " + json.dumps(env))
    for name, (value, unit, n) in metrics.items():
        alias = f"  [{w.aliases[name]}]" if name in w.aliases else ""
        count = f"  (n={n})" if n is not None else ""
        print(f"{name} = {value!r} {unit}{count}{alias}")
    print(f"ops_failed_ratio = {outcomes.failed}/{outcomes.attempted} "
          f"failed/attempted")
    if "exact" in extra:
        print("exact " + json.dumps(extra["exact"]))
    result = {"correct": outcomes.failed == 0, "attempted": outcomes.attempted,
              "failed": outcomes.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()
                          if name not in REPORTED_ONLY}}
    report = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"environment": env, "result": result,
                                  "samples": {k: n for k, (_, _, n) in metrics.items()},
                                  **extra}))
    print(f"report {report.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        results[name] = json.loads(last) if last.startswith("{") else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "spmvsim" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run the "
              f"benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
