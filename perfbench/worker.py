"""One benchmark worker process.

Started fresh by ``run.py`` for every set-up sample and every measured run.
It imports nuqmc from the checkout's ``src``, builds the seeded deck, prints
``READY`` (the parent times set-up up to that line), and then, unless it is
a set-up sample, runs the closed loop -- one client, one job at a time, no
threads -- and prints one JSON line with its results.

Modes:
  setup  build the deck and exit;
  run    timed passes over the deck until ``--seconds`` have passed and at
         least ``MIN_JOBS`` jobs are done;
  trace  alternate untraced and traced passes until ``--seconds``, then one
         tracemalloc pass over the discrepancy spans; report per-layer
         metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import layers
import tracer as tr
import workloads

perf_counter = time.perf_counter

#: jobs a measured run completes at least, so that >= 10 lie beyond its p90
MIN_JOBS = 100


def digest(obj, h=None) -> str:
    """Stable hash of a job's inputs or output (arrays, numbers, containers,
    dataclasses and plain objects through their attributes)."""
    top = h is None
    h = hashlib.sha1() if top else h
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (str, bytes, int, float, bool, type(None), np.generic)):
        h.update(repr(obj).encode())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            digest(item, h)
        h.update(b")")
    elif hasattr(obj, "__dict__"):
        h.update(type(obj).__name__.encode())
        digest(vars(obj), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


class Loop:
    """Runs passes over the deck and checks every output outside the timed
    region: the first output of each job gets the full check, every later
    one must hash the same as the first."""

    def __init__(self, deck, seed: int, plant: int | None = None):
        self.deck = deck
        self.order_rng = np.random.default_rng([seed, 1_000_003])
        self.first = [None] * len(deck)
        self.plant = plant
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run_pass(self, before=None, after=None) -> list[float]:
        latencies = []
        for i in self.order_rng.permutation(len(self.deck)):
            job = self.deck[i]
            self.attempted += 1
            if before:
                before(i)
            t0 = perf_counter()
            try:
                out = job.run()
            except Exception as err:  # a job that raises is a failed job
                if after:
                    after(i)
                self._fail(f"{job.kind}: {type(err).__name__}: {err}")
                continue
            t1 = perf_counter()
            if after:
                after(i)
            latencies.append(t1 - t0)
            if self.plant is not None and self.attempted == self.plant:
                out = _planted(out)
            self._check(i, job, out)
        return latencies

    def _check(self, i, job, out) -> None:
        problems = []
        if self.first[i] is None:
            try:
                problems = job.check(out)
            except Exception as err:  # a check that cannot run is a failure
                problems = [f"check raised {type(err).__name__}: {err}"]
            self.first[i] = digest(out)
        elif digest(out) != self.first[i]:
            problems = ["output differs from the first pass"]
        if problems:
            self._fail(f"{job.kind}: {'; '.join(problems)}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def _planted(out):
    """A wrong result for the self-test: the first float found is moved."""
    if dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            value = getattr(out, f.name)
            if isinstance(value, float):
                return dataclasses.replace(out, **{f.name: value + 0.125})
    raise TypeError(f"cannot plant a wrong {type(out).__name__}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--src", required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--plant", type=int, default=None,
                   help="self-test: corrupt the output of the K-th attempted job")
    p.add_argument("--digest", action="store_true",
                   help="self-test: print the digest of the deck's inputs and exit")
    args = p.parse_args(argv)

    import nuqmc

    src = os.path.realpath(args.src)
    if not os.path.realpath(nuqmc.__file__).startswith(src + os.sep):
        print(f"nuqmc was imported from {nuqmc.__file__}, not from {src}", file=sys.stderr)
        return 2

    trace = args.mode == "trace"
    tracer = None
    callback = nuqmc.chelson_cdf
    if trace:
        tracer = tr.Tracer(keep_args=layers.KEEP_ARGS, memory_names=layers.MEMORY_SPANS)
        tracer.install(nuqmc)
        callback = tr.CountingCallback(nuqmc.chelson_cdf)
        tracer.mode, tracer.job = tr.SPANS, "setup"
    ctx = workloads.Context(nq=nuqmc, chelson_callback=callback, work_dir=args.work_dir,
                            tiny=args.tiny)
    deck = workloads.build(args.workload, args.seed, ctx)
    setup_acc = None
    if trace:
        tracer.mode = tr.OFF
        setup_acc = layers.accumulate(tracer.spans, tracer.owned_times(layers.ROOTS))
        tracer.reset()
    print("READY", flush=True)
    if args.digest:
        print(digest([job.inputs for job in deck]))
        return 0
    if args.mode == "setup":
        return 0

    loop = Loop(deck, args.seed, args.plant)
    result = {"jobs_per_pass": len(deck)}
    start = perf_counter()
    if not trace:
        latencies, passes = [], 0
        while perf_counter() - start < args.seconds or len(latencies) < MIN_JOBS:
            latencies += loop.run_pass()
            passes += 1
        p90 = float(np.percentile(latencies, 90))
        result.update(
            passes=passes,
            jobs=len(latencies),
            job_p50_ms=statistics.median(latencies) * 1e3,
            job_p90_ms=p90 * 1e3,
            beyond_p90=sum(x > p90 for x in latencies),
            jobs_per_s=len(latencies) / sum(latencies),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        result["per_layer"] = _traced(args, loop, tracer, callback, setup_acc, start)
    result.update(attempted=loop.attempted, failed=loop.failed, messages=loop.messages)
    print(json.dumps(result), flush=True)
    return 0


def _traced(args, loop, tracer, callback, setup_acc, start) -> dict:
    def on(i):
        tracer.job = i
        tracer.mode = tr.SPANS
        callback.active = True

    def off(i):
        tracer.mode = tr.OFF
        callback.active = False

    plain, traced = [], []
    jobs_acc = defaultdict(float)
    passes = 0
    while True:
        plain += loop.run_pass()
        traced += loop.run_pass(on, off)
        layers.accumulate(tracer.spans, tracer.owned_times(layers.ROOTS), jobs_acc)
        tracer.reset()
        passes += 1
        if perf_counter() - start >= args.seconds:
            break
    jobs_acc["measures.analytic.cdf_calls"] = callback.calls
    jobs_acc["measures.analytic.callback_s"] = callback.seconds

    acc = defaultdict(float, setup_acc)
    for key, value in jobs_acc.items():
        acc[key] += value / passes
    out = layers.finish(acc)

    def memory_on(i):
        tracer.mode = tr.MEMORY

    loop.run_pass(memory_on, off)
    out.update(layers.memory_metrics(tracer.spans))
    tracer.reset()
    tracer.uninstall()

    out["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    out["trace.job_p50_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    if any(job.kind.startswith("cli-") for job in loop.deck):
        out["cli.interpreter_s"], out["cli.import_s"] = _interpreter_and_import(args.src)
    return out


def _interpreter_and_import(src: str, repeats: int = 5) -> tuple[float, float]:
    """Medians of a bare interpreter start and of ``import nuqmc.cli`` minus it."""
    env = dict(os.environ, PYTHONPATH=os.path.realpath(src))

    def timed(code):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return perf_counter() - t0

    bare = statistics.median(timed("pass") for _ in range(repeats))
    full = statistics.median(timed("import nuqmc.cli") for _ in range(repeats))
    return bare, full - bare


if __name__ == "__main__":
    sys.exit(main())
