"""nuqmc benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 50 --trace 0

It times set-up in several fresh worker processes and reports their median
as ``setup_s``, then runs one more worker that measures the closed job loop
(``--trace 0``: end-to-end metrics) or the traced run (``--trace 1``:
per-layer metrics).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
checkout's ``src/nuqmc`` it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
WORKER_TIMEOUT = 170.0

END_TO_END = (
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


class WorkerError(RuntimeError):
    pass


def start_worker(argv, env):
    """Start a worker and return ``(process, seconds until it printed READY)``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish_worker(proc, deadline=time.monotonic() + 10.0)
        raise WorkerError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish_worker(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def measure(args, root) -> dict:
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    deadline = time.monotonic() + WORKER_TIMEOUT
    try:
        base = ["--workload", args.workload, "--seed", str(args.seed), "--src", src,
                "--work-dir", work, "--seconds", str(args.seconds)]
        if args.tiny:
            base.append("--tiny")
        if args.plant is not None:
            base += ["--plant", str(args.plant)]
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_worker(base + ["--mode", "setup"], env)
            finish_worker(proc, deadline)
            setups.append(ready)
        mode = "trace" if args.trace else "run"
        proc, ready = start_worker(base + ["--mode", mode], env)
        setups.append(ready)
        lines = finish_worker(proc, deadline).strip().splitlines()
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = statistics.median(setups)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nuqmc benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--plant", type=int, default=None, metavar="K",
                   help="self-test: corrupt the output of the K-th job before it is checked")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nuqmc", "__init__.py")):
        print("error: run from a nuqmc checkout (src/nuqmc not found)", file=sys.stderr)
        return 2
    try:
        result = measure(args, root)
    except (WorkerError, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for message in result["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
        print(json.dumps({"info": {
            "workload": args.workload, "jobs": result["jobs"], "passes": result["passes"],
            "jobs_per_pass": result["jobs_per_pass"], "jobs_beyond_p90": result["beyond_p90"]}}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
