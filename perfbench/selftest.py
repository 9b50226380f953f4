"""Self-test of the benchmark itself.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that
  * a tiny run of every workload emits exactly the metrics BENCHMARK.json
    names, each with its unit, and reports no failed job;
  * a planted wrong result, fed to the checker, is counted as failed;
  * two seeds give different inputs and one seed gives the same inputs;
  * without ``src/nuqmc`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(args, cwd=None):
    return subprocess.run([sys.executable, RUN] + args, capture_output=True, text=True,
                          cwd=cwd, timeout=300, check=False)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []

    def expect(cond, message):
        print(("ok   " if cond else "FAIL ") + message)
        if not cond:
            failures.append(message)

    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
            if proc.returncode != 0:
                expect(False, f"{workload} trace={trace} exits 0: {proc.stderr[-400:]}")
                continue
            res = last_json(proc)
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: result has exactly the four keys")
            expect(units == wanted[trace], f"{workload} trace={trace}: every metric with its unit")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{workload} trace={trace}: no failed job")

    proc = run(["--workload", "exact-grid", "--seed", "3", "--seconds", "1", "--tiny", "--plant", "1"])
    res = last_json(proc)
    expect(res["failed"] >= 1 and res["correct"] is False,
           "a planted wrong result is counted as failed")

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        for workload in WORKLOADS:
            digests = []
            for seed in (1, 2, 1):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                     "--seed", str(seed), "--mode", "setup", "--digest", "--tiny",
                     "--src", os.path.join(root, "src"), "--work-dir", work],
                    capture_output=True, text=True, check=True,
                    env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
                digests.append(proc.stdout.split()[-1])
            expect(digests[0] != digests[1] and digests[0] == digests[2],
                   f"{workload}: seeds 1 and 2 differ, seed 1 repeats")

        bare = os.path.join(work, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"], cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without src/nuqmc: non-zero exit and no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
