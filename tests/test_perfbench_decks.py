"""The benchmark's job decks run against the package in-process.

``perfbench/workloads.py`` builds every job from the public API
(constructors, ``axis_coordinates``, ``label=``, ``continuous=``, the CLI)
and checks each output.  Running the tiny decks here catches a change that
breaks what the benchmark calls before a benchmark run does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nuqmc

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["exact-grid", "analytic-bv-cli"])
def test_every_tiny_job_passes_its_check(workloads, workload, tmp_path):
    ctx = workloads.Context(nq=nuqmc, chelson_callback=nuqmc.chelson_cdf,
                            work_dir=str(tmp_path), tiny=True)
    deck = workloads.build(workload, 1, ctx)
    assert deck
    failures = {}
    for i, job in enumerate(deck):
        problems = job.check(job.run())
        if problems:
            failures[f"{i}:{job.kind}"] = problems
    assert failures == {}
