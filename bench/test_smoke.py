"""Smoke test of the benchmark itself: ``python3 -m pytest bench/test_smoke.py -q``.

Runs every workload for one pass of its pool, untraced and traced, and checks
that the last line of output carries every metric ``BENCHMARK.json`` names,
with its unit. Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def units_of(section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec()[section]}


def test_spec_names_the_workloads():
    # certify-small stays runnable but is not in BENCHMARK.json (see README).
    assert [w["name"] for w in spec()["workloads"]] == ["certify-large", "ridge-sweep"]
    assert set(workloads.WORKLOADS) == {"certify-small", "certify-large", "ridge-sweep"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, seed=1, trace=trace))
    expected = units_of("per_layer" if trace else "end_to_end")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        # Counts cover one traced pass of the pool and repeat exactly.
        assert result["metrics"]["solver.failures"]["value"] == 0
        assert result["metrics"]["solver.solves"]["value"] > 0
    else:
        assert result["attempted"] >= len(workloads.pool(workload, 1))


def test_seed_changes_configs_not_metric_names():
    for workload in workloads.WORKLOADS:
        one, two = workloads.pool(workload, 1), workloads.pool(workload, 2)
        assert [c[0] for c in one] == [c[0] for c in two]
        assert [c[2] for c in one] != [c[2] for c in two]
        assert workloads.pool(workload, 1) == one
    names = [
        set(result_of(run_bench("certify-small", seed, trace=0))["metrics"])
        for seed in (1, 2)
    ]
    assert names[0] == names[1]


def test_fails_without_the_package():
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("certify-small", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
