"""Closed-loop benchmark of the perturbex command line.

One client runs ``perturbex.cli.main`` in this process on config files
written at set-up, sending the next run only after the previous one
returns, for ``--seconds`` of loop time::

    python3 bench/run.py --workload certify-large --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload ridge-sweep --seed 1 --seconds 56 --trace 1

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
and untraced runs and prints the per-layer metrics from the traced ones,
with the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``bench/README.md``.
"""

import os

# One BLAS thread, set before NumPy is first imported, so the numbers measure
# the program and not the thread scheduler of a small shared machine.
# Set-up probes inherit the setting through the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import importlib
import importlib.metadata
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPAN_DIR = os.path.join(ROOT, ".bench_out")

# Fresh interpreters that repeat the set-up; with this process's own set-up
# they give the samples whose median is setup_s.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("run_s.p50", "s"),
    ("run_s.p90", "s"),
    ("runs_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("certified_frac", "ratio"),
    ("slack.mean", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Self time per traced run: span name -> metric.
SELF_TIME_METRICS = {
    "cli.main": "cli.main_s",
    "harness.config": "harness.config_s",
    "harness.run": "harness.run_s",
    "harness.cmd": "harness.write_s",
    "zoo.build": "zoo.build_s",
    "solver.anchor": "solver.anchor_s",
    "solver.verify": "solver.verify_s",
    "linalg.factor": "linalg.factor_s",
    "linalg.kappa": "linalg.kappa_s",
    "smoothness.certificate": "smoothness.certificate_s",
    "expand.predict": "expand.predict_s",
    "expand.compare": "expand.compare_s",
    "penalty.bias": "penalty.bias_s",
    "oracle.penalize": "oracle.penalize_s",
    **{"oracle." + m: "oracle.busy_s" for m in tracer.ORACLE_METHODS},
}
# Span counts over one traced pass of the pool: span name -> metric.
COUNT_METRICS = {
    "smoothness.certificate": "smoothness.certificates",
    "linalg.factor": "linalg.factors",
    "linalg.kappa": "linalg.kappa_calls",
    "penalty.bias": "penalty.bias_calls",
    "oracle.penalize": "oracle.penalize_calls",
    **{"oracle." + m: f"oracle.{m}_calls" for m in tracer.ORACLE_METHODS},
}
PER_LAYER = (
    tuple((m, "s") for m in dict.fromkeys(SELF_TIME_METRICS.values()))
    + tuple((m, "count") for m in COUNT_METRICS.values())
    + (
        ("solver.solves", "count"),
        ("solver.iters", "count"),
        ("solver.failures", "count"),
        ("other_s", "s"),
        ("trace.run_s.p50", "s"),
        ("trace.untraced_run_s.p50", "s"),
        ("trace.overhead_frac", "ratio"),
    )
)


class BenchError(Exception):
    """The benchmark cannot run here (no package source, a set-up probe failed)."""


@dataclass
class Entry:
    config_id: str
    command: str
    path: str


@dataclass
class Run:
    index: int
    entry: int
    traced: bool
    wall: float
    problems: list


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, work: str):
    """Import the package, write the pool's configs and run the first one once.

    Returns the ``perturbex.cli`` module, the pool entries and the seconds
    all of that took.
    """
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "perturbex", "__init__.py")):
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    cli = importlib.import_module("perturbex.cli")
    package_dir = os.path.dirname(os.path.abspath(sys.modules["perturbex"].__file__))
    if package_dir != os.path.join(SRC, "perturbex"):
        raise BenchError(f"imported perturbex from {package_dir}, not from {SRC}")
    config_dir = os.path.join(work, "configs")
    os.makedirs(config_dir)
    entries = []
    for config_id, command, config in workloads.pool(workload, seed):
        path = os.path.join(config_dir, config_id + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, sort_keys=True, indent=2)
        entries.append(Entry(config_id, command, path))
    first = entries[0]
    out = os.path.join(work, "setup-run")
    # Untimed warm-up; the loop checks every run of this config.
    cli.main([first.command, "--config", first.path, "--out", out])
    shutil.rmtree(out, ignore_errors=True)
    return cli, entries, time.perf_counter() - start


def probe_set_up(workload: str, seed: int) -> float:
    """Time the set-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Machine block
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_block(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def order_results(report: dict):
    """The verification block of every computed order result in a report."""
    for res in report.get("results", []):
        if "verification" in res:
            yield res["verification"]
        for key in ("order3", "order4"):
            if key in res:
                yield res[key]["verification"]


def check_run(entry: Entry, out: str, exit_code, first: dict) -> list:
    """Problems with one run's artifacts; empty when the run is correct.

    The first run of a config keeps its digest, its ``report.json`` and its
    violations; later runs must reproduce the digest byte for byte.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit {exit_code}")
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    if "report.json" not in names:
        return problems + ["no report.json"]
    digest = hashlib.sha256()
    blobs = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            blobs[name] = fh.read()
        digest.update(name.encode() + b"\0" + blobs[name] + b"\0")
    digest = digest.hexdigest()
    if entry.config_id not in first:
        report = json.loads(blobs["report.json"])
        violations = sorted(
            {v for ver in order_results(report) for v in ver["violations"]}
        )
        found = [f"violations: {','.join(violations)}"] if violations else []
        first[entry.config_id] = (digest, blobs["report.json"], found)
    elif first[entry.config_id][0] != digest:
        problems.append("artifacts differ from the first run of this config")
    return problems + first[entry.config_id][2]


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def run_loop(cli, entries, seconds, traced_mode, work, spans):
    """Closed loop for at least ``seconds`` and at least one pass of the pool.

    Untraced, run ``k`` uses config ``k % P``. Traced, each config runs twice
    in a row, once traced and once not, alternating which goes first.
    """
    pool_size = len(entries)
    min_runs = pool_size * (2 if traced_mode else 1)
    runs = []
    first: dict = {}
    start = time.perf_counter()
    k = 0
    while k < min_runs or time.perf_counter() - start < seconds:
        if traced_mode:
            j = (k // 2) % pool_size
            traced = (k + j) % 2 == 0
        else:
            j = k % pool_size
            traced = False
        entry = entries[j]
        out = os.path.join(work, f"run-{k}")
        argv = [entry.command, "--config", entry.path, "--out", out]
        if traced:
            spans.install(k)
        error = None
        t0 = time.perf_counter()
        try:
            exit_code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed run
            exit_code = None
            where = traceback.extract_tb(exc.__traceback__)[-1]
            error = (f"raised {type(exc).__name__} at "
                     f"{os.path.basename(where.filename)}:{where.lineno}: {exc}")
        wall = time.perf_counter() - t0
        if traced:
            spans.uninstall()
        problems = check_run(entry, out, exit_code, first)
        if error:
            problems.insert(0, error)
        shutil.rmtree(out, ignore_errors=True)
        runs.append(Run(k, j, traced, wall, problems))
        k += 1
    return runs, time.perf_counter() - start, first


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def pool_outcomes(first: dict, entries) -> tuple:
    """Certified fraction and mean certified slack over one pass of the pool."""
    certifying = computed = 0
    slacks = []
    for entry in entries:
        if entry.config_id not in first:  # no run of it wrote a report
            continue
        for ver in order_results(json.loads(first[entry.config_id][1])):
            computed += 1
            certifying += bool(ver["certifying"])
            slacks.extend(e["slack"] for e in ver["entries"] if e["certified"])
    # An infinite slack is a violation, already a failed run. With nothing
    # computed or certified, report 0 so the metric reads worse.
    finite = [x for x in slacks if math.isfinite(x)]
    certified = certifying / computed if computed else 0.0
    slack = statistics.fmean(finite) if finite else 0.0
    return certified, slack, computed, len(slacks)


def end_to_end_metrics(runs, loop_wall, setup_samples, first, entries) -> dict:
    walls = [r.wall for r in runs]
    tail = p90(walls)
    failed = sum(1 for r in runs if r.problems)
    certified, slack, computed, bounds = pool_outcomes(first, entries)
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"run samples: {len(walls)} (pool of {len(entries)} configs); "
          f"{sum(w > tail for w in walls)} beyond p90")
    print(f"failed_frac {failed / len(runs):.6g} ratio ({failed} of {len(runs)} runs)")
    print(f"order results: {computed}, certifying: {certified * computed:.0f}, "
          f"certified bounds: {bounds}")
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s.p50": statistics.median(walls),
        "run_s.p90": tail,
        "runs_per_s": len(runs) / loop_wall,
        "ok_frac": 1.0 - failed / len(runs),
        "certified_frac": certified,
        "slack.mean": slack,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(runs, spans, pool_size) -> dict:
    traced = [r for r in runs if r.traced]
    untraced = [r for r in runs if not r.traced]
    self_times = spans.self_times()
    totals = defaultdict(float)
    other = 0.0
    by_layer = defaultdict(float)
    for r in traced:
        per_span = self_times.get(r.index, {})
        for name, t in per_span.items():
            totals[SELF_TIME_METRICS[name]] += t
            by_layer[name.split(".")[0]] += t
        other += r.wall - sum(per_span.values())
    by_layer["other"] = other
    n = len(traced)
    out = {metric: totals[metric] / n for metric in dict.fromkeys(SELF_TIME_METRICS.values())}
    out["other_s"] = other / n

    # Counts over the first traced pass, one traced run per config.
    first_pass = {r.index for r in traced if r.index < 2 * pool_size}
    counts = Counter()
    iters = failures = 0
    for name, start, end, parent, run, note in spans.spans:
        if run not in first_pass:
            continue
        counts[name] += 1
        if name in tracer.SOLVER_SPANS:
            if isinstance(note, int):
                iters += note
            else:
                failures += 1
    for name, metric in COUNT_METRICS.items():
        out[metric] = counts[name]
    out["solver.solves"] = sum(counts[name] for name in tracer.SOLVER_SPANS)
    out["solver.iters"] = iters
    out["solver.failures"] = failures

    traced_p50 = statistics.median(r.wall for r in traced)
    untraced_p50 = statistics.median(r.wall for r in untraced)
    out["trace.run_s.p50"] = traced_p50
    out["trace.untraced_run_s.p50"] = untraced_p50
    out["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0

    total_wall = sum(r.wall for r in traced)
    print(f"traced runs: {n}, untraced runs: {len(untraced)}, pool: {pool_size} "
          f"configs; counts are over one traced pass of the pool")
    print(f"tracing overhead: run_s.p50 traced {traced_p50:.6f} s vs untraced "
          f"{untraced_p50:.6f} s ({100 * out['trace.overhead_frac']:+.1f}%)")
    print("self-time share of traced run time, by layer:")
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<11} {t / n * 1e3:9.3f} ms/run  {100 * t / total_wall:5.1f}%")
    check = sum(by_layer.values())
    print(f"  layers + other = {check:.6f} s; traced run time = {total_wall:.6f} s")

    inclusive = spans.inclusive_times()
    print("stage time including children (compare ROADMAP Baseline):")
    for name in ("harness.config", "zoo.build", "solver.anchor", "smoothness.certificate",
                 "expand.predict", "penalty.bias", "oracle.penalize", "solver.verify",
                 "expand.compare"):
        t = sum(inclusive.get(r.index, {}).get(name, 0.0) for r in traced)
        print(f"  {name:<23} {t / n * 1e3:9.3f} ms/run  {100 * t / total_wall:5.1f}%")
    return out


def print_result(correct: bool, attempted: int, failed: int, metrics: dict, units) -> None:
    unit_of = dict(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]} for name, _ in units},
    }))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="loop time to measure (at least one pass of the pool runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.setup_probe:
            print(set_up(args.workload, args.seed, work)[2])
            return 0
        # setup_s is an end-to-end metric, so the traced run skips the probes.
        # Half of them run before the loop and half after it: the host's
        # speed drifts over seconds, and samples that span the run average
        # over more of that drift than back-to-back ones.
        probes = 0 if args.trace else SETUP_PROBES
        setup_samples = [probe_set_up(args.workload, args.seed) for _ in range(probes // 2)]
        cli, entries, own_setup = set_up(args.workload, args.seed, work)
        setup_samples.append(own_setup)
        print("machine " + json.dumps(machine_block(args.workload, args.seed), sort_keys=True))

        spans = tracer.Tracer()
        runs, loop_wall, first = run_loop(
            cli, entries, args.seconds, bool(args.trace), work, spans
        )
        setup_samples += [
            probe_set_up(args.workload, args.seed) for _ in range(probes - probes // 2)
        ]
        failed_runs = [r for r in runs if r.problems]
        by_config = defaultdict(list)
        for r in failed_runs:
            by_config[entries[r.entry].config_id].append(f"run {r.index}: {'; '.join(r.problems)}")
        for config_id, lines in sorted(by_config.items()):
            print(f"FAILED {config_id}: {len(lines)} run(s); " + " | ".join(lines[:3]))

        if args.trace:
            metrics = layer_metrics(runs, spans, len(entries))
            os.makedirs(SPAN_DIR, exist_ok=True)
            span_path = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
            spans.write(span_path)
            print(f"spans: {len(spans.spans)} written to {os.path.relpath(span_path, ROOT)}")
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(runs, loop_wall, setup_samples, first, entries)
            units = END_TO_END
        for name, unit in units:
            print(f"{name} {metrics[name]!r} {unit}")
        print_result(not failed_runs, len(runs), len(failed_runs), metrics, units)
        return 0
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
