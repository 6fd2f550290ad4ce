"""Benchmark of the gammakde command line and Monte Carlo API.

Run from the root of a source checkout (the package is imported from
``src``; nothing needs installing):

    python3 perfbench/run.py --workload estimate-file-1d --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` times warm jobs with tracing off and reports the end-to-end
metrics, each time scaled to a reference speed of the host (see
``calibrate``); ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics with the tracing overhead. ``--workload
all`` runs every workload in its own process and prints one table. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# names only: workloads.py imports gammakde, which may be missing
WORKLOADS = ["estimate-file-1d", "lag-series", "mc-study"]
MIN_JOBS = 3
SETUP_REPEATS = 5

# The host's speed drifts by 20-40% over seconds to minutes on a shared
# VM, in user and system time alike. Every time metric is therefore
# reported at a reference speed: each measured interval is scaled by
# REF_CALIBRATION_S over the time calibrate() takes around it. The
# constant is calibrate()'s median time on the 2-vCPU VM the benchmark
# was written on, so the reported seconds stay close to that machine's.
REF_CALIBRATION_S = 0.07


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _calibration():
    """Seconds taken by a fixed interpreter loop and fixed large ufuncs.

    Their time tracks the host's speed for the jobs' mix of interpreted
    code and memory-bound numpy work. Nothing of gammakde runs, so a change
    to the program cannot move it. Of the mixes tried (float parsing, small
    numpy calls, arrays from 0.8 to 32 MB), this one tracked job times on
    all three workloads best.
    """
    import numpy as np
    t0 = time.perf_counter()
    total = 0
    for k in range(1_000_000):
        total += k
    # 8 MB in all, freed on return, so peak RSS stays the job's
    a = np.linspace(0.1, 5.0, 500_000)
    b = np.empty_like(a)
    for _ in range(16):
        np.log(a, out=b)
        b *= 0.5
        np.exp(b, out=b)
    return time.perf_counter() - t0


def calibrate(cpus=None):
    """Calibration times: one per CPU of ``cpus``, or one where we run.

    The vCPUs of a shared VM change speed independently, so a job that
    runs on several threads is calibrated on each CPU in turn.
    """
    if cpus is None:
        return [_calibration()]
    home = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_calibration())
    finally:
        os.sched_setaffinity(0, home)
    return times


def at_reference_speed(seconds, before, after):
    """``seconds`` measured between two calibrations, at the reference speed.

    A job's throughput is the sum of the speeds of the CPUs it runs on,
    so the factor averages the speeds, not the calibration times.
    """
    return seconds * statistics.fmean(REF_CALIBRATION_S / c
                                      for c in before + after)


def measure_setup():
    """Median seconds from a fresh interpreter to ``gammakde.cli`` imported.

    Each start is scaled to the reference speed. The median discards the
    one start of a fresh checkout that also compiles the bytecode cache.
    """
    cmd = [sys.executable, "-c", "import gammakde.cli"]
    # the start spends more CPU than wall time: BLAS threads start on import
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    before = calibrate(cpus)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env_with_src(), cwd=ROOT, check=True)
        wall = time.perf_counter() - t0
        after = calibrate(cpus)
        times.append(at_reference_speed(wall, before, after))
        before = after
    return statistics.median(times)


def _blas():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from threadpoolctl import threadpool_info
        threads = [p["num_threads"] for p in threadpool_info()
                   if p["user_api"] == "blas"]
    except ImportError:
        threads = "unknown (threadpoolctl not installed)"
    caps = {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                      "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "thread_env": caps}


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gammakde")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(inputs):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "inputs_sha256": inputs,
    }


def run_job(workload, tracer=None):
    """Run one job; return (wall s, process CPU s, failure messages)."""
    missing = spans.install(tracer) if tracer is not None else []
    if missing:
        print(f"trace: hooks not found: {missing}", file=sys.stderr)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        outcome = workload.job()
    except (Exception, SystemExit):
        traceback.print_exc()
        outcome = None
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    if outcome is None:
        return wall, cpu, ["job raised"]
    try:
        errors = workload.check(outcome)
    except (Exception, SystemExit):
        traceback.print_exc()
        errors = ["gate raised"]
    for msg in errors:
        print(f"FAIL {workload.__class__.__name__}: {msg}", file=sys.stderr)
    return wall, cpu, errors


def timed(workload, seconds):
    """Warm jobs with tracing off, for ``seconds`` (at least MIN_JOBS)."""
    # the warm-up job fills caches and lazy imports; gated, not timed
    failed = bool(run_job(workload)[2])
    walls, cpus, scaled_walls, scaled_cpus = [], [], [], []
    cpu_ids = sorted(os.sched_getaffinity(0)) if workload.THREADS > 1 \
        else None
    before = calibrate(cpu_ids)
    calibrations = list(before)
    start = time.perf_counter()
    while len(walls) < MIN_JOBS or time.perf_counter() - start < seconds:
        wall, cpu, errors = run_job(workload)
        # the gate runs in between, but a host phase lasts seconds
        after = calibrate(cpu_ids)
        walls.append(wall)
        cpus.append(cpu)
        calibrations.extend(after)
        scaled_walls.append(at_reference_speed(wall, before, after))
        scaled_cpus.append(at_reference_speed(cpu, before, after))
        failed += bool(errors)
        before = after
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "job_s": (statistics.median(scaled_walls), "s"),
        "cpu_s": (statistics.median(scaled_cpus), "s"),
        "peak_rss_mb": (peak, "MB"),
        # printed, not in the JSON: the times as the host gave them
        "job_wall_s_unscaled": (statistics.median(walls), "s"),
        "cpu_s_unscaled": (statistics.median(cpus), "s"),
        "calibration_s": (statistics.median(calibrations), "s"),
    }
    return 1 + len(walls), failed, metrics


def traced(workload, seconds):
    """Alternate untraced and traced jobs; per-layer medians and overhead."""
    failed = bool(run_job(workload)[2])
    plain, traced_walls, per_job = [], [], []
    start = time.perf_counter()
    while len(plain) < MIN_JOBS or time.perf_counter() - start < seconds:
        wall, _cpu, errors = run_job(workload)
        plain.append(wall)
        failed += bool(errors)
        tracer = spans.Tracer()
        wall, _cpu, errors = run_job(workload, tracer)
        traced_walls.append(wall)
        failed += bool(errors)
        per_job.append(spans.layer_metrics(tracer))
    layers, mismatched = spans.combine(per_job)
    if mismatched:
        print(f"FAIL counters differ between traced jobs: {mismatched}",
              file=sys.stderr)
        failed += 1
    units = declared("per_layer")
    metrics = {k: (v, units[k]) for k, v in layers.items()}
    job_plain = statistics.median(plain)
    job_traced = statistics.median(traced_walls)
    metrics["trace.job_s_untraced"] = (job_plain, "s")
    metrics["trace.job_s_traced"] = (job_traced, "s")
    metrics["trace.overhead_s"] = (job_traced - job_plain, "s")
    return 1 + len(plain) + len(traced_walls), failed, metrics


def _print_table(workload, attempted, failed, metrics):
    print(f"{workload}: {attempted} jobs, failed_frac "
          f"{failed / attempted:.4g} (failed/attempted)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")


def declared(section):
    """Name -> unit of the metrics BENCHMARK.json declares in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_one(args):
    sys.path.insert(0, SRC)
    import workloads
    setup_s = None if args.trace else measure_setup()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        print("env " + json.dumps(environment(workload.inputs)))
        run = traced if args.trace else timed
        attempted, failed, metrics = run(workload, args.seconds)
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    _print_table(args.workload, attempted, failed, metrics)
    names = declared("per_layer" if args.trace else "end_to_end")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if k in names},
    }


def run_all(args):
    """Each workload in a fresh process, so peak RSS is its own."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = value
    return totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if "GAMMAKDE_THREADS" in os.environ:
        print("GAMMAKDE_THREADS is set; it silently caps --workers, so the "
              "benchmark refuses to run", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "gammakde", "cli.py")):
        print(f"no gammakde source under {SRC}", file=sys.stderr)
        return 1
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
