"""Benchmark entry point: one workload, timed or traced.

    python3 perfbench/run.py --workload sweep-ref --seed 1 --seconds 10 --trace 0

Run from the repository root.  Set-up is timed as the median of
IMPORT_REPS imports of the package (this process's own, then fresh
interpreters') plus the median of SETUP_REPS set-ups (grids and, for the
sweeps, the profile).  Then whole iterations of the workload's timed
phase run until --seconds have passed, at least one.  With --trace 0 the
last line of output holds the end-to-end metrics; with --trace 1 the
timed phase runs under the outside-in recorder and the last line holds
the per-layer metrics, per iteration.  Everything before the last line
is a human-readable report: failed operations with the checks they
broke, any failure that is not one of the known defects listed in
workloads.py (which makes the result incorrect), the median time of each
phase of the workload (partition_s, shooting_s, continuation_s,
writes_s), and a stamp of the host.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-tmp"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("sweep-dense", "sweep-ref", "profile-routes")
SETUP_REPS = 2
IMPORT_REPS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "stages_accepted": "count",
    "peak_rss_mb": "MB",
}


def _layer(name, *fields):
    units = {"calls": "count", "steps": "count", "converged": "count",
             "failed": "count", "self_s": "s", "total_s": "s"}
    return [(f"{name}.{f}", units[f]) for f in fields]


PER_LAYER = dict(
    _layer("grid.solve_tridiag", "calls", "self_s")
    + _layer("grid.apply_tridiag", "calls", "self_s")
    + _layer("grid.h1_inner", "calls", "self_s")
    + _layer("scalar.compute_c_infinity", "self_s", "total_s")
    + _layer("scalar.find_nodal_solution", "self_s", "total_s")
    + _layer("nehari.maximize_phi", "calls", "failed", "self_s")
    + _layer("nehari.phi", "calls", "self_s")
    + _layer("nehari.coupled_energy", "calls", "self_s")
    + _layer("solver.coupled_newton", "calls", "steps", "converged", "self_s")
    + _layer("solver.coupled_newton.in_continuation", "calls", "steps", "converged")
    + _layer("solver.coupled_newton.in_newton_refine", "calls", "steps", "converged")
    + _layer("solver.residual_components", "calls", "self_s")
    + [("solver.residual_per_step", "calls/step")]
    + _layer("solver.minimize_m_beta", "calls", "self_s")
    + _layer("solver.newton_refine", "calls", "self_s")
    + _layer("solver.split_components", "calls")
    + _layer("solver.continuation", "self_s", "total_s")
    + _layer("diagnostics.build_report", "self_s")
    + _layer("cli.write_stage", "calls", "self_s")
    + _layer("diagnostics.write_sweep_csv", "self_s")
    + [("trace.wall_s", "s")]
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded only: the workloads are fixed reference problems")
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import artifact

    if not Path(artifact.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"artifact imported from {artifact.__file__}, not src/")
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def time_import():
    """Seconds to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import artifact; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def workload_phases(name, workdir):
    """(setup, run) for a workload.  setup() returns (state, seconds in
    compute_c_infinity or None); run(state) returns (outcomes, seconds)."""
    import workloads as wl

    if name == "profile-routes":
        return (lambda: (wl.setup_profile_routes(), None)), wl.run_profile_routes
    spec = {"sweep-ref": wl.SWEEP_REF, "sweep-dense": wl.SWEEP_DENSE}[name]
    return (lambda: wl.setup_sweep(spec, workdir)), wl.run_sweep


def run_iterations(run, state, seconds):
    """Whole iterations until `seconds` have passed; (wall, outcomes,
    phase seconds) per iteration."""
    done = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes, phases = run(state)
        done.append((time.perf_counter() - t0, outcomes, phases))
        if time.perf_counter() - start >= seconds:
            return done


def layer_metrics(rec, iterations, timed_wall):
    """Per-layer values per timed iteration, from the recorder's totals."""
    values = {}
    for name in PER_LAYER.keys() - {"solver.residual_per_step", "trace.wall_s"}:
        layer, _, field = name.rpartition(".")
        raw = (getattr(rec, field)[layer] if field in ("self_s", "total_s")
               else rec.counters[name])
        exact = isinstance(raw, int) and raw % iterations == 0
        values[name] = raw // iterations if exact else raw / iterations
    steps = values["solver.coupled_newton.steps"]
    values["solver.residual_per_step"] = (
        values["solver.residual_components.calls"] / steps if steps else 0.0)
    values["trace.wall_s"] = timed_wall / iterations
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def report(args, versions, iterations, setup_partition, extra):
    """Failed operations, the phase times of the workload, and a stamp."""
    for o in iterations[0][1]:
        if not o.passed:
            print(f"failed {o.op}: {','.join(o.failed_checks)} ({o.detail})")
    phases = {f"{k}_s": statistics.median(p[k] for _, _, p in iterations)
              for k in iterations[0][2]}
    if setup_partition:
        phases["partition_s"] = statistics.median(setup_partition)
    for name, value in phases.items():
        print(f"phase {name} {value:.4f} s")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "loadavg": os.getloadavg(),
        "iterations": len(iterations),
        "iteration_wall_s": [w for w, _, _ in iterations],
        "iteration_phase_s": [p for _, _, p in iterations],
        **extra,
    }
    print("stamp " + json.dumps(stamp))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    try:
        versions = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = [time.perf_counter() - t0]
    if not args.trace:
        import_s += [time_import() for _ in range(IMPORT_REPS - 1)]

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        return measure(args, versions, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, versions, import_s, workdir) -> int:
    from recorder import Recorder
    from workloads import unexplained

    setup, run = workload_phases(args.workload, workdir)
    cpu0 = time.process_time()
    setup_s, setup_partition = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        state, partition = setup()
        setup_s.append(time.perf_counter() - t0)
        if partition is not None:
            setup_partition.append(partition)
    cpu1 = time.process_time()

    rec = Recorder()
    t0 = time.perf_counter()
    with rec if args.trace else contextlib.nullcontext():
        iterations = run_iterations(run, state, args.seconds)
    timed_wall = time.perf_counter() - t0
    cpu2 = time.process_time()

    outcomes = [o for _, outs, _ in iterations for o in outs]
    extra = {
        "import_s": import_s,
        "setup_rep_s": setup_s,
        "setup_cpu_s": cpu1 - cpu0,
        "timed_wall_s": timed_wall,
        "timed_cpu_s": cpu2 - cpu1,
        "absent_layers": rec.absent,
    }
    report(args, versions, iterations, setup_partition, extra)
    problems = unexplained(args.workload, [outs for _, outs, _ in iterations])
    for line in problems:
        print(f"incorrect: {line}")

    if args.trace:
        metrics = layer_metrics(rec, len(iterations), timed_wall)
    else:
        values = {
            "wall_s": statistics.median(w for w, _, _ in iterations),
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
            "stages_accepted": min(sum(o.passed for o in outs)
                                   for _, outs, _ in iterations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
