#!/usr/bin/env python3
"""Benchmark of the torusforms package, one workload per process.

    python3 bench/run.py --workload ns3d-64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets the workload up ``SETUP_PROBES`` times in fresh
processes, each followed by one call of the workload's reference unit
(plain-numpy Navier-Stokes right-hand sides, ``workloads.ReferenceRHS``),
and once more in this one.  It then repeats whole rounds of the workload's
operations, each after one reference call, until their summed time reaches
``--seconds``, and checks every round's outputs.  Operation times are
reported in units of one reference right-hand side measured in the same
run, and set-up times in seconds at the host speed where one takes
``NOMINAL_RHS_MS``.  It prints one line per metric, the run in seconds, one line
describing the machine, and as its last line a JSON object with the keys
correct, attempted, failed and metrics.  With ``--trace 0`` the metrics
are the end-to-end ones; ``--trace 1`` is a separate run with spans
around the package's layers, and reports the per-layer metrics.

Outputs, the solution directory of ns2d-256 and span traces go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread.  With two, OpenBLAS's second thread busy-waits between
# the many small mat-vecs of open-map and its CPU time depends on the
# scheduler of a shared 2-CPU host; the package's work is single-threaded
# apart from BLAS, so one thread measures it and nothing else.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("ns2d-256", "ns3d-64", "gn-survey", "open-map")
SETUP_PROBES = 7
# Time of one reference right-hand side, as the set-up probe measures it, on
# the 2-vCPU Xeon host the benchmark was made on.  A probe's set-up time is
# scaled by nominal / measured, so set-up time, like operation time, does
# not follow the host's drift in speed.
NOMINAL_RHS_MS = {"ns2d-256": 18.0, "ns3d-64": 140.0, "gn-survey": 18.0, "open-map": 0.22}

END_TO_END = (
    ("setup_s", "s"),
    ("op_wall_in_rhs", "rhs"),
    ("op_cpu_in_rhs", "rhs"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run, all per operation except the basis
# build, which happens once in set-up, and the reference unit.  Layers a
# workload never calls read 0.
PER_LAYER = (
    ("spectral.fft.calls_per_op", "count"),
    ("spectral.fft.points_per_op", "count"),
    ("spectral.fft.ms_per_op", "ms"),
    ("spectral.to_physical.self_ms_per_op", "ms"),
    ("spectral.from_physical.self_ms_per_op", "ms"),
    ("nonlinear.nonlinear_term.calls_per_op", "count"),
    ("nonlinear.nonlinear_term.self_ms_per_op", "ms"),
    ("nonlinear.bilinear_term.calls_per_op", "count"),
    ("nonlinear.bilinear_term.self_ms_per_op", "ms"),
    ("nonlinear.fft_calls_per_eval", "count"),
    ("solver.project_state.calls_per_op", "count"),
    ("solver.project_state.self_ms_per_op", "ms"),
    ("hodge.helmholtz_project.calls_per_op", "count"),
    ("hodge.helmholtz_project.self_ms_per_op", "ms"),
    ("solver.solve_nonlinear.self_ms_per_op", "ms"),
    ("hodge.recover_pressure.calls_per_op", "count"),
    ("hodge.recover_pressure.self_ms_per_op", "ms"),
    ("solver.save_solution.self_ms_per_op", "ms"),
    ("solver.load_solution.self_ms_per_op", "ms"),
    ("spectral.snapshot.bytes_per_op", "bytes"),
    ("solver.build_basis.ms", "ms"),
    ("solver.assemble_linearized.self_ms_per_op", "ms"),
    ("solver.apply_inverse.self_ms_per_op", "ms"),
    ("solver.newton_local_inverse.self_ms_per_op", "ms"),
    ("solver.newton.iterations_per_op", "count"),
    ("norms.lp_norm.calls_per_op", "count"),
    ("norms.lp_norm.self_ms_per_op", "ms"),
    ("norms.gagliardo_nirenberg_check.self_ms_per_op", "ms"),
    ("spectral.resample.self_ms_per_op", "ms"),
    ("spectral.random_form.self_ms_per_op", "ms"),
    ("trace.wall_ms_per_op", "ms"),
    ("bench.ref_rhs_ms", "ms"),
)


def use_checkout_source() -> None:
    if not (SRC / "torusforms" / "__init__.py").is_file():
        raise SystemExit(f"bench: no torusforms source under {SRC}")
    sys.path[:0] = [str(HERE), str(SRC)]


def timed_setup(name: str, seed: int, tracer=None):
    """Everything a process pays before its first result, and its time."""
    start = time.perf_counter()
    import torusforms

    if Path(torusforms.__file__).resolve().parent != SRC / "torusforms":
        raise SystemExit(f"bench: torusforms imported from {torusforms.__file__}")
    import workloads

    if tracer is not None:
        tracer.install()
        tracer.op = -1
    wl = workloads.make(name)
    wl.setup(seed, OUT)
    if tracer is not None:
        tracer.op = None
    return time.perf_counter() - start, wl


def measure(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds, each after one reference call, until their time reaches ``seconds``.

    ``run_round`` and the reference call are timed apart; the checks run
    between rounds, untimed and untraced.  Every operation of a round
    whose run raises or whose checks fail counts as failed.
    """
    import workloads

    unit = workloads.ReferenceRHS(*wl.rhs)
    unit()
    stats = {"rounds": 0, "ops": 0, "failed": 0, "wall_s": 0.0, "cpu_s": 0.0,
             "round_s": [], "rhs_evals": 0, "rhs_wall_s": 0.0, "rhs_cpu_s": 0.0}
    loop_start = time.perf_counter()
    while True:
        r = stats["rounds"]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        unit()
        stats["rhs_wall_s"] += time.perf_counter() - wall0
        stats["rhs_cpu_s"] += time.process_time() - cpu0
        stats["rhs_evals"] += unit.reps
        if tracer is not None:
            tracer.op = r
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run_round(r)
        except Exception:
            out, problems = None, [traceback.format_exc()]
        else:
            problems = None
        finally:
            stats["round_s"].append(time.perf_counter() - wall0)
            stats["wall_s"] += stats["round_s"][-1]
            stats["cpu_s"] += time.process_time() - cpu0
            if tracer is not None:
                tracer.op = None
        if problems is None:
            try:
                problems = wl.check(out)
            except Exception:
                problems = [traceback.format_exc()]
        stats["rounds"] += 1
        stats["ops"] += wl.ops_per_round
        if problems:
            stats["failed"] += wl.ops_per_round
            for line in problems:
                print(f"bench: {wl.name} round {r}: {line}", file=sys.stderr)
        timed = stats["wall_s"] + stats["rhs_wall_s"]
        if timed >= seconds or time.perf_counter() - loop_start >= 3 * seconds:
            return stats


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Set-up time and time per reference right-hand side of a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["rhs_s"])


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(ticks0) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ticks1 = cpu_ticks()
    steal = None
    if ticks0 is not None and ticks1 is not None and ticks1[1] > ticks0[1]:
        steal = 100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "steal_pct": steal,
    }


def run(args) -> dict:
    ticks0 = cpu_ticks()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        _, wl = timed_setup(args.workload, args.seed, tracer)
        try:
            stats = measure(wl, args.seconds, tracer)
        finally:
            tracer.restore()
        layer = tracer.layer_metrics(stats["ops"])
        layer["trace.wall_ms_per_op"] = 1e3 * stats["wall_s"] / stats["ops"]
        layer["bench.ref_rhs_ms"] = 1e3 * stats["rhs_wall_s"] / stats["rhs_evals"]
        tracer.write(OUT / f"trace-{args.workload}.tsv")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        nominal_s = NOMINAL_RHS_MS[args.workload] / 1e3
        _, wl = timed_setup(args.workload, args.seed)
        stats = measure(wl, args.seconds)
        ops, evals = stats["ops"], stats["rhs_evals"]
        values = {
            "setup_s": statistics.median(s * nominal_s / r for s, r in probes),
            "op_wall_in_rhs": (stats["wall_s"] / ops) / (stats["rhs_wall_s"] / evals),
            "op_cpu_in_rhs": (stats["cpu_s"] / ops) / (stats["rhs_cpu_s"] / evals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        stats["setup_samples_s"] = [s for s, _ in probes]
        stats["setup_rhs_s"] = [r for _, r in probes]
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    return {
        "result": {"correct": stats["failed"] == 0, "attempted": stats["ops"],
                   "failed": stats["failed"], "metrics": metrics},
        "stats": stats,
        "env": environment(ticks0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print its set-up time and exit")
    args = parser.parse_args(argv)
    use_checkout_source()
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        setup_s, wl = timed_setup(args.workload, args.seed)
        import workloads

        unit = workloads.ReferenceRHS(*wl.rhs)
        start = time.perf_counter()
        unit()
        rhs_s = (time.perf_counter() - start) / unit.reps
        print(json.dumps({"setup_s": setup_s, "rhs_s": rhs_s}))
        return 0
    record = run(args)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             **record}) + "\n")
    for name, metric in record["result"]["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    stats = record["stats"]
    if "setup_samples_s" in stats:
        print(f"{args.workload} set-up as measured: "
              f"{statistics.median(stats['setup_samples_s']):.6g} s median, "
              f"{1e3 * statistics.median(stats['setup_rhs_s']):.6g} ms per reference rhs")
    print(f"{args.workload} in seconds: {stats['ops'] / stats['wall_s']:.6g} ops/s, "
          f"{1e3 * stats['wall_s'] / stats['ops']:.6g} ms wall and "
          f"{1e3 * stats['cpu_s'] / stats['ops']:.6g} ms CPU per op, "
          f"{1e3 * stats['rhs_wall_s'] / stats['rhs_evals']:.6g} ms per reference rhs")
    print("env " + json.dumps(record["env"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
