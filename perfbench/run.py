"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It times set-up in SETUP_REPEATS fresh
worker processes (process start to inputs ready, median reported), then one
more worker measures passes of the workload for --seconds.  With --trace 0
the last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer ones.  The full record (machine, versions, cases, every pass and
every span) goes to .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-coupled", "sweep-small", "artifacts")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# metric name -> (span name, summary field, unit); fields are summed per
# traced pass, then the median over traced passes is reported
LAYER_METRICS = {
    "toda.linear_solve.calls": ("toda.linear_solve", "calls", "count"),
    "toda.linear_solve.s": ("toda.linear_solve", "s", "s"),
    "toda.linear_solve.share": ("toda.linear_solve", "share", "ratio"),
    "toda.newton_iters": ("toda.solve", "newton_iters", "count"),
    "toda.solve.calls": ("toda.solve", "calls", "count"),
    "toda.solve.failed": ("toda.solve", "failed", "count"),
    "toda.solve.s": ("toda.solve", "s", "s"),
    "toda.solve.self_s": ("toda.solve", "self_s", "s"),
    "weight.evaluate_density.calls": ("weight.evaluate_density", "calls", "count"),
    "weight.evaluate_density.s": ("weight.evaluate_density", "s", "s"),
    "grid.build_grid.calls": ("grid.build_grid", "calls", "count"),
    "grid.build_grid.s": ("grid.build_grid", "s", "s"),
    "thermo.write_thermo_csv.s": ("thermo.write_thermo_csv", "s", "s"),
    "thermo.write_thermo_csv.bytes": ("thermo.write_thermo_csv", "bytes", "B"),
    "plot.plot_csv.s": ("plot.plot_csv", "s", "s"),
    "plot.plot_csv.bytes": ("plot.plot_csv", "bytes", "B"),
    "io.save_solution.s": ("io.save_solution", "s", "s"),
    "io.save_solution.bytes": ("io.save_solution", "bytes", "B"),
    "io.load_solution.self_s": ("io.load_solution", "self_s", "s"),
    "io.load_solution.bytes": ("io.load_solution", "bytes", "B"),
    "toda.residual.calls": ("toda.residual", "calls", "count"),
    "toda.residual.s": ("toda.residual", "s", "s"),
    "thermo.thermo_field.calls": ("thermo.thermo_field", "calls", "count"),
    "thermo.thermo_field.s": ("thermo.thermo_field", "s", "s"),
    "verify.check.calls": ("verify.check", "calls", "count"),
    "verify.check.s": ("verify.check", "s", "s"),
    "verify.check.failed": ("verify.check", "failed", "count"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
    "trace.overhead_s": (None, None, "s"),
}


class WorkerError(RuntimeError):
    pass


def _start(args: list, deadline: float):
    """Start a worker that is killed if it outlives the deadline."""
    # one BLAS thread unless the caller says otherwise: the program's own
    # code is single-threaded, and idle BLAS threads spinning on a shared
    # machine made cpu_s and the Krylov solves unsteady
    env = {**{k: "1" for k in THREAD_ENV}, **os.environ,
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    return proc, timer


def _finish(proc, timer) -> str:
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def time_setup(common: list, deadline: float) -> float:
    """Seconds from starting a worker to its inputs being ready."""
    t0 = time.perf_counter()
    proc, timer = _start(common + ["--setup-only"], deadline)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        _finish(proc, timer)
    if line.strip() != "READY":
        raise WorkerError(f"set-up worker printed {line!r}")
    return elapsed


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(result: dict, setups: list) -> dict:
    passes = result["passes"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "cpu_s": _median([p["cpu_s"] for p in passes]),
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(result: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    out = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        if span is None:
            value = (_median([p["wall_s"] for p in traced])
                     - _median([p["wall_s"] for p in plain]))
        else:
            per_pass = []
            for p in traced:
                agg = p["layers"].get(span, {})
                if field == "share":
                    per_pass.append(agg.get("s", 0.0) / p["wall_s"])
                else:
                    per_pass.append(agg.get(field, 0))
            value = _median(per_pass)
        out[metric] = {"value": value, "unit": unit}
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {k: os.environ.get(k, "1") for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "todakit", "__init__.py")):
        print(f"perfbench: no todakit sources under {ROOT}/src", file=sys.stderr)
        return 2

    # a terminated run still stops its workers, through the finally blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir]
    try:
        setups = [time_setup(common, deadline) for _ in range(SETUP_REPEATS)]
        proc, timer = _start(common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)], deadline)
        result = json.loads(_finish(proc, timer).strip().splitlines()[-1])
    except (WorkerError, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "setup_s": setups, "metrics": metrics,
              **result}
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for note in result["notes"]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
