"""One benchmark process: set up a workload and, unless told not to, time it.

run.py starts it; by hand it runs from the repository root as

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \
        --seconds S --trace 0|1

A set-up-only worker prints READY once its inputs exist and exits.  A
measuring worker repeats passes of the workload until --seconds have gone by
and prints one JSON line with the figures of every pass.  With --trace 1 the
passes alternate untraced and traced, so the difference of their wall times
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# two passes, so a traced run holds one untraced and one traced pass
MIN_PASSES = 2
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def measure(work, seconds: float, traced_every_other: bool) -> dict:
    from spans import Tracer
    from workloads import Outcomes

    tracer = Tracer()
    outcomes = Outcomes()
    passes: list = []
    begin = time.perf_counter()
    index = 0
    while True:
        traced = traced_every_other and index % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        results = work.run_pass(index)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        record = {"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                  "ops": [(what, seconds) for what, _, _, seconds in results]}
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.summary()
            record["spans"] = tracer.dump()
        work.check(results, outcomes)
        passes.append(record)
        index += 1
        if index == MIN_PASSES:
            # later passes raise the high-water mark through heap
            # fragmentation alone, so the peak is read at a fixed pass count
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() - begin >= seconds and index >= MIN_PASSES:
            break
    return {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "notes": outcomes.notes[:20],
        "passes": passes,
        "absent_layers": tracer.absent,
        "peak_rss_mb": peak_kb / 1024.0,
        "cases": work.cases,
        "versions": _versions(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        work.prepare()
        print("READY", flush=True)
        return 0
    result = measure(work, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
