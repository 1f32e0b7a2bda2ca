"""Robustness scan: solve a fixed set of inputs and record how each ends.

    python3 ci/scan.py --out SCAN_<n>.json
    python3 ci/scan.py --compare OLD.json NEW.json

The inputs are every combination of cartesian n in {17, 33}, r in
{2, 3, 4}, the three boundaries, the weights 1, z, z^2, z^2 - 0.25 and
z + 0.3, and the amplitudes t in {1, 10, 1e2, 1e3, 1e4, 1e5}, all on
rho_max = 0.9, plus the radial r = 3, q = z ladder n = 129 ... 4097 (546
inputs).  Each is solved with the default solver settings, one after the
other in this process, and recorded with its status (converged, or
stalled with its last residual), its Newton steps when it converged and
its solve time.  Run it from the repository root; it solves with the
package under src/ of the tree it sits in.

--compare lists every input whose status or Newton count differs between
two scan files, and exits 1 when an input that converged in OLD does not
converge in NEW.  Solve times never enter the comparison.  Standard
library plus the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from todakit.errors import ConvergenceError  # noqa: E402
from todakit.grid import build_grid  # noqa: E402
from todakit.toda import BOUNDARY_STRATEGIES, SolverConfig, solve_toda  # noqa: E402
from todakit.weight import make_weight  # noqa: E402

RHO_MAX = 0.9
# name -> polynomial coefficients in z, lowest degree first; None is the
# constant weight 1
WEIGHTS = {"1": None, "z": [0, 1], "z^2": [0, 0, 1],
           "z^2-0.25": [-0.25, 0, 1], "z+0.3": [0.3, 1]}
AMPLITUDES = (1.0, 10.0, 1e2, 1e3, 1e4, 1e5)
RADIAL_LADDER = (129, 257, 513, 1025, 2049, 4097)


def inputs() -> list:
    """Every scanned input as (mode, n, r, boundary, weight name, t)."""
    out = [("cartesian", n, r, boundary, name, t)
           for n in (17, 33) for r in (2, 3, 4)
           for boundary in BOUNDARY_STRATEGIES for name in WEIGHTS
           for t in AMPLITUDES]
    out += [("radial", n, 3, "model_poincare", "z", 1.0)
            for n in RADIAL_LADDER]
    return out


def key(mode, n, r, boundary, name, t) -> str:
    return f"{mode} n={n} r={r} {boundary} q={name} t={t:g}"


def run_one(mode, n, r, boundary, name, t) -> dict:
    """Solve one input; its status, Newton steps, residual and time."""
    coeffs = WEIGHTS[name]
    weight = (make_weight("constant", r, t=t, value=1.0) if coeffs is None
              else make_weight("poly", r, t=t, coeffs=coeffs))
    grid = build_grid(mode, n, RHO_MAX)
    start = time.perf_counter()
    try:
        sol = solve_toda(weight, grid, SolverConfig(boundary=boundary))
        status, newton, residual = "converged", sol.iterations, \
            sol.residual_sup
    except ConvergenceError as exc:
        status, newton, residual = "stalled", None, exc.residual_history[-1]
    return {"key": key(mode, n, r, boundary, name, t), "status": status,
            "newton": newton, "residual": residual,
            "seconds": round(time.perf_counter() - start, 4)}


def scan(cases=None) -> dict:
    rows = [run_one(*case) for case in (cases or inputs())]
    return {
        "schema": "todakit-scan/1",
        "nproc": os.cpu_count(),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "converged": sum(row["status"] == "converged" for row in rows),
        "stalled": sum(row["status"] == "stalled" for row in rows),
        "solve_s": round(sum(row["seconds"] for row in rows), 2),
        "inputs": rows,
    }


def _outcome(row: dict) -> str:
    if row["newton"] is None:
        return row["status"]
    return f"{row['status']} in {row['newton']} steps"


def compare(old: dict, new: dict) -> tuple:
    """(lines, lost): one line per input whose status or Newton count
    moved, or that only one scan has, and the keys of the inputs that
    converged in `old` but not in `new`."""
    before = {row["key"]: row for row in old["inputs"]}
    after = {row["key"]: row for row in new["inputs"]}
    lines, lost = [], []
    for k in sorted(before.keys() | after.keys()):
        a, b = before.get(k), after.get(k)
        if a is None or b is None:
            lines.append(f"{k}: only in {'new' if a is None else 'old'}")
        elif (a["status"], a["newton"]) != (b["status"], b["newton"]):
            lines.append(f"{k}: {_outcome(a)} -> {_outcome(b)}")
        if a is not None and a["status"] == "converged" and (
                b is None or b["status"] != "converged"):
            lost.append(k)
    return lines, lost


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="scan file to write")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (_read(path) for path in args.compare)
        lines, lost = compare(old, new)
        for line in lines:
            print(line)
        print(f"{len(lines)} inputs moved; converged {old['converged']} -> "
              f"{new['converged']}, stalled {old['stalled']} -> "
              f"{new['stalled']}; {len(lost)} converged inputs lost")
        return 1 if lost else 0
    result = scan()
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"{result['converged']} converged, {result['stalled']} stalled, "
          f"{result['solve_s']} s of solving -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
