"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

A workload object makes its inputs from the seed (``prepare`` is the part of
set-up that writes files), runs one pass of its fixed operation list
(``run_pass``, the only timed code) and then checks every output by its
properties (``check``), never by frozen hashes, so a solver change that
moves the last digits is not a failure.  An operation fails when it raises
or when its output fails the check.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import os
import random
import time
import xml.etree.ElementTree as ET

import numpy as np

import todakit.cli
import todakit.grid
import todakit.io
import todakit.plot
import todakit.thermo
import todakit.toda
import todakit.verify
from todakit.toda import SolverConfig
from todakit.weight import weight_from_dict

RHO_MAX = 0.9
TOLERANCE = SolverConfig().tolerance
P_SUM_TOL = 1e-12
S_MODEL_SLACK = 1e-9
LOG_R_SLACK = 1e-12


def _poly(roots: list) -> list:
    """Ascending [re, im] coefficients of prod (z - root) for real roots."""
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    return [[float(c), 0.0] for c in coeffs]


def _case(label, r, n, weight, boundary="model_poincare") -> dict:
    return {"label": label, "r": r, "n": n, "rho_max": RHO_MAX,
            "weight": {**weight, "r": r}, "boundary": boundary}


def model_entropy(r: int, beta: float) -> float:
    """Entropy of p_j ~ (j (r - j))^beta over the r - 1 live slots."""
    logits = beta * np.log([j * (r - j) for j in range(1, r)])
    p = np.exp(logits - logits.max())
    p /= p.sum()
    return float(-(p * np.log(p)).sum())


class Outcomes:
    """Attempted and failed operation counts, and whether checks all held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list = []

    def raised(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{what}: {type(exc).__name__}: {exc}")

    def wrong(self, what: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.correct = False
        self.notes.append(f"{what}: {why}")

    def judge(self, what: str, why: str | None) -> None:
        if why is None:
            self.attempted += 1
        else:
            self.wrong(what, why)


_FAILED = object()


def _attempt(results: list, what: str, fn, *args, needs=()):
    """Run one operation, keeping its result or exception and its seconds.

    An operation whose input came from a failed one is not run and fails.
    """
    if any(v is _FAILED for v in needs):
        results.append((what, None, RuntimeError("not run: an input failed"), 0.0))
        return _FAILED
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except (Exception, SystemExit) as exc:  # argparse exits on a bad flag
        results.append((what, None, exc, time.perf_counter() - t0))
        return _FAILED
    results.append((what, out, None, time.perf_counter() - t0))
    return out


def _residual_problem(sol) -> str | None:
    res = todakit.toda.toda_residual(sol.w, sol.weight)
    sup = max(float(np.abs(f.values).max()) for f in res)
    return None if sup <= TOLERANCE else f"residual {sup:.3e} > {TOLERANCE:g}"


class SolveCoupled:
    """A few large solves, each on its own (grid, rank) pair."""

    name = "solve-coupled"

    def __init__(self, seed: int, workdir: str):
        a = random.Random(seed).uniform(-0.45, 0.45)
        self.cases = [
            _case("r2-n257-z-a", 2, 257, {"kind": "poly", "coeffs": _poly([a])}),
            _case("r4-n129-(z-a)(z+a)", 4, 129,
                  {"kind": "poly", "coeffs": _poly([a, -a])}),
            _case("r8-n65-zero", 8, 65, {"kind": "zero"}),
            _case("r3-n129-z-a-exhaustion", 3, 129,
                  {"kind": "poly", "coeffs": _poly([a])}, "exhaustion"),
            # q = z exactly: past DIRECT_SOLVE_MAX_N the diagonally
            # preconditioned BiCGStab path stalls on it; its cost swings
            # 3.5-8 s with small |a|, so the seed does not move it
            _case("r2-n289-z", 2, 289, {"kind": "poly", "coeffs": _poly([0.0])}),
        ]

    def prepare(self) -> None:
        pass

    def run_pass(self, index: int) -> list:
        results: list = []
        for case in self.cases:
            # the amplitude moves by 1e-6 per pass so no two passes repeat an
            # input exactly and memoised solves cannot hit across passes
            weight = weight_from_dict({**case["weight"], "t": 1.0 + 1e-6 * index})
            grid = todakit.grid.build_grid("cartesian", case["n"], case["rho_max"])
            _attempt(results, case["label"], todakit.toda.solve_toda, weight,
                     grid, SolverConfig(boundary=case["boundary"]))
        return results

    def check(self, results: list, out: Outcomes) -> None:
        for what, sol, exc, _ in results:
            if exc is not None:
                out.raised(what, exc)
            else:
                out.judge(what, _residual_problem(sol))


class SweepSmall:
    """One CLI sweep: many solves sharing a grid, rank and sparsity pattern."""

    name = "sweep-small"
    betas = (-1.0, 1.0, 2.0)
    r = 3

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        # Newton iterations over the sweep grow from 57 at a = 0 to 68 at
        # |a| = 0.45; a narrower range keeps seeds from changing the work
        a = rng.uniform(-0.15, 0.15)
        lo, hi = math.log(0.25), math.log(64.0)
        # one amplitude per equal log-width stratum keeps the work per pass
        # steady across seeds
        self.t_values = [math.exp(lo + (hi - lo) * (k + rng.random()) / 16)
                         for k in range(16)]
        self.cases = [_case("r3-n65-z-a-sweep", self.r, 65,
                            {"kind": "poly", "coeffs": _poly([a])})]
        self.out = os.path.join(workdir, "sweep.csv")
        case = self.cases[0]
        self.argv = [
            "sweep",
            "--weight", json.dumps(case["weight"]),
            "--grid", json.dumps({"mode": "cartesian", "n": case["n"],
                                  "rho_max": case["rho_max"]}),
            "--beta=" + ",".join(repr(b) for b in self.betas),
            "--t-values", ",".join(repr(t) for t in self.t_values),
            "--jobs", "1",
            "--out", self.out,
        ]

    def prepare(self) -> None:
        pass

    def run_pass(self, index: int) -> list:
        results: list = []
        with contextlib.redirect_stdout(stdio.StringIO()):
            _attempt(results, "sweep", todakit.cli.main, list(self.argv))
        return results

    def _rows_problem(self, rows: list) -> str | None:
        if sorted(row["beta"] for row in rows) != sorted(self.betas):
            return f"betas {[row['beta'] for row in rows]}"
        for row in rows:
            s_model = model_entropy(self.r, row["beta"])
            if not row["inf_S"] >= s_model - S_MODEL_SLACK:
                return f"inf_S {row['inf_S']!r} < S_model {s_model!r}"
            if not row["sup_S"] <= math.log(self.r) + LOG_R_SLACK:
                return f"sup_S {row['sup_S']!r} > log r"
            if not row["lower_redundancy"] > 0.0:
                return f"lower_redundancy {row['lower_redundancy']!r} <= 0"
        return None

    def check(self, results: list, out: Outcomes) -> None:
        (what, rc, exc, _), = results
        if exc is None and rc != 0:
            exc = RuntimeError(f"exit code {rc}")
        if exc is not None:
            for t in self.t_values:
                out.raised(f"sweep t={t:g}", exc)
            return
        with open(self.out, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
        for t in self.t_values:
            mine = [row for row in rows if row["t"] == t]
            out.judge(f"sweep t={t:g}", self._rows_problem(mine))


def _thermo_problem(tf) -> str | None:
    drift = float(np.abs(sum(f.values for f in tf.p) - 1.0).max())
    return None if drift <= P_SUM_TOL else f"p rows sum off by {drift:.3e}"


def _csv_problem(path: str, sol) -> str | None:
    with open(path, encoding="utf-8") as fh:
        header = next(ln for ln in fh if not ln.startswith("#")).strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[0] != sol.grid.nodes:
        return f"{body.shape[0]} rows for {sol.grid.nodes} nodes"
    p_cols = [k for k, name in enumerate(header) if name.startswith("p_")]
    drift = float(np.abs(body[:, p_cols].sum(axis=1) - 1.0).max())
    return None if drift <= P_SUM_TOL else f"p rows sum off by {drift:.3e}"


def _svg_problem(path: str) -> str | None:
    if os.path.getsize(path) == 0:
        return "empty svg"
    root = None
    try:
        # streamed and cleared, so the check does not set the peak RSS
        for event, elem in ET.iterparse(path, events=("start", "end")):
            if root is None:
                root = elem
            elif event == "end":
                elem.clear()
    except ET.ParseError as exc:
        return f"malformed svg: {exc}"
    return None if root.tag.endswith("svg") else f"root element {root.tag}"


class Artifacts:
    """Post-processing of two stored solutions; no Newton solve is timed."""

    name = "artifacts"
    betas = (1.0, -1.0)
    references = ("flat", "poincare")

    def __init__(self, seed: int, workdir: str):
        a = random.Random(seed).uniform(-0.45, 0.45)
        self.cases = [
            _case("r3-n257-z-a", 3, 257, {"kind": "poly", "coeffs": _poly([a])}),
            _case("r4-n129-(z-a)(z+a)", 4, 129,
                  {"kind": "poly", "coeffs": _poly([a, -a])}),
        ]
        self.workdir = workdir

    def prepare(self) -> None:
        for case in self.cases:
            grid = todakit.grid.build_grid("cartesian", case["n"], case["rho_max"])
            sol = todakit.toda.solve_toda(weight_from_dict(case["weight"]), grid,
                                          SolverConfig(boundary=case["boundary"]))
            todakit.io.save_solution(self._file(case), sol)

    def _file(self, case: dict, suffix: str = "json") -> str:
        return os.path.join(self.workdir, f"{case['label']}.{suffix}")

    def run_pass(self, index: int) -> list:
        verify = todakit.verify
        results: list = []
        for case in self.cases:
            label = case["label"]
            sol = _attempt(results, f"{label} load", todakit.io.load_solution,
                           self._file(case))
            for beta in self.betas:
                for ref in self.references:
                    tag = f"b{beta:g}-{ref}"
                    csv = self._file(case, f"{tag}.csv")
                    tf = _attempt(results, f"{label} thermo {tag}",
                                  todakit.thermo.thermo_field, sol, beta, ref,
                                  needs=(sol,))
                    wrote = _attempt(results, f"{label} csv {tag}",
                                     todakit.thermo.write_thermo_csv, csv, sol, tf,
                                     needs=(tf,))
                    _attempt(results, f"{label} plot {tag}", todakit.plot.plot_csv,
                             csv, self._file(case, f"{tag}.svg"), needs=(wrote,))
            _attempt(results, f"{label} check density_band",
                     verify.check_density_band, sol, needs=(sol,))
            for beta in self.betas:
                _attempt(results, f"{label} check entropy_bounds b{beta:g}",
                         verify.check_entropy_bounds, sol, beta, needs=(sol,))
                _attempt(results, f"{label} check redundancy b{beta:g}",
                         verify.check_redundancy, sol, beta, needs=(sol,))
            _attempt(results, f"{label} check fe_inequality b1",
                     verify.check_fe_inequality, sol, 1.0, needs=(sol,))
            _attempt(results, f"{label} save", todakit.io.save_solution,
                     self._file(case, "saved.json"), sol, needs=(sol,))
        return results

    def check(self, results: list, out: Outcomes) -> None:
        cases = {case["label"]: case for case in self.cases}
        sols: dict = {}
        for what, val, exc, _ in results:
            if exc is not None:
                out.raised(what, exc)
                continue
            label, kind, *rest = what.split(" ")
            case = cases[label]
            if kind == "load":
                sols[label] = val
                out.judge(what, _residual_problem(val))
            elif kind == "thermo":
                out.judge(what, _thermo_problem(val))
            elif kind == "csv":
                out.judge(what, _csv_problem(self._file(case, f"{rest[0]}.csv"),
                                             sols[label]))
            elif kind == "plot":
                out.judge(what, _svg_problem(self._file(case, f"{rest[0]}.svg")))
            elif kind == "check":
                out.judge(what, None if val.passed else
                          f"margin {val.margin:.3e} below slack {val.slack:.3e}")
            else:
                with open(self._file(case), "rb") as a, \
                        open(self._file(case, "saved.json"), "rb") as b:
                    same = a.read() == b.read()
                out.judge(what, None if same else "save(load(f)) differs from f")


WORKLOADS = {cls.name: cls for cls in (SolveCoupled, SweepSmall, Artifacts)}
