"""Command-line front end.

Subcommands: solve, thermo, model, sweep, verify, plot.  Configuration
comes from flags or a JSON config file (flags win).  A command builds its
solver inputs once, before the first solve: the weight, grid and
SolverConfig, the weight of every sweep amplitude and every beta.  Sweep
workers receive these built objects, not documents.  A sweep builds its
solver plan (the stages and their systems, which depend on the grid, rank
and boundary only) once, and each worker process builds it once when it
starts, so no amplitude rebuilds it.  Every JSON input (a
config file, --weight and --grid, a --solution file) is read and checked
in `io`: the constructors check the values they build and the key table
`io._KEYS` every other key.  Exit codes: 0 on success; 1 when a verify
check fails or on a ValidationError (non-finite numeric state, a
malformed CSV file); 2 on every input error, a ConfigurationError, with
its JSON pointer (for a --solution file, /solution and the pointer into
the file).  A weight, grid and boundary that no solve can take together,
and a reference density the grid cannot carry, are rejected before the
first solve (for a stored solution, once it loads), at the value to
blame; an input error found mid-run (a plot column the CSV lacks) may
carry the pointer /;
3 when the solver fails to converge (the residual history is written
next to the resolved output path).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ConfigurationError, ConvergenceError, TodaKitError
from .grid import build_grid
from .io import (REFERENCES, SUITES, _KEYS, _built, _checked, _json_object,
                 _require_file, dumps_json, format_float, load_solution,
                 save_solution, write_csv, write_json)
from .plot import plot_csv
from .thermo import check_reference, thermo_field, write_thermo_csv
from .toda import (BOUNDARY_STRATEGIES, SolverConfig, _plan,
                   check_amplitudes, check_solvable, solve_toda)
from .verify import render_table, reports_to_dict, run_suite, suite_passed
from .weight import _check_beta, model_constants, weight_from_dict

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    raw = os.environ.get("TODA_LOG", "error").lower()
    if raw not in levels:
        print(f"warning: TODA_LOG={raw!r} not in {sorted(levels)}; "
              "using error", file=sys.stderr)
        raw = "error"
    logging.basicConfig(
        level=levels[raw], stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s")


def _json_arg(raw: str, key: str) -> dict:
    """Inline JSON (starts with '{') or the path of a JSON file."""
    text = raw.strip()
    return _json_object(text, f"/{key}", inline=text.startswith("{"))


def _floats(raw: str, what: str) -> list:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"{what}: expected comma-separated numbers, "
                                 f"got {raw!r}", pointer=f"/{what}") from exc


def _assemble(args, keys, out: str | None = None) -> dict:
    """Merge the config file (if any) with flags (flags win) and check
    every key against `_KEYS`.  The output path resolves here, before any
    solve, into `args.out`: the --out flag, then the config file's "out",
    then the command's default `out`; a stalled solve writes its residual
    history next to it."""
    doc: dict = {}
    if getattr(args, "config", None):
        base = _json_object(args.config, "/config")
        doc.update({k: v for k, v in base.items() if k in keys})
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    _checked(doc, _KEYS)
    if "solver" in keys and getattr(args, "boundary", None):
        doc["solver"] = {**doc.get("solver", {}), "boundary": args.boundary}
    args.out = doc.get("out", out)
    return doc


def _inputs(doc: dict, command: str, *required: str,
            one_beta: bool = False) -> tuple:
    """(weight, grid, SolverConfig, betas) of a run document, built once,
    before any solve.  A missing `required` key, more than one beta when
    `one_beta`, a value a constructor rejects, or a weight and grid that
    `check_solvable` rejects for the solver's boundary is a
    ConfigurationError at its key.  An absent weight or grid is None;
    betas default to [1.0]."""
    for key in required:
        if key not in doc:
            raise ConfigurationError(f"{command} requires {key!r} (flag "
                                     f"--{key} or config file)",
                                     pointer=f"/{key}")
    betas = [_built("beta", _check_beta, b) for b in doc.get("beta", [1.0])]
    if one_beta and len(betas) != 1:
        raise ConfigurationError(f"{command} takes exactly one beta",
                                 pointer="/beta")
    weight = grid = None
    if "weight" in doc:
        weight = _built("weight", weight_from_dict, doc["weight"])
    if "grid" in doc:
        grid = _built("grid", build_grid, **doc["grid"])
    cfg = _built("solver", SolverConfig, **doc.get("solver", {}))
    if weight is not None and grid is not None:
        check_solvable(weight, grid, cfg.boundary)
    return weight, grid, cfg, betas


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    doc = _assemble(args, ("weight", "grid", "solver", "out"),
                    out="solution.json")
    weight, grid, cfg, _ = _inputs(doc, "solve", "weight", "grid")
    out = args.out
    sol = solve_toda(weight, grid, cfg)
    save_solution(out, sol)
    print(f"solved r={sol.r} on {grid.mode} n={grid.n}: residual "
          f"{format_float(sol.residual_sup)} in {sol.iterations} iterations "
          f"-> {out}")
    return 0


def _stored(path: str):
    """The solution in the file `path`; what the file holds wrong is a
    ConfigurationError at /solution that names the file and its pointer
    there."""
    try:
        return load_solution(path)
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"solution file {path!r} at {exc.pointer or '/'}: {exc}",
            pointer="/solution") from exc


def cmd_thermo(args) -> int:
    doc = _assemble(args, ("weight", "grid", "solver", "beta", "reference",
                           "solution", "out"), out="thermo.csv")
    stored = "solution" in doc
    weight, grid, cfg, (beta,) = _inputs(
        doc, "thermo", *(() if stored else ("weight", "grid")), one_beta=True)
    reference = doc.get("reference", "flat")
    if stored:
        sol = _stored(doc["solution"])
        check_reference(sol.grid, reference)
    else:
        check_reference(grid, reference)
        sol = solve_toda(weight, grid, cfg)
    tf = thermo_field(sol, beta, reference)
    out = args.out
    write_thermo_csv(out, sol, tf)
    s = tf.entropy.values[sol.grid.interior]
    print(f"thermo beta={beta:g} reference={reference}: "
          f"S in [{format_float(float(s.min()))}, "
          f"{format_float(float(s.max()))}], "
          f"lower redundancy {format_float(tf.lower_redundancy)} -> {out}")
    return 0


def cmd_model(args) -> int:
    doc = _assemble(args, ("r", "beta", "out"))
    *_, (beta,) = _inputs(doc, "model", "r", one_beta=True)
    constants = model_constants(doc["r"], beta).to_dict()
    if "out" in doc:
        write_json(doc["out"], constants)
    sys.stdout.write(dumps_json(constants))
    return 0


# the solver plan of a sweep worker process, built once by `_start_worker`
_worker_plan = None


def _start_worker(grid, r, boundary) -> None:
    global _worker_plan
    _worker_plan = _plan(grid, r, boundary)


def _sweep_point(weight, cfg, betas, reference, plan=None) -> list:
    """Solve one amplitude on `plan`, the worker's plan when None, and
    evaluate every requested beta."""
    if plan is None:
        plan = _worker_plan
    sol = solve_toda(weight, plan.grid, cfg, plan=plan)
    interior = plan.grid.interior
    rows = []
    for beta in betas:
        tf = thermo_field(sol, beta, reference)
        s = tf.entropy.values[interior]
        f = tf.free_energy.values[interior]
        rows.append((weight.t, beta, float(s.min()), float(s.max()),
                     float(f.min()), float(f.max()), tf.lower_redundancy))
    return rows


def cmd_sweep(args) -> int:
    doc = _assemble(args, ("weight", "grid", "solver", "beta", "t_values",
                           "reference", "out", "jobs"), out="sweep.csv")
    weight, grid, cfg, betas = _inputs(doc, "sweep", "weight", "grid",
                                       "t_values")
    reference = doc.get("reference", "flat")
    check_reference(grid, reference)
    check_amplitudes(weight, grid, cfg.boundary, doc["t_values"])
    # _KEYS took each amplitude as a positive finite number
    weights = [dataclasses.replace(weight, t=float(t))
               for t in sorted(set(doc["t_values"]))]
    point = functools.partial(_sweep_point, cfg=cfg, betas=betas,
                              reference=reference)
    jobs = doc.get("jobs") or os.cpu_count() or 1
    rows: list = []
    if jobs == 1 or len(weights) == 1:
        plan = _plan(grid, weight.r, cfg.boundary)
        for weight in weights:
            rows.extend(point(weight, plan=plan))
    else:
        # a plan is cheaper to rebuild than to send: at n = 513, r = 3 a
        # used plan pickles to 52 MB and takes 58 ms to pickle and
        # unpickle, against 47 ms to rebuild, so each worker builds its own
        with ProcessPoolExecutor(max_workers=min(jobs, len(weights)),
                                 initializer=_start_worker,
                                 initargs=(grid, weight.r, cfg.boundary)) as ex:
            for chunk in ex.map(point, weights):
                rows.extend(chunk)
    rows.sort(key=lambda row: (row[0], row[1]))
    out = args.out
    meta = {"weight": json.dumps(doc["weight"], sort_keys=True),
            "grid": json.dumps(doc["grid"], sort_keys=True),
            "reference": reference}
    header = ["t", "beta", "inf_S", "sup_S", "inf_F", "sup_F",
              "lower_redundancy"]
    write_csv(out, meta, header, np.asarray(rows, dtype=float))
    print(f"sweep over {len(weights)} amplitudes x {len(betas)} betas "
          f"-> {out}")
    return 0


def cmd_verify(args) -> int:
    doc = _assemble(args, ("suite", "seed", "out"))
    suite = doc.get("suite", "core")
    reports = run_suite(suite, seed=doc.get("seed", 0))
    sys.stdout.write(render_table(reports))
    if "out" in doc:
        write_json(doc["out"], reports_to_dict(reports, suite))
        print(f"report -> {doc['out']}")
    return 0 if suite_passed(reports) else 1


def cmd_plot(args) -> int:
    doc = _assemble(args, ("out", "column"),
                    out=os.path.splitext(args.input)[0] + ".svg")
    _require_file(args.input, "/input")
    out = args.out
    kind = plot_csv(args.input, out, doc.get("column"))
    print(f"{kind} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub, *, weight=False, grid=False, solver=False, beta=False):
    sub.add_argument("--config", help="JSON config file; flags override it")
    if weight:
        sub.add_argument("--weight", type=lambda s: _json_arg(s, "weight"),
                         help="weight density JSON (inline or a file path)")
    if grid:
        sub.add_argument("--grid", type=lambda s: _json_arg(s, "grid"),
                         help="grid JSON (inline or a file path)")
    if solver:
        sub.add_argument("--boundary", choices=list(BOUNDARY_STRATEGIES),
                         help="boundary strategy (shorthand for solver config)")
    if beta:
        sub.add_argument("--beta", type=lambda s: _floats(s, "beta"),
                         help="slot exponent(s), comma separated")
    sub.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todakit",
        description="Solve coupled Toda-type systems for cyclic metrics and "
                    "evaluate their entropy, free energy, and redundancy.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="solve one instance, write a solution file")
    _add_common(p, weight=True, grid=True, solver=True)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("thermo", help="ensemble fields along a solution")
    _add_common(p, weight=True, grid=True, solver=True, beta=True)
    p.add_argument("--solution", help="reuse a stored solution file")
    p.add_argument("--reference", choices=list(REFERENCES),
                   help="free-energy reference density")
    p.set_defaults(func=cmd_thermo)

    p = subs.add_parser("model", help="closed-form constants for one rank")
    _add_common(p, beta=True)
    p.add_argument("--r", type=int, help="rank (number of slots)")
    p.set_defaults(func=cmd_model)

    p = subs.add_parser("sweep", help="amplitude/beta sweep, long-form CSV")
    _add_common(p, weight=True, grid=True, solver=True, beta=True)
    p.add_argument("--t-values", dest="t_values",
                   type=lambda s: _floats(s, "t_values"),
                   help="amplitudes, comma separated")
    p.add_argument("--jobs", type=int, help="worker processes")
    p.add_argument("--reference", choices=list(REFERENCES))
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("verify", help="run a property-check suite")
    _add_common(p)
    p.add_argument("--suite", choices=list(SUITES))
    p.add_argument("--seed", type=int, help="seed for randomized probes")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("plot", help="render a CSV artifact as SVG")
    p.add_argument("input", help="thermo or sweep CSV")
    _add_common(p)
    p.add_argument("--column", help="column to draw (heatmaps and sweeps)")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = None
    try:
        # flag type-callables can raise ConfigurationError during parsing
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error at {exc.pointer or '/'}: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        # verify has no output path unless one is given
        if args.out:
            path = os.path.splitext(args.out)[0] + ".residual_history.json"
            write_json(path, {
                "schema": "residual-history/1",
                "message": str(exc),
                "residual_history": [float(v) for v in exc.residual_history],
            })
            print(f"residual history -> {path}", file=sys.stderr)
        return 3
    except TodaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
