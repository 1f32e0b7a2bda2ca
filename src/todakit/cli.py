"""Command-line front end.

Subcommands: solve, thermo, model, sweep, verify, plot.  Configuration
comes from flags or a JSON config file (flags win).  Exit codes: 0 on
success, 1 on failed verification or runtime errors, 2 on configuration
schema violations (the offending JSON pointer is printed), 3 when the
solver fails to converge (the residual history is written next to the
requested output).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import jsonschema
import numpy as np

from .errors import (ConfigurationError, ConvergenceError, SchemaError,
                     TodaKitError)
from .grid import MODES, build_grid, inf_over, sup_norm
from .io import (dumps_json, format_float, load_solution, save_solution,
                 write_float_rows, write_json)
from .plot import plot_csv
from .thermo import REFERENCES, thermo_field, write_thermo_csv
from .toda import BOUNDARY_STRATEGIES, SolverConfig, solve_toda
from .verify import SUITES, render_table, reports_to_dict, run_suite, suite_passed
from .weight import KINDS, model_constants, weight_from_dict

log = logging.getLogger(__name__)

_WEIGHT_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(KINDS)},
        "r": {"type": "integer", "minimum": 2},
        "t": {"type": "number", "exclusiveMinimum": 0},
        "coeffs": {"type": "array", "minItems": 1,
                   "items": {"type": "array", "items": {"type": "number"},
                             "minItems": 2, "maxItems": 2}},
        "value": {"type": "number", "minimum": 0},
        "samples": {"type": "array", "minItems": 1,
                    "items": {"type": "number", "minimum": 0}},
    },
    "required": ["kind", "r"],
    "additionalProperties": False,
}

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": list(MODES)},
        "n": {"type": "integer", "minimum": 8},
        "rho_max": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["mode", "n", "rho_max"],
    "additionalProperties": False,
}

_SOLVER_SCHEMA = {
    "type": "object",
    "properties": {
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "max_iterations": {"type": "integer", "minimum": 1},
        "armijo_factor": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 1},
        "max_halvings": {"type": "integer", "minimum": 0},
        "continuation_steps": {"type": "integer", "minimum": 0},
        "boundary": {"enum": list(BOUNDARY_STRATEGIES)},
        "initial": {"enum": ["auto", "model", "flat"]},
    },
    "additionalProperties": False,
}

_RUN_SCHEMA = {
    "type": "object",
    "properties": {
        "weight": _WEIGHT_SCHEMA,
        "grid": _GRID_SCHEMA,
        "solver": _SOLVER_SCHEMA,
        "beta": {"type": "array", "minItems": 1,
                 "items": {"type": "number", "not": {"const": 0}}},
        "t_values": {"type": "array", "minItems": 1,
                     "items": {"type": "number", "exclusiveMinimum": 0}},
        "reference": {"enum": list(REFERENCES)},
        "out": {"type": "string", "minLength": 1},
        "solution": {"type": "string", "minLength": 1},
        "suite": {"enum": list(SUITES)},
        "column": {"type": "string", "minLength": 1},
        "jobs": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "r": {"type": "integer", "minimum": 2},
    },
    "additionalProperties": False,
}


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


def _json_arg(raw: str, what: str) -> dict:
    """Inline JSON (starts with '{') or the path of a JSON file."""
    text = raw.strip()
    if not text.startswith("{"):
        if not os.path.exists(text):
            raise SchemaError(f"{what}: no such file {text!r}",
                              pointer=f"/{what}")
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: invalid JSON ({exc})",
                          pointer=f"/{what}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{what}: expected a JSON object",
                          pointer=f"/{what}")
    return doc


def _floats(raw: str, what: str) -> list:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise SchemaError(f"{what}: expected comma-separated numbers, "
                          f"got {raw!r}", pointer=f"/{what}") from exc


def _validate(doc: dict) -> None:
    try:
        jsonschema.validate(doc, _RUN_SCHEMA)
    except jsonschema.ValidationError as exc:
        pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
        raise SchemaError(exc.message, pointer=pointer) from exc


def _assemble(args, keys) -> dict:
    """Merge the config file (if any) with flags; flags win."""
    doc: dict = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise SchemaError(f"no such config file {args.config!r}",
                              pointer="/config")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                base = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"config file: invalid JSON ({exc})",
                                  pointer="") from exc
        if not isinstance(base, dict):
            raise SchemaError("config file must hold a JSON object",
                              pointer="")
        doc.update({k: v for k, v in base.items() if k in keys})
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    if "solver" in keys and getattr(args, "boundary", None):
        doc["solver"] = {**doc.get("solver", {}), "boundary": args.boundary}
    _validate(doc)
    return doc


def _weight_of(doc: dict):
    try:
        return weight_from_dict(doc["weight"])
    except ConfigurationError as exc:
        raise SchemaError(str(exc), pointer="/weight") from exc


def _grid_of(doc: dict):
    g = doc["grid"]
    try:
        return build_grid(g["mode"], g["n"], g["rho_max"])
    except (ConfigurationError, TodaKitError) as exc:
        raise SchemaError(str(exc), pointer="/grid") from exc


def _solver_of(doc: dict) -> SolverConfig:
    try:
        return SolverConfig(**doc.get("solver", {})).validated()
    except (TypeError, ConfigurationError) as exc:
        raise SchemaError(str(exc), pointer="/solver") from exc


def _require(doc: dict, key: str, command: str) -> None:
    if key not in doc:
        raise SchemaError(f"{command} requires {key!r} (flag --{key} "
                          "or config file)", pointer=f"/{key}")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    doc = _assemble(args, ("weight", "grid", "solver", "out"))
    _require(doc, "weight", "solve")
    _require(doc, "grid", "solve")
    weight = _weight_of(doc)
    grid = _grid_of(doc)
    cfg = _solver_of(doc)
    out = doc.get("out", "solution.json")
    sol = solve_toda(weight, grid, cfg)
    save_solution(out, sol)
    print(f"solved r={sol.r} on {grid.mode} n={grid.n}: residual "
          f"{format_float(sol.residual_sup)} in {sol.iterations} iterations "
          f"-> {out}")
    return 0


def cmd_thermo(args) -> int:
    doc = _assemble(args, ("weight", "grid", "solver", "beta", "reference",
                           "solution", "out"))
    beta = doc.get("beta", [1.0])
    if len(beta) != 1:
        raise SchemaError("thermo takes exactly one beta", pointer="/beta")
    reference = doc.get("reference", "flat")
    if "solution" in doc:
        sol = load_solution(doc["solution"])
    else:
        _require(doc, "weight", "thermo")
        _require(doc, "grid", "thermo")
        sol = solve_toda(_weight_of(doc), _grid_of(doc), _solver_of(doc))
    tf = thermo_field(sol, beta[0], reference)
    out = doc.get("out", "thermo.csv")
    write_thermo_csv(out, sol, tf)
    print(f"thermo beta={beta[0]:g} reference={reference}: "
          f"S in [{format_float(inf_over(tf.entropy, sol.grid.interior))}, "
          f"{format_float(sup_norm(tf.entropy, sol.grid.interior))}], "
          f"lower redundancy {format_float(tf.lower_redundancy)} -> {out}")
    return 0


def cmd_model(args) -> int:
    doc = _assemble(args, ("r", "beta", "out"))
    _require(doc, "r", "model")
    beta = doc.get("beta", [1.0])
    if len(beta) != 1:
        raise SchemaError("model takes exactly one beta", pointer="/beta")
    mc = model_constants(doc["r"], beta[0])
    text = dumps_json(mc.to_dict())
    if "out" in doc:
        with open(doc["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _sweep_point(payload) -> list:
    """Solve one amplitude and evaluate every requested beta (worker)."""
    weight_doc, grid_doc, solver_doc, t, betas, reference = payload
    weight = weight_from_dict({**weight_doc, "t": t})
    grid = build_grid(grid_doc["mode"], grid_doc["n"], grid_doc["rho_max"])
    sol = solve_toda(weight, grid, SolverConfig(**solver_doc).validated())
    rows = []
    for beta in betas:
        tf = thermo_field(sol, beta, reference)
        rows.append((t, beta,
                     inf_over(tf.entropy, grid.interior),
                     sup_norm(tf.entropy, grid.interior),
                     inf_over(tf.free_energy, grid.interior),
                     sup_norm(tf.free_energy, grid.interior),
                     tf.lower_redundancy))
    return rows


def cmd_sweep(args) -> int:
    doc = _assemble(args, ("weight", "grid", "solver", "beta", "t_values",
                           "reference", "out", "jobs"))
    _require(doc, "weight", "sweep")
    _require(doc, "grid", "sweep")
    _require(doc, "t_values", "sweep")
    _weight_of(doc)   # fail fast on a bad weight before spawning workers
    _grid_of(doc)
    betas = doc.get("beta", [1.0])
    reference = doc.get("reference", "flat")
    solver_doc = doc.get("solver", {})
    _solver_of(doc)
    ts = sorted(set(doc["t_values"]))
    jobs = doc.get("jobs") or os.cpu_count() or 1
    payloads = [(doc["weight"], doc["grid"], solver_doc, t, betas, reference)
                for t in ts]
    rows: list = []
    if jobs == 1 or len(payloads) == 1:
        for p in payloads:
            rows.extend(_sweep_point(p))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as ex:
            for chunk in ex.map(_sweep_point, payloads):
                rows.extend(chunk)
    rows.sort(key=lambda row: (row[0], row[1]))
    out = doc.get("out", "sweep.csv")
    lines = [
        f"# weight={json.dumps(doc['weight'], sort_keys=True)}",
        f"# grid={json.dumps(doc['grid'], sort_keys=True)}",
        f"# reference={reference}",
        "t,beta,inf_S,sup_S,inf_F,sup_F,lower_redundancy",
    ]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        write_float_rows(fh, np.asarray(rows, dtype=float))
    print(f"sweep over {len(ts)} amplitudes x {len(betas)} betas -> {out}")
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
    doc = _assemble(args, ("out", "column"))
    if not os.path.exists(args.input):
        raise SchemaError(f"no such file {args.input!r}", pointer="/input")
    out = doc.get("out") or os.path.splitext(args.input)[0] + ".svg"
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


def _history_path(args) -> str:
    out = getattr(args, "out", None)
    base = os.path.splitext(out)[0] if out else "solve"
    return base + ".residual_history.json"


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = None
    try:
        # flag type-callables can raise SchemaError during parsing
        args = parser.parse_args(argv)
        return args.func(args)
    except SchemaError as exc:
        print(f"config error at {exc.pointer or '/'}: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        path = _history_path(args)
        write_json(path, {
            "schema": "residual-history/1",
            "message": str(exc),
            "residual_history": [float(v) for v in exc.residual_history],
        })
        print(f"solver did not converge: {exc}\nresidual history -> {path}",
              file=sys.stderr)
        return 3
    except TodaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
