"""Deterministic serialization for solutions and derived tables, and the
one reader and checker of the package's two JSON documents.

All floats are written with 17 significant digits so that a save/load
round trip reproduces every array bit for bit and reruns of the same
computation yield byte-identical artifacts.

`_json_object` reads every JSON input, a run's config and JSON flags and
a solution file; one key table per document (`_KEYS`, `_SOLUTION_KEYS`)
checks its keys and `_built` points a constructor's error at /key/member.

CSV tables are written in blocks of FLOAT_BLOCK_ROWS rows, and each block
formats its distinct values once: thermo tables repeat many values (a
block's x takes at most n values, p_{r-j} equals p_j, and p_0 is 0 at
beta < 0).  JSON float lists skip that step and are formatted whole.
The w and v0 fields of a solution do repeat values where the weight is
symmetric under conjugation (r = 3, n = 257, q = z - a: 111,928 distinct
among 198,147), but sorting them costs more than the formatting it saves
(0.086 s deduped against 0.077 s whole on a 2-vCPU x86-64 VM).
"""

from __future__ import annotations

import json
import math
import numbers
import os
import reprlib
from typing import Any

import numpy as np

from .errors import ConfigurationError, ValidationError
from .grid import build_grid, is_number, make_field
from .toda import (BOUNDARY_STRATEGIES, TodaSolution, compute_v0,
                   toda_residual)
from .weight import evaluate_density, weight_from_dict

SOLUTION_SCHEMA = "toda-solution/1"

# Residual drift tolerated between a stored solution and a recomputation
# on load; anything larger means the file was edited or corrupted.
RELOAD_RESIDUAL_TOL = 1e-12


#: rows formatted per block by `write_float_rows`; bounds the Python floats
#: and text held at once while a large table is written
FLOAT_BLOCK_ROWS = 4096

#: what a run document's `reference` (thermo) and `suite` (verify) may be;
#: defined here for `_KEYS`, since thermo imports this module
REFERENCES = ("flat", "poincare")
SUITES = ("core", "smoke")


def format_float(x: float) -> str:
    """17 significant digits (0.1 -> "0.10000000000000001"), stable across
    runs and platforms; -0.0 is written "0", non-finite values as "nan",
    "inf" and "-inf"."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def format_floats(values, sep: str = ", ", end: str = "") -> str:
    """Every element of a 1-D or 2-D float array, each as `format_float`
    writes it: one `sep`-joined row per array row, each followed by `end`.

    One "%.17g" template formats the whole block in C.  It calls the same
    PyOS_double_to_string(x, 'g', 17) as format(x, ".17g"), which already
    writes nan, inf and -inf as format_float does; adding 0.0 turns -0.0
    into 0.0, the one value where the two differ.
    """
    with np.errstate(invalid="ignore"):  # a signalling NaN stays a NaN
        rows = np.atleast_2d(np.asarray(values, dtype=float)) + 0.0
    template = (sep.join(["%.17g"] * rows.shape[1]) + end) * rows.shape[0]
    return template % tuple(rows.ravel().tolist())


def write_float_rows(fh, rows) -> None:
    """Write a 2-D float array as comma-separated lines, block by block.

    Each block formats its distinct values once and places their text
    with a "%s" row template.  `np.unique` merges -0.0 with 0.0 and every
    NaN into one value; each merged group formats as its members would.
    """
    for start in range(0, len(rows), FLOAT_BLOCK_ROWS):
        block = np.atleast_2d(np.asarray(rows[start:start + FLOAT_BLOCK_ROWS],
                                         dtype=float))
        values, inverse = np.unique(block, return_inverse=True)
        # one line per distinct value; the inverse's shape varies by numpy
        texts = np.array(format_floats(values, "\n").split("\n"),
                         dtype=object)
        nrow, ncol = block.shape
        template = (",".join(["%s"] * ncol) + "\n") * nrow
        fh.write(template % tuple(texts[inverse.ravel()].tolist()))


def _emit(obj: Any, parts: list, level: int) -> None:
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isfinite(v):
            parts.append(format_float(v))
        else:
            # JSON has no inf/nan literals; encode as strings.
            parts.append(json.dumps(format_float(v)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts, level)
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            parts.append("[]")
            return
        if all(isinstance(v, float) for v in obj):
            arr = np.asarray(obj, dtype=float)
            if np.isfinite(arr).all():
                parts.append("[" + format_floats(arr) + "]")
                return
        scalars = all(not isinstance(v, (list, tuple, dict, np.ndarray))
                      for v in obj)
        if scalars:
            parts.append("[")
            for i, v in enumerate(obj):
                if i:
                    parts.append(", ")
                _emit(v, parts, level)
            parts.append("]")
        else:
            parts.append("[\n")
            for i, v in enumerate(obj):
                parts.append(pad_in)
                _emit(v, parts, level + 1)
                parts.append(",\n" if i + 1 < len(obj) else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            if not isinstance(k, str):
                raise ValidationError(f"non-string key {k!r} in JSON object")
            parts.append(pad_in + json.dumps(k, ensure_ascii=False) + ": ")
            _emit(v, parts, level + 1)
            parts.append(",\n" if i + 1 < len(items) else "\n")
        parts.append(pad + "}")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def write_csv(path: str, meta: dict, header: list, rows) -> None:
    """A CSV table: one `# key=value` line per `meta` item, the
    comma-joined `header`, then the float `rows` as `write_float_rows`
    writes them; UTF-8 with Unix newlines on every platform."""
    lines = [f"# {key}={value}" for key, value in meta.items()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines + [",".join(header)]) + "\n")
        write_float_rows(fh, rows)


def dumps_json(obj: Any) -> str:
    """Serialize with insertion-ordered keys, two-space indent and 17-digit
    floats."""
    parts: list = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def write_json(path: str, obj: Any) -> None:
    text = dumps_json(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def solution_to_dict(sol: TodaSolution) -> dict:
    return {
        "schema": SOLUTION_SCHEMA,
        "r": sol.r,
        "grid": sol.grid.to_dict(),
        "weight": sol.weight.to_dict(),
        "boundary_strategy": sol.boundary_strategy,
        "residual_sup": sol.residual_sup,
        "iterations": sol.iterations,
        "fields": {
            "w": [f.values.tolist() for f in sol.w],
            "v0": sol.v0.values.tolist(),
        },
        "exhaustion_drifts": list(sol.exhaustion_drifts),
    }


def save_solution(path: str, sol: TodaSolution) -> None:
    write_json(path, solution_to_dict(sol))


def _text(value) -> bool:
    return isinstance(value, str) and value != ""


def _integer(low):
    return lambda value: is_number(value, numbers.Integral) and value >= low


def _number_list(value) -> bool:
    return (isinstance(value, list) and len(value) > 0
            and all(map(is_number, value)))


# What each run-document key must be, checked before any solve.  The
# constructors check the rest: weight_from_dict the weight (and, once it
# builds, each t_values amplitude), build_grid and SolverConfig the values
# in the grid and solver objects and _check_beta each beta.
_KEYS = {
    "grid": ("an object with keys mode, n and rho_max",
             lambda value: isinstance(value, dict)
             and value.keys() == {"mode", "n", "rho_max"}),
    "solver": ("an object with keys among tolerance, max_iterations and "
               "boundary",
               lambda value: isinstance(value, dict) and value.keys()
               <= {"tolerance", "max_iterations", "boundary"}),
    "beta": ("a nonempty list of finite numbers", _number_list),
    "t_values": ("a nonempty list of positive finite numbers",
                 lambda value: _number_list(value) and min(value) > 0),
    "reference": (f"one of {REFERENCES}", REFERENCES.__contains__),
    "suite": (f"one of {SUITES}", SUITES.__contains__),
    "out": ("a nonempty string", _text),
    "solution": ("a nonempty string", _text),
    "column": ("a nonempty string", _text),
    "jobs": ("an integer >= 1", _integer(1)),
    "seed": ("an integer >= 0", _integer(0)),
    "r": ("an integer >= 2", _integer(2)),
}

# What each solution-document key must be; every key but exhaustion_drifts
# is required.  build_grid and weight_from_dict check the values in the
# grid and weight objects, solution_from_dict the fields.
_SOLUTION_KEYS = {
    "schema": (repr(SOLUTION_SCHEMA), lambda value: value == SOLUTION_SCHEMA),
    "r": _KEYS["r"],
    "grid": _KEYS["grid"],
    "weight": ("an object", lambda value: isinstance(value, dict)),
    "boundary_strategy": (f"one of {BOUNDARY_STRATEGIES}",
                          BOUNDARY_STRATEGIES.__contains__),
    "residual_sup": ("a finite number", is_number),
    "iterations": ("an integer >= 0", _integer(0)),
    "fields": ("an object with lists w and v0",
               lambda value: isinstance(value, dict)
               and value.keys() == {"w", "v0"}
               and all(isinstance(vals, list) for vals in value.values())),
    "exhaustion_drifts": ("a list of finite numbers",
                          lambda value: isinstance(value, list)
                          and all(map(is_number, value))),
}


def _checked(doc: dict, table: dict) -> dict:
    """`doc`, once each key of `table` that it holds is what the table
    says; the first that is not is a ConfigurationError at /key."""
    for key, (what, ok) in table.items():
        if key in doc and not ok(doc[key]):
            raise ConfigurationError(
                f"{key} must be {what}, got {reprlib.repr(doc[key])}",
                pointer=f"/{key}")
    return doc


def _built(key: str, make, *args, **kwargs):
    """make(*args, **kwargs); the pointer of a ConfigurationError it raises
    gains the prefix /key, so a rejected member n of the grid is at
    /grid/n and a rejected grid as a whole at /grid."""
    try:
        return make(*args, **kwargs)
    except ConfigurationError as exc:
        exc.pointer = f"/{key}{exc.pointer}"
        raise


def _require_file(path: str, pointer: str) -> None:
    if not os.path.exists(path):
        raise ConfigurationError(f"no such file {path!r}", pointer=pointer)


def _json_object(source: str, pointer: str = "", inline: bool = False) -> dict:
    """The JSON object in the file `source`, or in the text `source` itself
    when `inline`; a missing file, invalid JSON or any other JSON value is
    a ConfigurationError at `pointer`."""
    text = source
    if not inline:
        _require_file(source, pointer)
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON ({exc})",
                                 pointer=pointer) from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("expected a JSON object", pointer=pointer)
    return doc


def solution_from_dict(doc: dict) -> TodaSolution:
    """Validate a solution document and rebuild the solution.

    The stored v0 and residual_sup are recomputed from the stored fields,
    and a drift beyond RELOAD_RESIDUAL_TOL in either is an input error.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("solution document must be an object")
    for key in _SOLUTION_KEYS:
        if key not in doc and key != "exhaustion_drifts":
            raise ConfigurationError(f"missing key {key!r}",
                                     pointer=f"/{key}")
    r = _checked(doc, _SOLUTION_KEYS)["r"]
    grid = _built("grid", build_grid, **doc["grid"])
    weight = _built("weight", weight_from_dict, doc["weight"])
    if weight.r != r:
        raise ConfigurationError(
            f"weight rank {weight.r} != solution rank {r}",
            pointer="/weight/r")
    wlists, v0list = doc["fields"]["w"], doc["fields"]["v0"]
    if len(wlists) != r - 1:
        raise ConfigurationError(
            f"expected {r - 1} w components, got {len(wlists)}",
            pointer="/fields/w")
    for vals in (*wlists, v0list):
        # numpy would read "0.5" as 0.5 and true as 1; a set of the entry
        # types is built in C, fast enough for the fields of a large grid
        if not (isinstance(vals, list) and set(map(type, vals)) <= {float, int}):
            raise ConfigurationError("field entries must be numbers",
                                     pointer="/fields")
    try:
        w = tuple(make_field(grid, np.asarray(vals, dtype=float))
                  for vals in wlists)
        v0 = make_field(grid, np.asarray(v0list, dtype=float))
    except (ConfigurationError, ValidationError, OverflowError) as exc:
        # a wrong length, a NaN literal, or an int too large for a float
        raise ConfigurationError(f"bad field data: {exc}",
                                 pointer="/fields") from exc
    sol = TodaSolution(
        grid=grid, weight=weight, r=r, w=w, v0=v0,
        residual_sup=float(doc["residual_sup"]),
        iterations=int(doc["iterations"]),
        boundary_strategy=doc["boundary_strategy"], residual_history=(),
        exhaustion_drifts=tuple(doc.get("exhaustion_drifts", ())))
    qf = _built("weight", evaluate_density, weight, grid)
    expected_v0 = compute_v0(np.stack([f.values for f in w]), qf.values)
    drift = float(np.max(np.abs(expected_v0 - v0.values)))
    if drift > RELOAD_RESIDUAL_TOL:
        raise ConfigurationError(
            f"stored v0 deviates from recomputation by {drift:.3e}",
            pointer="/fields/v0")
    res = toda_residual(sol.w, qf)
    sup = max(float(np.abs(f.values).max()) for f in res)
    if abs(sup - sol.residual_sup) > RELOAD_RESIDUAL_TOL:
        raise ConfigurationError(
            f"stored residual_sup {sol.residual_sup:.17g} disagrees with "
            f"recomputed {sup:.17g}", pointer="/residual_sup")
    return sol


def load_solution(path: str) -> TodaSolution:
    """The solution stored in the file `path`; a missing file, invalid JSON
    or a rejected value is a ConfigurationError at its pointer there."""
    return solution_from_dict(_json_object(path))
