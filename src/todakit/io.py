"""Deterministic serialization for solutions and derived tables.

All floats are written with 17 significant digits so that a save/load
round trip reproduces every array bit for bit and reruns of the same
computation yield byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .errors import SchemaError, ValidationError
from .grid import build_grid, make_field
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
    """Write a 2-D float array as comma-separated lines, block by block."""
    for start in range(0, len(rows), FLOAT_BLOCK_ROWS):
        block = rows[start:start + FLOAT_BLOCK_ROWS]
        fh.write(format_floats(block, ",", "\n"))


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


def _pointer_get(doc: dict, key: str, pointer: str, typ=None):
    if key not in doc:
        raise SchemaError(f"missing key {key!r}", pointer=pointer)
    val = doc[key]
    # JSON true/false load as bool, a subclass of int: never a number here
    if typ is not None and (not isinstance(val, typ)
                            or (isinstance(val, bool) and typ is not bool)):
        raise SchemaError(
            f"expected {getattr(typ, '__name__', typ)} at {key!r}, "
            f"got {type(val).__name__}", pointer=pointer)
    return val


def solution_from_dict(doc: dict) -> TodaSolution:
    """Validate a solution document and rebuild the solution.

    The stored v0 and residual_sup are recomputed from the stored fields,
    and a drift beyond RELOAD_RESIDUAL_TOL in either is a SchemaError.
    """
    if not isinstance(doc, dict):
        raise SchemaError("solution document must be an object", pointer="")
    schema = _pointer_get(doc, "schema", "/schema", str)
    if schema != SOLUTION_SCHEMA:
        raise SchemaError(f"unsupported schema {schema!r}", pointer="/schema")
    r = _pointer_get(doc, "r", "/r", int)
    gdoc = _pointer_get(doc, "grid", "/grid", dict)
    try:
        grid = build_grid(gdoc["mode"], int(gdoc["n"]), float(gdoc["rho_max"]))
    except KeyError as exc:
        raise SchemaError(f"missing grid key {exc}", pointer="/grid") from exc
    except Exception as exc:
        raise SchemaError(f"bad grid: {exc}", pointer="/grid") from exc
    wdoc = _pointer_get(doc, "weight", "/weight", dict)
    try:
        weight = weight_from_dict(wdoc)
    except Exception as exc:
        raise SchemaError(f"bad weight: {exc}", pointer="/weight") from exc
    if weight.r != r:
        raise SchemaError(f"weight rank {weight.r} != solution rank {r}",
                          pointer="/weight/r")
    fields = _pointer_get(doc, "fields", "/fields", dict)
    wlists = _pointer_get(fields, "w", "/fields/w", list)
    if len(wlists) != r - 1:
        raise SchemaError(f"expected {r - 1} w components, got {len(wlists)}",
                          pointer="/fields/w")
    try:
        w = tuple(make_field(grid, np.asarray(vals, dtype=float))
                  for vals in wlists)
        v0 = make_field(grid, np.asarray(
            _pointer_get(fields, "v0", "/fields/v0", list), dtype=float))
    except Exception as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"bad field data: {exc}", pointer="/fields") from exc
    iterations = _pointer_get(doc, "iterations", "/iterations", int)
    if iterations < 0:
        raise SchemaError(f"iterations must be >= 0, got {iterations}",
                          pointer="/iterations")
    strategy = _pointer_get(doc, "boundary_strategy", "/boundary_strategy",
                            str)
    if strategy not in BOUNDARY_STRATEGIES:
        raise SchemaError(
            f"boundary_strategy must be one of {BOUNDARY_STRATEGIES}, "
            f"got {strategy!r}", pointer="/boundary_strategy")
    drifts = doc.get("exhaustion_drifts", [])
    if not (isinstance(drifts, list) and all(
            isinstance(d, (int, float)) and not isinstance(d, bool)
            and math.isfinite(d) for d in drifts)):
        raise SchemaError("exhaustion_drifts must be a list of finite numbers",
                          pointer="/exhaustion_drifts")
    sol = TodaSolution(
        grid=grid,
        weight=weight,
        r=r,
        w=w,
        v0=v0,
        residual_sup=float(_pointer_get(doc, "residual_sup", "/residual_sup",
                                        (int, float))),
        iterations=int(iterations),
        boundary_strategy=strategy,
        residual_history=(),
        exhaustion_drifts=tuple(drifts),
    )
    qf = evaluate_density(weight, grid)
    expected_v0 = compute_v0(np.stack([f.values for f in w]), qf.values)
    drift = float(np.max(np.abs(expected_v0 - v0.values)))
    if drift > RELOAD_RESIDUAL_TOL:
        raise SchemaError(
            f"stored v0 deviates from recomputation by {drift:.3e}",
            pointer="/fields/v0")
    res = toda_residual(sol.w, qf)
    sup = max(float(np.abs(f.values).max()) for f in res)
    if abs(sup - sol.residual_sup) > RELOAD_RESIDUAL_TOL:
        raise SchemaError(
            f"stored residual_sup {sol.residual_sup:.17g} disagrees with "
            f"recomputed {sup:.17g}", pointer="/residual_sup")
    return sol


def load_solution(path: str) -> TodaSolution:
    if not os.path.exists(path):
        raise ValidationError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", pointer="") from exc
    return solution_from_dict(doc)
