"""Static SVG emission for profiles, sweeps, and fields.

Charts are assembled as plain strings with fixed-precision coordinates
and no timestamps or generator marks, so the same input always yields a
byte-identical file.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import ConfigurationError, ValidationError

log = logging.getLogger(__name__)

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 18, 34, 48
#: maximum heatmap cells per axis; larger fields are strided down
HEATMAP_MAX_CELLS = 65

PALETTE = ("#1b1b1b", "#b03030", "#3060b0", "#2f8f2f", "#8f4f8f", "#8f7f20")


def _num(x: float) -> str:
    return format(float(x), ".6g")


def _range(vals: np.ndarray) -> tuple:
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("plot data contains non-finite values")
    if hi == lo:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float) -> list:
    return [lo + (hi - lo) * k / 4 for k in range(5)]


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def render_line_chart(xs, series, title: str = "", xlabel: str = "",
                      ylabel: str = "") -> str:
    """Polyline chart; `series` is an ordered list of (label, values)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ConfigurationError("line chart needs at least two x values")
    if not series:
        raise ConfigurationError("line chart needs at least one series")
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    x0, x1 = _range(xs)
    y0, y1 = _range(ys_all)
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * iw

    def py(y):
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * ih

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>']
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="20" font-family="monospace" '
                   f'font-size="14" text-anchor="middle">{_esc(title)}</text>')
    axis = (f'M {_num(MARGIN_L)} {_num(MARGIN_T)} '
            f'L {_num(MARGIN_L)} {_num(HEIGHT - MARGIN_B)} '
            f'L {_num(WIDTH - MARGIN_R)} {_num(HEIGHT - MARGIN_B)}')
    out.append(f'<path d="{axis}" fill="none" stroke="#333333"/>')
    for tx in _ticks(x0, x1):
        x = px(tx)
        out.append(f'<line x1="{_num(x)}" y1="{_num(HEIGHT - MARGIN_B)}" '
                   f'x2="{_num(x)}" y2="{_num(HEIGHT - MARGIN_B + 5)}" '
                   f'stroke="#333333"/>')
        out.append(f'<text x="{_num(x)}" y="{HEIGHT - MARGIN_B + 18}" '
                   f'font-family="monospace" font-size="11" '
                   f'text-anchor="middle">{_num(tx)}</text>')
    for ty in _ticks(y0, y1):
        y = py(ty)
        out.append(f'<line x1="{_num(MARGIN_L - 5)}" y1="{_num(y)}" '
                   f'x2="{_num(MARGIN_L)}" y2="{_num(y)}" stroke="#333333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_num(y + 4)}" '
                   f'font-family="monospace" font-size="11" '
                   f'text-anchor="end">{_num(ty)}</text>')
    if xlabel:
        out.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" '
                   f'font-family="monospace" font-size="12" '
                   f'text-anchor="middle">{_esc(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{HEIGHT // 2}" font-family="monospace" '
                   f'font-size="12" text-anchor="middle" '
                   f'transform="rotate(-90 16 {HEIGHT // 2})">'
                   f'{_esc(ylabel)}</text>')
    for k, (label, ys) in enumerate(series):
        ys = np.asarray(ys, dtype=float)
        if ys.shape != xs.shape:
            raise ConfigurationError(
                f"series {label!r} length {ys.size} != x length {xs.size}")
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{_num(px(x))},{_num(py(y))}"
                       for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 16 * k
        lx = WIDTH - MARGIN_R - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="monospace" '
                   f'font-size="11">{_esc(str(label))}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_heatmap(values: np.ndarray, extent, title: str = "") -> str:
    """Grayscale cell map of a 2-D array; larger values plot darker.

    `extent` is (xmin, xmax, ymin, ymax).  Arrays wider than
    HEATMAP_MAX_CELLS per axis are strided down.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ConfigurationError(
            f"heatmap needs a 2-d array, got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.any():
        raise ValidationError("heatmap data is entirely non-finite")
    stride = max(1, math.ceil(max(values.shape) / HEATMAP_MAX_CELLS))
    sub = values[::stride, ::stride]
    fsub = np.isfinite(sub)
    lo = float(values[finite].min())
    hi = float(values[finite].max())
    span = hi - lo if hi > lo else 1.0
    xmin, xmax, ymin, ymax = (float(v) for v in extent)
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B
    ny, nx = sub.shape
    cw = iw / nx
    ch = ih / ny
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>']
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="20" font-family="monospace" '
                   f'font-size="14" text-anchor="middle">{_esc(title)}</text>')
    for iy in range(ny):
        for ix in range(nx):
            if not fsub[iy, ix]:
                continue
            level = (sub[iy, ix] - lo) / span
            shade = int(round(255 - 215 * level))
            x = MARGIN_L + ix * cw
            # row 0 holds the smallest y; flip so y grows upward
            y = MARGIN_T + (ny - 1 - iy) * ch
            out.append(f'<rect x="{_num(x)}" y="{_num(y)}" '
                       f'width="{_num(cw + 0.5)}" height="{_num(ch + 0.5)}" '
                       f'fill="rgb({shade},{shade},{shade})"/>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{_num(iw)}" '
               f'height="{_num(ih)}" fill="none" stroke="#333333"/>')
    for frac, val in ((0.0, xmin), (1.0, xmax)):
        x = MARGIN_L + frac * iw
        out.append(f'<text x="{_num(x)}" y="{HEIGHT - MARGIN_B + 18}" '
                   f'font-family="monospace" font-size="11" '
                   f'text-anchor="middle">{_num(val)}</text>')
    for frac, val in ((0.0, ymin), (1.0, ymax)):
        y = HEIGHT - MARGIN_B - frac * ih
        out.append(f'<text x="{MARGIN_L - 8}" y="{_num(y + 4)}" '
                   f'font-family="monospace" font-size="11" '
                   f'text-anchor="end">{_num(val)}</text>')
    out.append(f'<text x="{WIDTH - MARGIN_R}" y="{HEIGHT - 10}" '
               f'font-family="monospace" font-size="11" text-anchor="end">'
               f'range [{_num(lo)}, {_num(hi)}]</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# CSV-driven entry point


def read_csv(path: str) -> tuple:
    """Parse a '#'-annotated CSV into (metadata dict, column dict).

    The first line that is neither blank nor a '#' comment is the header.
    Data fields are parsed in bulk by numpy's C float parser, so a field is
    accepted exactly when `np.loadtxt` accepts it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in map(str.strip, fh) if ln]
    meta: dict = {}
    for body in (ln[1:].strip() for ln in lines if ln[0] == "#"):
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
    table = [ln for ln in lines if ln[0] != "#"]
    if len(table) < 2:
        raise ValidationError(f"{path}: no tabular data found")
    header = [c.strip() for c in table[0].split(",")]
    rows = table[1:]
    bad = next((ln for ln in rows if ln.count(",") + 1 != len(header)), None)
    if bad is not None:
        raise ValidationError(
            f"{path}: row {bad!r} has {bad.count(',') + 1} fields, header "
            f"has {len(header)}")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # numpy counts rows from the first data line, not the file's first
        raise ValidationError(f"{path}: bad data row ({exc})") from exc
    return meta, {name: data[:, k] for k, name in enumerate(header)}


def plot_csv(in_path: str, out_path: str, column: str | None = None) -> str:
    """Dispatch on the CSV layout and write an SVG; returns the kind drawn.

    Radial profiles and sweeps become polyline charts; cartesian node
    tables become grayscale heatmaps of one column.
    """
    meta, cols = read_csv(in_path)
    names = list(cols)
    if names[0] == "rho":
        wanted = [column] if column else [c for c in ("S", "F", "R")
                                          if c in cols]
        _require(wanted, cols, in_path)
        svg = render_line_chart(
            cols["rho"], [(c, cols[c]) for c in wanted],
            title=meta.get("weight", ""), xlabel="rho",
            ylabel=",".join(wanted))
        kind = "radial profile"
    elif names[0] == "t":
        pick = column or "lower_redundancy"
        _require([pick], cols, in_path)
        betas = sorted(set(cols["beta"])) if "beta" in cols else [None]
        series = []
        ts = None
        for b in betas:
            if b is None:
                sel = np.ones(cols["t"].size, dtype=bool)
                label = pick
            else:
                sel = cols["beta"] == b
                label = f"{pick} beta={b:g}"
            order = np.argsort(cols["t"][sel], kind="stable")
            ts = cols["t"][sel][order]
            series.append((label, cols[pick][sel][order]))
        svg = render_line_chart(ts, series, title=meta.get("weight", ""),
                                xlabel="t", ylabel=pick)
        kind = "sweep"
    elif names[:2] == ["x", "y"]:
        pick = column or "S"
        _require([pick], cols, in_path)
        x, y, v = cols["x"], cols["y"], cols[pick]
        n = int(round(math.sqrt(x.size)))
        if n * n != x.size:
            raise ValidationError(
                f"{in_path}: {x.size} rows do not form a square grid")
        svg = render_heatmap(v.reshape(n, n),
                             (x.min(), x.max(), y.min(), y.max()),
                             title=f"{pick}  {meta.get('weight', '')}".strip())
        kind = "field heatmap"
    else:
        raise ValidationError(
            f"{in_path}: unrecognized layout (columns {names[:3]}...)")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    log.info("wrote %s plot %s", kind, out_path)
    return kind


def _require(wanted, cols, path):
    missing = [c for c in wanted if c not in cols]
    if missing:
        raise ConfigurationError(
            f"{path}: column(s) {missing} not present; available "
            f"{sorted(cols)}")
