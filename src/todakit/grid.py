"""Planar grids and stencil operators.

Two modes are supported.  A cartesian grid covers the square
[-rho_max, rho_max]^2 with n nodes per axis (row-major node order, spacing
h = 2*rho_max/(n-1), the axis exactly antisymmetric about 0) and interprets the inscribed disc as the computational
domain: a node is interior iff |z| < rho_max - h/2, every other node (the cut
cells along the circle included) is boundary.  A radial grid holds n nodes at
rho = 0, h, ..., rho_max with h = rho_max/(n-1); only the outermost node is
boundary, the axis node is handled through the symmetric limit of the radial
Laplacian.

The Laplacian is the plain five-point stencil in cartesian mode and
w'' + w'/rho in radial mode, with 2*w''(0) -> 4*(w[1]-w[0])/h^2 at the axis.
Both are exact on quadratics and second order on smooth fields.  The stencil
is defined once, in `laplacian_operator`, as sparse rows at a set of active
nodes, which the Toda solver and `verify` apply.
"""

from __future__ import annotations

import cmath
import logging
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ConfigurationError, ValidationError

log = logging.getLogger(__name__)

MODES = ("cartesian", "radial")

# The most nodes build_grid accepts: cartesian n = 1025, one refinement past
# the largest grids in use (cartesian n = 513, radial n = 8193), so a grid's
# arrays stay under 9 MB each and a huge n fails at /n, not in np.arange.
MAX_NODES = 1025 * 1025


@dataclass(frozen=True)
class Grid:
    mode: str
    n: int
    rho_max: float
    h: float
    x: np.ndarray        # cartesian: node x; radial: node radius
    y: np.ndarray | None  # cartesian only
    r2: np.ndarray       # |z|^2 per node
    interior: np.ndarray  # bool mask
    boundary: np.ndarray  # bool mask

    @property
    def nodes(self) -> int:
        return self.r2.shape[0]

    def key(self) -> tuple:
        return (self.mode, self.n, self.rho_max)

    def to_dict(self) -> dict:
        return {"mode": self.mode, "n": self.n, "rho_max": self.rho_max}


@dataclass(frozen=True)
class Field:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.nodes,):
            raise ConfigurationError(
                f"field has shape {vals.shape}, grid {self.grid.key()} has "
                f"{self.grid.nodes} nodes"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def make_field(grid: Grid, values) -> Field:
    """Wrap node values as a Field, rejecting non-finite entries."""
    field = Field(grid, values)
    if not np.all(np.isfinite(field.values)):
        bad = int(np.flatnonzero(~np.isfinite(field.values))[0])
        raise ValidationError(f"field value at node {bad} is not finite")
    return field


def is_number(value, kind=numbers.Real) -> bool:
    """Whether `value` is a finite number of `kind` that a float (a complex
    for kind Complex) holds, numpy scalars included; not a bool (JSON
    true/false, a subclass of int), a str such as "0.9", nan, inf or an
    integer too large for a float."""
    try:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and cmath.isfinite(value))
    except OverflowError:
        return False


def build_grid(mode: str, n: int, rho_max: float) -> Grid:
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}",
                                 pointer="/mode")
    if not is_number(n, numbers.Integral):
        raise ConfigurationError(f"n must be an integer, got {n!r}",
                                 pointer="/n")
    if n < 8:
        raise ConfigurationError(f"n must be at least 8, got {n}",
                                 pointer="/n")
    if (n * n if mode == "cartesian" else n) > MAX_NODES:
        raise ConfigurationError(
            f"n = {n} gives more than {MAX_NODES} {mode} grid nodes",
            pointer="/n")
    if not (is_number(rho_max) and rho_max > 0.0):
        raise ConfigurationError(
            f"rho_max must be positive and finite, got {rho_max!r}",
            pointer="/rho_max")
    rho_max = float(rho_max)

    if mode == "cartesian":
        h = 2.0 * rho_max / (n - 1)
        # node i at rho_max (2i - (n-1)) / (n-1): exactly antisymmetric,
        # axis[n-1-i] == -axis[i] bit for bit, with exact endpoints, so a
        # density with real coefficients is exactly mirror-symmetric in y
        axis = rho_max * (np.arange(1 - n, n, 2) / (n - 1))
        xg, yg = np.meshgrid(axis, axis, indexing="xy")  # rows vary in y
        x = xg.ravel()
        y = yg.ravel()
        r2 = x * x + y * y
        cut = rho_max - 0.5 * h
        interior = r2 < cut * cut
    else:
        h = rho_max / (n - 1)
        x = h * np.arange(n)
        y = None
        r2 = x * x
        interior = np.arange(n) < n - 1

    boundary = ~interior
    for arr in (x, r2, interior, boundary) + (() if y is None else (y,)):
        arr.setflags(write=False)
    grid = Grid(mode=mode, n=int(n), rho_max=rho_max, h=h, x=x, y=y, r2=r2,
                interior=interior, boundary=boundary)
    log.debug("built %s grid n=%d rho_max=%g h=%g interior=%d",
              mode, n, rho_max, h, int(interior.sum()))
    return grid


def check_same_grid(grid: Grid, field: Field) -> None:
    if field.grid.key() != grid.key():
        raise ConfigurationError(
            f"field lives on grid {field.grid.key()}, expected {grid.key()}"
        )


def laplacian_operator(grid: Grid, active: np.ndarray) -> csr_matrix:
    """Discrete Laplacian rows at the active nodes, shape (k, nodes).

    Row i is the stencil of the i-th active node; columns index every grid
    node, so Dirichlet neighbours are the columns outside the active set.
    Active nodes must be interior, which keeps every stencil on the grid.
    """
    active = np.asarray(active, dtype=bool)
    if (active & grid.boundary).any():
        raise ConfigurationError("laplacian rows exist at interior nodes only")
    idx = np.flatnonzero(active)
    h2 = grid.h * grid.h
    if grid.mode == "cartesian":
        offsets = np.array([-grid.n, -1, 0, 1, grid.n])
        data = np.tile(np.array([1.0, 1.0, -4.0, 1.0, 1.0]) / h2, len(idx))
        skip = 0
    else:
        offsets = np.array([-1, 0, 1])
        with np.errstate(divide="ignore"):
            drift = 0.5 / (grid.h * grid.x[idx])
        data = np.column_stack([1.0 / h2 - drift, np.full(len(idx), -2.0 / h2),
                                1.0 / h2 + drift]).ravel()
        # lim rho->0 of w'' + w'/rho is 4*(w[1]-w[0])/h^2; the axis node is
        # row 0 when active and its first entry, the missing left
        # neighbour, is dropped
        skip = int(active[0])
        if skip:
            data[1:3] = (-4.0 / h2, 4.0 / h2)
    cols = (idx[:, None] + offsets).ravel()
    indptr = len(offsets) * np.arange(len(idx) + 1) - skip
    indptr[0] = 0
    return csr_matrix((data[skip:], cols[skip:], indptr),
                      shape=(len(idx), grid.nodes))


def inner_mask(grid: Grid, margin: float) -> np.ndarray:
    """Interior nodes at least `margin` inside the domain radius.

    Used to measure errors on a region that stays fixed under refinement:
    pass margin = 3*h of the coarsest grid in a refinement study.
    """
    if margin < 0:
        raise ConfigurationError(f"margin must be nonnegative, got {margin}")
    cut = grid.rho_max - margin
    if cut <= 0:
        raise ConfigurationError(f"margin {margin} swallows the whole domain")
    return grid.interior & (grid.r2 <= cut * cut)


def worst_node(grid: Grid, values: np.ndarray, mask: np.ndarray) -> dict:
    """Coordinates and value of the masked node minimizing `values`."""
    idx = np.flatnonzero(mask)
    k = int(idx[np.argmin(values[idx])])
    if grid.mode == "cartesian":
        where = {"node": k, "x": float(grid.x[k]), "y": float(grid.y[k])}
    else:
        where = {"node": k, "rho": float(grid.x[k])}
    where["value"] = float(values[k])
    return where
