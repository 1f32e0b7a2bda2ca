"""Damped-Newton solver for the cyclic Toda system on a planar grid.

Unknowns are the log-densities w_1..w_{r-1} of the diagonal metrics against
the flat frame.  In that gauge the field equations at interior nodes read

    N_j(w) = (1/4) * Lap(w_j) - (2 e^{w_j} - e^{w_{j-1}} - e^{w_{j+1}}) = 0

with the wrap-around slot e^{w_0} = e^{w_r} = V_0 = Q * exp(-sum_k w_k).
The sign convention is pinned by the degenerate case Q = 0, r = 2, where the
system collapses to Lap(w_1) = 8 e^{w_1} and admits the blow-up solution
w_1 = -2 log(1 - |z|^2); for general rank w_j = log(lambda_j) - 2 log(1-|z|^2)
with lambda_j = j*(r-j) solves the degenerate system exactly.

Boundary strategies:
    model_poincare  Dirichlet data from the degenerate closed form (|z| < 1)
    weight_flat     Dirichlet data w_j = (1/r) log Q (requires Q > 0 on the ring)
    exhaustion      nested subdisc solves with model data, warm-started, with
                    the interior drift between stages reported as a
                    completeness diagnostic

Newton steps solve the exact Jacobian system with a sparse direct
factorization (grids up to n = 257; diagonally preconditioned BiCGStab
above), damped by Armijo backtracking on the residual sup-norm.  If the
iteration stalls, the weight amplitude is ramped in t^2 (continuation) and
each stage warm-starts the next.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import bicgstab, spsolve

from .errors import (
    ConfigurationError,
    ConvergenceError,
    InternalError,
    ShapeError,
    StrategyError,
    ValidationError,
)
from .grid import Field, Grid, check_same_grid, laplacian_operator
from .weight import WeightDensity, evaluate_density, lambda_coefficients, scale_weight

log = logging.getLogger(__name__)

BOUNDARY_STRATEGIES = ("model_poincare", "weight_flat", "exhaustion")
INITIAL_STRATEGIES = ("auto", "model", "flat", "provided")

# largest grid still sent to the sparse direct factorization
DIRECT_SOLVE_MAX_N = 257

_ARMIJO_SLOPE = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10
    max_iterations: int = 50
    armijo_factor: float = 0.5
    max_halvings: int = 20
    continuation_steps: int = 3
    boundary: str = "model_poincare"
    initial: str = "auto"
    provided_w: tuple | None = None

    def validated(self) -> "SolverConfig":
        if self.boundary not in BOUNDARY_STRATEGIES:
            raise ConfigurationError(
                f"boundary must be one of {BOUNDARY_STRATEGIES}, got {self.boundary!r}")
        if self.initial not in INITIAL_STRATEGIES:
            raise ConfigurationError(
                f"initial must be one of {INITIAL_STRATEGIES}, got {self.initial!r}")
        if not (0.0 < self.tolerance < 1.0):
            raise ConfigurationError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.armijo_factor < 1.0):
            raise ConfigurationError(
                f"armijo_factor must be in (0, 1), got {self.armijo_factor}")
        if self.max_halvings < 0 or self.continuation_steps < 0:
            raise ConfigurationError("max_halvings and continuation_steps must be >= 0")
        return self


@dataclass(frozen=True)
class TodaSolution:
    grid: Grid
    weight: WeightDensity
    r: int
    w: tuple          # r-1 Fields, log-densities
    v0: Field         # Q * exp(-sum w), zero exactly where Q vanishes
    residual_sup: float
    iterations: int
    boundary_strategy: str
    residual_history: tuple
    exhaustion_drifts: tuple = ()

    def w_array(self) -> np.ndarray:
        return np.stack([f.values for f in self.w])


class _Stall(Exception):
    pass


# ---------------------------------------------------------------------------
# closed-form profiles


def model_profile(grid: Grid, what: str) -> np.ndarray:
    """Blow-up profile u = -2 log(1 - |z|^2) of the degenerate system.

    Nodes at |z| >= 1 (square corners outside the unit disc, never read by
    any interior stencil) are set to zero to keep the arrays finite.  The
    profile needs rho_max < 1; `what` names the caller in the error.
    """
    if grid.rho_max >= 1.0:
        raise ConfigurationError(
            f"{what} needs rho_max < 1, grid has rho_max={grid.rho_max}")
    inside = grid.r2 < 1.0
    u = np.zeros(grid.nodes)
    u[inside] = -2.0 * np.log1p(-grid.r2[inside])
    return u


def model_log_densities(grid: Grid, r: int) -> np.ndarray:
    """Degenerate-case solution w_j = log(lambda_j) - 2 log(1 - |z|^2).

    Rows j = 1..r-1; nodes at |z| >= 1 hold zero, as in `model_profile`.
    """
    w = np.log(lambda_coefficients(r))[:, None] + \
        model_profile(grid, "model profile")[None, :]
    w[:, grid.r2 >= 1.0] = 0.0
    return w


def compute_v0(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """V_0 = Q * exp(-sum_j w_j); exactly zero wherever Q is zero."""
    return q * np.exp(-w.sum(axis=0))


# ---------------------------------------------------------------------------
# residual and Jacobian on an active node set


class _System:
    """Residual and Jacobian for one (grid, r, active-mask) triple.

    `lap` is (1/4) times `grid.laplacian_operator` at the active nodes, the
    package's one stencil: the residual applies it to whole fields, so its
    columns outside the active set carry the Dirichlet data, and the
    Jacobian's Laplacian block is its restriction to the active columns.
    """

    def __init__(self, grid: Grid, r: int, active: np.ndarray):
        self.grid = grid
        self.r = r
        self.m = r - 1
        self.active = active
        self.idx = np.flatnonzero(active)
        self.k = len(self.idx)
        if self.k == 0:
            raise ConfigurationError("active node set is empty")
        self.lap = 0.25 * laplacian_operator(grid, active)

    def residual(self, w: np.ndarray, q: np.ndarray) -> np.ndarray:
        """N_j at active nodes, shape (m, k)."""
        lap = (self.lap @ w.T).T
        e = np.exp(w[:, self.idx])
        v0 = q[self.idx] * np.exp(-w[:, self.idx].sum(axis=0))
        low = np.vstack([v0[None, :], e[:-1]])   # e^{w_{j-1}}
        high = np.vstack([e[1:], v0[None, :]])   # e^{w_{j+1}}
        return lap - (2.0 * e - low - high)

    def jacobian(self, w: np.ndarray, q: np.ndarray) -> csr_matrix:
        m, k = self.m, self.k
        e = np.exp(w[:, self.idx])
        v0 = q[self.idx] * np.exp(-w[:, self.idx].sum(axis=0))
        blocks = np.zeros((m, m, k))
        for a in range(m):
            blocks[a, a] = -2.0 * e[a]
        for a in range(1, m):
            blocks[a, a - 1] += e[a - 1]
        for a in range(m - 1):
            blocks[a, a + 1] += e[a + 1]
        # dV0/dw_b = -V0 for every b; V0 appears in the first and last equation
        blocks[0] += -v0
        blocks[m - 1] += -v0
        # the Laplacian block repeats down the diagonal; pointwise entry
        # (a, b) at node i sits at row a*k+i, column b*k+i
        lap = self.lap[:, self.idx].tocoo()
        shift = k * np.arange(m)
        node = np.arange(k)
        rows = np.concatenate([
            (shift[:, None] + lap.row).ravel(),
            np.broadcast_to(shift[:, None, None] + node, (m, m, k)).ravel()])
        cols = np.concatenate([
            (shift[:, None] + lap.col).ravel(),
            np.broadcast_to(shift[None, :, None] + node, (m, m, k)).ravel()])
        data = np.concatenate([np.tile(lap.data, m), blocks.ravel()])
        j = coo_matrix((data, (rows, cols)), shape=(m * k, m * k))
        return j.tocsr()


def _as_weight_field(grid: Grid, weight) -> Field:
    if isinstance(weight, WeightDensity):
        return evaluate_density(weight, grid)
    if isinstance(weight, Field):
        check_same_grid(grid, weight)
        return weight
    raise ConfigurationError(
        f"weight must be a WeightDensity or a Field, got {type(weight).__name__}")


def toda_residual(w_fields, weight) -> list:
    """Residual fields N_1..N_{r-1}; zero at boundary nodes by convention."""
    if len(w_fields) < 1:
        raise ConfigurationError("need at least one field (r >= 2)")
    grid = w_fields[0].grid
    for f in w_fields:
        check_same_grid(grid, f)
    w = np.stack([f.values for f in w_fields])
    if not np.all(np.isfinite(w)):
        raise ValidationError("log-density fields contain non-finite values")
    qf = _as_weight_field(grid, weight)
    sys = _System(grid, len(w_fields) + 1, grid.interior)
    n_active = sys.residual(w, qf.values)
    out = []
    for a in range(sys.m):
        vals = np.zeros(grid.nodes)
        vals[sys.idx] = n_active[a]
        out.append(Field(grid, vals))
    return out


def toda_jacobian(w_fields, weight):
    """Exact Jacobian of the interior residual as a sparse CSR matrix.

    Returns (matrix, interior_index): unknowns are stacked field-major, the
    value of field j at interior node interior_index[i] sits at j*len(...)+i.
    """
    grid = w_fields[0].grid
    for f in w_fields:
        check_same_grid(grid, f)
    w = np.stack([f.values for f in w_fields])
    qf = _as_weight_field(grid, weight)
    sys = _System(grid, len(w_fields) + 1, grid.interior)
    return sys.jacobian(w, qf.values), sys.idx.copy()


# ---------------------------------------------------------------------------
# boundary data and initial guesses


def _active_ring(sys: _System) -> np.ndarray:
    """Boundary nodes read by some active stencil: the operator's Dirichlet
    columns."""
    ring = np.zeros(sys.grid.nodes, dtype=bool)
    ring[sys.lap.indices] = True
    ring[sys.idx] = False
    return ring


def _fill_boundary(sys: _System, q: np.ndarray, strategy: str,
                   w: np.ndarray) -> None:
    grid, r = sys.grid, sys.r
    if strategy in ("model_poincare", "exhaustion"):
        if grid.rho_max >= 1.0:
            raise ConfigurationError(
                f"{strategy} boundary needs rho_max < 1, got {grid.rho_max}")
        model = model_log_densities(grid, r)
        w[:, grid.boundary] = model[:, grid.boundary]
        return
    if strategy == "weight_flat":
        ring = _active_ring(sys)
        bad = int((q[ring] <= 0.0).sum())
        if bad:
            raise StrategyError(
                f"weight_flat needs Q > 0 on the boundary ring; {bad} ring "
                "nodes have Q = 0")
        vals = np.zeros(grid.nodes)
        pos = q > 0.0
        vals[pos] = np.log(q[pos]) / r
        w[:, grid.boundary] = vals[grid.boundary]
        return
    raise InternalError(f"unknown boundary strategy {strategy!r}")


def _initial_guess(grid: Grid, r: int, q: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    kind = cfg.initial
    if kind == "auto":
        kind = "flat" if cfg.boundary == "weight_flat" else "model"
    if kind == "model":
        return model_log_densities(grid, r)
    if kind == "flat":
        qmax = float(q.max())
        if qmax <= 0.0:
            raise ConfigurationError(
                "flat initial guess is undefined for an identically zero weight")
        floor = qmax * 1e-12
        return np.tile(np.log(np.maximum(q, floor)) / r, (r - 1, 1))
    if kind == "provided":
        if not cfg.provided_w or len(cfg.provided_w) != r - 1:
            raise ConfigurationError(
                f"provided initial guess needs r-1={r - 1} fields")
        for f in cfg.provided_w:
            check_same_grid(grid, f)
        w = np.stack([f.values for f in cfg.provided_w])
        if not np.all(np.isfinite(w)):
            raise ValidationError("provided initial guess contains non-finite values")
        return w.copy()
    raise InternalError(f"unknown initial strategy {kind!r}")


# ---------------------------------------------------------------------------
# Newton iteration


def _linear_solve(grid: Grid, jac: csr_matrix, rhs: np.ndarray) -> np.ndarray:
    if grid.n <= DIRECT_SOLVE_MAX_N:
        return spsolve(jac, rhs)
    # large grids: diagonally preconditioned BiCGStab
    from scipy.sparse import diags
    d = jac.diagonal()
    d[d == 0.0] = 1.0
    precond = diags(1.0 / d)
    sol, info = bicgstab(jac, rhs, M=precond, rtol=1e-12, atol=0.0, maxiter=2000)
    if info != 0:
        raise _Stall()
    return sol


def _newton(sys: _System, q: np.ndarray, w: np.ndarray, cfg: SolverConfig,
            history: list) -> int:
    """Damped Newton on the active set; mutates w, returns iteration count."""
    n_act = sys.residual(w, q)
    res = float(np.abs(n_act).max())
    if not np.isfinite(res):
        raise ValidationError("initial residual is not finite")
    history.append(res)
    iters = 0
    while res > cfg.tolerance:
        if iters >= cfg.max_iterations:
            raise _Stall()
        jac = sys.jacobian(w, q)
        delta = _linear_solve(sys.grid, jac, -n_act.reshape(-1))
        if not np.all(np.isfinite(delta)):
            raise _Stall()
        delta = delta.reshape(sys.m, sys.k)
        step = 1.0
        for _ in range(cfg.max_halvings + 1):
            trial = w.copy()
            trial[:, sys.idx] += step * delta
            n_try = sys.residual(trial, q)
            res_try = float(np.abs(n_try).max())
            if np.isfinite(res_try) and res_try <= (1.0 - _ARMIJO_SLOPE * step) * res:
                w[:, sys.idx] = trial[:, sys.idx]
                n_act, res = n_try, res_try
                break
            step *= cfg.armijo_factor
        else:
            raise _Stall()
        iters += 1
        history.append(res)
        log.debug("newton iter %d residual %.3e", iters, res)
    return iters


def _solve_stage(weight: WeightDensity, sys: _System, q: np.ndarray,
                 w: np.ndarray, cfg: SolverConfig, history: list) -> int:
    """Newton with amplitude continuation as the stall fallback.

    q is the density of `weight` on the grid; only the scaled continuation
    stages evaluate densities of their own.
    """
    try:
        return _newton(sys, q, w, cfg, history)
    except _Stall:
        if cfg.continuation_steps <= 0:
            raise
    # ramp t^2 through s = 2^-steps .. 1, warm-starting each stage
    log.info("newton stalled; engaging amplitude continuation "
             "(%d stages)", cfg.continuation_steps + 1)
    total = 0
    for p in range(cfg.continuation_steps, -1, -1):
        s = 0.5 ** p
        q_s = evaluate_density(scale_weight(weight, np.sqrt(s)),
                               sys.grid).values if p else q
        if cfg.boundary == "weight_flat":
            _fill_boundary(sys, q_s, cfg.boundary, w)
        try:
            total += _newton(sys, q_s, w, cfg, history)
        except _Stall:
            raise ConvergenceError(
                f"newton stalled at continuation amplitude {s:g} "
                f"(residual {history[-1]:.3e})", history)
    return total


def solve_toda(weight: WeightDensity, grid: Grid,
               config: SolverConfig | None = None) -> TodaSolution:
    cfg = (config or SolverConfig()).validated()
    r = weight.r
    q = evaluate_density(weight, grid).values
    sys = _System(grid, r, grid.interior)
    w = _initial_guess(grid, r, q, cfg)
    _fill_boundary(sys, q, cfg.boundary, w)
    history: list = []
    drifts: tuple = ()

    if cfg.boundary == "exhaustion":
        iters, drifts = _solve_exhaustion(weight, sys, q, w, cfg, history)
    else:
        try:
            iters = _solve_stage(weight, sys, q, w, cfg, history)
        except _Stall:
            raise ConvergenceError(
                f"newton stalled (residual {history[-1]:.3e})", history)

    # every path ends with Newton on the interior system and the full q
    res = history[-1]
    v0 = compute_v0(w, q)
    sol = TodaSolution(
        grid=grid, weight=weight, r=r,
        w=tuple(Field(grid, w[a]) for a in range(r - 1)),
        v0=Field(grid, v0),
        residual_sup=res, iterations=iters,
        boundary_strategy=cfg.boundary,
        residual_history=tuple(history),
        exhaustion_drifts=drifts,
    )
    log.info("solved r=%d %s grid n=%d: residual %.3e in %d iterations",
             r, grid.mode, grid.n, res, iters)
    return sol


def _exhaustion_radii(grid: Grid) -> list:
    base = [0.8, 0.85, 0.9]
    radii = [rho for rho in base if rho < grid.rho_max - 1e-12]
    radii.append(grid.rho_max)
    if len(radii) < 3:
        radii = [grid.rho_max * f for f in (8.0 / 9.0, 17.0 / 18.0, 1.0)]
    return radii


def _solve_exhaustion(weight: WeightDensity, sys: _System, q: np.ndarray,
                      w: np.ndarray, cfg: SolverConfig, history: list):
    """Nested subdisc solves with model Dirichlet data on each stage.

    All stages share one grid: stage rho treats every node with
    |z| >= rho - h/2 as Dirichlet (carrying the model profile evaluated at
    the node itself), so each solve is the discrete problem on the subdisc
    of radius rho.  Stage solutions rise monotonically toward the last
    stage; drift k is the sup-distance between stage k and the final stage
    over the first stage's interior, so the list shrinks to the drift
    between the last two stages and decreases when the approximation is
    converging.  (The raw sup-difference between consecutive stages is not
    monotone for equally spaced radii: the boundary-data increment
    2 log((1-rho^2)/(1-rho'^2)) grows as the ring recedes.)  The last stage
    is the whole interior and runs on the interior system `sys`.
    """
    grid = sys.grid
    radii = _exhaustion_radii(grid)
    cut0 = radii[0] - 0.5 * grid.h
    probe = grid.interior & (grid.r2 < cut0 * cut0)
    if not probe.any():
        raise ConfigurationError(
            f"exhaustion ladder {radii} leaves no interior nodes at stage 0")
    iters = 0
    snaps = []
    for rho in radii:
        cut = rho - 0.5 * grid.h
        active = grid.interior & (grid.r2 < cut * cut)
        stage = sys if np.array_equal(active, sys.active) \
            else _System(grid, sys.r, active)
        try:
            iters += _solve_stage(weight, stage, q, w, cfg, history)
        except _Stall:
            raise ConvergenceError(
                f"newton stalled in exhaustion stage rho={rho:g} "
                f"(residual {history[-1]:.3e})", history)
        snaps.append(w[:, probe].copy())
        log.debug("exhaustion stage rho=%g done", rho)
    final = snaps[-1]
    drifts = tuple(float(np.abs(s - final).max()) for s in snaps[:-1])
    return iters, drifts


# ---------------------------------------------------------------------------
# derived quantities


def recover_diagonal_metric(sol: TodaSolution) -> list:
    """Zero-trace logarithmic weights eta_1..eta_r with eta_{j+1}-eta_j = w_j."""
    w = sol.w_array()
    r = sol.r
    partial = np.concatenate([np.zeros((1, sol.grid.nodes)), np.cumsum(w, axis=0)])
    c = -(np.arange(r - 1, 0, -1)[:, None] * w).sum(axis=0) / r
    return [Field(sol.grid, c + partial[a]) for a in range(r)]


def energy_density(sol: TodaSolution) -> Field:
    """sum_{j=0}^{r-1} e^{w_j} with the V_0 slot included."""
    w = sol.w_array()
    total = sol.v0.values + np.exp(w).sum(axis=0)
    return Field(sol.grid, total)
