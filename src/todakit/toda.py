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
    exhaustion      model data on a ladder of nested subdiscs, warm-started,
                    with the interior drift between stages reported as a
                    completeness diagnostic

`solve_toda` is one loop over stage radii: the exhaustion ladder, or the
single stage rho = rho_max for the other strategies.  Each stage is a damped
Newton solve on the nodes inside its subdisc.  What depends on the grid,
the rank and the boundary only (the radii, the active sets and their
systems) is the solve's plan (`_plan`), which a sweep builds once and runs
every amplitude on.

The discrete equations are invariant under the mirror j -> r-j: V_0
depends on sum_k w_k only, lambda_j = lambda_{r-j}, and every boundary
strategy and initial guess is mirror-symmetric (a provided guess is
symmetrized).  So the solution has w_j = w_{r-j}, i.e. H_j = H_{r-j} for the
metrics H_j = h_j^-1 (x) h_{j+1}, and the solver iterates only the r//2
fields w_1..w_{r//2}, reading w_j as w_{min(j, r-j)}: its residual is
equations 1..r//2 of the full system at the mirrored state, and its
Jacobian sums the pointwise columns of each mirror pair, the V_0 column
carrying the pair's multiplicity.  The equations left out are the mirrors
of those kept, so the fold is exact; for r = 2 it is the identity.
`toda_residual` keeps all r-1 equations, the reload recheck of a saved
solution recomputes the full residual, and `verify.check_jacobian` probes
the Jacobian product of the full, the folded and the halved system, so
every equation is still checked independently.

Space folds the same way.  For a density with |q(conj z)| = |q(z)|, such
as any polynomial with real coefficients, the solution is
mirror-symmetric in y.  The cartesian grid's axis is exactly
antisymmetric, so when Q and the start equal their flip y -> -y bit for
bit, each stage iterates only its active nodes in the rows
iy >= (n-1)/2, about half of them, and copies every update onto the
mirror images: the iterate, and so the solution, stays mirror-symmetric
bit for bit, while the residual, its sup-norm (the stop test) and the
stored fields cover every node as before.  The halved Newton system is
the Galerkin restriction R^T (M x I) J R of the full one to
mirror-symmetric vectors (`_System`), so in exact arithmetic its step
is the full step.  Any other density is solved unfolded.

Each Newton step solves J x = -N.  J is (1/4) Lap on each field plus
pointwise blocks that couple the fields of one node.  The system is
variational: with the per-node metric M = S^T C^-1 S (C the A_{r-1}
Cartan matrix, S the fold expansion), M N is the gradient of a concave
energy, the discrete trace of harmonic metrics as critical points of
Donaldson's functional, and (M x I) J its Hessian.

On radial grids, with the unknowns ordered node-major, J is banded with
m sub- and super-diagonals (the stencil couples node i with i +- 1), and
one LAPACK banded LU solve (dgbsv) gives the exact step in O(k m^2).

On cartesian grids, whose Laplacian is symmetric, -(M x I) J is symmetric
positive definite, and CG solves -(M x I) J x = (M x I) N with J applied
matrix-free, preconditioned by -(M P)^-1 for P the Jacobian of the
degenerate (Q = 0) system at a state of the model form
w_j = log(lambda_j) + u, which shares J's structure.  At the model state
P decouples: its pointwise block is -e^u * C Lambda, Lambda =
diag(lambda_j), whose eigenvalues are k(k+1), k = 1..r-1, so in the
eigenbasis of C Lambda it is r-1 scalar Helmholtz operators
(1/4) Lap - k(k+1) e^u, each symmetric negative definite; the folded
unknowns keep the r//2 with k odd.  Halved, a block is its restriction:
the Laplacian R^T (1/4) L_A R less the shift W k(k+1) e^u.  A block with
at most _DIRECT_SIZE unknowns is solved exactly by its red-black reduced
system (George & Liu 1981): the 5-point graph is 2-colourable, so
eliminating one colour
leaves a Schur complement on the other half of the nodes, which a LAPACK
banded Cholesky factor solves in rotated-row order (band 46 at n = 65,
against 63 for the whole block).  A larger block is solved by one
multigrid V-cycle (Galerkin coarse operators on the even-index nodes,
damped Jacobi smoothing, the coarsest level Cholesky-factored whole).
Each stage's Newton run builds the factors and hierarchies once, with
e^u fitted to its first iterate, and applies them at every step; the
reduced systems' colouring, order and band layout, and the V-cycle's
prolongations, depend on the active set only: the stage's system builds
them once, and every solve on the same plan shares them.  This step is
inexact (Dembo, Eisenstat & Steihaug 1982): CG stops at the
Eisenstat-Walker choice-2 forcing term, 1e-4 on a run's first step and
then 0.9 (res_k / res_{k-1})^2 clipped to [1e-12, 1e-4], so early steps
from a far start take few CG iterations and the last ones are solved to
the floor rtol 1e-12.  A CG call that misses its forcing term still
returns its last iterate, which is taken as the step.

Every step, exact or not, is damped by Armijo backtracking on the
residual sup-norm, which accepts it or halves it.  A stage whose Newton
run stalls raises `ConvergenceError` from the stage loop; its message
names the stage rho and the last residual.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg

from .errors import ConfigurationError, ConvergenceError, ValidationError
from .grid import (Field, Grid, check_same_grid, is_number,
                   laplacian_operator)
from .weight import WeightDensity, evaluate_density, lambda_coefficients

log = logging.getLogger(__name__)

BOUNDARY_STRATEGIES = ("model_poincare", "weight_flat", "exhaustion")

_ARMIJO_SLOPE = 1e-4
_ARMIJO_FACTOR = 0.5
_MAX_HALVINGS = 20
# The tolerance of each cartesian Newton step is the Eisenstat-Walker
# choice-2 forcing term (SIAM J. Sci. Comput. 17 (1996)): _FORCING_MAX on
# a run's first step, then _FORCING_GAMMA (res_k / res_{k-1})^2 of the
# residual sup-norms, clipped to [_FORCING_MIN, _FORCING_MAX].  Early steps
# stop CG as soon as the step is accurate enough for Newton; late steps,
# where the residual falls quadratically, are solved to the floor
# _FORCING_MIN.  The term is CG's rtol, a bound on the 2-norm of the
# M-scaled residual (M x I)(J x + N), M = `_System.metric`, as its
# recurrence updates it, relative to the right-hand side's.
# Eisenstat and Walker measure the term and the linear residual in one
# norm; here the term is a ratio of sup-norms of the Newton residual N.
# It therefore does not bound the step's linear residual in the sup-norm,
# and a step near the roundoff floor may leave N a little above the term's
# prediction.  The choice-2 safeguard max(eta, gamma eta_{k-1}^2) when
# gamma eta_{k-1}^2 > 0.1 can never fire with eta <= _FORCING_MAX, so it
# is left out.
_FORCING_MIN = 1e-12
_FORCING_MAX = 1e-4
_FORCING_GAMMA = 0.9
# CG iterations before it gives up and returns its last iterate as an
# inexact step; scipy's default (ten times the unknowns) is no bound at all
_CG_MAXITER = 600
# Cartesian preconditioner blocks with at most this many unknowns are
# solved exactly by their red-black reduced system (`_RedBlack`); larger
# ones are solved by one multigrid V-cycle whose coarsest level is the
# first with at most this many unknowns.  Solves of cartesian q = z,
# rho_max = 0.9 by CG, reduced factor / one-level V-cycle, ms (median of
# 15, one BLAS thread, 2-vCPU x86-64 VM):
#       n  unknowns      r = 2          r = 4
#      57      2377    3.7 /  4.7     6.2 /  9.5
#      65      3125    4.7 /  5.8     8.0 / 11.8
#      69      3521    4.9 /  6.4     7.2 /  9.2
#      73      3969    5.5 /  6.6     8.0 / 10.2
#      77      4421    6.1 /  7.1     8.5 / 11.0
#      81      4905    6.9 /  7.7    10.0 / 12.2
#      89      5957    8.9 / 10.5    13.7 / 14.4
#      97      7089   10.8 / 11.2    16.3 / 15.3
#     105      8341   12.6 / 12.2    19.1 / 17.6
#     113      9689   15.8 / 14.6    23.7 / 23.8
# With the whole-block factor the cycle won from about 3100 unknowns; the
# reduced factor wins to about 6000 at both ranks.  The bound stays at
# 4000 all the same: it also sets the coarsest level of the larger
# hierarchies, a 9-point Galerkin operator that is not 2-colourable and
# is factored whole, and a larger coarsest level there is not measured.
_DIRECT_SIZE = 4000
_JACOBI_WEIGHT = 0.8
_SMOOTHING_SWEEPS = 2


@dataclass(frozen=True)
class SolverConfig:
    """Newton and boundary settings of `solve_toda`.

    `max_iterations` bounds the Newton iterations of each stage.

    The start is `provided_w` when it is given: r-1 fields, which the
    solver symmetrizes to (w_j + w_{r-j}) / 2 because it iterates
    mirror-symmetric fields only (a symmetric guess is unchanged).
    Otherwise it is the boundary's profile, which is also its Dirichlet
    data: the flat profile (1/r) log Q for the `weight_flat` boundary and
    the model profile for every other boundary.

    An invalid setting raises `ConfigurationError` on construction.
    """

    tolerance: float = 1e-10
    max_iterations: int = 50
    boundary: str = "model_poincare"
    provided_w: tuple | None = None

    def __post_init__(self):
        if self.boundary not in BOUNDARY_STRATEGIES:
            raise ConfigurationError(
                f"boundary must be one of {BOUNDARY_STRATEGIES}, got {self.boundary!r}",
                pointer="/boundary")
        if not (is_number(self.tolerance) and 0.0 < self.tolerance < 1.0):
            raise ConfigurationError(
                f"tolerance must be a number in (0, 1), got {self.tolerance!r}",
                pointer="/tolerance")
        if not (is_number(self.max_iterations, numbers.Integral)
                and self.max_iterations >= 1):
            raise ConfigurationError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations!r}",
                pointer="/max_iterations")


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

    def log_densities(self) -> np.ndarray:
        """Rows log D_j, j = 0..r-1, of the slot densities D_0 = V_0 and
        D_j = e^{w_j}, read from the stored fields; -inf where V_0 = 0."""
        v0 = self.v0.values
        log_v0 = np.full(self.grid.nodes, -np.inf)
        pos = v0 > 0.0
        log_v0[pos] = np.log(v0[pos])
        return np.vstack([log_v0[None, :], self.w_array()])


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


def _cartan(r: int) -> np.ndarray:
    """The A_{r-1} Cartan matrix, (r-1) x (r-1)."""
    return 2.0 * np.eye(r - 1) - np.eye(r - 1, k=1) - np.eye(r - 1, k=-1)


class _System:
    """Residual and Jacobian for one (grid, r, active-mask) triple.

    `lap` is (1/4) times `grid.laplacian_operator` at the active nodes, the
    package's one stencil: the residual applies it to whole fields, so its
    columns outside the active set carry the Dirichlet data, and the
    Jacobian's Laplacian block is its restriction `lap_active` to the
    active columns, space-folded (below).  The Jacobian is `lap_active`
    plus the blocks of `pointwise`: `matvec` applies it matrix-free, for
    CG on cartesian grids and for `verify.check_jacobian`, and `band` lays
    it out for the banded LU step on radial grids.  The system keeps no
    state that depends on an iterate: `preconditioner` builds the
    cartesian Newton preconditioner from the state it is given, on every
    call.  What it caches (`red_black`, `prolongations`) depends on the
    grid and the iterated nodes only, so every solve on one `_plan`
    shares it.

    The unknowns are m fields u_1..u_m and the chain slot j = 1..r-1 reads
    w_j = u[fold[j-1]].  Unfolded, fold is the identity and m = r-1: the
    full system.  With `mirror`, fold maps j to min(j, r-j), so m = r//2
    and the residual is equations 1..m of the full system at the mirrored
    state; a chain slot's multiplicity `mult` is the size of its mirror
    pair.

    `metric` is the per-node metric M = S^T C^-1 S (m x m), C the A_{r-1}
    Cartan matrix and S the fold expansion, w = S u.  The system is
    variational: M N is the gradient of the concave energy
    (1/8) <w, (C^-1 x L) w> - sum_j e^{w_j} - V_0 in u, because
    C^-1 (e_1 + e_{r-1}) is the all-ones vector.  So (M x I) J is its
    Hessian, symmetric negative definite on cartesian grids, where L is
    symmetric; `_newton_step` solves the Newton system in that form by CG.

    The space fold is the field fold's counterpart on the nodes.  The
    iterated nodes are `nodes`, k of them, and R expands unknowns on them
    to the active set: node i of `idx` reads nodes[space[i]].  Unfolded,
    R is the identity and W = R^T R = 1.  With `halve` (cartesian grids,
    for a state and a density that equal their flip y -> -y), `nodes` are
    the active nodes in the rows iy >= (n-1)/2, each other active node
    reads its mirror image (n-1-iy, ix), and W is 1 on the axis row of odd
    n and 2 off it.  The residual keeps every active row; the Newton
    system is R^T (M x I) J R delta = -R^T (M x I) N, whose Laplacian
    `lap_active` is R^T L_A R, whose pointwise blocks and right-hand side
    (`restrict`) are weighted by W, and whose step `expand` copies onto
    the mirror images, so an iterate stays mirror-symmetric bit for bit.
    At a mirror-symmetric state J maps mirror-symmetric vectors to
    mirror-symmetric ones, so the halved step is the full step.
    """

    def __init__(self, grid: Grid, r: int, active: np.ndarray,
                 mirror: bool = False, halve: bool = False):
        self.grid = grid
        self.r = r
        slots = np.arange(1, r)
        self.fold = (np.minimum(slots, r - slots) if mirror else slots) - 1
        self.mult = np.bincount(self.fold).astype(float)
        self.m = len(self.mult)
        expand = np.zeros((r - 1, self.m))
        expand[slots - 1, self.fold] = 1.0
        self.metric = expand.T @ np.linalg.solve(_cartan(r), expand)
        self.metric_inv = np.linalg.inv(self.metric)
        self.idx = np.flatnonzero(active)
        k = len(self.idx)
        if k == 0:
            raise ConfigurationError("active node set is empty")
        self.lap = 0.25 * laplacian_operator(grid, active)
        # lap_active keeps lap's entries in active columns, renumbered in
        # active order; rows are active nodes, so every row keeps its
        # diagonal entry, at `diagonal_at` in the data
        lap = self.lap
        column = np.full(grid.nodes, -1, dtype=lap.indices.dtype)
        column[self.idx] = np.arange(k)
        cols = column[lap.indices]
        kept = cols >= 0
        counts = np.add.reduceat(kept, lap.indptr[:-1])
        indptr = np.zeros(k + 1, dtype=lap.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        self.lap_active = csr_matrix(
            (lap.data[kept], cols[kept], indptr), shape=(k, k))
        self.diagonal_at = np.flatnonzero(
            cols[kept] == np.repeat(np.arange(k), counts))
        # the space fold R, the identity unless halved
        self.nodes, self.half, self.space, self.weight = (
            self.idx, slice(None), slice(None), 1.0)
        if halve:
            self._halve()
        self.k = len(self.nodes)

    def _halve(self):
        """Fold the active set onto its rows iy >= (n-1)/2: `nodes` are
        those nodes, at positions `half` of `idx`, node i of `idx` reads
        nodes[space[i]] (itself or its mirror (n-1-iy, ix)), and R is that
        map, so W = R^T R counts each node's preimages.  The Laplacian
        becomes R^T L_A R: twice L_A between two nodes off the axis row,
        2/(4h^2) from the axis row to the next on odd n, and on even n a
        diagonal that takes in the coupling of each node of row n/2 to
        its mirror."""
        n, idx = self.grid.n, self.idx
        iy, ix = np.divmod(idx, n)
        upper = 2 * iy >= n - 1
        self.half = np.flatnonzero(upper)
        self.nodes = idx[self.half]
        where = np.full(self.grid.nodes, -1)
        where[self.nodes] = np.arange(len(self.nodes))
        self.space = where[np.where(upper, idx, (n - 1 - iy) * n + ix)]
        self.weight = np.bincount(self.space).astype(float)
        # L_A R has equal rows at a node and at its mirror, so row a of
        # R^T L_A R is W_a times row half[a] of L_A R, whose columns are
        # L_A's mapped through `space`, duplicates summed
        rows = self.lap_active[self.half]
        lap = csr_matrix((rows.data, self.space[rows.indices], rows.indptr),
                         shape=(len(self.nodes),) * 2)
        lap.sum_duplicates()
        lap.data *= np.repeat(self.weight, np.diff(lap.indptr))
        self.lap_active = lap
        self.diagonal_at = np.flatnonzero(lap.indices == np.repeat(
            np.arange(len(self.nodes)), np.diff(lap.indptr)))

    def restrict(self, n_act: np.ndarray) -> np.ndarray:
        """R^T N for N = `n_act` at the active nodes, N mirror-symmetric
        when halved: W N at the iterated nodes."""
        return self.weight * n_act[:, self.half]

    def expand(self, delta: np.ndarray) -> np.ndarray:
        """R delta: `delta` at the iterated nodes, copied onto the active
        nodes that mirror them."""
        return delta[:, self.space]

    def block(self, c: np.ndarray):
        """The Helmholtz block (1/4) L_A - diag(c), CSR: a copy of
        `lap_active` with its diagonal shifted."""
        block = self.lap_active.copy()
        block.data[self.diagonal_at] -= c
        return block

    @cached_property
    def red_black(self) -> _RedBlack:
        """The grid-only part of the red-black reduced block solves on
        the active set, built on first use and kept for every later
        preconditioner of this system, across the solves of one `_plan`;
        cartesian grids only."""
        return _RedBlack(self.grid, self.nodes, self.lap_active)

    @cached_property
    def prolongations(self) -> list:
        """`_prolongations` of the active set, built on first use and kept
        like `red_black`; cartesian grids only."""
        return _prolongations(self.grid, self.nodes)

    def _densities(self, u: np.ndarray, q: np.ndarray, nodes=None):
        """(e^{u_a}, V_0) at `nodes`, the iterated nodes by default, V_0
        summed over the chain."""
        nodes = self.nodes if nodes is None else nodes
        ua = u[:, nodes]
        return np.exp(ua), q[nodes] * np.exp(-ua[self.fold].sum(axis=0))

    def residual(self, u: np.ndarray, q: np.ndarray) -> np.ndarray:
        """N_a at active nodes, shape (m, k)."""
        lap = (self.lap @ u.T).T
        e, v0 = self._densities(u, q, self.idx)
        # slot densities e^{w_0} .. e^{w_r}, V_0 closing both ends
        chain = np.vstack([v0[None, :], e[self.fold], v0[None, :]])
        m = self.m
        return lap - (2.0 * e - chain[:m] - chain[2:m + 2])

    def pointwise(self, u: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The Jacobian's pointwise blocks B[a, b] = dN_a/du_b less the
        Laplacian, shape (m, m, k), at the iterated nodes and weighted by
        W: the full Jacobian's pointwise columns summed over each mirror
        pair, so that they are R^T B R."""
        m, k, fold = self.m, self.k, self.fold
        e, v0 = self._densities(u, q)
        e, v0 = self.weight * e, self.weight * v0
        blocks = np.zeros((m, m, k))
        for a in range(m):
            blocks[a, a] = -2.0 * e[a]
        for a in range(1, m):
            blocks[a, a - 1] += e[a - 1]
        for a in range(min(m, self.r - 2)):
            b = fold[a + 1]
            blocks[a, b] += e[b]
        # dV0/du_b = -mult_b V0; V0 closes the chain's first and last
        # equation, and the last is one of the m only when unfolded
        dv0 = -v0 * self.mult[:, None]
        blocks[0] += dv0
        if self.r - 2 < m:
            blocks[self.r - 2] += dv0
        return blocks

    def matvec(self, blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
        """R^T J R x on stacked iterated unknowns, J with pointwise blocks
        `blocks` (already R^T B R): L_A X + sum_b B[:, b] * X[b] for
        X = x.reshape(m, k), L_A = `lap_active`."""
        x = x.reshape(self.m, self.k)
        y = np.einsum("abk,bk->ak", blocks, x)
        for a in range(self.m):
            y[a] += self.lap_active @ x[a]
        return y.ravel()

    def band(self, blocks: np.ndarray) -> np.ndarray:
        """J with pointwise blocks `blocks`, unknowns node-major (field a
        at node i is unknown i m + a), in the band layout of
        `solve_banded((m, m), ...)`: J[p, s] at [m + p - s, s].  Radial
        grids only, whose active nodes are a run and whose `lap_active` is
        tridiagonal, so J has m sub- and super-diagonals."""
        m = self.m
        a, b = np.indices((m, m)).reshape(2, -1)
        band = np.zeros((2 * m + 1, self.k, m))
        band[m + a - b, :, b] = blocks[a, b]
        lap = self.lap_active.tocoo()
        band[m * (1 + lap.row - lap.col), lap.col] += lap.data[:, None]
        return band.reshape(2 * m + 1, -1)

    def preconditioner(self, u: np.ndarray, q: np.ndarray):
        """x -> P^{-1} x for P the exact Q = 0 Jacobian at
        w_j = log(lambda_j) + u, on stacked active unknowns.

        The pointwise block of P is -e^u F with F = (C Lambda)[:m] S, the
        columns of C Lambda summed over each mirror pair (S the fold
        matrix; F = C Lambda unfolded).  F is self-adjoint in
        G = diag(mult_b lambda_b), so with G^{1/2} F G^{-1/2} = V D V^T,
        F = T D T^-1 for T = G^{-1/2} V and T^-1 = V^T G^{1/2}, and
        P^{-1} = (T x I) blockdiag((1/4) L - d_k diag(e^u))^{-1} (T^-1 x I).
        D holds k(k+1) for k = 1..r-1, or its odd-k part when folded.
        The scale e^u matches the trace of the true pointwise block at the
        active nodes of the given (u, q),
        e^u = (sum_j e^{w_j} + V_0) / sum_j lambda_j: the model profile at
        the Q = 0 model state, the exact Jacobian for r = 2, and it keeps
        the V_0 coupling that dominates at large amplitude.  A block with
        at most _DIRECT_SIZE unknowns is solved exactly by its red-black
        reduced system, one banded Cholesky factor per block on the
        `red_black` split; a larger one is solved by one V-cycle on the
        `prolongations` hierarchy, so there P^{-1} is a fixed approximate
        inverse and CG takes more, cheaper iterations.  The system builds
        the split and the hierarchy once, on first use, and a sweep's
        `_plan` keeps the system for all its amplitudes.  Each call builds
        the factors anew; `_newton` calls it once per run.

        M P = M x (1/4) L - diag(e^u) x G, so P^{-1} (M^{-1} x I) =
        (M P)^{-1} is symmetric negative definite, whether a block is
        factored or cycled: each block solve is, and T^{-1} M^{-1} =
        D T^T.  `_newton_step` hands CG its negative.  Cartesian grids
        only.
        """
        m, k, r = self.m, self.k, self.r
        lam = lambda_coefficients(r)
        folded = np.zeros((m, m))
        np.add.at(folded.T, self.fold, _cartan(r)[:m].T)
        # F = folded * lam[:m] by columns, and G^{1/2} F G^{-1/2}
        # scales column b by lam_b / sqrt(mult_b lam_b)
        sqrt_g = np.sqrt(self.mult * lam[:m])
        d, v = np.linalg.eigh(sqrt_g[:, None] * folded
                              * np.sqrt(lam[:m] / self.mult)[None, :])
        t = v / sqrt_g[:, None]
        t_inv = v.T * sqrt_g[None, :]
        e, v0 = self._densities(u, q)
        e_u = self.weight * (e[self.fold].sum(axis=0) + v0) / lam.sum()
        shifts = [dk * e_u for dk in d]
        solvers = ([_VCycle(self.block(c), self.prolongations)
                    for c in shifts] if self.prolongations else
                   [self.red_black.factor(c) for c in shifts])

        def apply(x):
            y = t_inv @ x.reshape(m, k)
            return (t @ np.stack([sv.solve(row)
                                  for sv, row in zip(solvers, y)])
                    ).reshape(-1)

        return apply


def _coarsen(n: int, nodes: np.ndarray):
    """Bilinear interpolation onto `nodes` from the even-index nodes.

    `nodes` are flat indices on an n x n grid.  Along an axis, node i takes
    half of parents i // 2 and (i + 1) // 2 on the coarse axis of n // 2 + 1
    nodes (at even i both are i / 2, and the halves sum to one); the
    prolongation is the tensor product of the two axes, restricted to the
    coarse nodes some row touches, numbered in flat-index order.  It is
    written directly as canonical CSR: a row has 1, 2 or 4 entries of
    weight 1, 1/2 or 1/4, its parents (iy // 2, ix // 2), (iy // 2,
    ix // 2 + 1) at odd ix, (iy // 2 + 1, ix // 2) at odd iy and
    (iy // 2 + 1, ix // 2 + 1) at both, in that (ascending) order.
    Returns (P, coarse nodes, coarse n).
    """
    nc = n // 2 + 1
    iy, ix = np.unravel_index(nodes, (n, n))
    oy, ox = iy & 1, ix & 1
    base = (iy // 2) * nc + ix // 2
    cols = np.stack([base, base + 1, base + nc, base + nc + 1], axis=1)
    kept = np.stack([np.ones_like(oy), ox, oy, oy & ox], axis=1).astype(bool)
    cols = cols[kept]
    touched = np.zeros(nc * nc, dtype=bool)
    touched[cols] = True
    coarse = np.flatnonzero(touched)
    cols = (np.cumsum(touched) - 1)[cols]
    counts = (1 + oy) * (1 + ox)
    indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    p = csr_matrix((np.repeat(1.0 / counts, counts), cols.astype(np.int32),
                    indptr), shape=(len(nodes), len(coarse)))
    return p, coarse, nc


def _prolongations(grid: Grid, idx: np.ndarray) -> list:
    """(P, P^T) of each level of the V-cycle hierarchy on the active nodes
    `idx` of a cartesian grid, finest first, the restriction P^T stored as
    CSR once; empty when the nodes are few enough to factor directly."""
    n, nodes, out = grid.n, idx, []
    while len(nodes) > _DIRECT_SIZE:
        p, nodes, n = _coarsen(n, nodes)
        out.append((p, p.T.tocsr()))
    return out


def _upper_band(a) -> np.ndarray:
    """The upper band of the sparse symmetric -A in LAPACK's layout:
    -A[i, j] at [w + i - j, j] for i <= j, w the bandwidth, the largest
    column offset in the block's own node order."""
    a = a.tocoo()
    upper = a.col >= a.row
    rows, cols = a.row[upper], a.col[upper]
    width = int((cols - rows).max())
    band = np.zeros((width + 1, a.shape[0]))
    band[width + rows - cols, cols] = -a.data[upper]
    return band


class _BandedCholesky:
    """x = A^{-1} b for a symmetric negative definite A, given the upper
    band of -A in LAPACK's layout (`_upper_band`).

    LAPACK's banded Cholesky factor -A = U^T U (dpbtrf) reads the upper
    band only; it needs no fill-reducing ordering and no pivoting, and
    its cost is set by the bandwidth of the node order the band is in.
    """

    def __init__(self, band):
        self.factor, info = dpbtrf(band, overwrite_ab=True)
        if info:
            raise ValidationError(
                f"preconditioner block is not negative definite (dpbtrf "
                f"info {info}); its scale e^u must be finite")

    def solve(self, b):
        x, _ = dpbtrs(self.factor, b)
        return -x


class _RedBlack:
    """The grid-only part of the exact red-black reduced solve of the
    cartesian blocks A = L - diag(c), c > 0, on one node set, for L a
    `_System`'s `lap_active`: (1/4) L_A, or R^T (1/4) L_A R when halved.

    The 5-point graph is 2-coloured by the parity of iy + ix.  The colour
    of the first node is kept (B, never empty) and the other (R) is
    eliminated.  A's R-R and B-B parts are diagonal, -d_R and -d_B with
    d = c - diag(L), and each coupling of L_RB, L_BR = L_RB^T is read from
    L (1/(4h^2), or twice that when halved), so the Schur complement
    S = -D_B + L_BR D_R^-1 L_RB of A is symmetric negative definite, and
    -S is D_B less one contribution l_ri l_rj / d_r for each red node r and
    each pair i <= j of B nodes next to it, l_ri their couplings (George &
    Liu 1981).  B is ordered by rotated rows,
    sort key ((iy + ix) // 2, iy - ix), where S couples a node to its own
    and the two neighbouring anti-diagonals: its band is 46 at n = 65
    against 63 for A in row-major order (22 against 31 at n = 33).

    The colouring, the order, L_RB (CSR, rows R, columns B in rotated
    order), its transpose L_BR (CSR), and the flat band position and
    coupling product l_ri l_rj of every contribution depend on the grid
    and the node set only, so a `_System` builds them once for all its
    blocks; `factor` then costs one bincount and one dpbtrf.
    """

    def __init__(self, grid: Grid, idx: np.ndarray, lap):
        n = grid.n
        iy, ix = np.divmod(idx, n)
        colour = (iy + ix) & 1
        keep = colour == colour[0]
        black = np.flatnonzero(keep)
        by, bx = iy[black], ix[black]
        self.black = black[np.lexsort((by - bx, (by + bx) // 2))]
        self.red = np.flatnonzero(~keep)
        self.diagonal = lap.diagonal()
        nb, nr = len(self.black), len(self.red)
        # the B position of each grid node's neighbours, -1 where the
        # neighbour is not a B node of the set, and the coupling L[r, i]
        # of each red node r to each B neighbour i
        where = np.full(grid.nodes, -1)
        where[idx[self.black]] = np.arange(nb)
        nbr = where[idx[self.red][:, None] + np.array([-n, -1, 1, n])]
        on = nbr >= 0
        coupling = np.zeros(nbr.shape)
        coupling[on] = np.asarray(lap[self.red[np.nonzero(on)[0]],
                                      self.black[nbr[on]]]).ravel()
        self.l_rb = csr_matrix(
            (coupling[on], nbr[on],
             np.concatenate([[0], np.cumsum(on.sum(axis=1))])),
            shape=(nr, nb))
        self.l_br = self.l_rb.T.tocsr()
        # every pair (i, j), i <= j, of B neighbours of each red node
        a, b = np.triu_indices(4)
        i = np.minimum(nbr[:, a], nbr[:, b])
        j = np.maximum(nbr[:, a], nbr[:, b])
        pair = i >= 0
        self.source = np.nonzero(pair)[0]
        self.product = (coupling[:, a] * coupling[:, b])[pair]
        i, j = i[pair], j[pair]
        self.width = int((j - i).max(initial=0))
        self.position = (self.width + i - j) * nb + j

    def factor(self, c: np.ndarray) -> _ReducedCholesky:
        """The reduced solve of A = L - diag(c)."""
        return _ReducedCholesky(self, c - self.diagonal)


class _ReducedCholesky:
    """x = A^{-1} b for one block A by its red-black reduced system:
    y = b_B + L_BR (b_R / d_R), x_B = S^-1 y by the banded Cholesky
    factor of -S, x_R = (L_RB x_B - b_R) / d_R; d = -diag(A) > 0."""

    def __init__(self, rb: _RedBlack, d: np.ndarray):
        self.rb = rb
        self.inv_red = 1.0 / d[rb.red]
        nb = len(rb.black)
        band = np.bincount(
            rb.position, rb.product * self.inv_red[rb.source],
            minlength=(rb.width + 1) * nb).reshape(rb.width + 1, nb)
        np.negative(band, out=band)
        band[rb.width] += d[rb.black]
        self.schur = _BandedCholesky(band)

    def solve(self, b):
        rb = self.rb
        z = self.inv_red * b[rb.red]
        x_b = self.schur.solve(b[rb.black] + rb.l_br @ z)
        x = np.empty_like(b)
        x[rb.black] = x_b
        x[rb.red] = self.inv_red * (rb.l_rb @ x_b) - z
        return x


class _VCycle:
    """x = M^{-1} b by one V(2,2)-cycle on a cartesian preconditioner block.

    Damped Jacobi smoothing, Galerkin coarse operators P^T A P, which need
    no special case for the disc mask, its cut cells or an exhaustion
    stage's active set, and the coarsest level factored by
    `_BandedCholesky`.  Every block is (1/4) L on the active set minus
    k(k+1) diag(e^u) with e^u > 0, so it is symmetric negative definite,
    and P^T A P keeps both properties; the product is symmetrized because
    it rounds (i, j) and (j, i) differently.  Every cycle starts from
    x = 0, so M^{-1} is a fixed linear operator, as a Krylov solver needs
    of a preconditioner.  The cycle smooths as often after the coarse
    correction as before it and restricts by P^T, so M^{-1} is symmetric
    negative definite too, as CG needs.  With no prolongations the block
    would be its own coarsest level, factored whole; the preconditioner
    solves such a block by `_RedBlack` instead.  `prolongations` are the
    (P, P^T) pairs of `_prolongations`.
    """

    def __init__(self, block, prolongations):
        self.levels = []
        a = block
        for p, pt in prolongations:
            self.levels.append((a, _JACOBI_WEIGHT / a.diagonal(), p, pt))
            a = pt @ a @ p
            a = (0.5 * (a + a.T)).tocsr()
        self.coarsest = _BandedCholesky(_upper_band(a))

    def solve(self, b, level=0):
        if level == len(self.levels):
            return self.coarsest.solve(b)
        a, weighted_inv_diag, p, pt = self.levels[level]
        x = weighted_inv_diag * b
        for _ in range(_SMOOTHING_SWEEPS - 1):
            x += weighted_inv_diag * (b - a @ x)
        x += p @ self.solve(pt @ (b - a @ x), level + 1)
        for _ in range(_SMOOTHING_SWEEPS):
            x += weighted_inv_diag * (b - a @ x)
        return x


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
    q = _as_weight_field(grid, weight).values
    sys = _System(grid, len(w_fields) + 1, grid.interior)
    n_active = sys.residual(w, q)
    out = []
    for a in range(sys.m):
        vals = np.zeros(grid.nodes)
        vals[sys.idx] = n_active[a]
        out.append(Field(grid, vals))
    return out


# ---------------------------------------------------------------------------
# boundary data and initial guesses


def check_solvable(weight: WeightDensity, grid: Grid,
                   boundary: str) -> np.ndarray:
    """The density Q of `weight` at the nodes of `grid`, once the inputs
    pass the checks a solve with `boundary` needs; each failure is a
    ConfigurationError at the run-document value to blame:

    - the model profile, the Dirichlet data of every boundary but
      `weight_flat`, needs rho_max < 1 (/grid/rho_max);
    - the weight must evaluate on the grid: a `grid` weight needs one
      sample per node (/weight/samples), and a poly weight on a radial
      grid must be a monomial (/weight/coeffs);
    - Q must be finite: t^2 times the base density overflows at a large
      enough amplitude t (/weight);
    - `weight_flat` takes its Dirichlet data log(Q) / r on the boundary
      ring, the boundary nodes an interior stencil reads, so it needs
      Q > 0 there (/weight), and t^2 times the base density underflows to
      0 at a small enough t.

    The last two checks depend on t; `check_amplitudes` runs them over a
    range of amplitudes.
    """
    if boundary != "weight_flat" and grid.rho_max >= 1.0:
        raise ConfigurationError(
            f"the {boundary} boundary needs rho_max < 1, grid has "
            f"rho_max={grid.rho_max}", pointer="/grid/rho_max")
    try:
        q = evaluate_density(weight, grid).values
    except ConfigurationError as exc:
        exc.pointer = f"/weight{exc.pointer}"
        raise
    except ValidationError as exc:
        raise ConfigurationError(str(exc), pointer="/weight") from None
    if boundary == "weight_flat":
        ring = np.zeros(grid.nodes, dtype=bool)
        ring[laplacian_operator(grid, grid.interior).indices] = True
        ring[grid.interior] = False
        bad = int((q[ring] <= 0.0).sum())
        if bad:
            raise ConfigurationError(
                f"weight_flat needs Q > 0 on the boundary ring; {bad} ring "
                "nodes have Q = 0", pointer="/weight")
    return q


def check_amplitudes(weight: WeightDensity, grid: Grid, boundary: str,
                     t_values) -> None:
    """`check_solvable` for `weight` at the smallest and the largest of
    the amplitudes `t_values`, each failure a ConfigurationError at
    /t_values.  Q = t^2 Q_base, and rounding is monotone, so a node's Q
    is 0 up to some amplitude and non-finite from some amplitude on: the
    checks pass at every amplitude between two at which they pass."""
    for t in (min(t_values), max(t_values)):
        try:
            check_solvable(replace(weight, t=float(t)), grid, boundary)
        except ConfigurationError as exc:
            raise ConfigurationError(f"amplitude t={t!r}: {exc}",
                                     pointer="/t_values") from None


def _profile(grid: Grid, r: int, q: np.ndarray, boundary: str) -> np.ndarray:
    """Rows j = 1..r-1 of the boundary strategy's profile, the default start
    and the Dirichlet data: for `weight_flat` the flat profile
    log(max(Q, 1e-12 max Q)) / r, which needs some Q > 0, and for the other
    strategies the model profile.  Both are mirror-symmetric in j -> r-j."""
    if boundary != "weight_flat":
        return model_log_densities(grid, r)
    floor = float(q.max()) * 1e-12
    return np.tile(np.log(np.maximum(q, floor)) / r, (r - 1, 1))


def _provided(grid: Grid, r: int, fields) -> np.ndarray:
    """A provided guess of r-1 finite fields on `grid`, symmetrized to
    (w_j + w_{r-j}) / 2: the solver iterates mirror-symmetric fields only."""
    if len(fields) != r - 1:
        raise ConfigurationError(
            f"provided initial guess needs r-1={r - 1} fields")
    for f in fields:
        check_same_grid(grid, f)
    w = np.stack([f.values for f in fields])
    if not np.all(np.isfinite(w)):
        raise ValidationError("provided initial guess contains non-finite values")
    return 0.5 * (w + w[::-1])


# ---------------------------------------------------------------------------
# Newton iteration


def _newton_step(sys: _System, blocks: np.ndarray, p_inv, n_act: np.ndarray,
                 eta: float) -> tuple:
    """(delta, info) of the Newton system J delta = -N, J with pointwise
    blocks `blocks`, delta of shape (m, k); a nonzero info is a CG miss.
    J, N = `n_act` and delta are in the iterated unknowns: halved, J is
    R^T J R and N is R^T N (`_System.restrict`).

    On radial grids one banded LU solve of J, in `sys.band`'s node-major
    layout, gives the exact step.  On cartesian grids CG solves the
    symmetric positive definite form -(M x I) J delta = (M x I) N, M =
    `sys.metric`, to the forcing term `eta`, preconditioned by
    -P^-1 (M^-1 x I) = -(M P)^-1, P^-1 = `p_inv`, which is symmetric
    positive definite because P shares the structure of J.
    """
    m, k = sys.m, sys.k
    if sys.grid.mode == "radial":
        delta = solve_banded((m, m), sys.band(blocks), -n_act.T.ravel())
        return delta.reshape(k, m).T, 0
    shape = (m * k,) * 2
    op = LinearOperator(shape, dtype=float, matvec=lambda x: -(
        sys.metric @ sys.matvec(blocks, x).reshape(m, k)).ravel())
    prec = LinearOperator(shape, dtype=float, matvec=lambda x: -p_inv(
        (sys.metric_inv @ x.reshape(m, k)).ravel()))
    delta, info = cg(op, (sys.metric @ n_act).ravel(), rtol=eta, atol=0.0,
                     maxiter=_CG_MAXITER, M=prec)
    return delta.reshape(m, k), info


def _newton(sys: _System, q: np.ndarray, u: np.ndarray, cfg: SolverConfig,
            history: list) -> int:
    """Damped Newton on the active set; mutates u, returns iteration count.

    Each step solves the Newton system in the iterated unknowns and
    expands it onto the active nodes, so a halved system's u stays
    mirror-symmetric bit for bit, and the residual and its sup-norm, the
    stop test, are those of every active node."""
    n_act = sys.residual(u, q)
    res = float(np.abs(n_act).max())
    if not np.isfinite(res):
        raise ValidationError("initial residual is not finite")
    history.append(res)
    iters = 0
    # cartesian only: fitted to the run's first iterate and applied at
    # every step
    p_inv = None
    eta = _FORCING_MAX
    while res > cfg.tolerance:
        if iters >= cfg.max_iterations:
            raise _Stall()
        blocks = sys.pointwise(u, q)
        if p_inv is None and sys.grid.mode == "cartesian":
            p_inv = sys.preconditioner(u, q)
        delta, info = _newton_step(sys, blocks, p_inv, sys.restrict(n_act),
                                   eta)
        delta = sys.expand(delta)
        # a nonzero info is a CG miss, returned with its last iterate: an
        # inexact Newton step, which the Armijo search accepts or halves
        # like any other.  Only a step it cannot accept stalls.
        if info:
            log.info("newton iter %d: cg missed its forcing term rtol "
                     "%.2e (info %d); taking its last iterate",
                     iters + 1, eta, info)
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = u.copy()
            trial[:, sys.idx] += step * delta
            n_try = sys.residual(trial, q)
            res_try = float(np.abs(n_try).max())
            if np.isfinite(res_try) and res_try <= (1.0 - _ARMIJO_SLOPE * step) * res:
                u[:, sys.idx] = trial[:, sys.idx]
                eta = min(_FORCING_MAX, max(
                    _FORCING_MIN, _FORCING_GAMMA * (res_try / res) ** 2))
                n_act, res = n_try, res_try
                break
            step *= _ARMIJO_FACTOR
        else:
            raise _Stall()
        iters += 1
        history.append(res)
        log.debug("newton iter %d residual %.3e", iters, res)
    return iters


def _exhaustion_radii(grid: Grid) -> list:
    base = [0.8, 0.85, 0.9]
    radii = [rho for rho in base if rho < grid.rho_max - 1e-12]
    radii.append(grid.rho_max)
    if len(radii) < 3:
        radii = [grid.rho_max * f for f in (8.0 / 9.0, 17.0 / 18.0, 1.0)]
    return radii


@dataclass(frozen=True)
class _Plan:
    """The part of a solve that depends on (grid, r, boundary) and on
    whether it halves only: the stage radii and each stage's mirror-folded
    system on its active set, halved when `halved`, which builds its
    red-black split and V-cycle hierarchy on first use and keeps them.  A
    plan holds no state of an iterate, so any number of solves may run on
    it, one after another, with unchanged results."""

    grid: Grid
    r: int
    boundary: str
    halved: bool
    radii: tuple
    stages: tuple


def _mirror_symmetric(grid: Grid, values: np.ndarray) -> bool:
    """Whether `values`, one or more fields on `grid`, equal their flip
    y -> -y bit for bit; never on a radial grid."""
    if grid.mode != "cartesian":
        return False
    rows = np.ascontiguousarray(values).view(np.int64).reshape(
        -1, grid.n, grid.n)
    return bool(np.array_equal(rows, rows[:, ::-1]))


def _halves(weight: WeightDensity, grid: Grid) -> bool:
    """Whether the solves of `weight` on `grid` at every amplitude t may
    iterate the upper half-disc: the density t^2 Q_base is t^2 times
    Q_base node by node, so it is mirror-symmetric at every t when Q_base,
    the density at t = 1, is.  When Q_base is not, or does not evaluate
    finite, the solves run unfolded, which is right for any weight."""
    try:
        q = evaluate_density(replace(weight, t=1.0), grid).values
    except ValidationError:
        return False
    return _mirror_symmetric(grid, q)


def _plan(grid: Grid, r: int, boundary: str, halve: bool = False) -> _Plan:
    """The stages `solve_toda` runs for `boundary` on `grid` at rank r,
    iterating the upper half-disc when `halve`."""
    radii = (_exhaustion_radii(grid) if boundary == "exhaustion"
             else [grid.rho_max])
    cuts = [rho - 0.5 * grid.h for rho in radii]
    actives = [grid.interior & (grid.r2 < cut * cut) for cut in cuts]
    if not actives[0].any():
        raise ConfigurationError(
            f"exhaustion ladder {radii} leaves no interior nodes at stage 0")
    return _Plan(grid, r, boundary, halve, tuple(radii),
                 tuple(_System(grid, r, active, mirror=True, halve=halve)
                       for active in actives))


def solve_toda(weight: WeightDensity, grid: Grid,
               config: SolverConfig | None = None, *,
               plan: _Plan | None = None) -> TodaSolution:
    """Solve the Toda system for `weight` on `grid` by a ladder of stages.

    Stage rho solves the discrete problem on the subdisc of radius rho: its
    active nodes are the interior nodes with |z| < rho - h/2, and every
    other node is Dirichlet, holding the value it has when the stage starts:
    on the grid boundary the strategy's profile (`_profile`), inside the
    disc the start or the previous stage's solution.  The `exhaustion`
    boundary climbs the radii of `_exhaustion_radii`, warm-starting each
    stage from the last; every other boundary is the one stage
    rho = rho_max.  The last stage's
    active set is the grid's interior, so every solve ends on the interior
    system with the full weight.

    Drift k is the sup-distance between stage k and the last stage over the
    first stage's active nodes.  It shrinks to the drift between the last
    two stages, and decreases when the approximation is converging.  (The
    raw sup-difference between consecutive stages is not monotone for
    equally spaced radii: the boundary-data increment
    2 log((1-rho^2)/(1-rho'^2)) grows as the ring recedes.)  A single
    stage has no drifts.

    Each stage is one Newton run of at most `max_iterations` iterations.
    A stall raises `ConvergenceError` naming the stage rho and the last
    residual.

    When the density Q and the start both equal their flip y -> -y bit
    for bit, so does the solution, and each stage iterates only its
    active nodes in the rows iy >= (n-1)/2, copying every update onto
    their mirror images (`_System`); the residual, the stop test and the
    stored fields are those of the whole grid.

    The stages are `plan`, `_plan(grid, weight.r, config.boundary, halve)`
    with `halve` the symmetry above, built here when it is not given; a
    sweep builds it once and passes it to every amplitude's solve.  A plan
    built for another grid, rank or boundary, or one that halves a solve
    whose Q or start is not mirror-symmetric, is a ConfigurationError.
    """
    cfg = config or SolverConfig()
    r = weight.r
    q = check_solvable(weight, grid, cfg.boundary)
    profile = _profile(grid, r, q, cfg.boundary)
    start = (profile if cfg.provided_w is None
             else _provided(grid, r, cfg.provided_w))
    halve = _mirror_symmetric(grid, q) and _mirror_symmetric(grid, start)
    if plan is None:
        plan = _plan(grid, r, cfg.boundary, halve)
    elif (plan.grid.key(), plan.r, plan.boundary) != (grid.key(), r,
                                                      cfg.boundary):
        raise ConfigurationError(
            f"plan for grid {plan.grid.key()}, r={plan.r}, boundary "
            f"{plan.boundary!r} cannot solve r={r} with boundary "
            f"{cfg.boundary!r} on grid {grid.key()}")
    elif plan.halved and not halve:
        raise ConfigurationError(
            "plan iterates the upper half-disc, but the weight density or "
            "the start is not mirror-symmetric in y")
    stages = plan.stages
    m = stages[-1].m
    u = start[:m]
    u[:, grid.boundary] = profile[:m, grid.boundary]
    history: list = []
    iters = 0
    snaps = []
    for rho, stage in zip(plan.radii, stages):
        try:
            iters += _newton(stage, q, u, cfg, history)
        except _Stall:
            raise ConvergenceError(
                f"newton stalled in stage rho={rho:g} "
                f"(residual {history[-1]:.3e})", history) from None
        snaps.append(u[:, stages[0].idx])
        log.debug("stage rho=%g done", rho)

    res = history[-1]
    w = u[stages[-1].fold]
    sol = TodaSolution(
        grid=grid, weight=weight, r=r,
        w=tuple(Field(grid, w[a]) for a in range(r - 1)),
        v0=Field(grid, compute_v0(w, q)),
        residual_sup=res, iterations=iters,
        boundary_strategy=cfg.boundary,
        residual_history=tuple(history),
        exhaustion_drifts=tuple(float(np.abs(snap - snaps[-1]).max())
                                for snap in snaps[:-1]),
    )
    log.info("solved r=%d %s grid n=%d: residual %.3e in %d iterations",
             r, grid.mode, grid.n, res, iters)
    return sol


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
