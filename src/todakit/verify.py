"""Executable checks for the provable properties of solved systems.

Each check solves or consumes a concrete instance and reports how far
inside its inequality the worst node sits.  A check passes when

    margin >= -slack

where the slack absorbs floating-point noise (strict inequalities that
degenerate to equalities on symmetric instances) or, for the free-energy
comparison, the calibrated O(h^2) discretization error of the Laplacian.
Checks that do not apply to an instance report passed=True, margin 0,
and say why in the notes.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, Field, build_grid, inner_mask, laplacian, worst_node
from .thermo import model_free_energy_field, thermo_field
from .toda import (SolverConfig, TodaSolution, energy_density,
                   model_log_densities, solve_toda, toda_jacobian,
                   toda_residual)
from .weight import (WeightDensity, evaluate_density, lambda_coefficients,
                     make_weight, model_constants, model_entropy)

log = logging.getLogger(__name__)

#: relative tolerance for the finite-difference Jacobian probe
JACOBIAN_TOL = 1e-6
#: slack for strict inequalities checked on solved fields
STRICT_SLACK = 1e-9
#: slack for pointwise monotonicity comparisons between solves
MONOTONE_SLACK = 1e-8
#: deviation allowed between a solved redundancy floor and its closed form
CLOSED_FORM_TOL = 1e-10
#: acceptable second-order convergence window
ORDER_WINDOW = (1.7, 2.3)


@dataclass
class CheckReport:
    name: str
    instance: str
    passed: bool
    margin: float
    slack: float
    worst: dict = dc_field(default_factory=dict)
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instance": self.instance,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "slack": float(self.slack),
            "worst": self.worst,
            "notes": self.notes,
        }


def _not_applicable(name: str, instance: str, why: str) -> CheckReport:
    return CheckReport(name=name, instance=instance, passed=True,
                       margin=0.0, slack=0.0,
                       notes=f"not applicable: {why}")


def _report(name, instance, margin, slack, worst=None, notes=""):
    return CheckReport(name=name, instance=instance,
                       passed=bool(margin >= -slack),
                       margin=float(margin), slack=float(slack),
                       worst=worst or {}, notes=notes)


def _instance(sol: TodaSolution, beta: float | None = None) -> str:
    bits = [sol.weight.describe(),
            f"grid={sol.grid.mode} n={sol.grid.n} rho={sol.grid.rho_max:g}"]
    if beta is not None:
        bits.append(f"beta={beta:g}")
    return " ".join(bits)


def _binding(grid: Grid, parts) -> tuple:
    """(margin, worst, label) of the part with the smallest interior minimum.

    `parts` yields (label, node values); the first part wins ties.  With no
    part, or only parts whose minimum is +inf, the margin is +inf, the worst
    node {} and the label "".
    """
    mask = grid.interior
    margin, worst, binding = math.inf, {}, ""
    for label, vals in parts:
        m = float(vals[mask].min())
        if m < margin:
            margin = m
            worst = worst_node(grid, np.where(mask, vals, np.inf), mask)
            binding = label
    return margin, worst, binding


# ---------------------------------------------------------------------------
# closed-form and structural checks


def check_flat_exactness(r: int, grid: Grid) -> CheckReport:
    """Constant weight: the zero log-density field solves the system exactly.

    The initial guess already satisfies the equations, so the solver must
    accept it without a single Newton step and with residual below the
    solver tolerance.
    """
    weight = make_weight("constant", r, value=1.0)
    cfg = SolverConfig(boundary="weight_flat")
    sol = solve_toda(weight, grid, cfg)
    margin = cfg.tolerance - sol.residual_sup
    notes = f"residual {sol.residual_sup:.3e} in {sol.iterations} iterations"
    if sol.iterations > 0:
        notes += " (expected 0)"
    return _report("flat_exactness", _instance(sol), margin, 0.0,
                   notes=notes)


def check_model_order(r: int, ns: tuple, rho_max: float) -> CheckReport:
    """Solved fields converge to the closed-form blow-up profile at O(h^2)
    on a ladder of cartesian grids.

    Errors are measured on a region fixed across the ladder (three coarse
    mesh widths inside the rim) so the comparison set does not shrink with h.
    """
    if len(ns) < 3:
        raise ConfigurationError("order study needs at least 3 grid sizes")
    ns = tuple(sorted(int(n) for n in ns))
    weight = make_weight("zero", r)
    coarse = build_grid("cartesian", ns[0], rho_max)
    margin_in = 3.0 * coarse.h
    errs = []
    for n in ns:
        grid = build_grid("cartesian", n, rho_max)
        sol = solve_toda(weight, grid, SolverConfig(boundary="model_poincare"))
        exact = model_log_densities(grid, r)
        mask = inner_mask(grid, margin_in)
        err = max(float(np.abs(sol.w_array()[a] - exact[a])[mask].max())
                  for a in range(r - 1))
        errs.append(err)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    lo, hi = ORDER_WINDOW
    margin = min(min(o - lo for o in orders), min(hi - o for o in orders))
    notes = ("errors " + " ".join(f"{e:.3e}" for e in errs)
             + " orders " + " ".join(f"{o:.3f}" for o in orders))
    inst = f"kind=zero r={r} grid=cartesian n={ns} rho={rho_max:g}"
    return _report("model_order", inst, margin, 0.0, notes=notes)


def check_jacobian(weight: WeightDensity, grid: Grid,
                   seed: int = 0) -> CheckReport:
    """Assembled Jacobian against a central finite difference along a
    random direction, evaluated at a perturbed model state."""
    r = weight.r
    rng = np.random.default_rng(seed)
    if grid.rho_max < 1.0:
        base = model_log_densities(grid, r)
    else:
        base = np.zeros((r - 1, grid.nodes))
    w = base + 0.05 * rng.standard_normal(base.shape)
    w_fields = tuple(Field(grid, w[a]) for a in range(r - 1))
    q = evaluate_density(weight, grid)
    jac, idx = toda_jacobian(w_fields, q)
    k = idx.size
    d = rng.standard_normal((r - 1) * k)
    d /= np.abs(d).max()

    def residual_vec(wmat):
        fields = tuple(Field(grid, wmat[a]) for a in range(r - 1))
        res = toda_residual(fields, q)
        return np.concatenate([f.values[idx] for f in res])

    eps = 1e-6
    bump = np.zeros_like(w)
    for a in range(r - 1):
        bump[a, idx] = d[a * k:(a + 1) * k]
    fd = (residual_vec(w + eps * bump) - residual_vec(w - eps * bump)) / (2 * eps)
    jd = jac @ d
    scale = max(1.0, float(np.abs(jd).max()))
    rel = float(np.abs(fd - jd).max()) / scale
    inst = (f"{weight.describe()} grid={grid.mode} n={grid.n} "
            f"rho={grid.rho_max:g} seed={seed}")
    return _report("jacobian_consistency", inst, JACOBIAN_TOL - rel, 0.0,
                   notes=f"max relative deviation {rel:.3e}")


def check_model_constants() -> CheckReport:
    """Quadrature constants against closed forms, and the large-rank
    entropy deficit against its limit."""
    worst = 0.0
    notes = []
    mc1 = model_constants(4, 1.0)
    for label, got, want in (
        ("c(1)", mc1.c_beta, 1.0 / 6.0),
        ("d(1)", mc1.d_beta, -5.0 / 36.0),
        ("limit(1)", mc1.entropy_limit, -(math.log(6.0) - 5.0 / 3.0)),
    ):
        err = abs(got - want)
        worst = max(worst, err)
        notes.append(f"{label} err {err:.1e}")
    mch = model_constants(4, -0.5)
    for label, got, want in (
        ("c(-1/2)", mch.c_beta, math.pi),
        ("d(-1/2)", mch.d_beta, -2.0 * math.pi * math.log(2.0)),
    ):
        err = abs(got - want)
        worst = max(worst, err)
        notes.append(f"{label} err {err:.1e}")
    # deficit of the model entropy below log r shrinks onto the limit
    gaps = [abs(model_entropy(r, 1.0) - math.log(r) - mc1.entropy_limit)
            for r in (100, 500, 2000)]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    notes.append("deficit gaps " + " ".join(f"{g:.2e}" for g in gaps))
    margin = 1e-9 - worst
    if not decreasing or gaps[-1] >= 0.02:
        margin = -1.0
        notes.append("deficit gaps fail to contract")
    return _report("model_constants", "r=4 beta in {1, -1/2}", margin, 0.0,
                   notes="; ".join(notes))


# ---------------------------------------------------------------------------
# solved-instance inequality checks


def check_density_band(sol: TodaSolution) -> CheckReport:
    """Ordering band for the solved densities.

    For ranks >= 4 the ratio e^{w_{j-1} - w_j} of adjacent densities in the
    first half of the chain stays strictly between lambda_{j-1}/lambda_j
    and 1; for every rank the degenerate density stays below the first one,
    V_0 e^{-w_1} < 1.  The degenerate instance attains the lower ratio bound
    with equality, which the slack absorbs.
    """
    grid, r = sol.grid, sol.r
    if sol.weight.kind == "constant":
        return _not_applicable(
            "density_band", _instance(sol),
            "constant weight collapses the band to equalities")
    lam = lambda_coefficients(r)
    parts = []
    logd = sol.log_densities()
    w = logd[1:]
    for j in range(2, r // 2 + 1):
        # lam[0] holds the first live coefficient, so lambda_j = lam[j - 1]
        diff = w[j - 2] - w[j - 1]
        gap_low = diff - math.log(lam[j - 2] / lam[j - 1])
        parts.append((f"ratio_low j={j}", gap_low))
        parts.append((f"ratio_high j={j}", -diff))
    # +inf where V_0 vanishes: the part is vacuous there
    parts.append(("degenerate_below", logd[1] - logd[0]))

    margin, worst, binding = _binding(grid, parts)
    if not math.isfinite(margin):
        return _report("density_band", _instance(sol), 0.0, STRICT_SLACK,
                       notes="all applicable parts vacuous: degenerate "
                             "density vanishes and rank < 4 has no ratios")
    notes = f"binding part {binding}"
    if np.all(np.isinf(logd[0])):
        notes += "; degenerate density vanishes identically"
    return _report("density_band", _instance(sol), margin, STRICT_SLACK,
                   worst=worst, notes=notes)


def check_entropy_bounds(sol: TodaSolution, beta: float) -> CheckReport:
    """Pointwise sandwich: S_model(r, beta) <= S <= log r on the interior.

    Constant weight attains the upper bound exactly (uniform ensemble);
    the degenerate instance attains the lower bound.
    """
    s = thermo_field(sol, beta).entropy.values
    r = sol.r
    s_model = model_entropy(r, beta)
    margin, worst, which = _binding(
        sol.grid, (("lower", s - s_model), ("upper", math.log(r) - s)))
    notes = (f"binding bound {which}; S_model={s_model:.12g} "
             f"log r={math.log(r):.12g}")
    return _report("entropy_bounds", _instance(sol, beta), margin,
                   STRICT_SLACK, worst=worst, notes=notes)


def _fe_rhs(sol: TodaSolution, beta: float) -> np.ndarray:
    """-(sum over adjacent pairs of (D_{j-1}-D_j)(D_{j-1}^b - D_j^b)) / sum D^b.

    Densities are D_0 = V_0 and D_j = e^{w_j}; each adjacent pair is
    counted once and the chain does not wrap.  Needs beta > 0, so that a
    vanishing V_0 carries weight 0.
    """
    logd = sol.log_densities()
    d = np.exp(logd)
    db = np.exp(beta * logd)
    num = ((d[:-1] - d[1:]) * (db[:-1] - db[1:])).sum(axis=0)
    return -num / db.sum(axis=0)


def calibrate_laplacian_slack(grid: Grid, r: int, beta: float) -> float:
    """Constant c such that c*h^2 bounds |(1/4) Lap_h F - (1/4) Lap F| for
    the closed-form degenerate free energy (flat reference) on this grid.

    The degenerate F differs from 2*log(1 - rho^2) by a constant, so its
    exact quarter-Laplacian is -2/(1 - rho^2)^2.
    """
    if grid.rho_max >= 1.0:
        raise ConfigurationError(
            "laplacian slack calibration needs rho_max < 1")
    f_model = model_free_energy_field(grid, r, beta)
    lap = laplacian(grid, f_model).values
    mask = grid.interior
    exact = -2.0 / (1.0 - grid.r2[mask]) ** 2
    err = np.abs(0.25 * lap[mask] - exact).max()
    return float(err) / grid.h ** 2


def check_fe_inequality(sol: TodaSolution, beta: float) -> CheckReport:
    """Discrete quarter-Laplacian of F against the pair-interaction bound,

        (1/4) Lap F <= -sum_j (D_{j-1} - D_j)(D_{j-1}^b - D_j^b) / sum_j D_j^b,

    with F the free energy against the flat reference D_ref = 1.

    Requires beta > 0 (negative beta sends the degenerate density weight
    to infinity at interior zeros).  The slack is the calibrated O(h^2)
    discretization error of the five-point Laplacian on the closed-form
    degenerate free energy over the same grid, also against the flat
    reference.  The Poincare reference is not offered: it cancels the
    degenerate profile, so the closed-form F is constant, the calibration
    absorbs the whole Laplacian of the Poincare density, and the slack
    (41.3 on r=3, q=z, n=65, rho=0.9) swallows a margin of -21.66.
    """
    if beta <= 0.0:
        return _not_applicable(
            "fe_inequality", _instance(sol, beta),
            "comparison stated for beta > 0")
    grid = sol.grid
    if grid.rho_max >= 1.0:
        return _not_applicable(
            "fe_inequality", _instance(sol, beta),
            "slack calibration needs a unit-subdisc domain")
    f = thermo_field(sol, beta).free_energy
    lhs = 0.25 * laplacian(grid, f).values
    rhs = _fe_rhs(sol, beta)
    gap = rhs - lhs
    c = calibrate_laplacian_slack(grid, sol.r, beta)
    slack = c * grid.h ** 2
    margin, worst, _ = _binding(grid, (("gap", gap),))
    notes = f"calibration c={c:.6g}, slack c*h^2={slack:.3e}"
    return _report("fe_inequality", _instance(sol, beta), margin, slack,
                   worst=worst, notes=notes)


def check_redundancy(sol: TodaSolution, beta: float) -> CheckReport:
    """Dichotomy for the redundancy floor.

    Constant weight is the plane-like branch: redundancy vanishes
    identically (for beta < 0 the degenerate slot is excluded, leaving the
    uniform ensemble on r-1 slots, so the floor is 1 - log(r-1)/log r).
    Every other instance here carries blow-up boundary data, so the floor
    must be strictly positive.  The degenerate instance must reproduce its
    closed-form floor 1 - S_model/log r.
    """
    tf = thermo_field(sol, beta)
    lo = tf.lower_redundancy
    inst = _instance(sol, beta)
    r = sol.r
    if sol.weight.kind == "constant":
        expected = 0.0 if beta > 0 else 1.0 - math.log(r - 1) / math.log(r)
        err = abs(lo - expected)
        return _report("redundancy_floor", inst, 1e-12 - err, 0.0,
                       notes=f"plane-like branch, floor {expected:.12g}, "
                             f"deviation {err:.3e}")
    if sol.weight.kind == "zero":
        expected = 1.0 - model_entropy(r, beta) / math.log(r)
        err = abs(lo - expected)
        margin = CLOSED_FORM_TOL - err
        return _report("redundancy_floor", inst, margin, 0.0,
                       notes=f"degenerate closed form {expected:.12g}, "
                             f"deviation {err:.3e}")
    worst = worst_node(sol.grid, tf.redundancy.values, sol.grid.interior)
    return _report("redundancy_floor", inst, lo, 0.0, worst=worst,
                   notes="bounded-domain branch: floor must be positive")


def check_monotonicity_in_t(weight: WeightDensity, grid: Grid, beta: float,
                            t_values: tuple) -> CheckReport:
    """Pointwise monotonicity of the solved family in the amplitude t.

    As t grows with everything else fixed: log-densities and the energy
    density rise, free energy falls, and entropy rises (entropy only for
    r <= 3, where the interlacing argument applies).  The free-energy drop
    between amplitudes is also sandwiched:

        0 <= F(t) - F(t') <= 2 log(t'/t) + (1/beta) log r   for t < t'.
    """
    if beta <= 0.0:
        raise ConfigurationError("monotonicity comparison needs beta > 0")
    ts = tuple(sorted(float(t) for t in t_values))
    if len(ts) < 2:
        raise ConfigurationError("need at least two amplitudes")
    cfg = SolverConfig(boundary="model_poincare")
    r = weight.r
    sols = [solve_toda(make_weight(weight.kind, r, t=t,
                                   coeffs=weight.coeffs,
                                   samples=weight.samples,
                                   value=weight.value), grid, cfg)
            for t in ts]
    skip_entropy = r > 3
    parts = []
    steps = list(zip(ts, sols, [thermo_field(s, beta) for s in sols]))
    for (t0, s0, tf0), (t1, s1, tf1) in zip(steps, steps[1:]):
        tag = f"{t0:g}->{t1:g}"
        parts.append((f"w_up {tag}",
                      (s1.w_array() - s0.w_array()).min(axis=0)))
        parts.append((f"energy_up {tag}",
                      energy_density(s1).values - energy_density(s0).values))
        drop = tf0.free_energy.values - tf1.free_energy.values
        parts.append((f"fe_down {tag}", drop))
        cap = 2.0 * math.log(t1 / t0) + math.log(r) / beta
        parts.append((f"fe_drop_cap {tag}", cap - drop))
        if not skip_entropy:
            parts.append((f"entropy_up {tag}",
                          tf1.entropy.values - tf0.entropy.values))
    margin, worst, binding = _binding(grid, parts)

    inst = (f"{weight.describe()} grid={grid.mode} n={grid.n} "
            f"rho={grid.rho_max:g} beta={beta:g} t={ts}")
    notes = f"binding part {binding}"
    if skip_entropy:
        notes += "; entropy comparison skipped for r > 3"
    return _report("monotone_in_t", inst, margin, MONOTONE_SLACK, worst=worst,
                   notes=notes)


def check_exhaustion(weight: WeightDensity, grid: Grid) -> CheckReport:
    """Nested-subdomain stages approach the final stage monotonically.

    Drift k is the sup-distance from stage k to the final stage over the
    first stage's interior; the list must decrease, its last entry being
    the gap between the last two stages.
    """
    sol = solve_toda(weight, grid, SolverConfig(boundary="exhaustion"))
    drifts = sol.exhaustion_drifts
    if len(drifts) < 2:
        return _not_applicable("exhaustion_drift", _instance(sol),
                               "grid too small for a nested ladder")
    margin = min(a - b for a, b in zip(drifts, drifts[1:]))
    notes = "drifts to final " + " ".join(f"{d:.3e}" for d in drifts)
    return _report("exhaustion_drift", _instance(sol), margin, 0.0,
                   notes=notes)


# ---------------------------------------------------------------------------
# suites


SUITES = ("core", "smoke")


def _suite_weights(r: int) -> list:
    return [
        make_weight("constant", r, value=1.0),
        make_weight("zero", r),
        make_weight("poly", r, coeffs=[0.0, 1.0]),
        make_weight("poly", r, coeffs=[-0.25, 0.0, 1.0]),
    ]


def run_suite(name: str = "core", seed: int = 0) -> list:
    if name not in SUITES:
        raise ConfigurationError(f"suite must be one of {SUITES}, got {name!r}")
    t0 = time.monotonic()
    if name == "core":
        n, rho = 129, 0.9
        ranks = (2, 3, 4)
        ladder = (65, 129, 257)
        betas = (1.0, -1.0)
    else:
        n, rho = 33, 0.9
        ranks = (2, 3)
        ladder = (17, 33, 65)
        betas = (1.0,)
    grid = build_grid("cartesian", n, rho)
    reports: list = [check_model_constants()]
    reports.append(check_jacobian(
        make_weight("poly", 3, coeffs=[0.0, 1.0]),
        build_grid("cartesian", 33, rho), seed=seed))
    for r in ranks:
        reports.append(check_flat_exactness(r, grid))
        reports.append(check_model_order(r, ladder, rho))
        for weight in _suite_weights(r):
            cfg = SolverConfig(boundary=("weight_flat"
                                         if weight.kind == "constant"
                                         else "model_poincare"))
            sol = solve_toda(weight, grid, cfg)
            reports.append(check_density_band(sol))
            for beta in betas:
                reports.append(check_entropy_bounds(sol, beta))
                reports.append(check_redundancy(sol, beta))
            reports.append(check_fe_inequality(sol, 1.0))
    if name == "core":
        reports.append(check_monotonicity_in_t(
            make_weight("poly", 2, coeffs=[0.0, 1.0]), grid, 1.0,
            (0.5, 1.0, 2.0)))
        reports.append(check_exhaustion(
            make_weight("poly", 3, coeffs=[0.0, 1.0]), grid))
    log.info("suite %s: %d checks in %.1fs", name, len(reports),
             time.monotonic() - t0)
    return reports


def suite_passed(reports) -> bool:
    return all(rep.passed for rep in reports)


def render_table(reports) -> str:
    rows = [("check", "instance", "status", "margin", "slack")]
    for rep in reports:
        rows.append((rep.name, rep.instance,
                     "pass" if rep.passed else "FAIL",
                     f"{rep.margin:+.3e}", f"{rep.slack:.1e}"))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * widths[i] for i in range(5)))
    for rep in reports:
        if rep.notes and not rep.passed:
            lines.append(f"  {rep.name}: {rep.notes}")
    tally = sum(1 for rep in reports if rep.passed)
    lines.append(f"{tally}/{len(reports)} checks passed")
    return "\n".join(lines) + "\n"


def reports_to_dict(reports, suite: str) -> dict:
    return {
        "schema": "verify-report/1",
        "suite": suite,
        "passed": suite_passed(reports),
        "checks": [rep.to_dict() for rep in reports],
    }
