import math
from dataclasses import replace

import numpy as np
import pytest

from todakit.errors import (ConfigurationError, ConvergenceError,
                            ValidationError)
from todakit.grid import Field, build_grid, inner_mask, make_field
from todakit.toda import (SolverConfig, compute_v0, energy_density,
                          model_log_densities, recover_diagonal_metric,
                          solve_toda, toda_residual)
from todakit.weight import evaluate_density, lambda_coefficients, make_weight

# ---------------------------------------------------------------------------
# Residual oracles.  Two states where the residual is known independently:
#
# 1. Constant fields w_j = log(Q)/r with constant Q: every slot density
#    equals Q^{1/r}, the Laplacian of a constant vanishes, so N_j = 0 in
#    exact arithmetic.
#
# 2. The blow-up profile w_j = log(lam_j) - 2 log(1-|z|^2) with Q = 0:
#    the exponential terms cancel to 2 e^u by the Cartan identity
#    (2 lam_j - lam_{j-1} - lam_{j+1} = 2), leaving the pure truncation
#    error of the five-point stencil on u = -2 log(1-|z|^2).  At z = 0 the
#    Taylor expansion u = 2 rho^2 + rho^4 + ... gives
#        N_j(0) = (1/4) * (h^2/12) * (u_xxxx + u_yyyy)(0) + O(h^4)
#               = (1/4) * (h^2/12) * 48 = h^2,
#    the same value for every component j and every rank r.
# ---------------------------------------------------------------------------


def _fields(grid, w):
    return [make_field(grid, row) for row in w]


def test_residual_zero_on_constant_state():
    g = build_grid("cartesian", 17, 0.8)
    for r, qval in [(2, 1.0), (3, 1.0), (4, math.e ** 2)]:
        weight = make_weight("constant", r, value=qval)
        w = np.full((r - 1, g.nodes), math.log(qval) / r)
        res = toda_residual(_fields(g, w), weight)
        for f in res:
            # zero but for the rounding of V_0 = Q exp(-sum w), which
            # leaves -2.2e-16 in the V_0 rows at r = 4
            assert f.values.max() == 0.0 and np.abs(f.values).max() <= 1e-15
            assert np.all(f.values[g.boundary] == 0.0)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_residual_center_value_on_blowup_profile(r):
    # N_j(0) = h^2 * (1 + O(h^2)) for the degenerate closed form
    g = build_grid("cartesian", 65, 0.8)
    w = model_log_densities(g, r)
    res = toda_residual(_fields(g, w), make_weight("zero", r))
    center = int(np.argmin(g.r2))
    assert g.r2[center] == 0.0
    h2 = g.h * g.h
    for f in res:
        assert abs(f.values[center] / h2 - 1.0) < 0.05


def test_residual_on_blowup_profile_shrinks_at_second_order():
    errs = []
    for n in (17, 33, 65):
        g = build_grid("cartesian", n, 0.8)
        w = model_log_densities(g, 3)
        res = toda_residual(_fields(g, w), make_weight("zero", 3))
        mask = inner_mask(g, 3 * (2 * 0.8 / 16))  # fixed region, coarsest h
        errs.append(max(np.abs(f.values[mask]).max() for f in res))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 < o < 2.3 for o in orders)


@pytest.mark.parametrize("fn", [toda_residual], ids=lambda fn: fn.__name__)
def test_residual_rejects_nonfinite_state(fn):
    g = build_grid("cartesian", 9, 0.8)
    w = np.zeros((1, g.nodes))
    w[0, 5] = np.inf
    fields = [Field(g, row) for row in w]  # bypass make_field validation
    with pytest.raises(ValidationError):
        fn(fields, make_weight("constant", 2, value=1.0))


@pytest.mark.parametrize("fn", [toda_residual], ids=lambda fn: fn.__name__)
def test_residual_rejects_empty_input(fn):
    with pytest.raises(ConfigurationError):
        fn((), make_weight("constant", 2, value=1.0))


def test_compute_v0_vanishes_with_weight():
    g = build_grid("cartesian", 9, 0.8)
    q = evaluate_density(make_weight("poly", 2, coeffs=[0, 1]), g).values
    w = np.full((1, g.nodes), 0.7)
    v0 = compute_v0(w, q)
    assert v0[int(np.argmin(g.r2))] == 0.0  # Q(0) = 0 exactly
    assert np.allclose(v0, q * math.exp(-0.7), rtol=1e-15)


# ---------------------------------------------------------------------------
# Jacobian: central finite differences of the residual along a random
# direction must match the product J d that Newton applies to second order
# in the step.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["cartesian", "radial"])
def test_jacobian_matches_finite_differences(mode):
    import todakit.toda as toda

    g = build_grid(mode, 17, 0.8)
    r = 3
    # radial grids accept monomial weights only
    coeffs = [0.3, 1.0] if mode == "cartesian" else [0, 1]
    weight = make_weight("poly", r, coeffs=coeffs)
    rng = np.random.default_rng(7)
    w = model_log_densities(g, r) + 0.05 * rng.standard_normal((r - 1, g.nodes))
    w[:, g.boundary] = model_log_densities(g, r)[:, g.boundary]
    sys = toda._System(g, r, g.interior)
    idx = sys.idx
    assert np.array_equal(idx, np.flatnonzero(g.interior))

    d = rng.standard_normal((r - 1, len(idx)))
    blocks = sys.pointwise(w, evaluate_density(weight, g).values)
    jd = sys.matvec(blocks, d.reshape(-1)).reshape(r - 1, len(idx))

    def res_at(wmat):
        res = toda_residual(_fields(g, wmat), weight)
        return np.stack([f.values[idx] for f in res])

    errs = []
    for eps in (1e-3, 1e-4):
        bump = np.zeros_like(w)
        bump[:, idx] = d
        fd = (res_at(w + eps * bump) - res_at(w - eps * bump)) / (2.0 * eps)
        errs.append(np.abs(fd - jd).max())
    order = math.log10(errs[0] / errs[1])
    assert order >= 1.9


def _coo_jacobian(sys, w, q):
    # the Jacobian assembled from its triplets: the Laplacian block down the
    # diagonal, then pointwise entry (a, b) at node i in row a*k+i, column
    # b*k+i, with duplicates summed by the COO-to-CSR conversion
    from scipy.sparse import coo_matrix

    m, k = sys.m, sys.k
    e = np.exp(w[:, sys.idx])
    v0 = q[sys.idx] * np.exp(-w[:, sys.idx].sum(axis=0))
    blocks = np.zeros((m, m, k))
    for a in range(m):
        blocks[a, a] = -2.0 * e[a]
        if a > 0:
            blocks[a, a - 1] += e[a - 1]
        if a < m - 1:
            blocks[a, a + 1] += e[a + 1]
    blocks[0] += -v0
    blocks[m - 1] += -v0
    lap = sys.lap[:, sys.idx].tocoo()
    shift = k * np.arange(m)
    node = np.arange(k)
    rows = np.concatenate([(shift[:, None] + lap.row).ravel(),
                           np.repeat(shift, m * k) + np.tile(node, m * m)])
    cols = np.concatenate([(shift[:, None] + lap.col).ravel(),
                           np.tile(np.repeat(shift, k), m) + np.tile(node, m * m)])
    data = np.concatenate([np.tile(lap.data, m), blocks.ravel()])
    return coo_matrix((data, (rows, cols)), shape=(m * k, m * k)).tocsr()


@pytest.mark.parametrize("mode, r", [("cartesian", 2), ("cartesian", 4),
                                     ("cartesian", 8), ("radial", 3)])
def test_jacobian_refill_matches_coo_assembly(mode, r):
    # on the interior and on an exhaustion stage's smaller active set, at
    # states with Q = 0 at some nodes: the matrix-free product Newton
    # applies equals the full Jacobian assembled from its triplets, to
    # roundoff.  Folded, it is the full product at the mirrored state
    # u[fold] along the mirrored direction x[fold], read on the first m
    # equations
    import todakit.toda as toda

    g = build_grid(mode, 33, 0.9)
    rng = np.random.default_rng(r)
    cut = 0.8 - 0.5 * g.h
    for active in (g.interior, g.interior & (g.r2 < cut * cut)):
        full = toda._System(g, r, active)
        for mirror in (False, True):
            sys = toda._System(g, r, active, mirror=mirror)
            for _ in range(2):
                u = rng.standard_normal((sys.m, g.nodes))
                q = rng.random(g.nodes) * (rng.random(g.nodes) < 0.7)
                x = rng.standard_normal((sys.m, sys.k))
                ref = (_coo_jacobian(full, u[sys.fold], q)
                       @ x[sys.fold].ravel())[:sys.m * sys.k]
                got = sys.matvec(sys.pointwise(u, q), x.ravel())
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# Solver.
# ---------------------------------------------------------------------------


def test_flat_weight_is_solved_exactly_without_iterating():
    g = build_grid("cartesian", 33, 0.9)
    for r in (2, 3, 5):
        weight = make_weight("constant", r, value=1.0)
        sol = solve_toda(weight, g, SolverConfig(boundary="weight_flat"))
        assert sol.iterations == 0
        assert sol.residual_sup == 0.0
        assert all(np.all(f.values == 0.0) for f in sol.w)
        assert np.all(sol.v0.values == 1.0)


def test_flat_weight_nonunit_value():
    g = build_grid("cartesian", 17, 0.9)
    weight = make_weight("constant", 4, value=math.e ** 2)
    sol = solve_toda(weight, g, SolverConfig(boundary="weight_flat"))
    assert sol.iterations == 0
    for f in sol.w:
        assert np.allclose(f.values, 0.5, rtol=1e-15)


def test_degenerate_weight_keeps_lambda_ratios():
    # with Q = 0 the discrete system couples components only through the
    # Cartan combination, so the solved offsets log(lam_j / lam_1) survive
    # discretization exactly (up to solver tolerance)
    g = build_grid("cartesian", 65, 0.9)
    sol = solve_toda(make_weight("zero", 4), g)
    lam = lambda_coefficients(4)
    w = sol.w_array()
    for j in (1, 2):
        gap = w[j] - w[0] - math.log(lam[j] / lam[0])
        assert np.abs(gap[g.interior]).max() <= 1e-9
    assert np.all(sol.v0.values == 0.0)


def test_solution_approaches_blowup_profile():
    errs = []
    for n in (17, 33, 65):
        g = build_grid("cartesian", n, 0.8)
        sol = solve_toda(make_weight("zero", 2), g)
        exact = model_log_densities(g, 2)
        mask = inner_mask(g, 3 * (2 * 0.8 / 16))
        errs.append(np.abs(sol.w_array() - exact)[:, mask].max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 < o < 2.3 for o in orders)


def test_polynomial_weight_solution_properties():
    g = build_grid("cartesian", 65, 0.9)
    weight = make_weight("poly", 3, coeffs=[0, 1])  # q(z) = z
    sol = solve_toda(weight, g)
    assert sol.residual_sup <= 1e-10
    assert sol.boundary_strategy == "model_poincare"
    # q real on the real axis and |q| radial: components mirror under j -> r-j
    w = sol.w_array()
    assert np.abs(w[0] - w[1]).max() <= 1e-9
    center = int(np.argmin(g.r2))
    assert sol.v0.values[center] == 0.0
    # residual history is strictly decreasing (Armijo-damped Newton)
    hist = sol.residual_history
    assert len(hist) >= 2
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_provided_initial_guess_reconverges_immediately():
    g = build_grid("cartesian", 33, 0.9)
    weight = make_weight("poly", 2, coeffs=[0, 1])
    sol = solve_toda(weight, g)
    again = solve_toda(weight, g, SolverConfig(provided_w=sol.w))
    assert again.iterations == 0
    assert np.array_equal(again.w_array(), sol.w_array())


def test_asymmetric_provided_guess_is_symmetrized():
    # the solver iterates the mirror-symmetric half of the fields and starts
    # from (w_j + w_{r-j}) / 2: a solution plus an antisymmetric perturbation
    # is accepted without a step (taking rows 1..r//2 as they are would
    # start off the solution), and any asymmetric guess ends at a solution
    # of all r-1 equations, the model-start one.  The solves run to 1e-12,
    # so that each is that close to the discrete solution.
    from todakit.io import RELOAD_RESIDUAL_TOL

    g = build_grid("cartesian", 33, 0.9)
    weight = make_weight("poly", 4, coeffs=[0, 1])
    cfg = SolverConfig(tolerance=1e-12)
    ref = solve_toda(weight, g, cfg)
    odd = ref.w_array() + 0.3 * np.array([1.0, 0.0, -1.0])[:, None]
    again = solve_toda(weight, g,
                       replace(cfg, provided_w=tuple(_fields(g, odd))))
    assert again.iterations == 0
    assert np.abs(again.w_array() - ref.w_array()).max() <= 1e-12
    w = model_log_densities(g, 4)
    w[0] += 0.2 * g.x
    w[2] -= 0.1 * g.y
    sol = solve_toda(weight, g, replace(cfg, provided_w=tuple(_fields(g, w))))
    full = max(float(np.abs(f.values).max())
               for f in toda_residual(sol.w, weight))
    assert full <= cfg.tolerance
    assert abs(full - sol.residual_sup) <= RELOAD_RESIDUAL_TOL
    assert np.abs(sol.w_array() - ref.w_array()).max() <= 1e-12


def test_large_amplitude_exhaustion_converges():
    # every exhaustion stage converges at the default iteration bound
    g = build_grid("cartesian", 17, 0.9)
    weight = make_weight("poly", 2, t=1e3, coeffs=[0.3, 1])
    sol = solve_toda(weight, g, SolverConfig(boundary="exhaustion"))
    assert sol.iterations == 27
    assert sol.residual_sup <= 1e-10


@pytest.mark.parametrize("boundary, rho", [("model_poincare", "0.9"),
                                           ("weight_flat", "0.9"),
                                           ("exhaustion", "0.8")])
def test_solver_reports_stall_with_history(boundary, rho):
    # every stall raises from the stage loop in one format: the failing
    # stage's rho, then the last residual
    g = build_grid("cartesian", 17, 0.9)
    weight = make_weight("poly", 2, t=1e6, coeffs=[0, 1])
    cfg = SolverConfig(boundary=boundary, max_iterations=3)
    with pytest.raises(ConvergenceError) as err:
        solve_toda(weight, g, cfg)
    history = err.value.residual_history
    assert history
    assert str(err.value) == (f"newton stalled in stage rho={rho} "
                              f"(residual {history[-1]:.3e})")


def test_solver_config_validation():
    # an invalid setting raises when the config is built
    with pytest.raises(ConfigurationError):
        SolverConfig(boundary="periodic")
    with pytest.raises(ConfigurationError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iterations=0)
    # types are checked as build_grid and make_weight check them: no bool,
    # str or non-integer count is coerced
    for bad in ({"max_iterations": 2.5}, {"max_iterations": True},
                {"tolerance": "0.1"}):
        with pytest.raises(ConfigurationError):
            SolverConfig(**bad)


def test_model_boundary_requires_subunit_disc():
    g = build_grid("cartesian", 17, 1.0)
    with pytest.raises(ConfigurationError):
        solve_toda(make_weight("zero", 2), g)


def test_weight_flat_boundary_needs_positive_ring():
    # Q = 1 inside and 0 on the boundary: the flat start exists, the flat
    # Dirichlet data does not
    g = build_grid("cartesian", 17, 0.9)
    cfg = SolverConfig(boundary="weight_flat")
    weight = make_weight("grid", 2, samples=g.interior.astype(float))
    with pytest.raises(ConfigurationError):
        solve_toda(weight, g, cfg)


def test_weight_flat_ring_is_what_interior_stencils_read():
    # Q = 0 at one boundary neighbour of an interior node breaks the flat
    # Dirichlet data; Q = 0 at a square corner, which no stencil reads,
    # does not, and the corner keeps the floored flat profile
    # log(1e-12 max Q) / r
    g = build_grid("cartesian", 17, 0.9)
    cfg = SolverConfig(boundary="weight_flat")
    row = np.flatnonzero(g.y == 0.0)
    ring_node = row[np.flatnonzero(g.interior[row]).max() + 1]
    assert g.boundary[ring_node]
    for node, fails in ((ring_node, True), (0, False)):
        samples = np.ones(g.nodes)
        samples[node] = 0.0
        weight = make_weight("grid", 2, samples=samples)
        if fails:
            with pytest.raises(ConfigurationError):
                solve_toda(weight, g, cfg)
        else:
            sol = solve_toda(weight, g, cfg)
            assert sol.iterations == 0 and sol.residual_sup == 0.0
            assert sol.w[0].values[node] == np.log(1e-12) / 2


@pytest.mark.parametrize("weight, n, cfg, systems", [
    pytest.param(make_weight("poly", 2, coeffs=[0, 1]), 33, SolverConfig(),
                 1, id="model_poincare-1"),
    pytest.param(make_weight("poly", 2, coeffs=[0, 1]), 33,
                 SolverConfig(boundary="exhaustion"), 3, id="exhaustion-3")])
def test_solve_evaluates_density_once(monkeypatch, weight, n, cfg, systems):
    # one density evaluation per solve, and one system per stage
    import todakit.toda as toda

    calls = {"evaluate_density": 0, "_System": 0}
    for name in calls:
        real = getattr(toda, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(toda, name, counted)
    sol = solve_toda(weight, build_grid("cartesian", n, 0.9), cfg)
    assert sol.iterations > 0 and sol.residual_sup <= 1e-10
    assert calls == {"evaluate_density": 1, "_System": systems}
    # the reported residual is that of the returned fields
    res = toda_residual(sol.w, weight)
    assert sol.residual_sup == max(float(np.abs(f.values).max()) for f in res)


@pytest.mark.parametrize("weight, mode, n, boundary", [
    pytest.param(make_weight("poly", 3, coeffs=[-0.1, 1]), "cartesian", 65,
                 "model_poincare", id="cartesian-n65-reduced"),
    pytest.param(make_weight("poly", 3, coeffs=[-0.1, 1]), "cartesian", 81,
                 "model_poincare", id="cartesian-n81-vcycle"),
    pytest.param(make_weight("poly", 3, coeffs=[-0.1, 1]), "cartesian", 33,
                 "exhaustion", id="exhaustion"),
    pytest.param(make_weight("poly", 4, coeffs=[0.2, 1]), "cartesian", 33,
                 "weight_flat", id="weight_flat"),
    pytest.param(make_weight("poly", 3, coeffs=[0, 1]), "radial", 129,
                 "model_poincare", id="radial")])
def test_solves_on_one_plan_match_standalone_solves(weight, mode, n,
                                                    boundary):
    # the plan holds nothing a solve leaves behind: amplitudes solved in
    # sequence on one plan give, bit for bit, what a solve of each alone
    # gives, through the reduced factor, the V-cycle, the exhaustion
    # ladder, the flat boundary and the radial banded step
    import todakit.toda as toda

    g = build_grid(mode, n, 0.9)
    cfg = SolverConfig(boundary=boundary)
    plan = toda._plan(g, weight.r, boundary)
    if mode == "cartesian" and boundary == "model_poincare":
        assert (plan.stages[-1].k > toda._DIRECT_SIZE) == (n == 81)
    weights = [replace(weight, t=t) for t in (2.0, 0.5, 8.0)]
    on_plan = [solve_toda(wt, g, cfg, plan=plan) for wt in weights]
    for wt, sol in zip(weights, on_plan):
        alone = solve_toda(wt, g, cfg)
        assert np.array_equal(sol.w_array(), alone.w_array())
        assert np.array_equal(sol.v0.values, alone.v0.values)
        assert sol.iterations == alone.iterations
        assert sol.residual_history == alone.residual_history
        assert sol.exhaustion_drifts == alone.exhaustion_drifts
    assert len(on_plan[0].exhaustion_drifts) == len(plan.stages) - 1


@pytest.mark.parametrize("weight, n, boundary", [
    (make_weight("poly", 2, coeffs=[0, 1]), 17, "model_poincare"),
    (make_weight("poly", 3, coeffs=[0, 1]), 33, "model_poincare"),
    (make_weight("poly", 3, coeffs=[0, 1]), 17, "exhaustion")])
def test_solve_rejects_a_plan_for_other_inputs(weight, n, boundary):
    import todakit.toda as toda

    plan = toda._plan(build_grid("cartesian", 17, 0.9), 3, "model_poincare")
    with pytest.raises(ConfigurationError, match="plan for grid"):
        solve_toda(weight, build_grid("cartesian", n, 0.9),
                   SolverConfig(boundary=boundary), plan=plan)


@pytest.mark.parametrize("weight, cfg, misses", [
    (make_weight("poly", 4, coeffs=[0, 1]), SolverConfig(), False),
    (make_weight("poly", 3, coeffs=[0, 1]), SolverConfig(boundary="exhaustion"),
     False),
    (make_weight("constant", 6, t=1e6, value=1), SolverConfig(), True)])
def test_one_newton_run_per_stage(monkeypatch, weight, cfg, misses):
    # one Newton run per stage: plain, exhaustion, and where CG misses its
    # forcing term and Newton takes inexact steps
    import todakit.toda as toda

    runs = _counted(monkeypatch, toda, "_newton")
    infos = _cg_infos(monkeypatch)
    sol = solve_toda(weight, build_grid("cartesian", 17, 0.9), cfg)
    assert sol.iterations > 0 and sol.residual_sup <= 1e-10
    assert len(runs) == len(sol.exhaustion_drifts) + 1
    assert any(infos) == misses


def test_solve_converges_past_n257(monkeypatch):
    # every cartesian Newton step is one preconditioned CG solve, at every
    # grid size
    import todakit.toda as toda

    calls = _counted(monkeypatch, toda, "cg")
    weight = make_weight("poly", 2, coeffs=[0, 1])
    sol = solve_toda(weight, build_grid("cartesian", 289, 0.9))
    res = toda_residual(sol.w, weight)
    assert max(float(np.abs(f.values).max()) for f in res) <= 1e-10
    assert sol.iterations > 0 and len(calls) == sol.iterations


@pytest.mark.parametrize("mode, n", [("cartesian", 33)])
@pytest.mark.parametrize("r", [2, 3, 8])
def test_preconditioner_inverts_degenerate_jacobian(mode, n, r):
    # at Q = 0 and the model state the preconditioner is the exact inverse
    # of the Newton Jacobian
    import todakit.toda as toda

    g = build_grid(mode, n, 0.9)
    sys = toda._System(g, r, g.interior)
    w = model_log_densities(g, r)
    q = np.zeros(g.nodes)
    x = np.random.default_rng(r).standard_normal(sys.m * sys.k)
    back = sys.preconditioner(w, q)(sys.matvec(sys.pointwise(w, q), x))
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("mode, n", [("cartesian", 33)])
@pytest.mark.parametrize("r", [3, 4, 8])
def test_folded_preconditioner_inverts_folded_degenerate_jacobian(mode, n, r):
    # the same on the mirror-folded system the solver iterates: r//2
    # Helmholtz blocks, one per odd k in k(k+1)
    import todakit.toda as toda

    g = build_grid(mode, n, 0.9)
    sys = toda._System(g, r, g.interior, mirror=True)
    assert sys.m == r // 2
    u = model_log_densities(g, r)[:sys.m]
    q = np.zeros(g.nodes)
    x = np.random.default_rng(r).standard_normal(sys.m * sys.k)
    back = sys.preconditioner(u, q)(sys.matvec(sys.pointwise(u, q), x))
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_preconditioner_is_fitted_to_its_arguments():
    # each call builds P^-1 from the state it is given: after a call at the
    # model state, a call at a state with e^u scaled by e inverts the
    # degenerate Jacobian there
    import todakit.toda as toda

    g = build_grid("cartesian", 17, 0.9)
    sys = toda._System(g, 3, g.interior, mirror=True)
    u = model_log_densities(g, 3)[:sys.m]
    q = np.zeros(g.nodes)
    x = np.random.default_rng(0).standard_normal(sys.m * sys.k)
    first = sys.preconditioner(u, q)(x)
    second = sys.preconditioner(u + 1.0, q)(x)
    assert not np.allclose(first, second)
    back = sys.preconditioner(u + 1.0, q)(
        sys.matvec(sys.pointwise(u + 1.0, q), x))
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def _folded_jacobian(sys, u, q):
    # the Jacobian of `sys` at state u, assembled sparse: (1/4) L on the
    # active set down the diagonal plus the pointwise block (a, b) as a
    # diagonal in block row a, column b
    from scipy.sparse import bmat, diags, identity, kron

    blocks = sys.pointwise(u, q)
    point = bmat([[diags(blocks[a, b]) for b in range(sys.m)]
                  for a in range(sys.m)])
    return (kron(identity(sys.m), sys.lap_active) + point).tocsc()


def _random_state(g, r, m, seed):
    # the model state plus 0.3 N(0, 1) per node, and a q = z + 0.3 weight
    # at t = 30, so V_0 couples the fields at every node but one
    rng = np.random.default_rng(seed)
    u = model_log_densities(g, r)[:m] + 0.3 * rng.standard_normal((m, g.nodes))
    q = evaluate_density(make_weight("poly", r, t=30.0, coeffs=[0.3, 1]), g)
    return u, q.values


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 8])
def test_metric_makes_the_jacobian_symmetric_negative_definite(r, mirror):
    # with M = S^T C^-1 S, (M x I) J is the Hessian of a concave energy:
    # symmetric to roundoff, and its symmetric part is negative definite
    import todakit.toda as toda

    g = build_grid("cartesian", 17, 0.9)
    sys = toda._System(g, r, g.interior, mirror=mirror)
    assert sys.m == (r // 2 if mirror else r - 1)
    u, q = _random_state(g, r, sys.m, r)
    mj = np.kron(sys.metric, np.eye(sys.k)) @ \
        _folded_jacobian(sys, u, q).toarray()
    assert np.linalg.norm(mj - mj.T) <= 1e-14 * np.linalg.norm(mj)
    assert np.linalg.eigvalsh(0.5 * (mj + mj.T)).max() < 0.0


def _first_cg_call(monkeypatch, weight, g, cfg=None):
    """(args, kwargs, result) of the first CG call of a solve."""
    import todakit.toda as toda

    calls = []
    real = toda.cg

    def recorded(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(toda, "cg", recorded)
    solve_toda(weight, g, cfg)
    return calls[0]


@pytest.mark.parametrize("r, vcycle", [(3, False), (4, False), (5, False),
                                       (3, True), (4, True)])
def test_cg_preconditioner_is_symmetric_positive_definite(monkeypatch, r,
                                                         vcycle):
    # -P^-1 (M^-1 x I) = -(M P)^-1, as CG is handed it on the first step,
    # with every block solved exactly by its red-black reduced system and
    # with every block solved by a V-cycle (the direct size lowered so that
    # n = 33 coarsens twice)
    import todakit.toda as toda

    if vcycle:
        monkeypatch.setattr(toda, "_DIRECT_SIZE", 200)
    coarsened = _counted(monkeypatch, toda, "_coarsen")
    reduced = _counted(monkeypatch, toda, "_ReducedCholesky")
    (op, rhs), kwargs, _ = _first_cg_call(
        monkeypatch, make_weight("poly", r, coeffs=[0.3, 1]),
        build_grid("cartesian", 33, 0.9))
    assert len(coarsened) == (2 if vcycle else 0)
    assert len(reduced) == (0 if vcycle else r // 2)
    prec = np.stack([kwargs["M"].matvec(col) for col in np.eye(len(rhs))],
                    axis=1)
    assert np.linalg.norm(prec - prec.T) <= 1e-13 * np.linalg.norm(prec)
    assert np.linalg.eigvalsh(0.5 * (prec + prec.T)).min() > 0.0


@pytest.mark.parametrize("n", [33, 129])
def test_cg_step_matches_direct_solve(monkeypatch, n):
    # the first Newton step of a solve from a state away from the model,
    # with Q != 0, against a sparse direct solve of the folded Jacobian
    # there: its M-scaled residual is within the forcing term 1e-4 of the
    # right-hand side's, and CG on the same operator and right-hand side at
    # rtol = 1e-12 gives the direct step.  At n = 129 the preconditioner's
    # blocks are above the direct size and are solved by V-cycles.
    from scipy.sparse.linalg import spsolve

    import todakit.toda as toda

    coarsened = _counted(monkeypatch, toda, "_coarsen")
    r = 4
    g = build_grid("cartesian", n, 0.9)
    weight = make_weight("poly", r, coeffs=[0.3, 1])
    w = model_log_densities(g, r)
    w[:, g.interior] += 0.3 * g.x[g.interior] * g.y[g.interior] + 0.1
    (op, rhs), kwargs, (delta, info) = _first_cg_call(
        monkeypatch, weight, g, SolverConfig(provided_w=tuple(_fields(g, w))))
    assert bool(coarsened) == (n == 129)
    sys = toda._System(g, r, g.interior, mirror=True)
    u, q = w[:sys.m], evaluate_density(weight, g).values
    n_act = sys.residual(u, q).ravel()
    jac = _folded_jacobian(sys, u, q)
    direct = spsolve(jac, -n_act)
    assert info == 0 and kwargs["rtol"] == 1e-4
    assert np.abs(direct).max() > 1e-3

    def scaled(x):
        return np.kron(sys.metric, np.eye(sys.k)) @ x

    assert np.linalg.norm(scaled(jac @ delta + n_act)) <= \
        1e-4 * np.linalg.norm(scaled(n_act))
    exact, info = toda.cg(op, rhs, **{**kwargs, "rtol": 1e-12})
    assert info == 0
    assert np.abs(exact - direct).max() <= 1e-10 * np.abs(direct).max()


def _bilinear_reference(n, nodes):
    # node (iy, ix) takes a quarter from each of the coarse nodes
    # (iy // 2 or (iy + 1) // 2, ix // 2 or (ix + 1) // 2), summed where
    # they coincide; columns are the coarse nodes some row touches
    nc = n // 2 + 1
    dense = np.zeros((len(nodes), nc * nc))
    for row, node in enumerate(nodes):
        iy, ix = divmod(int(node), n)
        for py in (iy // 2, (iy + 1) // 2):
            for px in (ix // 2, (ix + 1) // 2):
                dense[row, py * nc + px] += 0.25
    coarse = np.flatnonzero(dense.any(axis=0))
    return dense[:, coarse], coarse, nc


@pytest.mark.parametrize("n, mask", [(33, "disc"), (33, "exhaustion"),
                                     (33, "random"), (34, "random")])
def test_coarsen_matches_bilinear_reference(n, mask):
    # the prolongation onto a disc, an exhaustion stage's subdisc and a
    # random node set equals the bilinear construction entry for entry, in
    # canonical CSR (sorted columns, no duplicates, no stored zeros) with
    # the same arrays, and each level stores its restriction as the
    # transpose in CSR
    from scipy.sparse import csr_matrix

    import todakit.toda as toda

    g = build_grid("cartesian", n, 0.9)
    active = {"disc": g.interior,
              "exhaustion": g.interior & (g.r2 < 0.75 ** 2),
              "random": np.random.default_rng(n).random(g.nodes) < 0.4}[mask]
    nodes = np.flatnonzero(active)
    p, coarse, nc = toda._coarsen(n, nodes)
    ref, ref_coarse, ref_nc = _bilinear_reference(n, nodes)
    assert nc == ref_nc and np.array_equal(coarse, ref_coarse)
    ref = csr_matrix(ref)
    for part in ("indptr", "indices", "data"):
        got, want = getattr(p, part), getattr(ref, part)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for p, pt in toda._prolongations(g, nodes):
        assert pt.format == "csr" and (pt != p.T).nnz == 0

def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _cg_infos(monkeypatch, rtols=None):
    """The `info` of every CG call the solver makes, in order; with a list
    `rtols`, each call's `rtol` is appended to it."""
    import todakit.toda as toda

    infos = []
    real = toda.cg

    def spy(*args, **kwargs):
        delta, info = real(*args, **kwargs)
        infos.append(info)
        if rtols is not None:
            rtols.append(kwargs["rtol"])
        return delta, info

    monkeypatch.setattr(toda, "cg", spy)
    return infos


def test_small_blocks_build_no_coarse_level(monkeypatch):
    # at n = 65 every block is at most the direct size: it is factored
    # whole, with no coarse level
    import todakit.toda as toda

    g = build_grid("cartesian", 65, 0.9)
    assert g.interior.sum() <= toda._DIRECT_SIZE
    coarsened = _counted(monkeypatch, toda, "_coarsen")
    sol = solve_toda(make_weight("poly", 3, coeffs=[0, 1]), g)
    assert sol.iterations > 0 and not coarsened


@pytest.mark.parametrize("mode, n", [("cartesian", 129), ("cartesian", 257)])
def test_vcycle_contracts_every_block(mode, n):
    # one V-cycle leaves at most a fifth of the error, ||x - M^-1 A x|| <=
    # 0.2 ||x||, on each Helmholtz block of the degenerate preconditioner
    from scipy.sparse import diags

    import todakit.toda as toda

    r = 3
    g = build_grid(mode, n, 0.9)
    sys = toda._System(g, r, g.interior)
    w = model_log_densities(g, r)
    e_u = np.exp(w[:, sys.idx]).sum(axis=0) / lambda_coefficients(r).sum()
    prolongations = toda._prolongations(g, sys.idx)
    assert prolongations
    x = np.random.default_rng(n).standard_normal(sys.k)
    for k in range(1, r):
        block = sys.lap[:, sys.idx] - diags(k * (k + 1) * e_u)
        back = toda._VCycle(block, prolongations).solve(block @ x)
        assert np.linalg.norm(x - back) <= 0.2 * np.linalg.norm(x)


def _helmholtz_shift(g, active):
    # the shift c of the preconditioner's k = 1 block (1/4) L_A - diag(c)
    # for r = 3 at the model state of a q = z weight: c = 2 e^u
    import todakit.toda as toda

    sys = toda._System(g, 3, active, mirror=True)
    q = evaluate_density(make_weight("poly", 3, t=3.0, coeffs=[0, 1]), g)
    e, v0 = sys._densities(model_log_densities(g, 3)[:sys.m], q.values)
    e_u = (e[sys.fold].sum(axis=0) + v0) / lambda_coefficients(3).sum()
    return sys, 2.0 * e_u


def _factored_blocks(monkeypatch):
    """Every sparse block whose band is handed to the banded Cholesky
    factor whole, in order."""
    import todakit.toda as toda

    factored = []
    real = toda._upper_band

    def recorded(a):
        factored.append(a.tocsr())
        return real(a)

    monkeypatch.setattr(toda, "_upper_band", recorded)
    return factored


def _reduced_blocks(monkeypatch):
    """(red-black split, shift c, reduced factor) of every block the solver
    factors by its red-black reduced system, in order; each split records
    the grid and active nodes it was built on as `args`."""
    import todakit.toda as toda

    reduced = []

    class Recorded(toda._RedBlack):
        def __init__(self, grid, idx, diagonal):
            super().__init__(grid, idx, diagonal)
            self.args = (grid, idx)

        def factor(self, c):
            reduced.append((self, c, super().factor(c)))
            return reduced[-1][2]

    monkeypatch.setattr(toda, "_RedBlack", Recorded)
    return reduced


def _sliced_block(g, idx, c):
    # (1/4) L_A - diag(c) built independently of `_System`: the stencil's
    # columns sliced to the active nodes
    from scipy.sparse import diags

    from todakit.grid import laplacian_operator

    active = np.zeros(g.nodes, dtype=bool)
    active[idx] = True
    return ((0.25 * laplacian_operator(g, active))[:, idx]
            - diags(c)).tocsr()


@pytest.mark.parametrize("n, stage", [(65, "direct"), (257, "coarsest"),
                                      (65, "exhaustion")])
def test_banded_cholesky_matches_sparse_lu(monkeypatch, n, stage):
    # the reduced solve of a whole block, the banded Cholesky solve of the
    # coarsest Galerkin level of the n = 257 V-cycle chain, and the reduced
    # solve of an exhaustion first-stage block agree with a sparse LU
    # solve of the same block
    from scipy.sparse.linalg import spsolve

    import todakit.toda as toda

    g = build_grid("cartesian", n, 0.9)
    active = g.interior
    if stage == "exhaustion":
        cut = toda._exhaustion_radii(g)[0] - 0.5 * g.h
        active = active & (g.r2 < cut * cut)
    sys, c = _helmholtz_shift(g, active)
    prolongations = toda._prolongations(g, sys.idx)
    if stage == "coarsest":
        factored = _factored_blocks(monkeypatch)
        cycle = toda._VCycle(sys.block(c), prolongations)
        assert len(cycle.levels) == 2
        (a,), factor = factored, cycle.coarsest
    else:
        assert not prolongations
        a, factor = sys.block(c), sys.red_black.factor(c)
    b = np.random.default_rng(n).standard_normal(a.shape[0])
    ref = spsolve(a.tocsc(), b)
    assert np.linalg.norm(factor.solve(b) - ref) <= \
        1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n, boundary", [(65, "model_poincare"),
                                         (257, "model_poincare"),
                                         (65, "exhaustion")])
def test_factored_blocks_are_exactly_symmetric(monkeypatch, n, boundary):
    # the Cholesky factor reads the upper band only, and the reduced
    # system is built from L_RB and the diagonal only: every block the
    # solver factors, whole or Galerkin, must equal its transpose bit for
    # bit, and every block it reduces must too, and split bit for bit into
    # the reduction's L_RB, L_BR and diagonal R-R and B-B parts
    from scipy.sparse import diags

    factored = _factored_blocks(monkeypatch)
    reduced = _reduced_blocks(monkeypatch)
    weight = make_weight("poly", 3, coeffs=[0, 1])
    solve_toda(weight, build_grid("cartesian", n, 0.9),
               SolverConfig(boundary=boundary))
    assert bool(factored) == (n == 257) and bool(reduced) == (n == 65)
    for a in factored:
        assert (a != a.T).nnz == 0
    for rb, c, _ in reduced:
        a = _sliced_block(*rb.args, c)
        assert (a != a.T).nnz == 0
        red, black = a[rb.red], a[rb.black]
        assert (red[:, rb.black] != rb.l_rb).nnz == 0
        assert (black[:, rb.red] != rb.l_br).nnz == 0
        for part, nodes in ((red, rb.red), (black, rb.black)):
            own = part[:, nodes]
            assert (own != diags(own.diagonal())).nnz == 0


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("r", [2, 3, 4, 8])
@pytest.mark.parametrize("mask", ["disc", "exhaustion", "random"])
def test_reduced_solve_matches_sparse_solve(monkeypatch, mask, r, mirror):
    # each block the preconditioner reduces, at a random state with V_0
    # coupling, is solved exactly: its reduced solve agrees with a sparse
    # direct solve of the block
    from scipy.sparse.linalg import spsolve

    import todakit.toda as toda

    g = build_grid("cartesian", 33, 0.9)
    active = {"disc": g.interior,
              "exhaustion": g.interior & (g.r2 < 0.75 ** 2),
              "random": g.interior
              & (np.random.default_rng(r).random(g.nodes) < 0.6)}[mask]
    sys = toda._System(g, r, active, mirror=mirror)
    reduced = _reduced_blocks(monkeypatch)
    sys.preconditioner(*_random_state(g, r, sys.m, r))
    assert len(reduced) == sys.m
    b = np.random.default_rng(r + 1).standard_normal(sys.k)
    for _, c, factor in reduced:
        ref = spsolve(sys.block(c).tocsc(), b)
        assert np.linalg.norm(factor.solve(b) - ref) <= \
            1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n, rotated, natural", [(33, 22, 31), (65, 46, 63),
                                                 (73, 52, 71)])
def test_rotated_order_narrows_the_reduced_band(n, rotated, natural):
    # S couples the B nodes next to one red node; its band is the largest
    # spread of their positions, in rotated order and in row-major order
    import todakit.toda as toda

    g = build_grid("cartesian", n, 0.9)
    rb = toda._System(g, 2, g.interior).red_black
    row_major = np.argsort(np.argsort(rb.black))

    def width(position):
        cols = position[rb.l_rb.indices]
        starts = rb.l_rb.indptr[:-1]
        return int((np.maximum.reduceat(cols, starts)
                    - np.minimum.reduceat(cols, starts)).max())

    assert np.all(np.diff(rb.l_rb.indptr) > 0)
    assert width(np.arange(len(rb.black))) == rb.width == rotated
    assert width(row_major) == natural


def test_banded_cholesky_rejects_a_block_that_is_not_definite():
    import todakit.toda as toda

    g = build_grid("cartesian", 17, 0.9)
    sys, c = _helmholtz_shift(g, g.interior)
    with pytest.raises(ValidationError, match="not negative definite"):
        toda._BandedCholesky(toda._upper_band(-sys.block(c)))


def test_reduced_factor_rejects_a_block_that_is_not_definite():
    # a shift below -2/h^2 makes (1/4) L_A - diag(c) positive definite
    import todakit.toda as toda

    g = build_grid("cartesian", 17, 0.9)
    sys = toda._System(g, 3, g.interior, mirror=True)
    with pytest.raises(ValidationError, match="not negative definite"):
        sys.red_black.factor(np.full(sys.k, -3.0 / g.h ** 2))


def test_weight_flat_converges_past_unit_disc():
    # the preconditioner's scale comes from the iterate, so it needs no
    # model profile and works where that is undefined (rho_max >= 1)
    weight = make_weight("poly", 3, coeffs=[1, 0.5])
    sol = solve_toda(weight, build_grid("cartesian", 33, 1.2),
                     SolverConfig(boundary="weight_flat"))
    assert sol.iterations > 0 and sol.residual_sup <= 1e-10


def test_large_amplitude_converges_without_continuation():
    # the preconditioner's scale keeps the V_0 coupling, which dominates at
    # large amplitude; fitted to the e^{w_j} alone, GMRES failed here
    sol = solve_toda(make_weight("poly", 2, t=1e4, coeffs=[0, 1]),
                     build_grid("cartesian", 33, 0.9))
    assert sol.residual_sup <= 1e-10


@pytest.mark.parametrize("t, iterations", [(1e4, 15), (1e5, 18)])
def test_krylov_miss_is_an_inexact_step(monkeypatch, t, iterations):
    # CG misses its forcing term on a step here and returns its last
    # iterate, which Newton takes as an inexact step: the solve converges
    infos = _cg_infos(monkeypatch)
    weight = make_weight("constant", 4, t=t, value=1)
    sol = solve_toda(weight, build_grid("cartesian", 33, 0.9))
    assert any(info > 0 for info in infos)
    assert sol.iterations == iterations
    full = max(float(np.abs(f.values).max())
               for f in toda_residual(sol.w, weight))
    assert full <= 1e-10


def test_krylov_miss_is_logged(monkeypatch, caplog):
    # TODA_LOG=info shows one line per Newton iteration whose CG missed,
    # naming the forcing term it missed and the solver's info
    rtols = []
    infos = _cg_infos(monkeypatch, rtols)
    with caplog.at_level("INFO", logger="todakit.toda"):
        solve_toda(make_weight("constant", 4, t=1e4, value=1),
                   build_grid("cartesian", 33, 0.9))
    missed = [rec.getMessage() for rec in caplog.records
              if "cg missed" in rec.getMessage()]
    missed_infos = [(rtol, info) for rtol, info in zip(rtols, infos) if info]
    assert len(missed) == len(missed_infos) >= 1
    for message, (rtol, info) in zip(missed, missed_infos):
        assert f"rtol {rtol:.2e} (info {info})" in message
        assert "taking its last iterate" in message


def test_forcing_terms_follow_eisenstat_walker(monkeypatch):
    # each CG call's rtol is the choice-2 forcing term: 1e-4 on the
    # first step, then 0.9 (res_k / res_{k-1})^2 clipped to [1e-12, 1e-4]
    rtols = []
    _cg_infos(monkeypatch, rtols)
    # at t = 1e3 a later step's term is still capped and the last lies
    # between the clips; at t = 1 the last sits on the floor
    for t, n, floored in ((1e3, 33, False), (1.0, 65, True)):
        rtols.clear()
        sol = solve_toda(make_weight("poly", 3, t=t, coeffs=[0, 1]),
                         build_grid("cartesian", n, 0.9))
        hist = sol.residual_history
        assert len(rtols) == sol.iterations == len(hist) - 1 >= 3
        assert rtols == [1e-4] + [
            min(1e-4, max(1e-12, 0.9 * (hist[k] / hist[k - 1]) ** 2))
            for k in range(1, sol.iterations)]
        assert (rtols[1] == 1e-4) != floored
        assert (rtols[-1] == 1e-12) == floored and rtols[-1] < 1e-4


def test_large_amplitude_solves_without_krylov_miss(monkeypatch):
    # r = 4, t = 1e4: at rtol = 1e-12 five of the twelve GMRES calls ran
    # all their restart cycles; the forcing terms stop each CG call in time
    infos = _cg_infos(monkeypatch)
    weight = make_weight("poly", 4, t=1e4, coeffs=[0, 1])
    sol = solve_toda(weight, build_grid("cartesian", 65, 0.9))
    assert sol.iterations == 12 and sol.residual_sup <= 1e-10
    assert len(infos) == 12 and not any(infos)


def test_zero_krylov_step_stalls(monkeypatch):
    # a CG miss returning the zero step leaves nothing for the Armijo
    # search to accept, so Newton stalls
    import todakit.toda as toda

    def failing(jac, rhs, **kwargs):
        return np.zeros_like(rhs), 1

    monkeypatch.setattr(toda, "cg", failing)
    with pytest.raises(ConvergenceError) as err:
        solve_toda(make_weight("poly", 2, coeffs=[0, 1]),
                   build_grid("cartesian", 17, 0.9))
    assert err.value.residual_history


def test_radial_solve_matches_cartesian_profile():
    weight = make_weight("poly", 2, coeffs=[0, 1])
    rad = solve_toda(weight, build_grid("radial", 129, 0.9))
    cart = solve_toda(weight, build_grid("cartesian", 129, 0.9))
    assert rad.residual_sup <= 1e-10
    # compare along the positive x axis of the cartesian grid
    g = cart.grid
    on_axis = np.flatnonzero((g.y == 0.0) & (g.x >= 0.0))
    on_axis = on_axis[np.argsort(g.x[on_axis])]
    cart_vals = cart.w[0].values[on_axis]
    rad_vals = np.interp(g.x[on_axis], rad.grid.x, rad.w[0].values)
    # the two discretizations share only the continuum limit; their gap is
    # bounded by the coarser (cartesian) truncation error near the rim
    assert np.abs(cart_vals - rad_vals).max() < 2e-3


# ---------------------------------------------------------------------------
# Radial Newton step: one banded LU solve of the Jacobian, unknowns ordered
# node-major.
# ---------------------------------------------------------------------------


def _radial_systems(r, mirror):
    # the radial n = 65 system on the interior and on an exhaustion stage's
    # shorter run of nodes, each at the model state plus 0.3 N(0, 1) per
    # node with a q = z weight at t = 30, so V_0 couples the fields at
    # every node but the axis
    import todakit.toda as toda

    g = build_grid("radial", 65, 0.9)
    q = evaluate_density(make_weight("poly", r, t=30.0, coeffs=[0, 1]), g)
    rng = np.random.default_rng(r)
    cut = 0.8 - 0.5 * g.h
    for active in (g.interior, g.interior & (g.r2 < cut * cut)):
        sys = toda._System(g, r, active, mirror=mirror)
        u = (model_log_densities(g, r)[:sys.m]
             + 0.3 * rng.standard_normal((sys.m, g.nodes)))
        yield sys, u, q.values


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("r", [2, 3, 4, 8])
def test_band_applies_the_jacobian(r, mirror):
    # the band, read back as J[p, s] = band[m + p - s, s] on node-major
    # unknowns, times x is the matrix-free product J x
    for sys, u, q in _radial_systems(r, mirror):
        m, k = sys.m, sys.k
        blocks = sys.pointwise(u, q)
        band = sys.band(blocks)
        assert band.shape == (2 * m + 1, m * k)
        p, col = np.indices((m * k, m * k))
        near = np.abs(p - col) <= m
        jac = np.zeros((m * k, m * k))
        jac[near] = band[m + p[near] - col[near], col[near]]
        x = np.random.default_rng(r + 1).standard_normal((m, k))
        got = (jac @ x.T.ravel()).reshape(k, m).T
        ref = sys.matvec(blocks, x.ravel()).reshape(m, k)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("r", [2, 3, 4, 8])
def test_banded_step_matches_dense_solve(r, mirror):
    # the radial Newton step solves J delta = -N exactly: it agrees with a
    # dense solve of J assembled column by column from the matrix-free
    # product, and reports no miss
    import todakit.toda as toda

    for sys, u, q in _radial_systems(r, mirror):
        n = sys.m * sys.k
        blocks = sys.pointwise(u, q)
        n_act = sys.residual(u, q)
        jac = np.stack([sys.matvec(blocks, col) for col in np.eye(n)],
                       axis=1)
        ref = np.linalg.solve(jac, -n_act.ravel())
        delta, info = toda._newton_step(sys, blocks, None, n_act, 1e-4)
        assert info == 0 and delta.shape == (sys.m, sys.k)
        assert np.linalg.norm(delta.ravel() - ref) <= \
            1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("n, tolerance", [pytest.param(65, 1e-10, id="65"),
                                          pytest.param(8193, 1e-6, id="8193")])
def test_radial_solve_takes_one_banded_step_per_iteration(monkeypatch, n,
                                                          tolerance):
    # every radial Newton step is one banded LU solve, however many nodes:
    # no CG call, no preconditioner and no V-cycle hierarchy.  At n = 8193
    # the residual's roundoff floor lies above the default tolerance
    import todakit.toda as toda

    banded = _counted(monkeypatch, toda, "solve_banded")
    solved = _counted(monkeypatch, toda, "cg")
    built = _counted(monkeypatch, toda._System, "preconditioner")
    coarsened = _counted(monkeypatch, toda, "_coarsen")
    sol = solve_toda(make_weight("poly", 3, coeffs=[0, 1]),
                     build_grid("radial", n, 0.9),
                     SolverConfig(tolerance=tolerance))
    assert sol.iterations > 0 and len(banded) == sol.iterations
    assert not solved and not built and not coarsened


# ---------------------------------------------------------------------------
# Mirror fold: the discrete system is invariant under j -> r-j, so the solver
# iterates w_1..w_{r//2} and the solution has w_j = w_{r-j}.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("boundary", ["model_poincare", "weight_flat",
                                      "exhaustion"])
@pytest.mark.parametrize("mode, n", [("cartesian", 33), ("radial", 65)])
@pytest.mark.parametrize("r", [3, 4, 5, 8])
def test_solution_is_mirror_symmetric(r, mode, n, boundary):
    from todakit.io import RELOAD_RESIDUAL_TOL

    weight = make_weight("poly", r, coeffs=[0, 1])
    sol = solve_toda(weight, build_grid(mode, n, 0.9),
                     SolverConfig(boundary=boundary))
    w = sol.w_array()
    assert np.array_equal(w, w[::-1])
    # the stored residual, of equations 1..r//2, is the full system's
    full = max(float(np.abs(f.values).max())
               for f in toda_residual(sol.w, weight))
    assert abs(full - sol.residual_sup) <= RELOAD_RESIDUAL_TOL


def _poly_roots(*roots):
    return [[float(c), 0.0]
            for c in np.polynomial.polynomial.polyfromroots(roots)]


@pytest.mark.parametrize("r, n, coeffs, t, boundary, iters", [
    (2, 257, _poly_roots(0.25), 1.0, "model_poincare", 3),
    (4, 129, _poly_roots(0.25, -0.25), 1.0, "model_poincare", 2),
    (8, 65, None, 1.0, "model_poincare", 3),
    (3, 129, _poly_roots(0.25), 1.0, "exhaustion", 7),
    (2, 289, _poly_roots(0.0), 1.0, "model_poincare", 3),
    (3, 65, [0, 1], 1e3, "model_poincare", 10),
    (4, 129, [0, 1], 1.0, "exhaustion", 6),
])
def test_folded_newton_counts_are_pinned(r, n, coeffs, t, boundary, iters):
    # the iteration counts of the unfolded solver on the same inputs, every
    # GMRES solve at rtol = 1e-12.  GMRES stopped at the forcing terms took
    # one step more on three of them (r = 2 at n = 257 and n = 289, and r = 4
    # exhaustion: 4, 4 and 7); CG at the same forcing terms does not
    weight = (make_weight("zero", r) if coeffs is None
              else make_weight("poly", r, t=t, coeffs=coeffs))
    sol = solve_toda(weight, build_grid("cartesian", n, 0.9),
                     SolverConfig(boundary=boundary))
    assert sol.iterations == iters


@pytest.mark.parametrize("r, n, coeffs, t, boundary, iters", [
    (3, 513, [0, 1], 1.0, "model_poincare", 7),
    (3, 257, [0, 0, 1], 1e4, "model_poincare", 12),
    (4, 257, [0, 1], 1e5, "model_poincare", 16),
    (3, 129, [0, 1], 1e3, "exhaustion", 22),
])
def test_radial_newton_counts_are_pinned(r, n, coeffs, t, boundary, iters):
    # the exact banded step's counts.  Preconditioned GMRES stopped at the
    # forcing terms took 6 at n = 513, where both creep along the
    # residual's roundoff floor, and 18 at r = 4, t = 1e5
    sol = solve_toda(make_weight("poly", r, t=t, coeffs=coeffs),
                     build_grid("radial", n, 0.9),
                     SolverConfig(boundary=boundary))
    assert sol.iterations == iters


# ---------------------------------------------------------------------------
# Exhaustion ladder.
# ---------------------------------------------------------------------------


def test_exhaustion_drifts_decrease():
    g = build_grid("cartesian", 65, 0.9)
    weight = make_weight("poly", 3, coeffs=[0, 1])
    sol = solve_toda(weight, g, SolverConfig(boundary="exhaustion"))
    assert sol.boundary_strategy == "exhaustion"
    assert sol.residual_sup <= 1e-10
    d = sol.exhaustion_drifts
    assert len(d) == 2  # ladder 0.8, 0.85, 0.9
    assert d[0] > d[1] > 0.0
    # final stage must agree with the plain solve on the full disc
    plain = solve_toda(weight, g)
    assert np.abs(sol.w_array() - plain.w_array()).max() <= 1e-8


def test_exhaustion_small_disc_uses_scaled_ladder():
    g = build_grid("cartesian", 33, 0.5)
    sol = solve_toda(make_weight("zero", 2), g,
                     SolverConfig(boundary="exhaustion"))
    assert len(sol.exhaustion_drifts) == 2  # rho_max * (8/9, 17/18, 1)
    assert sol.exhaustion_drifts[0] > sol.exhaustion_drifts[1]


# ---------------------------------------------------------------------------
# Derived quantities.
# ---------------------------------------------------------------------------


def test_diagonal_metric_flat_case():
    g = build_grid("cartesian", 17, 0.9)
    sol = solve_toda(make_weight("constant", 2, value=1.0), g,
                     SolverConfig(boundary="weight_flat"))
    eta = recover_diagonal_metric(sol)
    assert len(eta) == 2
    for f in eta:
        assert np.all(f.values == 0.0)


def test_diagonal_metric_constant_offset():
    # w_1 = 2 constant: eta = (-1, 1) restores zero trace
    g = build_grid("cartesian", 17, 0.9)
    weight = make_weight("constant", 2, value=math.e ** 4)
    sol = solve_toda(weight, g, SolverConfig(boundary="weight_flat"))
    assert np.allclose(sol.w[0].values, 2.0, rtol=1e-15)
    eta = recover_diagonal_metric(sol)
    assert np.allclose(eta[0].values, -1.0, rtol=1e-14)
    assert np.allclose(eta[1].values, 1.0, rtol=1e-14)


def test_diagonal_metric_telescopes_and_mirrors():
    g = build_grid("cartesian", 33, 0.9)
    sol = solve_toda(make_weight("poly", 4, coeffs=[0, 1]), g)
    eta = recover_diagonal_metric(sol)
    assert len(eta) == 4
    total = sum(f.values for f in eta)
    assert np.abs(total).max() <= 1e-12
    for j in range(3):
        gap = eta[j + 1].values - eta[j].values - sol.w[j].values
        assert np.abs(gap).max() <= 1e-13
    # real-symmetric solution: eta_a = -eta_{r+1-a}
    for a in range(4):
        assert np.abs(eta[a].values + eta[3 - a].values).max() <= 1e-9


def test_energy_density_flat_counts_slots():
    g = build_grid("cartesian", 17, 0.9)
    for r in (2, 3, 5):
        sol = solve_toda(make_weight("constant", r, value=1.0), g,
                         SolverConfig(boundary="weight_flat"))
        e = energy_density(sol)
        assert np.allclose(e.values, float(r), rtol=1e-14)


def test_energy_density_blowup_center():
    g = build_grid("cartesian", 33, 0.5)
    sol = solve_toda(make_weight("zero", 2), g)
    e = energy_density(sol)
    center = int(np.argmin(g.r2))
    # V_0 = 0 and e^{w_1} -> lam_1 / (1-0)^2 = 1 at the origin
    assert abs(e.values[center] - 1.0) < 5e-3
