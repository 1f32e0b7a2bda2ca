import math

import numpy as np
import pytest

from todakit.errors import (ConfigurationError, ConvergenceError,
                            StrategyError, ValidationError)
from todakit.grid import Field, build_grid, inner_mask, make_field, sup_norm
from todakit.toda import (SolverConfig, compute_v0, energy_density,
                          model_log_densities, recover_diagonal_metric,
                          solve_toda, toda_jacobian, toda_residual)
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
            assert sup_norm(f) == 0.0
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


def test_residual_rejects_nonfinite_state():
    g = build_grid("cartesian", 9, 0.8)
    w = np.zeros((1, g.nodes))
    w[0, 5] = np.inf
    fields = [Field(g, row) for row in w]  # bypass make_field validation
    with pytest.raises(ValidationError):
        toda_residual(fields, make_weight("constant", 2, value=1.0))


def test_compute_v0_vanishes_with_weight():
    g = build_grid("cartesian", 9, 0.8)
    q = evaluate_density(make_weight("poly", 2, coeffs=[0, 1]), g).values
    w = np.full((1, g.nodes), 0.7)
    v0 = compute_v0(w, q)
    assert v0[int(np.argmin(g.r2))] == 0.0  # Q(0) = 0 exactly
    assert np.allclose(v0, q * math.exp(-0.7), rtol=1e-15)


# ---------------------------------------------------------------------------
# Jacobian: central finite differences of the residual along a random
# direction must match J @ d to second order in the step.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["cartesian", "radial"])
def test_jacobian_matches_finite_differences(mode):
    g = build_grid(mode, 17, 0.8)
    r = 3
    # radial grids accept monomial weights only
    coeffs = [0.3, 1.0] if mode == "cartesian" else [0, 1]
    weight = make_weight("poly", r, coeffs=coeffs)
    rng = np.random.default_rng(7)
    w = model_log_densities(g, r) + 0.05 * rng.standard_normal((r - 1, g.nodes))
    w[:, g.boundary] = model_log_densities(g, r)[:, g.boundary]
    fields = _fields(g, w)
    jac, idx = toda_jacobian(fields, weight)
    assert np.array_equal(idx, np.flatnonzero(g.interior))

    d = rng.standard_normal((r - 1, len(idx)))
    jd = (jac @ d.reshape(-1)).reshape(r - 1, len(idx))

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


def test_jacobian_shape_and_sparsity():
    g = build_grid("cartesian", 17, 0.8)
    weight = make_weight("constant", 4, value=1.0)
    w = np.zeros((3, g.nodes))
    jac, idx = toda_jacobian(_fields(g, w), weight)
    k = len(idx)
    assert jac.shape == (3 * k, 3 * k)
    # five-point coupling plus dense 3x3 pointwise blocks
    assert jac.nnz <= 3 * 5 * k + 9 * k


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
        assert all(sup_norm(f) == 0.0 and -sup_norm(f) == 0.0 for f in sol.w)
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
    again = solve_toda(weight, g, SolverConfig(initial="provided",
                                               provided_w=sol.w))
    assert again.iterations == 0
    assert np.array_equal(again.w_array(), sol.w_array())


def test_solver_reports_stall_with_history():
    g = build_grid("cartesian", 17, 0.9)
    weight = make_weight("poly", 2, t=1e6, coeffs=[0, 1])
    cfg = SolverConfig(max_iterations=3, continuation_steps=0, max_halvings=3)
    with pytest.raises(ConvergenceError) as err:
        solve_toda(weight, g, cfg)
    assert len(err.value.residual_history) >= 1


def test_continuation_rescues_large_amplitude():
    g = build_grid("cartesian", 17, 0.9)
    weight = make_weight("constant", 2, t=40.0, value=1.0)
    cfg = SolverConfig(boundary="weight_flat", max_iterations=8,
                       continuation_steps=4)
    sol = solve_toda(weight, g, cfg)
    assert sol.residual_sup <= 1e-10


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(boundary="periodic").validated()
    with pytest.raises(ConfigurationError):
        SolverConfig(initial="random").validated()
    with pytest.raises(ConfigurationError):
        SolverConfig(tolerance=0.0).validated()
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iterations=0).validated()
    with pytest.raises(ConfigurationError):
        SolverConfig(armijo_factor=1.0).validated()


def test_model_boundary_requires_subunit_disc():
    g = build_grid("cartesian", 17, 1.0)
    with pytest.raises(ConfigurationError):
        solve_toda(make_weight("zero", 2), g)


def test_weight_flat_boundary_needs_positive_ring():
    g = build_grid("cartesian", 17, 0.9)
    cfg = SolverConfig(boundary="weight_flat", initial="model")
    with pytest.raises(StrategyError):
        solve_toda(make_weight("zero", 2), g, cfg)


def test_weight_flat_ring_is_what_interior_stencils_read():
    # Q = 0 at one boundary neighbour of an interior node breaks the flat
    # Dirichlet data; Q = 0 at a square corner, which no stencil reads,
    # does not
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
            with pytest.raises(StrategyError):
                solve_toda(weight, g, cfg)
        else:
            sol = solve_toda(weight, g, cfg)
            assert sol.iterations == 0 and sol.residual_sup == 0.0


@pytest.mark.parametrize("boundary, systems", [("model_poincare", 1),
                                               ("exhaustion", 3)])
def test_solve_evaluates_density_once(monkeypatch, boundary, systems):
    # one density evaluation per solve, one system per distinct active set
    # (the last exhaustion stage shares the interior system)
    import todakit.toda as toda

    calls = {"evaluate_density": 0, "_System": 0}
    for name in calls:
        real = getattr(toda, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(toda, name, counted)
    weight = make_weight("poly", 2, coeffs=[0, 1])
    sol = solve_toda(weight, build_grid("cartesian", 33, 0.9),
                     SolverConfig(boundary=boundary))
    assert sol.iterations > 0 and sol.residual_sup <= 1e-10
    assert calls == {"evaluate_density": 1, "_System": systems}
    # the reported residual is that of the returned fields
    res = toda_residual(sol.w, weight)
    assert sol.residual_sup == max(float(np.abs(f.values).max()) for f in res)


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
        assert sup_norm(f) == 0.0 and -sup_norm(f) == 0.0


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
