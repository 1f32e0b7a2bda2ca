import dataclasses
import math

import numpy as np
import pytest

from todakit.errors import ConfigurationError
from todakit.grid import Field, build_grid
from todakit.toda import SolverConfig, solve_toda
from todakit.verify import (CheckReport, calibrate_laplacian_slack,
                            check_density_band, check_entropy_bounds,
                            check_exhaustion, check_fe_inequality,
                            check_flat_exactness, check_jacobian,
                            check_model_constants, check_model_order,
                            check_monotonicity_in_t, check_redundancy,
                            render_table, reports_to_dict, run_suite,
                            suite_passed)
from todakit.weight import make_weight, model_entropy


@pytest.fixture(scope="module")
def grid33():
    return build_grid("cartesian", 33, 0.9)


@pytest.fixture(scope="module")
def flat_sol(grid33):
    return solve_toda(make_weight("constant", 3, value=1.0), grid33,
                      SolverConfig(boundary="weight_flat"))


@pytest.fixture(scope="module")
def zero_sol(grid33):
    return solve_toda(make_weight("zero", 4), grid33)


@pytest.fixture(scope="module")
def poly_sol(grid33):
    return solve_toda(make_weight("poly", 4, coeffs=[0, 1]), grid33)


def test_report_pass_rule():
    rep = CheckReport(name="x", instance="i", passed=True, margin=-1e-12,
                      slack=1e-9)
    doc = rep.to_dict()
    assert doc["name"] == "x" and doc["passed"] is True
    assert set(doc) == {"name", "instance", "passed", "margin", "slack",
                        "worst", "notes"}


def test_flat_exactness_check(grid33):
    rep = check_flat_exactness(3, grid33)
    assert rep.passed
    assert rep.margin == pytest.approx(1e-10, abs=1e-22)
    assert "0 iterations" in rep.notes


def test_model_order_check():
    rep = check_model_order(2, (17, 33, 65), 0.9)
    assert rep.passed
    assert rep.margin > 0.0
    assert "orders" in rep.notes
    with pytest.raises(ConfigurationError):
        check_model_order(2, (17, 33), 0.9)


def test_jacobian_check_reproducible():
    g = build_grid("cartesian", 17, 0.9)
    w = make_weight("poly", 3, coeffs=[0, 1])
    rep1 = check_jacobian(w, g, seed=0)
    rep2 = check_jacobian(w, g, seed=0)
    rep3 = check_jacobian(w, g, seed=5)
    assert rep1.passed and rep3.passed
    assert rep1.margin == rep2.margin
    assert "seed=0" in rep1.instance


def test_jacobian_check_evaluates_density_once(monkeypatch):
    # the Jacobian and both finite-difference residuals share one density
    import todakit.toda as toda
    import todakit.verify as verify
    import todakit.weight as weight

    calls = []
    real = weight.evaluate_density

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(toda, "evaluate_density", counted)
    monkeypatch.setattr(verify, "evaluate_density", counted, raising=False)
    rep = check_jacobian(make_weight("poly", 3, coeffs=[0, 1]),
                         build_grid("cartesian", 17, 0.9))
    assert rep.passed
    assert len(calls) == 1


def test_model_constants_check():
    rep = check_model_constants()
    assert rep.passed
    assert "deficit gaps" in rep.notes


def test_density_band_branches(flat_sol, zero_sol, poly_sol, grid33):
    rep = check_density_band(flat_sol)
    assert rep.passed and "not applicable" in rep.notes

    rep = check_density_band(zero_sol)  # attains the bound with equality
    assert rep.passed
    assert abs(rep.margin) <= rep.slack

    rep = check_density_band(poly_sol)
    assert rep.passed and rep.margin > 0.0

    small = solve_toda(make_weight("zero", 2), grid33)
    rep = check_density_band(small)  # no applicable pair at rank 2
    assert rep.passed and "vacuous" in rep.notes


def test_entropy_bounds_attainment(flat_sol, zero_sol, poly_sol):
    rep = check_entropy_bounds(flat_sol, 1.0)
    assert rep.passed and "binding bound upper" in rep.notes
    assert abs(rep.margin) <= 1e-9

    rep = check_entropy_bounds(zero_sol, 1.0)
    assert rep.passed and "binding bound lower" in rep.notes
    assert abs(rep.margin) <= 1e-9

    rep = check_entropy_bounds(poly_sol, 1.0)
    assert rep.passed and rep.margin > 0.0
    rep = check_entropy_bounds(poly_sol, -1.0)
    assert rep.passed


def test_redundancy_branches(flat_sol, zero_sol, poly_sol):
    rep = check_redundancy(flat_sol, 1.0)
    assert rep.passed and "plane-like" in rep.notes

    rep = check_redundancy(flat_sol, -1.0)
    assert rep.passed
    assert "0.369070" in rep.notes  # 1 - log(2)/log(3)

    rep = check_redundancy(zero_sol, 1.0)
    assert rep.passed
    expected = 1.0 - model_entropy(4, 1.0) / math.log(4.0)
    assert f"{expected:.12g}"[:8] in rep.notes

    rep = check_redundancy(poly_sol, 1.0)
    assert rep.passed and rep.margin > 0.0


def test_fe_inequality_branches(flat_sol, zero_sol, poly_sol):
    rep = check_fe_inequality(poly_sol, -1.0)
    assert rep.passed and "not applicable" in rep.notes

    rep = check_fe_inequality(flat_sol, 1.0)
    assert rep.passed

    rep = check_fe_inequality(zero_sol, 1.0)
    assert rep.passed

    rep = check_fe_inequality(poly_sol, 1.0)
    assert rep.passed and rep.margin > 0.0
    assert "slack" in rep.notes


def test_fe_inequality_skips_full_plane_grid():
    g = build_grid("cartesian", 17, 1.5)
    sol = solve_toda(make_weight("constant", 2, value=1.0), g,
                     SolverConfig(boundary="weight_flat"))
    rep = check_fe_inequality(sol, 1.0)
    assert rep.passed and "not applicable" in rep.notes


def test_solved_instance_checks_reject_a_non_solution(poly_sol):
    # a bump on w_1 at the zero of q breaks the equations there; each check
    # must see it (margins about -4.2, -0.21 and -0.010)
    g = poly_sol.grid
    w1 = Field(g, poly_sol.w[0].values + 0.5 * np.exp(-g.r2 / 0.05))
    bad = dataclasses.replace(poly_sol, w=(w1,) + poly_sol.w[1:])
    for rep in (check_fe_inequality(bad, 1.0), check_density_band(bad),
                check_entropy_bounds(bad, 1.0)):
        assert not rep.passed, f"{rep.name}: margin {rep.margin:.3e}"


def test_laplacian_slack_calibration_tracks_h():
    c33 = calibrate_laplacian_slack(build_grid("cartesian", 33, 0.9), 2, 1.0)
    c65 = calibrate_laplacian_slack(build_grid("cartesian", 65, 0.9), 2, 1.0)
    assert c33 > 0.0 and c65 > 0.0
    # c is the h^2-normalized stencil error, so it stays within a small
    # factor across refinement instead of scaling with h
    assert 0.25 < c65 / c33 < 4.0


def test_monotonicity_check(grid33):
    w = make_weight("poly", 2, coeffs=[0, 1])
    rep = check_monotonicity_in_t(w, grid33, 1.0, (0.5, 1.0))
    assert rep.passed
    with pytest.raises(ConfigurationError):
        check_monotonicity_in_t(w, grid33, -1.0, (0.5, 1.0))
    with pytest.raises(ConfigurationError):
        check_monotonicity_in_t(w, grid33, 1.0, (1.0,))


def test_exhaustion_check(grid33):
    rep = check_exhaustion(make_weight("poly", 2, coeffs=[0, 1]), grid33)
    assert rep.passed
    assert rep.margin > 0.0
    assert "drifts to final" in rep.notes


def test_smoke_suite_is_green():
    reports = run_suite("smoke")
    assert suite_passed(reports)
    assert len(reports) >= 30
    names = {rep.name for rep in reports}
    assert {"model_constants", "jacobian_consistency", "flat_exactness",
            "model_order", "density_band", "entropy_bounds",
            "redundancy_floor", "fe_inequality"} <= names
    with pytest.raises(ConfigurationError):
        run_suite("extended")


def test_render_table_and_report_doc():
    reports = [
        CheckReport(name="alpha", instance="i1", passed=True, margin=1.0,
                    slack=0.0),
        CheckReport(name="beta", instance="i2", passed=False, margin=-2.0,
                    slack=0.0, notes="went sideways"),
    ]
    table = render_table(reports)
    assert "1/2 checks passed" in table
    assert "FAIL" in table
    assert "went sideways" in table  # failing checks carry their notes

    doc = reports_to_dict(reports, "smoke")
    assert doc["schema"] == "verify-report/1"
    assert doc["suite"] == "smoke"
    assert doc["passed"] is False
    assert len(doc["checks"]) == 2
    assert not suite_passed(reports)
