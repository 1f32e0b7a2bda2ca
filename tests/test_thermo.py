import math

import numpy as np
import pytest

from todakit.errors import ConfigurationError
from todakit.grid import build_grid, inf_over, inner_mask, sup_norm
from todakit.thermo import model_free_energy_field, thermo_field, write_thermo_csv
from todakit.toda import SolverConfig, solve_toda
from todakit.weight import make_weight

# ---------------------------------------------------------------------------
# Distribution oracles.  On the degenerate (Q = 0) solution the common
# blow-up factor exp(beta*u) cancels from the softmax, so at every interior
# node the ensemble is the rank-level distribution p_j = lam_j^beta / Z
# over the live slots, with p_0 = 0 exactly:
#
#   r = 4, beta =  1:  lam = (3, 4, 3),       p = (0, 0.3, 0.4, 0.3)
#   r = 4, beta = -1:  lam^-1 = (1/3,1/4,1/3), p = (0, 4/11, 3/11, 4/11)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def degenerate4():
    g = build_grid("cartesian", 33, 0.5)
    return solve_toda(make_weight("zero", 4), g)


@pytest.fixture(scope="module")
def flat3():
    g = build_grid("cartesian", 17, 0.9)
    return solve_toda(make_weight("constant", 3, value=1.0),
                      g, SolverConfig(boundary="weight_flat"))


@pytest.fixture(scope="module")
def poly2():
    g = build_grid("cartesian", 33, 0.9)
    return solve_toda(make_weight("poly", 2, coeffs=[0, 1]), g)


def test_degenerate_distribution_positive_beta(degenerate4):
    p = thermo_field(degenerate4, 1.0).p
    interior = degenerate4.grid.interior
    assert np.all(p[0].values == 0.0)
    expect = [0.3, 0.4, 0.3]
    for j in (1, 2, 3):
        assert np.abs(p[j].values[interior] - expect[j - 1]).max() <= 1e-12


def test_degenerate_distribution_negative_beta(degenerate4):
    p = thermo_field(degenerate4, -1.0).p
    interior = degenerate4.grid.interior
    assert np.all(p[0].values == 0.0)
    expect = [4.0 / 11.0, 3.0 / 11.0, 4.0 / 11.0]
    for j in (1, 2, 3):
        assert np.abs(p[j].values[interior] - expect[j - 1]).max() <= 1e-12


def test_distribution_rows_sum_to_one(poly2):
    for beta in (1.0, -1.0, 2.5):
        p = thermo_field(poly2, beta).p
        total = sum(f.values for f in p)
        assert np.abs(total - 1.0).max() <= 1e-12


def test_flat_entropy_counts_live_slots(flat3):
    interior = flat3.grid.interior
    # beta > 0: all three slot densities equal one, uniform over r slots
    s_pos = thermo_field(flat3, 1.0).entropy.values
    assert np.abs(s_pos[interior] - math.log(3.0)).max() <= 1e-12
    # beta < 0: the V_0 slot is excluded, uniform over the remaining two
    s_neg = thermo_field(flat3, -1.0).entropy.values
    assert np.abs(s_neg[interior] - math.log(2.0)).max() <= 1e-12


def test_flat_free_energy_value(flat3):
    interior = flat3.grid.interior
    for beta in (1.0, 2.0):
        f = thermo_field(flat3, beta).free_energy.values
        assert np.abs(f[interior] + math.log(3.0) / beta).max() <= 1e-12
    f_neg = thermo_field(flat3, -1.0).free_energy.values
    assert np.abs(f_neg[interior] + math.log(2.0) / -1.0).max() <= 1e-12


def test_entropy_equals_beta_times_energy_minus_free_energy(poly2):
    # S = beta * (<E> - F) with E_j = -log(D_j / ref); checked where the
    # weight is positive so every slot density is finite
    g = poly2.grid
    mask = g.interior & (g.r2 > 1e-3)
    for beta in (1.0, -1.0, 0.5):
        tf = thermo_field(poly2, beta)
        p, s, f = tf.p, tf.entropy.values, tf.free_energy.values
        logd = [np.log(np.maximum(poly2.v0.values, 1e-300))] + \
               [w.values for w in poly2.w]
        mean_e = sum(pj.values * (-ld) for pj, ld in zip(p, logd))
        gap = s - beta * (mean_e - f)
        assert np.abs(gap[mask]).max() <= 1e-10


def test_free_energy_reference_shift_is_solution_independent(poly2, flat3):
    # F_poincare - F_flat = log(reference density), the same field for
    # every solution on the same grid
    def shift(sol, beta):
        a = thermo_field(sol, beta, reference="poincare").free_energy.values
        b = thermo_field(sol, beta, reference="flat").free_energy.values
        return a - b

    g = poly2.grid
    expect = np.zeros(g.nodes)
    inside = g.r2 < 1.0
    expect[inside] = -2.0 * np.log1p(-g.r2[inside])
    for beta in (1.0, -1.0):
        assert np.abs(shift(poly2, beta) - expect)[g.interior].max() <= 1e-11

    other = solve_toda(make_weight("poly", 2, coeffs=[0.5, 1]), g)
    d1 = shift(poly2, 1.0)
    d2 = shift(other, 1.0)
    assert np.abs(d1 - d2)[g.interior].max() <= 1e-11


def test_model_free_energy_matches_solved_degenerate_state(degenerate4):
    g = degenerate4.grid
    mf = model_free_energy_field(g, 4, 1.0)
    f = thermo_field(degenerate4, 1.0).free_energy
    mask = inner_mask(g, 3 * g.h)
    assert np.abs(mf.values - f.values)[mask].max() < 5e-3
    # closed form at the origin: u = 0, F = -log(sum lam_j)
    center = int(np.argmin(g.r2))
    assert mf.values[center] == pytest.approx(-math.log(10.0), abs=1e-14)


def test_model_free_energy_requires_subunit_disc():
    with pytest.raises(ConfigurationError):
        model_free_energy_field(build_grid("cartesian", 17, 1.0), 2, 1.0)


def test_redundancy_flat_is_zero(flat3):
    tf = thermo_field(flat3, 1.0)
    rfield, lo, hi = tf.redundancy, tf.lower_redundancy, tf.upper_redundancy
    interior = flat3.grid.interior
    assert np.abs(rfield.values[interior]).max() <= 1e-12
    assert abs(lo) <= 1e-12 and abs(hi) <= 1e-12


def test_redundancy_positive_for_vanishing_weight(poly2):
    tf = thermo_field(poly2, 1.0)
    rfield, lo, hi = tf.redundancy, tf.lower_redundancy, tf.upper_redundancy
    assert lo > 0.0
    assert hi >= lo
    # at the zero of q the V_0 slot dies, the ensemble collapses onto the
    # single live slot, and the redundancy peaks at exactly one
    center = int(np.argmin(poly2.grid.r2))
    assert rfield.values[center] == 1.0
    assert hi == 1.0


def test_degenerate_rank2_negative_beta_collapses():
    g = build_grid("cartesian", 17, 0.5)
    sol = solve_toda(make_weight("zero", 2), g)
    tf = thermo_field(sol, -1.0)
    assert np.all(tf.entropy.values == 0.0)   # single live slot
    assert tf.lower_redundancy == 1.0
    assert tf.upper_redundancy == 1.0


def test_thermo_field_bundles_consistently(poly2):
    tf = thermo_field(poly2, 1.0, reference="poincare")
    assert tf.r == 2 and tf.beta == 1.0 and tf.reference == "poincare"
    assert len(tf.p) == 2
    # entropy of the bundled distribution
    p = np.stack([f.values for f in tf.p])
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(p), 0.0)
    assert np.array_equal(tf.entropy.values, -plogp.sum(axis=0))
    # poincare free energy: the flat one shifted by the reference log-density
    g = poly2.grid
    flat = thermo_field(poly2, 1.0, reference="flat").free_energy.values
    shift = -2.0 * np.log1p(-g.r2[g.interior])
    gap = tf.free_energy.values[g.interior] - flat[g.interior] - shift
    assert np.abs(gap).max() <= 1e-11
    # redundancy and its interior extremes
    assert np.array_equal(tf.redundancy.values,
                          1.0 - tf.entropy.values / math.log(2.0))
    assert tf.lower_redundancy == inf_over(tf.redundancy, g.interior)
    assert tf.upper_redundancy == sup_norm(tf.redundancy, g.interior)


def test_thermo_rejects_zero_beta(poly2):
    with pytest.raises(ConfigurationError):
        thermo_field(poly2, 0.0)
    with pytest.raises(ConfigurationError):
        thermo_field(poly2, 1.0, reference="uniform")


def test_thermo_csv_format(poly2, tmp_path):
    tf = thermo_field(poly2, 1.0)
    path = tmp_path / "thermo.csv"
    write_thermo_csv(str(path), poly2, tf)
    lines = path.read_text().splitlines()
    assert lines[0] == "# r=2"
    assert lines[1] == "# beta=1"
    assert lines[2] == "# reference=flat"
    assert lines[3] == "# weight=kind=poly r=2 t=1 deg=1"
    assert lines[4].startswith("# residual_sup=")
    assert lines[5] == "x,y,p_0,p_1,S,F,R"
    assert len(lines) == 6 + poly2.grid.nodes
    # every row parses back to full precision
    row = lines[6].split(",")
    assert len(row) == 7
    assert float(row[0]) == poly2.grid.x[0]


def test_thermo_csv_radial_coordinates(tmp_path):
    g = build_grid("radial", 17, 0.9)
    sol = solve_toda(make_weight("poly", 2, coeffs=[0, 1]), g)
    tf = thermo_field(sol, 1.0)
    path = tmp_path / "radial.csv"
    write_thermo_csv(str(path), sol, tf)
    lines = path.read_text().splitlines()
    assert lines[5] == "rho,p_0,p_1,S,F,R"
    assert len(lines) == 6 + 17


def test_csv_bytes_are_deterministic(poly2, tmp_path):
    tf = thermo_field(poly2, 1.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_thermo_csv(str(p1), poly2, tf)
    write_thermo_csv(str(p2), poly2, thermo_field(poly2, 1.0))
    assert p1.read_bytes() == p2.read_bytes()
