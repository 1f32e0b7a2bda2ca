import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as beta_fn, digamma

from todakit.errors import ConfigurationError
from todakit.grid import build_grid
from todakit.weight import (KINDS, beta_integrals, evaluate_density,
                            lambda_coefficients, make_weight, model_constants,
                            model_entropy, weight_from_dict)

# ---------------------------------------------------------------------------
# Oracles for the beta integrals.  Everything here is checked against values
# derived independently of the implementation:
#
#   c_beta = int_0^1 s^b (1-s)^b ds          = B(b+1, b+1)
#   d_beta = int_0^1 s^b (1-s)^b log(s) ds   = d/da B(a, b+1) at a = b+1
#                                            = c_beta * (psi(b+1) - psi(2b+2))
#
# and for the two hand-computable cases:
#   b = 1:    c = 1/6,  d = int s(1-s)log s = -1/4 + 1/9 = -5/36
#   b = -1/2: c = B(1/2,1/2) = pi,  d = pi*(psi(1/2) - psi(1)) = -2*pi*log(2)
# ---------------------------------------------------------------------------


def test_beta_integrals_match_hand_values_at_one():
    c, d = beta_integrals(1.0)
    assert abs(c - 1.0 / 6.0) <= 1e-14
    assert abs(d - (-5.0 / 36.0)) <= 1e-13


def test_beta_integrals_match_hand_values_at_minus_half():
    c, d = beta_integrals(-0.5)
    assert abs(c - math.pi) <= 1e-11
    assert abs(d - (-2.0 * math.pi * math.log(2.0))) <= 1e-9


@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.5, 1.0, 2.0, 3.0, 4.0])
def test_beta_integrals_match_gamma_function_identity(beta):
    c, d = beta_integrals(beta)
    c_exact = beta_fn(beta + 1.0, beta + 1.0)
    d_exact = c_exact * (digamma(beta + 1.0) - digamma(2.0 * beta + 2.0))
    assert abs(c - c_exact) <= 1e-13 * max(1.0, abs(c_exact))
    assert abs(d - d_exact) <= 1e-12 * max(1.0, abs(d_exact))


def test_beta_integrals_reject_divergent_exponent():
    with pytest.raises(ConfigurationError):
        beta_integrals(-1.0)
    with pytest.raises(ConfigurationError):
        beta_integrals(0.0)


def test_entropy_limit_closed_form_at_one():
    # log(c) - 2*b*d/c at b = 1 is log(1/6) + 2*(5/36)*6 = 5/3 - log(6)
    mc = model_constants(2, 1.0)
    expect = 5.0 / 3.0 - math.log(6.0)
    assert abs(mc.entropy_limit - expect) <= 1e-13
    assert mc.entropy_limit == pytest.approx(-0.12509280256138777, abs=1e-15)


def test_entropy_limit_is_approached_from_below():
    # S_model(r) - log(r) rises toward the limit: the deficit
    # S_model - log(r) - limit is negative and its magnitude shrinks.
    limit = model_constants(2, 1.0).entropy_limit
    gaps = [model_entropy(r, 1.0) - math.log(r) - limit
            for r in (100, 500, 2000)]
    assert all(g < 0 for g in gaps)
    assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])
    assert abs(gaps[-1]) < 0.02


@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.5, 1.0, 2.0])
def test_entropy_limit_is_nonpositive(beta):
    # S_model sits strictly below log(r), so the limit cannot be positive.
    assert model_constants(3, beta).entropy_limit <= 1e-12


def test_entropy_limit_degenerates_below_minus_one():
    mc = model_constants(3, -1.5)
    assert mc.c_beta == math.inf
    assert mc.d_beta == -math.inf
    assert mc.entropy_limit == -math.inf
    assert mc.to_dict()["entropy_limit"] == "-inf"


# ---------------------------------------------------------------------------
# Cartan coefficients and the model entropy.
# ---------------------------------------------------------------------------


def test_lambda_small_ranks():
    assert lambda_coefficients(2).tolist() == [1.0]
    assert lambda_coefficients(3).tolist() == [2.0, 2.0]
    assert lambda_coefficients(4).tolist() == [3.0, 4.0, 3.0]
    with pytest.raises(ConfigurationError):
        lambda_coefficients(1)


@given(st.integers(min_value=2, max_value=64))
def test_lambda_cartan_identity(r):
    lam = lambda_coefficients(r)
    padded = np.concatenate([[0.0], lam, [0.0]])  # lambda_0 = lambda_r = 0
    comb = 2.0 * padded[1:-1] - padded[:-2] - padded[2:]
    assert np.array_equal(comb, np.full(r - 1, 2.0))
    assert np.array_equal(lam, lam[::-1])  # j(r-j) symmetric under j -> r-j


def test_model_entropy_direct_formula():
    # independent evaluation of -sum p log p with p_j = lam_j^beta / Z
    for r, beta in [(2, 1.0), (3, -1.0), (4, 1.0), (5, 2.0), (6, -0.5)]:
        lam = [j * (r - j) for j in range(1, r)]
        z = sum(l ** beta for l in lam)
        p = [l ** beta / z for l in lam]
        expect = -sum(q * math.log(q) for q in p)
        assert model_entropy(r, beta) == pytest.approx(expect, abs=1e-14)


def test_model_entropy_known_points():
    assert model_entropy(2, 1.0) == 0.0            # single live slot
    assert model_entropy(2, -3.0) == 0.0
    assert model_entropy(3, 7.5) == pytest.approx(math.log(2.0), abs=1e-15)
    # r=4, beta=1: p = (3, 4, 3)/10
    expect = math.log(10.0) - (6.0 * math.log(3.0) + 4.0 * math.log(4.0)) / 10.0
    assert model_entropy(4, 1.0) == pytest.approx(expect, abs=1e-14)
    assert model_entropy(4, 1.0) == pytest.approx(1.0888999753452238, abs=1e-15)


@given(st.integers(min_value=2, max_value=32),
       st.floats(min_value=-4.0, max_value=4.0).filter(lambda b: abs(b) > 1e-3))
def test_model_entropy_bounds(r, beta):
    s = model_entropy(r, beta)
    assert -1e-12 <= s <= math.log(max(r - 1, 1)) + 1e-12


def test_model_entropy_rejects_zero_beta():
    with pytest.raises(ConfigurationError):
        model_entropy(4, 0.0)
    # bool and str are not numbers, though float() reads both as 1
    for beta in (True, "1"):
        with pytest.raises(ConfigurationError):
            model_entropy(4, beta)


def test_model_constants_lambda_row():
    mc = model_constants(4, 1.0)
    assert mc.to_dict()["lambda"] == [3.0, 4.0, 3.0]
    assert mc.S_model == model_entropy(4, 1.0)


# ---------------------------------------------------------------------------
# Weight construction, serialization, evaluation.
# ---------------------------------------------------------------------------


def test_make_weight_validates():
    with pytest.raises(ConfigurationError):
        make_weight("fancy", 3)
    with pytest.raises(ConfigurationError):
        make_weight("zero", 1)
    with pytest.raises(ConfigurationError):
        make_weight("zero", 3, t=0.0)
    with pytest.raises(ConfigurationError):
        make_weight("poly", 3, coeffs=[])
    with pytest.raises(ConfigurationError):
        make_weight("poly", 3, coeffs=["ab"])
    with pytest.raises(ConfigurationError):
        make_weight("constant", 3, value=-1.0)
    with pytest.raises(ConfigurationError):
        make_weight("constant", 3)
    with pytest.raises(ConfigurationError):
        make_weight("radial", 3, samples=[1.0])
    with pytest.raises(ConfigurationError):
        make_weight("radial", 3, samples=[1.0, -2.0])
    # bool and str are not numbers, though numpy and float() convert them
    for kwargs in ({"t": True}, {"t": "2"}):
        with pytest.raises(ConfigurationError):
            make_weight("zero", 3, **kwargs)
    for value in (True, "1"):
        with pytest.raises(ConfigurationError):
            make_weight("constant", 3, value=value)
    for samples in ([1.0, True], ["1", "2"], np.ones(3, dtype=bool)):
        with pytest.raises(ConfigurationError):
            make_weight("radial", 3, samples=samples)
    with pytest.raises(ConfigurationError):
        make_weight("poly", 3, coeffs=[0, True])
    # a scalar is no list of coefficients or samples
    for kwargs in ({"coeffs": 5}, {"coeffs": True}):
        with pytest.raises(ConfigurationError):
            make_weight("poly", 3, **kwargs)
    with pytest.raises(ConfigurationError):
        make_weight("radial", 3, samples=5)


def test_describe_formats():
    assert make_weight("poly", 3, coeffs=[0, 1]).describe() == "kind=poly r=3 t=1 deg=1"
    assert make_weight("zero", 5).describe() == "kind=zero r=5 t=1"
    w = make_weight("constant", 2, t=0.5, value=2.0)
    assert w.describe() == "kind=constant r=2 t=0.5 value=2"


@pytest.mark.parametrize("kind,extra", [
    ("zero", {}),
    ("constant", {"value": 2.5}),
    ("poly", {"coeffs": [1 + 2j, 0.5]}),
    ("radial", {"samples": [0.0, 1.0, 4.0]}),
])
def test_weight_dict_round_trip(kind, extra):
    w = make_weight(kind, 3, t=1.5, **extra)
    doc = w.to_dict()
    back = weight_from_dict(doc)
    assert back.to_dict() == doc
    g = build_grid("cartesian", 9, 0.8)
    assert np.array_equal(evaluate_density(w, g).values,
                          evaluate_density(back, g).values)


def test_poly_coeffs_wire_form_equals_complex_form():
    w1 = make_weight("poly", 2, coeffs=[1 + 2j, 3 - 1j])
    w2 = make_weight("poly", 2, coeffs=[[1, 2], [3, -1]])
    g = build_grid("cartesian", 9, 0.8)
    assert np.array_equal(evaluate_density(w1, g).values,
                          evaluate_density(w2, g).values)


def test_density_values():
    g = build_grid("cartesian", 9, 0.8)
    assert np.all(evaluate_density(make_weight("zero", 2), g).values == 0.0)
    const = evaluate_density(make_weight("constant", 2, t=3.0, value=2.0), g)
    assert np.all(const.values == 18.0)
    # |q(z)|^2 for q = z is |z|^2
    qz = evaluate_density(make_weight("poly", 2, coeffs=[0, 1]), g)
    assert np.allclose(qz.values, g.r2, atol=1e-15)


def test_radial_density_interpolates_samples():
    g = build_grid("radial", 11, 1.0)
    w = make_weight("radial", 2, samples=[0.0, 2.0])  # linear ramp on [0, 1]
    vals = evaluate_density(w, g).values
    assert np.allclose(vals, 2.0 * g.x, atol=1e-15)


def test_poly_on_radial_grid_requires_monomial():
    g = build_grid("radial", 9, 1.0)
    mono = make_weight("poly", 2, coeffs=[0, 0, 2.0])  # 2 z^2
    vals = evaluate_density(mono, g).values
    assert np.allclose(vals, 4.0 * g.x ** 4, atol=1e-14)
    with pytest.raises(ConfigurationError):
        evaluate_density(make_weight("poly", 2, coeffs=[1.0, 1.0]), g)


def test_grid_samples_must_match_node_count():
    g = build_grid("cartesian", 9, 0.8)
    w = make_weight("grid", 2, samples=np.ones(g.nodes))
    assert np.all(evaluate_density(w, g).values == 1.0)
    with pytest.raises(ConfigurationError):
        evaluate_density(make_weight("grid", 2, samples=[1.0, 2.0]), g)


@settings(max_examples=30)
@given(st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=4))
def test_density_is_nonnegative(coeffs):
    g = build_grid("cartesian", 9, 0.9)
    w = make_weight("poly", 2, coeffs=coeffs)
    assert np.all(evaluate_density(w, g).values >= 0.0)


def test_kind_list_is_stable():
    assert KINDS == ("zero", "constant", "poly", "radial", "grid")
