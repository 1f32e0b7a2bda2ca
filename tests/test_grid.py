import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from todakit.errors import ConfigurationError, ValidationError
from todakit.grid import (MAX_NODES, Field, build_grid, check_same_grid,
                          inner_mask, laplacian_operator, make_field,
                          worst_node)


def test_cartesian_layout():
    g = build_grid("cartesian", 9, 1.0)
    assert g.h == pytest.approx(2.0 / 8.0)
    assert g.nodes == 81
    assert g.x.min() == -1.0 and g.x.max() == 1.0
    assert g.y.min() == -1.0 and g.y.max() == 1.0
    # center node is interior, rim nodes are not
    center = np.argmin(g.r2)
    assert g.interior[center]
    assert not g.interior[np.argmax(g.r2)]
    assert not np.any(g.interior & g.boundary)
    assert np.all(g.interior | g.boundary)


def test_cartesian_interior_is_disc():
    g = build_grid("cartesian", 33, 0.9)
    cut = g.rho_max - 0.5 * g.h
    assert np.array_equal(g.interior, g.r2 < cut * cut)


def test_radial_layout():
    g = build_grid("radial", 11, 0.5)
    assert g.h == pytest.approx(0.05)
    assert g.nodes == 11
    assert g.x[0] == 0.0 and g.x[-1] == 0.5
    assert g.interior.sum() == 10  # only the outer endpoint is boundary
    assert g.boundary[-1]


def test_build_grid_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        build_grid("hexagonal", 33, 0.9)
    with pytest.raises(ConfigurationError):
        build_grid("cartesian", 7, 0.9)
    with pytest.raises(ConfigurationError):
        build_grid("cartesian", 33, 0.0)
    for n, rho_max in (("33", 0.9), (33.0, 0.9), (True, 0.9), (33, "0.9"),
                       (33, True)):
        with pytest.raises(ConfigurationError):
            build_grid("cartesian", n, rho_max)


def test_build_grid_bounds_the_node_count():
    # the largest grids in use build; a larger n is rejected at /n before
    # any array is allocated, even an n that np.arange cannot take
    assert build_grid("cartesian", 513, 0.9).nodes == 513 * 513
    assert build_grid("radial", 8193, 0.9).nodes == 8193
    assert build_grid("cartesian", 1025, 0.9).nodes == MAX_NODES
    assert build_grid("radial", MAX_NODES, 0.9).nodes == MAX_NODES
    for mode, n in (("cartesian", 1026), ("cartesian", 10 ** 20),
                    ("radial", MAX_NODES + 1), ("radial", 10 ** 20)):
        with pytest.raises(ConfigurationError) as err:
            build_grid(mode, n, 0.9)
        assert err.value.pointer == "/n"


def test_laplacian_quadratic_is_exact_cartesian():
    # 5-point stencil is exact on x^2 + y^2 (Lap = 4)
    g = build_grid("cartesian", 17, 1.0)
    lap = laplacian_operator(g, g.interior) @ (g.x ** 2 + g.y ** 2)
    assert np.allclose(lap, 4.0, atol=1e-11)


def test_laplacian_quadratic_is_exact_radial():
    g = build_grid("radial", 41, 1.0)
    lap = laplacian_operator(g, g.interior) @ g.x ** 2
    # w'' + w'/rho = 2 + 2, including the axis limit at rho = 0
    assert np.allclose(lap, 4.0, atol=1e-10)


def test_laplacian_convergence_order():
    # smooth non-polynomial field on the cartesian grid
    errs = []
    for n in (17, 33, 65):
        g = build_grid("cartesian", n, 0.8)
        # Lap(sin x e^y) = -sin x e^y + sin x e^y = 0
        lap = laplacian_operator(g, g.interior) @ (np.sin(g.x) * np.exp(g.y))
        errs.append(np.abs(lap).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 < o < 2.3 for o in orders)


def test_field_is_write_locked():
    g = build_grid("cartesian", 9, 1.0)
    f = make_field(g, np.zeros(g.nodes))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_make_field_validates():
    g = build_grid("cartesian", 9, 1.0)
    with pytest.raises(ConfigurationError):
        make_field(g, np.zeros(5))
    bad = np.zeros(g.nodes)
    bad[3] = np.nan
    with pytest.raises(ValidationError):
        make_field(g, bad)


def test_inner_mask_shrinks_with_margin():
    g = build_grid("cartesian", 33, 0.9)
    m0 = inner_mask(g, 0.0)
    m1 = inner_mask(g, 3 * g.h)
    assert m1.sum() < m0.sum()
    assert np.all(~m1 | m0)  # nested
    with pytest.raises(ConfigurationError):
        inner_mask(g, 1.0)


def test_worst_node_reports_coordinates():
    g = build_grid("cartesian", 9, 1.0)
    vals = g.r2.copy()
    rec = worst_node(g, vals, g.interior)
    assert rec["value"] == pytest.approx(0.0)
    assert rec["x"] == pytest.approx(0.0) and rec["y"] == pytest.approx(0.0)


def test_check_same_grid():
    g1 = build_grid("cartesian", 9, 1.0)
    g2 = build_grid("cartesian", 17, 1.0)
    f = make_field(g2, np.zeros(g2.nodes))
    with pytest.raises(ConfigurationError):
        check_same_grid(g1, f)


@given(st.integers(min_value=8, max_value=40),
       st.floats(min_value=0.1, max_value=2.0, allow_nan=False))
def test_grid_masks_partition_nodes(n, rho_max):
    g = build_grid("cartesian", n, rho_max)
    assert np.all(g.interior ^ g.boundary)
    assert g.h == pytest.approx(2 * rho_max / (n - 1))


def test_field_shape_matches_grid_key():
    g = build_grid("radial", 9, 1.0)
    assert g.key() == ("radial", 9, 1.0)
    assert g.to_dict() == {"mode": "radial", "n": 9, "rho_max": 1.0}
