"""Coil-integral and quadrature-grid checks against independent oracles.

Reference values come from mpmath at 40 digits and from a 1e6-panel
midpoint rule; both were computed offline and frozen here, with live
mpmath comparisons where a whole sweep is cheap.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from eddyspec.forward import CoilGeometry, coil_grid
from eddyspec.specfun import build_grid, p_integral, panel_edges

# int_0^1 x J1(x) dx: midpoint rule with 1e6 panels gives
# 0.15453272353176178, mpmath 0.15453272353179369 (40 digits).
XJ1_UNIT_INTEGRAL = 0.15453272353179369


def test_p_integral_against_mpmath():
    # P against mpmath's quadrature of x J1(x), from the small-alpha
    # series range out to windows about twenty periods wide, relative to
    # the value alone (P ~ alpha^3 r^3 / 6 gets tiny).  At 20 digits
    # mpmath's quadrature itself misses narrow windows by 4e-11.  Also
    # either end of the window at the series/midpoint switch x = 2.
    rng = np.random.default_rng(7)
    cases = [(a, 0.075, 0.0875) for a in 10.0 ** rng.uniform(-8, 4, 16)]
    cases += [(a, 0.002, 0.05) for a in 10.0 ** rng.uniform(-6, 3, 8)]
    for r1, r2 in ((0.075, 0.0875), (0.005, 0.05)):
        cases += [(x / r, r1, r2) for r in (r1, r2) for x in (1.999, 2.0, 2.001)]
    # a 50 mm pancake coil from 1 rad/m up to its 15000 rad/m cut, windows
    # up to 110 periods wide (x up to 750)
    pancake = [(a, 0.005, 0.05) for a in 10.0 ** rng.uniform(0, math.log10(15000), 8)]
    pancake += [(15000.0, 0.005, 0.05)]
    with mpmath.workdps(30):
        for alpha, r1, r2 in cases:
            # subintervals about a period long keep mpmath's rule converged
            cuts = mpmath.linspace(alpha * r1, alpha * r2, 2 + int(alpha * (r2 - r1) / 6))
            want = float(mpmath.quad(lambda x: x * mpmath.besselj(1, x), cuts))
            got = p_integral(alpha, r1, r2)
            assert abs(got - want) <= 1e-12 * abs(want), (alpha, r1, r2)
        # mpmath's Struve closed form: it agrees with the quadrature to 30
        # digits where both run, and takes milliseconds where the
        # quadrature of a wide window takes seconds
        for alpha, r1, r2 in pancake:
            want = float(_mp_xj1_integral(alpha * r2) - _mp_xj1_integral(alpha * r1))
            got = p_integral(alpha, r1, r2)
            assert abs(got - want) <= 1e-12 * abs(want), (alpha, r1, r2)


def _mp_xj1_integral(x):
    """int_0^x s J1(s) ds = (pi x / 2) [J1(x) H0(x) - J0(x) H1(x)], H = Struve."""
    x = mpmath.mpf(x)
    return mpmath.pi * x / 2 * (mpmath.besselj(1, x) * mpmath.struveh(0, x)
                                - mpmath.besselj(0, x) * mpmath.struveh(1, x))


def test_p_integral_zero_alpha_and_validation():
    assert p_integral(0.0, 0.075, 0.0875) == 0.0
    # a value must not depend on the rest of the call (x = 2 is at 23-27 rad/m)
    alphas = np.array([0.0, 1.0, 22.9, 26.7, 50.0, 666.0, 9999.0])
    np.testing.assert_array_equal(
        p_integral(alphas, 0.075, 0.0875), [p_integral(a, 0.075, 0.0875) for a in alphas])
    with pytest.raises(ValueError):
        p_integral(1.0, 0.0875, 0.075)
    with pytest.raises(ValueError):
        p_integral(1.0, 0.075, 0.075)
    with pytest.raises(ValueError):
        p_integral(-1.0, 0.075, 0.0875)
    for bad in (np.array([1.0, -1.0]), math.inf, math.nan):
        with pytest.raises(ValueError):
            p_integral(bad, 0.075, 0.0875)


def test_p_integral_unit_window():
    # r1 -> 0 limit of the window [alpha r1, alpha r2] = [0, 1].  The tail
    # below 1e-9 contributes O(1e-28), far under the comparison tolerance.
    got = p_integral(1.0, 1e-9, 1.0)
    assert abs(got - XJ1_UNIT_INTEGRAL) < 1e-9 * XJ1_UNIT_INTEGRAL


def test_p_integral_small_alpha_leading_term():
    # x J1(x) ~ x^2/2 for small x, so P(alpha) ~ alpha^3 (r2^3 - r1^3) / 6.
    r1, r2 = 0.075, 0.0875
    for alpha, tol in ((1e-2, 1e-4), (1e-3, 1e-6), (1e-6, 1e-13)):
        lead = alpha**3 * (r2**3 - r1**3) / 6.0
        assert abs(p_integral(alpha, r1, r2) / lead - 1.0) < tol


def test_p_integral_monotone_in_r2_before_first_j1_root():
    alpha = 1.0
    r1 = 0.1
    r2s = np.linspace(0.2, 3.8, 25)
    vals = [p_integral(alpha, r1, r2) for r2 in r2s]
    assert np.all(np.diff(vals) > 0.0)


def test_p_integral_tolerance_depth():
    # The closed form against a deep adaptive quadrature of x J1(x).
    for alpha, r1, r2 in ((1.0, 0.075, 0.0875), (50.0, 0.075, 0.0875), (3.0, 0.5, 2.0)):
        b, _ = integrate.quad(lambda x: x * special.j1(x), alpha * r1, alpha * r2,
                              epsabs=1e-15, epsrel=1e-13, limit=400)
        assert abs(p_integral(alpha, r1, r2) - b) <= 1e-9 * abs(b)


def test_build_grid_polynomial_exactness():
    # 12 points per panel integrate degree 23 exactly, on any panels.
    for edges in ([0.0, 1.0], panel_edges(1.0, 3, 1e-6)):
        a, w = build_grid(edges)
        assert abs(w @ a**23 - 1.0 / 24.0) < 1e-14
        assert abs(w @ a**2 - 1.0 / 3.0) < 1e-12 / 3.0


def test_build_grid_counts_and_range():
    # 8 panels of 50; the first is halved 26 times, to 50 / 2^26 = 7.5e-7.
    edges = panel_edges(400.0, 8, 1e-6)
    assert edges[0] == 0.0 and edges[-1] == 400.0
    assert edges.size == 8 + 26 + 1
    np.testing.assert_allclose(np.diff(edges[-8:]), 50.0, rtol=1e-12)
    np.testing.assert_allclose(edges[1:28] / 50.0, 0.5 ** np.arange(26, -1, -1), rtol=1e-15)
    assert edges[1] <= 1e-6 < edges[2]
    a, w = build_grid(edges)
    assert a.size == w.size == (8 + 26) * 12
    assert a[0] > 0.0
    assert a[-1] <= 400.0
    assert np.all(np.diff(a) > 0.0)
    assert np.all(w > 0.0)
    assert build_grid(panel_edges(400.0, 20, 1e-6))[0].size == (20 + 25) * 12
    # a first panel already inside the floor is not split
    assert panel_edges(2.0, 2, 1.0).tolist() == [0.0, 1.0, 2.0]


def test_build_grid_exponential_integral():
    a, w = build_grid(panel_edges(50.0, 8, 1e-6))
    exact = 1.0 - math.exp(-50.0)
    assert abs(w @ np.exp(-a) - exact) < 1e-14
    # decay on any scale, as the axial factor has at any lift-off
    for c in (1e-3, 1.0, 1e3, 1e5):
        exact = -math.expm1(-50.0 * c)
        assert abs(w @ (c * np.exp(-c * a)) - exact) < 1e-13 * exact, c


def test_build_grid_integrates_constants_exactly():
    for alpha_max, n in ((1.0, 1), (400.0, 8), (7.5, 10)):
        a, w = build_grid(panel_edges(alpha_max, n, 1e-6))
        assert abs(w @ np.ones(a.size) - alpha_max) < 1e-12 * alpha_max


def test_build_grid_validation():
    for alpha_max, n, alpha_min in ((0.0, 8, 1e-6), (-1.0, 8, 1e-6), (1.0, 0, 1e-6),
                                    (1.0, 8, 0.0), (1.0, 8, 2.0)):
        with pytest.raises(ValueError):
            panel_edges(alpha_max, n, alpha_min)
    for edges in ([0.0], [0.5, 1.0], [0.0, 1.0, 1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            build_grid(edges)


def test_quadrature_grid_is_frozen():
    # coil_grid's cache hands the same arrays to every caller.
    for arrays in (build_grid([0.0, 1.0]), coil_grid(CoilGeometry())):
        for x in arrays:
            with pytest.raises(ValueError):
                x[0] = 0.5
