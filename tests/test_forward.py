"""Forward-model checks: kernel factors, analytic limits, a full
cross-check of the inductance integral against nested adaptive quadrature,
and the exact Jacobian against difference quotients."""

import cmath
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eddyspec import (
    MU0,
    CoilGeometry,
    InductanceSpectrum,
    ParamBounds,
    PlateParams,
    default_frequencies,
    delta_l_spectrum,
    impedance_to_inductance,
)
from eddyspec.forward import (
    _BLOCK,
    DEFAULT_N_FREQS,
    a_factor,
    alpha1,
    coil_constant,
    coil_grid,
    phi,
    truncation_alpha_max,
)
from eddyspec.specfun import build_grid, p_integral, panel_edges
from eddyspec.samples import dp600, dp800, dp1000

from conftest import oracle_delta_l


def test_coil_geometry_reference_probe():
    coil = CoilGeometry()
    assert (coil.r1, coil.r2, coil.h, coil.g) == (0.075, 0.0875, 0.010, 0.035)
    assert coil.n_turns == 15


def test_coil_geometry_validation():
    with pytest.raises(ValueError):
        CoilGeometry(r1=0.09, r2=0.0875)
    with pytest.raises(ValueError):
        CoilGeometry(h=0.0)
    with pytest.raises(ValueError):
        CoilGeometry(n_turns=0)
    # NaN and inf passed "< 1" and gave a NaN or infinite spectrum.
    for n_turns in (math.nan, math.inf, 2.5):
        with pytest.raises(ValueError, match=f"^n_turns must be an integer >= 1, got {n_turns}"):
            CoilGeometry(n_turns=n_turns)
    with pytest.raises(ValueError):
        CoilGeometry(g=-0.005)


@pytest.mark.parametrize("name", ["r1", "r2", "h", "g"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_coil_geometry_rejects_non_finite_lengths(name, value):
    # An infinite h gave an all-zero spectrum, a NaN h a failed integer
    # conversion and an infinite r2 an OverflowError.
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        CoilGeometry(**{name: value})


def test_plate_params_array_round_trip():
    p = dp600(0.005)
    np.testing.assert_array_equal(p.as_array(), [4.13e6, 222.0, 1.40e-3, 5e-3])
    assert PlateParams.from_array(p.as_array()) == p


def test_plate_params_validation():
    with pytest.raises(ValueError):
        PlateParams(sigma=-1.0, mu_r=1.0, t=1e-3, l=1e-3)
    with pytest.raises(ValueError):
        PlateParams(sigma=1e6, mu_r=0.5, t=1e-3, l=1e-3)
    with pytest.raises(ValueError):
        PlateParams(sigma=1e6, mu_r=1.0, t=-1e-3, l=1e-3)
    with pytest.raises(ValueError):
        PlateParams(sigma=1e6, mu_r=1.0, t=1e-3, l=0.0)
    with pytest.raises(ValueError):
        PlateParams(sigma=math.nan, mu_r=1.0, t=1e-3, l=1e-3)


def test_spectrum_stacked_layout_and_validation():
    s = InductanceSpectrum(freqs=[1.0, 2.0], values=[1 + 2j, 3 + 4j])
    np.testing.assert_array_equal(s.stacked, [1.0, 3.0, 2.0, 4.0])
    assert len(s) == 2
    with pytest.raises(ValueError):
        InductanceSpectrum(freqs=[2.0, 1.0], values=[0j, 0j])
    with pytest.raises(ValueError):
        InductanceSpectrum(freqs=[0.0, 1.0], values=[0j, 0j])
    with pytest.raises(ValueError):
        InductanceSpectrum(freqs=[1.0, 2.0], values=[0j])
    for freqs in ([1.0, math.inf], [math.nan, 1.0], [1.0, math.nan]):
        with pytest.raises(ValueError):
            InductanceSpectrum(freqs=freqs, values=[0j, 0j])
    # values may be non-finite: invert reports such data as not converged
    s = InductanceSpectrum(freqs=[1.0, 2.0], values=[complex(math.nan, 0.0), math.inf])
    assert not np.any(np.isfinite(s.values))


def test_default_frequencies():
    f = default_frequencies()
    assert len(f) == DEFAULT_N_FREQS
    assert f[0] == 100.0 and abs(f[-1] - 1e5) < 1e-9 * 1e5
    assert len(default_frequencies(m=10)) == 10
    assert np.all(np.diff(f) > 0)
    np.testing.assert_array_equal(default_frequencies(50.0, 100.0, 1), [50.0])
    with pytest.raises(ValueError):
        default_frequencies(100.0, 10.0)
    for m in (0, 2.5):
        with pytest.raises(ValueError):
            default_frequencies(m=m)
    for fmin, fmax in ((100.0, math.inf), (math.nan, 1e5), (100.0, math.nan)):
        with pytest.raises(ValueError):
            default_frequencies(fmin, fmax, 3)


def test_alpha1_zero_conductivity_is_alpha():
    assert alpha1(3.7, 1e4, 0.0, 500.0) == 3.7 + 0j
    a = np.array([1.0, 10.0, 100.0])
    np.testing.assert_array_equal(alpha1(a, 1e4, 0.0, 500.0), a.astype(complex))


def test_alpha1_principal_square_root_of_2j():
    # omega * sigma * mu_r * mu0 = 2 at alpha = 0 gives sqrt(2j) = 1 + j
    omega = 2.0 / MU0
    got = alpha1(0.0, omega, 1.0, 1.0)
    assert abs(got - (1.0 + 1.0j)) < 1e-12


def test_alpha1_dp600_spot_against_direct_arithmetic():
    omega = 2.0 * math.pi * 1e4
    want = cmath.sqrt(100.0**2 + 1j * omega * 4.13e6 * 222.0 * MU0)
    got = alpha1(100.0, omega, 4.13e6, 222.0)
    assert abs(got - want) < 1e-9 * abs(want)
    assert got.real > 0.0


def test_phi_zero_thickness_is_zero():
    plate = PlateParams(sigma=4.13e6, mu_r=222.0, t=0.0, l=5e-3)
    a = np.geomspace(0.1, 300.0, 40)
    np.testing.assert_array_equal(phi(a, 2e3 * math.pi, plate), np.zeros(40, complex))


def test_phi_no_contrast_is_zero():
    plate = PlateParams(sigma=0.0, mu_r=1.0, t=1.4e-3, l=5e-3)
    assert phi(37.0, 2e3 * math.pi, plate) == 0.0


def test_phi_magnitude_bounded_by_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        plate = PlateParams(
            sigma=10.0 ** rng.uniform(4, 8),
            mu_r=10.0 ** rng.uniform(0, 4),
            t=10.0 ** rng.uniform(-5, -1.5),
            l=5e-3,
        )
        omega = 2.0 * math.pi * 10.0 ** rng.uniform(-1, 7)
        a = np.geomspace(0.01, 400.0, 30)
        assert np.all(np.abs(phi(a, omega, plate)) <= 1.0 + 1e-12)


def test_phi_thick_plate_matches_half_space():
    omega = 2.0 * math.pi * 1e3
    for a in (5.0, 50.0, 200.0):
        a1 = alpha1(a, omega, 4.13e6, 222.0)
        t = 10.0 / a1.real
        plate = PlateParams(sigma=4.13e6, mu_r=222.0, t=t, l=5e-3)
        half = (222.0 * a - a1) / (222.0 * a + a1)
        assert abs(phi(a, omega, plate) - half) < 1e-8 * abs(half)


def test_phi_overflow_branch_matches_naive_form():
    # Wherever exp(2|alpha1|t) stays representable the production value
    # must equal the textbook expression; past that (2|alpha1|t > 700) it
    # must stay finite, bounded, and at the half-space value v/u.
    omega = 2.0 * math.pi * 1e5
    plate = PlateParams(sigma=4.13e6, mu_r=222.0, t=1.4e-3, l=5e-3)
    a = np.geomspace(0.1, 400.0, 200)
    a1 = alpha1(a, omega, plate.sigma, plate.mu_r)
    z = 2.0 * a1 * plate.t
    safe = np.abs(z) <= 700.0
    assert np.any(safe)
    u = plate.mu_r * a + a1
    v = plate.mu_r * a - a1
    naive = u * v * (np.exp(z) - 1.0) / (u * u * np.exp(z) - v * v)
    got = phi(a, omega, plate)
    np.testing.assert_allclose(got[safe], naive[safe], rtol=1e-12)

    big = PlateParams(sigma=1e8, mu_r=1e3, t=0.05, l=5e-3)
    omega = 2.0 * math.pi * 1e7
    vals = phi(a, omega, big)
    assert np.all(np.isfinite(vals))
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    a1 = alpha1(a, omega, big.sigma, big.mu_r)
    assert np.all(2.0 * np.abs(a1) * big.t > 700.0)
    half = (big.mu_r * a - a1) / (big.mu_r * a + a1)
    np.testing.assert_allclose(vals, half, rtol=1e-14)


def test_a_factor_values_and_monotonicity():
    coil = CoilGeometry()
    assert abs(a_factor(1e-14, coil, 5e-3) - 2.0) < 1e-10
    # alpha (2l + h + g) = ln 2 and 2 alpha h = ln 2 give 0.5 * 1.5
    tuned = CoilGeometry(r1=0.075, r2=0.0875, h=math.log(2.0) / 2.0, g=0.0)
    l = (math.log(2.0) - tuned.h - tuned.g) / 2.0
    assert abs(a_factor(1.0, tuned, l) - 0.75) < 1e-15
    direct = math.exp(-100.0 * (2 * 5e-3 + coil.h + coil.g)) * (
        math.exp(-2.0 * 100.0 * coil.h) + 1.0
    )
    assert a_factor(100.0, coil, 5e-3) == direct

    a = np.geomspace(0.01, 300.0, 50)
    assert np.all(np.diff(a_factor(a, coil, 5e-3)) < 0.0)
    assert np.all(a_factor(a, coil, 30e-3) < a_factor(a, coil, 5e-3))
    vals = a_factor(a, coil, 5e-3)
    assert np.all((vals > 0.0) & (vals <= 2.0))
    with pytest.raises(ValueError):
        a_factor(1.0, coil, 0.0)


def test_coil_constant_reference_and_scalings():
    coil = CoilGeometry()
    exact = math.pi * MU0 * 15**2 / (0.010**2 * 0.0125**2)
    assert abs(coil_constant(coil) - exact) < 1e-10 * exact
    assert abs(coil_constant(coil) - 5.684e4) < 2e-4 * 5.684e4
    double_n = CoilGeometry(n_turns=30)
    assert abs(coil_constant(double_n) / coil_constant(coil) - 4.0) < 1e-12
    wide = CoilGeometry(r2=coil.r1 + 2.0 * (coil.r2 - coil.r1))
    assert abs(coil_constant(coil) / coil_constant(wide) - 4.0) < 1e-12


def test_truncation_alpha_max_tail_and_floor():
    # The cut holds at zero lift-off, so for every plate: the axial decay
    # alone is down to exp(-30) there.
    coil = CoilGeometry()
    s = coil.h + coil.g
    assert math.exp(-truncation_alpha_max(coil) * s) <= math.exp(-30.0) * (1.0 + 1e-12)
    tall = CoilGeometry(h=0.1, g=0.5)
    assert truncation_alpha_max(tall) == 20.0 / tall.r1


def test_delta_l_zero_thickness_is_zero(coil, band):
    plate = PlateParams(sigma=4.13e6, mu_r=222.0, t=0.0, l=5e-3)
    values = delta_l_spectrum(coil, plate, band).values
    assert np.all(np.abs(values) < 1e-18)


def test_delta_l_no_contrast_is_zero(coil, band):
    plate = PlateParams(sigma=0.0, mu_r=1.0, t=1.4e-3, l=5e-3)
    values = delta_l_spectrum(coil, plate, band).values
    assert np.all(np.abs(values) < 1e-18)


def test_delta_l_near_vacuum_contrast(coil):
    # A plate at the conductivity floor with mu_r = 1 still answers through
    # its eddy-current loss term, which is linear in sigma at these
    # frequencies: the response is about a fifth of DP600's, not orders of
    # magnitude below it.  Pinned as measured behavior.
    weak = PlateParams(sigma=1e4, mu_r=1.0, t=1.40e-3, l=5e-3)
    ratio = abs(delta_l_spectrum(coil, weak, [1e4]).values[0]) / abs(
        delta_l_spectrum(coil, dp600(0.005), [1e4]).values[0]
    )
    assert 0.15 < ratio < 0.25


def test_delta_l_dp600_1khz_against_adaptive_oracle(coil):
    got = delta_l_spectrum(coil, dp600(0.005), [1e3]).values[0]
    want = oracle_delta_l(coil, dp600(0.005), 1e3)
    assert abs(got - want) < 1e-6 * abs(want)


def test_thin_plates_at_low_frequency_against_adaptive_oracle():
    # Thin low-conductivity plates put a pole of phi near
    # alpha ~ t omega sigma mu0 / 2, 5e-6 to 7e-6 rad/m here at 10 Hz: far
    # inside any grid's first uniform panel, which the grading resolves.
    pencil = CoilGeometry(r1=0.020, r2=0.025, h=0.005, g=0.010)
    cases = [
        (pencil, PlateParams(sigma=11.7e3, mu_r=238.0, t=15.4e-6, l=37.5e-3)),
        (CoilGeometry(), PlateParams(sigma=10.5e3, mu_r=4123.0, t=13.2e-6, l=6.4e-3)),
    ]
    freqs = [10.0, 100.0, 1e3]
    for coil, plate in cases:
        got = delta_l_spectrum(coil, plate, freqs).values
        want = np.array([oracle_delta_l(coil, plate, f) for f in freqs])
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), plate


def test_band_edge_signs_with_oracle(coil, band):
    ferro = dp600(0.005)
    low = delta_l_spectrum(coil, ferro, band).values[0]
    assert low.real > 0.0
    assert oracle_delta_l(coil, ferro, band[0]).real > 0.0

    conductor = PlateParams(sigma=4e6, mu_r=1.0, t=1.40e-3, l=5e-3)
    high = delta_l_spectrum(coil, conductor, band).values[-1]
    assert high.real < 0.0
    assert oracle_delta_l(coil, conductor, band[-1]).real < 0.0


def test_liftoff_monotonicity(coil, band):
    mags = []
    for l_mm in (5.0, 30.0, 50.0, 100.0):
        plate = dp600(l_mm * 1e-3)
        mags.append(np.abs(delta_l_spectrum(coil, plate, band).values))
    for nearer, farther in zip(mags, mags[1:]):
        assert np.all(farther < nearer)


def test_low_frequency_loss_vanishes(coil):
    v = delta_l_spectrum(coil, dp600(0.005), [0.1]).values[0]
    assert abs(v.imag / v.real) < 0.01


def test_quadrature_doubling(coil, band):
    # The reference probe's grid is 8 uniform panels graded toward 0 down
    # to 1e-6 rad/m; splitting every one of its panels in two changes no
    # band value.
    plate = dp600(0.005)
    nodes, _ = coil_grid(coil)
    edges = panel_edges(truncation_alpha_max(coil), 8, 1e-6)
    np.testing.assert_array_equal(build_grid(edges)[0], nodes)
    assert nodes.size == 420
    a, w = build_grid(np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])))
    weights = (coil_constant(coil) * w * p_integral(a, coil.r1, coil.r2) ** 2
               / a**6 * a_factor(a, coil, plate.l))
    doubled = np.array([weights @ phi(a, 2.0 * math.pi * f, plate) for f in band])
    values = delta_l_spectrum(coil, plate, band).values
    assert np.max(np.abs(doubled - values) / np.abs(values)) < 1e-12


def test_frequency_continuity(coil):
    freqs = np.geomspace(100.0, 1e5, 1000)
    v = delta_l_spectrum(coil, dp600(0.005), freqs).values
    jumps = np.abs(np.diff(v)) / np.abs(v[:-1])
    assert np.max(jumps) < 0.05


def test_spectra_of_all_samples_are_finite(coil, band):
    for plate in (dp600(), dp800(), dp1000(0.05)):
        v = delta_l_spectrum(coil, plate, band).values
        assert np.all(np.isfinite(v))


def test_delta_l_input_validation(coil):
    plate = dp600(0.005)
    for freqs in ([0.0], [math.nan], [1e3, math.inf], [math.inf, math.inf], [1e3, 0.5e3]):
        for jacobian in (False, True):
            with pytest.raises(ValueError):
                delta_l_spectrum(coil, plate, freqs, jacobian=jacobian)


def test_empty_frequency_list(coil):
    s = delta_l_spectrum(coil, dp600(0.005), [])
    assert len(s) == 0
    assert s.stacked.size == 0
    s, entries = delta_l_spectrum(coil, dp600(0.005), [], jacobian=True)
    assert len(s) == 0
    assert entries.shape == (0, 4)


# Secant steps for the columns that have no derivative: sigma at sigma = 0
# and t at t = 0 (see _assert_secants_grow).
_SECANT_STEPS = {0: (100.0, 1.0, 1e-2, 1e-4), 2: (1e-6, 1e-8, 1e-10, 1e-12)}

# mu_r = 1 is the lowest physical permeability; the difference there is
# one-sided, with this absolute step.
_MU_R_EDGE_STEP = 1e-5


def _difference_jacobian(coil, plate, freqs):
    """Central differences of delta_l_spectrum with 1e-5 relative steps;
    at mu_r = 1, a second-order one-sided difference instead.  The columns
    in _SECANT_STEPS are None where their parameter is 0.  Returns
    (columns, steps, norm of the spectrum)."""
    p0 = plate.as_array()
    base = delta_l_spectrum(coil, plate, freqs).stacked

    def at(k, x):
        q = p0.copy()
        q[k] = x
        return delta_l_spectrum(coil, PlateParams.from_array(q), freqs).stacked

    cols, steps = [], []
    for k in range(4):
        if k in _SECANT_STEPS and p0[k] == 0.0:
            cols.append(None)
            steps.append(None)
            continue
        if k == 1 and p0[k] * (1.0 - 1e-5) <= 1.0:
            h = _MU_R_EDGE_STEP
            cols.append((-3.0 * base + 4.0 * at(k, p0[k] + h) - at(k, p0[k] + 2 * h)) / (2 * h))
        else:
            h = 1e-5 * p0[k]
            cols.append((at(k, p0[k] + h) - at(k, p0[k] - h)) / (2 * h))
        steps.append(h)
    return cols, steps, np.linalg.norm(base)


def _assert_secants_grow(coil, plate, band, k):
    """Near alpha = 0 the sigma kernel at sigma = 0 goes as 1/alpha, and so
    does the t kernel at t = 0 (phi has a pole at alpha ~ t k^2 / (2 mu_r),
    which reaches 0 with t).  dL - dL(0) then goes as x log x in that
    parameter x, and the model has no derivative there: the secants
    (dL(x) - dL(0)) / x grow without bound as x falls."""
    base = delta_l_spectrum(coil, plate, band).stacked
    sizes = []
    for x in _SECANT_STEPS[k]:
        q = plate.as_array()
        q[k] = x
        secant = (delta_l_spectrum(coil, PlateParams.from_array(q), band).stacked - base) / x
        sizes.append(np.linalg.norm(secant))
    assert np.all(np.diff(sizes) > 0.0), (plate, k, sizes)


def _assert_column_matches(got, want, step, size, where):
    """A Jacobian column agrees with its difference quotient to 1e-7
    relative, or to the rounding floor of the quotient (1e-12 of the
    spectrum over the step) where the column is too small for a
    difference to resolve."""
    assert np.all(np.isfinite(got)), where
    err = np.linalg.norm(got - want)
    tol = 1e-7 * np.linalg.norm(want) + 1e-12 * size / step
    assert err <= tol, (*where, err, tol)


def test_jacobian_matches_central_differences(coil, band):
    # Grades, every corner of the default bounds box, sigma = 0 and t = 0.
    # The sigma column at sigma = 0 and the t column at t = 0 have no
    # derivative: they must be NaN, and their secants must keep growing.
    # test_properties draws plates inside the box.
    box = ParamBounds()
    plates = [dp600(0.005), dp800(), dp1000(0.03)]
    plates += [PlateParams.from_array(c) for c in itertools.product(*zip(box.lower(), box.upper()))]
    plates += [
        PlateParams(sigma=0.0, mu_r=1.0, t=1.4e-3, l=5e-3),
        PlateParams(sigma=0.0, mu_r=222.0, t=1.4e-3, l=5e-3),
        PlateParams(sigma=4.13e6, mu_r=222.0, t=0.0, l=5e-3),
    ]
    for plate in plates:
        spectrum, entries = delta_l_spectrum(coil, plate, band, jacobian=True)
        np.testing.assert_array_equal(
            spectrum.values, delta_l_spectrum(coil, plate, band).values)
        assert entries.shape == (2 * len(band), 4)
        want, steps, size = _difference_jacobian(coil, plate, band)
        for k in range(4):
            if want[k] is None:
                assert np.all(np.isnan(entries[:, k])), (plate, k)
                _assert_secants_grow(coil, plate, band, k)
                continue
            _assert_column_matches(entries[:, k], want[k], steps[k], size, (plate, k))


def test_jacobian_is_finite_without_a_plate(coil, band):
    # Only the sigma column at sigma = 0 (t > 0) and the t column at t = 0
    # (sigma > 0) are NaN.  With sigma = t = 0 there is no plate: dL is 0
    # for every sigma, and t enters as a magnetostatic layer.
    _, entries = delta_l_spectrum(coil, PlateParams(0.0, 222.0, 0.0, 5e-3), band, jacobian=True)
    assert np.all(np.isfinite(entries))
    assert np.all(entries[:, 0] == 0.0)
    _, entries = delta_l_spectrum(coil, PlateParams(1e-300, 222.0, 1e-300, 5e-3), band,
                                  jacobian=True)
    assert np.all(np.isfinite(entries))


def test_jacobian_blocks_do_not_change_the_result():
    # The Jacobian pass runs the kernel on blocks of frequencies.  Each
    # row must not depend on which block holds it: the pass equals the
    # row-stack of one-frequency passes, to a tolerance because a BLAS
    # matrix-vector product need not round each row alike, and its values
    # equal the plain spectrum bit for bit.  Bands of 1, rows, rows + 1
    # and 1000 points, rows being the frequencies per block on the coil.
    pencil = CoilGeometry(r1=0.020, r2=0.025, h=0.005, g=0.010)
    plates = [dp600(0.005), PlateParams(0.0, 222.0, 1.4e-3, 5e-3),
              PlateParams(4.13e6, 222.0, 0.0, 5e-3)]
    for coil, plate in itertools.product((CoilGeometry(), pencil), plates):
        rows = max(1, _BLOCK // coil_grid(coil)[0].size)
        for m in (1, rows, rows + 1, 1000):
            band = default_frequencies(10.0, 1e6, m)
            spectrum, entries = delta_l_spectrum(coil, plate, band, jacobian=True)
            np.testing.assert_array_equal(
                spectrum.values, delta_l_spectrum(coil, plate, band).values)
            singles = [delta_l_spectrum(coil, plate, [f], jacobian=True)[1] for f in band]
            want = np.concatenate([[e[0] for e in singles], [e[1] for e in singles]])
            np.testing.assert_array_equal(np.isnan(entries), np.isnan(want))
            scale = np.nanmax(np.abs(want), axis=0, initial=0.0)
            err = np.nan_to_num(np.abs(entries - want))
            assert np.all(err <= 1e-14 * scale), (coil, plate, band.size)


def test_jacobian_pass_working_set_is_bounded(coil):
    # The blocks keep a pass's temporaries small on a long band: one
    # (frequencies x nodes) block over 1000 points peaks near 130 MB.
    band = default_frequencies(10.0, 1e6, 1000)
    plate = dp600(0.005)
    delta_l_spectrum(coil, plate, band[:1], jacobian=True)  # builds the grid
    tracemalloc.start()
    try:
        delta_l_spectrum(coil, plate, band, jacobian=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def test_jacobian_matches_oracle_differences(coil):
    plate = dp600(0.005)
    _, entries = delta_l_spectrum(coil, plate, [1e3], jacobian=True)
    grad = entries[0] + 1j * entries[1]
    p0 = plate.as_array()
    for k in range(4):
        up, dn = p0.copy(), p0.copy()
        h = 1e-4 * p0[k]
        up[k] += h
        dn[k] -= h
        want = (oracle_delta_l(coil, PlateParams.from_array(up), 1e3)
                - oracle_delta_l(coil, PlateParams.from_array(dn), 1e3)) / (2 * h)
        assert abs(grad[k] - want) < 1e-6 * abs(want), k


def test_package_runs_without_scipy(tmp_path):
    # The runtime needs numpy alone; scipy is a test oracle.  With every
    # scipy import blocked, a spectrum and its Jacobian, a noiseless fit
    # and the command line still work, and no scipy module gets loaded.
    import eddyspec

    plate_cfg = tmp_path / "plate.cfg"
    plate_cfg.write_text("sigma_msm = 4\nmu_r = 150\nt_mm = 2\nliftoff_mm = 8\n")
    out = tmp_path / "dl.csv"
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import eddyspec as es, eddyspec.cli\n"
        "coil, band = es.CoilGeometry(), es.default_frequencies()\n"
        "plate = es.PlateParams(4.13e6, 222.0, 1.4e-3, 5e-3)\n"
        "clean, entries = es.delta_l_spectrum(coil, plate, band, jacobian=True)\n"
        "assert entries.shape == (60, 4)\n"
        "assert es.invert(coil, clean).converged\n"
        f"assert eddyspec.cli.main(['forward', '--plate', {str(plate_cfg)!r},"
        f" '--out', {str(out)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " and sys.modules[m] is not None))\n"
    )
    src = str(Path(eddyspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "[]", run.stdout + run.stderr
    assert len(eddyspec.load_spectrum(out)) == DEFAULT_N_FREQS


def test_impedance_to_inductance():
    assert impedance_to_inductance(3 + 4j, 3 + 4j, 1e3) == 0j
    dl = 5e-6
    z_diff = 1j * 2.0 * math.pi * 1000.0 * dl
    got = impedance_to_inductance(z_diff, 0j, 1000.0)
    assert abs(got - dl) < 1e-15
    got = impedance_to_inductance(1 + 1j, 0j, 1.0 / (2.0 * math.pi))
    assert abs(got - (1 - 1j)) < 1e-15
    with pytest.raises(ValueError):
        impedance_to_inductance(1j, 0j, 0.0)
