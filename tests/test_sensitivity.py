"""Perturbation-Jacobian checks: the difference-quotient contract, step-size
saturation, skin-effect blindness to thickness, and frozen regressions."""

import numpy as np
import pytest

import eddyspec.sensitivity as sens
from eddyspec import PARAM_NAMES, PlateParams, delta_l_spectrum, jacobian
from eddyspec.sensitivity import DEFAULT_FRACTIONS, sensitivity_spectrum, write_sensitivity_csv
from eddyspec.samples import dp600

# Jacobian at the DP600 reference with conductivity doubled, 1% steps,
# default band; rows 0, 7, 15, 29, 37, 45, 59 of the stacked matrix.
# Frozen from the forward solver to guard the whole evaluation chain.
SIGMA_DOUBLED_ROWS = (0, 7, 15, 29, 37, 45, 59)
SIGMA_DOUBLED_SNAPSHOT = np.array([
    [-6.3177833483547870e-11, 1.8014861261370570e-06,
     -8.6775911093368338e-02, -1.4393272820962241e-02],
    [-5.0374181947683883e-11, 1.9336948059201390e-06,
     8.8422071576171168e-03, 5.6502076038311005e-04],
    [-3.3821778683310192e-11, 1.2623184784150041e-06,
     -3.8709136187838652e-06, 1.6227086026675969e-02],
    [-8.3685248339702131e-12, 3.1286078280403622e-07,
     1.5488602464078636e-14, 3.0441993678332301e-02],
    [7.3058025333589910e-12, -3.2676247593813883e-07,
     -9.0668821334368918e-03, 1.2768344192903153e-02],
    [1.4330072763504584e-11, -5.3305630282087034e-07,
     4.9793752369431497e-06, 1.0590037103135009e-02],
    [6.7611609354700378e-12, -2.5252599582295670e-07,
     0.0000000000000000e+00, 3.5121656328076026e-03],
])


def test_jacobian_shape_and_metadata(coil, band):
    j = jacobian(coil, dp600(0.005), band)
    assert isinstance(j, np.ndarray)
    assert j.shape == (2 * len(band), 4)
    assert np.all(np.isfinite(j))


def test_jacobian_matches_difference_quotient(coil, band):
    ref = dp600(0.005)
    j = jacobian(coil, ref, band)
    base = delta_l_spectrum(coil, ref, band)
    k = PARAM_NAMES.index("mu_r")
    step = 0.01 * ref.mu_r
    bumped = PlateParams(sigma=ref.sigma, mu_r=ref.mu_r + step, t=ref.t, l=ref.l)
    want = (delta_l_spectrum(coil, bumped, band).stacked - base.stacked) / step
    np.testing.assert_array_equal(j[:, k], want)


def test_jacobian_costs_five_forward_evaluations(coil, band, monkeypatch):
    calls = []
    real = sens.delta_l_spectrum

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sens, "delta_l_spectrum", counting)
    jacobian(coil, dp600(0.005), band)
    assert len(calls) == 5


def test_zero_reference_value_is_rejected(coil, band):
    # A relative step of a zero reference is zero: every quotient would be
    # 0/0.  Only the parameter that is zero is refused.
    thin = PlateParams(sigma=4.13e6, mu_r=222.0, t=0.0, l=5e-3)
    with pytest.raises(ValueError, match="reference t is 0"):
        jacobian(coil, thin, band)
    with pytest.raises(ValueError, match="reference t is 0"):
        sensitivity_spectrum(coil, thin, "t", freqs=band)
    air = PlateParams(sigma=0.0, mu_r=222.0, t=1.4e-3, l=5e-3)
    with pytest.raises(ValueError, match="reference sigma is 0"):
        sensitivity_spectrum(coil, air, "sigma", freqs=band)
    rows = sensitivity_spectrum(coil, thin, "sigma", fractions=[0.01], freqs=band)
    assert np.all(np.isfinite(np.array(rows)))


def test_jacobian_fraction_validation(coil, band):
    with pytest.raises(ValueError):
        jacobian(coil, dp600(0.005), band, fractions=(0.0, 0.01, 0.01, 0.01))
    with pytest.raises(ValueError):
        jacobian(coil, dp600(0.005), band, fractions=(0.6, 0.01, 0.01, 0.01))
    with pytest.raises(ValueError):
        jacobian(coil, dp600(0.005), band, fractions=(0.01, 0.01, 0.01))
    # NaN passes both "<= 0" and "> 0.5"; it must be refused as a fraction.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="perturbation fractions"):
            jacobian(coil, dp600(0.005), band, fractions=(0.01, bad, 0.01, 0.01))


def test_step_size_saturation(coil, band):
    # Shrinking an already-small step barely moves any column; a 50% step
    # leaves the saturated regime entirely.
    j1 = jacobian(coil, dp600(0.005), band, fractions=(0.01,) * 4)
    j_half = jacobian(coil, dp600(0.005), band, fractions=(0.005,) * 4)
    j50 = jacobian(coil, dp600(0.005), band, fractions=(0.5,) * 4)
    for k in range(4):
        norm = np.linalg.norm(j1[:, k])
        assert np.linalg.norm(j1[:, k] - j_half[:, k]) < 0.02 * norm
    departures = [
        np.linalg.norm(j50[:, k] - j1[:, k])
        / np.linalg.norm(j1[:, k])
        for k in range(4)
    ]
    assert max(departures) > 0.05


def test_one_sided_matches_central_difference(coil, band):
    ref = dp600(0.005)
    j1 = jacobian(coil, ref, band)
    p0 = ref.as_array()
    for k in range(4):
        h = 0.005 * p0[k]
        up, dn = p0.copy(), p0.copy()
        up[k] += h
        dn[k] -= h
        central = (
            delta_l_spectrum(coil, PlateParams.from_array(up), band).stacked
            - delta_l_spectrum(coil, PlateParams.from_array(dn), band).stacked
        ) / (2.0 * h)
        rel = np.linalg.norm(j1[:, k] - central) / np.linalg.norm(central)
        assert rel < 0.05


def test_thickness_rows_vanish_above_skin_depth(coil):
    # At 1 MHz the skin depth in DP600 is tens of microns, far under the
    # 1.4 mm plate, so the high-frequency rows of the t column collapse.
    freqs = np.geomspace(1e2, 3e6, 12)
    j = jacobian(coil, dp600(0.005), freqs)
    hf = freqs >= 1e6
    sel = np.concatenate([hf, hf])
    tcol = np.abs(j[:, 2])
    assert tcol[sel].max() < 1e-6 * tcol.max()


def test_sigma_doubled_reference_regression(coil, band):
    ref = dp600(0.005)
    doubled = PlateParams(sigma=2.0 * ref.sigma, mu_r=ref.mu_r, t=ref.t, l=ref.l)
    j_ref = jacobian(coil, ref, band)
    j2 = jacobian(coil, doubled, band)
    # the conductivity column genuinely moves with the reference
    rel = np.linalg.norm(j2[:, 0] - j_ref[:, 0])
    assert rel > 0.1 * np.linalg.norm(j_ref[:, 0])
    got = j2[list(SIGMA_DOUBLED_ROWS), :]
    for k in range(4):
        atol = 1e-7 * np.max(np.abs(SIGMA_DOUBLED_SNAPSHOT[:, k]))
        np.testing.assert_allclose(
            got[:, k], SIGMA_DOUBLED_SNAPSHOT[:, k], rtol=1e-6, atol=atol
        )


def test_log_scaled_column_norms(coil, band):
    # Per-relative-change sensitivities over the default band: conductivity
    # and permeability dominate, thickness trails at roughly a fifth of the
    # conductivity norm.  Pinned as measured behavior at this reference.
    j = jacobian(coil, dp600(0.005), band)
    norms = np.linalg.norm(j * dp600(0.005).as_array(), axis=0)
    ratio = norms[2] / norms[0]
    assert 0.12 < ratio < 0.25
    assert norms[0] > norms[2]
    assert norms[1] > norms[2]


def test_jacobian_rebuild_is_bit_identical(coil, band):
    a = jacobian(coil, dp600(0.005), band)
    b = jacobian(coil, dp600(0.005), band)
    np.testing.assert_array_equal(a, b)


def test_sensitivity_spectrum_rows(coil, band):
    rows = sensitivity_spectrum(coil, dp600(0.005), "sigma", freqs=band)
    assert len(rows) == len(DEFAULT_FRACTIONS) * len(band)
    fracs = [r[1] for r in rows]
    assert fracs == sorted(fracs)
    m = len(band)
    for i in range(m):
        assert rows[i][0] == band[i]


def test_sensitivity_spectrum_equals_jacobian_column(coil, band):
    # one difference quotient, read through both code paths
    j = jacobian(coil, dp600(0.005), band)
    m = len(band)
    for k, name in enumerate(PARAM_NAMES):
        rows = sensitivity_spectrum(coil, dp600(0.005), name, fractions=[0.01], freqs=band)
        np.testing.assert_array_equal([r[2] for r in rows], j[:m, k])
        np.testing.assert_array_equal([r[3] for r in rows], j[m:, k])


def test_sensitivity_spectrum_empty_frequency_list(coil):
    assert sensitivity_spectrum(coil, dp600(0.005), "t", freqs=[]) == []


def test_sensitivity_spectrum_validation(coil, band):
    with pytest.raises(ValueError):
        sensitivity_spectrum(coil, dp600(0.005), "thickness", freqs=band)
    with pytest.raises(ValueError):
        sensitivity_spectrum(coil, dp600(0.005), "t", fractions=[0.0], freqs=band)
    with pytest.raises(ValueError):
        sensitivity_spectrum(coil, dp600(0.005), "t", fractions=[], freqs=band)
    with pytest.raises(ValueError, match="perturbation fractions"):
        sensitivity_spectrum(coil, dp600(0.005), "t", fractions=[0.01, np.nan], freqs=band)


def test_write_sensitivity_csv(tmp_path, coil):
    freqs = [1e3, 1e4]
    rows = []
    for name in PARAM_NAMES:
        for f, frac, re, im in sensitivity_spectrum(
            coil, dp600(0.005), name, fractions=[0.01], freqs=freqs
        ):
            rows.append((f, name, frac, re, im))
    out = tmp_path / "sens.csv"
    write_sensitivity_csv(out, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "freq_hz,param,fraction,re_sens,im_sens"
    assert len(lines) == 1 + len(PARAM_NAMES) * len(freqs)
    assert {line.split(",")[1] for line in lines[1:]} == set(PARAM_NAMES)
