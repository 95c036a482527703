"""Finite-difference checks: the difference-quotient contract, step-size
saturation, skin-effect blindness to thickness, and frozen regressions."""

import numpy as np
import pytest

import eddyspec.sensitivity as sens
from eddyspec import (
    PARAM_NAMES,
    PlateParams,
    default_frequencies,
    delta_l_spectrum,
    difference_quotients,
)
from eddyspec.sensitivity import DEFAULT_FRACTIONS, write_sensitivity_csv
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


def _quotients(coil, ref, freqs, fraction=0.01):
    """The quotients at one step fraction: a (2m, 4) finite-difference Jacobian."""
    return difference_quotients(coil, ref, freqs, [fraction])[0]


def test_jacobian_shape_and_metadata(coil, band):
    q = difference_quotients(coil, dp600(0.005), band)
    assert isinstance(q, np.ndarray)
    assert q.shape == (len(DEFAULT_FRACTIONS), 2 * len(band), 4)
    assert np.all(np.isfinite(q))
    # No frequencies given: the default band.
    q_default = difference_quotients(coil, dp600(0.005), fractions=[0.01])
    assert q_default.shape == (1, 2 * len(default_frequencies()), 4)


def test_jacobian_matches_difference_quotient(coil, band):
    ref = dp600(0.005)
    j = _quotients(coil, ref, band)
    base = delta_l_spectrum(coil, ref, band)
    k = PARAM_NAMES.index("mu_r")
    step = 0.01 * ref.mu_r
    bumped = PlateParams(sigma=ref.sigma, mu_r=ref.mu_r + step, t=ref.t, l=ref.l)
    want = (delta_l_spectrum(coil, bumped, band).stacked - base.stacked) / step
    np.testing.assert_array_equal(j[:, k], want)


def test_difference_quotients_cost_one_plus_four_spectra_per_fraction(
        coil, band, monkeypatch):
    real = sens.delta_l_spectrum
    for fractions in ([0.01], DEFAULT_FRACTIONS):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sens, "delta_l_spectrum", counting)
        difference_quotients(coil, dp600(0.005), band, fractions)
        assert len(calls) == 1 + 4 * len(fractions)


def test_zero_reference_value_is_rejected(coil, band):
    # A relative step of a zero reference is zero: every quotient would be
    # 0/0.  The parameter that is zero is named.
    thin = PlateParams(sigma=4.13e6, mu_r=222.0, t=0.0, l=5e-3)
    with pytest.raises(ValueError, match="reference t is 0"):
        difference_quotients(coil, thin, band)
    air = PlateParams(sigma=0.0, mu_r=222.0, t=1.4e-3, l=5e-3)
    with pytest.raises(ValueError, match="reference sigma is 0"):
        difference_quotients(coil, air, band)


def test_jacobian_fraction_validation(coil, band):
    # Above 0.5, alone or beside a legal fraction, or infinite.
    for bad in ([0.6], [0.01, 0.6], [0.01, np.inf]):
        with pytest.raises(ValueError, match="perturbation fractions"):
            difference_quotients(coil, dp600(0.005), band, bad)


def test_sensitivity_spectrum_validation(coil, band):
    with pytest.raises(ValueError, match="perturbation fractions"):
        difference_quotients(coil, dp600(0.005), band, [0.0])
    with pytest.raises(ValueError, match="at least one perturbation fraction"):
        difference_quotients(coil, dp600(0.005), band, [])
    # NaN passes both "<= 0" and "> 0.5"; it must be refused as a fraction.
    with pytest.raises(ValueError, match="perturbation fractions"):
        difference_quotients(coil, dp600(0.005), band, [0.01, np.nan])


def test_step_size_saturation(coil, band):
    # Shrinking an already-small step barely moves any column; a 50% step
    # leaves the saturated regime entirely.
    j_half, j1, j50 = difference_quotients(coil, dp600(0.005), band, (0.005, 0.01, 0.5))
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
    j1 = _quotients(coil, ref, band)
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
    j = _quotients(coil, dp600(0.005), freqs)
    hf = freqs >= 1e6
    sel = np.concatenate([hf, hf])
    tcol = np.abs(j[:, 2])
    assert tcol[sel].max() < 1e-6 * tcol.max()


def test_sigma_doubled_reference_regression(coil, band):
    ref = dp600(0.005)
    doubled = PlateParams(sigma=2.0 * ref.sigma, mu_r=ref.mu_r, t=ref.t, l=ref.l)
    j_ref = _quotients(coil, ref, band)
    j2 = _quotients(coil, doubled, band)
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
    j = _quotients(coil, dp600(0.005), band)
    norms = np.linalg.norm(j * dp600(0.005).as_array(), axis=0)
    ratio = norms[2] / norms[0]
    assert 0.12 < ratio < 0.25
    assert norms[0] > norms[2]
    assert norms[1] > norms[2]


def test_jacobian_rebuild_is_bit_identical(coil, band):
    a = _quotients(coil, dp600(0.005), band)
    b = _quotients(coil, dp600(0.005), band)
    np.testing.assert_array_equal(a, b)


def test_sensitivity_spectrum_rows(coil, band):
    # Slice i holds fraction i, whatever other fractions share the call.
    q = difference_quotients(coil, dp600(0.005), band)
    for i, fraction in enumerate(DEFAULT_FRACTIONS):
        np.testing.assert_array_equal(q[i], _quotients(coil, dp600(0.005), band, fraction))


def test_sensitivity_spectrum_empty_frequency_list(coil):
    assert difference_quotients(coil, dp600(0.005), []).shape == (len(DEFAULT_FRACTIONS), 0, 4)


def test_write_sensitivity_csv(tmp_path, coil):
    freqs = [1e3, 1e4]
    j = _quotients(coil, dp600(0.005), freqs)
    rows = [
        (f, name, 0.01, j[i, k], j[len(freqs) + i, k])
        for k, name in enumerate(PARAM_NAMES)
        for i, f in enumerate(freqs)
    ]
    out = tmp_path / "sens.csv"
    write_sensitivity_csv(out, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "freq_hz,param,fraction,re_sens,im_sens"
    assert len(lines) == 1 + len(PARAM_NAMES) * len(freqs)
    assert {line.split(",")[1] for line in lines[1:]} == set(PARAM_NAMES)
