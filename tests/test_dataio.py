"""File format and noise model tests: exact round trips, row-addressed
rejection of malformed input, and the seeded-noise contract."""

import math

import numpy as np
import pytest

from eddyspec import (
    CoilGeometry,
    ConfigFormatError,
    InductanceSpectrum,
    InversionConfig,
    NoiseModel,
    PlateParams,
    SpectrumFormatError,
    add_noise,
    convert_impedance_file,
    delta_l_spectrum,
    inversion_report,
    invert,
    load_coil_config,
    load_inversion_config,
    load_plate_config,
    load_spectrum,
    save_plate_config,
    save_spectrum,
)
from eddyspec.cli import _inversion_config
from eddyspec.samples import dp600


def _spec(freqs, values):
    return InductanceSpectrum(
        freqs=np.asarray(freqs, dtype=float),
        values=np.asarray(values, dtype=complex),
    )


# --------------------------------------------------------------------- noise


def test_zero_amplitude_noise_is_identity(coil, band):
    clean = delta_l_spectrum(coil, dp600(0.005), band)
    noisy = add_noise(clean, NoiseModel(amplitude=0.0, seed=5))
    np.testing.assert_array_equal(noisy.values, clean.values)
    np.testing.assert_array_equal(noisy.freqs, clean.freqs)


def test_noise_per_component_bound():
    freqs = np.geomspace(1e2, 1e5, 40)
    vals = (3.0 - 2.0j) * np.ones(40) * 1e-6
    clean = _spec(freqs, vals)
    for amp in (0.01, 0.1, 0.5):
        noisy = add_noise(clean, NoiseModel(amplitude=amp, seed=9))
        rel_re = np.abs(noisy.values.real / clean.values.real - 1.0)
        rel_im = np.abs(noisy.values.imag / clean.values.imag - 1.0)
        assert rel_re.max() <= amp + 1e-15
        assert rel_im.max() <= amp + 1e-15


def test_noise_seeding():
    clean = _spec([1e3, 1e4], [1e-6 + 1e-6j, 2e-6 - 1e-6j])
    a = add_noise(clean, NoiseModel(amplitude=0.05, seed=42))
    b = add_noise(clean, NoiseModel(amplitude=0.05, seed=42))
    c = add_noise(clean, NoiseModel(amplitude=0.05, seed=43))
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)


def test_noise_draws_real_and_imag_independently():
    # identical Re and Im everywhere: only independent draws can split them
    clean = _spec(np.geomspace(1e2, 1e5, 25), (1.0 + 1.0j) * np.full(25, 1e-6))
    noisy = add_noise(clean, NoiseModel(amplitude=0.1, seed=1))
    assert np.any(noisy.values.real != noisy.values.imag)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(amplitude=1.0)
    with pytest.raises(ValueError):
        NoiseModel(amplitude=-0.1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        NoiseModel(amplitude=0.05, seed=-1)
    for seed in (1.5, math.nan):
        with pytest.raises(ValueError, match="seed must be an integer"):
            NoiseModel(amplitude=0.01, seed=seed)
    NoiseModel(amplitude=0.0, seed=0)  # boundaries are legal


# ------------------------------------------------------------- spectrum files


def test_spectrum_round_trip_is_bitwise(tmp_path, coil, band):
    spectrum = delta_l_spectrum(coil, dp600(0.005), band)
    path = tmp_path / "s.csv"
    save_spectrum(spectrum, path)
    back = load_spectrum(path)
    np.testing.assert_array_equal(back.freqs, spectrum.freqs)
    np.testing.assert_array_equal(back.values, spectrum.values)


def test_spectrum_file_layout(tmp_path):
    path = tmp_path / "s.csv"
    save_spectrum(_spec([1e3], [1e-6 - 2e-6j]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,re_dl_h,im_dl_h"
    assert len(lines) == 2


def _load_text(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    return load_spectrum(path)


def test_spectrum_header_rejected(tmp_path):
    with pytest.raises(SpectrumFormatError) as err:
        _load_text(tmp_path, "freq,re,im\n1e3,1,2\n")
    assert err.value.row == 1
    with pytest.raises(SpectrumFormatError):
        _load_text(tmp_path, "")


def test_spectrum_field_count_rejected(tmp_path):
    with pytest.raises(SpectrumFormatError) as err:
        _load_text(tmp_path, "freq_hz,re_dl_h,im_dl_h\n1e3,1.0\n")
    assert err.value.row == 2


def test_spectrum_unparsable_value_rejected(tmp_path):
    with pytest.raises(SpectrumFormatError) as err:
        _load_text(tmp_path, "freq_hz,re_dl_h,im_dl_h\n1e3,abc,2.0\n")
    assert err.value.row == 2
    assert "abc" in str(err.value)


def test_spectrum_nan_rejected(tmp_path):
    for bad in ("1e3,nan,2.0", "1e3,1.0,inf", "1e3,-inf,2.0", "inf,1.0,2.0"):
        with pytest.raises(SpectrumFormatError, match="not finite"):
            _load_text(tmp_path, f"freq_hz,re_dl_h,im_dl_h\n{bad}\n")


def test_spectrum_nonpositive_frequency_rejected(tmp_path):
    with pytest.raises(SpectrumFormatError):
        _load_text(tmp_path, "freq_hz,re_dl_h,im_dl_h\n0.0,1.0,2.0\n")
    with pytest.raises(SpectrumFormatError):
        _load_text(tmp_path, "freq_hz,re_dl_h,im_dl_h\n-5.0,1.0,2.0\n")


def test_spectrum_nonmonotone_frequency_rejected(tmp_path):
    text = "freq_hz,re_dl_h,im_dl_h\n1e3,1,2\n2e3,1,2\n1.5e3,1,2\n"
    with pytest.raises(SpectrumFormatError) as err:
        _load_text(tmp_path, text)
    assert err.value.row == 4
    assert "row 4" in str(err.value)


def test_spectrum_blank_lines_skipped(tmp_path):
    text = "freq_hz,re_dl_h,im_dl_h\n\n1e3,1,2\n\n2e3,3,4\n"
    s = _load_text(tmp_path, text)
    assert len(s) == 2


# ------------------------------------------------------------ impedance files


def test_convert_impedance_round_trip(tmp_path, coil, band):
    # impedance rows constructed from a known spectrum: z = z_air + jw dL
    spectrum = delta_l_spectrum(coil, dp600(0.005), band)
    z_air = 0.5 + 2.0j
    path_in = tmp_path / "z.csv"
    path_out = tmp_path / "dl.csv"
    with open(path_in, "w") as fh:
        fh.write("freq_hz,re_z_ohm,im_z_ohm,re_zair_ohm,im_zair_ohm\n")
        for f, v in zip(spectrum.freqs, spectrum.values):
            z = z_air + 1j * 2.0 * np.pi * f * v
            fh.write(f"{f:.17g},{z.real:.17g},{z.imag:.17g},{z_air.real:.17g},{z_air.imag:.17g}\n")
    got = convert_impedance_file(path_in, path_out)
    # z - z_air cancels against the much larger z_air, so a few digits go
    # to rounding even though the file itself is written losslessly
    np.testing.assert_allclose(got.values, spectrum.values, rtol=1e-10)
    back = load_spectrum(path_out)
    np.testing.assert_array_equal(back.values, got.values)


def test_convert_impedance_equal_to_air_gives_zero(tmp_path):
    path_in = tmp_path / "z.csv"
    path_in.write_text(
        "freq_hz,re_z_ohm,im_z_ohm,re_zair_ohm,im_zair_ohm\n"
        "1e3,2.5,17.0,2.5,17.0\n"
    )
    got = convert_impedance_file(path_in, tmp_path / "dl.csv")
    assert got.values[0] == 0.0


def test_convert_impedance_empty_body(tmp_path):
    path_in = tmp_path / "z.csv"
    path_in.write_text("freq_hz,re_z_ohm,im_z_ohm,re_zair_ohm,im_zair_ohm\n")
    path_out = tmp_path / "dl.csv"
    got = convert_impedance_file(path_in, path_out)
    assert len(got) == 0
    assert path_out.read_text().splitlines() == ["freq_hz,re_dl_h,im_dl_h"]


# ----------------------------------------------------------------- coil files


def test_coil_config_partial_keys_keep_defaults(tmp_path):
    path = tmp_path / "coil.cfg"
    path.write_text("r1_mm = 80\nn_turns = 20\n")
    coil = load_coil_config(path)
    ref = CoilGeometry()
    assert coil.r1 == 0.080
    assert coil.n_turns == 20
    assert coil.r2 == ref.r2
    assert coil.h == ref.h
    assert coil.g == ref.g


def test_coil_config_comments_and_blanks(tmp_path):
    path = tmp_path / "coil.cfg"
    path.write_text("# probe A\n\nr1_mm = 75  # inner radius\n")
    assert load_coil_config(path).r1 == 0.075


def test_coil_config_unknown_key(tmp_path):
    path = tmp_path / "coil.cfg"
    path.write_text("radius_mm = 75\n")
    with pytest.raises(ConfigFormatError) as err:
        load_coil_config(path)
    assert "radius_mm" in str(err.value)
    # the nominal stand-off no longer sets the quadrature cut
    path.write_text("l0_mm = 5\n")
    with pytest.raises(ConfigFormatError) as err:
        load_coil_config(path)
    assert "l0_mm" in str(err.value)


def test_coil_config_duplicate_key(tmp_path):
    path = tmp_path / "coil.cfg"
    path.write_text("r1_mm = 75\nr1_mm = 76\n")
    with pytest.raises(ConfigFormatError) as err:
        load_coil_config(path)
    assert "line 2" in str(err.value)


def test_coil_config_bad_values(tmp_path):
    path = tmp_path / "coil.cfg"
    path.write_text("n_turns = fifteen\n")
    with pytest.raises(ConfigFormatError):
        load_coil_config(path)
    path.write_text("r1_mm = wide\n")
    with pytest.raises(ConfigFormatError):
        load_coil_config(path)
    path.write_text("r1_mm\n")
    with pytest.raises(ConfigFormatError) as err:
        load_coil_config(path)
    assert "key = value" in str(err.value)


# ---------------------------------------------------------------- plate files


def test_plate_config_round_trip(tmp_path):
    truth = dp600(0.005)
    path = tmp_path / "plate.cfg"
    save_plate_config(truth, path, header="synthetic truth")
    assert path.read_text().startswith("# synthetic truth\n")
    back = load_plate_config(path)
    # file text is lossless; the mm/MS unit conversions may cost an ulp
    np.testing.assert_allclose(back.as_array(), truth.as_array(), rtol=1e-15)


def test_plate_config_requires_all_keys(tmp_path):
    path = tmp_path / "plate.cfg"
    path.write_text("sigma_msm = 4.13\nmu_r = 222\nt_mm = 1.4\n")
    with pytest.raises(ConfigFormatError) as err:
        load_plate_config(path)
    assert "liftoff_mm" in str(err.value)


def test_plate_config_unit_conversion(tmp_path):
    path = tmp_path / "plate.cfg"
    path.write_text("sigma_msm = 2.0\nmu_r = 50\nt_mm = 1.0\nliftoff_mm = 10\n")
    plate = load_plate_config(path)
    assert plate == PlateParams(sigma=2e6, mu_r=50.0, t=1e-3, l=1e-2)


# ------------------------------------------------------------ inversion files


def test_inversion_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "inv.cfg"
    path.write_text("# nothing overridden\n")
    assert load_inversion_config(path) == {}
    assert _inversion_config(load_inversion_config(path)) == InversionConfig()


def test_inversion_config_full_mapping(tmp_path):
    path = tmp_path / "inv.cfg"
    path.write_text(
        "init_sigma_msm = 2.0\n"
        "init_mu_r = 80\n"
        "init_t_mm = 1.0\n"
        "init_liftoff_mm = 6.0\n"
        "max_iter = 33\n"
        "sigma_min_msm = 0.5\n"
        "sigma_max_msm = 50\n"
        "mu_r_min = 2\n"
        "mu_r_max = 500\n"
        "t_min_mm = 0.1\n"
        "t_max_mm = 10\n"
        "liftoff_min_mm = 1\n"
        "liftoff_max_mm = 100\n"
    )
    user = load_inversion_config(path)
    assert len(user) == 13
    assert user["init_mu_r"] == 80.0
    assert user["max_iter"] == 33 and isinstance(user["max_iter"], int)
    cfg = _inversion_config(user)
    assert cfg.init == PlateParams(sigma=2e6, mu_r=80.0, t=1e-3, l=6e-3)
    assert cfg.max_iter == 33
    assert cfg.bounds.sigma == (0.5e6, 50e6)
    assert cfg.bounds.mu_r == (2.0, 500.0)
    assert cfg.bounds.t == (0.1e-3, 10e-3)
    assert cfg.bounds.l == (1e-3, 0.1)


def test_inversion_config_unknown_key(tmp_path):
    path = tmp_path / "inv.cfg"
    path.write_text("tolerance = 1e-6\n")
    with pytest.raises(ConfigFormatError):
        load_inversion_config(path)
    # The solver's Jacobian is exact, so the old difference step is gone,
    # and its stop tests, drop level and halving limit are constants.
    for key in ("fd_fraction", "step_tol", "residual_tol", "rank_tau", "damping"):
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigFormatError, match=f"^unknown keys: {key}$"):
            load_inversion_config(path)


def test_inversion_config_bad_int(tmp_path):
    path = tmp_path / "inv.cfg"
    path.write_text("max_iter = many\n")
    with pytest.raises(ConfigFormatError):
        load_inversion_config(path)


# ---------------------------------------------------------------- fit report


@pytest.mark.parametrize("field, key", [("sigma", "sigma_msm"), ("t", "t_mm")])
def test_inversion_report_refuses_a_zero_truth(coil, band, field, key):
    # error_pct divides by the truth: a zero there would give inf, which
    # json.dumps writes as the non-JSON Infinity.
    truth = dp600(0.005)
    result = invert(coil, delta_l_spectrum(coil, truth, band[::5]))
    zero = PlateParams(**{**vars(truth), field: 0.0})
    with pytest.raises(ValueError, match=f"truth {key} is 0"):
        inversion_report(result, zero)

