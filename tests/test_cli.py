"""Command-line tests, run in-process through main(argv).

Plate configs here use values whose mm and MS/m unit conversions are
exact in binary (small integers scaled by powers of two), so file-driven
runs compare bitwise against direct library calls.
"""

import json

import numpy as np
import pytest

from eddyspec import (
    CoilGeometry,
    PlateParams,
    default_frequencies,
    delta_l_spectrum,
    load_plate_config,
    load_spectrum,
)
from eddyspec.cli import main
from eddyspec.dataio import INVERSION_KEYS
from eddyspec.forward import DEFAULT_N_FREQS

EXACT_PLATE = PlateParams(sigma=4e6, mu_r=150.0, t=2e-3, l=8e-3)
EXACT_PLATE_CFG = "sigma_msm = 4\nmu_r = 150\nt_mm = 2\nliftoff_mm = 8\n"


@pytest.fixture
def plate_cfg(tmp_path):
    path = tmp_path / "plate.cfg"
    path.write_text(EXACT_PLATE_CFG)
    return path


def _manifest(path):
    with open(str(path) + ".manifest.json") as fh:
        return json.load(fh)


# ------------------------------------------------------------------- forward


def test_forward_default_band(tmp_path, plate_cfg):
    out = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(out)]) == 0
    spectrum = load_spectrum(out)
    assert len(spectrum) == DEFAULT_N_FREQS
    want = delta_l_spectrum(CoilGeometry(), EXACT_PLATE, default_frequencies())
    np.testing.assert_array_equal(spectrum.freqs, want.freqs)
    np.testing.assert_array_equal(spectrum.values, want.values)
    man = _manifest(out)
    assert man["subcommand"] == "forward"
    assert man["config"]["m"] == DEFAULT_N_FREQS
    assert man["inputs"]["plate"] == str(plate_cfg)
    assert man["outputs"] == [str(out)]
    assert man["wall_ms"] > 0.0


def test_forward_custom_band(tmp_path, plate_cfg, capsys):
    out = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(out),
                 "--m", "10"]) == 0
    assert len(load_spectrum(out)) == 10
    assert "10-point spectrum" in capsys.readouterr().out


def test_forward_explicit_frequencies(tmp_path, plate_cfg):
    out = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(out),
                 "--freqs-hz", "1e3,1e4,1e5"]) == 0
    spectrum = load_spectrum(out)
    np.testing.assert_array_equal(spectrum.freqs, [1e3, 1e4, 1e5])
    assert _manifest(out)["config"]["freqs_hz"] == [1e3, 1e4, 1e5]


def test_forward_zero_thickness_gives_zero_spectrum(tmp_path):
    cfg = tmp_path / "plate.cfg"
    cfg.write_text("sigma_msm = 4\nmu_r = 150\nt_mm = 0\nliftoff_mm = 8\n")
    out = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(cfg), "--out", str(out),
                 "--m", "5"]) == 0
    assert np.all(load_spectrum(out).values == 0.0)


def test_forward_missing_plate_file(tmp_path, capsys):
    out = tmp_path / "dl.csv"
    code = main(["forward", "--plate", str(tmp_path / "nope.cfg"), "--out", str(out)])
    assert code == 1
    assert "eddyspec forward:" in capsys.readouterr().err


@pytest.mark.parametrize("band", [["--freqs-hz", "1e3,inf"], ["--freqs-hz", "1e3,inf,inf"],
                                  ["--freqs-hz", "nan"], ["--fmax-hz", "inf", "--m", "3"]])
def test_forward_non_finite_frequency_is_an_error(tmp_path, plate_cfg, capsys, band):
    out = tmp_path / "dl.csv"
    code = main(["forward", "--plate", str(plate_cfg), "--out", str(out)] + band)
    assert code == 1
    assert "eddyspec forward:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [plate_cfg]


# --------------------------------------------------------------------- synth


def test_synth_deterministic_and_sidecar(tmp_path, plate_cfg):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["synth", "--truth", str(plate_cfg), "--noise", "0.05",
            "--m", "12", "--seed", "7"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert load_plate_config(tmp_path / "a.truth.cfg") == EXACT_PLATE
    man = _manifest(out_a)
    assert man["seed"] == 7
    assert man["config"]["noise"] == 0.05
    assert str(tmp_path / "a.truth.cfg") in man["outputs"]


def test_synth_seed_changes_data(tmp_path, plate_cfg):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["synth", "--truth", str(plate_cfg), "--noise", "0.05", "--m", "12"]
    assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
    a = load_spectrum(out_a)
    b = load_spectrum(out_b)
    assert np.any(a.values != b.values)


def test_synth_zero_noise_equals_forward(tmp_path, plate_cfg):
    out = tmp_path / "clean.csv"
    assert main(["synth", "--truth", str(plate_cfg), "--out", str(out),
                 "--m", "8"]) == 0
    want = delta_l_spectrum(CoilGeometry(), EXACT_PLATE, default_frequencies(m=8))
    np.testing.assert_array_equal(load_spectrum(out).values, want.values)


def test_synth_illegal_amplitude(tmp_path, plate_cfg, capsys):
    out = tmp_path / "s.csv"
    code = main(["synth", "--truth", str(plate_cfg), "--out", str(out),
                 "--noise", "1.0"])
    assert code == 1
    assert "amplitude" in capsys.readouterr().err


def test_synth_negative_seed_is_a_usage_error(tmp_path, plate_cfg, capsys):
    out = tmp_path / "s.csv"
    code = main(["synth", "--truth", str(plate_cfg), "--out", str(out),
                 "--noise", "0.05", "--seed", "-1"])
    assert code == 1
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------------- invert


def test_invert_round_trip(tmp_path, plate_cfg, capsys):
    spec_csv = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(spec_csv)]) == 0
    capsys.readouterr()
    report_json = tmp_path / "fit.json"
    code = main(["invert", "--spectrum", str(spec_csv), "--truth", str(plate_cfg),
                 "--out", str(report_json)])
    assert code == 0
    captured = capsys.readouterr()
    stdout_report = json.loads(captured.out)
    assert "converged after" in captured.err
    with open(report_json) as fh:
        file_report = json.load(fh)
    assert file_report == stdout_report
    assert file_report["converged"] is True
    assert file_report["iterations"] <= 50
    assert max(file_report["error_pct"].values()) < 0.1
    man = _manifest(report_json)
    assert man["subcommand"] == "invert"
    assert man["config"]["max_iter"] == 100
    assert man["inputs"]["spectrum"] == str(spec_csv)


@pytest.mark.parametrize("key", ["sigma_msm", "t_mm"])
def test_invert_zero_truth_is_a_usage_error(tmp_path, plate_cfg, capsys, key):
    # error_pct divides by the truth: a zero there would write Infinity,
    # which is not JSON.
    spec_csv = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(spec_csv),
                 "--m", "6"]) == 0
    truth = tmp_path / "zero.cfg"
    truth.write_text("\n".join(
        f"{key} = 0" if line.startswith(key) else line
        for line in EXACT_PLATE_CFG.splitlines()
    ) + "\n")
    capsys.readouterr()
    report_json = tmp_path / "fit.json"
    code = main(["invert", "--spectrum", str(spec_csv), "--truth", str(truth),
                 "--out", str(report_json)])
    assert code == 1
    captured = capsys.readouterr()
    assert f"truth {key} is 0" in captured.err
    assert captured.out == ""
    assert not report_json.exists()


def test_invert_spectrum_too_large_for_a_finite_misfit(tmp_path, capsys):
    # Its squared residuals overflow: the report must say so in strict
    # JSON, with no Infinity in the misfit history.
    spec_csv = tmp_path / "big.csv"
    spec_csv.write_text("freq_hz,re_dl_h,im_dl_h\n"
                        + "".join(f"{f:g},1e160,1e160\n" for f in (1e2, 1e3, 1e4)))
    report_json = tmp_path / "fit.json"
    assert main(["invert", "--spectrum", str(spec_csv), "--out", str(report_json)]) == 2

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(report_json.read_text(), parse_constant=reject)
    assert report["converged"] is False
    assert report["residual"] == []
    assert report["message"] == "observed spectrum is too large for a finite misfit"
    assert "too large for a finite misfit" in capsys.readouterr().err


def test_invert_iteration_cap_exit_code(tmp_path, plate_cfg, capsys):
    spec_csv = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(spec_csv)]) == 0
    capsys.readouterr()
    code = main(["invert", "--spectrum", str(spec_csv), "--max-iter", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["converged"] is False
    assert "did not converge" in captured.err


def test_invert_missing_spectrum(tmp_path, capsys):
    code = main(["invert", "--spectrum", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "eddyspec invert:" in capsys.readouterr().err


def test_invert_high_frequency_band_freezes_thickness(tmp_path, plate_cfg, capsys):
    spec_csv = tmp_path / "hf.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(spec_csv),
                 "--freqs-hz", "1e6,1.5e6,2e6,3e6"]) == 0
    capsys.readouterr()
    code = main(["invert", "--spectrum", str(spec_csv)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mask"]
    for row in report["mask"]:
        assert row == [1, 1, 0, 1]
    # thickness stays at the initial guess: the band cannot see it
    assert report["t_mm"] == 2.0


def test_invert_init_overrides_in_manifest(tmp_path, plate_cfg, capsys):
    spec_csv = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(spec_csv),
                 "--m", "10"]) == 0
    report_json = tmp_path / "fit.json"
    code = main(["invert", "--spectrum", str(spec_csv), "--out", str(report_json),
                 "--init-sigma-msm", "2.5", "--init-mu-r", "80",
                 "--init-t-mm", "1.25", "--init-liftoff-mm", "4",
                 "--max-iter", "60"])
    assert code in (0, 2)
    man = _manifest(report_json)
    assert man["config"]["init_sigma_msm"] == pytest.approx(2.5, rel=1e-15)
    assert man["config"]["init_mu_r"] == 80.0
    assert man["config"]["init_t_mm"] == pytest.approx(1.25, rel=1e-15)
    assert man["config"]["init_liftoff_mm"] == pytest.approx(4.0, rel=1e-15)
    assert man["config"]["max_iter"] == 60
    assert sorted(man["config"]) == sorted(INVERSION_KEYS) and len(INVERSION_KEYS) == 13


@pytest.mark.parametrize("where", ["flag", "config"])
def test_invert_rank_tau_is_a_usage_error(tmp_path, plate_cfg, capsys, where):
    # The column drop level is a solver constant: neither the flag nor the
    # config key exists, and naming either writes no report.
    spec_csv = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate_cfg), "--out", str(spec_csv),
                 "--m", "6"]) == 0
    capsys.readouterr()
    report_json = tmp_path / "fit.json"
    if where == "flag":
        extra = ["--rank-tau", "1e-5"]
        message = "unrecognized arguments: --rank-tau 1e-5"
    else:
        inv_cfg = tmp_path / "inv.cfg"
        inv_cfg.write_text("rank_tau = 1e-5\n")
        extra = ["--config", str(inv_cfg)]
        message = "unknown keys: rank_tau"
    try:  # argparse exits on an unknown flag; a bad config file returns 1
        code = main(["invert", "--spectrum", str(spec_csv), "--out", str(report_json)] + extra)
    except SystemExit as err:
        code = err.code
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not report_json.exists()


def test_invert_manifest_config_reproduces_the_fit(tmp_path):
    # The manifest's config block, written back as key = value lines, is
    # a --config file that gives the same fit: bounds included, which pin
    # mu_r at its upper bound below the plate's 250.
    plate = tmp_path / "plate.cfg"
    plate.write_text(EXACT_PLATE_CFG.replace("mu_r = 150", "mu_r = 250"))
    spec_csv = tmp_path / "dl.csv"
    assert main(["forward", "--plate", str(plate), "--out", str(spec_csv),
                 "--m", "10"]) == 0
    inv_cfg = tmp_path / "inv.cfg"
    inv_cfg.write_text("mu_r_max = 200\nt_min_mm = 0.5\n")
    first = tmp_path / "first.json"
    assert main(["invert", "--spectrum", str(spec_csv), "--config", str(inv_cfg),
                 "--out", str(first)]) in (0, 2)
    man = _manifest(first)
    assert man["inputs"]["config"] == str(inv_cfg)
    assert man["config"]["mu_r_max"] == 200.0
    assert man["config"]["t_min_mm"] == 0.5
    assert json.loads(first.read_text())["mu_r"] == 200.0
    replay_cfg = tmp_path / "replay.cfg"
    replay_cfg.write_text("".join(f"{k} = {v}\n" for k, v in man["config"].items()))
    second = tmp_path / "second.json"
    assert main(["invert", "--spectrum", str(spec_csv), "--config", str(replay_cfg),
                 "--out", str(second)]) in (0, 2)
    assert second.read_bytes() == first.read_bytes()


# --------------------------------------------------------------- sensitivity


def test_sensitivity_csv(tmp_path, plate_cfg):
    out = tmp_path / "sens.csv"
    assert main(["sensitivity", "--plate", str(plate_cfg), "--out", str(out),
                 "--freqs-hz", "1e3,1e4", "--fractions", "0.01,0.1"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "freq_hz,param,fraction,re_sens,im_sens"
    assert len(lines) == 1 + 4 * 2 * 2  # params * fractions * freqs
    man = _manifest(out)
    assert man["config"]["fractions"] == [0.01, 0.1]
    assert man["outputs"] == [str(out)]


def test_sensitivity_svg_is_a_usage_error(tmp_path, plate_cfg, capsys):
    # The CSV is the data of record; there is no plot and no flag for one.
    out = tmp_path / "sens.csv"
    try:  # argparse exits on an unknown flag
        code = main(["sensitivity", "--plate", str(plate_cfg), "--out", str(out),
                     "--freqs-hz", "1e3", "--svg"])
    except SystemExit as err:
        code = err.code
    assert code == 1
    assert "unrecognized arguments: --svg" in capsys.readouterr().err
    assert not out.exists()


def test_sensitivity_zero_reference_is_a_usage_error(tmp_path, capsys):
    plate = tmp_path / "thin.cfg"
    plate.write_text("sigma_msm = 4\nmu_r = 150\nt_mm = 0\nliftoff_mm = 8\n")
    out = tmp_path / "sens.csv"
    code = main(["sensitivity", "--plate", str(plate), "--out", str(out),
                 "--freqs-hz", "1e3,1e4"])
    assert code == 1
    assert "reference t is 0" in capsys.readouterr().err
    assert not out.exists()


def test_sensitivity_illegal_fraction(tmp_path, plate_cfg, capsys):
    # NaN passes both "<= 0" and "> 0.5"; it is refused as a fraction too.
    out = tmp_path / "sens.csv"
    for fractions in ("0.0,0.1", "nan"):
        code = main(["sensitivity", "--plate", str(plate_cfg), "--out", str(out),
                     "--freqs-hz", "1e3", "--fractions", fractions])
        assert code == 1
        assert "fraction" in capsys.readouterr().err
        assert not out.exists()


# --------------------------------------------------------------------- usage


def test_missing_required_argument_exits_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["forward", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 1


def test_bad_float_list_exits_one(tmp_path, plate_cfg, capsys):
    with pytest.raises(SystemExit) as err:
        main(["forward", "--plate", str(plate_cfg), "--out", str(tmp_path / "x.csv"),
              "--freqs-hz", "1e3,abc"])
    assert err.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("eddyspec ")


# -------------------------------------------------------------------- report


def test_report_benchmark_table(tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.csv"
    import time

    import eddyspec.cli as cli

    real = cli.invert
    fits = []

    def counting(*args, **kwargs):
        fits.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "invert", counting)
    t0 = time.perf_counter()
    assert main(["report", "--out", str(out)]) == 0
    wall = time.perf_counter() - t0
    assert wall < 60.0
    # Five noiseless round trips and 3 x 20 noisy refits: the noise
    # block's 0% row reuses the DP600 round trip instead of refitting it.
    assert len(fits) == 5 + 60

    lines = out.read_text().splitlines()
    assert lines[0].startswith("case,noise_pct,seed,")
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 9  # 5 noiseless cases, DP600 at 0%, three noise rows

    caps = {0.0: 0.5, 1.0: 2.0, 5.0: 6.0, 10.0: 12.0}
    for parts in body:
        noise = float(parts[1])
        errs = [float(x) for x in parts[11:15]]
        assert max(errs) <= caps[noise], parts[0]
        assert int(parts[15]) <= 50
        assert parts[16] == "1"

    stdout = capsys.readouterr().out
    assert "case" in stdout and "DP1000" in stdout
    assert "medians over 20 seeds" in stdout
    man = _manifest(out)
    assert man["config"]["seeds_per_noise_row"] == 20
    assert man["seed"] == 0
