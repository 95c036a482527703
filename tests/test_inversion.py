"""Inversion tests: the misfit functional, rank masking, the masked
Gauss-Newton solve against an extended-precision oracle, and full solver
behavior on clean, noisy, and degenerate spectra."""

import numpy as np
import pytest

from eddyspec import (
    InductanceSpectrum,
    InversionConfig,
    NoiseModel,
    ParamBounds,
    PlateParams,
    RankDegeneracyError,
    SingularSystemError,
    add_noise,
    delta_l_spectrum,
    dynamic_rank_mask,
    gauss_newton_step,
    invert,
    inversion_report,
    jacobian,
    objective,
)
from eddyspec.samples import dp600

# Misfit between the DP600 truth spectrum and the default initial guess
# over the default band, frozen from an independent evaluation.
DP600_INIT_MISFIT = 1.7424367912405806e-06

_ONES = PlateParams(sigma=1.0, mu_r=1.0, t=1.0, l=1.0)


def _raw_jac(entries):
    from eddyspec.sensitivity import JacobianMatrix

    return JacobianMatrix(
        entries=entries, perturbation_fractions=np.full(4, 0.01), reference=_ONES
    )


def _spec(freqs, values):
    return InductanceSpectrum(
        freqs=np.asarray(freqs, dtype=float),
        values=np.asarray(values, dtype=complex),
    )


# ---------------------------------------------------------------- objective


def test_objective_identical_spectra_is_zero(coil, band):
    s = delta_l_spectrum(coil, dp600(0.005), band)
    assert objective(s, s) == 0.0


def test_objective_single_point_arithmetic():
    observed = _spec([1e3], [0.0])
    model = _spec([1e3], [3e-6 + 4e-6j])
    assert objective(observed, model) == pytest.approx(1.25e-11, rel=1e-15)


def test_objective_mismatched_grids_raise(coil):
    a = delta_l_spectrum(coil, dp600(0.005), [1e3, 1e4])
    b = delta_l_spectrum(coil, dp600(0.005), [1e3, 2e4])
    with pytest.raises(ValueError):
        objective(a, b)


def test_objective_pinned_value(coil, band):
    observed = delta_l_spectrum(coil, dp600(0.005), band)
    model = delta_l_spectrum(coil, InversionConfig().init, band)
    assert objective(observed, model) == pytest.approx(DP600_INIT_MISFIT, rel=1e-9)


# ---------------------------------------------------------- dynamic_rank_mask


def test_rank_mask_drops_negligible_column():
    entries = np.ones((8, 4))
    entries[:, 2] = 1e-9
    assert dynamic_rank_mask(_raw_jac(entries)) == (True, True, False, True)


def test_rank_mask_keeps_comparable_columns():
    entries = np.ones((8, 4))
    entries[:, 1] = 0.3
    entries[:, 3] = 1e-5
    assert dynamic_rank_mask(_raw_jac(entries)) == (True, True, True, True)


def test_rank_mask_scaling_by_reference():
    # raw column sizes equal, but the reference value weights them
    entries = np.ones((8, 4))
    ref = PlateParams(sigma=1.0, mu_r=1.0, t=1e-9, l=1.0)
    from eddyspec.sensitivity import JacobianMatrix

    j = JacobianMatrix(
        entries=entries, perturbation_fractions=np.full(4, 0.01), reference=ref
    )
    assert dynamic_rank_mask(j) == (True, True, False, True)


def test_rank_mask_threshold_validation():
    with pytest.raises(ValueError):
        dynamic_rank_mask(_raw_jac(np.ones((8, 4))), threshold=0.0)


def test_rank_mask_all_zero_raises():
    with pytest.raises(RankDegeneracyError):
        dynamic_rank_mask(_raw_jac(np.zeros((8, 4))))


def test_rank_mask_drops_thickness_above_skin_depth(coil):
    freqs = np.geomspace(1e6, 3e6, 8)
    j = jacobian(coil, dp600(0.005), freqs)
    assert dynamic_rank_mask(j, 1e-6) == (True, True, False, True)


# ---------------------------------------------------------- gauss_newton_step


def test_step_diagonal_system():
    d = np.array([2.0, 4.0, 8.0, 16.0])
    entries = np.zeros((8, 4))
    entries[:4] = np.diag(d)
    r = np.array([1.0, -2.0, 3.0, -4.0, 0.0, 0.0, 0.0, 0.0])
    delta = gauss_newton_step(_raw_jac(entries), r)
    np.testing.assert_allclose(delta, -r[:4] / d, rtol=1e-12)


def test_step_masked_slot_exactly_zero():
    rng = np.random.default_rng(3)
    entries = rng.standard_normal((12, 4))
    r = rng.standard_normal(12)
    delta = gauss_newton_step(_raw_jac(entries), r, mask=(True, False, True, True))
    assert delta[1] == 0.0
    for mask in [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 0)]:
        delta = gauss_newton_step(_raw_jac(entries), r, mask=tuple(map(bool, mask)))
        for k, kept in enumerate(mask):
            if not kept:
                assert delta[k] == 0.0


def test_step_matches_least_squares():
    rng = np.random.default_rng(17)
    for _ in range(5):
        entries = rng.standard_normal((20, 4))
        r = rng.standard_normal(20)
        delta = gauss_newton_step(_raw_jac(entries), r)
        want, *_ = np.linalg.lstsq(entries, -r, rcond=None)
        np.testing.assert_allclose(delta, want, rtol=1e-10, atol=1e-14)


def test_step_scale_invariance():
    rng = np.random.default_rng(23)
    entries = rng.standard_normal((20, 4))
    r = rng.standard_normal(20)
    s1 = 10.0 ** rng.uniform(-2, 2, 4)
    s2 = 10.0 ** rng.uniform(-2, 2, 4)
    d1 = gauss_newton_step(_raw_jac(entries), r, scale=s1)
    d2 = gauss_newton_step(_raw_jac(entries), r, scale=s2)
    np.testing.assert_allclose(d1, d2, rtol=1e-10)


def test_step_singular_system_raises():
    entries = np.ones((10, 4))
    entries[:, 1] = entries[:, 0]  # duplicate columns
    with pytest.raises(SingularSystemError):
        gauss_newton_step(_raw_jac(entries), np.ones(10))


def test_step_validation_errors():
    j = _raw_jac(np.ones((8, 4)) + np.diag([1.0, 2.0, 3.0, 4.0]).repeat(2, axis=0))
    with pytest.raises(ValueError):
        gauss_newton_step(j, np.ones(7))
    with pytest.raises(ValueError):
        gauss_newton_step(j, np.ones(8), mask=(True, True, True))
    with pytest.raises(ValueError):
        gauss_newton_step(j, np.ones(8), mask=(False, False, False, False))
    with pytest.raises(ValueError):
        gauss_newton_step(j, np.ones(8), scale=np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        gauss_newton_step(j, np.ones(8), scale=np.array([1.0, 1.0, 1.0]))


# ------------------------------------------------------------------- configs


def test_inversion_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(max_iter=0)
    with pytest.raises(ValueError):
        InversionConfig(step_tol=0.0)
    with pytest.raises(ValueError):
        InversionConfig(residual_tol=-1.0)
    with pytest.raises(ValueError):
        InversionConfig(rank_threshold=0.0)
    with pytest.raises(TypeError):  # the Jacobian is exact: no difference step
        InversionConfig(jacobian_fraction=1e-4)
    with pytest.raises(ValueError):
        InversionConfig(damping=-1)
    with pytest.raises(ValueError):
        InversionConfig(init=PlateParams(sigma=1e3, mu_r=100.0, t=2e-3, l=4e-3))


def test_param_bounds():
    with pytest.raises(ValueError):
        ParamBounds(sigma=(1e8, 1e4))
    for name in ("sigma", "t"):
        with pytest.raises(ValueError, match=f"lower bound for {name} must be positive"):
            ParamBounds(**{name: (0.0, 1.0)})
    b = ParamBounds()
    assert b.contains(InversionConfig().init)
    clamped = b.clamp(PlateParams(sigma=1e9, mu_r=1.0, t=2e-3, l=1.0))
    assert clamped.sigma == 1e8
    assert clamped.l == 0.5
    np.testing.assert_array_equal(
        b.clamp_array(np.array([0.0, 0.0, 1.0, 1.0])),
        [1e4, 1.0, 0.05, 0.5],
    )


# --------------------------------------------------------------------- invert


def test_round_trip_recovers_parameters(round_trip_runs):
    for label, truth, result, _ in round_trip_runs:
        err = (
            np.abs(result.params.as_array() - truth.as_array())
            / truth.as_array() * 100.0
        )
        tol = 0.1 if label == "DP600" else 0.5
        assert result.converged, label
        assert result.iterations <= 50, label
        assert err.max() < tol, label


def test_clean_plate_far_along_the_ridge_is_recovered(coil, band):
    # A dual-phase plate (the benchmark's fit_clean seed 105, op 1) far
    # along the ridge from the default start.  A solver that stops on the
    # ridge floor here claims convergence with the misfit at 28% of its
    # starting value and the plate 2448% off.
    truth = PlateParams(
        sigma=2089826.299151466,
        mu_r=54.96132199893304,
        t=0.000972226474816486,
        l=0.006614293946324269,
    )
    result = invert(coil, delta_l_spectrum(coil, truth, band))
    err = np.abs(result.params.as_array() - truth.as_array()) / truth.as_array()
    assert result.converged
    assert err.max() < 0.005


def test_truth_start_is_a_fixed_point(coil, band):
    truth = dp600(0.005)
    observed = delta_l_spectrum(coil, truth, band)
    cfg = InversionConfig(init=truth)
    result = invert(coil, observed, cfg)
    assert result.converged
    assert result.iterations <= 2
    err = np.abs(result.params.as_array() - truth.as_array()) / truth.as_array()
    assert err.max() < 1e-6


def test_high_frequency_band_freezes_thickness(hf_band_run):
    observed, result = hf_band_run
    assert result.converged
    for mask in result.rank_masks:
        assert mask == (True, True, False, True)
    init_t = InversionConfig().init.t
    assert result.params.t == init_t
    for p in result.param_history:
        assert p.t == init_t
    assert "ridge frozen" in result.message


def test_misfit_history_strictly_decreases(round_trip_runs):
    for label, _, result, _ in round_trip_runs:
        hist = result.residual_history
        assert len(hist) == result.iterations + 1
        assert all(b < a for a, b in zip(hist, hist[1:])), label


def test_iterates_stay_inside_bounds(round_trip_runs):
    bounds = ParamBounds()
    for label, _, result, _ in round_trip_runs:
        for p in result.param_history:
            assert bounds.contains(p), label


def test_invert_is_deterministic(coil):
    observed = delta_l_spectrum(coil, dp600(0.005), [1e3, 1e4, 1e5])
    a = invert(coil, observed)
    b = invert(coil, observed)
    np.testing.assert_array_equal(a.params.as_array(), b.params.as_array())
    assert a.iterations == b.iterations
    assert a.residual_history == b.residual_history


def test_invert_empty_spectrum_raises(coil):
    with pytest.raises(ValueError):
        invert(coil, _spec([], []))


def test_underdetermined_fit_is_not_converged(coil):
    # One frequency gives two real observations for four parameters.
    observed = delta_l_spectrum(coil, dp600(0.005), [1e3])
    result = invert(coil, observed)
    assert not result.converged
    assert result.iterations == 0
    assert "2 real observations for 4 free parameters" in result.message


def test_zero_spectrum_is_refused_as_carrying_no_signal(coil, band, monkeypatch):
    # A t = 0 plate gives exactly zero at every frequency; no plate in the
    # box fits that, so invert stops before spending a single spectrum.
    import eddyspec.inversion as inv

    observed = delta_l_spectrum(coil, PlateParams(4.13e6, 222.0, 0.0, 5e-3), band)
    assert not np.any(observed.values)
    calls = []
    monkeypatch.setattr(inv, "delta_l_spectrum", lambda *a, **k: calls.append(a))
    for spectrum in (observed, _spec(band, np.zeros(len(band)))):
        result = invert(coil, spectrum)
        assert not result.converged
        assert result.iterations == 0
        assert result.residual_history == []
        assert result.param_history == [InversionConfig().init]
        assert "no plate signal" in result.message
    assert calls == []


def test_invert_takes_one_exact_jacobian_pass_per_iteration(coil, band, monkeypatch):
    # Every spectrum invert evaluates is a Jacobian pass: one at the
    # start and one per line-search trial.  An accepted trial's pass
    # serves as the next iteration's Jacobian, so no iterate is evaluated
    # twice and no spectrum is spent on difference probes.
    import eddyspec.inversion as inv

    passes, plain = [], []
    real = inv.delta_l_spectrum

    def counting(coil, plate, freqs, *args, jacobian=False, **kwargs):
        (passes if jacobian else plain).append(plate)
        return real(coil, plate, freqs, *args, jacobian=jacobian, **kwargs)

    monkeypatch.setattr(inv, "delta_l_spectrum", counting)
    clean = delta_l_spectrum(coil, dp600(0.005), band)
    start = invert(coil, clean).params
    noisy = add_noise(clean, NoiseModel(amplitude=0.05, seed=3))
    passes.clear()
    plain.clear()
    result = invert(coil, noisy, InversionConfig(init=start))
    assert result.converged
    assert plain == []
    assert passes[0] == start
    # The iterates are the trials that lowered the misfit, in order;
    # every other trial was rejected by the line search.
    history = iter(zip(result.param_history[1:], result.residual_history[1:]))
    current, misfit = start, result.residual_history[0]
    accepted = next(history, None)
    for trial in passes[1:]:
        assert trial != current
        if accepted is not None and trial == accepted[0]:
            current, misfit = accepted
            accepted = next(history, None)
        else:
            assert objective(noisy, real(coil, trial, band)) >= misfit
    assert accepted is None
    assert len(passes) >= result.iterations + 1


def test_custom_bounds_box_is_respected(coil):
    # thickness capped below the true 1.4mm: every iterate must stay in
    # the shrunken box even though the misfit pulls t upward
    observed = delta_l_spectrum(coil, dp600(0.005), [1e3, 1e4])
    bounds = ParamBounds(t=(1e-5, 1e-3))
    cfg = InversionConfig(
        init=PlateParams(sigma=5e6, mu_r=100.0, t=5e-4, l=4e-3),
        bounds=bounds,
        max_iter=10,
    )
    result = invert(coil, observed, cfg)
    for p in result.param_history:
        assert bounds.contains(p)


def test_noise_errors_grow_with_amplitude(noise_sweep):
    truth, base, sweep = noise_sweep
    assert base.converged
    med5 = np.median(sweep[0.05][0], axis=0)
    assert med5.max() <= 6.0
    med1 = np.median(sweep[0.01][0], axis=0)
    assert np.all(med1 <= med5 + 1e-12)
    for amp in sweep:
        _, results = sweep[amp]
        assert all(r.converged for r in results)


# ------------------------------------------------------------------- reports


def test_inversion_report_fields(coil, band):
    truth = dp600(0.005)
    observed = delta_l_spectrum(coil, truth, band)
    result = invert(coil, observed)
    rep = inversion_report(result, truth)
    assert rep["converged"] is True
    assert rep["iterations"] == result.iterations
    assert rep["sigma_msm"] == pytest.approx(result.params.sigma / 1e6)
    assert rep["t_mm"] == pytest.approx(result.params.t * 1e3)
    assert rep["liftoff_mm"] == pytest.approx(result.params.l * 1e3)
    assert len(rep["residual"]) == result.iterations + 1
    assert len(rep["mask"]) == result.iterations
    assert set(rep["error_pct"]) == {"sigma_msm", "mu_r", "t_mm", "liftoff_mm"}
    assert rep["error_pct"]["mu_r"] == pytest.approx(
        abs(result.params.mu_r - truth.mu_r) / truth.mu_r * 100.0
    )
    plain = inversion_report(result)
    assert "error_pct" not in plain
