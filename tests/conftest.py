"""Shared fixtures, slow independent oracles, and the acceptance summary hook.

The expensive artifacts (round-trip inversions, the noise sweep, the
high-frequency degeneracy run) are session fixtures so that the unit
tests and the acceptance suite read the same runs instead of recomputing
them per file.
"""

import math
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from eddyspec import (
    CoilGeometry,
    InversionConfig,
    NoiseModel,
    add_noise,
    default_frequencies,
    delta_l_spectrum,
    invert,
)
from eddyspec.samples import REPORT_CASES, dp600

MU0 = 4e-7 * math.pi

NOISE_AMPLITUDES = (0.01, 0.05, 0.10)
NOISE_SEEDS = 20


@pytest.fixture(scope="session")
def coil():
    return CoilGeometry()


@pytest.fixture(scope="session")
def band():
    return default_frequencies()


def oracle_delta_l(coil, plate, freq):
    """Inductance change by nested adaptive quadrature, built from the raw
    formulas with no shared code path.

    P comes from an adaptive quad of x J1(x) inside an adaptive quad over
    the spatial frequency to infinity, Re and Im integrated separately.
    The production evaluator uses a fixed graded Gauss-Legendre grid with
    P from a power series and a midpoint rule on Bessel's integral, so
    agreement is a genuine cross-check.
    """
    k = math.pi * MU0 * coil.n_turns**2 / (coil.h**2 * (coil.r2 - coil.r1) ** 2)
    w = 2.0 * math.pi * freq

    def p_of(a):
        with warnings.catch_warnings():
            # tiny windows hit the roundoff floor of quad's error estimate
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            v, _ = integrate.quad(
                lambda x: x * special.j1(x), a * coil.r1, a * coil.r2,
                epsabs=1e-14, epsrel=1e-12, limit=400,
            )
        return v

    def kernel(a):
        a1 = np.sqrt(complex(a * a, w * plate.sigma * plate.mu_r * MU0))
        u = plate.mu_r * a + a1
        v = plate.mu_r * a - a1
        z = 2.0 * a1 * plate.t
        if abs(z) > 700.0:
            em = np.exp(-z)
            ph = u * v * (1.0 - em) / (u * u - v * v * em)
        else:
            ep = np.exp(z)
            ph = u * v * (ep - 1.0) / (u * u * ep - v * v)
        att = math.exp(-a * (2.0 * plate.l + coil.h + coil.g))
        tail = math.exp(-2.0 * a * coil.h) + 1.0
        return p_of(a) ** 2 / a**6 * att * tail * ph

    re, _ = integrate.quad(lambda a: kernel(a).real, 0.0, np.inf,
                           epsabs=1e-300, epsrel=1e-9, limit=800)
    im, _ = integrate.quad(lambda a: kernel(a).imag, 0.0, np.inf,
                           epsabs=1e-300, epsrel=1e-9, limit=800)
    return k * complex(re, im)


@pytest.fixture(scope="session")
def round_trip_runs(coil, band):
    """The five standard cases inverted from the default initial guess.

    Returns a list of (label, truth, result, wall_seconds).
    """
    runs = []
    for label, truth in REPORT_CASES:
        observed = delta_l_spectrum(coil, truth, band)
        t0 = time.perf_counter()
        result = invert(coil, observed)
        wall = time.perf_counter() - t0
        runs.append((label, truth, result, wall))
    return runs


@pytest.fixture(scope="session")
def noise_sweep(coil, band):
    """DP600 noisy refits: 20 seeds at each amplitude, starting from the
    noiseless estimate.

    The noiseless fit locks the identifiable optimum first; each noisy
    realization is then refit from that point, which is the protocol the
    shipped report uses.  Returns (truth, base_result,
    {amplitude: (err_pct array of shape (seeds, 4), [results])}).
    """
    truth = dp600(0.005)
    clean = delta_l_spectrum(coil, truth, band)
    base = invert(coil, clean)
    cfg = replace(InversionConfig(), init=base.params)
    sweep = {}
    for amp in NOISE_AMPLITUDES:
        errs, results = [], []
        for seed in range(NOISE_SEEDS):
            noisy = add_noise(clean, NoiseModel(amplitude=amp, seed=seed))
            r = invert(coil, noisy, cfg)
            errs.append(
                np.abs(r.params.as_array() - truth.as_array())
                / truth.as_array() * 100.0
            )
            results.append(r)
        sweep[amp] = (np.array(errs), results)
    return truth, base, sweep


@pytest.fixture(scope="session")
def hf_band_run(coil):
    """Inversion of a spectrum sampled only above 1 MHz, where the skin
    effect hides the thickness; returns (observed, result)."""
    freqs = np.geomspace(1e6, 3e6, 8)
    observed = delta_l_spectrum(coil, dp600(0.005), freqs)
    return observed, invert(coil, observed)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    criteria = getattr(mod, "CRITERIA", None) if mod else None
    if not criteria:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(criteria):
        terminalreporter.write_line(criteria[n][1])
