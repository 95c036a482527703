"""Property tests of the forward model's and the solver's contracts over
random plates and data.

Over the whole default bounds box, the forward model promises a finite
exact Jacobian that matches central differences, a passive plate
(Im dL <= 0 at every frequency), |phi| <= 1 on every quadrature node and
a spectrum within 1e-10 of its peak of the benchmark's independent
reference model (``bench/reference.py``), on the default band and at
10 Hz - 1 MHz.

``invert`` promises three things for every input: it never raises on poor
data, every iterate stays inside the bounds box, and the misfit it reports
strictly decreases.  Hypothesis draws plates across the whole default
bounds box, multiplicative noise, and at most one corrupted observation
(non-finite, zero, or a gross outlier).  The draws are derandomized so the
suite stays reproducible; the iteration cap keeps each fit short, and the
contracts hold at any cap.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eddyspec import (
    CoilGeometry,
    InductanceSpectrum,
    InversionConfig,
    NoiseModel,
    ParamBounds,
    PlateParams,
    add_noise,
    default_frequencies,
    delta_l_spectrum,
    invert,
)
from eddyspec.forward import coil_grid, phi

from test_forward import _assert_column_matches, _difference_jacobian

COIL = CoilGeometry()
BAND = default_frequencies(m=12)
WIDE_BAND = default_frequencies(10.0, 1e6, 60)
BOX = ParamBounds()
CFG = InversionConfig(max_iter=6)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


plates = st.builds(
    PlateParams,
    sigma=_log_uniform(*BOX.sigma),
    mu_r=_log_uniform(*BOX.mu_r),
    t=_log_uniform(*BOX.t),
    l=_log_uniform(*BOX.l),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(plate=plates)
def test_forward_keeps_its_contracts(plate):
    nodes, _ = coil_grid(COIL)
    for freqs in (default_frequencies(), WIDE_BAND):
        spectrum, entries = delta_l_spectrum(COIL, plate, freqs, jacobian=True)
        assert np.all(spectrum.values.imag <= 0.0), plate
        for f in freqs:
            assert np.all(np.abs(phi(nodes, 2.0 * math.pi * f, plate)) <= 1.0 + 1e-12), (plate, f)
        want, steps, size = _difference_jacobian(COIL, plate, freqs)
        for k in range(4):
            _assert_column_matches(entries[:, k], want[k], steps[k], size, (plate, k))


def _load_reference():
    """``bench/reference.py``, loaded by path: it shares no code with the package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _load_reference()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(plate=plates)
def test_forward_matches_the_independent_reference(plate):
    for freqs in (default_frequencies(), WIDE_BAND):
        want, spread = REFERENCE.spectrum(COIL, plate, freqs)
        peak = np.abs(want).max()
        # The reference's two rule orders agree far inside the budget.
        assert spread <= 1e-12 * peak, plate
        got = delta_l_spectrum(COIL, plate, freqs).values
        assert np.abs(got - want).max() <= 1e-10 * peak, plate


# (stacked index, replacement) of the corrupted observation, or None; a
# replacement that is a float scales the clean value instead.
corruptions = st.none() | st.tuples(
    st.integers(0, 2 * BAND.size - 1),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e3, -1e3]),
)


def _corrupt(spectrum, corruption):
    if corruption is None:
        return spectrum
    index, value = corruption
    stacked = spectrum.stacked.copy()
    if math.isfinite(value) and value != 0.0:
        value = stacked[index] * value
    stacked[index] = value
    m = len(spectrum)
    values = np.empty(m, dtype=complex)
    values.real, values.imag = stacked[:m], stacked[m:]
    return InductanceSpectrum(freqs=spectrum.freqs, values=values)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(plate=plates, noise=st.floats(0.0, 0.3), seed=st.integers(0, 2**16),
       corruption=corruptions)
def test_invert_keeps_its_contracts(plate, noise, seed, corruption):
    clean = delta_l_spectrum(COIL, plate, BAND)
    observed = _corrupt(add_noise(clean, NoiseModel(amplitude=noise, seed=seed)), corruption)

    result = invert(COIL, observed, CFG)

    for p in result.param_history + [result.params]:
        assert BOX.contains(p)
    hist = result.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    if not np.all(np.isfinite(observed.values)):
        assert not result.converged
        assert result.iterations == 0
        assert "non-finite" in result.message
