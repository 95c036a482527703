"""Finite-perturbation sensitivities of the forward model.

Each parameter is bumped up by a fraction of its reference value and the
spectrum re-evaluated; ``difference_quotients`` returns the one-sided
quotient for every fraction and every parameter at once, from one
reference spectrum and one bumped spectrum per (fraction, parameter)
pair.  Across fractions the quotients show how the response saturates
as the perturbation grows into the nonlinear range; that saturation,
not the derivative itself, is what this module is for.  The solver
takes the exact Jacobian from the forward kernel instead
(``delta_l_spectrum(..., jacobian=True)``).  Within the package only
the command line calls this module; ``eddyspec/__init__`` imports it
too, to re-export ``difference_quotients``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .forward import PARAM_NAMES, CoilGeometry, PlateParams, default_frequencies, delta_l_spectrum

__all__ = [
    "DEFAULT_FRACTIONS",
    "difference_quotients",
    "write_sensitivity_csv",
]

DEFAULT_FRACTIONS = (0.01, 0.05, 0.10, 0.50)


def difference_quotients(
    coil: CoilGeometry,
    ref: PlateParams,
    freqs=None,
    fractions=DEFAULT_FRACTIONS,
) -> np.ndarray:
    """One-sided difference quotients of the spectrum at ``ref``.

    Returns an (n_fractions, 2m, 4) array.  Entry [i, :, k] is
    (dL(ref with parameter k raised by step) - dL(ref)) / step, where
    step = fractions[i] * ref[k], stacked like a Jacobian column: the
    real parts, then the imaginary parts, one per frequency; columns
    follow PARAM_NAMES.  A relative step keeps every probe physical
    even when the reference sits on a lower bound.  Fractions must be
    finite and lie in (0, 0.5], and every parameter must be nonzero at
    the reference (a relative step of 0 is 0).  ``freqs`` defaults to
    the default band.
    """
    fr = np.atleast_1d(np.asarray(fractions, dtype=float))
    if fr.size == 0:
        raise ValueError("need at least one perturbation fraction")
    for fraction in fr:
        if not (math.isfinite(fraction) and 0.0 < fraction <= 0.5):
            raise ValueError(f"perturbation fractions must lie in (0, 0.5], got {fraction}")
    p0 = ref.as_array()
    for name, value in zip(PARAM_NAMES, p0):
        if value == 0.0:
            raise ValueError(
                f"reference {name} is 0, so a relative perturbation "
                "step of it is 0; choose a nonzero reference value"
            )
    if freqs is None:
        freqs = default_frequencies()
    base = delta_l_spectrum(coil, ref, freqs).values
    out = np.empty((fr.size, 2 * base.size, 4))
    for i, fraction in enumerate(fr):
        for k in range(4):
            step = fraction * p0[k]
            pk = p0.copy()
            pk[k] += step
            d = delta_l_spectrum(coil, PlateParams.from_array(pk), freqs).values - base
            out[i, :, k] = np.concatenate([d.real, d.imag]) / step
    return out


def write_sensitivity_csv(path, rows):
    """Write sensitivity rows (freq_hz, param, fraction, re, im) as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "param", "fraction", "re_sens", "im_sens"])
        for freq, param, fraction, re, im in rows:
            writer.writerow(
                [f"{freq:.17g}", param, f"{fraction:.17g}", f"{re:.17g}", f"{im:.17g}"]
            )
