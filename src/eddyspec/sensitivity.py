"""Finite-perturbation sensitivities of the forward model.

Each parameter is bumped up by a fraction of its current value and the
spectrum re-evaluated, so a full finite-difference Jacobian costs
exactly five forward spectra (reference plus one per parameter).  The
same machinery exposes per-fraction sensitivity curves, which show how
the response saturates as the perturbation grows into the nonlinear
range; that saturation, not the derivative itself, is what these
functions are for.  The solver takes the exact Jacobian from the forward
kernel instead (``delta_l_spectrum(..., jacobian=True)``), and only the
command line imports this module.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .forward import PARAM_NAMES, CoilGeometry, PlateParams, default_frequencies, delta_l_spectrum

__all__ = [
    "DEFAULT_FRACTIONS",
    "jacobian",
    "sensitivity_spectrum",
    "write_sensitivity_csv",
]

DEFAULT_FRACTIONS = (0.01, 0.05, 0.10, 0.50)


def _bumped_quotients(coil: CoilGeometry, ref: PlateParams, freqs, bumps):
    """The spectrum at ``ref``, and one difference quotient per bump.

    Each bump (k, fraction) moves parameter k up by step = fraction *
    ref[k], which keeps every probe physical even when the reference sits
    on a lower bound; its quotient is (dL(bumped) - dL(ref)) / step,
    stacked like a Jacobian column: the real parts, then the imaginary
    parts, one per frequency.  Fractions must be finite and lie in
    (0, 0.5], and a bumped parameter must be nonzero at the reference
    (sigma and t may be 0, and a relative step of 0 is 0).
    """
    p0 = ref.as_array()
    for k, fraction in bumps:
        if not (math.isfinite(fraction) and 0.0 < fraction <= 0.5):
            raise ValueError(f"perturbation fractions must lie in (0, 0.5], got {fraction}")
        if p0[k] == 0.0:
            raise ValueError(
                f"reference {PARAM_NAMES[k]} is 0, so a relative perturbation "
                "step of it is 0; choose a nonzero reference value"
            )
    base = delta_l_spectrum(coil, ref, freqs)
    quotients = []
    for k, fraction in bumps:
        step = fraction * p0[k]
        pk = p0.copy()
        pk[k] += step
        d = delta_l_spectrum(coil, PlateParams.from_array(pk), freqs).values - base.values
        quotients.append(np.concatenate([d.real, d.imag]) / step)
    return base, quotients


def jacobian(
    coil: CoilGeometry,
    ref: PlateParams,
    freqs,
    fractions=(0.01, 0.01, 0.01, 0.01),
) -> np.ndarray:
    """One-sided finite-difference Jacobian at the reference parameters.

    Returns a (2m, 4) array: one row per stacked observation (all real
    parts, then all imaginary parts) and one column per parameter in
    PARAM_NAMES order, column k bumped by ``fractions[k]``.
    """
    fr = np.asarray(fractions, dtype=float)
    if fr.shape != (4,):
        raise ValueError("fractions must be a 4-vector")
    _, quotients = _bumped_quotients(coil, ref, freqs, list(enumerate(fr)))
    return np.column_stack(quotients)


def sensitivity_spectrum(
    coil: CoilGeometry,
    ref: PlateParams,
    param: str,
    fractions=DEFAULT_FRACTIONS,
    freqs=None,
):
    """Finite-difference sensitivity curves for one parameter.

    Returns rows (freq_hz, fraction, re_sens, im_sens), ordered by
    fraction then frequency, where the sensitivity is the one-sided
    difference quotient d(dL)/d(param) at that perturbation size.
    """
    if param not in PARAM_NAMES:
        raise ValueError(f"param must be one of {PARAM_NAMES}, got {param!r}")
    fr = np.atleast_1d(np.asarray(fractions, dtype=float))
    if fr.size == 0:
        raise ValueError("need at least one perturbation fraction")
    if freqs is None:
        freqs = default_frequencies()
    k = PARAM_NAMES.index(param)
    base, quotients = _bumped_quotients(coil, ref, freqs, [(k, frac) for frac in fr])
    m = len(base)
    return [
        (float(f), float(frac), float(re), float(im))
        for frac, q in zip(fr, quotients)
        for f, re, im in zip(base.freqs, q[:m], q[m:])
    ]


def write_sensitivity_csv(path, rows):
    """Write sensitivity rows (freq_hz, param, fraction, re, im) as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "param", "fraction", "re_sens", "im_sens"])
        for freq, param, fraction, re, im in rows:
            writer.writerow(
                [f"{freq:.17g}", param, f"{fraction:.17g}", f"{re:.17g}", f"{im:.17g}"]
            )
