"""Finite-perturbation sensitivities of the forward model.

Each parameter is bumped up by a fraction of its current value and the
spectrum re-evaluated, so a full finite-difference Jacobian costs
exactly five forward spectra (reference plus one per parameter).  The
same machinery exposes per-fraction sensitivity curves, which show how
the response saturates as the perturbation grows into the nonlinear
range; that saturation, not the derivative itself, is what these
functions are for.  The solver takes the exact Jacobian from the forward
kernel instead (``delta_l_spectrum(..., jacobian=True)``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .forward import CoilGeometry, PlateParams, delta_l_spectrum

__all__ = [
    "PARAM_NAMES",
    "DEFAULT_FRACTIONS",
    "JacobianMatrix",
    "jacobian",
    "sensitivity_spectrum",
    "write_sensitivity_csv",
]

# Fixed parameter order everywhere: conductivity, permeability, thickness,
# lift-off.  "liftoff" is the user-facing name for PlateParams.l.
PARAM_NAMES = ("sigma", "mu_r", "t", "liftoff")

DEFAULT_FRACTIONS = (0.01, 0.05, 0.10, 0.50)


@dataclass(frozen=True)
class JacobianMatrix:
    """Jacobian of the stacked spectrum.

    ``entries`` has one row per stacked observation (all real parts, then
    all imaginary parts) and one column per parameter in PARAM_NAMES
    order.  The reference parameters the columns were built at ride along
    for scaling and masking downstream.
    """

    entries: np.ndarray
    reference: PlateParams

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[1] != 4:
            raise ValueError("entries must be a (2m, 4) array")
        if entries.shape[0] % 2 != 0:
            raise ValueError("entries must stack real and imaginary rows evenly")
        if not np.all(np.isfinite(entries)):
            raise ValueError("Jacobian entries must all be finite")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def _check_fractions(fractions: np.ndarray):
    if np.any(fractions <= 0.0) or np.any(fractions > 0.5):
        raise ValueError("perturbation fractions must lie in (0, 0.5]")


def _check_reference(ref: PlateParams, k: int):
    """A relative step needs a nonzero reference value (sigma and t may be 0)."""
    if ref.as_array()[k] == 0.0:
        raise ValueError(
            f"reference {PARAM_NAMES[k]} is 0, so a relative perturbation "
            "step of it is 0; choose a nonzero reference value"
        )


def jacobian(
    coil: CoilGeometry,
    ref: PlateParams,
    freqs,
    fractions=(0.01, 0.01, 0.01, 0.01),
) -> JacobianMatrix:
    """One-sided finite-difference Jacobian at the reference parameters.

    Perturbations are taken upward only (+fraction * value), which keeps
    every probe physical even when the reference sits on a lower bound.
    A reference value of 0 is rejected: its relative step would be 0.
    """
    fr = np.asarray(fractions, dtype=float)
    if fr.shape != (4,):
        raise ValueError("fractions must be a 4-vector")
    _check_fractions(fr)
    for k in range(4):
        _check_reference(ref, k)
    base_vec = delta_l_spectrum(coil, ref, freqs).stacked
    p0 = ref.as_array()
    cols = np.empty((base_vec.size, 4))
    for k in range(4):
        step = fr[k] * p0[k]
        pk = p0.copy()
        pk[k] += step
        pert = delta_l_spectrum(coil, PlateParams.from_array(pk), freqs)
        cols[:, k] = (pert.stacked - base_vec) / step
    return JacobianMatrix(entries=cols, reference=ref)


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
    difference quotient d(dL)/d(param) at that perturbation size.  A
    reference value of 0 for ``param`` is rejected, as in ``jacobian``.
    """
    if param not in PARAM_NAMES:
        raise ValueError(f"param must be one of {PARAM_NAMES}, got {param!r}")
    fr = np.atleast_1d(np.asarray(fractions, dtype=float))
    if fr.size == 0:
        raise ValueError("need at least one perturbation fraction")
    _check_fractions(fr)
    k = PARAM_NAMES.index(param)
    _check_reference(ref, k)
    if freqs is None:
        from .forward import default_frequencies

        freqs = default_frequencies()
    base = delta_l_spectrum(coil, ref, freqs)
    p0 = ref.as_array()
    rows = []
    for frac in fr:
        step = frac * p0[k]
        pk = p0.copy()
        pk[k] += step
        pert = delta_l_spectrum(coil, PlateParams.from_array(pk), freqs)
        sens = (pert.values - base.values) / step
        for f, s in zip(base.freqs, sens):
            rows.append((float(f), float(frac), float(s.real), float(s.imag)))
    return rows


def write_sensitivity_csv(path, rows):
    """Write sensitivity rows (freq_hz, param, fraction, re, im) as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "param", "fraction", "re_sens", "im_sens"])
        for freq, param, fraction, re, im in rows:
            writer.writerow(
                [f"{freq:.17g}", param, f"{fraction:.17g}", f"{re:.17g}", f"{im:.17g}"]
            )
