"""Independent reference for the inductance-change spectrum.

Shares no code with the package.  Where the package integrates the
two-branch reflection coefficient on a fixed composite grid cut at the
coil's nominal stand-off, with P(alpha) from one adaptive quadrature per
node, this module uses

* the closed form  int_0^x s J1(s) ds = (pi x / 2) [J1(x) H0(x) - J0(x) H1(x)]
  (H = Struve) for the coil integral P(alpha);
* the single-branch reflection coefficient phi = u v (1 - E) / (u^2 - v^2 E)
  with E = exp(-2 alpha1 t), which cannot overflow since Re alpha1 > 0;
* a composite Gauss-Legendre rule cut where the axial factor has decayed
  below 1e-18 even at zero lift-off, with panels graded geometrically
  toward alpha = 0, so that the singularities of phi near the origin
  (branch points of alpha1 at distance |k|/sqrt(2) from the real axis,
  and the pole of a thin permeable plate at distance ~ t k^2 / (2 mu_r))
  never sit close to a panel, whatever the plate and frequency.

``spectrum`` returns the value from two rule orders on the same panels
together with their largest difference, so a caller can confirm that the
reference itself has converged before trusting it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

MU0 = 4e-7 * math.pi

_DECAY_CUT = 42.0  # exp(-42) ~ 6e-19: axial decay at the upper limit
_UNIFORM_PANELS = 96
_GRADED_PANELS = 48
_ORDERS = (12, 16)


def _coil_integral(x):
    """int_0^x s J1(s) ds in closed form."""
    return 0.5 * math.pi * x * (
        special.j1(x) * special.struve(0, x) - special.j0(x) * special.struve(1, x)
    )


@lru_cache(maxsize=64)
def _rule(r1: float, r2: float, h: float, g: float, order: int):
    """Nodes and plate-independent weights (P^2/alpha^6 and the lift-off-free
    part of the axial factor folded in) for one winding geometry."""
    alpha_max = _DECAY_CUT / (h + g)
    uniform = np.linspace(0.0, alpha_max, _UNIFORM_PANELS + 1)
    graded = uniform[1] * 0.5 ** np.arange(1, _GRADED_PANELS + 1)
    edges = np.unique(np.concatenate([uniform, graded]))
    x, w = leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    a = (mid + half * x).ravel()
    p = _coil_integral(a * r2) - _coil_integral(a * r1)
    weights = (half * w).ravel() * p * p / a**6 * np.exp(-a * (h + g)) * (
        np.exp(-2.0 * a * h) + 1.0
    )
    return a, weights


def _integrate(coil, plate, freqs, order):
    a, weights = _rule(coil.r1, coil.r2, coil.h, coil.g, order)
    omega = 2.0 * math.pi * np.asarray(freqs, dtype=float)[:, None]
    a1 = np.sqrt(a * a + 1j * omega * plate.sigma * plate.mu_r * MU0)
    u = plate.mu_r * a + a1
    v = plate.mu_r * a - a1
    e = np.exp(-2.0 * a1 * plate.t)
    refl = u * v * (1.0 - e) / (u * u - v * v * e)
    k = math.pi * MU0 * coil.n_turns**2 / (coil.h**2 * (coil.r2 - coil.r1) ** 2)
    return k * (refl @ (weights * np.exp(-2.0 * a * plate.l)))


def spectrum(coil, plate, freqs):
    """Reference dL at each frequency, and the two rule orders' disagreement.

    ``coil`` needs the attributes r1, r2, h, g, n_turns and ``plate`` the
    attributes sigma, mu_r, t, l, all SI.  Returns (values, max |difference|).
    """
    low, high = (_integrate(coil, plate, freqs, n) for n in _ORDERS)
    return high, float(np.max(np.abs(high - low)))
