"""Special functions and quadrature support for the coil kernel.

The forward model needs two numerical ingredients that have nothing to
do with any particular plate: the radial coil integral
P(a) = int_{a*r1}^{a*r2} x J1(x) dx, and a fixed quadrature grid on the
spatial-frequency axis.  They live here so the physics modules stay free
of quadrature bookkeeping.

Grid layout (``panel_edges``): n equal panels cover (0, alpha_max], and
the first of them, [0, e], is split m times toward alpha = 0 into
[e/2, e], [e/4, e/2], ..., plus the innermost [0, e/2^m], with m the
fewest halvings that bring e/2^m down to a given alpha_min.  Each panel
carries a ``_PANEL_ORDER``-point Gauss-Legendre rule, so a grid has
(n + m) * _PANEL_ORDER nodes: 420 on the reference probe (n = 8,
m = 27).  Why these counts is the error budget in ``forward``'s module
docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

__all__ = [
    "QuadratureGrid",
    "p_integral",
    "panel_edges",
    "build_grid",
]

_PANEL_ORDER = 12


def _xj1_integral(x):
    """int_0^x s J1(s) ds = (pi x / 2) [J1(x) H0(x) - J0(x) H1(x)], H = Struve."""
    return 0.5 * np.pi * x * (
        special.j1(x) * special.struve(0, x) - special.j0(x) * special.struve(1, x)
    )


def p_integral(alpha, r1: float, r2: float):
    """Radial coil weighting integral int_{alpha*r1}^{alpha*r2} x J1(x) dx.

    Closed form, for a scalar or an array of alpha >= 0 (one vectorised
    evaluation for a whole grid).  For alpha -> 0 the integrand behaves
    like x^2/2, so the value falls off as alpha^3 (r2^3 - r1^3)/6, and at
    alpha = 0 the window is empty and the integral is exactly zero.  The
    two Struve-Bessel products cancel only to about a third of their
    size there, so the form keeps full relative precision at small alpha.
    """
    if not 0.0 < r1 < r2:
        raise ValueError(f"coil radii must satisfy 0 < r1 < r2, got r1={r1}, r2={r2}")
    a = np.asarray(alpha, dtype=float)
    if np.any(a < 0.0):
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    out = _xj1_integral(a * r2) - _xj1_integral(a * r1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class QuadratureGrid:
    """Fixed nodes and weights for integrals over spatial frequency.

    Nodes are strictly increasing and strictly positive, weights strictly
    positive; together they integrate smooth functions over (0, alpha_max].
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if nodes.size and nodes[0] <= 0.0:
            raise ValueError("quadrature nodes must be strictly positive")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray):
        """Weighted sum approximating the integral of sampled values."""
        return np.sum(self.weights * values, axis=-1)


def panel_edges(alpha_max: float, n_uniform: int, alpha_min: float) -> np.ndarray:
    """Panel edges of the forward grid on [0, alpha_max], graded toward 0.

    ``n_uniform`` equal panels, the first one halved toward 0 until its
    innermost edge is at or below ``alpha_min`` (see the module docstring
    for the layout).
    """
    if not 0.0 < alpha_min < alpha_max:
        raise ValueError(f"need 0 < alpha_min < alpha_max, got {alpha_min}, {alpha_max}")
    if n_uniform < 1:
        raise ValueError(f"need at least one uniform panel, got {n_uniform}")
    uniform = np.linspace(0.0, alpha_max, n_uniform + 1)
    halvings = max(0, math.ceil(math.log2(uniform[1] / alpha_min)))
    graded = uniform[1] * 0.5 ** np.arange(halvings, 0, -1)
    return np.concatenate([[0.0], graded, uniform[1:]])


def build_grid(edges) -> QuadratureGrid:
    """Composite Gauss-Legendre grid: a ``_PANEL_ORDER``-point rule on each
    panel between consecutive ``edges`` (strictly increasing, from 0 up)."""
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2 or e[0] != 0.0 or np.any(np.diff(e) <= 0.0):
        raise ValueError("edges must increase strictly from 0 with at least one panel")
    x, w = leggauss(_PANEL_ORDER)
    half = 0.5 * np.diff(e)[:, None]
    mid = 0.5 * (e[1:] + e[:-1])[:, None]
    return QuadratureGrid(nodes=(mid + half * x).ravel(), weights=(half * w).ravel())
