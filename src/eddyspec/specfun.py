"""Special functions and quadrature support for the coil kernel.

The forward model needs two numerical ingredients that have nothing to
do with any particular plate: the radial coil integral
P(a) = int_{a*r1}^{a*r2} x J1(x) dx, and a fixed quadrature grid on the
spatial-frequency axis.  They live here so the physics modules stay free
of quadrature bookkeeping.  Both need numpy alone.

Coil integral: P(a) = F(a r2) - F(a r1) with F(x) = int_0^x s J1(s) ds.
Integrating s J1 = -s J0' by parts and inserting Bessel's integral for J0
gives

    F(x) = (1/pi) int_0^pi [sin(x sin q) / sin q - x cos(x sin q)] dq,

whose integrand is analytic and pi-periodic, so the midpoint rule
converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014): its
error is set by the Bessel coefficients J_2N(x), negligible once the N
points exceed x/2 + 5 x^(1/3) + 10.  The integrand is even about pi/2,
so half the points suffice.  Each value takes its point count from its
own x, never from the other values of a call.  For small x both terms
are about x while F(x) is about x^3/6, so the rule loses about
2 log10(1/x) digits as x -> 0; there the power series

    F(x) = sum_k (-1)^k x^(2k+3) / (2^(2k+1) k! (k+1)! (2k+3))

is used instead.  Its largest term grows about as fast as e^x, while
|F(x)| stays of order sqrt(x), so it cancels in turn as x grows.  The
switch sits at x = 2, where both losses are small: the largest series
term is 1.4 F and the rule's terms are about 2 F (at x = 4 the series
term is already 4.9 F; at x = 1 the rule's terms are 6.5 F).

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

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval

__all__ = [
    "p_integral",
    "panel_edges",
    "build_grid",
]

_PANEL_ORDER = 12

# F(x) by its power series up to _SERIES_MAX (12 terms reach 1e-19 there),
# by the midpoint rule above it, in blocks of at most _BLOCK floats.
_SERIES_MAX = 2.0
_SERIES = np.array([(-1.0) ** k / (2.0 ** (2 * k + 1) * math.factorial(k)
                                   * math.factorial(k + 1) * (2 * k + 3)) for k in range(12)])
_BLOCK = 1 << 17


def _xj1_integral(x: np.ndarray) -> np.ndarray:
    """F(x) = int_0^x s J1(s) ds for a 1-d array of x >= 0 (module docstring)."""
    out = np.empty_like(x)
    small = x <= _SERIES_MAX
    out[small] = x[small] ** 3 * polyval(x[small] ** 2, _SERIES)
    big = np.flatnonzero(~small)
    # points on [0, pi/2], a multiple of 8 so that a grid needs few counts
    half = 8 * np.ceil((x[big] / 2 + 5 * np.cbrt(x[big]) + 10) / 16).astype(int)
    for m in set(half.tolist()):
        s = np.sin((np.arange(m) + 0.5) * (0.5 * np.pi / m))
        rows = big[half == m]
        for i in np.array_split(rows, -(-rows.size * m // _BLOCK)):
            xs = x[i, None] * s
            out[i] = np.sum(np.sin(xs) / s - x[i, None] * np.cos(xs), axis=1) / m
    return out


def p_integral(alpha, r1: float, r2: float):
    """Radial coil weighting integral int_{alpha*r1}^{alpha*r2} x J1(x) dx.

    For a scalar or an array of finite alpha >= 0 (one vectorised
    evaluation for a whole grid), as F(alpha r2) - F(alpha r1) with the
    series and midpoint forms of F in the module docstring; a value never
    depends on the other values in the call, and costs about
    alpha (r1 + r2) / 4 sine-cosine pairs.  For alpha -> 0 the integrand
    behaves like x^2/2, so the value falls off as alpha^3 (r2^3 - r1^3)/6,
    and at alpha = 0 the window is empty and the integral is exactly zero.
    There both F values come from the series and F(alpha r1) is about
    (r1/r2)^3 of F(alpha r2), 0.63 on the reference probe, so the
    difference keeps nearly full relative precision.

    Measured against mpmath's Struve closed form at 40 digits, 6000 alpha
    per range: on the reference probe (r1 75 mm, r2 87.5 mm) up to its
    666 rad/m cut, at most 2.1e-12 of |P| (the scipy Struve form used
    before: 2.0e-11) and 7e-15 of F's envelope sqrt(alpha r2).  Above the
    cut the rounding of the O(x) terms shows where P passes near zero: up
    to 1e4 rad/m, 7e-10 of |P| and 2.2e-13 of the envelope (scipy 3.3e-11
    and 4.7e-14); on a 50 mm pancake (r1 5 mm) up to its 15000 rad/m cut,
    1.3e-10 of |P| and 1.6e-13 of the envelope (scipy 1.5e-10 and
    2.5e-13).
    """
    if not 0.0 < r1 < r2:
        raise ValueError(f"coil radii must satisfy 0 < r1 < r2, got r1={r1}, r2={r2}")
    a = np.asarray(alpha, dtype=float)
    if not np.all((a >= 0.0) & (a < np.inf)):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    flat = a.ravel()
    f = _xj1_integral(np.concatenate([flat * r2, flat * r1]))
    out = (f[: flat.size] - f[flat.size:]).reshape(a.shape)
    return float(out) if out.ndim == 0 else out


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


def build_grid(edges) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre grid: a ``_PANEL_ORDER``-point rule on each
    panel between consecutive ``edges`` (strictly increasing, from 0 up).

    Returns read-only (nodes, weights), with ``weights @ f(nodes)``
    approximating the integral of f over [edges[0], edges[-1]].  The
    nodes are strictly positive and increasing and the weights strictly
    positive, because every Gauss-Legendre node lies inside its panel.
    """
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2 or e[0] != 0.0 or np.any(np.diff(e) <= 0.0):
        raise ValueError("edges must increase strictly from 0 with at least one panel")
    x, w = leggauss(_PANEL_ORDER)
    half = 0.5 * np.diff(e)[:, None]
    mid = 0.5 * (e[1:] + e[:-1])[:, None]
    nodes = (mid + half * x).ravel()
    weights = (half * w).ravel()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
