"""Analytic forward model for a gradiometer coil pair above a metal plate.

Geometry: two identical air-cored circular coils (inner radius r1, outer
radius r2, axial height h, axial gap g between them) suspended a distance
l above a homogeneous plate of conductivity sigma, relative permeability
mu_r and thickness t.  The plate is laterally infinite; fields separate
into cylindrical harmonics indexed by a spatial frequency alpha, and the
inductance change of the pair relative to free space is a single integral

    dL(omega) = K * int_0^inf  P(alpha)^2 / alpha^6 * A(alpha)
                               * phi(alpha, omega)  d alpha

where P is the radial coil integral (see specfun), A collects the axial
exponentials of the two windings, phi is the plate reflection
coefficient, and K is a purely geometric constant.  phi is the only
factor that knows about the frequency, and A the only other one that
knows about the plate (through l alone), so K * w * P^2 / alpha^6 on the
quadrature nodes is cached once per coil, A is evaluated once per
spectrum, and a plain spectrum costs one pass over the nodes per
frequency.  The Jacobian pass, which also gives the solver the exact
derivatives of dL, runs on blocks of about 2048 kernel points (frequencies
x nodes).  Plain spectra stay per frequency because the benchmark keeps
every output until its checks run, so a faster one reads as more memory.

Quadrature and its error budget.  The integral runs over (0, alpha_max]
on a composite 12-point Gauss-Legendre grid (layout in ``specfun``): n
equal panels, the first of them halved toward alpha = 0 until its
innermost edge is at or below 1e-6 rad/m.  P(alpha) comes from a power
series and an exponentially convergent midpoint rule (``specfun``), in
one vectorised call, within a few units of rounding of its value on the
grid.  The budget is 1e-10 of the spectrum's peak
|dL| for every plate in the ``ParamBounds`` box at 10 Hz - 1 MHz, and
each of the three error sources is held far below it:

* Tail.  The cut alpha_max = max(30/(h + g), 20/r1) is taken at zero
  lift-off, so it holds for every plate: beyond it A(alpha) <= 2 e^-30
  (about 2e-13), |phi| <= 1, and P^2/alpha^6 has fallen by many decades
  from its alpha -> 0 value.
* Oscillation.  P(alpha)^2 oscillates at up to 2 r2 in alpha, a period
  of pi/r2.  Uniform panels are at most 7.5/r2 wide, and there are at
  least 8 of them, so a 12-point panel sees at most about 2.4 periods.
  Probes with r2 up to
  2 (h + g) and 3 r1, the reference probe and the pencil probe included,
  get exactly 8 panels; a flat pancake coil gets more.
* Origin.  phi has its singularities near alpha = 0.  The branch points
  of alpha1 lie |k|/sqrt(2) off the real axis, and a thin plate adds a
  pole near alpha ~ t k^2 / (2 mu_r) = t omega sigma mu0 / 2, which is
  4e-6 rad/m at the box corner (t 10 um, sigma 10 kS/m, 10 Hz).  Halving
  to 1e-6 puts two panels between that pole and alpha = 0: 27 halvings
  on the reference probe, 420 nodes in all.  With 20 halvings, 7 of 1600
  random plates in the box missed 1e-9 of peak on four probes.

Measured against the independent reference in ``bench/reference.py``
(graded rules of about 1700 and 2300 nodes that agree to 1e-12): worst
5e-14 of peak over 2800 random plates in the box (lift-off up to 0.5 m)
and over the box's thin, resistive corners, on seven probes from a
2 mm coil to a 50 mm pancake.  The budget is stated for the box and the
band only: a thinner or more resistive plate, or a lower frequency,
moves the pole below 1e-6 rad/m.  At sigma = 0 and at t = 0 the pole
reaches alpha = 0 itself, and the sigma or t column of the Jacobian is
NaN there (see ``_jacobian_block``).

Sign conventions follow the physics: a ferromagnetic plate at low
frequency raises the inductance (Re dL > 0), a good conductor at high
frequency lowers it (Re dL < 0).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import build_grid, p_integral, panel_edges

__all__ = [
    "MU0",
    "CoilGeometry",
    "PARAM_NAMES",
    "PlateParams",
    "InductanceSpectrum",
    "coil_grid",
    "delta_l_spectrum",
    "impedance_to_inductance",
    "default_frequencies",
    "DEFAULT_FMIN_HZ",
    "DEFAULT_FMAX_HZ",
    "DEFAULT_N_FREQS",
]

MU0 = 4e-7 * np.pi  # vacuum permeability, H/m

# Default measurement band: 30 points per run, log-spaced over 100 Hz to
# 100 kHz.  The lower edge keeps the skin depth in dual-phase steels above
# the plate thickness (thickness stays observable), the upper edge is well
# into the skin-effect regime where lift-off and surface properties
# dominate.  30 points rather than a sparser grid: the estimator's noise
# response scales as 1/sqrt(m), and 30 keeps the lift-off estimate inside
# its error budget at 10% measurement noise.
DEFAULT_FMIN_HZ = 100.0
DEFAULT_FMAX_HZ = 1e5
DEFAULT_N_FREQS = 30

# Quadrature grid (error budget in the module docstring): the cut in
# units of 1/(h + g) and of 1/r1, the fewest uniform panels, the widest
# uniform panel in units of 1/r2, and the innermost panel edge in rad/m.
_TAIL_DECAY = 30.0
_BORE_CUT = 20.0
_MIN_PANELS = 8
_PANEL_PHASE = 7.5
_ALPHA_FLOOR = 1e-6

# Kernel points (frequencies x nodes) per Jacobian block, 4 frequencies on
# a 420-node grid; blocks of 8192 or more points measured slower.
_BLOCK = 2048


@dataclass(frozen=True)
class CoilGeometry:
    """Gradiometer pair geometry in metres (turn count per winding).

    Defaults describe the reference probe used throughout: 150 mm bore,
    15-turn windings, 35 mm axial gap.
    """

    r1: float = 0.075  # inner winding radius
    r2: float = 0.0875  # outer winding radius
    h: float = 0.010  # axial height of each winding
    g: float = 0.035  # axial gap between the two windings
    n_turns: int = 15

    def __post_init__(self):
        for name in ("r1", "r2", "h", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.r1 < self.r2:
            raise ValueError(f"need 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")
        if self.h <= 0.0 or self.g < 0.0:
            raise ValueError("h must be positive, g nonnegative")
        # A NaN or inf passes "< 1" and poisons the whole spectrum.
        if not (isinstance(self.n_turns, numbers.Integral) and self.n_turns >= 1):
            raise ValueError(f"n_turns must be an integer >= 1, got {self.n_turns!r}")


# Fixed parameter order everywhere, the order of PlateParams.as_array:
# conductivity, permeability, thickness, lift-off.  "liftoff" is the
# user-facing name for PlateParams.l.
PARAM_NAMES = ("sigma", "mu_r", "t", "liftoff")


@dataclass(frozen=True)
class PlateParams:
    """Plate unknowns: conductivity, relative permeability, thickness, lift-off.

    All SI (S/m, dimensionless, m, m).  Construction only enforces
    physical sanity; the inversion box constraints live with the solver,
    which needs freedom to evaluate degenerate plates (sigma = 0, t = 0)
    when checking model limits.
    """

    sigma: float
    mu_r: float
    t: float
    l: float

    def __post_init__(self):
        for name in ("sigma", "mu_r", "t", "l"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.mu_r < 1.0:
            raise ValueError(f"mu_r must be at least 1, got {self.mu_r}")
        if self.t < 0.0:
            raise ValueError(f"t must be nonnegative, got {self.t}")
        if self.l <= 0.0:
            raise ValueError(f"l must be positive, got {self.l}")

    def as_array(self) -> np.ndarray:
        """Parameter vector in the fixed order (sigma, mu_r, t, l)."""
        return np.array([self.sigma, self.mu_r, self.t, self.l])

    @staticmethod
    def from_array(p) -> "PlateParams":
        sigma, mu_r, t, l = (float(v) for v in p)
        return PlateParams(sigma=sigma, mu_r=mu_r, t=t, l=l)


def _check_frequencies(freqs: np.ndarray) -> None:
    """Raise ValueError unless ``freqs`` is 1-d, finite, positive and
    strictly increasing.  Spectrum values may be non-finite (``invert``
    refuses such data itself); frequencies may not."""
    if freqs.ndim != 1:
        raise ValueError("frequencies must be a 1-d array")
    bad = freqs[~((freqs > 0.0) & (freqs < np.inf))]
    if bad.size:
        raise ValueError(f"frequencies must be finite and strictly positive, got {bad}")
    if np.any(np.diff(freqs) <= 0.0):
        raise ValueError("frequencies must be strictly increasing")


@dataclass(frozen=True)
class InductanceSpectrum:
    """Complex inductance change sampled on a strictly increasing frequency grid."""

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.array(self.freqs, dtype=float)
        values = np.array(self.values, dtype=complex)
        if freqs.shape != values.shape:
            raise ValueError("freqs and values must be matching 1-d arrays")
        _check_frequencies(freqs)
        freqs.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.freqs.size

    @property
    def stacked(self) -> np.ndarray:
        """Observation vector: all real parts, then all imaginary parts."""
        return np.concatenate([self.values.real, self.values.imag])


def default_frequencies(
    fmin: float = DEFAULT_FMIN_HZ,
    fmax: float = DEFAULT_FMAX_HZ,
    m: int = DEFAULT_N_FREQS,
) -> np.ndarray:
    """Log-spaced measurement frequencies in Hz."""
    if not 0.0 < fmin < fmax < math.inf:
        raise ValueError(f"need 0 < fmin < fmax < inf, got {fmin}, {fmax}")
    if not (isinstance(m, numbers.Integral) and m >= 1):
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    return np.geomspace(fmin, fmax, m)


def alpha1(alpha, omega: float, sigma: float, mu_r: float):
    """Wavenumber inside the plate: sqrt(alpha^2 + j*omega*sigma*mu_r*mu0).

    Principal branch, so Re(alpha1) > 0 for alpha > 0; exactly alpha for
    a non-conducting plate.  A column ``omega`` gives a row per frequency.
    """
    a = np.asarray(alpha, dtype=float)
    k2 = omega * sigma * mu_r * MU0
    if sigma == 0.0:
        return np.broadcast_to(a, np.broadcast(a, k2).shape).astype(complex, order="C")
    return np.sqrt(a * a + 1j * k2)


def _reflection(a, omega: float, plate: PlateParams):
    """alpha1, u, v, E, D and phi on the nodes ``a``: the one place the
    reflection coefficient's formula lives (see ``phi``)."""
    a1 = alpha1(a, omega, plate.sigma, plate.mu_r)
    ma = plate.mu_r * a
    u = ma + a1
    v = ma - a1
    e = np.exp(-2.0 * plate.t * a1)
    d = u * u - v * v * e
    return a1, u, v, e, d, u * v * (1.0 - e) / d


def phi(alpha, omega: float, plate: PlateParams):
    """Reflection coefficient of the plate at spatial frequency alpha.

    With u = mu_r*alpha + alpha1, v = mu_r*alpha - alpha1 and
    E = exp(-2 alpha1 t),

        phi = u v (1 - E) / (u^2 - v^2 E).

    Re(alpha1) > 0 and t >= 0 give |E| <= 1, so the form cannot overflow
    for any plate.  Limits: t -> 0 gives 0 (no plate), t -> inf gives the
    half-space value v/u, and sigma -> 0 with mu_r = 1 gives 0 (plate
    indistinguishable from air).  |phi| <= 1 for all passive plates.
    """
    return _reflection(np.asarray(alpha, dtype=float), omega, plate)[-1]


def a_factor(alpha, coil: CoilGeometry, l: float):
    """Axial coupling factor exp(-alpha*(2l+h+g)) * (exp(-2*alpha*h) + 1).

    Strictly decreasing in both alpha and lift-off; bounded by (0, 2].
    """
    if l <= 0.0:
        raise ValueError(f"lift-off must be positive, got {l}")
    a = np.asarray(alpha, dtype=float)
    return np.exp(-a * (2.0 * l + coil.h + coil.g)) * (np.exp(-2.0 * a * coil.h) + 1.0)


def coil_constant(coil: CoilGeometry) -> float:
    """Geometric prefactor K = pi*mu0*N^2 / (h^2 (r2 - r1)^2), units H/m^5."""
    return math.pi * MU0 * coil.n_turns**2 / (coil.h**2 * (coil.r2 - coil.r1) ** 2)


def truncation_alpha_max(coil: CoilGeometry) -> float:
    """Upper integration limit for the spatial-frequency integral.

    Taken at zero lift-off, so it holds for every plate: the axial decay
    exp(-alpha (h + g)) is below exp(-30) ~ 1e-13 at the cut, with a floor
    of 20/r1 so narrow coils still resolve their own bore.
    """
    return max(_TAIL_DECAY / (coil.h + coil.g), _BORE_CUT / coil.r1)


@lru_cache(maxsize=16)
def coil_grid(coil: CoilGeometry):
    """Quadrature nodes and coil weights, built once per coil.

    Returns read-only (nodes, weights) with weights = K * w * P(alpha)^2
    / alpha^6: everything in the integrand that depends only on the coil,
    so the cache is shared by every frequency and every plate evaluated
    with this coil.
    """
    alpha_max = truncation_alpha_max(coil)
    n_uniform = max(_MIN_PANELS, math.ceil(alpha_max * coil.r2 / _PANEL_PHASE))
    a, w = build_grid(panel_edges(alpha_max, n_uniform, _ALPHA_FLOOR))
    p = p_integral(a, coil.r1, coil.r2)
    weights = coil_constant(coil) * w * p**2 / a**6
    weights.flags.writeable = False
    return a, weights


def delta_l(
    plate: PlateParams,
    freq: float,
    nodes: np.ndarray,
    weights: np.ndarray,
):
    """Inductance change of the gradiometer pair at a single frequency.

    Internal: ``delta_l_spectrum`` calls it once per frequency of a plain
    spectrum, after checking the frequencies, with ``weights`` the coil
    weights of ``coil_grid`` times ``a_factor(nodes, coil, plate.l)``, the
    plate's axial factor.  Any other weights give a wrong dL.
    """
    omega = 2.0 * math.pi * freq
    ph = _reflection(nodes, omega, plate)[-1]
    return complex(weights @ ph)


def _jacobian_block(plate: PlateParams, freqs: np.ndarray, nodes: np.ndarray, weights: np.ndarray):
    """dL and its gradient d(dL)/d(sigma, mu_r, t, l) at each of ``freqs``.

    Internal: one block of ``delta_l_spectrum``'s Jacobian pass, with
    ``weights`` as for ``delta_l``.  Each row of the (frequencies x nodes)
    kernel is reduced on its own, dL as in ``delta_l``, and the gradient
    comes from the same kernel values in closed form:

        with N = u v (1 - E) and D = u^2 - v^2 E,
        dphi/du = (v (1 - E) D - 2 u N) / D^2
        dphi/dv = (u (1 - E) D + 2 v E N) / D^2
        dphi/dE = u v (v^2 - u^2) / D^2
        dalpha1/dk^2 = j / (2 alpha1),  k^2 = omega sigma mu_r mu0
        dE/dt = -2 alpha1 E,  dA/dl = -2 alpha A,  du/dmu_r = dv/dmu_r = alpha

    Two entries are NaN, because dL has no derivative there: the sigma
    entry at sigma = 0 (t > 0) and the t entry at t = 0 (sigma > 0).  At
    those points the sigma or t kernel goes as 1/alpha near alpha = 0, so
    dL - dL(0) goes as x log x in that parameter x.  The imaginary part
    of the slope grows without bound as x -> 0; the real part has a limit,
    but it comes from a pole at alpha = 0 that no grid resolves.  A
    finite number there would only tell where the lowest node sits.
    """
    omega = 2.0 * math.pi * freqs
    a1, u, v, e, d, ph = _reflection(nodes, omega[:, None], plate)
    one_e = 1.0 - e
    phi_u = (v * one_e - 2.0 * u * ph) / d
    phi_v = (u * one_e + 2.0 * v * e * ph) / d
    phi_e = u * v * (v * v - u * u) / (d * d)
    de_da1 = -2.0 * plate.t * e  # dE/dalpha1
    # dphi/dk^2 through alpha1, which u, v and E all contain
    phi_k2 = (phi_u - phi_v + phi_e * de_da1) * (0.5j / a1)
    sums = (np.concatenate([
        phi_k2,
        (phi_u + phi_v) * nodes,
        phi_e * (-2.0 * a1 * e),
        nodes * ph,
    ]) @ weights).reshape(4, -1)
    grads = np.stack([
        sums[0] * omega * plate.mu_r * MU0,
        sums[1] + sums[0] * omega * plate.sigma * MU0,
        sums[2],
        -2.0 * sums[3],
    ], axis=1)
    if plate.sigma == 0.0 and plate.t > 0.0:
        grads[:, 0] = complex(math.nan, math.nan)
    if plate.t == 0.0 and plate.sigma > 0.0:
        grads[:, 2] = complex(math.nan, math.nan)
    return [weights @ row for row in ph], grads


def delta_l_spectrum(
    coil: CoilGeometry,
    plate: PlateParams,
    freqs,
    jacobian: bool = False,
):
    """Inductance-change spectrum over a frequency grid.

    With ``jacobian`` the return value is (spectrum, entries): entries is
    the exact (2m, 4) Jacobian of ``spectrum.stacked`` with respect to
    (sigma, mu_r, t, l), from the same pass over the kernel.  Its sigma
    column is NaN at sigma = 0 and its t column at t = 0, where dL has
    no derivative (see ``_jacobian_block``).
    """
    f = np.asarray(freqs, dtype=float)
    _check_frequencies(f)
    nodes, coil_weights = coil_grid(coil)
    weights = coil_weights * a_factor(nodes, coil, plate.l)
    if not jacobian:
        values = np.array([delta_l(plate, fk, nodes, weights) for fk in f], dtype=complex)
        return InductanceSpectrum(freqs=f, values=values)
    rows = max(1, _BLOCK // nodes.size)
    values = np.empty(f.size, dtype=complex)
    grads = np.empty((f.size, 4), dtype=complex)
    for b in (slice(i, i + rows) for i in range(0, f.size, rows)):
        values[b], grads[b] = _jacobian_block(plate, f[b], nodes, weights)
    spectrum = InductanceSpectrum(freqs=f, values=values)
    return spectrum, np.concatenate([grads.real, grads.imag])


def impedance_to_inductance(z: complex, z_air: complex, freq: float) -> complex:
    """Convert a measured impedance pair to an inductance change.

    dL = (z - z_air) / (j 2 pi f); equivalently Re dL = Im(z - z_air)/(2 pi f)
    and Im dL = -Re(z - z_air)/(2 pi f).
    """
    if not 0.0 < freq < math.inf:
        raise ValueError(f"frequency must be finite and positive, got {freq}")
    return (complex(z) - complex(z_air)) / (1j * 2.0 * math.pi * freq)
