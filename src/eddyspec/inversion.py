"""Damped Gauss-Newton inversion of inductance spectra.

The observation vector stacks the real parts of the measured spectrum on
top of the imaginary parts, and the misfit is the plain half sum of
squares against the forward model.  Each iteration takes the exact
Jacobian at the current iterate, a plain (2m, 4) array, from the forward
model's own kernel pass (``delta_l_spectrum(..., jacobian=True)``),
scales its columns once by the current parameter values (so the column
mask and the solve both work in relative, dimensionless units), masks
out any column the data cannot see, and then halves the proposed step
until the misfit actually drops.  Masked parameters receive exactly
zero update, which is what keeps the iteration stable when e.g. the
skin effect has erased all thickness information from a high-frequency
band; a Jacobian with no column left ends the fit unconverged.

The misfit surface of this model has a deep, narrow ridge: a thin sheet
enters the field solution only through the products sigma*t and mu_r*t,
a thick one only through mu_r/sigma, so scaling (sigma, mu_r) up and t
down in proportion leaves the whole spectrum nearly unchanged at every
frequency.  In log-parameter space that direction, roughly
(1, 1, -1, 0)/sqrt(3), carries a singular value four orders of magnitude
below the rest.  A plain additive Gauss-Newton step sees the ridge as an
almost free direction and either overshoots wildly or creeps along it
for hundreds of iterations, so the solver splits the work in three
phases:

1. While the well-conditioned ("stiff") combinations still carry a
   sizable update, step only in their span.  These truncated steps are
   trustworthy (condition number of order ten) and pull the iterate
   onto the ridge floor in a handful of iterations.
2. Once the stiff update is small, move along the ridge only if the
   residual actually supports it: the predicted misfit reduction from
   the sloppy directions must be a sizable fraction of the current
   misfit.  Under measurement noise the ridge direction is statistically
   invisible (its signal sits far below the noise floor) and chasing it
   would amplify noise into huge parameter excursions; the gate freezes
   it instead and the solver stops at the identifiable optimum.
3. When the data do support it (noiseless or near-noiseless spectra), a
   full Gauss-Newton step in log-parameters, p -> p * exp(delta / p),
   moves along the ridge and across it at once.  Sloppy directions are
   straight lines in log space, so the multiplicative update follows
   the ridge floor where an additive one would climb its walls, and the
   iteration converges quadratically once on the floor.  The truncated
   steps of phases 1 and 2 stay additive.

A caller chooses only the start, the bounds box and the iteration cap
(``InversionConfig``).  The stop tests, the column drop level and the
halving limit are the module constants below, the values every shipped
result was computed with.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .forward import CoilGeometry, InductanceSpectrum, PlateParams, delta_l_spectrum

__all__ = [
    "ParamBounds",
    "InversionConfig",
    "InversionResult",
    "invert",
]

# Scaled singular values below this fraction of the largest span the
# "ridge": the near-degenerate combination(s) the band barely sees.  The
# spectrum is strongly bimodal (ratios of order 1e-1 vs 1e-4), so the
# exact cut is uncritical anywhere in between.
_RIDGE_CUT = 1e-3

# The stiff phase ends when its relative step drops below this; past
# that point the remaining misfit lives along the ridge.
_STIFF_DONE = 1e-3

# A smallest scaled singular value below this fraction of the largest
# makes the full step numerically singular (a condition number above
# 1e14 for the normal matrix); the ridge is then frozen instead.
_SINGULAR_CUT = 1e-7

# The fit has converged once the proposed relative (scaled) step norm
# falls below this: a part per million, far below any error the report
# prints.
_STEP_TOL = 1e-6

# A clean full step that removes less than this fraction of the misfit
# ends the fit: the misfit has stopped falling.
_RESIDUAL_TOL = 1e-9

# A scaled Jacobian column below this fraction of the largest is dropped
# as invisible to the band (thickness, once the skin depth is far below t).
_RANK_TAU = 1e-6

# The most step halvings per iteration; a step halved 20 times is a
# millionth of its proposal, past which the line search has failed.
_HALVINGS = 20

# Ridge moves must promise at least this fraction of the current misfit,
# else the direction is treated as unsupported by the data and frozen.
# After a log-space step, a third or more of a clean misfit is often
# ridge curvature: a gate at 0.5 froze 7 of 480 clean plates short of
# 0.5%.  The largest ratio seen over 1080 noisy refits (1-10% noise) was
# 0.14.
_RIDGE_GAIN = 0.3


@dataclass(frozen=True)
class ParamBounds:
    """Box constraints for (sigma, mu_r, t, l), each a (lower, upper) pair in SI."""

    sigma: tuple[float, float] = (1e4, 1e8)
    mu_r: tuple[float, float] = (1.0, 1e4)
    t: tuple[float, float] = (1e-5, 0.05)
    l: tuple[float, float] = (1e-4, 0.5)

    def __post_init__(self):
        for name in ("sigma", "mu_r", "t", "l"):
            lo, hi = getattr(self, name)
            # The manifest records the box, and JSON has no infinity.
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds for {name} must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"bounds for {name} must satisfy lower < upper")
            # The solver steps relative to each parameter, and the
            # Jacobian has no sigma or t column at 0.
            if not lo > 0.0:
                raise ValueError(f"lower bound for {name} must be positive, got {lo}")

    def lower(self) -> np.ndarray:
        return np.array([self.sigma[0], self.mu_r[0], self.t[0], self.l[0]])

    def upper(self) -> np.ndarray:
        return np.array([self.sigma[1], self.mu_r[1], self.t[1], self.l[1]])

    def contains(self, p: PlateParams) -> bool:
        a = p.as_array()
        return bool(np.all(a >= self.lower()) and np.all(a <= self.upper()))


@dataclass(frozen=True)
class InversionConfig:
    """Where the fit starts, the box it stays in and its iteration cap."""

    init: PlateParams = PlateParams(sigma=5e6, mu_r=100.0, t=2e-3, l=4e-3)
    max_iter: int = 100
    bounds: ParamBounds = field(default_factory=ParamBounds)

    def __post_init__(self):
        # A NaN or 2.5 would pass "< 1" and fail later in range().
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.bounds.contains(self.init):
            raise ValueError("initial guess must lie within the bounds box")


@dataclass
class InversionResult:
    """Solver outcome plus the iteration trace.

    ``residual_history`` holds the misfit at the start and after every
    accepted step (strictly decreasing by construction), ``param_history``
    the iterates from the initial guess on, and ``rank_masks`` the
    retained-column mask each accepted step was taken with.
    ``iterations``, the count of accepted steps, is derived: one per
    entry of ``rank_masks``.  ``message`` says why the solver stopped,
    whether or not it ``converged``.
    """

    params: PlateParams
    converged: bool
    residual_history: list
    rank_masks: list
    param_history: list
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.rank_masks)


def _rank_mask(scaled):
    """Columns of the column-scaled Jacobian the data can actually see.

    A column whose largest magnitude falls below ``_RANK_TAU`` times the
    largest of any column is dropped, and so is an all-zero column, so a
    Jacobian that vanishes keeps none.  Returns a 4-tuple of bools, True =
    retained.
    """
    colmax = np.abs(scaled).max(axis=0)
    return tuple(bool(b) for b in (colmax > 0.0) & (colmax >= _RANK_TAU * colmax.max()))


def _svd_step(u, sv, vt, r, n):
    """Least-squares step -V Sigma^-1 U^T r on the leading ``n`` singular directions."""
    return -(vt[:n].T @ ((u[:, :n].T @ r) / sv[:n]))


def invert(
    coil: CoilGeometry,
    observed: InductanceSpectrum,
    cfg: InversionConfig | None = None,
) -> InversionResult:
    """Recover plate parameters from an observed inductance spectrum.

    Never raises on poor data.  Non-finite observations, a spectrum that
    is zero everywhere or too large for a finite misfit, rank
    degeneracy, fewer observations than free parameters, every update
    direction blocked by the bounds box, a stalled line search and
    running out of iterations all end with ``converged=False`` and the
    reason in ``message``.  A near-singular full system is not among
    them: it freezes the ridge, and the fit may still converge on the
    identifiable combinations.
    """
    if cfg is None:
        cfg = InversionConfig()
    if len(observed) == 0:
        raise ValueError("observed spectrum is empty")

    p = cfg.init
    freqs = observed.freqs
    bad = ~np.isfinite(observed.values)
    refusal = None
    if np.any(bad):
        refusal = (
            f"observed spectrum has non-finite values at {int(bad.sum())} of "
            f"{len(observed)} frequencies (first at {freqs[bad][0]:g} Hz)"
        )
    elif not np.any(observed.values):
        # A t = 0 plate, or none at all.  Every plate in the bounds box
        # gives a nonzero spectrum, so no iterate fits these data and a
        # search would only drift to the edge of the box.
        refusal = (
            f"observed spectrum is zero at all {len(observed)} frequencies: "
            "the data carry no plate signal"
        )
    else:
        obs = observed.stacked
        model, entries = delta_l_spectrum(coil, p, freqs, jacobian=True)
        r = model.stacked - obs
        # Every accepted misfit is smaller than this one, so a finite
        # start keeps the whole fit finite.
        with np.errstate(over="ignore"):
            misfit = 0.5 * float(r @ r)
        if not math.isfinite(misfit):
            refusal = "observed spectrum is too large for a finite misfit"
    if refusal is not None:
        return InversionResult(
            params=p,
            converged=False,
            residual_history=[],
            rank_masks=[],
            param_history=[p],
            message=refusal,
        )
    lo = cfg.bounds.lower()
    hi = cfg.bounds.upper()
    p_arr = p.as_array()

    residual_history = [misfit]
    rank_masks: list = []
    param_history = [p]
    converged = False
    message = "maximum iterations reached"

    for _ in range(cfg.max_iter):
        # Columns scaled by their parameter's current value are in
        # comparable per-relative-change units; the mask and the SVD
        # both read them.
        scaled = entries * p_arr
        mask = _rank_mask(scaled)
        keep = np.asarray(mask, dtype=bool)
        if not keep.any():
            message = "all Jacobian columns vanish; nothing to invert"
            break
        if r.size < keep.sum():
            message = (
                f"underdetermined: {r.size} real observations for "
                f"{int(keep.sum())} free parameters"
            )
            break

        # Split the scaled reduced system into stiff and ridge parts.
        u, sv, vt = np.linalg.svd(scaled[:, keep], full_matrices=False)
        n_ridge = int(np.sum(sv < _RIDGE_CUT * sv[0]))
        n_stiff = sv.size - n_ridge
        y_stiff = _svd_step(u, sv, vt, r, n_stiff)
        stiff_norm = float(np.linalg.norm(y_stiff))
        # Misfit the ridge directions could remove, were they trusted.
        ridge_gain = 0.5 * float(np.sum((u[:, n_stiff:].T @ r) ** 2))

        # The stiff step is taken alone, with the ridge frozen, while the
        # stiff phase runs (a step of _STIFF_DONE or more, so the stop
        # test below cannot fire) and when the ridge cannot pay for
        # itself: its predicted gain is buried in the residual (noise)
        # floor, or it is too flat for the full step to resolve.
        frozen = n_ridge > 0 and (
            stiff_norm >= _STIFF_DONE
            or ridge_gain < _RIDGE_GAIN * misfit
            or sv[-1] < _SINGULAR_CUT * sv[0]
        )
        y = y_stiff if frozen else _svd_step(u, sv, vt, r, sv.size)
        log_step = not frozen
        if float(np.linalg.norm(y)) < _STEP_TOL:
            converged = True
            message = "update below step tolerance" + (" (ridge frozen)" if frozen else "")
            break
        step = np.zeros(4)
        step[keep] = y * p_arr[keep]

        # Components pushing outward at an active bound cannot move; drop
        # them so the line search explores the remaining directions.
        blocked = ((p_arr <= lo) & (step < 0.0)) | ((p_arr >= hi) & (step > 0.0))
        step = np.where(blocked, 0.0, step)
        if not np.any(step):
            message = "all update directions blocked by the bounds box"
            break

        # Halve until the misfit actually decreases.  Stiff and frozen
        # steps are additive; the full step moves in log-parameters, its
        # log ratio clipped to the box before exp so exp cannot overflow.
        # Candidates are clamped into the bounds box before evaluation, so
        # iterates can never leave it.  Each candidate is evaluated with
        # its Jacobian, which the next iteration reuses.
        for k in range(_HALVINGS + 1):
            if log_step:
                want = step * 0.5**k / p_arr
                ratio = np.clip(want, np.log(lo / p_arr), np.log(hi / p_arr))
                trial = np.clip(p_arr * np.exp(ratio), lo, hi)
                clamped = np.any(ratio != want)
            else:
                raw = p_arr + step * 0.5**k
                trial = np.clip(raw, lo, hi)
                clamped = np.any(trial != raw)
            trial_p = PlateParams.from_array(trial)
            trial_model, trial_entries = delta_l_spectrum(coil, trial_p, freqs, jacobian=True)
            trial_r = trial_model.stacked - obs
            trial_misfit = 0.5 * float(trial_r @ trial_r)
            if trial_misfit < misfit:
                break
        else:
            message = "line search failed to reduce the misfit"
            break

        full_accept = k == 0 and not clamped
        prev_misfit, misfit = misfit, trial_misfit
        p, p_arr, r, entries = trial_p, trial, trial_r, trial_entries
        residual_history.append(misfit)
        rank_masks.append(mask)
        param_history.append(p)

        # The residual test only counts when the full proposal was taken
        # cleanly; a deeply halved or clamped step can show a tiny
        # decrease while far from any optimum.
        if full_accept and prev_misfit - misfit <= _RESIDUAL_TOL * prev_misfit:
            converged = True
            message = "misfit decrease below residual tolerance"
            break

    return InversionResult(
        params=p,
        converged=converged,
        residual_history=residual_history,
        rank_masks=rank_masks,
        param_history=param_history,
        message=message,
    )
