"""Damped Gauss-Newton inversion of inductance spectra.

The observation vector stacks the real parts of the measured spectrum on
top of the imaginary parts, and the misfit is the plain half sum of
squares against the forward model.  Each iteration takes the exact
Jacobian at the current iterate from the forward model's own kernel pass
(``delta_l_spectrum(..., jacobian=True)``), rescales its columns
by the current parameter values (so the solve happens in relative,
dimensionless steps), masks out any column the data cannot see, and
then halves the proposed step until the misfit actually drops.  Masked
parameters receive exactly zero update, which is what keeps the
iteration stable when e.g. the skin effect has erased all thickness
information from a high-frequency band.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import CoilGeometry, InductanceSpectrum, PlateParams, delta_l_spectrum
from .sensitivity import JacobianMatrix

__all__ = [
    "ParamBounds",
    "InversionConfig",
    "InversionResult",
    "SingularSystemError",
    "RankDegeneracyError",
    "objective",
    "dynamic_rank_mask",
    "gauss_newton_step",
    "invert",
    "inversion_report",
]


class SingularSystemError(RuntimeError):
    """Reduced normal matrix is numerically singular; tighten the rank threshold."""


class RankDegeneracyError(RuntimeError):
    """Every Jacobian column is negligible; the data constrain nothing."""


# Condition estimate above which the reduced normal matrix is treated as
# singular rather than solved.
_COND_LIMIT = 1e14

# Scaled singular values below this fraction of the largest span the
# "ridge": the near-degenerate combination(s) the band barely sees.  The
# spectrum is strongly bimodal (ratios of order 1e-1 vs 1e-4), so the
# exact cut is uncritical anywhere in between.
_RIDGE_CUT = 1e-3

# The stiff phase ends when its relative step drops below this; past
# that point the remaining misfit lives along the ridge.
_STIFF_DONE = 1e-3

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

    def clamp_array(self, p: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(p, self.lower()), self.upper())

    def clamp(self, p: PlateParams) -> PlateParams:
        return PlateParams.from_array(self.clamp_array(p.as_array()))


@dataclass(frozen=True)
class InversionConfig:
    """Solver settings; defaults are the ones used for every shipped result."""

    init: PlateParams = PlateParams(sigma=5e6, mu_r=100.0, t=2e-3, l=4e-3)
    max_iter: int = 100
    step_tol: float = 1e-6  # on the relative (scaled) step norm
    residual_tol: float = 1e-9  # on the relative misfit decrease
    rank_threshold: float = 1e-6  # column drop level, relative to max column
    damping: int = 20  # max step halvings per iteration
    bounds: ParamBounds = field(default_factory=ParamBounds)

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.step_tol <= 0.0 or self.residual_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.rank_threshold <= 0.0:
            raise ValueError("rank_threshold must be positive")
        if self.damping < 0:
            raise ValueError("damping must be nonnegative")
        if not self.bounds.contains(self.init):
            raise ValueError("initial guess must lie within the bounds box")


@dataclass
class InversionResult:
    """Solver outcome plus the full iteration trace.

    ``residual_history`` holds the misfit at the start and after every
    accepted step (non-increasing by construction); ``rank_masks`` and
    ``step_history`` hold one entry per accepted step; ``param_history``
    holds the iterate trace starting at the initial guess.
    """

    params: PlateParams
    converged: bool
    iterations: int
    residual_history: list
    rank_masks: list
    step_history: list
    param_history: list
    message: str = ""


def objective(observed: InductanceSpectrum, model: InductanceSpectrum) -> float:
    """Half sum of squared stacked residuals between model and observation."""
    if not np.array_equal(observed.freqs, model.freqs):
        raise ValueError("observed and model spectra are on different frequency grids")
    d = model.stacked - observed.stacked
    return 0.5 * float(d @ d)


def dynamic_rank_mask(j: JacobianMatrix, threshold: float = 1e-6):
    """Mask of columns the data can actually see.

    Columns are first scaled by their parameter's current value (so all
    four are in comparable per-relative-change units); a column whose
    largest entry falls below ``threshold`` times the largest entry of
    any column is dropped.  Returns a 4-tuple of bools, True = retained.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    scaled = np.abs(j.entries) * j.reference.as_array()
    colmax = scaled.max(axis=0) if scaled.size else np.zeros(4)
    gmax = colmax.max()
    if gmax == 0.0:
        raise RankDegeneracyError("all Jacobian columns vanish; nothing to invert")
    return tuple(bool(b) for b in colmax >= threshold * gmax)


def gauss_newton_step(
    j: JacobianMatrix,
    residual: np.ndarray,
    mask=(True, True, True, True),
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """Gauss-Newton update from the normal equations on retained columns.

    ``residual`` is model minus observation (stacked); the returned
    4-vector is the additive parameter update, exactly zero in masked
    slots.  The solve runs on columns scaled by ``scale`` (current
    parameter values by default) and is unscaled afterward; the result is
    invariant to that choice up to roundoff.
    """
    r = np.asarray(residual, dtype=float)
    if r.shape != (j.entries.shape[0],):
        raise ValueError("residual length does not match the Jacobian")
    keep = np.asarray(mask, dtype=bool)
    if keep.shape != (4,):
        raise ValueError("mask must have four entries")
    if not keep.any():
        raise ValueError("mask retains no columns")
    s = j.reference.as_array() if scale is None else np.asarray(scale, dtype=float)
    if s.shape != (4,) or np.any(s <= 0.0) or not np.all(np.isfinite(s)):
        raise ValueError("scale must be a positive finite 4-vector")
    js = j.entries[:, keep] * s[keep]
    normal = js.T @ js
    if not np.all(np.isfinite(normal)) or np.linalg.cond(normal) > _COND_LIMIT:
        raise SingularSystemError(
            "reduced normal matrix is numerically singular; tighten the rank threshold"
        )
    y = np.linalg.solve(normal, -(js.T @ r))
    delta = np.zeros(4)
    delta[keep] = y * s[keep]
    return delta


def invert(
    coil: CoilGeometry,
    observed: InductanceSpectrum,
    cfg: InversionConfig | None = None,
) -> InversionResult:
    """Recover plate parameters from an observed inductance spectrum.

    Never raises on poor data: non-finite observations, a spectrum that
    is zero everywhere, fewer observations than free parameters, rank
    degeneracy, a singular solve, a stalled line search or running out of
    iterations all come back as ``converged=False`` with the reason in
    ``message``.
    """
    if cfg is None:
        cfg = InversionConfig()
    if len(observed) == 0:
        raise ValueError("observed spectrum is empty")

    p = cfg.bounds.clamp(cfg.init)
    bad = ~np.isfinite(observed.values)
    refusal = None
    if np.any(bad):
        refusal = (
            f"observed spectrum has non-finite values at {int(bad.sum())} of "
            f"{len(observed)} frequencies (first at {observed.freqs[bad][0]:g} Hz)"
        )
    elif not np.any(observed.values):
        # A t = 0 plate, or none at all.  Every plate in the bounds box
        # gives a nonzero spectrum, so no iterate fits these data and a
        # search would only drift to the edge of the box.
        refusal = (
            f"observed spectrum is zero at all {len(observed)} frequencies: "
            "the data carry no plate signal"
        )
    if refusal is not None:
        return InversionResult(
            params=p,
            converged=False,
            iterations=0,
            residual_history=[],
            rank_masks=[],
            step_history=[],
            param_history=[p],
            message=refusal,
        )
    freqs = observed.freqs
    lo = cfg.bounds.lower()
    hi = cfg.bounds.upper()
    model, entries = delta_l_spectrum(coil, p, freqs, jacobian=True)
    misfit = objective(observed, model)

    residual_history = [misfit]
    rank_masks: list = []
    step_history: list = []
    param_history = [p]
    converged = False
    message = "maximum iterations reached"
    accepted = 0

    for _ in range(cfg.max_iter):
        jac = JacobianMatrix(entries=entries, reference=p)
        try:
            mask = dynamic_rank_mask(jac, cfg.rank_threshold)
        except RankDegeneracyError as err:
            message = str(err)
            break
        keep = np.asarray(mask, dtype=bool)
        p_arr = p.as_array()
        r = model.stacked - observed.stacked
        if r.size < keep.sum():
            message = (
                f"underdetermined: {r.size} real observations for "
                f"{int(keep.sum())} free parameters"
            )
            break

        # Split the scaled reduced system into stiff and ridge parts.
        scaled = jac.entries[:, keep] * p_arr[keep]
        u, sv, vt = np.linalg.svd(scaled, full_matrices=False)
        n_ridge = int(np.sum(sv < _RIDGE_CUT * sv[0]))
        n_stiff = sv.size - n_ridge
        y_stiff = -(vt[:n_stiff].T @ ((u[:, :n_stiff].T @ r) / sv[:n_stiff]))
        stiff_step = np.zeros(4)
        stiff_step[keep] = y_stiff * p_arr[keep]
        stiff_small = float(np.linalg.norm(stiff_step / p_arr)) < cfg.step_tol
        # Misfit the ridge directions could remove, were they trusted.
        ridge_gain = 0.5 * float(np.sum((u[:, n_stiff:].T @ r) ** 2))

        if n_ridge and float(np.linalg.norm(y_stiff)) >= _STIFF_DONE:
            step, log_step = stiff_step, False
        elif n_ridge and ridge_gain < _RIDGE_GAIN * misfit:
            # The ridge cannot pay for itself: its predicted gain is
            # buried in the residual (noise) floor.  Freeze it and
            # converge on the identifiable combinations alone.
            if stiff_small:
                converged = True
                message = "update below step tolerance (ridge frozen)"
                break
            step, log_step = stiff_step, False
        else:
            try:
                full_step = gauss_newton_step(jac, r, mask)
            except SingularSystemError:
                # The ridge is flat enough to make the full normal
                # system numerically singular; keep going on the stiff
                # subspace, which is all the data can pay for anyway.
                if stiff_small:
                    converged = True
                    message = "update below step tolerance (ridge frozen)"
                    break
                step, log_step = stiff_step, False
            else:
                if float(np.linalg.norm(full_step / p_arr)) < cfg.step_tol:
                    converged = True
                    message = "update below step tolerance"
                    break
                step, log_step = full_step, True

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
        for k in range(cfg.damping + 1):
            if log_step:
                want = step * 0.5**k / p_arr
                ratio = np.clip(want, np.log(lo / p_arr), np.log(hi / p_arr))
                trial = cfg.bounds.clamp_array(p_arr * np.exp(ratio))
                clamped = np.any(ratio != want)
            else:
                raw = p_arr + step * 0.5**k
                trial = cfg.bounds.clamp_array(raw)
                clamped = np.any(trial != raw)
            trial_p = PlateParams.from_array(trial)
            trial_model, trial_entries = delta_l_spectrum(coil, trial_p, freqs, jacobian=True)
            trial_misfit = objective(observed, trial_model)
            if trial_misfit < misfit:
                break
        else:
            message = "line search failed to reduce the misfit"
            break

        full_accept = k == 0 and not clamped
        rel_step = float(np.linalg.norm((trial - p_arr) / p_arr))
        prev_misfit, misfit = misfit, trial_misfit
        p, model, entries = trial_p, trial_model, trial_entries
        accepted += 1
        residual_history.append(misfit)
        rank_masks.append(mask)
        step_history.append(rel_step)
        param_history.append(p)

        if rel_step < cfg.step_tol:
            converged = True
            message = "accepted step below step tolerance"
            break
        # The residual test only counts when the full proposal was taken
        # cleanly; a deeply halved or clamped step can show a tiny
        # decrease while far from any optimum.
        if full_accept and prev_misfit - misfit <= cfg.residual_tol * prev_misfit:
            converged = True
            message = "misfit decrease below residual tolerance"
            break

    return InversionResult(
        params=p,
        converged=converged,
        iterations=accepted,
        residual_history=residual_history,
        rank_masks=rank_masks,
        step_history=step_history,
        param_history=param_history,
        message=message,
    )


def inversion_report(result: InversionResult, truth: PlateParams | None = None) -> dict:
    """Machine-readable summary in user units (MS/m, mm).

    With ``truth`` supplied, adds per-parameter relative errors in
    percent, |estimate - actual| / actual * 100.
    """
    rep = {
        "sigma_msm": result.params.sigma / 1e6,
        "mu_r": result.params.mu_r,
        "t_mm": result.params.t * 1e3,
        "liftoff_mm": result.params.l * 1e3,
        "iterations": result.iterations,
        "converged": result.converged,
        "residual": [float(r) for r in result.residual_history],
        "mask": [[int(b) for b in m] for m in result.rank_masks],
        "message": result.message,
    }
    if truth is not None:
        est = result.params.as_array()
        act = truth.as_array()
        err = np.abs(est - act) / np.abs(act) * 100.0
        rep["error_pct"] = {
            "sigma_msm": float(err[0]),
            "mu_r": float(err[1]),
            "t_mm": float(err[2]),
            "liftoff_mm": float(err[3]),
        }
    return rep
