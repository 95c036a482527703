"""The three benchmark workloads.

Each workload is a closed loop of one kind of operation: the caller
starts operation i + 1 only after operation i has returned.  Operation i's
input depends only on (seed, i), so a run of any length draws a prefix of
the same sequence.  Input generation and every correctness check run
outside the timed call.

An operation fails when it raised or broke a contract that holds for
all data (bounds box, strictly decreasing misfit, exit codes, report
files, traced = untraced); either also marks the whole run incorrect (a
``hard`` entry), as does a verdict the benchmark could not establish.
An operation that returned within its contract but missed a quality
check is a miss, not a failure: a spectrum off the reference tolerance,
a fit that did not converge, a clean fit outside criterion 1.  Misses are
known findings of the package (README.md); they are counted, printed and
reported as ``check.fail_frac``, so a change that adds or removes some
shows, while the count of failed operations stays a property of the
contracts and not of where a timed run happened to stop.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import reference
from tracer import SETUP_OP

# Spectra must match the independent reference to this share of their
# peak |dL|; the reference's own two rule orders must agree 1000x closer.
SPECTRUM_TOL = 1e-9
REFERENCE_TOL = 1e-12
FIT_CLEAN_ERR_PCT = 0.5  # acceptance criterion 1, worst parameter

DEFAULT_BAND = np.geomspace(100.0, 1e5, 30)  # the package's default band
SWEEP_BAND = np.geomspace(10.0, 1e6, 60)

# The bundled dual-phase steel grades (sigma S/m, mu_r, t m) at 5 mm.
GRADES = {
    "DP600": (4.13e6, 222.0, 1.40e-3),
    "DP800": (3.81e6, 144.0, 1.70e-3),
    "DP1000": (3.80e6, 122.0, 1.23e-3),
}
NOISE_LEVELS = (0.01, 0.05, 0.10)
GRADE_LIFTOFF = 0.005

# Log-uniform draw boxes, (sigma, mu_r, t, l) in SI.
DUAL_PHASE_BOX = ((2e6, 50.0, 0.8e-3, 2e-3), (8e6, 400.0, 3e-3, 50e-3))
SWEEP_BOX = ((1e4, 1.0, 1e-5, 1e-4), (1e8, 1e4, 0.05, 0.05))  # ParamBounds, l <= 50 mm
# Winding geometries (r1, r2, h, g in m) of the probe-design sweep: the
# reference probe, a pencil probe, and two in between.
PROBE_WINDINGS = (
    (0.075, 0.0875, 0.010, 0.035),
    (0.020, 0.025, 0.005, 0.010),
    (0.040, 0.048, 0.008, 0.020),
    (0.060, 0.075, 0.015, 0.030),
)
SPECTRA_PER_COIL = 40
SWEEP_CHECK_SHARE = 0.1


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *stream])


def _log_uniform(rng, box) -> np.ndarray:
    lo, hi = (np.log(np.asarray(b)) for b in box)
    return np.exp(rng.uniform(lo, hi))


def spectrum_miss(coil, plate, freqs, values, result: dict) -> bool:
    """Compare a package spectrum to the reference; True if it misses.

    Records the worst relative error seen in ``result`` and raises the
    hard flag when the reference itself has not converged or the values
    are not finite.
    """
    ref, spread = reference.spectrum(coil, plate, freqs)
    peak = float(np.max(np.abs(ref)))
    values = np.asarray(values)
    if spread > REFERENCE_TOL * peak:
        result["hard"].append(f"reference not converged ({spread / peak:.1e})")
    if values.shape != ref.shape or not np.all(np.isfinite(values)):
        result["hard"].append("spectrum has the wrong shape or non-finite values")
        return True
    err = float(np.max(np.abs(values - ref))) / peak
    result["worst_spectrum_err"] = max(result.get("worst_spectrum_err", 0.0), err)
    result["spectra_checked"] = result.get("spectra_checked", 0) + 1
    if err > SPECTRUM_TOL:
        result["spectra_missed"] = result.get("spectra_missed", 0) + 1
        return True
    return False


def _in_bounds(values, lower, upper, rel=0.0) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(v)) and np.all(v >= lower * (1 - rel))
                and np.all(v <= upper * (1 + rel)))


def _strictly_decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


class Workload:
    """Base: ``make`` an input, ``call`` it (timed), ``check`` the output
    (True when it missed a quality check; contract breaks go to ``hard``)."""

    fits = False

    def __init__(self, es, seed: int, workdir: Path):
        self.es = es
        self.seed = seed
        self.workdir = workdir
        self.phase = "a"

    def prepare(self, result: dict):
        """Untimed one-off work before the first operation."""

    def check_prepared(self, result: dict):
        """Check what ``prepare`` computed; runs with the other checks."""

    def warm(self):
        """Build what the first operation would otherwise build (untimed)."""
        plate = self.es.PlateParams(*GRADES["DP600"], GRADE_LIFTOFF)
        self.es.delta_l_spectrum(self.es.CoilGeometry(), plate, [1e3])

    def identity(self, out):
        """What must be bit-identical between a traced and an untraced call."""
        raise NotImplementedError

    def fit_stats(self, out):
        """(iterations, converged) of a fit operation."""
        raise NotImplementedError


class FitClean(Workload):
    """Library ``invert`` on noiseless spectra of seeded dual-phase plates."""

    fits = True

    def prepare(self, result):
        self.coil = self.es.CoilGeometry()
        self.bounds = self.es.ParamBounds()

    def make(self, i):
        truth = _log_uniform(_rng(self.seed, 1, i), DUAL_PHASE_BOX)
        plate = self.es.PlateParams.from_array(truth)
        observed = self.es.delta_l_spectrum(self.coil, plate, DEFAULT_BAND)
        return truth, plate, observed

    def call(self, i, inp):
        return self.es.invert(self.coil, inp[2])

    def check(self, i, inp, out, result) -> bool:
        truth, plate, observed = inp
        miss = spectrum_miss(self.coil, plate, DEFAULT_BAND, observed.values, result)
        est = out.params.as_array()
        if not all(_in_bounds(p.as_array(), self.bounds.lower(), self.bounds.upper())
                   for p in out.param_history + [out.params]):
            result["hard"].append(f"fit {i}: iterate outside the bounds box")
        if not _strictly_decreasing(out.residual_history):
            result["hard"].append(f"fit {i}: misfit not strictly decreasing")
        err = float(np.max(np.abs(est - truth) / truth)) * 100.0
        result["worst_fit_err_pct"] = max(result.get("worst_fit_err_pct", 0.0), err)
        missed = miss or not out.converged or not err < FIT_CLEAN_ERR_PCT
        if missed:
            result.setdefault("fit_misses", []).append(
                f"fit {i}: converged={out.converged}, worst error {err:.3g}%, "
                f"observation misses reference: {miss}")
        return missed

    def identity(self, out):
        return (out.params.as_array().tobytes(), out.iterations, out.converged,
                tuple(out.residual_history), out.message)

    def fit_stats(self, out):
        return out.iterations, out.converged


class FitNoisy(Workload):
    """``eddyspec invert`` (``cli.main`` in-process) on a batch of noisy CSVs."""

    fits = True

    def prepare(self, result):
        es = self.es
        coil = es.CoilGeometry()
        self.bounds = es.ParamBounds()
        self.truth, self.clean, self.init = {}, {}, {}
        for name, (sigma, mu_r, t) in GRADES.items():
            plate = es.PlateParams(sigma, mu_r, t, GRADE_LIFTOFF)
            clean = es.delta_l_spectrum(coil, plate, DEFAULT_BAND)
            base = es.invert(coil, clean)
            if not base.converged:
                result["hard"].append(f"{name}: noiseless estimate did not converge")
            self.truth[name] = plate.as_array()
            self.clean[name] = clean.values
            self.init[name] = base.params
        self.workdir.mkdir(parents=True, exist_ok=True)

    def check_prepared(self, result):
        coil = self.es.CoilGeometry()
        for name, truth in self.truth.items():
            plate = self.es.PlateParams.from_array(truth)
            if spectrum_miss(coil, plate, DEFAULT_BAND, self.clean[name], result):
                result["hard"].append(f"{name}: clean spectrum misses the reference")

    def make(self, i):
        # Cycle grade-major through all nine (grade, noise) pairs so every
        # run holds the same mix; the noise draw itself is seeded per file.
        name = list(GRADES)[i % 3]
        noise = NOISE_LEVELS[(i // 3) % 3]
        u = _rng(self.seed, 2, i).uniform(-1.0, 1.0, size=2 * DEFAULT_BAND.size)
        clean = self.clean[name]
        m = clean.size
        re = clean.real * (1.0 + noise * u[:m])
        im = clean.imag * (1.0 + noise * u[m:])
        path = self.workdir / f"spectrum-{i}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("freq_hz,re_dl_h,im_dl_h\n")
            for f, a, b in zip(DEFAULT_BAND, re, im):
                fh.write(f"{f:.17g},{a:.17g},{b:.17g}\n")
        init = self.init[name]
        argv = ["invert", "--spectrum", str(path),
                "--init-sigma-msm", repr(init.sigma / 1e6), "--init-mu-r", repr(init.mu_r),
                "--init-t-mm", repr(init.t * 1e3), "--init-liftoff-mm", repr(init.l * 1e3)]
        return name, noise, argv

    def call(self, i, inp):
        out = self.workdir / f"report-{i}-{self.phase}.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = self.es.cli.main(inp[2] + ["--out", str(out)])
            except SystemExit as stop:  # a usage error exits through argparse
                rc = stop.code
        return rc, stdout.getvalue(), out

    def check(self, i, inp, out, result) -> bool:
        name, noise, _ = inp
        rc, text, path = out
        if rc not in (0, 2):
            result["hard"].append(f"file {i}: exit code {rc}")
            return True
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
        with open(str(path) + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if text != written:
            result["hard"].append(f"file {i}: printed report differs from the file")
        report = json.loads(written)
        if manifest.get("subcommand") != "invert":
            result["hard"].append(f"file {i}: manifest does not record the invert run")
        est = np.array([report["sigma_msm"] * 1e6, report["mu_r"],
                        report["t_mm"] * 1e-3, report["liftoff_mm"] * 1e-3])
        # The report is in MS/m and mm; allow the unit round trip its ulp.
        if not _in_bounds(est, self.bounds.lower(), self.bounds.upper(), rel=1e-12):
            result["hard"].append(f"file {i}: estimate outside the bounds box")
        if not _strictly_decreasing(report["residual"]):
            result["hard"].append(f"file {i}: misfit not strictly decreasing")
        if report["converged"] != (rc == 0):
            result["hard"].append(f"file {i}: exit code disagrees with the report")
        truth = self.truth[name]
        level = result.setdefault("noise", {}).setdefault(f"{noise:.2f}", {"errs": [], "not_converged": 0})
        level["errs"].append((np.abs(est - truth) / truth * 100.0).tolist())
        if rc == 2:
            level["not_converged"] += 1
            result.setdefault("messages", {}).setdefault(report["message"], 0)
            result["messages"][report["message"]] += 1
        return rc == 2

    def identity(self, out):
        return out[0], out[1]

    def fit_stats(self, out):
        report = json.loads(out[1])
        return report["iterations"], report["converged"]


class ForwardSweep(Workload):
    """``delta_l_spectrum`` alone: a probe-design sweep over coils and plates."""

    def prepare(self, result):
        self.coils = {}
        clear_grid_cache(self.es)  # every block's first spectrum builds its grid

    def warm(self):
        pass  # each coil's first spectrum builds its grid inside the loop

    def coil(self, j):
        """Block j's coil: winding geometry j mod 4 with 10 + j // 4 turns, so
        every block is a coil the package has not seen (one cold grid
        build) while the cost of that build repeats from run to run."""
        if j not in self.coils:
            r1, r2, h, g = PROBE_WINDINGS[j % len(PROBE_WINDINGS)]
            self.coils[j] = self.es.CoilGeometry(
                r1=r1, r2=r2, h=h, g=g, n_turns=10 + j // len(PROBE_WINDINGS))
        return self.coils[j]

    def make(self, i):
        """Each coil's first spectrum is of the DP600 plate, as a design
        check, so its cold grid build is timed with the same spectrum every
        time; the coil's other spectra are of seeded plates."""
        coil = self.coil(i // SPECTRA_PER_COIL)
        if i % SPECTRA_PER_COIL == 0:
            return coil, self.es.PlateParams(*GRADES["DP600"], GRADE_LIFTOFF)
        plate = self.es.PlateParams.from_array(_log_uniform(_rng(self.seed, 4, i), SWEEP_BOX))
        return coil, plate

    def call(self, i, inp):
        return self.es.delta_l_spectrum(inp[0], inp[1], SWEEP_BAND)

    def check(self, i, inp, out, result) -> bool:
        if not np.array_equal(out.freqs, SWEEP_BAND):
            result["hard"].append(f"spectrum {i}: frequencies changed")
        if _rng(self.seed, 5, i).random() >= SWEEP_CHECK_SHARE:
            if not np.all(np.isfinite(out.values)):
                result["hard"].append(f"spectrum {i}: non-finite values")
            return False
        return spectrum_miss(inp[0], inp[1], SWEEP_BAND, out.values, result)

    def identity(self, out):
        return out.values.tobytes()


WORKLOADS = {"fit_clean": FitClean, "fit_noisy": FitNoisy, "forward_sweep": ForwardSweep}


def timed(wl, i, inp, result):
    """One timed operation: (output, seconds).  An operation that raises is
    recorded as hard and its output is None."""
    t0 = time.perf_counter()
    try:
        out = wl.call(i, inp)
    except Exception:  # the package promises not to raise; record and go on
        out = None
        result["hard"].append(f"operation {i} raised:\n{traceback.format_exc()}")
    return out, time.perf_counter() - t0


def run_ops(wl, result, seconds, cal):
    """Closed loop of timed operations until their time adds up to ``seconds``.

    Calibration units (``cal``, untimed) run before the first operation and
    after each one.  Returns (inputs, outputs, seconds per operation, the
    same scaled to the reference machine by the units either side of it).
    """
    inputs, outs, times, scaled = [], [], [], []
    busy = 0.0
    before = cal.run(calibrate.MIN_UNITS)
    while busy < seconds:
        inputs.append(wl.make(len(inputs)))
        out, dt = timed(wl, len(outs), inputs[-1], result)
        after = cal.after(dt)
        outs.append(out)
        times.append(dt)
        scaled.append(dt * cal.scale(before + after))
        busy += dt
        before = after
    return inputs, outs, times, scaled


def grid_misses(es) -> int:
    info = getattr(es.forward.coil_grid, "cache_info", None)
    return info().misses if info else 0


def clear_grid_cache(es):
    clear = getattr(es.forward.coil_grid, "cache_clear", None)
    if clear is not None:
        clear()


def run_paired(wl, result, tracer, seconds=None, count=None):
    """Each operation untraced, then the same operation traced.

    Runs until the untraced calls add up to ``seconds`` (or for ``count``
    operations).  Pairing the two calls keeps the drift of a shared
    machine out of the tracing overhead.  An operation whose untraced call
    built a coil grid gets a cleared grid cache, so that its traced call
    pays the same cold build.  Returns (inputs, untraced outputs, traced
    outputs, untraced seconds, traced seconds, grid builds while traced).
    """
    es = wl.es
    clear_grid_cache(es)
    builds = grid_misses(es)
    with tracer:
        wl.warm()  # the fit workloads' one cold build, traced outside any op
    builds = grid_misses(es) - builds
    inputs, plain, traced, t_plain, t_traced = [], [], [], [], []
    i = 0
    while (sum(t_plain) < seconds) if count is None else (i < count):
        inputs.append(wl.make(i))
        wl.phase = "a"
        misses = grid_misses(es)
        out, dt = timed(wl, i, inputs[i], result)
        plain.append(out)
        t_plain.append(dt)
        if grid_misses(es) > misses:
            clear_grid_cache(es)
        wl.phase = "b"
        misses = grid_misses(es)
        tracer.op = i
        with tracer:
            out, dt = timed(wl, i, inputs[i], result)
        tracer.op = SETUP_OP
        builds += grid_misses(es) - misses
        traced.append(out)
        t_traced.append(dt)
        i += 1
    return inputs, plain, traced, t_plain, t_traced, builds


def check_all(wl, inputs, outputs, result) -> tuple[int, int]:
    """Run every check; returns (failed operations, missed operations)."""
    wl.check_prepared(result)
    failed = missed = 0
    for i, (inp, out) in enumerate(zip(inputs, outputs)):
        if out is None:
            failed += 1
            continue
        hard = len(result["hard"])
        if wl.check(i, inp, out, result):
            missed += 1
        if len(result["hard"]) > hard:
            failed += 1
    return failed, missed
