#!/usr/bin/env python3
"""Self-tests of the benchmark's tracer and reference model.

    python3 bench/selftest.py

1. Traced and untraced calls give bit-identical fits, reports and spectra.
2. The per-caller forward counts sum to the delta_l_spectrum calls, and
   every call left exactly one span.
3. A wrapped name that is absent is reported as absent, not raised; the
   run then charges its spectra to the nearest wrapped caller.  This is
   the state after the Jacobian or the ridge search leaves ``invert``.
4. The reference model agrees with nested adaptive quadrature.

It also prints the DP1000 at 30 mm per-caller split of forward spectra
next to the one recorded in BASELINE.json.  Exit code 0 when every test
passes.
"""

import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

from run import BENCH, import_package

import numpy as np
from scipy import integrate, special

import reference
import tracer as tracing
import workloads

es = import_package()
import eddyspec.cli  # noqa: E402,F401

FAILURES = []


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def replay(wl, n, wrapped=tracing.WRAPPED):
    """Run n operations, each untraced and then traced."""
    result = {"hard": []}
    wl.prepare(result)
    tr = tracing.Tracer(wrapped=wrapped)
    _, plain, traced, t_plain, t_traced, builds = workloads.run_paired(wl, result, tr, count=n)
    same = all(wl.identity(a) == wl.identity(b) for a, b in zip(plain, traced))
    stats = [wl.fit_stats(o) for o in plain] if wl.fits else []
    metrics, callers, problems = tracing.layer_metrics(tr, t_plain, t_traced, stats, builds)
    return tr, same, metrics, callers, problems + result["hard"]


def test_tracer():
    with tempfile.TemporaryDirectory() as tmp:
        for name, n in (("fit_clean", 1), ("fit_noisy", 3), ("forward_sweep", 5)):
            wl = workloads.WORKLOADS[name](es, 7, Path(tmp) / name)
            tr, same, metrics, callers, problems = replay(wl, n)
            report(f"{name}: traced and untraced results bit-identical", same)
            spectra = int(round(metrics["forward.delta_l_spectrum.calls"] * n))
            total = sum(callers.values())
            report(f"{name}: callers sum to the spectra", not problems and
                   (total == spectra if wl.fits else total == 0),
                   f"{callers} vs {spectra} spectra; {problems}")
            report(f"{name}: nothing reported absent", not tr.absent, str(tr.absent))

        # The Jacobian and the ridge search gone from the wrap list, as if
        # removed from the package, plus a module that does not exist.
        gone = {("sensitivity", "jacobian"), ("inversion", "minimize_scalar")}
        wrapped = [w for w in tracing.WRAPPED if w not in gone] + [
            ("sensitivity", "jacobian_removed"), ("inversion", "minimize_scalar_removed"),
            ("no_such_module", "f")]
        wl = workloads.FitClean(es, 7, Path(tmp))
        try:
            tr, same, metrics, callers, problems = replay(wl, 1, wrapped)
        except Exception as err:  # the test is that nothing raises
            report("absent names are reported, not raised", False, repr(err))
            return
        absent = {"sensitivity.jacobian_removed", "inversion.minimize_scalar_removed",
                  "no_such_module.f"}
        report("absent names are reported, not raised", set(tr.absent) == absent and same,
               f"absent={tr.absent}")
        report("with them absent, every spectrum is charged to invert",
               not problems and callers["jacobian"] == callers["ridge"] == 0
               and callers["step"] == sum(callers.values()) > 0
               and metrics["sensitivity.jacobian.busy_s"] == 0.0,
               json.dumps(callers))


def test_dp1000_split():
    coil = es.CoilGeometry()
    observed = es.delta_l_spectrum(coil, es.PlateParams(3.80e6, 122.0, 1.23e-3, 0.030),
                                   workloads.DEFAULT_BAND)
    tr = tracing.Tracer()
    with tr:
        tr.op = 0
        result = es.invert(coil, observed)
        tr.op = tracing.SETUP_OP
    _, callers, problems = tracing.layer_metrics(
        tr, [1.0], [1.0], [(result.iterations, result.converged)], 0)
    with open(BENCH / "BASELINE.json", encoding="utf-8") as fh:
        recorded = json.load(fh)["dp1000_30mm_spectra_by_caller"]
    recorded = {k: recorded[k] for k in callers}
    print(f"INFO  DP1000 at 30 mm, spectra by caller: {json.dumps(callers)} "
          f"(total {sum(callers.values())}); BASELINE.json records {json.dumps(recorded)}"
          f" -> {'same' if callers == recorded else 'changed'}")
    report("DP1000 split is consistent", not problems, str(problems))


def adaptive_delta_l(coil, plate, freq):
    """dL by nested adaptive quadrature of the raw formulas."""
    mu0 = 4e-7 * math.pi
    k = math.pi * mu0 * coil.n_turns**2 / (coil.h**2 * (coil.r2 - coil.r1) ** 2)
    w = 2.0 * math.pi * freq

    def kernel(a):
        p, _ = integrate.quad(lambda x: x * special.j1(x), a * coil.r1, a * coil.r2,
                              epsabs=1e-15, epsrel=1e-13, limit=200)
        a1 = np.sqrt(complex(a * a, w * plate.sigma * plate.mu_r * mu0))
        u, v = plate.mu_r * a + a1, plate.mu_r * a - a1
        e = np.exp(-2.0 * a1 * plate.t)
        axial = math.exp(-a * (2.0 * plate.l + coil.h + coil.g)) * (math.exp(-2.0 * a * coil.h) + 1.0)
        return p * p / a**6 * axial * u * v * (1.0 - e) / (u * u - v * v * e)

    # Break points at the scale of the plate's own features near alpha = 0.
    kk = math.sqrt(w * plate.sigma * plate.mu_r * mu0)
    points = sorted({kk, kk / plate.mu_r, plate.t * kk * kk / (2 * plate.mu_r), 1.0 / coil.r2})
    points = [p for p in points if 0.0 < p < 50.0 / coil.r1]
    parts = (lambda a: kernel(a).real, lambda a: kernel(a).imag)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re, im = (integrate.quad(f, 0.0, 50.0 / coil.r1, points=points, epsabs=0.0,
                                 epsrel=1e-12, limit=1000)[0]
                  + integrate.quad(f, 50.0 / coil.r1, np.inf, epsabs=0.0,
                                   epsrel=1e-12, limit=400)[0] for f in parts)
    return k * complex(re, im)


def test_reference():
    cases = [
        (es.CoilGeometry(), es.PlateParams(4.13e6, 222.0, 1.40e-3, 0.005), (100.0, 1e5)),
        # thin, highly permeable plate at low frequency: the package misses here
        (es.CoilGeometry(), es.PlateParams(4.9e5, 2045.0, 3.3e-4, 0.003), (10.0, 100.0)),
        (es.CoilGeometry(r1=0.03, r2=0.036, h=0.006, g=0.012, n_turns=20),
         es.PlateParams(1e7, 1.0, 2e-2, 0.02), (10.0, 1e6)),
    ]
    worst = 0.0
    for coil, plate, freqs in cases:
        ref, _ = reference.spectrum(coil, plate, freqs)
        slow = np.array([adaptive_delta_l(coil, plate, f) for f in freqs])
        worst = max(worst, float(np.max(np.abs(ref - slow)) / np.max(np.abs(slow))))
    report("reference agrees with adaptive quadrature", worst < 1e-10,
           f"worst {worst:.1e} of peak |dL|")


if __name__ == "__main__":
    test_tracer()
    test_dp1000_split()
    test_reference()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    sys.exit(1 if FAILURES else 0)
