#!/usr/bin/env python3
"""Layered benchmark of eddyspec, measured from outside the package.

One workload per run, in a fresh single-threaded process (BLAS pinned to
one thread), against the package source in ``src/`` next to this
directory:

    python3 bench/run.py --workload fit_clean --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload fit_clean --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics, with every time scaled to
the reference machine by calibration units run next to it (calibrate.py).
``--trace 1`` calls every operation untraced and then traced, with every
layer boundary wrapped (see tracer.py), for half the time each; it checks
that both calls gave bit-identical results and prints the per-layer
metrics and the tracing overhead; the spans go to ``.bench_out/trace-<workload>.csv``.  Either
way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 bench/run.py --all --seed 1 --seconds 25

runs every workload both ways, each in its own process, and prints one
table.  See README.md in this directory for the metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
WORKLOADS = ("fit_clean", "fit_noisy", "forward_sweep")
SETUP_PROBES = 3  # fresh processes before, and again after, the operations
SETUP_UNITS = 60  # calibration units timed after each set-up
E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# Verdicts of a traced run's checks, reported next to the layer metrics.
CHECK_UNITS = {
    "check.fail_frac": "ratio",
    "check.worst_spectrum_err": "ratio",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def import_package():
    """Import eddyspec from this checkout's src/, and from nowhere else."""
    if not (SRC / "eddyspec" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'eddyspec'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import eddyspec

    if Path(eddyspec.__file__).resolve().parent != SRC / "eddyspec":
        raise SystemExit(f"eddyspec imported from {eddyspec.__file__}, not {SRC}")
    return eddyspec


def set_up():
    """Import eddyspec and compute the first spectrum (one frequency, default
    coil), which builds the first coil_grid: (package, seconds taken,
    seconds scaled to the reference machine by calibration units timed
    right after)."""
    t0 = time.perf_counter()
    es = import_package()
    es.delta_l_spectrum(es.CoilGeometry(), es.PlateParams(4.13e6, 222.0, 1.4e-3, 5e-3), [1e3])
    seconds = time.perf_counter() - t0
    import calibrate

    cal = calibrate.Calibrator()
    cal.run(SETUP_UNITS)
    return es, seconds, seconds * cal.scale()


def setup_samples() -> list:
    """Scaled set-up times of SETUP_PROBES fresh processes, one after the other."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, pct).

    Below eleven samples no such percentile exists and the maximum stands in.
    """
    xs = sorted(times)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def run_untraced(wl, args, result, setup_here):
    import calibrate
    import workloads

    # A process imports the package once, so the further set-up samples
    # come from fresh processes; they bracket the operations, so that a
    # slow minute of a shared machine does not land on all of them.
    setup = [setup_here] + setup_samples()
    wl.prepare(result)
    wl.warm()
    cal = calibrate.Calibrator()
    inputs, outs, times, scaled = workloads.run_ops(wl, result, args.seconds, cal)
    # The high-water mark of the package's own work, before the checks
    # run the reference model.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_samples()
    t0 = time.perf_counter()
    failed, missed = workloads.check_all(wl, inputs, outs, result)
    log(f"checks took {time.perf_counter() - t0:.1f} s")
    log(f"setup_s samples, scaled (this process first): {', '.join(f'{s:.4f}' for s in setup)}")
    parts = ", ".join(f"{m * 1e3:.4f}" for m in cal.medians())
    log(f"machine speed: calibration part medians {parts} ms over {len(cal.times)} units; "
        f"unscaled op_ms_p50 {statistics.median(times) * 1e3:.3f} ms, "
        f"op_ms_tail {tail(times)[0] * 1e3:.3f} ms")
    tail_s, pct = tail(scaled)
    slowest = max(range(len(times)), key=times.__getitem__)
    log(f"{len(times)} operations; tail is p{pct:.1f} ({len(times)} samples); "
        f"slowest is operation {slowest} at {times[slowest]:.3f} s")
    log(f"ops_per_s: {len(times) / sum(times):.6g} 1/s (printed, not bounded)")
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": statistics.median(scaled) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return len(times), failed, missed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def run_traced(wl, args, result):
    import tracer as tracing
    import workloads

    wl.prepare(result)
    tr = tracing.Tracer()
    if tr.absent:
        log(f"absent at this commit (their metrics read 0): {', '.join(tr.absent)}")
    inputs, plain, traced, times_plain, times_traced, builds = workloads.run_paired(
        wl, result, tr, seconds=args.seconds / 2)

    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                  if a is None or b is None or wl.identity(a) != wl.identity(b)]
    if mismatched:
        result["hard"].append(f"traced results differ from untraced at operations {mismatched[:10]}")
    failed, missed = workloads.check_all(wl, inputs, plain, result)
    fit_stats = [wl.fit_stats(o) for o in plain if o is not None] if wl.fits else []
    metrics, callers, problems = tracing.layer_metrics(
        tr, times_plain, times_traced, fit_stats, builds)
    result["hard"].extend(problems)
    metrics["check.fail_frac"] = (failed + missed) / len(inputs)
    metrics["check.worst_spectrum_err"] = result.get("worst_spectrum_err", 0.0)

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{args.workload}.csv"
    tr.write_csv(span_file)
    spans = {name: tr.calls[name] for name in tr.names}
    log(f"{len(inputs)} operations, each run untraced then traced; "
        f"{len(tr.spans)} spans -> {span_file}")
    log(f"spans by name: {json.dumps(spans)}")
    log(f"forward spectra per caller (total over fits): {json.dumps(callers)}")
    for label, times in (("untraced", times_plain), ("traced", times_traced)):
        log(f"{label:>8}: op_ms_p50 {statistics.median(times) * 1e3:.3f}  "
            f"mean {statistics.fmean(times) * 1e3:.3f}")
    units = {**tracing.LAYER_UNITS, **CHECK_UNITS}
    return len(inputs), failed, missed, {k: (v, units[k]) for k, v in metrics.items()}


def run_workload(args) -> int:
    es, _, setup_here = set_up()
    import eddyspec.cli  # noqa: F401  (fit_noisy calls the entry point in-process)
    import workloads

    result = {"hard": []}
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](es, args.seed, workdir)
    try:
        if args.trace:
            attempted, failed, missed, metrics = run_traced(wl, args, result)
        else:
            attempted, failed, missed, metrics = run_untraced(wl, args, result, setup_here)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for key in ("spectra_checked", "spectra_missed", "worst_spectrum_err", "worst_fit_err_pct"):
        if key in result:
            log(f"{key}: {result[key]}")
    for level, info in sorted(result.get("noise", {}).items()):
        worst = max(statistics.median(col) for col in zip(*info["errs"]))
        log(f"noise {float(level) * 100:.0f}%: {len(info['errs'])} fits, "
            f"{info['not_converged']} not converged, worst per-parameter median error {worst:.2f}%")
    if "messages" in result:
        log(f"non-converged fits by message: {json.dumps(result['messages'])}")
    for miss in result.get("fit_misses", []):
        log(f"missed: {miss}")
    for problem in result["hard"][:20]:
        log(f"INCORRECT: {problem}")
    log(f"correct={not result['hard']} attempted={attempted} failed={failed} "
        f"missed={missed} fail_frac={(failed + missed) / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not result["hard"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process."""
    rows = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                log(done.stderr)
                return done.returncode
            rows[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
            rows[workload, trace]["stderr"] = done.stderr
    for workload in WORKLOADS:
        plain, traced = rows[workload, 0], rows[workload, 1]
        print(f"\n== {workload}  (seed {args.seed}, {args.seconds} s)")
        for label, row in (("untraced", plain), ("traced", traced)):
            fail_frac = re.search(r" fail_frac=(\S+)", row["stderr"]).group(1)
            print(f"{label}: correct={row['correct']} attempted={row['attempted']} "
                  f"failed={row['failed']} fail_frac={fail_frac}")
        for name, m in plain["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        ops_per_s = re.search(r"^ops_per_s: (\S+)", plain["stderr"], re.M).group(1)
        print(f"  {'ops_per_s (not bounded)':<34} {float(ops_per_s):>14.6g} 1/s")
        op_s = traced["metrics"]["trace.op_s"]["value"]
        print(f"  tracing overhead: traced op mean {op_s * 1e3:.3f} ms, "
              f"{traced['metrics']['trace.overhead_pct']['value']:+.2f}% over the "
              "same operations untraced")
        for name, m in traced["metrics"].items():
            share = (f"  {100 * m['value'] / op_s:5.1f}% of op"
                     if m["unit"] == "s/op" and op_s else "")
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{share}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload both ways")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        print(repr(set_up()[2]))
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload is required (or --all)")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
