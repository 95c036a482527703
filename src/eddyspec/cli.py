"""Command-line front end.

Five subcommands: ``forward`` (model a spectrum), ``sensitivity``
(perturbation curves), ``synth`` (noisy synthetic data plus a truth
sidecar), ``invert`` (recover plate parameters from a spectrum CSV), and
``report`` (the standard benchmark table).  Every run that writes an
artifact also writes ``<artifact>.manifest.json`` recording the resolved
configuration, so any output can be reproduced bit-for-bit by re-running
with the recorded values.

Exit codes: 0 success (and, for invert, convergence), 2 inversion did
not converge, 1 usage or file error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    INVERSION_KEYS,
    ConfigFormatError,
    NoiseModel,
    SpectrumFormatError,
    add_noise,
    inversion_report,
    load_coil_config,
    load_inversion_config,
    load_plate_config,
    load_spectrum,
    save_plate_config,
    save_spectrum,
    to_si,
    to_user,
    user_keys,
)
from .forward import (
    DEFAULT_FMAX_HZ,
    DEFAULT_FMIN_HZ,
    DEFAULT_N_FREQS,
    PARAM_NAMES,
    CoilGeometry,
    PlateParams,
    default_frequencies,
    delta_l_spectrum,
)
from .inversion import InversionConfig, ParamBounds, invert
from .samples import REPORT_CASES
from .sensitivity import DEFAULT_FRACTIONS, difference_quotients, write_sensitivity_csv

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures reported as exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse float list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _add_band_flags(p: argparse.ArgumentParser):
    p.add_argument("--fmin-hz", type=float, default=DEFAULT_FMIN_HZ,
                   help="lowest frequency in Hz (default %(default)s)")
    p.add_argument("--fmax-hz", type=float, default=DEFAULT_FMAX_HZ,
                   help="highest frequency in Hz (default %(default)s)")
    p.add_argument("--m", type=int, default=DEFAULT_N_FREQS,
                   help="number of log-spaced frequencies (default %(default)s)")
    p.add_argument("--freqs-hz", type=_float_list, default=None, metavar="F1,F2,...",
                   help="explicit frequency list in Hz, overrides the log band")


def _resolve_freqs(args) -> np.ndarray:
    if args.freqs_hz is not None:
        return np.asarray(args.freqs_hz, dtype=float)
    return default_frequencies(args.fmin_hz, args.fmax_hz, args.m)


def _load_coil(path: str | None) -> CoilGeometry:
    return load_coil_config(path) if path else CoilGeometry()


def _write_manifest(artifact: Path, subcommand: str, config: dict,
                    inputs: dict, outputs: list, seed=None, wall_ms=None):
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": config,
        "inputs": inputs,
        "outputs": [str(o) for o in outputs],
        "seed": seed,
        "wall_ms": wall_ms,
    }
    path = Path(str(artifact) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _band_config(args, freqs) -> dict:
    return {
        "fmin_hz": args.fmin_hz,
        "fmax_hz": args.fmax_hz,
        "m": args.m,
        "freqs_hz": [float(f) for f in freqs] if args.freqs_hz is not None else None,
    }


def cmd_forward(args) -> int:
    t0 = time.perf_counter()
    coil = _load_coil(args.coil)
    plate = load_plate_config(args.plate)
    freqs = _resolve_freqs(args)
    spectrum = delta_l_spectrum(coil, plate, freqs)
    out = Path(args.out)
    save_spectrum(spectrum, out)
    wall_ms = (time.perf_counter() - t0) * 1e3
    _write_manifest(out, "forward", _band_config(args, freqs),
                    {"coil": args.coil, "plate": args.plate}, [out], wall_ms=wall_ms)
    print(f"wrote {len(spectrum)}-point spectrum to {out}")
    return 0


def cmd_sensitivity(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    coil = _load_coil(args.coil)
    plate = load_plate_config(args.plate)
    freqs = _resolve_freqs(args)
    fractions = args.fractions
    q = difference_quotients(coil, plate, freqs, fractions)
    m = len(freqs)
    rows = [
        (float(freq), name, float(frac), float(q[i, j, k]), float(q[i, m + j, k]))
        for k, name in enumerate(PARAM_NAMES)
        for i, frac in enumerate(fractions)
        for j, freq in enumerate(freqs)
    ]
    write_sensitivity_csv(out, rows)
    wall_ms = (time.perf_counter() - t0) * 1e3
    config = _band_config(args, freqs)
    config["fractions"] = list(fractions)
    _write_manifest(out, "sensitivity", config,
                    {"coil": args.coil, "plate": args.plate}, [out], wall_ms=wall_ms)
    print(f"wrote {len(rows)} sensitivity rows to {out}")
    return 0


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    coil = _load_coil(args.coil)
    truth = load_plate_config(args.truth)
    freqs = _resolve_freqs(args)
    clean = delta_l_spectrum(coil, truth, freqs)
    noisy = add_noise(clean, NoiseModel(amplitude=args.noise, seed=args.seed))
    out = Path(args.out)
    save_spectrum(noisy, out)
    sidecar = out.parent / (out.stem + ".truth.cfg")
    save_plate_config(truth, sidecar, header="truth parameters for scoring")
    wall_ms = (time.perf_counter() - t0) * 1e3
    config = _band_config(args, freqs)
    config["noise"] = args.noise
    _write_manifest(out, "synth", config, {"coil": args.coil, "truth": args.truth},
                    [out, sidecar], seed=args.seed, wall_ms=wall_ms)
    print(f"wrote {len(noisy)}-point synthetic spectrum to {out} (truth in {sidecar})")
    return 0


def _inversion_config(user: dict) -> InversionConfig:
    """Solver settings from a mapping of INVERSION_KEYS in user units;
    an omitted key keeps its default."""
    base = InversionConfig()
    lower = to_si(user, base.bounds.lower(), suffix="_min")
    upper = to_si(user, base.bounds.upper(), suffix="_max")
    return InversionConfig(
        init=PlateParams(*to_si(user, base.init.as_array(), prefix="init_")),
        max_iter=user.get("max_iter", base.max_iter),
        bounds=ParamBounds(*zip(lower, upper)),
    )


def _config_dict(cfg: InversionConfig) -> dict:
    """The inverse of ``_inversion_config``: every INVERSION_KEYS value of
    ``cfg``, so the dict written as key = value lines is a config file."""
    return {
        **to_user(cfg.init.as_array(), prefix="init_"),
        **to_user(cfg.bounds.lower(), suffix="_min"),
        **to_user(cfg.bounds.upper(), suffix="_max"),
        "max_iter": cfg.max_iter,
    }


def cmd_invert(args) -> int:
    coil = _load_coil(args.coil)
    observed = load_spectrum(args.spectrum)
    truth = load_plate_config(args.truth) if args.truth else None
    # The flags' dests are config keys; a flag given overrides the file.
    user = load_inversion_config(args.config) if args.config else {}
    user.update((key, value) for key, value in vars(args).items()
                if key in INVERSION_KEYS and value is not None)
    cfg = _inversion_config(user)
    t0 = time.perf_counter()
    result = invert(coil, observed, cfg)
    wall_ms = (time.perf_counter() - t0) * 1e3
    report = inversion_report(result, truth)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(out, "invert", _config_dict(cfg),
                        {"coil": args.coil, "spectrum": args.spectrum, "truth": args.truth,
                         "config": args.config},
                        [out], wall_ms=wall_ms)
    sys.stdout.write(text)
    state = "converged" if result.converged else "did not converge"
    print(f"{state} after {result.iterations} iterations "
          f"({wall_ms / 1e3:.2f} s): {result.message}", file=sys.stderr)
    return 0 if result.converged else 2


_SEEDS_PER_NOISE_ROW = 20


def cmd_report(args) -> int:
    t0 = time.perf_counter()
    coil = _load_coil(args.coil)
    freqs = default_frequencies()
    cfg = InversionConfig()
    rows = []

    def add_row(label, truth, noise, seed, est, err, iterations, converged, wall_s):
        rows.append({
            "case": label,
            "noise_pct": noise * 100.0,
            "seed": seed,
            "act": to_user(truth.as_array()),
            "est": to_user(est.as_array()),
            "err": err,
            "iterations": iterations,
            "converged": converged,
            "wall_s": wall_s,
        })

    def run_single(label, truth, observed, noise, seed, config):
        t1 = time.perf_counter()
        result = invert(coil, observed, config)
        wall_s = time.perf_counter() - t1
        report = inversion_report(result, truth)
        add_row(label, truth, noise, seed, result.params, report["error_pct"],
                result.iterations, result.converged, wall_s)
        return result

    noiseless = [(label, truth, delta_l_spectrum(coil, truth, freqs))
                 for label, truth in REPORT_CASES]
    results = [run_single(label, truth, observed, 0.0, "", cfg)
               for label, truth, observed in noiseless]

    # Noise block on the first case (DP600 at 5 mm): its noiseless fit,
    # repeated as the block's 0% row, locks the identifiable optimum, then
    # each noisy realization is refit from that estimate.  A noise row is
    # the per-parameter median over _SEEDS_PER_NOISE_ROW seeds; a single
    # draw says little about an estimator whose error is itself random.
    label, truth, clean = noiseless[0]
    rows.append(dict(rows[0]))
    noisy_cfg = replace(cfg, init=results[0].params)
    for noise in (0.01, 0.05, 0.10):
        t1 = time.perf_counter()
        ests, errs, its = [], [], []
        all_converged = True
        for k in range(_SEEDS_PER_NOISE_ROW):
            observed = add_noise(clean, NoiseModel(amplitude=noise, seed=args.seed + k))
            result = invert(coil, observed, noisy_cfg)
            report = inversion_report(result, truth)
            ests.append(result.params.as_array())
            errs.append(list(report["error_pct"].values()))
            its.append(result.iterations)
            all_converged = all_converged and result.converged
        wall_s = time.perf_counter() - t1
        med_est = PlateParams.from_array(np.median(np.asarray(ests), axis=0))
        med_err = dict(zip(user_keys(), np.median(np.asarray(errs), axis=0)))
        seed_span = f"{args.seed}:{args.seed + _SEEDS_PER_NOISE_ROW - 1}"
        add_row(label, truth, noise, seed_span, med_est, med_err,
                int(round(float(np.median(its)))), all_converged, wall_s)

    header = (f"{'case':<8} {'lift_mm':>7} {'noise%':>6} | "
              f"{'sigma_MSm':>9} {'mu_r':>7} {'t_mm':>6} {'lift_mm':>7} | "
              f"{'e_sig%':>6} {'e_mu%':>6} {'e_t%':>6} {'e_l%':>6} | "
              f"{'iter':>4} {'conv':>4} {'sec':>5}")
    print(header)
    print("-" * len(header))
    for r in rows:
        sigma, mu_r, t, lift = r["est"].values()
        e_sigma, e_mu_r, e_t, e_lift = r["err"].values()
        print(f"{r['case']:<8} {r['act']['liftoff_mm']:>7.1f} {r['noise_pct']:>6.1f} | "
              f"{sigma:>9.4f} {mu_r:>7.2f} {t:>6.3f} {lift:>7.3f} | "
              f"{e_sigma:>6.2f} {e_mu_r:>6.2f} {e_t:>6.2f} {e_lift:>6.2f} | "
              f"{r['iterations']:>4d} {'y' if r['converged'] else 'n':>4} "
              f"{r['wall_s']:>5.2f}")
    print(f"noise rows: per-parameter medians over {_SEEDS_PER_NOISE_ROW} seeds, "
          "refit from the noiseless estimate; sec is the whole sweep")

    if args.out:
        out = Path(args.out)
        columns = ["case", "noise_pct", "seed",
                   *(f"act_{key}" for key in user_keys()),
                   *(f"est_{key}" for key in user_keys()),
                   *(f"err_{name}_pct" for name in PARAM_NAMES),
                   "iterations", "converged"]
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for r in rows:
                values = (*r["act"].values(), *r["est"].values(), *r["err"].values())
                fh.write(",".join([r["case"], f"{r['noise_pct']:g}", str(r["seed"]),
                                   *(f"{v:.17g}" for v in values),
                                   str(r["iterations"]), str(int(r["converged"]))]) + "\n")
        wall_ms = (time.perf_counter() - t0) * 1e3
        _write_manifest(out, "report",
                        {"seed": args.seed, "seeds_per_noise_row": _SEEDS_PER_NOISE_ROW},
                        {"coil": args.coil}, [out], seed=args.seed, wall_ms=wall_ms)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="eddyspec",
                     description="Eddy-current inductance spectroscopy of metal plates")
    parser.add_argument("--version", action="version", version=f"eddyspec {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("forward", help="model an inductance spectrum")
    p.add_argument("--coil", help="coil config file (reference probe if omitted)")
    p.add_argument("--plate", required=True, help="plate config file")
    p.add_argument("--out", required=True, help="output spectrum CSV")
    _add_band_flags(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("sensitivity", help="perturbation sensitivity curves")
    p.add_argument("--coil", help="coil config file")
    p.add_argument("--plate", required=True, help="reference plate config file")
    p.add_argument("--out", required=True, help="output sensitivity CSV")
    p.add_argument("--fractions", type=_float_list, default=list(DEFAULT_FRACTIONS),
                   metavar="F1,F2,...", help="perturbation fractions (default 0.01,0.05,0.1,0.5)")
    _add_band_flags(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("synth", help="synthesize a noisy spectrum with a truth sidecar")
    p.add_argument("--coil", help="coil config file")
    p.add_argument("--truth", required=True, help="truth plate config file")
    p.add_argument("--out", required=True, help="output spectrum CSV")
    p.add_argument("--noise", type=float, default=0.0,
                   help="noise amplitude as a fraction (default 0)")
    p.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
    _add_band_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("invert", help="recover plate parameters from a spectrum CSV")
    p.add_argument("--coil", help="coil config file")
    p.add_argument("--spectrum", required=True, help="observed spectrum CSV")
    p.add_argument("--truth", help="truth plate config for error scoring")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--config", help="inversion config file")
    p.add_argument("--init-sigma-msm", type=float, help="initial conductivity, MS/m")
    p.add_argument("--init-mu-r", type=float, help="initial relative permeability")
    p.add_argument("--init-t-mm", type=float, help="initial thickness, mm")
    p.add_argument("--init-liftoff-mm", type=float, help="initial lift-off, mm")
    p.add_argument("--max-iter", type=int, help="iteration cap")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("report", help="run the standard benchmark cases")
    p.add_argument("--coil", help="coil config file")
    p.add_argument("--out", help="write the case table as CSV")
    p.add_argument("--seed", type=int, default=0, help="seed for the noisy rows (default 0)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SpectrumFormatError, ConfigFormatError, ValueError) as err:
        print(f"eddyspec {args.subcommand}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
