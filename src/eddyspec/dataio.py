"""File formats, noise synthesis, and unit conversion at the boundary.

Three small text formats, all locale-independent (C locale floats,
comma-separated, '#' comments in key=value files):

* spectrum CSV        header ``freq_hz,re_dl_h,im_dl_h``
* impedance CSV       header ``freq_hz,re_z_ohm,im_z_ohm,re_zair_ohm,im_zair_ohm``
* key = value config  coil, plate/truth, and inversion settings

Values are written with 17 significant digits so a save/load round trip
reproduces every double exactly.  Malformed input is rejected with the
offending row named, never coerced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import CoilGeometry, InductanceSpectrum, PlateParams, impedance_to_inductance
from .inversion import InversionConfig, ParamBounds

__all__ = [
    "NoiseModel",
    "SpectrumFormatError",
    "ConfigFormatError",
    "add_noise",
    "save_spectrum",
    "load_spectrum",
    "convert_impedance_file",
    "load_coil_config",
    "load_plate_config",
    "save_plate_config",
    "load_inversion_config",
]

_SPECTRUM_HEADER = "freq_hz,re_dl_h,im_dl_h"
_IMPEDANCE_HEADER = "freq_hz,re_z_ohm,im_z_ohm,re_zair_ohm,im_zair_ohm"


class SpectrumFormatError(ValueError):
    """Malformed spectrum or impedance file; the message names the row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class ConfigFormatError(ValueError):
    """Malformed key = value configuration file."""


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative uniform noise: value * (1 + amplitude * u), u ~ U[-1, 1].

    Real and imaginary parts at every frequency draw independently, so a
    spectrum of m points consumes 2m variates from the seeded generator.
    """

    amplitude: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must lie in [0, 1), got {self.amplitude}")


def add_noise(clean: InductanceSpectrum, model: NoiseModel) -> InductanceSpectrum:
    """Apply the noise model; frequencies pass through untouched."""
    m = len(clean)
    rng = np.random.default_rng(model.seed)
    u = rng.uniform(-1.0, 1.0, size=2 * m)
    re = clean.values.real * (1.0 + model.amplitude * u[:m])
    im = clean.values.imag * (1.0 + model.amplitude * u[m:])
    return InductanceSpectrum(freqs=clean.freqs, values=re + 1j * im)


def save_spectrum(spectrum: InductanceSpectrum, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_SPECTRUM_HEADER + "\n")
        for f, v in zip(spectrum.freqs, spectrum.values):
            fh.write(f"{f:.17g},{v.real:.17g},{v.imag:.17g}\n")


def _parse_float(text: str, what: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SpectrumFormatError(f"cannot parse {what} from {text!r}", row) from None
    if not math.isfinite(value):
        raise SpectrumFormatError(f"{what} is not finite ({text!r})", row)
    return value


def _read_rows(path, header: str, n_fields: int):
    """Parse a CSV body, checking the header and field counts; yields row tuples."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != header:
        raise SpectrumFormatError(
            f"expected header {header!r}, got {(lines[0].strip() if lines else '')!r}",
            row=1,
        )
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise SpectrumFormatError(
                f"expected {n_fields} comma-separated fields, got {len(parts)}", i
            )
        rows.append((i, [p.strip() for p in parts]))
    return rows


def load_spectrum(path) -> InductanceSpectrum:
    """Read a spectrum CSV, enforcing the header, numeric values, and
    strictly increasing positive frequencies."""
    rows = _read_rows(path, _SPECTRUM_HEADER, 3)
    freqs, values = [], []
    prev = 0.0
    for i, (freq_s, re_s, im_s) in rows:
        f = _parse_float(freq_s, "frequency", i)
        if f <= 0.0:
            raise SpectrumFormatError(f"frequency must be positive, got {f}", i)
        if f <= prev:
            raise SpectrumFormatError(
                f"frequencies must increase strictly ({f} after {prev})", i
            )
        prev = f
        re = _parse_float(re_s, "real part", i)
        im = _parse_float(im_s, "imaginary part", i)
        freqs.append(f)
        values.append(re + 1j * im)
    return InductanceSpectrum(
        freqs=np.array(freqs), values=np.array(values, dtype=complex)
    )


def convert_impedance_file(path_in, path_out):
    """Turn a measured impedance CSV into a spectrum CSV.

    Each row converts via dL = (z - z_air) / (j 2 pi f).  An empty data
    section yields a header-only output file.
    """
    rows = _read_rows(path_in, _IMPEDANCE_HEADER, 5)
    freqs, values = [], []
    prev = 0.0
    for i, (freq_s, re_z, im_z, re_za, im_za) in rows:
        f = _parse_float(freq_s, "frequency", i)
        if f <= 0.0:
            raise SpectrumFormatError(f"frequency must be positive, got {f}", i)
        if f <= prev:
            raise SpectrumFormatError(
                f"frequencies must increase strictly ({f} after {prev})", i
            )
        prev = f
        z = complex(_parse_float(re_z, "Re z", i), _parse_float(im_z, "Im z", i))
        za = complex(_parse_float(re_za, "Re z_air", i), _parse_float(im_za, "Im z_air", i))
        freqs.append(f)
        values.append(impedance_to_inductance(z, za, f))
    spectrum = InductanceSpectrum(
        freqs=np.array(freqs), values=np.array(values, dtype=complex)
    )
    save_spectrum(spectrum, path_out)
    return spectrum


def _read_kv(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFormatError(f"line {i}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in out:
                raise ConfigFormatError(f"line {i}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def _kv_float(kv: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in kv:
        if default is None:
            raise ConfigFormatError(f"missing required key {key!r}")
        return default
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigFormatError(f"cannot parse {key!r} value {kv[key]!r}") from None


def _reject_unknown(kv: dict[str, str], allowed):
    unknown = sorted(set(kv) - set(allowed))
    if unknown:
        raise ConfigFormatError(f"unknown keys: {', '.join(unknown)}")


def _kv_unit(kv: dict[str, str], key: str, default: float, factor: float) -> float:
    """Value of ``key`` scaled into SI by ``factor``; an omitted key returns
    ``default`` untouched, so defaults never pick up conversion roundoff."""
    if key not in kv:
        return default
    return _kv_float(kv, key) * factor


_COIL_KEYS = ("r1_mm", "r2_mm", "h_mm", "g_mm", "n_turns")


def load_coil_config(path) -> CoilGeometry:
    """Coil geometry from key = value text in mm; omitted keys keep the
    reference probe's values."""
    kv = _read_kv(path)
    _reject_unknown(kv, _COIL_KEYS)
    ref = CoilGeometry()
    n_turns = kv.get("n_turns", str(ref.n_turns))
    try:
        n = int(n_turns)
    except ValueError:
        raise ConfigFormatError(f"cannot parse 'n_turns' value {n_turns!r}") from None
    return CoilGeometry(
        r1=_kv_unit(kv, "r1_mm", ref.r1, 1e-3),
        r2=_kv_unit(kv, "r2_mm", ref.r2, 1e-3),
        h=_kv_unit(kv, "h_mm", ref.h, 1e-3),
        g=_kv_unit(kv, "g_mm", ref.g, 1e-3),
        n_turns=n,
    )


_PLATE_KEYS = ("sigma_msm", "mu_r", "t_mm", "liftoff_mm")


def load_plate_config(path) -> PlateParams:
    """Plate parameters from key = value text (MS/m and mm); all four required."""
    kv = _read_kv(path)
    _reject_unknown(kv, _PLATE_KEYS)
    return PlateParams(
        sigma=_kv_float(kv, "sigma_msm") * 1e6,
        mu_r=_kv_float(kv, "mu_r"),
        t=_kv_float(kv, "t_mm") * 1e-3,
        l=_kv_float(kv, "liftoff_mm") * 1e-3,
    )


def save_plate_config(plate: PlateParams, path, header: str | None = None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write(f"sigma_msm = {plate.sigma / 1e6:.17g}\n")
        fh.write(f"mu_r = {plate.mu_r:.17g}\n")
        fh.write(f"t_mm = {plate.t * 1e3:.17g}\n")
        fh.write(f"liftoff_mm = {plate.l * 1e3:.17g}\n")


_INVERSION_KEYS = (
    "init_sigma_msm",
    "init_mu_r",
    "init_t_mm",
    "init_liftoff_mm",
    "max_iter",
    "step_tol",
    "residual_tol",
    "rank_tau",
    "damping",
    "sigma_min_msm",
    "sigma_max_msm",
    "mu_r_min",
    "mu_r_max",
    "t_min_mm",
    "t_max_mm",
    "liftoff_min_mm",
    "liftoff_max_mm",
)


def load_inversion_config(path) -> InversionConfig:
    """Solver settings from key = value text in user units; every key optional."""
    kv = _read_kv(path)
    _reject_unknown(kv, _INVERSION_KEYS)
    base = InversionConfig()
    bounds = ParamBounds(
        sigma=(
            _kv_unit(kv, "sigma_min_msm", base.bounds.sigma[0], 1e6),
            _kv_unit(kv, "sigma_max_msm", base.bounds.sigma[1], 1e6),
        ),
        mu_r=(
            _kv_float(kv, "mu_r_min", base.bounds.mu_r[0]),
            _kv_float(kv, "mu_r_max", base.bounds.mu_r[1]),
        ),
        t=(
            _kv_unit(kv, "t_min_mm", base.bounds.t[0], 1e-3),
            _kv_unit(kv, "t_max_mm", base.bounds.t[1], 1e-3),
        ),
        l=(
            _kv_unit(kv, "liftoff_min_mm", base.bounds.l[0], 1e-3),
            _kv_unit(kv, "liftoff_max_mm", base.bounds.l[1], 1e-3),
        ),
    )
    init = PlateParams(
        sigma=_kv_unit(kv, "init_sigma_msm", base.init.sigma, 1e6),
        mu_r=_kv_float(kv, "init_mu_r", base.init.mu_r),
        t=_kv_unit(kv, "init_t_mm", base.init.t, 1e-3),
        l=_kv_unit(kv, "init_liftoff_mm", base.init.l, 1e-3),
    )
    try:
        max_iter = int(kv.get("max_iter", base.max_iter))
    except ValueError:
        raise ConfigFormatError(
            f"cannot parse 'max_iter' value {kv['max_iter']!r}"
        ) from None
    try:
        damping = int(kv.get("damping", base.damping))
    except ValueError:
        raise ConfigFormatError(
            f"cannot parse 'damping' value {kv['damping']!r}"
        ) from None
    return InversionConfig(
        init=init,
        max_iter=max_iter,
        step_tol=_kv_float(kv, "step_tol", base.step_tol),
        residual_tol=_kv_float(kv, "residual_tol", base.residual_tol),
        rank_threshold=_kv_float(kv, "rank_tau", base.rank_threshold),
        damping=damping,
        bounds=bounds,
    )
