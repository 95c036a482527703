"""File formats, noise synthesis, and the user units of the plate parameters.

Three small text formats, all locale-independent (C locale floats,
comma-separated, '#' comments in key=value files), plus the JSON fit
report:

* spectrum CSV        header ``freq_hz,re_dl_h,im_dl_h``
* impedance CSV       header ``freq_hz,re_z_ohm,im_z_ohm,re_zair_ohm,im_zair_ohm``
* key = value config  coil, plate/truth, and inversion settings
* fit report          ``inversion_report``, the JSON ``eddyspec invert`` writes

Users read and write the plate parameters in MS/m and mm; the rest of
the package works in SI.  One table here holds that decision: every
user key of a plate parameter (``sigma_msm``, ``init_t_mm``,
``liftoff_max_mm``, ...) and every conversion follows from it, through
``user_keys``, ``to_si`` and ``to_user``.  ``load_inversion_config``
returns the user keys a file sets; the command line builds the solver
settings from them.

Values are written with 17 significant digits so a save/load round trip
reproduces every double exactly.  Malformed input is rejected with the
offending row named, never coerced.  This module sits below the command
line and beside the solver: it imports nothing from ``inversion``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .forward import (
    PARAM_NAMES,
    CoilGeometry,
    InductanceSpectrum,
    PlateParams,
    impedance_to_inductance,
)

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
    "INVERSION_KEYS",
    "user_keys",
    "to_si",
    "to_user",
    "inversion_report",
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
        # numpy's generator refuses a float seed only when it is first drawn.
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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
    """Parse a CSV body, checking the header and field counts.

    Returns an iterator of (row, frequency, other fields) that checks, row
    by row as the caller consumes it, that the first field is a positive
    frequency above the previous row's.
    """
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
    return _checked_frequencies(rows)


def _checked_frequencies(rows):
    prev = 0.0
    for i, (freq_s, *rest) in rows:
        f = _parse_float(freq_s, "frequency", i)
        if f <= 0.0:
            raise SpectrumFormatError(f"frequency must be positive, got {f}", i)
        if f <= prev:
            raise SpectrumFormatError(
                f"frequencies must increase strictly ({f} after {prev})", i
            )
        prev = f
        yield i, f, rest


def load_spectrum(path) -> InductanceSpectrum:
    """Read a spectrum CSV, enforcing the header, numeric values, and
    strictly increasing positive frequencies."""
    freqs, values = [], []
    for i, f, (re_s, im_s) in _read_rows(path, _SPECTRUM_HEADER, 3):
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
    freqs, values = [], []
    for i, f, (re_z, im_z, re_za, im_za) in _read_rows(path_in, _IMPEDANCE_HEADER, 5):
        z = complex(_parse_float(re_z, "Re z", i), _parse_float(im_z, "Im z", i))
        za = complex(_parse_float(re_za, "Re z_air", i), _parse_float(im_za, "Im z_air", i))
        freqs.append(f)
        values.append(impedance_to_inductance(z, za, f))
    spectrum = InductanceSpectrum(
        freqs=np.array(freqs), values=np.array(values, dtype=complex)
    )
    save_spectrum(spectrum, path_out)
    return spectrum


def _read_kv(path, allowed, int_keys=()) -> dict[str, float | int]:
    """Numeric settings from key = value text: '#' starts a comment,
    unknown or duplicate keys are rejected, and ``int_keys`` parse as int,
    every other key as float."""
    text: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFormatError(f"line {i}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in text:
                raise ConfigFormatError(f"line {i}: duplicate key {key!r}")
            text[key] = value.strip()
    unknown = sorted(set(text) - set(allowed))
    if unknown:
        raise ConfigFormatError(f"unknown keys: {', '.join(unknown)}")
    out: dict[str, float | int] = {}
    for key, value in text.items():
        try:
            out[key] = int(value) if key in int_keys else float(value)
        except ValueError:
            raise ConfigFormatError(f"cannot parse {key!r} value {value!r}") from None
    return out


_COIL_KEYS = ("r1_mm", "r2_mm", "h_mm", "g_mm", "n_turns")


def load_coil_config(path) -> CoilGeometry:
    """Coil geometry from key = value text in mm; omitted keys keep the
    reference probe's values."""
    values = _read_kv(path, _COIL_KEYS, int_keys=("n_turns",))
    return CoilGeometry(**{
        key.removesuffix("_mm"): value * 1e-3 if key.endswith("_mm") else value
        for key, value in values.items()
    })


# The unit table: each plate parameter in PlateParams order, with the
# unit suffix of its user keys and its SI factor (SI = user * factor).
_UNITS = tuple(zip(PARAM_NAMES, ("_msm", "", "_mm", "_mm"), (1e6, 1.0, 1e-3, 1e-3)))


def user_keys(prefix: str = "", suffix: str = "") -> list[str]:
    """The user keys ``prefix + name + suffix + unit`` of the four plate
    parameters: ``user_keys()`` gives ``sigma_msm``, ``mu_r``, ``t_mm``,
    ``liftoff_mm``; ``user_keys("init_")`` the initial guess and
    ``user_keys(suffix="_max")`` the upper bounds."""
    return [f"{prefix}{name}{suffix}{unit}" for name, unit, _ in _UNITS]


def to_si(values, default=None, prefix: str = "", suffix: str = "") -> list[float]:
    """SI values of the four plate parameters from the user keys
    ``user_keys(prefix, suffix)`` of the mapping ``values``.

    A key that ``values`` omits takes its entry of the SI sequence
    ``default`` untouched, so defaults never pick up conversion roundoff;
    with no ``default``, all four keys are required.
    """
    return [
        values[key] * factor if default is None or key in values else float(default[i])
        for i, (key, (_, _, factor)) in enumerate(zip(user_keys(prefix, suffix), _UNITS))
    ]


def to_user(si, prefix: str = "", suffix: str = "") -> dict[str, float]:
    """The four SI plate values ``si`` (PlateParams order) as a mapping of
    their user keys ``user_keys(prefix, suffix)`` to user units."""
    return {
        key: float(x) / factor
        for key, x, (_, _, factor) in zip(user_keys(prefix, suffix), si, _UNITS)
    }


def load_plate_config(path) -> PlateParams:
    """Plate parameters from key = value text (MS/m and mm); all four required."""
    values = _read_kv(path, user_keys())
    missing = [key for key in user_keys() if key not in values]
    if missing:
        raise ConfigFormatError(f"missing required key {missing[0]!r}")
    return PlateParams(*to_si(values))


def save_plate_config(plate: PlateParams, path, header: str | None = None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(f"# {header}\n")
        for key, value in to_user(plate.as_array()).items():
            fh.write(f"{key} = {value:.17g}\n")


# Every key of an inversion config file, all optional: the initial guess
# and the bounds box in user units, and the iteration cap.
INVERSION_KEYS = (
    *user_keys("init_"),
    "max_iter",
    *user_keys(suffix="_min"),
    *user_keys(suffix="_max"),
)


def load_inversion_config(path) -> dict[str, float | int]:
    """The inversion settings a key = value file sets, as a plain mapping
    of its INVERSION_KEYS to their values in user units (``max_iter`` is
    an int).  Keys the file omits are absent."""
    return _read_kv(path, INVERSION_KEYS, int_keys=("max_iter",))


def inversion_report(result, truth: PlateParams | None = None) -> dict:
    """Machine-readable summary of an ``InversionResult`` in user units,
    the JSON ``eddyspec invert`` writes.

    With ``truth`` supplied, adds per-parameter relative errors in
    percent, |estimate - actual| / actual * 100, under the same keys.
    A truth with sigma or t of 0 leaves them undefined: ValueError.
    """
    rep = {
        **to_user(result.params.as_array()),
        "iterations": result.iterations,
        "converged": result.converged,
        "residual": [float(r) for r in result.residual_history],
        "mask": [[int(b) for b in m] for m in result.rank_masks],
        "message": result.message,
    }
    if truth is not None:
        act = truth.as_array()
        for key, value in zip(user_keys(), act):
            if value == 0.0:
                raise ValueError(f"truth {key} is 0, so the relative error against it "
                                 "is undefined; choose a nonzero truth value")
        err = np.abs(result.params.as_array() - act) / np.abs(act) * 100.0
        rep["error_pct"] = dict(zip(user_keys(), err.tolist()))
    return rep
