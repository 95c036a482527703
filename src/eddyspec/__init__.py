"""Multi-frequency eddy-current inductance spectroscopy of metallic plates.

Forward model: analytic impedance change of an air-cored gradiometer pair
above a conductive, optionally ferromagnetic, plate of finite thickness
(Dodd-Deeds style layered-halfspace kernel integrated over spatial
frequency).  Inverse model: damped Gauss-Newton on the stacked real and
imaginary inductance spectrum, with per-iteration dynamic masking of
parameters the data cannot resolve.

All internal quantities are strict SI (m, S/m, H, Hz).  Millimetres and
MS/m appear only in the file formats and on the command line, and the
conversion lives in ``dataio`` alone.

``delta_l_spectrum`` is the one public way to evaluate the model.  The
plate wavenumber, the cached coil weights and the coil integral and
quadrature grid behind them (``forward.alpha1``, ``forward.coil_grid``,
``specfun.p_integral``, ``specfun.build_grid``) are not re-exported here.
"""

from .forward import (
    MU0,
    PARAM_NAMES,
    CoilGeometry,
    InductanceSpectrum,
    PlateParams,
    default_frequencies,
    delta_l_spectrum,
    impedance_to_inductance,
)
from .sensitivity import difference_quotients
from .inversion import InversionConfig, ParamBounds, invert
from .dataio import (
    ConfigFormatError,
    NoiseModel,
    SpectrumFormatError,
    add_noise,
    convert_impedance_file,
    inversion_report,
    load_coil_config,
    load_inversion_config,
    load_plate_config,
    load_spectrum,
    save_plate_config,
    save_spectrum,
)
from . import samples

__version__ = "0.1.0"

__all__ = [
    "MU0",
    "CoilGeometry",
    "PlateParams",
    "InductanceSpectrum",
    "default_frequencies",
    "delta_l_spectrum",
    "impedance_to_inductance",
    "PARAM_NAMES",
    "difference_quotients",
    "InversionConfig",
    "ParamBounds",
    "inversion_report",
    "invert",
    "ConfigFormatError",
    "NoiseModel",
    "SpectrumFormatError",
    "add_noise",
    "convert_impedance_file",
    "load_coil_config",
    "load_inversion_config",
    "load_plate_config",
    "load_spectrum",
    "save_plate_config",
    "save_spectrum",
    "samples",
    "__version__",
]
