"""The package's public names and its module layering: every ``__all__``
entry must resolve, the package exports a fixed set of names, and each
module may import only the layers below it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import eddyspec

MODULES = ["eddyspec"] + [
    f"eddyspec.{info.name}" for info in pkgutil.iter_modules(eddyspec.__path__)
]

# Bottom to top: a module may import the modules before it, except that
# the file formats (dataio) do not depend on the solver (inversion), and
# the finite-difference curves (sensitivity) serve the command line alone.
LAYERS = ["specfun", "forward", "samples", "sensitivity", "inversion", "dataio", "cli"]
FORBIDDEN = {"inversion": {"sensitivity"}, "dataio": {"inversion", "sensitivity"}}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_exactly_these_names():
    # A new re-export has to change this set, so it shows up in review.
    assert set(eddyspec.__all__) == {
        "MU0", "PARAM_NAMES", "CoilGeometry", "PlateParams", "InductanceSpectrum",
        "default_frequencies", "delta_l_spectrum", "impedance_to_inductance",
        "difference_quotients", "InversionConfig", "ParamBounds", "invert",
        "inversion_report", "ConfigFormatError", "SpectrumFormatError", "NoiseModel",
        "add_noise", "convert_impedance_file", "load_coil_config", "load_inversion_config",
        "load_plate_config", "load_spectrum", "save_plate_config", "save_spectrum",
        "samples", "__version__",
    }
    assert len(eddyspec.__all__) == 26


def _package_imports(name):
    """Modules of the package that module ``name`` imports; the package
    itself (``from . import __version__``) counts as "eddyspec"."""
    tree = ast.parse(Path(eddyspec.__path__[0], f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in LAYERS else "eddyspec" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eddyspec"):
            found.add(node.module.partition(".")[2] or "eddyspec")
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] or "eddyspec" for a in node.names
                         if a.name.split(".")[0] == "eddyspec")
    return found


def test_module_layering():
    assert sorted(LAYERS) == sorted(m.split(".")[1] for m in MODULES[1:])
    for i, name in enumerate(LAYERS):
        allowed = set(LAYERS[:i]) - FORBIDDEN.get(name, set())
        if name == LAYERS[-1]:
            allowed.add("eddyspec")
        assert _package_imports(name) <= allowed, name
