"""Bundled reference samples: three commercial dual-phase steel plates.

Property sets (DC conductivity, low-field relative permeability,
thickness) for the DP600 / DP800 / DP1000 grades used in the shipped
report cases and the test suite.
"""

from __future__ import annotations

from .forward import PlateParams

__all__ = [
    "dp600",
    "dp800",
    "dp1000",
    "REPORT_CASES",
]


def dp600(liftoff: float = 0.005) -> PlateParams:
    """DP600 plate: 4.13 MS/m, mu_r 222, 1.40 mm thick."""
    return PlateParams(sigma=4.13e6, mu_r=222.0, t=1.40e-3, l=liftoff)


def dp800(liftoff: float = 0.005) -> PlateParams:
    """DP800 plate: 3.81 MS/m, mu_r 144, 1.70 mm thick."""
    return PlateParams(sigma=3.81e6, mu_r=144.0, t=1.70e-3, l=liftoff)


def dp1000(liftoff: float = 0.005) -> PlateParams:
    """DP1000 plate: 3.80 MS/m, mu_r 122, 1.23 mm thick."""
    return PlateParams(sigma=3.80e6, mu_r=122.0, t=1.23e-3, l=liftoff)


# The five standard report cases: each grade at 5 mm stand-off, plus
# DP1000 at the two raised stand-offs.
REPORT_CASES = [
    ("DP600", dp600(0.005)),
    ("DP800", dp800(0.005)),
    ("DP1000", dp1000(0.005)),
    ("DP1000", dp1000(0.030)),
    ("DP1000", dp1000(0.050)),
]
