"""Exact engine for interpolating families of Jordanian twists.

Truncated formal series over the Borel algebra [P, D] = P, with exact
rational coefficients throughout; verifies cocycle conditions, closed-form
expansions, deformed Hopf data and the underlying binomial identities.
"""

from .exactalg import DPoly, UPoly, binom_poly
from .borel import (TensorElement, conjugate, exp_series, first_difference,
                    geometric_inverse, log1p_series, series_apply)
from .report import VerificationReport
from .twists import build_twist

__all__ = [
    "DPoly", "UPoly", "binom_poly",
    "TensorElement", "conjugate", "exp_series", "first_difference",
    "geometric_inverse", "log1p_series", "series_apply",
    "VerificationReport", "build_twist",
]

__version__ = "0.1.0"
