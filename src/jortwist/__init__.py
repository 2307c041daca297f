"""Exact engine for interpolating families of Jordanian twists.

Truncated formal series over the Borel algebra [P, D] = P, with exact
rational coefficients throughout; verifies cocycle conditions, closed-form
expansions, deformed Hopf data and the underlying binomial identities.

`exactalg` and `report`, which every command uses, load with the package;
the names from `borel` and `twists` load that module on first access.
"""

import importlib

from .exactalg import DPoly, UPoly, binom_poly
from .report import VerificationReport

# name: the submodule that defines it, imported on first access (PEP 562)
_LAZY = {name: "borel" for name in (
    "TensorElement", "conjugate", "exp_series", "first_difference",
    "geometric_inverse", "log1p_series", "series_apply")}
_LAZY["build_twist"] = "twists"

__all__ = [
    "DPoly", "UPoly", "binom_poly",
    "TensorElement", "conjugate", "exp_series", "first_difference",
    "geometric_inverse", "log1p_series", "series_apply",
    "VerificationReport", "build_twist",
]

__version__ = "0.1.0"


def __getattr__(name):
    """The lazy names, read from their module on every access and never
    cached here, so a function replaced in its module (as the benchmark's
    tracer does) is seen replaced through the package too.  `borel` and
    `twists` themselves resolve as they did when the package loaded them."""
    if name in _LAZY.values():
        return importlib.import_module("." + name, __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)
