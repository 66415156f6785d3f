"""Inverse acoustic scattering by linear sampling with learned regularization.

The package covers the full pipeline: forward far-field simulation for
parametrized scatterers (separated series for disks, a boundary-integral
solver for everything else), the linear sampling reconstruction with
discrepancy-based or learned regularization, the radial-basis operator
network that emits indicator fields directly, the spectrum-based noise
estimator, and tangent-kernel diagnostics for the network architecture.

Submodules load on first attribute access.  Keeping the package root free
of heavy imports lets the command-line front end pin thread counts in the
environment before any numerical library starts its thread pool.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "archive",
    "specialfn",
    "geometry",
    "forward",
    "nystrom",
    "regsolve",
    "nn",
    "deeponet",
    "noisenet",
    "ntk",
    "cli",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
