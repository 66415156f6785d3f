"""Inverse acoustic scattering by linear sampling with learned regularization.

The package covers the full pipeline: forward far-field simulation for
parametrized scatterers (separated series for disks, a boundary-integral
solver for everything else), the linear sampling reconstruction with
discrepancy-based or learned regularization, the radial-basis operator
network that emits indicator fields directly, the spectrum-based noise
estimator, and tangent-kernel diagnostics for the network architecture.

Import submodules by name (`from lsmnet import geometry`).  The package
root imports nothing, so the command-line front end can pin thread counts
in the environment before any numerical library starts its thread pool.
"""

__version__ = "0.1.0"
