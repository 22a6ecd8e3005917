"""Validated numerics for the planar circular restricted three-body problem.

Public API re-exports live here; see the module docstrings for the layered
design (intervals -> taylor -> dynamics -> integrator -> poincare -> hset ->
symbolic -> orbits).
"""

from pcr3bp.dynamics import (
    JACOBI_OTERMA,
    MU_SUN_JUPITER,
    Params,
    effective_potential,
    jacobi_constant,
    libration_point,
    reversal,
    vector_field,
)
from pcr3bp.intervals import Interval, IMatrix, IVector

__all__ = [
    "Interval",
    "IVector",
    "IMatrix",
    "Params",
    "MU_SUN_JUPITER",
    "JACOBI_OTERMA",
    "effective_potential",
    "jacobi_constant",
    "libration_point",
    "reversal",
    "vector_field",
    "__version__",
]

__version__ = "0.1.0"
