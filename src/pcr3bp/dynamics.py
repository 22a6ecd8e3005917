"""Planar circular restricted three-body problem in the rotating frame.

States are ``(x, y, vx, vy)`` in the synodic (co-rotating) frame with the
two primaries fixed on the x-axis: the heavy primary (Sun) at ``(-mu, 0)``
and the light one (Jupiter) at ``(1 - mu, 0)``.  The equations of motion
derive from the effective potential

    Omega(x, y) = (x^2 + y^2)/2 + (1-mu)/r1 + mu/r2 + mu*(1-mu)/2

as ``x'' - 2 y' = Omega_x`` and ``y'' + 2 x' = Omega_y``.  The constant
term keeps the Jacobi integral ``C = 2*Omega - (vx^2 + vy^2)`` on the
convention used by the bundled section data, so energy levels quoted here
are only comparable against that convention.

The reversing symmetry ``R(x, y, vx, vy) = (x, -y, -vx, vy)`` conjugates
the flow to its time reversal: ``phi(t, R s) = R phi(-t, s)``.

Only the potential itself is written out here.  The field and its
Jacobian are read from the low orders of the Taylor kernels
(:func:`pcr3bp.taylor.point_field` in floats,
:func:`pcr3bp.taylor.iv_field` in intervals), the one source of the
derivatives of Omega in each arithmetic.

The package's one refinement of a float root lives here too:
:func:`_refine_bracket`, a safeguarded Illinois regula falsi, shrinks a
sign-change bracket to adjacent floats.  It places the collinear points
(:func:`libration_point`), and :mod:`pcr3bp.poincare` and
:mod:`pcr3bp.orbits` refine the brackets of their Fix(R) scans with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import taylor
from .errors import DomainError, SearchError, SingularityError
from .intervals import IArray, Interval, _wrap
from .taylor import _GUARD_SQ, GUARD_RADIUS

__all__ = [
    "MU_SUN_JUPITER",
    "JACOBI_OTERMA",
    "GUARD_RADIUS",
    "Params",
    "effective_potential",
    "vector_field",
    "jacobi_constant",
    "reversal",
    "libration_point",
    "effective_potential_iv",
    "vector_field_iv",
    "vector_field_jacobian_iv",
]

#: Sun-Jupiter mass ratio used throughout the bundled data.
MU_SUN_JUPITER = 0.0009537

#: Jacobi constant of the Oterma-type energy level the bundled data lives on.
JACOBI_OTERMA = 3.03

@dataclass(frozen=True, slots=True)
class Params:
    """Problem parameters: mass ratio and the Jacobi constant of the level set."""

    mu: float = MU_SUN_JUPITER
    jacobi: float = JACOBI_OTERMA

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < 0.5:
            raise DomainError(f"mass ratio must lie in (0, 1/2), got {self.mu}")


def _radii(params: Params, x: float, y: float) -> tuple[float, float]:
    # distances to the heavy and the light primary
    dx1 = x + params.mu
    dx2 = x - 1.0 + params.mu
    r1sq = dx1 * dx1 + y * y
    r2sq = dx2 * dx2 + y * y
    if r1sq <= _GUARD_SQ or r2sq <= _GUARD_SQ:
        raise SingularityError(
            f"state ({x}, {y}) is within {GUARD_RADIUS} of a primary"
        )
    return math.sqrt(r1sq), math.sqrt(r2sq)


def effective_potential(params: Params, x: float, y: float) -> float:
    """Omega(x, y), including the constant mu*(1-mu)/2 term."""
    mu = params.mu
    r1, r2 = _radii(params, x, y)
    return (
        0.5 * (x * x + y * y)
        + (1.0 - mu) / r1
        + mu / r2
        + 0.5 * mu * (1.0 - mu)
    )


def vector_field(params: Params, state) -> np.ndarray:
    """Right-hand side of the first-order system for (x, y, vx, vy)."""
    field, _ = taylor.point_field(state, params.mu, False)
    return np.array(field)


def _jacobian(hessian) -> np.ndarray:
    # state Jacobian from the potential Hessian (Omega_xx, Omega_xy, Omega_yy)
    oxx, oxy, oyy = hessian
    return np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [oxx, oxy, 0.0, 2.0],
            [oxy, oyy, -2.0, 0.0],
        ]
    )


def jacobi_constant(params: Params, state) -> float:
    """Jacobi integral C = 2*Omega - (vx^2 + vy^2)."""
    x, y, vx, vy = (float(c) for c in state)
    return 2.0 * effective_potential(params, x, y) - (vx * vx + vy * vy)


def reversal(state) -> np.ndarray:
    """The reversing symmetry R(x, y, vx, vy) = (x, -y, -vx, vy).

    ``state`` may hold many states as the rows of a (..., 4) array; the
    products by +-1 are exact.
    """
    return np.asarray(state, dtype=np.float64) * np.array([1.0, -1.0, -1.0, 1.0])


def libration_point(params: Params, index: int) -> float:
    """x-coordinate of the collinear equilibrium L1 or L2.

    L1 lies between the primaries, L2 beyond the light one; both are roots
    of Omega_x(x, 0) = 0.  A sign-definite bracket is refined to adjacent
    floats by :func:`_refine_bracket`, and of its two ends the one with
    the smaller ``|Omega_x|`` is returned.
    """
    mu = params.mu
    if index == 1:
        lo, hi = -mu + 1e-9, 1.0 - mu - 1e-9
    elif index == 2:
        lo, hi = 1.0 - mu + 1e-9, 3.0
    else:
        raise DomainError(f"only the collinear points 1 and 2 are supported, got {index}")

    def f(x: float) -> float:
        # Omega_x(x, 0), the vx' component of the field at rest
        return taylor.point_field((x, 0.0, 0.0, 0.0), mu, False)[0][2]

    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0.0:
        raise SearchError("libration bracket does not change sign")
    return min(_refine_bracket(f, lo, hi, flo, fhi, tol=0.0), key=lambda x: abs(f(x)))


def _evaluation_budget(lo: float, hi: float, tol: float) -> int:
    """Most evaluations :func:`_refine_bracket` may take on [lo, hi].

    The safeguard halves the bracket at least once in three evaluations.
    The bracket is done once it is ``tol`` wide or as wide as the float
    spacing at its end nearest zero, the finest spacing inside it (the
    least subnormal if it straddles zero); two halvings more allow for
    the rounding of midpoints near adjacency.
    """
    near = 0.0 if lo < 0.0 < hi else min(abs(lo), abs(hi))
    stop = max(tol, float(np.spacing(near)))
    halvings = math.ceil(math.log2(max(hi - lo, stop)) - math.log2(stop))
    return 3 * (halvings + 2)


def _refine_bracket(f: Callable[[float], float | None], lo: float, hi: float,
                    flo: float, fhi: float, tol: float) -> tuple[float, float] | None:
    """Shrink a sign-change bracket; None if the map fails inside it.

    A safeguarded Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971).
    Each step evaluates ``f`` at the secant point of the bracket.  When the
    same end is kept twice in a row, its value is halved, so that the next
    secant point falls across the root.  A secant point that rounds onto
    an end moves to the float next to it.  After two steps in a row that
    failed to halve the bracket, the next step takes the midpoint.

    Stops once the bracket is ``tol`` wide or its ends are adjacent floats,
    before evaluating ``f`` again; ``tol=0.0`` runs to adjacency.  Returns
    (x, x) on an exact zero.  Raises :class:`SearchError` if the bracket is
    not done within :func:`_evaluation_budget`.
    """
    if flo == 0.0 or fhi == 0.0:
        x = lo if flo == 0.0 else hi
        return x, x
    neg_lo = flo < 0.0  # the sign at lo; the halved values keep it
    budget = _evaluation_budget(lo, hi, tol)
    stalls = 0
    kept = 0  # the end kept by the last step: -1 lo, +1 hi
    while hi - lo > tol and np.nextafter(lo, hi) < hi:
        if budget == 0:
            raise SearchError(f"bracket [{lo!r}, {hi!r}] still wider than {tol!r} "
                              "after its evaluation budget")
        budget -= 1
        width = hi - lo
        x = lo - flo * width / (fhi - flo)
        bisect = stalls >= 2
        if bisect:
            x = 0.5 * (lo + hi)
        elif not lo < x < hi:
            # the secant point rounds onto an end: try the float next to it
            x = float(np.nextafter(lo, hi) if x <= lo else np.nextafter(hi, lo))
        fx = f(x)
        if fx is None:
            return None
        if fx == 0.0:
            return x, x
        if (fx < 0.0) == neg_lo:
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
        stalls = 0 if bisect or hi - lo <= 0.5 * width else stalls + 1
    return lo, hi


# ----------------------------------------------------------------------
# Interval variants.  As in floats, the field and its Jacobian come from
# the Taylor kernel (taylor.iv_field); only the potential itself, which
# the kernel never forms, is written here.
# ----------------------------------------------------------------------


def _heavy_mass_iv(params: Params) -> Interval:
    # 1 - mu, the heavy mass and minus the light primary's x, is not a float
    return 1.0 - Interval.point(params.mu)


def _radii_iv(params: Params, x: Interval, y: Interval) -> tuple[Interval, Interval]:
    r1sq = (x + params.mu).sqr() + y.sqr()
    r2sq = (x - _heavy_mass_iv(params)).sqr() + y.sqr()
    if r1sq.lo <= _GUARD_SQ or r2sq.lo <= _GUARD_SQ:
        raise SingularityError("interval state reaches the guard radius of a primary")
    return r1sq.sqrt(), r2sq.sqrt()


def effective_potential_iv(params: Params, x: Interval, y: Interval) -> Interval:
    """Interval enclosure of Omega over a rectangle."""
    mu = params.mu
    m1 = _heavy_mass_iv(params)
    r1, r2 = _radii_iv(params, x, y)
    return (
        (x.sqr() + y.sqr()) * 0.5
        + m1 / r1
        + mu / r2
        + m1 * (0.5 * mu)
    )


def vector_field_iv(params: Params, box: IArray) -> IArray:
    """Interval enclosure of the right-hand side over a state box."""
    flo, fhi, _, _ = taylor.iv_field(box.lo, box.hi, params.mu, False)
    return _wrap(flo, fhi)


def vector_field_jacobian_iv(params: Params, box: IArray) -> IArray:
    """Interval enclosure of the state Jacobian over a state box."""
    _, _, hlo, hhi = taylor.iv_field(box.lo, box.hi, params.mu, True)
    return _wrap(_jacobian(hlo), _jacobian(hhi))
