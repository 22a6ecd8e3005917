"""Return maps on the section ``{y = 0}`` of the rotating frame.

The section splits into ``Theta_+`` (``vy > 0``) and ``Theta_-`` (``vy < 0``).
Section points carry coordinates ``(x, vx)``; the energy lift supplies
``vy = sign * sqrt(2 Omega(x, 0) - vx^2 - C)``.  Four elementary maps are
used throughout:

=========  ===================  ==========================
name       domain -> image      crossings (vy signs)
=========  ===================  ==========================
``Ph+``    Theta_+ -> Theta_-   (-1,)
``Ph-``    Theta_- -> Theta_+   (+1,)
``P+``     Theta_+ -> Theta_+   (-1, +1)
``P-``     Theta_- -> Theta_-   (+1, -1)
=========  ===================  ==========================

Consecutive transversal crossings alternate the sign of ``vy``, so the
full-return maps factor through the half maps: ``P+ = Ph- o Ph+`` and
``P- = Ph+ o Ph-``.  The reversing symmetry ``R(x, vx) = (x, -vx)`` fixes
each section side and conjugates ``Ph+`` with the inverse of ``Ph-``.

Composite words of these maps are applied either in point mode (float
states, Newton event refinement on the dense Taylor polynomial) or in
rigorous mode (one Lohner set flown through the entire crossing sequence,
so no correlations are lost at intermediate sections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dynamics, integrator, taylor
from .dynamics import Params
from .errors import (
    DomainError,
    IntegrationError,
    SearchError,
    TangencyError,
)
from .integrator import LohnerSet, PointFlow, lohner_section_crossings
from .intervals import IMatrix, Interval, IVector

__all__ = [
    "SectionPoint",
    "MapTag",
    "HALF_PLUS",
    "HALF_MINUS",
    "FULL_PLUS",
    "FULL_MINUS",
    "MAP_TAGS",
    "section_lift_vy",
    "lift",
    "lift_tangent",
    "project",
    "reflect",
    "apply_map",
    "apply_chain",
    "map_derivative",
    "chain_derivative",
    "RigorousImage",
    "apply_parallelogram_rigorous",
    "apply_chain_rigorous",
    "LyapunovOrbit",
    "lyapunov_fixed_point",
]


@dataclass(frozen=True, slots=True)
class SectionPoint:
    """A point of the section ``{y = 0}`` with its side of the section."""

    x: float
    vx: float
    sign: int  # +1 on Theta_+, -1 on Theta_-

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.vx])


@dataclass(frozen=True, slots=True)
class MapTag:
    """One elementary return map, identified by its crossing signature."""

    name: str
    domain_sign: int
    signs: tuple[int, ...]

    @property
    def image_sign(self) -> int:
        return self.signs[-1]

    def domain(self, inverse: bool = False) -> int:
        return self.image_sign if inverse else self.domain_sign

    def image(self, inverse: bool = False) -> int:
        return self.domain_sign if inverse else self.image_sign

    def crossing_signs(self, inverse: bool = False) -> tuple[int, ...]:
        """vy signs of successive crossings in integration order.

        Backward integration retraces the forward crossings in reverse,
        ending on the domain section.
        """
        if not inverse:
            return self.signs
        return tuple(reversed((self.domain_sign,) + self.signs[:-1]))

    def __str__(self) -> str:
        return self.name


HALF_PLUS = MapTag("Ph+", +1, (-1,))
HALF_MINUS = MapTag("Ph-", -1, (+1,))
FULL_PLUS = MapTag("P+", +1, (-1, +1))
FULL_MINUS = MapTag("P-", -1, (+1, -1))

MAP_TAGS = {t.name: t for t in (HALF_PLUS, HALF_MINUS, FULL_PLUS, FULL_MINUS)}


# ----------------------------------------------------------------------
# Lifts and projections
# ----------------------------------------------------------------------


def section_lift_vy(params: Params, x: float, vx: float, sign: int) -> float:
    """Signed ``vy`` completing ``(x, 0, vx, .)`` on the energy level."""
    rad = 2.0 * dynamics.effective_potential(params, x, 0.0) - vx * vx - params.jacobi
    if rad < 0.0:
        raise DomainError(
            f"section point (x={x}, vx={vx}) is outside the energy level "
            f"(radicand {rad})"
        )
    return math.copysign(math.sqrt(rad), sign)


def lift(params: Params, pt: SectionPoint) -> np.ndarray:
    """Lift a section point to the full state space."""
    vy = section_lift_vy(params, pt.x, pt.vx, pt.sign)
    return np.array([pt.x, 0.0, pt.vx, vy])


def lift_iv(params: Params, x: Interval, vx: Interval, sign: int) -> IVector:
    """Rigorous lift of a section box; requires a strictly positive radicand."""
    rad = 2.0 * dynamics.effective_potential_iv(params, x, Interval.point(0.0))
    rad = rad - vx.sqr() - Interval.point(params.jacobi)
    if rad.lo <= 0.0:
        raise DomainError(
            f"section box radicand {rad} touches the energy-level boundary"
        )
    vy = rad.sqrt()
    if sign < 0:
        vy = -vy
    return IVector.from_intervals([x, Interval.point(0.0), vx, vy])


def lift_tangent(params: Params, state: np.ndarray) -> np.ndarray:
    """Derivative of the lift at a lifted state (columns: d/dx, d/dvx).

    Differentiating ``vy = sign * sqrt(2 Omega(x, 0) - vx^2 - C)`` gives
    ``dvy/dx = Omega_x / vy`` and ``dvy/dvx = -vx / vy``.
    """
    ox, _ = dynamics.potential_gradient(params, state[0], 0.0)
    vy = state[3]
    return np.array([
        [1.0, 0.0],
        [0.0, 0.0],
        [0.0, 1.0],
        [ox / vy, -state[2] / vy],
    ])


def lift_tangent_iv(params: Params, x: Interval, vx: Interval, vy: Interval) -> IMatrix:
    """Interval version of :func:`lift_tangent` over a section box."""
    # at rest on the section the field's vx' component is Omega_x(x, 0)
    rest = IVector([x.lo, 0.0, 0.0, 0.0], [x.hi, 0.0, 0.0, 0.0])
    gx = dynamics.vector_field_iv(params, rest)[2] / vy
    gv = -vx / vy
    return IMatrix(
        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [gx.lo, gv.lo]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [gx.hi, gv.hi]],
    )


def project(state: np.ndarray, tol: float = 1e-9) -> SectionPoint:
    """Project a state assumed to lie on the section."""
    if abs(state[1]) > tol:
        raise DomainError(f"state with y={state[1]} is not on the section")
    if state[3] == 0.0:
        raise TangencyError("state is tangent to the section (vy = 0)")
    return SectionPoint(float(state[0]), float(state[2]), 1 if state[3] > 0 else -1)


def reflect(pt: SectionPoint) -> SectionPoint:
    """Reversing symmetry on section points: ``(x, vx) -> (x, -vx)``."""
    return SectionPoint(pt.x, -pt.vx, pt.sign)


# ----------------------------------------------------------------------
# Point-mode application
# ----------------------------------------------------------------------


def _point_crossings(params: Params, state: np.ndarray, signs: Sequence[int],
                     direction: float):
    """Flow a state through successive section crossings (point mode).

    Returns ``(flow, crossing_states, crossing_times)``; the flow is left
    standing exactly on the final crossing.
    """
    flow = PointFlow(params, state)
    return _drive_crossings(flow, signs, direction)


def _drive_crossings(flow: PointFlow, signs: Sequence[int], direction: float):
    params = flow.params
    found_states: list[np.ndarray] = []
    found_times: list[float] = []
    prev_y = flow.state[1]
    while len(found_states) < len(signs):
        if abs(flow.t) > integrator.MAX_TIME:
            raise IntegrationError(
                f"no section crossing within the time horizon {integrator.MAX_TIME}"
            )
        rec = flow.step(direction)
        y_new = flow.state[1]
        crossed = prev_y * y_new < 0.0 or (y_new == 0.0 and prev_y != 0.0)
        if crossed and abs(flow.t) >= integrator.MIN_TIME:
            tau = _refine_root(rec, prev_y)
            flow.rewind_to(rec, tau)
            s = flow.state
            if abs(s[3]) < integrator.TANGENCY_TOL:
                raise TangencyError(
                    f"section crossing with |vy|={abs(s[3])} below the guard"
                )
            expected = signs[len(found_states)]
            got = 1 if s[3] > 0 else -1
            if got != expected:
                raise IntegrationError(
                    f"crossing {len(found_states)} has vy sign {got}, "
                    f"expected {expected}"
                )
            found_states.append(s.copy())
            found_times.append(flow.t)
        prev_y = flow.state[1]
    return flow, found_states, found_times


def _refine_root(rec, y_start: float) -> float:
    """Newton root of the y-polynomial of a step, safeguarded by bisection."""
    lo, hi = 0.0, rec.h
    tau = 0.5 * (lo + hi)
    for _ in range(80):
        s = taylor.horner_point(rec.coeffs, tau)
        y, vy = s[1], s[3]
        if y == 0.0:
            return tau
        # keep the bracket: y(lo-side) has the sign of y_start
        if (y > 0.0) == (y_start > 0.0):
            lo = tau
        else:
            hi = tau
        if vy != 0.0:
            cand = tau - y / vy
            inside = (min(lo, hi) < cand < max(lo, hi))
        else:
            inside = False
        new = cand if inside else 0.5 * (lo + hi)
        if abs(new - tau) <= 1e-16 * abs(rec.h):
            return new
        tau = new
    return tau


def _chain_to_signs(tags: Sequence[MapTag], inverse: bool) -> tuple[list[int], int, float]:
    """Crossing-sign sequence, required domain sign and time direction."""
    if not tags:
        raise DomainError("empty map sequence")
    for a, b in zip(tags, tags[1:]):
        if b.domain_sign != a.image_sign:
            raise DomainError(
                f"maps {a.name} and {b.name} do not compose on the section"
            )
    if not inverse:
        signs = [s for t in tags for s in t.crossing_signs(False)]
        return signs, tags[0].domain(False), 1.0
    signs = [s for t in reversed(tags) for s in t.crossing_signs(True)]
    return signs, tags[-1].domain(True), -1.0


def apply_chain(params: Params, tags: Sequence[MapTag], pt: SectionPoint,
                inverse: bool = False) -> tuple[SectionPoint, float]:
    """Apply a composition of elementary maps to a section point.

    ``tags`` are listed in application order (first applied first).  Returns
    the image point and the signed flight time.
    """
    signs, dom, direction = _chain_to_signs(tags, inverse)
    if pt.sign != dom:
        raise DomainError(
            f"point on section side {pt.sign} is not in the domain "
            f"(sign {dom}) of the composite"
        )
    state = lift(params, pt)
    flow, states, times = _point_crossings(params, state, signs, direction)
    return project(states[-1]), times[-1]


def apply_map(params: Params, tag: MapTag, pt: SectionPoint,
              inverse: bool = False) -> tuple[SectionPoint, float]:
    """Apply one elementary map (see :func:`apply_chain`)."""
    return apply_chain(params, [tag], pt, inverse)


# ----------------------------------------------------------------------
# Derivatives
# ----------------------------------------------------------------------

# Derivation of the section-map derivative.  With T the energy lift into
# {y = 0} and tau(p) the crossing time, the map is
#
#     P(p) = pi(phi(tau(p), T(p))),     pi = projection onto (x, vx).
#
# Differentiating the flow evaluation along p,
#
#     d/dp [phi(tau(p), T(p))] = f(q) dtau/dp + Dphi DT,   q = phi(tau, T(p)),
#
# and the crossing condition e_y . phi(tau(p), T(p)) = 0 gives
#
#     dtau/dp = - e_y^T Dphi DT / (e_y^T f(q)) = - e_y^T Dphi DT / vy(q),
#
# so that
#
#     DP = pi (I - f(q) e_y^T / vy(q)) Dphi DT.
#
# The corrected vector (I - f e_y^T/vy) v is tangent to the section and to
# the energy level whenever v is (flow derivatives preserve the energy
# tangency of the lift directions), and on that 2-plane it equals DT of the
# projected vector.  Intermediate crossings of a composite word therefore
# need no correction: the factors T pi cancel, and one correction at the
# final crossing suffices.


def chain_derivative(params: Params, tags: Sequence[MapTag], pt: SectionPoint,
                     inverse: bool = False):
    """Derivative of a composite map at a point.

    Returns ``(dp, image, t)`` with ``dp`` the 2x2 derivative in section
    coordinates, computed as ``pi (I - f e_y^T / vy) Dphi DT`` (see the
    derivation above).
    """
    signs, dom, direction = _chain_to_signs(tags, inverse)
    if pt.sign != dom:
        raise DomainError(
            f"point on section side {pt.sign} is not in the domain "
            f"(sign {dom}) of the composite"
        )
    state = lift(params, pt)
    dt_cols = lift_tangent(params, state)
    flow = PointFlow(params, state, variational=True)
    flow, states, times = _drive_crossings(flow, signs, direction)
    q = states[-1]
    dphi = flow.v
    f_q = dynamics.vector_field(params, q)
    corr = np.eye(4) - np.outer(f_q, [0.0, 1.0, 0.0, 0.0]) / q[3]
    full = corr @ dphi @ dt_cols
    dp = full[[0, 2], :]
    return dp, project(q), times[-1]


def map_derivative(params: Params, tag: MapTag, pt: SectionPoint,
                   inverse: bool = False):
    """Derivative of one elementary map (see :func:`chain_derivative`)."""
    return chain_derivative(params, [tag], pt, inverse)


# ----------------------------------------------------------------------
# Rigorous application
# ----------------------------------------------------------------------


@dataclass(slots=True)
class RigorousImage:
    """Enclosure of the image of a section box under a composite map."""

    x: Interval
    vx: Interval
    state: IVector
    t: Interval
    dp: IMatrix | None


def _lifted_cell(params: Params, origin: np.ndarray, d1: np.ndarray,
                 d2: np.ndarray, a: Interval, b: Interval, sign: int,
                 track_jacobian: bool) -> tuple[LohnerSet, IMatrix]:
    """Lohner set enclosing the energy lift of a section parallelogram.

    The support ``{origin + alpha d1 + beta d2 : alpha in a, beta in b}`` is
    lifted as a graph ``c + da T1 + db T2 + res e_vy`` over the lift tangent
    directions at the cell center, where ``res`` bounds the curvature of vy
    by a mean-value form.  This keeps both the parallelogram geometry and
    the (x, vx) <-> vy correlation; nothing is boxed away.  Returns the set
    and the interval lift tangent over the cell's (x, vx) bounds.
    """
    # axis-aligned (x, vx) bounds of the support
    x_iv = origin[0] + a * float(d1[0]) + b * float(d2[0])
    vx_iv = origin[1] + a * float(d1[1]) + b * float(d2[1])
    box4 = lift_iv(params, x_iv, vx_iv, sign)
    am, bm = a.mid, b.mid
    center2 = origin + am * d1 + bm * d2
    center = lift(params, SectionPoint(float(center2[0]), float(center2[1]), sign))
    g = lift_tangent(params, center)
    g1, g2 = g[3, 0], g[3, 1]
    t1 = np.array([d1[0], 0.0, d1[1], g1 * d1[0] + g2 * d1[1]])
    t2 = np.array([d2[0], 0.0, d2[1], g1 * d2[0] + g2 * d2[1]])
    frame = np.column_stack([t1, t2, [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    da = a - am
    db = b - bm
    # mean-value residual: vy(p) - vy(c) - g . (p - c) = (grad vy(xi) - g) . (p - c)
    grad = lift_tangent_iv(params, x_iv, vx_iv, box4[3])
    ex = grad.entry(3, 0) - g1
    ev = grad.entry(3, 1) - g2
    res = (ex * float(d1[0]) + ev * float(d1[1])) * da \
        + (ex * float(d2[0]) + ev * float(d2[1])) * db
    # direct form as a cross-check, keep the intersection
    lin = t1[3] * da + t2[3] * db
    direct = box4[3] - (Interval.point(center[3]) + lin)
    res = res.intersection(direct)
    r = IVector.from_intervals([da, db, Interval.point(0.0), res])
    return LohnerSet.from_frame(center, frame, r, track_jacobian), grad


def apply_parallelogram_rigorous(params: Params, tags: Sequence[MapTag],
                                 origin, d1, d2, a: Interval, b: Interval,
                                 sign: int,
                                 inverse: bool = False,
                                 want_derivative: bool = False) -> RigorousImage:
    """Rigorous image of a section parallelogram under a composite map.

    The support is ``{origin + alpha d1 + beta d2 : alpha in a, beta in b}``
    in section coordinates, with ``sign`` naming its section side.  One
    Lohner set is flown through the whole crossing sequence, so the
    intermediate sections introduce no re-boxing.  With ``want_derivative``
    the 2x2 interval derivative in section coordinates is included, built
    as ``pi (I - f e_y^T/vy) Dphi DT`` from the accumulated flow derivative.
    """
    origin = np.asarray(origin, dtype=np.float64)
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    signs, dom, direction = _chain_to_signs(tags, inverse)
    if sign != dom:
        raise DomainError(
            f"cell on section side {sign} is not in the domain "
            f"(sign {dom}) of the composite"
        )
    lset, dt_cols = _lifted_cell(params, origin, d1, d2, a, b, dom,
                                 want_derivative)
    crossings, jac = lohner_section_crossings(
        params, lset, signs, direction, want_jacobian=want_derivative
    )
    final = crossings[-1]
    dp = None
    if want_derivative:
        st = final.state
        f_q = dynamics.vector_field_iv(params, st)
        # rows (x, vx) of (I - f e_y^T / vy) in one go
        fx = -f_q[0] / st[3]
        fv = -f_q[2] / st[3]
        proj = IMatrix([[1.0, fx.lo, 0.0, 0.0], [0.0, fv.lo, 1.0, 0.0]],
                       [[1.0, fx.hi, 0.0, 0.0], [0.0, fv.hi, 1.0, 0.0]])
        dp = (proj @ jac) @ dt_cols
    return RigorousImage(
        x=final.state[0], vx=final.state[2], state=final.state,
        t=final.t, dp=dp,
    )


def apply_chain_rigorous(params: Params, tags: Sequence[MapTag],
                         x: Interval, vx: Interval,
                         inverse: bool = False,
                         want_derivative: bool = False) -> RigorousImage:
    """Rigorous image of an axis-aligned section box under a composite map.

    Convenience wrapper over :func:`apply_parallelogram_rigorous` with the
    coordinate directions as the cell frame; the section side is inferred
    from the composite's domain.
    """
    signs_dom = _chain_to_signs(tags, inverse)[1]
    return apply_parallelogram_rigorous(
        params, tags,
        origin=np.array([x.mid, vx.mid]),
        d1=np.array([1.0, 0.0]),
        d2=np.array([0.0, 1.0]),
        a=x - x.mid,
        b=vx - vx.mid,
        sign=signs_dom,
        inverse=inverse,
        want_derivative=want_derivative,
    )


# ----------------------------------------------------------------------
# Lyapunov-orbit fixed points
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LyapunovOrbit:
    """Fixed point of a full-return map at a planar Lyapunov orbit."""

    index: int
    point: SectionPoint
    period: float
    multipliers: tuple[float, float]
    unstable_dir: np.ndarray
    stable_dir: np.ndarray
    residual: float


# The symmetry-line scan of lyapunov_fixed_point: SCAN_POINTS samples over
# x_lib +- SCAN_RADIUS, keeping half-map flights up to HALF_TIME_CAP.
SCAN_RADIUS = 0.05
SCAN_POINTS = 200
HALF_TIME_CAP = 4.0


def lyapunov_fixed_point(params: Params, index: int) -> LyapunovOrbit:
    """Locate the Lyapunov-orbit fixed point near a collinear neck.

    ``index`` 1 uses ``Theta_+``/``P+`` (inner neck), 2 uses
    ``Theta_-``/``P-`` (outer neck).  The perpendicular crossing is found
    as a root of ``vx(Ph(x, 0))`` along the symmetry line, then polished
    as a 2d fixed point of the full-return map.

    Other symmetric families intersect the symmetry line as well, so a
    candidate bracket must (a) sit on the short-flight branch
    (half-map time at most ``HALF_TIME_CAP``) and (b) stay on one side of
    the second primary; the Lyapunov orbit is the surviving root closest
    to the libration point.
    """
    sign = 1 if index == 1 else -1
    half = HALF_PLUS if index == 1 else HALF_MINUS
    full = FULL_PLUS if index == 1 else FULL_MINUS
    x_lib = dynamics.libration_point(params, index)
    x_primary = 1.0 - params.mu

    def g(xv: float) -> float:
        img, _ = apply_map(params, half, SectionPoint(xv, 0.0, sign))
        return img.vx

    # scan the symmetry line for sign changes of the perpendicularity
    # defect, keeping only the Lyapunov branch
    records: list[tuple[float, float] | None] = []
    offsets = np.linspace(-SCAN_RADIUS, SCAN_RADIUS, SCAN_POINTS)
    for u in offsets:
        xv = x_lib + float(u)
        try:
            img, t = apply_map(params, half, SectionPoint(xv, 0.0, sign))
        except (DomainError, IntegrationError, TangencyError):
            records.append(None)
            continue
        same_side = (xv - x_primary) * (img.x - x_primary) > 0.0
        if abs(t) <= HALF_TIME_CAP and same_side:
            records.append((xv, img.vx))
        else:
            records.append(None)
    brackets = [
        (p[0], q[0], p[1], q[1])
        for p, q in zip(records, records[1:])
        if p is not None and q is not None and p[1] * q[1] < 0.0
    ]
    if not brackets:
        raise SearchError(
            f"no perpendicular Lyapunov crossing found near x={x_lib}"
        )
    a, b, ga, gb = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - x_lib))
    for _ in range(80):
        m = 0.5 * (a + b)
        gm = g(m)
        if gm == 0.0:
            a = b = m
            break
        if (gm > 0.0) == (ga > 0.0):
            a, ga = m, gm
        else:
            b, gb = m, gm
    xstar = 0.5 * (a + b)

    # polish as a 2d fixed point of the full-return map
    pt = SectionPoint(xstar, 0.0, sign)
    period = 0.0
    for _ in range(30):
        dp, img, period = chain_derivative(params, [full], pt)
        res = img.as_array() - pt.as_array()
        if np.max(np.abs(res)) < 1e-14:
            break
        delta = np.linalg.solve(dp - np.eye(2), -res)
        pt = SectionPoint(pt.x + delta[0], pt.vx + delta[1], sign)

    dp, img, period = chain_derivative(params, [full], pt)
    residual = float(np.max(np.abs(img.as_array() - pt.as_array())))
    eigvals, eigvecs = np.linalg.eig(dp)
    if np.iscomplexobj(eigvals) and np.max(np.abs(eigvals.imag)) > 1e-9:
        raise SearchError(f"fixed-point multipliers are not real: {eigvals}")
    eigvals = eigvals.real
    eigvecs = eigvecs.real
    order = np.argsort(-np.abs(eigvals))
    lam_u, lam_s = float(eigvals[order[0]]), float(eigvals[order[1]])
    v_u = eigvecs[:, order[0]] / np.linalg.norm(eigvecs[:, order[0]])
    v_s = eigvecs[:, order[1]] / np.linalg.norm(eigvecs[:, order[1]])
    return LyapunovOrbit(
        index=index,
        point=pt,
        period=abs(period),
        multipliers=(lam_u, lam_s),
        unstable_dir=v_u,
        stable_dir=v_s,
        residual=residual,
    )
