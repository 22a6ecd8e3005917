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
each section side and conjugates each map to the inverse of its mirror,

    R P R = P_mirror^{-1},

where the half maps ``Ph+`` and ``Ph-`` mirror each other and each full
map is its own mirror.  So the maps here fly forward in time only: the
backward image of a point ``q`` under a map is ``R`` of the forward image
of ``R q`` under its mirror, and no inverse map is needed.

Composite words of these maps are applied either in point mode (float
states flown as the lanes of one :class:`~pcr3bp.integrator.PointFlow`,
Newton event refinement on the dense Taylor polynomial) or in
rigorous mode (one Lohner set flown through the entire crossing sequence,
so no correlations are lost at intermediate sections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import dynamics, integrator, taylor
from .dynamics import Params, _refine_bracket
from .errors import (
    DomainError,
    HorizonError,
    IntegrationError,
    PCR3BPError,
    SearchError,
    SingularityError,
    TangencyError,
)
from .integrator import FlowStats, LohnerSet, PointFlow, lohner_section_crossings
from .intervals import IArray, Interval

__all__ = [
    "SectionPoint",
    "MapTag",
    "HALF_PLUS",
    "HALF_MINUS",
    "FULL_PLUS",
    "FULL_MINUS",
    "section_lift_vy",
    "lift",
    "lift_tangent",
    "project",
    "reflect",
    "apply_map",
    "apply_chain",
    "apply_chain_lanes",
    "chain_landings",
    "chain_derivative",
    "RigorousImage",
    "cell_offsets",
    "apply_parallelogram_rigorous",
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
    signs: tuple[int, ...]  # vy signs of the successive crossings

    @property
    def image_sign(self) -> int:
        return self.signs[-1]

    def __str__(self) -> str:
        return self.name


HALF_PLUS = MapTag("Ph+", +1, (-1,))
HALF_MINUS = MapTag("Ph-", -1, (+1,))
FULL_PLUS = MapTag("P+", +1, (-1, +1))
FULL_MINUS = MapTag("P-", -1, (+1, -1))


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


def lift_iv(params: Params, x: Interval, vx: Interval, sign: int) -> IArray:
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
    return IArray.from_intervals([x, Interval.point(0.0), vx, vy])


def lift_tangent(params: Params, state: np.ndarray) -> np.ndarray:
    """Derivative of the lift at a lifted state (columns: d/dx, d/dvx).

    Differentiating ``vy = sign * sqrt(2 Omega(x, 0) - vx^2 - C)`` gives
    ``dvy/dx = Omega_x / vy`` and ``dvy/dvx = -vx / vy``.
    """
    # at rest on the section the field's vx' component is Omega_x(x, 0)
    ox = dynamics.vector_field(params, (state[0], 0.0, 0.0, 0.0))[2]
    vy = state[3]
    return np.array([
        [1.0, 0.0],
        [0.0, 0.0],
        [0.0, 1.0],
        [ox / vy, -state[2] / vy],
    ])


def lift_tangent_iv(params: Params, x: Interval, vx: Interval, vy: Interval) -> IArray:
    """Interval version of :func:`lift_tangent` over a section box."""
    # at rest on the section the field's vx' component is Omega_x(x, 0)
    rest = IArray([x.lo, 0.0, 0.0, 0.0], [x.hi, 0.0, 0.0, 0.0])
    gx = dynamics.vector_field_iv(params, rest)[2] / vy
    gv = -vx / vy
    return IArray(
        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [gx.lo, gv.lo]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [gx.hi, gv.hi]],
    )


def project(state: np.ndarray) -> SectionPoint:
    """Project a state assumed to lie on the section, to ``|y| <= 1e-9``."""
    if abs(state[1]) > 1e-9:
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


def _horizon_error() -> HorizonError:
    return HorizonError(
        f"no section crossing within the time horizon {integrator.MAX_TIME}")


def _landed_sign(state: np.ndarray, expected: int, index: int) -> int:
    """The vy sign of crossing ``index`` landed on ``state``.

    Raises on a crossing too close to tangency or of the wrong sign.
    """
    if abs(state[3]) < integrator.TANGENCY_TOL:
        raise TangencyError(
            f"section crossing with |vy|={abs(state[3])} below the guard"
        )
    got = 1 if state[3] > 0 else -1
    if got != expected:
        raise IntegrationError(
            f"crossing {index} has vy sign {got}, expected {expected}"
        )
    return got


def _refine_root(coeffs: np.ndarray, h: np.ndarray,
                 y_start: np.ndarray) -> np.ndarray:
    """Newton roots of the y-polynomials of steps, safeguarded by bisection.

    Lane-wise: ``coeffs`` (n+1, 4, N) holds the Taylor coefficients of N
    steps of lengths ``h``, whose y starts with the signs of ``y_start``.
    Each lane runs the iteration it would run alone, to its own exit, and
    drops out there.  Returns the N roots.
    """
    lo = np.zeros_like(h)
    hi = h.copy()
    tau = 0.5 * (lo + hi)
    rows = coeffs[:, 1::2]  # y and vy
    live = np.arange(h.size)
    for _ in range(80):
        t, a, b = tau[live], lo[live], hi[live]
        y, vy = taylor.horner_lanes(rows[:, :, live], t)
        # keep the bracket: y(lo-side) has the sign of y_start
        same = (y > 0.0) == (y_start[live] > 0.0)
        a, b = np.where(same, t, a), np.where(same, b, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = t - y / vy
        inside = (vy != 0.0) & (np.minimum(a, b) < cand) & (cand < np.maximum(a, b))
        new = np.where(inside, cand, 0.5 * (a + b))
        root = y == 0.0
        tau[live] = np.where(root, t, new)
        lo[live], hi[live] = a, b
        live = live[~(root | (np.abs(new - t) <= 1e-16 * np.abs(h[live])))]
        if not live.size:
            break
    return tau


def _chain_to_signs(tags: Sequence[MapTag], side: int) -> list[int]:
    """Crossing-sign sequence of a composite, in application order.

    Raises if the composite does not compose or if ``side``, the section
    side of the argument, is not the composite's domain.
    """
    if not tags:
        raise DomainError("empty map sequence")
    for a, b in zip(tags, tags[1:]):
        if b.domain_sign != a.image_sign:
            raise DomainError(
                f"maps {a.name} and {b.name} do not compose on the section"
            )
    if side != tags[0].domain_sign:
        raise DomainError(
            f"section side {side} is not the domain "
            f"(sign {tags[0].domain_sign}) of the composite"
        )
    return [s for t in tags for s in t.signs]


def apply_chain(params: Params, tags: Sequence[MapTag],
                pt: SectionPoint) -> tuple[SectionPoint, float]:
    """Apply a composition of elementary maps to a section point.

    ``tags`` are listed in application order (first applied first).  Returns
    the image point and the flight time: the one-lane flight of
    :func:`apply_chain_lanes`.
    """
    flown, = apply_chain_lanes(params, tags, [pt])
    if isinstance(flown, PCR3BPError):
        raise flown
    return flown


def apply_map(params: Params, tag: MapTag,
              pt: SectionPoint) -> tuple[SectionPoint, float]:
    """Apply one elementary map (see :func:`apply_chain`)."""
    return apply_chain(params, [tag], pt)


def apply_chain_lanes(params: Params, tags: Sequence[MapTag],
                      pts: Sequence[SectionPoint],
                      ) -> list[tuple[SectionPoint, float] | PCR3BPError]:
    """Apply a composite map to many section points at once.

    Entry i of the result is the image of ``pts[i]`` and its flight time,
    or the :class:`~pcr3bp.errors.PCR3BPError` that stopped its flight;
    other exceptions propagate.  It is the last landing of
    :func:`chain_landings`, and each lane gives the bits of its own
    one-lane flight, :func:`apply_chain`.
    """
    return [marks[-1] if error is None else error
            for marks, error in chain_landings(params, tags, pts)]


def chain_landings(params: Params, tags: Sequence[MapTag], pts: Sequence[SectionPoint],
                   ) -> list[tuple[list[tuple[SectionPoint, float]], PCR3BPError | None]]:
    """Fly many section points through a composite map, landing after each map.

    Entry i of the result holds where ``pts[i]`` lands at the end of each
    map it completes, with its flight time there, and the
    :class:`~pcr3bp.errors.PCR3BPError` that stopped its flight, or None
    once it has landed after every map; other exceptions propagate.  The
    points fly as the lanes of one :class:`PointFlow` (see
    :func:`_fly_to_crossings`), so landing k of a flight has the bits of
    the one-lane flight of the first k + 1 maps.
    """
    out: list = [None] * len(pts)
    lanes, states = [], []
    for i, pt in enumerate(pts):
        try:
            _chain_to_signs(tags, pt.sign)
            states.append(lift(params, pt))
            lanes.append(i)
        except PCR3BPError as exc:
            out[i] = ([], exc)
    flow = PointFlow(params, np.array(states).T.reshape(4, -1))
    for i, flown in zip(lanes, _fly_to_crossings(flow, tags)):
        out[i] = flown
    return out


def _fly_to_crossings(flow: PointFlow, tags: Sequence[MapTag],
                      ) -> list[tuple[list[tuple[SectionPoint, float]], PCR3BPError | None]]:
    """Fly the lanes of a flow forward through the crossings of a composite.

    ``tags`` are the maps in application order; each awaits the vy signs
    of its crossings, and its last crossing ends it.  Entry i of the
    result holds lane i's projected crossing at the end of each map it
    completed, with its time, and the
    :class:`~pcr3bp.errors.PCR3BPError` that stopped the lane, or None.
    A step crosses where ``y`` changes sign over it, or lands on zero
    from a nonzero start; the lanes start on the section with ``y = 0``,
    so the departure is no crossing, and the first one may come at any
    time.  Crossings are refined lane-wise on each step's polynomial, and
    a lane drops out once it lands its last crossing or fails; a lane
    whose state is not finite after a step, or whose step rule asks for
    less than ``H_MIN``, fails with an :class:`IntegrationError` there.  A
    one-lane flow is left standing on its last crossing, with its
    variational matrix there.
    """
    # the vy sign of each awaited crossing, and whether it ends its map
    signs = [s for t in tags for s in t.signs]
    ends = [k == len(t.signs) for t in tags for k in range(1, len(t.signs) + 1)]
    mu = flow.params.mu
    n = flow.t.size
    marks: list = [[] for _ in range(n)]
    errors: list = [None] * n
    lanes = np.arange(n)
    prev_y = flow.state[1].copy()
    found = np.zeros(n, dtype=int)
    done = np.zeros(n, dtype=bool)
    while True:
        # the horizon, then the guard radius, as the kernel would meet them
        late = ~done & (flow.t > integrator.MAX_TIME)
        near = ~done & ~late & taylor.lane_guard(flow.state, mu)
        for i in lanes[late]:
            errors[i] = _horizon_error()
        for i in lanes[near]:
            errors[i] = SingularityError("taylor kernel: state inside primary guard radius")
        go = ~(done | late | near)
        if not go.any():
            return list(zip(marks, errors))
        if not go.all():
            flow.keep(go)
            lanes, prev_y, found = lanes[go], prev_y[go], found[go]
        with np.errstate(over="ignore", invalid="ignore"):
            # a lane that blows up overflows here; it is ended below
            rec = flow.step()
            y_start, prev_y = prev_y, flow.state[1].copy()
            crossed = (y_start * prev_y < 0.0) | ((prev_y == 0.0) & (y_start != 0.0))
        finite = np.isfinite(flow.state).all(axis=0)
        crossed = np.flatnonzero(crossed & finite)
        if crossed.size:
            # land the crossed lanes on their roots
            tau = _refine_root(rec.coeffs[:, :, crossed], rec.h[crossed], y_start[crossed])
            flow.state[:, crossed] = taylor.horner_lanes(rec.coeffs[:, :, crossed], tau)
            flow.t[crossed] = rec.t0[crossed] + tau
            if flow.v is not None:
                flow.v = rec.jacobian_at(tau[0])
        floored = rec.h == 0.0
        done = ~finite | floored
        for j in np.flatnonzero(done).tolist():
            errors[lanes[j]] = flow.floor_error(j) if floored[j] else IntegrationError(
                f"state {flow.state[:, j]} is not finite after the step to "
                f"t={flow.t[j]}")
        for j in crossed.tolist():
            # arm on the side the lane enters: the landed y is a rounding
            # residue that may keep the sign of the side just left, and
            # armed on it the next step would find this root again
            try:
                prev_y[j] = _landed_sign(flow.state[:, j], signs[found[j]], found[j])
                if ends[found[j]]:
                    marks[lanes[j]].append((project(flow.state[:, j]), flow.t[j]))
                found[j] += 1
                done[j] = found[j] == len(signs)
            except PCR3BPError as exc:
                errors[lanes[j]] = exc
                done[j] = True


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


def chain_derivative(params: Params, tags: Sequence[MapTag], pt: SectionPoint):
    """Derivative of a composite map at a point.

    Returns ``(dp, image, t)`` with ``dp`` the 2x2 derivative in section
    coordinates, computed as ``pi (I - f e_y^T / vy) Dphi DT`` (see the
    derivation above).
    """
    _chain_to_signs(tags, pt.sign)
    state = lift(params, pt)
    dt_cols = lift_tangent(params, state)
    flow = PointFlow(params, state, variational=True)
    (marks, error), = _fly_to_crossings(flow, tags)
    if error is not None:
        raise error
    image, t = marks[-1]
    q = flow.state[:, 0]
    dphi = flow.v
    f_q = dynamics.vector_field(params, q)
    corr = np.eye(4) - np.outer(f_q, [0.0, 1.0, 0.0, 0.0]) / q[3]
    full = corr @ dphi @ dt_cols
    dp = full[[0, 2], :]
    return dp, image, t


# ----------------------------------------------------------------------
# Rigorous application
# ----------------------------------------------------------------------


@dataclass(slots=True)
class RigorousImage:
    """Enclosure of the image of a section box under a composite map.

    ``center``, when asked for, encloses the final crossing state of the
    energy lift of the cell's center point ``origin + am d1 + bm d2``
    (``am``, ``bm`` the midpoints of ``a``, ``b``, summed in floats), read
    from the same flight as the cell.  ``offsets`` enclose the cell's
    ``(alpha, beta)`` measured from that point along ``d1`` and ``d2``.
    ``stats`` holds the step counts of the flight.
    """

    x: Interval
    vx: Interval
    state: IArray
    t: Interval
    dp: IArray | None
    offsets: tuple[Interval, Interval]
    center: IArray | None = None
    stats: FlowStats | None = None


def _enclose(q: Fraction) -> Interval:
    """The tightest float interval holding a rational."""
    f = float(q)
    lo = f if Fraction(f) <= q else math.nextafter(f, -math.inf)
    hi = f if Fraction(f) >= q else math.nextafter(f, math.inf)
    return Interval(lo, hi)


def _center_miss(origin: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                 am: float, bm: float,
                 center2: np.ndarray) -> tuple[Interval, Interval] | None:
    """Enclose ``[d1 d2]^-1 (origin + am d1 + bm d2 - center2)`` exactly.

    This is how far, along ``d1`` and ``d2``, the float sum ``center2``
    misses the exact cell center.  None when the sum is exact: a zero-width
    correction would still step the offsets out by an ulp.
    """
    o, u, s, c = ([Fraction(float(v)) for v in w] for w in (origin, d1, d2, center2))
    e = [o[i] + Fraction(am) * u[i] + Fraction(bm) * s[i] - c[i] for i in range(2)]
    if not any(e):
        return None
    det = u[0] * s[1] - s[0] * u[1]
    if det == 0:
        raise SingularityError("cell directions d1 and d2 are parallel")
    return (_enclose((e[0] * s[1] - s[0] * e[1]) / det),
            _enclose((u[0] * e[1] - e[0] * u[1]) / det))


def cell_offsets(origin: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                 a: Interval, b: Interval, am: float,
                 bm: float) -> tuple[Interval, Interval]:
    """Enclose where ``origin + alpha d1 + beta d2`` lies from a cell's center.

    The offsets of ``alpha in a``, ``beta in b`` are measured along ``d1``
    and ``d2`` from the float center sum ``origin + am d1 + bm d2`` of the
    cell with midpoints ``am``, ``bm``, the point its flight lifts.  They
    are ``a - am`` and ``b - bm`` shifted by the rounding of that sum (see
    :func:`_center_miss`).  ``a`` and ``b`` may be any part of the cell, a
    face for instance, so zero need not lie in the offsets.
    """
    da, db = a - am, b - bm
    miss = _center_miss(origin, d1, d2, am, bm, origin + am * d1 + bm * d2)
    if miss is not None:
        da, db = da + miss[0], db + miss[1]
    return da, db


def _lifted_cell(params: Params, origin: np.ndarray, d1: np.ndarray,
                 d2: np.ndarray, a: Interval, b: Interval, sign: int,
                 track_jacobian: bool,
                 center_box: bool = False) -> tuple[LohnerSet, IArray]:
    """Lohner set enclosing the energy lift of a section parallelogram.

    The support ``{origin + alpha d1 + beta d2 : alpha in a, beta in b}`` is
    lifted as a graph ``c + da T1 + db T2 + res e_vy`` over the lift tangent
    directions at the cell center.  ``da`` and ``db`` are ``a - am`` and
    ``b - bm`` shifted by the rounding of the float center sum (see
    :func:`cell_offsets`), so the set holds the exact cell; ``res``
    encloses the curvature of vy by a mean-value form over the cell's
    (x, vx) bounds, plus the rounding of the float lift ``c``.  This keeps
    both the parallelogram geometry and the (x, vx) <-> vy correlation;
    nothing is boxed away.  Zero lies in ``da``, ``db`` and ``res``, so
    ``c`` lies in the set, and so does the energy lift of the cell center,
    which with ``center_box`` the set also carries as its center box.
    Returns the set and the interval lift tangent over the cell's (x, vx)
    bounds.
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
    zero = Interval.point(0.0)
    da, db = (o.hull(zero) for o in cell_offsets(origin, d1, d2, a, b, am, bm))
    # mean-value residual: vy(p) - vy(c) - g . (p - c) = (grad vy(xi) - g) . (p - c)
    grad = lift_tangent_iv(params, x_iv, vx_iv, box4[3])
    ex = grad[3, 0] - g1
    ev = grad[3, 1] - g2
    res = (ex * float(d1[0]) + ev * float(d1[1])) * da \
        + (ex * float(d2[0]) + ev * float(d2[1])) * db
    # the float lift misses the on-level vy of the center by a few ulps
    vy_off = lift_iv(params, Interval.point(center[0]), Interval.point(center[2]),
                     sign)[3] - center[3]
    res = (res + vy_off).hull(zero)
    r = IArray.from_intervals([da, db, zero, res])
    rc = IArray.from_intervals([zero, zero, zero, vy_off]) if center_box else None
    return LohnerSet.from_frame(center, frame, r, track_jacobian, rc), grad


def apply_parallelogram_rigorous(params: Params, tags: Sequence[MapTag],
                                 origin, d1, d2, a: Interval, b: Interval,
                                 sign: int,
                                 want_derivative: bool = False,
                                 want_center: bool = False) -> RigorousImage:
    """Rigorous image of a section parallelogram under a composite map.

    The support is ``{origin + alpha d1 + beta d2 : alpha in a, beta in b}``
    in section coordinates, with ``sign`` naming its section side.  One
    Lohner set is flown through the whole crossing sequence, so the
    intermediate sections introduce no re-boxing.  With ``want_derivative``
    the 2x2 interval derivative in section coordinates is included, built
    as ``pi (I - f e_y^T/vy) Dphi DT`` from the accumulated flow derivative
    ``Dphi = m rj``, with the projection applied to ``m`` before ``rj``.
    With ``want_center`` the set carries the lift of the cell center as its
    center box, and the image includes that point's crossing state.
    """
    origin = np.asarray(origin, dtype=np.float64)
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    signs = _chain_to_signs(tags, sign)
    lset, dt_cols = _lifted_cell(params, origin, d1, d2, a, b, sign,
                                 want_derivative, want_center)
    crossings, jac = lohner_section_crossings(params, lset, signs)
    final = crossings[-1]
    dp = None
    if want_derivative:
        st = final.state
        f_q = dynamics.vector_field_iv(params, st)
        # rows (x, vx) of (I - f e_y^T / vy) in one go
        fx = -f_q[0] / st[3]
        fv = -f_q[2] / st[3]
        proj = IArray([[1.0, fx.lo, 0.0, 0.0], [0.0, fv.lo, 1.0, 0.0]],
                       [[1.0, fx.hi, 0.0, 0.0], [0.0, fv.hi, 1.0, 0.0]])
        # the projection meets the thin factor before the box of the
        # accumulated derivative (see lohner_section_crossings)
        m, rj = jac
        dp = (proj @ m) @ (rj @ dt_cols)
    return RigorousImage(
        x=final.state[0], vx=final.state[2], state=final.state,
        t=final.t, dp=dp, offsets=(lset.r[0], lset.r[1]), center=final.center,
        stats=final.stats,
    )


# ----------------------------------------------------------------------
# Sign-change search along a line
# ----------------------------------------------------------------------


def _grid_brackets(grid, values) -> list[tuple[float, float, float, float]]:
    """Sign-change brackets of sampled values over a grid.

    ``values`` holds the value at each grid point, or None where the map
    failed; a failure splits the domain.  The values of a whole grid come
    from one lane flight (:func:`apply_chain_lanes`).
    """
    brackets = []
    prev_a = prev_v = None
    for a, v in zip(grid, values):
        a = float(a)
        if v is not None and prev_v is not None and (v == 0.0 or prev_v * v < 0.0):
            brackets.append((prev_a, a, prev_v, v))
        prev_a, prev_v = a, v
    return brackets


def _fix_r_scan(params: Params, tags: Sequence[MapTag],
                seed_at: Callable[[float], SectionPoint], grid: list[float],
                value: Callable[[float, object], float | None]):
    """Sign-change brackets of a value of flights from Fix(R) seeds.

    The seed ``seed_at(a)`` of each grid parameter ``a`` flies ``tags``;
    ``value(a, flown)`` reads the value of the flight's result, an image
    and its time or the :class:`~pcr3bp.errors.PCR3BPError` that stopped
    it, and gives None for a failure.  The grid flies as the lanes of one
    flight.  Returns the brackets (:func:`_grid_brackets`) and the value
    of one seed's flight, ``f(a)``, for :func:`_refine_bracket`.
    """
    flown = apply_chain_lanes(params, tags, [seed_at(a) for a in grid])
    brackets = _grid_brackets(grid, map(value, grid, flown))

    def f(a: float) -> float | None:
        try:
            flown = apply_chain(params, tags, seed_at(a))
        except PCR3BPError as exc:
            flown = exc
        return value(a, flown)

    return brackets, f


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
    ``Theta_-``/``P-`` (outer neck).  The orbit meets Fix(R)
    perpendicularly, so its point is a root of ``vx(Ph(x, 0))`` along the
    symmetry line, and the point returned is that root with ``vx = 0.0``
    exactly, the point a proof by interval Newton on Fix(R) starts from.
    One derivative flight of the full-return map there gives the period,
    the multipliers, the eigen-directions and the residual.

    Other symmetric families intersect the symmetry line as well, so the
    defect counts only where the flight (a) sits on the short-flight
    branch (half-map time at most ``HALF_TIME_CAP``) and (b) stays on one
    side of the second primary; elsewhere it is a failure, for the scan
    and the bracket refinement alike (:func:`_fix_r_scan`).  The Lyapunov
    orbit is the root of the bracket closest to the libration point,
    refined to adjacent floats by :func:`_refine_bracket` (one flight per
    evaluation, about ten in all), whose midpoint is returned.
    """
    sign = 1 if index == 1 else -1
    half = HALF_PLUS if index == 1 else HALF_MINUS
    full = FULL_PLUS if index == 1 else FULL_MINUS
    x_lib = dynamics.libration_point(params, index)
    x_primary = 1.0 - params.mu

    def on_branch(xv: float, flown) -> float | None:
        # the perpendicularity defect of a flight's result, None off the
        # Lyapunov branch
        if isinstance(flown, (DomainError, IntegrationError, TangencyError)):
            return None
        if isinstance(flown, PCR3BPError):
            raise flown
        img, t = flown
        same_side = (xv - x_primary) * (img.x - x_primary) > 0.0
        return img.vx if abs(t) <= HALF_TIME_CAP and same_side else None

    grid = (x_lib + np.linspace(-SCAN_RADIUS, SCAN_RADIUS, SCAN_POINTS)).tolist()
    brackets, defect = _fix_r_scan(
        params, [half], lambda xv: SectionPoint(xv, 0.0, sign), grid, on_branch)
    if not brackets:
        raise SearchError(
            f"no perpendicular Lyapunov crossing found near x={x_lib}"
        )
    lo, hi, flo, fhi = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - x_lib))
    refined = _refine_bracket(defect, lo, hi, flo, fhi, tol=0.0)
    if refined is None:
        raise SearchError(f"the Lyapunov branch breaks inside [{lo}, {hi}]")
    pt = SectionPoint(0.5 * (refined[0] + refined[1]), 0.0, sign)
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
