"""Adaptive Taylor integration, point mode and rigorous (Lohner) mode.

Point mode propagates float states (optionally with the variational matrix)
using the compiled coefficient kernels; the step size follows the decay of
the last two Taylor coefficients and each accepted step keeps its polynomial
for dense output.

Rigorous mode propagates a set ``{c + B r}`` with a point center ``c``, a
near-orthonormal point frame ``B`` and an interval box ``r`` (first-order
Lohner representation).  Every step:

1. validates an a-priori enclosure ``W`` of all trajectories over the step
   by Picard iteration, halving the step on failure;
2. encloses the center image by the interval Taylor polynomial of the center
   plus a Lagrange remainder built from the order-(N+1) coefficient over W;
3. encloses the one-step transition matrix by the interval variational
   series over the current hull (identity initial condition) plus its own
   Lagrange remainder over (W, WV), where WV is a Picard enclosure of the
   variational solutions;
4. re-anchors: new center = midpoint of the center image, new frame = Q
   factor of the transported frame, new box via rigorous Gaussian solves.

Dense output inside a step evaluates the same polynomial + remainder data at
interval times, which is what the section-crossing localization uses to
bracket ``y = 0`` and read off sharp crossing states by a mean-value form.

Settings
--------
The module constants are the only settings, and every run of the proof
uses them: they are the defaults the package was first written with, and
all verdicts, margins and widths in CHANGES.md and the benchmark records
were computed with them.  Functions read them at call time, so a test can
change one with ``monkeypatch.setattr``.

* ``ORDER = 20``: Taylor order of every step, point and rigorous; the
  remainder uses the order-21 coefficients.
* ``TOL = 1e-12``, ``SAFETY = 0.9``, ``H_MAX = 0.5``: the step rule of
  Jorba & Zou (Exp. Math. 14, 2005), ``h = SAFETY * min_k (TOL /
  |a_k|)^(1/k)`` over the top two coefficient rows, capped at ``H_MAX``
  (also the step when both rows vanish).
* ``H_MIN = 1e-9``: the step floor.  The step rule proposes no less; a
  rigorous step that must halve below it, or a crossing that cannot be
  separated above it, is refused with an error instead of continued.
* ``PICARD_ITERATIONS = 18``: inflate-and-retry passes allowed for the
  a-priori enclosures before the step is halved.
* ``REMAINDER_BUDGET = 1e-10``: the largest Lagrange remainder (state and
  variational) a rigorous step may keep, 100 times ``TOL``; a larger one
  means the a-priori box is too wide, so the step is halved.
* ``MAX_TIME = 50.0``: time horizon of one section flight.
* ``MIN_TIME = 1e-3``: sign changes of ``y`` before this time belong to
  the departure from the section and are not crossings.
* ``BRACKET_TOL = 1e-11``: time width at which the bisection of a rigorous
  crossing bracket stops.
* ``TANGENCY_TOL = 1e-8``: least ``|vy|`` accepted at a crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, taylor
from .dynamics import Params
from .errors import (
    EnclosureError,
    HorizonError,
    IntegrationError,
    SingularityError,
    TangencyError,
)
from .intervals import IMatrix, Interval, IVector, gauss_solve, gauss_solve_mat
from .intervals import _dn, _up

__all__ = [
    "PointStep",
    "PointFlow",
    "flow_point",
    "LohnerSet",
    "LohnerStep",
    "LohnerFlow",
    "flow_box",
    "CrossingRecord",
    "lohner_section_crossings",
]


ORDER = 20
TOL = 1e-12
SAFETY = 0.9
H_MIN = 1e-9
H_MAX = 0.5
MAX_TIME = 50.0
PICARD_ITERATIONS = 18
REMAINDER_BUDGET = 1e-10
BRACKET_TOL = 1e-11
TANGENCY_TOL = 1e-8
MIN_TIME = 1e-3


def _step_from_coeffs(coeffs: np.ndarray) -> float:
    """Step-size heuristic from the decay of the top two coefficient rows."""
    n = coeffs.shape[0] - 1
    h = H_MAX
    for k in (n - 1, n):
        norm = float(np.max(np.abs(coeffs[k])))
        if norm > 0.0:
            h = min(h, (TOL / norm) ** (1.0 / k))
    return max(SAFETY * h, H_MIN)


# ----------------------------------------------------------------------
# Point mode
# ----------------------------------------------------------------------


@dataclass(slots=True)
class PointStep:
    """One accepted step with its dense Taylor polynomial."""

    t0: float
    h: float
    coeffs: np.ndarray
    vcoeffs: np.ndarray | None

    def state_at(self, tau: float) -> np.ndarray:
        return taylor.horner_point(self.coeffs, tau)

    def jacobian_at(self, tau: float) -> np.ndarray:
        if self.vcoeffs is None:
            raise IntegrationError("step was taken without variational data")
        return taylor.horner_var_point(self.vcoeffs, tau)


class PointFlow:
    """Stepper for float trajectories with optional variational matrix.

    The variational series of each step is seeded with the accumulated
    matrix, so ``jacobian_at`` of a step already gives the derivative of the
    flow from time zero.
    """

    def __init__(self, params: Params, state, variational: bool = False):
        self.params = params
        self.state = np.array(state, dtype=np.float64)
        if self.state.shape != (4,):
            raise IntegrationError("state must have four components")
        self.v = np.eye(4) if variational else None
        self.t = 0.0

    def step(self, direction: float = 1.0, h_cap: float | None = None,
             h_force: float | None = None) -> PointStep:
        """Advance by one step in the given time direction."""
        if self.v is None:
            coeffs = taylor.point_coeffs(self.state, self.params.mu, ORDER)
            vcoeffs = None
        else:
            coeffs, vcoeffs = taylor.point_var_coeffs(
                self.state, self.v, self.params.mu, ORDER
            )
        if h_force is not None:
            h = h_force
        else:
            h = _step_from_coeffs(coeffs)
            if h_cap is not None:
                h = min(h, h_cap)
        h = math.copysign(h, direction)
        rec = PointStep(self.t, h, coeffs, vcoeffs)
        self._land(rec, h)
        return rec

    def _land(self, rec: PointStep, tau: float) -> None:
        self.state = rec.state_at(tau)
        if rec.vcoeffs is not None:
            self.v = rec.jacobian_at(tau)
        self.t = rec.t0 + tau

    def rewind_to(self, rec: PointStep, tau: float) -> None:
        """Re-land on an interior time of the given step (event handling)."""
        self._land(rec, tau)


def flow_point(params: Params, state, t_final: float, variational: bool = False):
    """Integrate for a signed time ``t_final``; returns ``(state, V)``.

    ``V`` is None unless ``variational`` is set.
    """
    flow = PointFlow(params, state, variational=variational)
    if t_final == 0.0:
        return flow.state.copy(), flow.v
    direction = math.copysign(1.0, t_final)
    while True:
        rem = t_final - flow.t
        if rem * direction <= 0.0:
            break
        flow.step(direction, h_cap=abs(rem))
    return flow.state.copy(), flow.v


# ----------------------------------------------------------------------
# Rigorous mode
# ----------------------------------------------------------------------


def _stretch_sorted_frame(m_mid: np.ndarray, r) -> np.ndarray:
    """Orthonormal frame for the transported set, wrapping-optimized.

    Orthonormalizes the columns of the transported frame in decreasing order
    of how far the current box actually extends along them (column norm
    times box radius), so the leading frame directions track the dominant
    stretching; this keeps the triangular mixing factors small, which is
    what controls wrapping growth in the local coordinates.
    """
    if isinstance(r, IVector):
        radii = 0.5 * r.width
    else:  # IMatrix: use the largest row spread as a common column scale
        radii = 0.5 * np.max(r.hi - r.lo, axis=1)
    radii = np.where(radii > 0.0, radii, np.max(radii) * 1e-6 + 1e-300)
    scaled = m_mid * radii[np.newaxis, :]
    order = np.argsort(-np.linalg.norm(scaled, axis=0))
    q, _ = np.linalg.qr(scaled[:, order])
    if abs(np.linalg.det(q)) < 0.5:  # degenerate transported frame
        q, _ = np.linalg.qr(m_mid)
    return q


def _exact_add(t: float, comp: float, h: float) -> tuple[float, float]:
    # double-double accumulation of elapsed time; keeps the pair t + comp an
    # exact representation of the sum of committed steps
    s = t + h
    bb = s - t
    err = (t - (s - bb)) + (h - bb)
    comp = comp + err
    s2 = s + comp
    comp = comp + (s - s2)
    return s2, comp


@dataclass(slots=True)
class LohnerSet:
    """Set representation ``{c + B r}`` with optional accumulated derivative.

    The derivative of the flow from the initial time, when tracked, is
    enclosed by the product ``bj @ rj`` with a point frame ``bj`` and an
    interval matrix ``rj``.
    """

    c: np.ndarray
    b: np.ndarray
    r: IVector
    bj: np.ndarray | None = None
    rj: IMatrix | None = None

    @classmethod
    def from_box(cls, box: IVector, track_jacobian: bool = False) -> "LohnerSet":
        c = box.mid
        return cls.from_frame(c, np.eye(4), box - c, track_jacobian)

    @classmethod
    def from_frame(cls, c, b, r: IVector, track_jacobian: bool = False) -> "LohnerSet":
        c = np.asarray(c, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        bj = np.eye(4) if track_jacobian else None
        rj = IMatrix.identity(4) if track_jacobian else None
        return cls(c, b, r, bj, rj)

    def hull(self) -> IVector:
        """Axis-aligned interval enclosure of the set."""
        return IMatrix.from_point(self.b) @ self.r + self.c

    def jacobian(self) -> IMatrix:
        if self.bj is None or self.rj is None:
            raise IntegrationError("set does not track the accumulated derivative")
        return IMatrix.from_point(self.bj) @ self.rj


@dataclass(slots=True)
class LohnerStep:
    """One validated step: dense data plus the re-anchored end set."""

    t0: float
    h: float
    clo: np.ndarray
    chi: np.ndarray
    remlo: np.ndarray
    remhi: np.ndarray
    phlo: np.ndarray
    phhi: np.ndarray
    vremlo: np.ndarray
    vremhi: np.ndarray
    wy: Interval
    wvy: Interval
    set_before: LohnerSet
    set_after: LohnerSet


class LohnerFlow:
    """Rigorous evolution of a :class:`LohnerSet`."""

    def __init__(self, params: Params, lset: LohnerSet):
        self.params = params
        self.lset = lset
        self.t = 0.0
        self._t_comp = 0.0

    # -- elapsed time ---------------------------------------------------

    @property
    def elapsed(self) -> Interval:
        """Tight interval for the exact elapsed time of committed steps."""
        t = self.t + self._t_comp
        return Interval(_dn(t), _up(t))

    # -- stepping ---------------------------------------------------------

    def attempt_step(self, direction: float, h_cap: float | None = None,
                     h_force: Interval | None = None) -> LohnerStep:
        """Validate one candidate step without committing it.

        ``h_force`` requests an exact (interval) step length, used to land on
        a prescribed final time; Picard failure then raises instead of
        shrinking.
        """
        params = self.params
        lset = self.lset
        hull = lset.hull()

        if h_force is not None:
            h = h_force.mag
        else:
            c_pt = taylor.point_coeffs(lset.c, params.mu, ORDER)
            h = _step_from_coeffs(c_pt)
            if h_cap is not None:
                h = min(h, h_cap)

        n = ORDER
        while True:
            span = Interval(0.0, h) if direction > 0 else Interval(-h, 0.0)
            w = self._rough_enclosure(hull, span)
            wv = self._rough_var_enclosure(w, span) if w is not None else None
            if wv is not None:
                rlo, rhi, vrlo, vrhi = taylor.iv_var_coeffs(
                    w.lo, w.hi, wv.lo, wv.hi, params.mu, n + 1
                )
                # realized Lagrange terms must stay within budget, otherwise
                # the wide a-priori box is poisoning the remainder
                hn = Interval.symmetric(h).pow_int(n + 1).mag
                rem_sz = max(abs(rlo[n + 1]).max(), abs(rhi[n + 1]).max()) * hn
                vrem_sz = max(abs(vrlo[n + 1]).max(), abs(vrhi[n + 1]).max()) * hn
                if rem_sz <= REMAINDER_BUDGET and vrem_sz <= REMAINDER_BUDGET:
                    break
            if h_force is not None:
                raise EnclosureError(
                    f"no validated enclosure for the forced step {h_force}"
                )
            h *= 0.5
            if h < H_MIN:
                raise EnclosureError("validated step size underflow")

        hs = math.copysign(h, direction)
        clo, chi = taylor.iv_coeffs(lset.c, lset.c, params.mu, n)
        _, _, phlo, phhi = taylor.iv_var_coeffs(
            hull.lo, hull.hi, np.eye(4), np.eye(4), params.mu, n
        )
        rec = LohnerStep(
            t0=self.t, h=hs,
            clo=clo, chi=chi, remlo=rlo[n + 1], remhi=rhi[n + 1],
            phlo=phlo, phhi=phhi, vremlo=vrlo[n + 1], vremhi=vrhi[n + 1],
            wy=w[1], wvy=w[3],
            set_before=lset, set_after=lset,
        )
        tau = h_force if h_force is not None else Interval.point(hs)
        rec.set_after = self._reanchor(rec, tau)
        return rec

    def commit(self, rec: LohnerStep) -> None:
        self.lset = rec.set_after
        self.t, self._t_comp = _exact_add(self.t, self._t_comp, rec.h)

    # -- dense output -----------------------------------------------------

    def phi_at(self, rec: LohnerStep, tau: Interval) -> IMatrix:
        """Enclosure of the one-step transition matrix at times in ``tau``."""
        lo, hi = taylor.horner_var_iv(rec.phlo, rec.phhi, tau.lo, tau.hi)
        tpow = tau.pow_int(ORDER + 1)
        return IMatrix(lo, hi) + IMatrix(rec.vremlo, rec.vremhi).scale(tpow)

    def enclosure_at(self, rec: LohnerStep, tau: Interval) -> IVector:
        """State enclosure of the whole set at step times in ``tau``."""
        lo, hi = taylor.horner_iv(rec.clo, rec.chi, tau.lo, tau.hi)
        tpow = tau.pow_int(ORDER + 1)
        center = IVector(lo, hi) + IVector(rec.remlo, rec.remhi).scale(tpow)
        before = rec.set_before
        m = self.phi_at(rec, tau) @ IMatrix.from_point(before.b)
        return center + (m @ before.r)

    # -- internals ----------------------------------------------------------

    def _rough_enclosure(self, hull: IVector, span: Interval) -> IVector | None:
        params = self.params
        try:
            guess = hull + dynamics.vector_field_iv(params, hull).scale(span)
            guess = guess.inflate(0.1 * guess.max_width() + 1e-14)
            for _ in range(PICARD_ITERATIONS):
                img = hull + dynamics.vector_field_iv(params, guess).scale(span)
                if img.is_subset(guess):
                    # two more Picard passes tighten the enclosure
                    img = hull + dynamics.vector_field_iv(params, img).scale(span)
                    return hull + dynamics.vector_field_iv(params, img).scale(span)
                guess = img.inflate(0.05 * img.max_width() + 1e-14)
        except SingularityError:
            return None
        return None

    def _rough_var_enclosure(self, w: IVector, span: Interval) -> IMatrix | None:
        ident = IMatrix.identity(4)
        a = dynamics.vector_field_jacobian_iv(self.params, w)
        guess = ident.inflate(1e-6)
        for _ in range(PICARD_ITERATIONS):
            img = ident + (a @ guess).scale(span)
            if img.is_subset(guess):
                img = ident + (a @ img).scale(span)
                return ident + (a @ img).scale(span)
            guess = img.inflate(0.05 * img.max_width() + 1e-14)
        return None

    def _reanchor(self, rec: LohnerStep, tau: Interval) -> LohnerSet:
        before = rec.set_before
        lo, hi = taylor.horner_iv(rec.clo, rec.chi, tau.lo, tau.hi)
        tpow = tau.pow_int(ORDER + 1)
        phic = IVector(lo, hi) + IVector(rec.remlo, rec.remhi).scale(tpow)
        phi = self.phi_at(rec, tau)
        m = phi @ IMatrix.from_point(before.b)
        c_new = phic.mid
        b_new = _stretch_sorted_frame(m.mid, before.r)
        r_new = gauss_solve(b_new, phic - c_new) + (
            gauss_solve_mat(b_new, m) @ before.r
        )
        bj_new = rj_new = None
        if before.bj is not None:
            mj = phi @ IMatrix.from_point(before.bj)
            bj_new = _stretch_sorted_frame(mj.mid, before.rj)
            rj_new = gauss_solve_mat(bj_new, mj) @ before.rj
        return LohnerSet(c_new, b_new, r_new, bj_new, rj_new)


def flow_box(params: Params, lset: LohnerSet, t_final: float) -> LohnerSet:
    """Rigorously flow a set for the signed time ``t_final``."""
    if t_final == 0.0:
        return lset
    flow = LohnerFlow(params, lset)
    direction = math.copysign(1.0, t_final)
    while True:
        rem_iv = Interval.point(t_final) - flow.elapsed
        rem = rem_iv.mid
        if rem * direction <= 0.0:
            raise IntegrationError("overshot the requested final time")
        # land exactly once the proposed step would reach the target
        probe = taylor.point_coeffs(flow.lset.c, params.mu, ORDER)
        h_prop = _step_from_coeffs(probe)
        if h_prop >= abs(rem):
            try:
                rec = flow.attempt_step(direction, h_force=rem_iv)
            except EnclosureError:
                rec = flow.attempt_step(direction, h_cap=abs(rem) * 0.5)
                flow.commit(rec)
                continue
            flow.commit(rec)
            return flow.lset
        rec = flow.attempt_step(direction, h_cap=abs(rem))
        flow.commit(rec)
        if abs(flow.t) > MAX_TIME + abs(t_final):
            raise HorizonError("rigorous flow exceeded its time horizon")


# ----------------------------------------------------------------------
# Section-crossing localization (section {y = 0})
# ----------------------------------------------------------------------


@dataclass(slots=True)
class CrossingRecord:
    """Enclosure of one transversal section crossing of a whole set."""

    t: Interval
    state: IVector
    vy_sign: int


def _strict_sign(iv: Interval) -> int | None:
    if iv.lo > 0.0:
        return 1
    if iv.hi < 0.0:
        return -1
    return None


def lohner_section_crossings(
    params: Params,
    lset: LohnerSet,
    signs: list[int],
    direction: float = 1.0,
    want_jacobian: bool = False,
):
    """Flow a set through successive ``y = 0`` crossings with given vy signs.

    ``signs`` lists the required sign of ``vy`` at each awaited crossing, in
    integration order.  Returns ``(crossings, jac)`` where ``jac`` (when
    requested) encloses the derivative of the flow-to-final-crossing map,
    i.e. ``Dphi(t*(p), p)`` for every initial point ``p`` — the caller adds
    the section projection and lift factors.
    """
    if not signs or any(s not in (-1, 1) for s in signs):
        raise IntegrationError("signs must be a non-empty list of +1/-1")
    if want_jacobian and lset.bj is None:
        lset = replace(lset, bj=np.eye(4), rj=IMatrix.identity(4))
    flow = LohnerFlow(params, lset)
    crossings: list[CrossingRecord] = []
    prev_side: int | None = None
    h_cap: float | None = None

    def halve_or_fail(h: float, why: str) -> float:
        cap = h * 0.5
        if cap < H_MIN:
            raise TangencyError(why)
        return cap

    while True:
        if abs(flow.t) > MAX_TIME:
            raise HorizonError(
                f"no section crossing within the time horizon {MAX_TIME}"
            )
        rec = flow.attempt_step(direction, h_cap=h_cap)
        t_end = abs(rec.t0 + rec.h)
        if t_end < MIN_TIME:
            flow.commit(rec)
            continue
        y_end = flow.enclosure_at(rec, Interval.point(rec.h))[1]
        side_end = _strict_sign(y_end)
        if prev_side is None:
            if side_end is None:
                h_cap = halve_or_fail(
                    abs(rec.h),
                    "cannot separate the set from the section at watch start",
                )
                continue
            prev_side = side_end
            flow.commit(rec)
            h_cap = None
            continue
        if side_end == prev_side:
            # Monotonicity guard: with equal strict sides a crossing pair could
            # still hide inside the step unless either y or vy is sign-definite
            # over the a-priori enclosure of the whole step.
            if rec.wy.contains_zero() and rec.wvy.contains_zero():
                h_cap = halve_or_fail(
                    abs(rec.h), "cannot exclude a hidden crossing pair in a step"
                )
                continue
            flow.commit(rec)
            h_cap = None
            continue
        if side_end is None:
            h_cap = halve_or_fail(
                abs(rec.h), "section crossing cannot be separated (near-tangency)"
            )
            continue

        # a guaranteed crossing inside this step
        crossing, jac = _refine_crossing(
            flow, rec, prev_side, want_jacobian and len(crossings) == len(signs) - 1
        )
        expected = signs[len(crossings)]
        if crossing.vy_sign != expected:
            raise IntegrationError(
                f"crossing {len(crossings)} has vy sign {crossing.vy_sign}, "
                f"expected {expected}"
            )
        crossings.append(crossing)
        if len(crossings) == len(signs):
            return crossings, jac
        prev_side = side_end
        flow.commit(rec)
        h_cap = None


def _refine_crossing(flow: LohnerFlow, rec: LohnerStep, before_side: int,
                     want_jacobian: bool):
    sa, sb = 0.0, 1.0
    for _ in range(90):
        if (sb - sa) * abs(rec.h) < BRACKET_TOL:
            break
        sm = 0.5 * (sa + sb)
        y_iv = flow.enclosure_at(rec, Interval.point(sm * rec.h))[1]
        side = _strict_sign(y_iv)
        if side == before_side:
            sa = sm
        elif side == -before_side:
            sb = sm
        else:
            break
    ta, tb = sa * rec.h, sb * rec.h
    tau = Interval(min(ta, tb), max(ta, tb))
    st = flow.enclosure_at(rec, tau)
    vy = st[3]
    if vy.mig < TANGENCY_TOL or vy.contains_zero():
        raise TangencyError(
            f"vy enclosure {vy} over the crossing bracket is not transversal"
        )
    vy_sign = 1 if vy.lo > 0.0 else -1

    # mean-value sharpening around the bracket midpoint
    tm = tau.mid
    st_mid = flow.enclosure_at(rec, Interval.point(tm))
    f_env = dynamics.vector_field_iv(flow.params, st)
    dt = tau - tm
    sharp = [
        (st_mid[i] + f_env[i] * dt).intersection(st[i]) for i in range(4)
    ]
    state_cross = IVector.from_intervals(sharp)
    t_abs = flow.elapsed + tau

    jac = None
    if want_jacobian:
        jac = flow.phi_at(rec, tau) @ rec.set_before.jacobian()
    return CrossingRecord(t=t_abs, state=state_cross, vy_sign=vy_sign), jac
