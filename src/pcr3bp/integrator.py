"""Adaptive Taylor integration, point mode and rigorous (Lohner) mode.

Point mode propagates N float states at once, the lanes of one (4, N)
state (:class:`PointFlow`), on the lane kernel of :mod:`pcr3bp.taylor`;
a single trajectory is the one-lane case, and a one-lane flow may carry
the variational matrix.  Each lane's step follows the decay of the last
two Taylor coefficients of its own series, and each accepted step keeps
its polynomials for dense output.  :mod:`pcr3bp.poincare` drives the
lanes through the section crossings.

Rigorous mode propagates a set ``{c + B r}`` with a point center ``c``, a
near-orthonormal point frame ``B`` and an interval box ``r`` (first-order
Lohner representation), forward in time and only to the section:
:func:`lohner_section_crossings` is the one driver of
:class:`LohnerFlow`.  (The proof needs no other flight: a backward
section image is the reversal of a forward one, see
:mod:`pcr3bp.poincare`.)  Every step:

1. validates an a-priori enclosure ``W`` of all trajectories over the step
   by Picard iteration, halving the step on failure;
2. encloses the center image by the interval Taylor polynomial of the center
   plus a Lagrange remainder built from the order-(N+1) coefficient over W;
3. encloses the one-step transition matrix by the interval variational
   series over the current hull (identity initial condition) plus its own
   Lagrange remainder over (W, WV), where WV is a Picard enclosure of the
   variational solutions;
4. re-anchors: new center = midpoint of the center image, new frame = Q
   factor of the transported frame, new box through one verified enclosure
   of the new frame's inverse (see :func:`pcr3bp.intervals._point_inverse`),
   which the center term and the transported frame share.  The center
   image and the transported frame are the same computation as the dense
   state enclosure below, and they give the step-end enclosure of the set
   that the crossing search reads; a center image that is not bounded is
   refused.

Steps 1-3 make one interval kernel call.  A step whose Lagrange remainder
exceeds ``REMAINDER_BUDGET`` is halved like one whose Picard test fails,
and the first W the Picard test accepts rides in one stacked
:func:`pcr3bp.taylor.iv_var_coeffs` call at order N+1 with the hull
(V(0) = I) and the center, whose series of step 2 and 3 are its rows
0..N.  When the flow's previous attempt missed the budget on its first
W, the call also carries W(h/2), flown ahead: a miss at h then takes it
without a call of its own.  A half step flown ahead that fails (in its
Picard loop, or refused by a guard) is dropped without an error, and
every later W is one call of its own.  The accepted steps are those of
one call per W: their kernel rows are the same bits.

Dense output inside a step evaluates the same polynomial + remainder data at
interval times, which is what the section-crossing localization uses to
bracket ``y = 0`` and read off sharp crossing states by a mean-value form.

Center box
----------
A set may carry one of its points apart from the rest: a point ``p0`` with
``p0 in c + bc rc``, a point frame ``bc`` and a box ``rc`` of its own that
share the float center ``c`` (the C^1 Lohner algorithm of Zgliczynski,
FoCM 2, 2002, carries the center as its own set in the same way).  A
covering check flies each cell once and reads the sharp image of the
cell's center from this box, where it would otherwise fly the center as a
second, zero-width set.

The center box needs no enclosure of its own.  ``p0`` lies in the set and
``c`` lies in its hull (``0 in r`` holds for every set the flights make:
the initial boxes contain zero and re-anchoring keeps it).  So ``W``
encloses the trajectory of ``p0`` over the step, the center series plus its
remainder encloses the image of ``c``, and the transition matrix ``Phi``
over the hull encloses the derivative of the flow on the segment from
``c`` to ``p0``.  By the mean-value theorem the image of ``p0`` lies in
``phi(c) + (Phi bc) rc``, which re-anchors like the set, in a frame of its
own: the Q factor of ``Phi bc`` sorted by the radii of ``rc``.  The set's
frame would do too, but it is sorted by the stretching of the set; on the
whole V3, G0 and V2 under one half map it wraps the center image 1.2 to
2.4 times wider.

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
* ``MAX_STEPS = 5000``: step attempts one rigorous flight (one
  :class:`LohnerFlow`) may make.  A flight that needs more, such as one
  whose validated steps shrink near a primary, is refused with an
  ``IntegrationError``.  The covering relations that can be flown with
  the bundled sets take at most 90 attempts between two section
  crossings, and no registered relation makes more than 13 crossings
  in one flight.
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
from .intervals import IArray, Interval
from .intervals import _dn, _point_inverse, _up, _wrap

__all__ = [
    "PointStep",
    "PointFlow",
    "flow_point",
    "LohnerSet",
    "LohnerStep",
    "LohnerFlow",
    "CrossingRecord",
    "lohner_section_crossings",
]


ORDER = 20
TOL = 1e-12
SAFETY = 0.9
H_MIN = 1e-9
H_MAX = 0.5
MAX_TIME = 50.0
MAX_STEPS = 5000
PICARD_ITERATIONS = 18
REMAINDER_BUDGET = 1e-10
BRACKET_TOL = 1e-11
TANGENCY_TOL = 1e-8
MIN_TIME = 1e-3


def _step_from_coeffs(coeffs: np.ndarray) -> float | list[float]:
    """Step-size heuristic from the decay of the top two coefficient rows.

    ``coeffs`` is (n+1, 4) for one state, giving one step, or (n+1, 4, N)
    for N lanes, giving a list of N steps.  The roots are Python's float
    ``**`` (libm ``pow``), lane by lane: numpy's vectorised power differs
    from it in the last bits, and a lane must step as its state alone does.
    """
    n = coeffs.shape[0] - 1
    norms = np.abs(coeffs[n - 1:]).max(axis=1).tolist()
    if coeffs.ndim == 2:
        return _step(n, norms)
    return [_step(n, pair) for pair in zip(*norms)]


def _step(n: int, norms) -> float:
    # the step rule for the max-norms of coefficient rows n-1 and n
    h = H_MAX
    for k, norm in zip((n - 1, n), norms):
        if norm > 0.0:
            h = min(h, (TOL / norm) ** (1.0 / k))
    return max(SAFETY * h, H_MIN)


# ----------------------------------------------------------------------
# Point mode
# ----------------------------------------------------------------------


@dataclass(slots=True)
class PointStep:
    """One accepted step of the lanes of a flow, with its dense polynomials.

    ``t0`` and ``h`` hold each lane's start time and step, ``coeffs`` the
    lanes' Taylor coefficients (n+1, 4, N) and ``vcoeffs`` the variational
    coefficients (n+1, 4, 4) of a one-lane flow that carries them.
    """

    t0: np.ndarray
    h: np.ndarray
    coeffs: np.ndarray
    vcoeffs: np.ndarray | None

    def state_at(self, tau) -> np.ndarray:
        """States (4, N) at step times ``tau``, one time or one per lane."""
        return taylor.horner_lanes(self.coeffs, tau)

    def jacobian_at(self, tau: float) -> np.ndarray:
        if self.vcoeffs is None:
            raise IntegrationError("step was taken without variational data")
        return taylor.horner_var_point(self.vcoeffs, tau)


class PointFlow:
    """Stepper for N float trajectories, the lanes of one (4, N) state.

    ``state`` is (4, N) and ``t`` holds the N lane times; a (4,) state
    makes one lane.  Each lane takes the step of its own coefficients
    (:func:`taylor.lane_coeffs`), so it flies as it would alone.  A
    one-lane flow may carry the variational matrix ``v``: its series is
    seeded with the accumulated matrix, so ``jacobian_at`` of a step
    already gives the derivative of the flow from time zero.
    """

    def __init__(self, params: Params, state, variational: bool = False):
        self.params = params
        state = np.array(state, dtype=np.float64)
        if state.shape[:1] != (4,) or state.ndim > 2:
            raise IntegrationError("state must have four components per lane")
        self.state = state.reshape(4, -1)
        if variational and self.state.shape[1] != 1:
            raise IntegrationError("only a one-lane flow carries the variational matrix")
        self.v = np.eye(4) if variational else None
        self.t = np.zeros(self.state.shape[1])

    def step(self, direction: float = 1.0, h_cap: float | None = None) -> PointStep:
        """Advance every lane by one step in the given time direction."""
        mu = self.params.mu
        if self.v is None:
            coeffs = taylor.lane_coeffs(self.state, mu, ORDER)
            vcoeffs = None
        else:
            coeffs, vcoeffs = taylor.point_var_coeffs(self.state[:, 0], self.v, mu, ORDER)
            coeffs = coeffs[:, :, None]
        h = np.array(_step_from_coeffs(coeffs))
        if h_cap is not None:
            h = np.minimum(h, h_cap)
        h = np.copysign(h, direction)
        rec = PointStep(self.t.copy(), h, coeffs, vcoeffs)
        self.state = rec.state_at(h)
        if vcoeffs is not None:
            self.v = rec.jacobian_at(h[0])
        self.t += h
        return rec

    def keep(self, lanes: np.ndarray) -> None:
        """Drop every lane but ``lanes`` (a mask or indices)."""
        self.state, self.t = self.state[:, lanes], self.t[lanes]


def flow_point(params: Params, state, t_final: float, variational: bool = False):
    """Integrate one state for a signed time ``t_final``; returns ``(state, V)``.

    ``V`` is None unless ``variational`` is set.
    """
    flow = PointFlow(params, state, variational=variational)
    direction = math.copysign(1.0, t_final)
    while True:
        rem = t_final - flow.t[0]
        if rem * direction <= 0.0:
            break
        flow.step(direction, h_cap=abs(rem))
    return flow.state[:, 0].copy(), flow.v


# ----------------------------------------------------------------------
# Rigorous mode
# ----------------------------------------------------------------------


def _stretch_sorted_frame(m_mid: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Orthonormal frame for the transported set, wrapping-optimized.

    Orthonormalizes the columns of the transported frame in decreasing order
    of how far the current box actually extends along them (column norm
    times the box radius ``radii`` of that column), so the leading frame
    directions track the dominant stretching; this keeps the triangular
    mixing factors small, which is what controls wrapping growth in the
    local coordinates.
    """
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
    interval matrix ``rj``.  The center box, when carried, encloses one
    point of the set by ``c + bc @ rc`` (see the module docstring).
    """

    c: np.ndarray
    b: np.ndarray
    r: IArray
    bj: np.ndarray | None = None
    rj: IArray | None = None
    bc: np.ndarray | None = None
    rc: IArray | None = None

    @classmethod
    def from_frame(cls, c, b, r: IArray, track_jacobian: bool = False,
                   center_box: IArray | None = None) -> "LohnerSet":
        """Set ``{c + b r}``; ``center_box`` is the ``rc`` of a point of it
        in the coordinate frame (``bc`` the identity)."""
        c = np.asarray(c, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        bj = np.eye(4) if track_jacobian else None
        rj = IArray.identity(4) if track_jacobian else None
        bc = np.eye(4) if center_box is not None else None
        return cls(c, b, r, bj, rj, bc, center_box)

    def hull(self) -> IArray:
        """Axis-aligned interval enclosure of the set."""
        return IArray.from_point(self.b) @ self.r + self.c

    def jacobian(self) -> IArray:
        if self.bj is None or self.rj is None:
            raise IntegrationError("set does not track the accumulated derivative")
        return IArray.from_point(self.bj) @ self.rj


@dataclass(slots=True)
class LohnerStep:
    """One validated step: dense data plus the re-anchored end set.

    ``c`` holds the Taylor coefficients of the center, ``ph`` those of the
    transition matrix over the hull, and ``rem``/``vrem`` the order-(N+1)
    coefficients of their Lagrange remainders.  ``end`` encloses the whole
    set at the end of the step.
    """

    t0: float
    h: float
    c: IArray
    rem: IArray
    ph: IArray
    vrem: IArray
    wy: Interval
    wvy: Interval
    set_before: LohnerSet
    set_after: LohnerSet
    end: IArray


class LohnerFlow:
    """Rigorous evolution of a :class:`LohnerSet`."""

    def __init__(self, params: Params, lset: LohnerSet):
        self.params = params
        self.lset = lset
        self.t = 0.0
        self._t_comp = 0.0
        self.attempts = 0
        # the last attempt's first kernel call missed the remainder budget
        self._pre_fly = False

    # -- elapsed time ---------------------------------------------------

    @property
    def elapsed(self) -> Interval:
        """Tight interval for the exact elapsed time of committed steps."""
        t = self.t + self._t_comp
        return Interval(_dn(t), _up(t))

    # -- stepping ---------------------------------------------------------

    def attempt_step(self, h_cap: float | None = None) -> LohnerStep:
        """Validate one forward step without committing it.

        The ``MAX_STEPS``-th attempt of a flow is its last.
        """
        self.attempts += 1
        if self.attempts > MAX_STEPS:
            raise IntegrationError(
                f"rigorous flight exceeded {MAX_STEPS} step attempts")
        params = self.params
        lset = self.lset
        hull = lset.hull()

        c_pt = taylor.point_coeffs(lset.c, params.mu, ORDER)
        h = _step_from_coeffs(c_pt)
        if h_cap is not None:
            h = min(h, h_cap)

        n = ORDER
        pre_fly, self._pre_fly = self._pre_fly, False
        shared = ahead = h_first = None
        while True:
            if ahead is not None:
                # the half step flown ahead: h was halved once since the first call
                (w, series), ahead = ahead, None
            else:
                w, wv = self._a_priori(hull, h)
                series = None
                if wv is not None and shared is None:
                    h_first = h
                    series, ahead, shared = self._first_call(
                        hull, w, wv, 0.5 * h if pre_fly else None)
                elif wv is not None:
                    series = taylor.iv_var_coeffs(w.lo, w.hi, wv.lo, wv.hi, params.mu, n + 1)
            if series is not None:
                rlo, rhi, vrlo, vrhi = series
                # realized Lagrange terms must stay within budget, otherwise
                # the wide a-priori box is poisoning the remainder
                hn = Interval.symmetric(h).pow_int(n + 1).mag
                rem_sz = max(abs(rlo[n + 1]).max(), abs(rhi[n + 1]).max()) * hn
                vrem_sz = max(abs(vrlo[n + 1]).max(), abs(vrhi[n + 1]).max()) * hn
                if rem_sz <= REMAINDER_BUDGET and vrem_sz <= REMAINDER_BUDGET:
                    break
                if h == h_first:
                    self._pre_fly = True
            h *= 0.5
            if h < H_MIN:
                raise EnclosureError("validated step size underflow")

        ph, c = shared
        rec = LohnerStep(
            t0=self.t, h=h,
            c=c, rem=_wrap(rlo[n + 1], rhi[n + 1]),
            ph=ph, vrem=_wrap(vrlo[n + 1], vrhi[n + 1]),
            wy=w[1], wvy=w[3],
            set_before=lset, set_after=lset, end=hull,
        )
        rec.set_after, rec.end = self._reanchor(rec, Interval.point(h))
        return rec

    def commit(self, rec: LohnerStep) -> None:
        self.lset = rec.set_after
        self.t, self._t_comp = _exact_add(self.t, self._t_comp, rec.h)

    # -- dense output -----------------------------------------------------

    def phi_at(self, rec: LohnerStep, tau: Interval) -> IArray:
        """Enclosure of the one-step transition matrix at times in ``tau``."""
        lo, hi = taylor.horner_var_iv(rec.ph.lo, rec.ph.hi, tau.lo, tau.hi)
        return _wrap(lo, hi) + rec.vrem.scale(tau.pow_int(ORDER + 1))

    def enclosure_at(self, rec: LohnerStep, tau: Interval,
                     of_center: bool = False) -> IArray:
        """State enclosure at step times in ``tau`` of the whole set, or
        with ``of_center`` of the point its center box holds."""
        center, phi = self._transport(rec, tau)
        before = rec.set_before
        b, r = (before.bc, before.rc) if of_center else (before.b, before.r)
        return center + (phi @ IArray.from_point(b)) @ r

    # -- internals ----------------------------------------------------------

    def _transport(self, rec: LohnerStep, tau: Interval) -> tuple[IArray, IArray]:
        """Center image and transition matrix at ``tau``."""
        lo, hi = taylor.horner_iv(rec.c.lo, rec.c.hi, tau.lo, tau.hi)
        center = _wrap(lo, hi) + rec.rem.scale(tau.pow_int(ORDER + 1))
        return center, self.phi_at(rec, tau)

    def _a_priori(self, hull: IArray, h: float) -> tuple[IArray | None, IArray | None]:
        """A-priori enclosures (W, WV) over a step of ``h``; None where Picard fails."""
        span = Interval(0.0, h)
        w = self._rough_enclosure(hull, span)
        return w, (self._rough_var_enclosure(w, span) if w is not None else None)

    def _first_call(self, hull: IArray, w: IArray, wv: IArray, h_half: float | None):
        """The attempt's first kernel call, for W, the hull and the centre at once.

        One stacked :func:`taylor.iv_var_coeffs` call at order ``ORDER + 1``
        carries W with V(0) in WV; with ``h_half``, the a-priori pair of
        that half step, flown ahead in case the remainder budget halves the
        step; the hull with V(0) = I; and the centre.  A half step whose
        Picard loop fails, or that a guard refuses, is dropped: the step
        then flies it as it would have without it.  Returns the series of
        W, (W, series) of the half step or None, and the step's (ph, c)
        from rows 0..ORDER of the hull and the centre.
        """
        pairs = [(w, wv)]
        if h_half is not None:
            try:
                half = self._a_priori(hull, h_half)
            except SingularityError:  # the Jacobian guard
                half = (None, None)
            if half[1] is not None:
                pairs.append(half)
        eye = np.eye(4)
        c = self.lset.c
        try:
            clo, chi, vlo, vhi = taylor.iv_var_coeffs(
                np.array([p.lo for p, _ in pairs] + [hull.lo, c]),
                np.array([p.hi for p, _ in pairs] + [hull.hi, c]),
                np.array([v.lo for _, v in pairs] + [eye]),
                np.array([v.hi for _, v in pairs] + [eye]), self.params.mu, ORDER + 1)
        except SingularityError:
            # the hull and the centre lie in W, so only W itself or the
            # half step can reach the guard radius
            if len(pairs) == 1:
                raise
            return self._first_call(hull, w, wv, None)
        rows = ORDER + 1
        series = [(clo[i], chi[i], vlo[i], vhi[i]) for i in range(len(pairs))]
        ahead = (pairs[1][0], series[1]) if len(pairs) == 2 else None
        shared = (_wrap(vlo[-1, :rows], vhi[-1, :rows]),
                  _wrap(clo[-1, :rows], chi[-1, :rows]))
        return series[0], ahead, shared

    def _rough_enclosure(self, hull: IArray, span: Interval) -> IArray | None:
        def image(box: IArray) -> IArray:
            return hull + dynamics.vector_field_iv(self.params, box).scale(span)

        try:
            guess = image(hull)
            return _picard(image, guess.inflate(0.1 * guess.max_width() + 1e-14))
        except SingularityError:
            return None

    def _rough_var_enclosure(self, w: IArray, span: Interval) -> IArray | None:
        ident = IArray.identity(4)
        a = dynamics.vector_field_jacobian_iv(self.params, w)
        return _picard(lambda m: ident + (a @ m).scale(span), ident.inflate(1e-6))

    def _reanchor(self, rec: LohnerStep, tau: Interval) -> tuple[LohnerSet, IArray]:
        """The set at ``tau`` re-anchored, and its enclosure there."""
        before = rec.set_before
        phic, phi = self._transport(rec, tau)
        c_new = phic.mid
        if not np.isfinite(c_new).all():
            raise EnclosureError(f"the center image {phic} is not bounded")
        m = phi @ IArray.from_point(before.b)
        b_new, r_new = _carry(phic, c_new, m, before.r)
        bc_new = rc_new = None
        if before.rc is not None:
            bc_new, rc_new = _carry(phic, c_new, phi @ IArray.from_point(before.bc),
                                    before.rc)
        bj_new = rj_new = None
        if before.bj is not None:
            mj = phi @ IArray.from_point(before.bj)
            # the largest row spread of rj is the common column scale
            radii = 0.5 * np.max(before.rj.hi - before.rj.lo, axis=1)
            bj_new = _stretch_sorted_frame(mj.mid, radii)
            rj_new = (_point_inverse(bj_new) @ mj) @ before.rj
        after = LohnerSet(c_new, b_new, r_new, bj_new, rj_new, bc_new, rc_new)
        return after, phic + m @ before.r


def _picard(image, guess: IArray) -> IArray | None:
    """Inflate-and-retry Picard iteration for an a-priori enclosure.

    Returns ``image(image(img))`` for the first ``img = image(guess)``
    inside its ``guess`` (two more passes tighten it), inflating ``img``
    into the next guess, or None after ``PICARD_ITERATIONS`` passes.
    """
    for _ in range(PICARD_ITERATIONS):
        img = image(guess)
        if img.is_subset(guess):
            return image(image(img))
        guess = img.inflate(0.05 * img.max_width() + 1e-14)
    return None


def _carry(phic: IArray, c_new: np.ndarray, m: IArray,
           r: IArray) -> tuple[np.ndarray, IArray]:
    """Frame and box of ``phic + m r`` about the new center ``c_new``."""
    b_new = _stretch_sorted_frame(m.mid, 0.5 * r.width)
    inv = _point_inverse(b_new)
    return b_new, inv @ (phic - c_new) + (inv @ m) @ r


# ----------------------------------------------------------------------
# Section-crossing localization (section {y = 0})
# ----------------------------------------------------------------------


@dataclass(slots=True)
class CrossingRecord:
    """Enclosure of one transversal section crossing of a whole set.

    ``center`` encloses the crossing state of the point the set's center
    box holds; it is filled at the last crossing of a set that carries one.
    """

    t: Interval
    state: IArray
    vy_sign: int
    center: IArray | None = None


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
    want_jacobian: bool = False,
):
    """Flow a set forward through ``y = 0`` crossings with given vy signs.

    ``signs`` lists the required sign of ``vy`` at each awaited crossing, in
    the order they are met.  Returns ``(crossings, jac)`` where ``jac`` (when
    requested) encloses the derivative of the flow-to-final-crossing map,
    i.e. ``Dphi(t*(p), p)`` for every initial point ``p`` — the caller adds
    the section projection and lift factors.  When the set carries a center
    box, the last crossing also locates the crossing of the center box's
    point, from the same steps.
    """
    if not signs or any(s not in (-1, 1) for s in signs):
        raise IntegrationError("signs must be a non-empty list of +1/-1")
    if want_jacobian and lset.bj is None:
        lset = replace(lset, bj=np.eye(4), rj=IArray.identity(4))
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
        if flow.t > MAX_TIME:
            raise HorizonError(
                f"no section crossing within the time horizon {MAX_TIME}"
            )
        rec = flow.attempt_step(h_cap)
        if rec.t0 + rec.h < MIN_TIME:
            flow.commit(rec)
            continue
        y_end = rec.end[1]
        side_end = _strict_sign(y_end)
        if prev_side is None:
            if side_end is None:
                h_cap = halve_or_fail(
                    rec.h,
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
                    rec.h, "cannot exclude a hidden crossing pair in a step"
                )
                continue
            flow.commit(rec)
            h_cap = None
            continue
        if side_end is None:
            h_cap = halve_or_fail(
                rec.h, "section crossing cannot be separated (near-tangency)"
            )
            continue

        # a guaranteed crossing inside this step
        last = len(crossings) == len(signs) - 1
        crossing, jac = _refine_crossing(flow, rec, prev_side,
                                         want_jacobian and last)
        expected = signs[len(crossings)]
        if crossing.vy_sign != expected:
            raise IntegrationError(
                f"crossing {len(crossings)} has vy sign {crossing.vy_sign}, "
                f"expected {expected}"
            )
        crossings.append(crossing)
        if last:
            if rec.set_before.rc is not None:
                # the center box's point lies in the set, so it crosses in
                # this step too
                crossing.center = _refine_crossing(
                    flow, rec, prev_side, False, of_center=True)[0].state
            return crossings, jac
        prev_side = side_end
        flow.commit(rec)
        h_cap = None


def _refine_crossing(flow: LohnerFlow, rec: LohnerStep, before_side: int,
                     want_jacobian: bool, of_center: bool = False):
    """Crossing of the set inside the step, or with ``of_center`` of the
    point its center box holds."""
    sa, sb = 0.0, 1.0
    for _ in range(90):
        if (sb - sa) * rec.h < BRACKET_TOL:
            break
        sm = 0.5 * (sa + sb)
        y_iv = flow.enclosure_at(rec, Interval.point(sm * rec.h), of_center)[1]
        side = _strict_sign(y_iv)
        if side == before_side:
            sa = sm
        elif side == -before_side:
            sb = sm
        else:
            break
    tau = Interval(sa * rec.h, sb * rec.h)
    st = flow.enclosure_at(rec, tau, of_center)
    vy = st[3]
    if vy.mig < TANGENCY_TOL or vy.contains_zero():
        raise TangencyError(
            f"vy enclosure {vy} over the crossing bracket is not transversal"
        )
    vy_sign = 1 if vy.lo > 0.0 else -1

    # mean-value sharpening around the bracket midpoint
    tm = tau.mid
    st_mid = flow.enclosure_at(rec, Interval.point(tm), of_center)
    f_env = dynamics.vector_field_iv(flow.params, st)
    dt = tau - tm
    sharp = [
        (st_mid[i] + f_env[i] * dt).intersection(st[i]) for i in range(4)
    ]
    state_cross = IArray.from_intervals(sharp)
    t_abs = flow.elapsed + tau

    jac = None
    if want_jacobian:
        jac = flow.phi_at(rec, tau) @ rec.set_before.jacobian()
    return CrossingRecord(t=t_abs, state=state_cross, vy_sign=vy_sign), jac
