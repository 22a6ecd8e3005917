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
   by Picard iteration, shortening the step on failure (below);
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

Steps 1-3 make one interval kernel call per W the Picard test accepts:
W rides in one stacked :func:`pcr3bp.taylor.iv_var_coeffs` call at order
N+1 with the hull (V(0) = I) and the center, whose series of steps 2 and
3 are its rows 0..N.  A W whose remainder misses the budget takes the
hull and the center with it, and the next W runs them again.  Each box of
a stack gets the bits of its own call.

Steps are sized from the realized remainder, as in validated Taylor
solvers (Nedialkov, Jackson & Corliss, Appl. Math. Comput. 105, 1999;
CAPD::DynSys): with ``rem`` the larger Lagrange term (state or
variational) of the last validated step ``h``, the first try is
``h SAFETY (TOL / rem)^(1/(N+1))``, so it validates as a rule; the point
rule's step is tried only by a flow's first attempt and after a zero
``rem``.  A Picard miss or an infinite ``rem`` halves the try; a ``rem``
over ``REMAINDER_BUDGET`` cuts it by ``min(1/2, SAFETY (TOL /
rem)^(1/(N+1)))``.

Dense output inside a step evaluates the same polynomial + remainder data at
interval times.  The section-crossing localization reads it to enclose the
crossing times of a set by interval Newton on ``y``, ``t* in t_m -
Y(t_m) / VY(tau)`` over step times ``tau`` (Moore 1966; Neumaier 1990), so
the bracket is as wide as the set's own spread of crossing times, and to
read off sharp crossing states by a mean-value form.

Every flight starts on the section with ``y = 0`` exactly (the lifts of
:mod:`pcr3bp.poincare`), so its departure is not a sign change of ``y``:
a point lane counts a crossing only from a nonzero ``y`` at the start of
a step, and the rigorous watch starts at the end of the first step, where
the set must lie strictly off the section.

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
  (also the step when both rows vanish).  ``TOL`` is also the target of
  a rigorous step's Lagrange remainder, which sizes the later steps of a
  rigorous flight (above).
* ``H_MIN = 1e-9``: the step floor.  A point lane whose step rule asks
  for less ends with an ``IntegrationError`` (:meth:`PointFlow.step`); a
  rigorous try below it, or a crossing that cannot be separated or is not
  transversal above it, is refused with an error instead of continued.
* ``PICARD_ITERATIONS = 18``: inflate-and-retry passes allowed for the
  a-priori enclosures before the step is halved.
* ``REMAINDER_BUDGET = 1e-10``: the largest Lagrange remainder (state and
  variational) a rigorous step may keep, 100 times ``TOL``; a larger one
  means the a-priori box is too wide, so the step is cut.
* ``MAX_TIME = 50.0``: time horizon of one section flight.
* ``MAX_STEPS = 5000``: step attempts one rigorous flight (one
  :class:`LohnerFlow`) may make.  A flight that needs more, such as one
  whose validated steps shrink near a primary, is refused with an
  ``IntegrationError``.  The covering relations that can be flown with
  the bundled sets take at most 90 attempts between two section
  crossings, and no registered relation makes more than 13 crossings
  in one flight.
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
    "FlowStats",
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
TANGENCY_TOL = 1e-8


def _step_from_coeffs(coeffs: np.ndarray) -> float | list[float]:
    """Step-size heuristic from the decay of the top two coefficient rows.

    ``coeffs`` is (n+1, 4) for one state, giving one step, or (n+1, 4, N)
    for N lanes, giving a list of N steps.  The roots are Python's float
    ``**`` (libm ``pow``), lane by lane: numpy's vectorised power differs
    from it in the last bits, and a lane must step as its state alone does.
    One state is one lane of the same loop.
    """
    n = coeffs.shape[0] - 1
    norms = np.abs(coeffs[n - 1:]).max(axis=1).tolist()
    e0, e1 = 1.0 / (n - 1), 1.0 / n
    lanes = zip(*norms) if coeffs.ndim == 3 else [norms]
    steps = []
    for a, b in lanes:
        h = H_MAX
        if a > 0.0:
            h = min(h, (TOL / a) ** e0)
        if b > 0.0:
            h = min(h, (TOL / b) ** e1)
        steps.append(SAFETY * h)
    return steps if coeffs.ndim == 3 else steps[0]


def _resize(rem: float) -> float:
    # the factor on h that brings a realized remainder rem (~ h^(ORDER+1)) to TOL
    return SAFETY * (TOL / rem) ** (1.0 / (ORDER + 1))


# ----------------------------------------------------------------------
# Point mode
# ----------------------------------------------------------------------


@dataclass(slots=True)
class PointStep:
    """One accepted step of the lanes of a flow, with its dense polynomials.

    ``t0`` and ``h`` hold each lane's start time and step, zero for a lane
    the step floor stopped, ``coeffs`` the lanes' Taylor coefficients
    (n+1, 4, N) and ``vcoeffs`` the variational coefficients (n+1, 4, 4) of
    a one-lane flow that carries them.
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
        """Advance every lane by one step in the given time direction.

        A lane whose step rule asks for less than ``H_MIN`` stays where it
        is, with a zero step, and its driver ends it with
        :meth:`floor_error`.  The rule is read before ``h_cap``, which may
        cut the last step of a flight below the floor.
        """
        mu = self.params.mu
        if self.v is None:
            coeffs = taylor.lane_coeffs(self.state, mu, ORDER)
            vcoeffs = None
        else:
            coeffs, vcoeffs = taylor.point_var_coeffs(self.state[:, 0], self.v, mu, ORDER)
            coeffs = coeffs[:, :, None]
        h = np.array(_step_from_coeffs(coeffs))
        h[h < H_MIN] = 0.0
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

    def floor_error(self, lane: int) -> IntegrationError:
        """The error that ends a lane the step floor stopped."""
        return IntegrationError(
            f"the step rule asks for less than H_MIN={H_MIN} at state "
            f"{self.state[:, lane]}, t={self.t[lane]}")

    def steps_to(self, t_final: float):
        """Step a one-lane flow to the signed time ``t_final``, yielding
        each step; the last step is cut to land there.  Raises the
        :meth:`floor_error` of a step the step floor stopped."""
        direction = math.copysign(1.0, t_final)
        while (rem := t_final - self.t[0]) * direction > 0.0:
            rec = self.step(direction, h_cap=abs(rem))
            if not rec.h[0]:
                raise self.floor_error(0)
            yield rec


def flow_point(params: Params, state, t_final: float, variational: bool = False):
    """Integrate one state for a signed time ``t_final``; returns ``(state, V)``.

    ``V`` is None unless ``variational`` is set.  Raises
    :class:`IntegrationError` where the step rule asks for less than
    ``H_MIN``.
    """
    flow = PointFlow(params, state, variational=variational)
    for _ in flow.steps_to(t_final):
        pass
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


@dataclass(slots=True)
class LohnerStep:
    """One validated step: dense data plus the re-anchored end set.

    ``series`` (N+1, 4, 5) holds the Taylor coefficients of the transition
    matrix over the hull in columns 0-3 and those of the center in column
    4, and ``rem`` (4, 5) the order-(N+1) coefficients of their Lagrange
    remainders, the variational and the state ones over W, side by side.
    ``end`` encloses the whole set at the end of the step.
    """

    t0: float
    h: float
    series: IArray
    rem: IArray
    wy: Interval
    wvy: Interval
    set_before: LohnerSet
    set_after: LohnerSet
    end: IArray


@dataclass(slots=True)
class FlowStats:
    """Step counts of one rigorous flight: attempts, steps taken, the
    tries that failed the Picard test or exceeded ``REMAINDER_BUDGET``, and
    the steps :func:`lohner_section_crossings` halved."""

    attempts: int = 0
    commits: int = 0
    picard_misses: int = 0
    budget_misses: int = 0
    halvings: int = 0


class LohnerFlow:
    """Rigorous evolution of a :class:`LohnerSet`."""

    def __init__(self, params: Params, lset: LohnerSet):
        self.params = params
        self.lset = lset
        self.t = 0.0
        self._t_comp = 0.0
        self.stats = FlowStats()
        self._h_next: float | None = None  # from the last validated remainder

    # -- elapsed time ---------------------------------------------------

    @property
    def elapsed(self) -> Interval:
        """Tight interval for the exact elapsed time of committed steps."""
        t = self.t + self._t_comp
        return Interval(_dn(t), _up(t))

    # -- stepping ---------------------------------------------------------

    def attempt_step(self, h_cap: float | None = None) -> LohnerStep:
        """Validate one forward step without committing it.

        The first try is the step the last validated attempt asked for,
        or the point rule's step where it asked for none, capped by
        ``h_cap``; a try below ``H_MIN`` is refused.  The
        ``MAX_STEPS``-th attempt of a flow is its last.
        """
        stats = self.stats
        stats.attempts += 1
        if stats.attempts > MAX_STEPS:
            raise IntegrationError(
                f"rigorous flight exceeded {MAX_STEPS} step attempts")
        params = self.params
        lset = self.lset
        hull = lset.hull()

        h = self._h_next
        if h is None:
            h = _step_from_coeffs(taylor.point_coeffs(lset.c, params.mu, ORDER))
        if h_cap is not None:
            h = min(h, h_cap)

        n = ORDER
        eye = np.eye(4)
        while True:
            if h < H_MIN:
                raise EnclosureError("validated step size underflow")
            w, wv = self._a_priori(hull, h)
            if wv is None:
                stats.picard_misses += 1
                factor = 0.5
            else:
                # W rides with the hull (V(0) = I) and the centre.  Put
                # side by side, the matrix columns then the state column,
                # W's row n+1 holds the Lagrange terms, and the hull's and
                # the centre's rows 0..n the step's series
                clo, chi, vlo, vhi = taylor.iv_var_coeffs(
                    np.array([w.lo, hull.lo, lset.c]), np.array([w.hi, hull.hi, lset.c]),
                    np.array([wv.lo, eye]), np.array([wv.hi, eye]), params.mu, n + 1)
                lo, hi = (np.concatenate([v, c[[0, 2], ..., None]], axis=-1)
                          for v, c in ((vlo, clo), (vhi, chi)))
                # the realized Lagrange terms, state and variational; over
                # budget, the wide a-priori box is poisoning the remainder
                rem = float(max(abs(lo[0, n + 1]).max(), abs(hi[0, n + 1]).max())
                            * Interval.symmetric(h).pow_int(n + 1).mag)
                if rem <= REMAINDER_BUDGET:
                    break
                stats.budget_misses += 1
                factor = min(0.5, _resize(rem)) if math.isfinite(rem) else 0.5
            h *= factor
        self._h_next = h * _resize(rem) if rem > 0.0 else None

        rec = LohnerStep(
            t0=self.t, h=h,
            series=_wrap(lo[1, :n + 1], hi[1, :n + 1]),
            rem=_wrap(lo[0, n + 1], hi[0, n + 1]),
            wy=w[1], wvy=w[3],
            set_before=lset, set_after=lset, end=hull,
        )
        rec.set_after, rec.end = self._reanchor(rec, Interval.point(h))
        return rec

    def commit(self, rec: LohnerStep) -> None:
        self.stats.commits += 1
        self.lset = rec.set_after
        self.t, self._t_comp = _exact_add(self.t, self._t_comp, rec.h)

    # -- dense output -----------------------------------------------------

    def phi_at(self, rec: LohnerStep, tau: Interval) -> IArray:
        """Enclosure of the one-step transition matrix at times in ``tau``."""
        return self._transport(rec, tau)[1]

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
        lo, hi = taylor.horner_iv(rec.series.lo, rec.series.hi, tau.lo, tau.hi)
        both = _wrap(lo, hi) + rec.rem.scale(tau.pow_int(ORDER + 1))
        return both[:, 4], both[:, :4]

    def _a_priori(self, hull: IArray, h: float) -> tuple[IArray | None, IArray | None]:
        """A-priori enclosures (W, WV) over a step of ``h``; None where Picard fails."""
        span = Interval(0.0, h)
        w = self._rough_enclosure(hull, span)
        return w, (self._rough_var_enclosure(w, span) if w is not None else None)

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
    ``stats`` holds the flow's step counts when the crossing was found.
    """

    t: Interval
    state: IArray
    vy_sign: int
    center: IArray | None = None
    stats: FlowStats | None = None


def _strict_sign(iv: Interval) -> int | None:
    if iv.lo > 0.0:
        return 1
    if iv.hi < 0.0:
        return -1
    return None


def lohner_section_crossings(params: Params, lset: LohnerSet, signs: list[int]):
    """Flow a set forward through ``y = 0`` crossings with given vy signs.

    ``signs`` lists the required sign of ``vy`` at each awaited crossing, in
    the order they are met.  Returns ``(crossings, jac)``.  When the set
    tracks its derivative (``lset.bj`` is set), ``jac`` encloses the
    derivative of the flow-to-final-crossing map, i.e. ``Dphi(t*(p), p)``
    for every initial point ``p``, as a pair ``(m, rj)`` of interval
    matrices whose product encloses it: ``m`` is the transition matrix over
    the crossing bracket times the accumulated frame ``bj``, and ``rj`` the
    accumulated box in that frame; otherwise ``jac`` is None.  The caller
    adds the section projection and lift factors, and should apply the
    projection to ``m`` before it multiplies in ``rj``: the projection then
    cancels on thin entries, where a 4x4 product would first spread the
    box's widths over every row.  When the set carries a center box, the
    last crossing also locates the crossing of the center box's point,
    from the same steps.

    A step that cannot be decided (the set still on the section at the
    watch start, a crossing pair that may hide in it, a crossing that is
    not separated or not transversal) is halved and retried; below
    ``H_MIN`` the flight is refused with a ``TangencyError``.  The halved
    cap holds until the crossing is taken, so a refusal is one chain of
    halvings.
    """
    if not signs or any(s not in (-1, 1) for s in signs):
        raise IntegrationError("signs must be a non-empty list of +1/-1")
    flow = LohnerFlow(params, lset)
    crossings: list[CrossingRecord] = []
    prev_side: int | None = None
    h_cap: float | None = None

    while True:
        if flow.t > MAX_TIME:
            raise HorizonError(
                f"no section crossing within the time horizon {MAX_TIME}"
            )
        rec = flow.attempt_step(h_cap)
        side_end = _strict_sign(rec.end[1])
        last = len(crossings) == len(signs) - 1
        found = None
        if side_end is None:
            why = ("cannot separate the set from the section at watch start"
                   if prev_side is None else
                   "section crossing cannot be separated (near-tangency)")
        elif side_end == prev_side and rec.wy.contains_zero() and rec.wvy.contains_zero():
            # Monotonicity guard: with equal strict sides a crossing pair could
            # still hide inside the step unless either y or vy is sign-definite
            # over the a-priori enclosure of the whole step.
            why = "cannot exclude a hidden crossing pair in a step"
        elif prev_side in (None, side_end):
            # the watch starts, or the step stays on one side: take it; a
            # cap from a halving holds until the crossing is taken
            prev_side = side_end
            flow.commit(rec)
            continue
        else:
            # a guaranteed crossing inside this step
            why = "vy over the section crossing is not transversal"
            found = _refine_crossing(flow, rec, Interval(0.0, rec.h))
            if found is not None and last and rec.set_before.rc is not None:
                # the center box's point lies in the set, so it crosses
                # within the set's bracket
                center = _refine_crossing(flow, rec, found[1], of_center=True)
                if center is None:
                    found = None
                else:
                    found[0].center = center[0].state
        if found is None:
            h_cap = 0.5 * rec.h
            if h_cap < H_MIN:
                raise TangencyError(why)
            flow.stats.halvings += 1
            continue
        crossing, tau = found
        expected = signs[len(crossings)]
        if crossing.vy_sign != expected:
            raise IntegrationError(
                f"crossing {len(crossings)} has vy sign {crossing.vy_sign}, "
                f"expected {expected}"
            )
        crossing.stats = replace(flow.stats)
        crossings.append(crossing)
        if last:
            before, jac = rec.set_before, None
            if before.bj is not None:
                jac = (flow.phi_at(rec, tau) @ IArray.from_point(before.bj), before.rj)
            return crossings, jac
        prev_side = side_end
        flow.commit(rec)
        h_cap = None


def _refine_crossing(flow: LohnerFlow, rec: LohnerStep, tau: Interval,
                     of_center: bool = False):
    """Crossing inside the step of the set, or with ``of_center`` of the
    point its center box holds, given step times ``tau`` that hold it.

    Interval Newton on y narrows ``tau``: every crossing time of the set
    lies in ``t_m - Y(t_m) / VY(tau)``, with ``Y`` the set's y at the
    midpoint ``t_m`` and ``VY`` its vy over ``tau`` (Moore 1966), and the
    passes go on while each at least halves ``tau``.  Returns the crossing
    and its step times, or None where vy over ``tau`` is not transversal.
    """
    while True:
        st = flow.enclosure_at(rec, tau, of_center)
        vy = st[3]
        if vy.mig < TANGENCY_TOL or vy.contains_zero():
            return None
        tm = tau.mid
        st_mid = flow.enclosure_at(rec, Interval.point(tm), of_center)
        newton = (tm - st_mid[1] / vy).intersection(tau)
        # a point tau narrows no further
        halved = 2.0 * newton.width <= tau.width and newton.width > 0.0
        tau = newton
        if not halved:
            break
    vy_sign = 1 if vy.lo > 0.0 else -1

    # mean-value sharpening around the last midpoint; st and st_mid hold
    # the states over the times from tm to tau
    f_env = dynamics.vector_field_iv(flow.params, st)
    dt = tau - tm
    sharp = [
        (st_mid[i] + f_env[i] * dt).intersection(st[i]) for i in range(4)
    ]
    state_cross = IArray.from_intervals(sharp)
    t_abs = flow.elapsed + tau
    return CrossingRecord(t=t_abs, state=state_cross, vy_sign=vy_sign), tau
