"""Adaptive Taylor integration: point mode and validated Lohner mode."""

import numpy as np
import pytest

from pcr3bp import dynamics, integrator
from pcr3bp.dynamics import JACOBI_OTERMA, MU_SUN_JUPITER, Params
from pcr3bp.errors import EnclosureError, IntegrationError
from pcr3bp.integrator import (
    LohnerFlow,
    LohnerSet,
    PointFlow,
    flow_point,
    lohner_section_crossings,
)
from pcr3bp.intervals import IArray, Interval

P = Params(MU_SUN_JUPITER, JACOBI_OTERMA)
RNG = np.random.default_rng(42)

# a perpendicular section departure on the outer realm (long, well-tested arc)
ANCHOR = np.array([-1.12327231155833984, 0.0, 0.0, 0.11797393804215285])


def random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        s = rng.uniform([-1.4, -1.4, -0.5, -0.5], [1.4, 1.4, 0.5, 0.5])
        r1 = np.hypot(s[0] + P.mu, s[1])
        r2 = np.hypot(s[0] - 1 + P.mu, s[1])
        if r1 > 0.3 and r2 > 0.1:
            out.append(s)
    return out


# ----------------------------------------------------------------------
# point mode
# ----------------------------------------------------------------------


def test_point_jacobi_drift():
    for s in random_states(10, seed=3):
        c0 = dynamics.jacobi_constant(P, s)
        try:
            end, _ = flow_point(P, s, 5.0)
        except IntegrationError:
            continue  # close encounter: not this test's business
        assert abs(dynamics.jacobi_constant(P, end) - c0) < 1e-11


def test_point_forward_backward():
    for s in random_states(5, seed=4):
        try:
            mid, _ = flow_point(P, s, 3.0)
            back, _ = flow_point(P, mid, -3.0)
        except IntegrationError:
            continue
        assert np.max(np.abs(back - s)) < 1e-10


def test_point_exact_time_landing():
    flow = PointFlow(P, ANCHOR)
    t_final = 2.3456789
    end, _ = flow_point(P, ANCHOR, t_final)
    # cross-check against a half-step/half-step split of the same flight
    a, _ = flow_point(P, ANCHOR, t_final / 2)
    b, _ = flow_point(P, a, t_final / 2)
    assert np.max(np.abs(b - end)) < 1e-12


def test_point_variational_cocycle():
    _, v_full = flow_point(P, ANCHOR, 3.0, variational=True)
    mid, v_half = flow_point(P, ANCHOR, 1.5, variational=True)
    _, v_rest = flow_point(P, mid, 1.5, variational=True)
    assert np.max(np.abs(v_rest @ v_half - v_full)) < 1e-10 * np.max(np.abs(v_full))


def test_point_variational_matches_finite_differences():
    _, v = flow_point(P, ANCHOR, 2.0, variational=True)
    eps = 2e-7
    for j in range(4):
        dv = np.zeros(4)
        dv[j] = eps
        plus, _ = flow_point(P, ANCHOR + dv, 2.0)
        minus, _ = flow_point(P, ANCHOR - dv, 2.0)
        fd = (plus - minus) / (2 * eps)
        assert np.max(np.abs(v[:, j] - fd)) < 1e-5 * max(1.0, np.max(np.abs(v)))


# ----------------------------------------------------------------------
# validated mode
# ----------------------------------------------------------------------


def corners(center, radius):
    for sx in (-1, 1):
        for sv in (-1, 1):
            yield center + radius * np.array([sx, 0.0, sv, 0.0])


def point_crossings(state, n):
    """The first n section crossings ``(t, state)`` of a point flight.

    Each root is bisected on the y of its step's polynomial, a reference
    apart from the point-mode root finder of :mod:`pcr3bp.poincare`.
    """
    flow = PointFlow(P, state)
    hits = []
    while len(hits) < n:
        y0 = flow.state[1, 0]
        rec = flow.step()
        if y0 * flow.state[1, 0] < 0 and flow.t[0] > 1e-3:
            lo, hi = 0.0, rec.h[0]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (rec.state_at(mid)[1, 0] > 0) == (y0 > 0):
                    lo = mid
                else:
                    hi = mid
            tau = 0.5 * (lo + hi)
            hits.append((rec.t0[0] + tau, rec.state_at(tau)[:, 0]))
    return hits


def assert_crossing_holds(enc, t_pt, s_pt):
    assert enc.t.lo <= t_pt <= enc.t.hi
    for i in (0, 2, 3):
        assert enc.state[i].lo <= s_pt[i] <= enc.state[i].hi
    assert enc.state[1].lo <= 0.0 <= enc.state[1].hi


def test_section_crossing_contains_pointwise_crossings():
    # the anchor's first section crossing, at t = 10.43 with vy < 0
    box = IArray.from_point(ANCHOR).inflate(1e-8)
    crossings, _ = lohner_section_crossings(P, LohnerSet.from_box(box), [-1])
    for s in [ANCHOR, *corners(ANCHOR, 1e-8)]:
        assert_crossing_holds(crossings[0], *point_crossings(s, 1)[0])


def test_section_crossing_nesting():
    small = IArray.from_point(ANCHOR).inflate(1e-10)
    large = IArray.from_point(ANCHOR).inflate(1e-8)
    (in_small,), _ = lohner_section_crossings(P, LohnerSet.from_box(small), [-1])
    (in_large,), _ = lohner_section_crossings(P, LohnerSet.from_box(large), [-1])
    assert in_small.state.is_subset(in_large.state)
    assert in_large.t.lo <= in_small.t.lo and in_small.t.hi <= in_large.t.hi


def test_section_crossing_thin_width_growth():
    # a point set crosses with an enclosure of about 1.3e-9 after 10.4
    # time units, against 1.3e-5 for the box of radius 1e-8
    (cross,), _ = lohner_section_crossings(
        P, LohnerSet.from_box(IArray.from_point(ANCHOR)), [-1])
    assert np.max(cross.state.width) < 1e-8


def test_exact_elapsed_time_tracking():
    lset = LohnerSet.from_box(IArray.from_point(ANCHOR).inflate(1e-12))
    flow = LohnerFlow(P, lset)
    while flow.t < 1.0:
        flow.commit(flow.attempt_step())
    el = flow.elapsed
    assert el.width <= 4e-16 * max(1.0, abs(flow.t))


def test_accumulated_jacobian_contains_point_jacobian():
    # the derivative accumulated over the whole flight to the second
    # crossing, through the first
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    lset = LohnerSet.from_box(box, track_jacobian=True)
    crossings, jac = lohner_section_crossings(P, lset, [-1, 1], want_jacobian=True)
    _, v = flow_point(P, ANCHOR, crossings[1].t.mid, variational=True)
    assert np.all(jac.lo <= v) and np.all(v <= jac.hi)


def test_section_crossing_encloses_point_crossing():
    # the anchor departs Theta_+ perpendicular; its first two section hits
    # have vy < 0 then vy > 0
    box = IArray.from_point(ANCHOR).inflate(1e-10)
    lset = LohnerSet.from_box(box)
    crossings, _ = lohner_section_crossings(P, lset, [-1, 1])
    assert [c.vy_sign for c in crossings] == [-1, 1]
    for enc, hit in zip(crossings, point_crossings(ANCHOR, 2)):
        assert_crossing_holds(enc, *hit)


def test_section_crossing_jacobian_contains_point_jacobian():
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    lset = LohnerSet.from_box(box, track_jacobian=True)
    crossings, jac = lohner_section_crossings(P, lset, [-1], want_jacobian=True)
    t_star = crossings[0].t.mid
    _, v = flow_point(P, ANCHOR, t_star, variational=True)
    # the point jacobian at the enclosed crossing time must lie inside
    assert np.all(jac.lo <= v + 1e-30)
    assert np.all(v <= jac.hi + 1e-30)


def test_wrong_sign_request_fails():
    box = IArray.from_point(ANCHOR).inflate(1e-10)
    with pytest.raises(IntegrationError):
        lohner_section_crossings(P, LohnerSet.from_box(box), [1])


def test_close_encounter_is_refused_rigorously(monkeypatch):
    # this arc passes within 5e-4 of the second primary, where validated
    # steps must shrink drastically; with the step floor raised the
    # stepper has to refuse instead of continuing unsoundly
    vy = np.sqrt(
        2 * dynamics.effective_potential(P, 0.92, 0.0) - 0.05**2 - P.jacobi
    )
    state = np.array([0.92, 0.0, 0.05, vy])
    box = IArray.from_point(state).inflate(1e-12)
    monkeypatch.setattr(integrator, "H_MIN", 1e-3)
    with pytest.raises(EnclosureError):
        lohner_section_crossings(P, LohnerSet.from_box(box), [-1])


def test_remainder_budget_rejects_sloppy_steps():
    # with a loose budget the neck transit blows up the enclosure; the
    # default budget keeps the amplification within a decade of the true
    # derivative norm
    box = IArray.from_point(ANCHOR).inflate(1e-12)
    (cross,), _ = lohner_section_crossings(P, LohnerSet.from_box(box), [-1])
    width = np.max(cross.state.width)
    _, v = flow_point(P, ANCHOR, cross.t.mid, variational=True)
    amplification = width / 2e-12
    assert amplification < 30 * np.max(np.abs(v))


def test_step_bound_refuses_a_long_flight(monkeypatch):
    # flying this box to its first crossing takes more than five step
    # attempts; a flow may not make more than MAX_STEPS
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    monkeypatch.setattr(integrator, "MAX_STEPS", 5)
    with pytest.raises(IntegrationError, match="5 step attempts"):
        lohner_section_crossings(P, LohnerSet.from_box(box), [-1])


@pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (0.0, np.inf)])
def test_reanchor_refuses_an_unbounded_center_image(lo, hi):
    # a center image with an infinite end has no finite midpoint ([-inf,
    # inf] has a NaN one); re-anchoring must refuse it, not store it
    flow = LohnerFlow(P, LohnerSet.from_box(IArray.from_point(ANCHOR).inflate(1e-11)))
    rec = flow.attempt_step()
    clo, chi = rec.c.lo.copy(), rec.c.hi.copy()
    clo[0, 0], chi[0, 0] = lo, hi
    rec.c = IArray(clo, chi)
    with pytest.raises(EnclosureError, match="not bounded"), np.errstate(invalid="ignore"):
        flow._reanchor(rec, Interval.point(rec.h))
