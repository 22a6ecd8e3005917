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
    flow_box,
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


def test_flow_box_contains_pointwise_images():
    box = IArray.from_point(ANCHOR).inflate(1e-8)
    lset = LohnerSet.from_box(box)
    out = flow_box(P, lset, 2.0)
    hull = out.hull()
    for s in [ANCHOR, *corners(ANCHOR, 1e-8)]:
        end, _ = flow_point(P, s, 2.0)
        assert np.all(hull.lo <= end) and np.all(end <= hull.hi)


def test_flow_box_backward_contains_pointwise_images():
    box = IArray.from_point(ANCHOR).inflate(1e-9)
    out = flow_box(P, LohnerSet.from_box(box), -1.5)
    hull = out.hull()
    for s in [ANCHOR, *corners(ANCHOR, 1e-9)]:
        end, _ = flow_point(P, s, -1.5)
        assert np.all(hull.lo <= end) and np.all(end <= hull.hi)


def test_flow_box_nesting():
    small = IArray.from_point(ANCHOR).inflate(1e-10)
    large = IArray.from_point(ANCHOR).inflate(1e-8)
    hull_small = flow_box(P, LohnerSet.from_box(small), 1.0).hull()
    hull_large = flow_box(P, LohnerSet.from_box(large), 1.0).hull()
    assert hull_small.is_subset(hull_large)


def test_flow_box_thin_width_growth():
    out = flow_box(P, LohnerSet.from_box(IArray.from_point(ANCHOR)), 2.0)
    assert np.max(out.hull().width) < 1e-11


def test_rigorous_forward_backward_contains_start():
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    fwd = flow_box(P, LohnerSet.from_box(box), 1.0)
    back = flow_box(P, fwd, -1.0)
    hull = back.hull()
    assert np.all(hull.lo <= ANCHOR) and np.all(ANCHOR <= hull.hi)


def test_exact_elapsed_time_tracking():
    lset = LohnerSet.from_box(IArray.from_point(ANCHOR).inflate(1e-12))
    flow = LohnerFlow(P, lset)
    while flow.t < 1.0:
        flow.commit(flow.attempt_step(1.0))
    el = flow.elapsed
    assert el.width <= 4e-16 * max(1.0, abs(flow.t))


def test_accumulated_jacobian_contains_point_jacobian():
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    lset = LohnerSet.from_box(box, track_jacobian=True)
    out = flow_box(P, lset, 2.0)
    jac = out.jacobian()
    _, v = flow_point(P, ANCHOR, 2.0, variational=True)
    assert np.all(jac.lo <= v) and np.all(v <= jac.hi)


def test_section_crossing_encloses_point_crossing():
    # the anchor departs Theta_+ perpendicular; its first two section hits
    # have vy < 0 then vy > 0
    box = IArray.from_point(ANCHOR).inflate(1e-10)
    lset = LohnerSet.from_box(box)
    crossings, _ = lohner_section_crossings(P, lset, [-1, 1])
    assert [c.vy_sign for c in crossings] == [-1, 1]

    # point-mode reference: bisect y through the same flight
    flow = PointFlow(P, ANCHOR)
    hits = []
    prev = flow.state.copy()
    while len(hits) < 2:
        rec = flow.step()
        if prev[1] * flow.state[1] < 0 and abs(flow.t) > 1e-3:
            lo, hi = 0.0, rec.h
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                ymid = rec.state_at(mid)[1]
                if (ymid > 0) == (prev[1] > 0):
                    lo = mid
                else:
                    hi = mid
            flow.rewind_to(rec, 0.5 * (lo + hi))
            hits.append((flow.t, flow.state.copy()))
            flow.step(h_cap=1e-9)  # move past the root before rearming
        prev = flow.state.copy()
    for enc, (t_pt, s_pt) in zip(crossings, hits):
        assert enc.t.lo <= t_pt <= enc.t.hi
        for i in (0, 2, 3):
            assert enc.state[i].lo <= s_pt[i] <= enc.state[i].hi
        assert enc.state[1].lo <= 0.0 <= enc.state[1].hi


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
    with pytest.raises(IntegrationError):
        flow_box(P, LohnerSet.from_box(box), 1.0)


def test_remainder_budget_rejects_sloppy_steps():
    # with a loose budget the neck transit blows up the enclosure; the
    # default budget keeps the amplification within a decade of the true
    # derivative norm
    box = IArray.from_point(ANCHOR).inflate(1e-12)
    out = flow_box(P, LohnerSet.from_box(box), 9.0)
    width = np.max(out.hull().width)
    _, v = flow_point(P, ANCHOR, 9.0, variational=True)
    amplification = width / 2e-12
    assert amplification < 30 * np.max(np.abs(v))


def test_step_bound_refuses_a_long_flight(monkeypatch):
    # flying this box for t = 2 takes more than five step attempts; a flow
    # may not make more than MAX_STEPS
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    monkeypatch.setattr(integrator, "MAX_STEPS", 5)
    with pytest.raises(IntegrationError, match="5 step attempts"):
        flow_box(P, LohnerSet.from_box(box), 2.0)


@pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (0.0, np.inf)])
def test_reanchor_refuses_an_unbounded_center_image(lo, hi):
    # a center image with an infinite end has no finite midpoint ([-inf,
    # inf] has a NaN one); re-anchoring must refuse it, not store it
    flow = LohnerFlow(P, LohnerSet.from_box(IArray.from_point(ANCHOR).inflate(1e-11)))
    rec = flow.attempt_step(1.0)
    clo, chi = rec.c.lo.copy(), rec.c.hi.copy()
    clo[0, 0], chi[0, 0] = lo, hi
    rec.c = IArray(clo, chi)
    with pytest.raises(EnclosureError, match="not bounded"), np.errstate(invalid="ignore"):
        flow._reanchor(rec, Interval.point(rec.h))
