"""Adaptive Taylor integration: point mode and validated Lohner mode."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pcr3bp import dynamics, integrator, symbolic, taylor
from pcr3bp.dynamics import JACOBI_OTERMA, MU_SUN_JUPITER, Params
from pcr3bp.errors import EnclosureError, IntegrationError, TangencyError
from pcr3bp.hset import check_cover
from pcr3bp.integrator import (
    LohnerFlow,
    LohnerSet,
    PointFlow,
    flow_point,
    lohner_section_crossings,
)
from pcr3bp.intervals import IArray, Interval
from pcr3bp.poincare import HALF_MINUS, HALF_PLUS, apply_parallelogram_rigorous
from pcr3bp.symbolic import section_map, standard_sets

P = Params(MU_SUN_JUPITER, JACOBI_OTERMA)
RNG = np.random.default_rng(42)

# a perpendicular section departure on the outer realm (long, well-tested arc)
ANCHOR = np.array([-1.12327231155833984, 0.0, 0.0, 0.11797393804215285])


def box_set(box, track_jacobian=False):
    """The Lohner set of an axis-aligned box: its midpoint plus the box."""
    c = box.mid
    return LohnerSet.from_frame(c, np.eye(4), box - c, track_jacobian)


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


def test_the_lane_step_rule_is_the_one_state_rule_lane_by_lane():
    # five lanes near the necks, then lane 1 with both top rows zero (the
    # rule's cap), lane 2 with only the top row zero, and lane 3 with top
    # rows so large that the rule asks for less than H_MIN
    n = integrator.ORDER
    rng = np.random.default_rng(3)
    states = np.array([rng.uniform(0.8, 1.1, 5), rng.uniform(-0.02, 0.02, 5),
                       rng.uniform(-0.1, 0.1, 5), rng.uniform(-0.1, 0.1, 5)])
    coeffs = taylor.lane_coeffs(states, P.mu, n)
    coeffs[n - 1:, :, 1] = 0.0
    coeffs[n, :, 2] = 0.0
    coeffs[n - 1:, :, 3] = 1e200
    steps = integrator._step_from_coeffs(coeffs)
    assert steps == [integrator._step_from_coeffs(coeffs[:, :, i]) for i in range(5)]
    assert steps[1] == integrator.SAFETY * integrator.H_MAX
    assert steps[3] < integrator.H_MIN < min(steps[:3] + steps[4:])


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
    crossings, _ = lohner_section_crossings(P, box_set(box), [-1])
    for s in [ANCHOR, *corners(ANCHOR, 1e-8)]:
        assert_crossing_holds(crossings[0], *point_crossings(s, 1)[0])


def test_section_crossing_nesting():
    small = IArray.from_point(ANCHOR).inflate(1e-10)
    large = IArray.from_point(ANCHOR).inflate(1e-8)
    (in_small,), _ = lohner_section_crossings(P, box_set(small), [-1])
    (in_large,), _ = lohner_section_crossings(P, box_set(large), [-1])
    assert in_small.state.is_subset(in_large.state)
    assert in_large.t.lo <= in_small.t.lo and in_small.t.hi <= in_large.t.hi


def test_section_crossing_thin_width_growth():
    # a point set crosses with an enclosure of about 1.3e-9 after 10.4
    # time units, against 1.3e-5 for the box of radius 1e-8
    (cross,), _ = lohner_section_crossings(
        P, box_set(IArray.from_point(ANCHOR)), [-1])
    assert np.max(cross.state.width) < 1e-8


def test_exact_elapsed_time_tracking():
    # the elapsed time encloses the exact sum of the committed steps, to
    # within two ulps of t
    lset = box_set(IArray.from_point(ANCHOR).inflate(1e-12))
    flow = LohnerFlow(P, lset)
    steps = []
    while flow.t < 1.0:
        rec = flow.attempt_step()
        flow.commit(rec)
        steps.append(rec.h)
    el = flow.elapsed
    assert el.width <= 2 * math.ulp(flow.t)
    assert Fraction(el.lo) <= sum(map(Fraction, steps)) <= Fraction(el.hi)


def test_accumulated_jacobian_contains_point_jacobian():
    # the derivative accumulated over the whole flight to the second
    # crossing, through the first
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    lset = box_set(box, track_jacobian=True)
    crossings, (m, rj) = lohner_section_crossings(P, lset, [-1, 1])
    jac = m @ rj
    _, v = flow_point(P, ANCHOR, crossings[1].t.mid, variational=True)
    assert np.all(jac.lo <= v) and np.all(v <= jac.hi)


def test_section_crossing_encloses_point_crossing():
    # the anchor departs Theta_+ perpendicular; its first two section hits
    # have vy < 0 then vy > 0
    box = IArray.from_point(ANCHOR).inflate(1e-10)
    lset = box_set(box)
    crossings, _ = lohner_section_crossings(P, lset, [-1, 1])
    assert [c.vy_sign for c in crossings] == [-1, 1]
    for enc, hit in zip(crossings, point_crossings(ANCHOR, 2)):
        assert_crossing_holds(enc, *hit)


def test_section_crossing_jacobian_contains_point_jacobian():
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    lset = box_set(box, track_jacobian=True)
    crossings, (m, rj) = lohner_section_crossings(P, lset, [-1])
    jac = m @ rj
    t_star = crossings[0].t.mid
    _, v = flow_point(P, ANCHOR, t_star, variational=True)
    # the point jacobian at the enclosed crossing time must lie inside
    assert np.all(jac.lo <= v + 1e-30)
    assert np.all(v <= jac.hi + 1e-30)


def test_wrong_sign_request_fails():
    box = IArray.from_point(ANCHOR).inflate(1e-10)
    with pytest.raises(IntegrationError):
        lohner_section_crossings(P, box_set(box), [1])


def test_a_crossing_that_is_not_transversal_is_halved_down_to_the_floor(monkeypatch):
    # with every |vy| below the tangency bound, each step that holds the
    # crossing is halved until the next half would fall below H_MIN
    caps, flows = [], []
    original = LohnerFlow.attempt_step

    def logged(flow, h_cap=None):
        caps.append(h_cap)
        flows.append(flow)
        return original(flow, h_cap)

    monkeypatch.setattr(LohnerFlow, "attempt_step", logged)
    monkeypatch.setattr(integrator, "TANGENCY_TOL", 1e3)
    box = IArray.from_point(ANCHOR).inflate(1e-10)
    with pytest.raises(TangencyError):
        lohner_section_crossings(P, box_set(box), [-1])
    assert min(c for c in caps if c is not None) < 2.0 * integrator.H_MIN
    # one chain of halvings: a cap holds over the steps committed short of
    # the crossing, so every attempt after the first halving is capped, the
    # caps never grow, and the halvings take the first cap down to H_MIN
    capped = caps[[c is not None for c in caps].index(True):]
    assert None not in capped
    assert all(b <= a for a, b in zip(capped, capped[1:]))
    assert flows[-1].stats.halvings <= math.ceil(
        math.log2(capped[0] / integrator.H_MIN)) + 1


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
        lohner_section_crossings(P, box_set(box), [-1])


def test_remainder_budget_rejects_sloppy_steps():
    # with a loose budget the neck transit blows up the enclosure; the
    # default budget keeps the amplification within a decade of the true
    # derivative norm
    box = IArray.from_point(ANCHOR).inflate(1e-12)
    (cross,), _ = lohner_section_crossings(P, box_set(box), [-1])
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
        lohner_section_crossings(P, box_set(box), [-1])


@pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (0.0, np.inf)])
def test_reanchor_refuses_an_unbounded_center_image(lo, hi):
    # a center image with an infinite end has no finite midpoint ([-inf,
    # inf] has a NaN one); re-anchoring must refuse it, not store it
    flow = LohnerFlow(P, box_set(IArray.from_point(ANCHOR).inflate(1e-11)))
    rec = flow.attempt_step()
    clo, chi = rec.series.lo.copy(), rec.series.hi.copy()
    clo[0, 0, 4], chi[0, 0, 4] = lo, hi  # the centre's x at order 0
    rec.series = IArray(clo, chi)
    with pytest.raises(EnclosureError, match="not bounded"), np.errstate(invalid="ignore"):
        flow._reanchor(rec, Interval.point(rec.h))


# ----------------------------------------------------------------------
# one kernel call per validated step, sized by the last step's remainder
# ----------------------------------------------------------------------


def frozen_attempt(flow, h_cap=None):
    """The validated step with one kernel call per series, as a reference.

    A copy of the attempt loop with one call for W at every try, then one
    for the centre and one for the hull, each at its own order.  The first
    try is the least of the point rule, ``h_cap`` and the flow's step from
    its last remainder; a Picard miss halves h, a budget miss multiplies it
    by min(1/2, SAFETY (TOL / rem)^(1/21)).  Returns the step's bits
    (:func:`step_bits`) and the number of tries that missed.
    """
    params, lset, n = flow.params, flow.lset, integrator.ORDER
    hull = lset.hull()
    h = integrator._step_from_coeffs(taylor.point_coeffs(lset.c, params.mu, n))
    for cap in (h_cap, flow._h_next):
        if cap is not None:
            h = min(h, cap)
    misses = 0
    while True:
        span = Interval(0.0, h)
        w = flow._rough_enclosure(hull, span)
        wv = flow._rough_var_enclosure(w, span) if w is not None else None
        factor = 0.5
        if wv is not None:
            rlo, rhi, vrlo, vrhi = taylor.iv_var_coeffs(
                w.lo, w.hi, wv.lo, wv.hi, params.mu, n + 1)
            hn = Interval.symmetric(h).pow_int(n + 1).mag
            rem_sz = max(abs(rlo[n + 1]).max(), abs(rhi[n + 1]).max()) * hn
            vrem_sz = max(abs(vrlo[n + 1]).max(), abs(vrhi[n + 1]).max()) * hn
            rem = float(max(rem_sz, vrem_sz))
            if rem <= integrator.REMAINDER_BUDGET:
                break
            if math.isfinite(rem):
                factor = min(0.5, integrator.SAFETY
                             * (integrator.TOL / rem) ** (1.0 / (n + 1)))
        misses += 1
        h *= factor
        if h < integrator.H_MIN:
            raise EnclosureError("validated step size underflow")
    clo, chi = taylor.iv_coeffs(lset.c, lset.c, params.mu, n)
    _, _, phlo, phhi = taylor.iv_var_coeffs(hull.lo, hull.hi, np.eye(4), np.eye(4),
                                            params.mu, n)
    return step_bits(h, (rlo[n + 1], rhi[n + 1]), (vrlo[n + 1], vrhi[n + 1]),
                     (phlo, phhi), (clo, chi), w[1], w[3]), misses


def step_bits(h, rem, vrem, ph, c, wy, wvy):
    """The bits of a step's h, rem, vrem, ph, c, wy and wvy."""
    ends = {"rem": rem, "vrem": vrem, "ph": ph, "c": c}
    bits = {k: tuple(np.asarray(e).tobytes() for e in v) for k, v in ends.items()}
    bits.update(h=h.hex(), wy=(wy.lo.hex(), wy.hi.hex()), wvy=(wvy.lo.hex(), wvy.hi.hex()))
    return bits


def record_bits(rec):
    # the stacked series and remainders: matrix columns 0-3, centre column 4
    rem, series = rec.rem, rec.series
    return step_bits(rec.h, (rem.lo[:, 4], rem.hi[:, 4]), (rem.lo[:, :4], rem.hi[:, :4]),
                     (series.lo[..., :4], series.hi[..., :4]),
                     (series.lo[..., 4], series.hi[..., 4]), rec.wy, rec.wvy)


def against_frozen_steps(monkeypatch):
    """Check every attempt of the flights that follow against the frozen loop.

    Returns the counts of attempts and of missed tries, filled as they fly.
    """
    original = LohnerFlow.attempt_step
    counts = {"attempts": 0, "misses": 0}

    def checked(flow, h_cap=None):
        ref, misses = frozen_attempt(flow, h_cap)
        rec = original(flow, h_cap)
        assert record_bits(rec) == ref
        counts["attempts"] += 1
        counts["misses"] += misses
        return rec

    monkeypatch.setattr(LohnerFlow, "attempt_step", checked)
    return counts


def v3_v4_cell_flight(monkeypatch):
    """The one flight of check_cover of V3 => V4 (Ph-) at 1x1; returns its image."""
    images = []
    original = symbolic.apply_parallelogram_rigorous

    def kept(*args, **kwargs):
        images.append(original(*args, **kwargs))
        return images[-1]

    monkeypatch.setattr(symbolic, "apply_parallelogram_rigorous", kept)
    sets = standard_sets()
    src, dst = sets["V3"], sets["V4"]
    rep = check_cover(section_map(Params(), [HALF_MINUS], src, dst), src, dst,
                      grid=(1, 1), max_grid=(4, 1))
    assert (rep.outcome, rep.cells, len(images)) == ("verified", 1, 1)
    return images[0]


def g0_flight():
    """The whole G0 under Ph+ with its derivative."""
    h = standard_sets()["G0"]
    whole = Interval(-1.0, 1.0)
    return apply_parallelogram_rigorous(Params(), [HALF_PLUS], h.center, h.u, h.s, whole,
                                        whole, h.sign, want_derivative=True)


def test_stacked_steps_match_one_call_per_series_on_the_v3_v4_cell(monkeypatch):
    counts = against_frozen_steps(monkeypatch)
    v3_v4_cell_flight(monkeypatch)
    assert counts == {"attempts": 22, "misses": 1}


def test_stacked_steps_match_one_call_per_series_on_g0_under_ph_plus(monkeypatch):
    counts = against_frozen_steps(monkeypatch)
    g0_flight()
    assert counts["attempts"] > 20 and counts["misses"] >= 1


def counting_kernels(monkeypatch):
    calls = {"iv_var_coeffs": 0, "iv_coeffs": 0}
    for name in calls:
        original = getattr(taylor, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(taylor, name, counted)
    return calls


def test_the_v3_v4_cell_takes_one_kernel_call_per_attempt(monkeypatch):
    # 22 attempts: 22 stacked calls, and 1 call for the W of the one
    # missed try.  With one call per series the flight took 57
    # iv_var_coeffs calls (23 hulls, 34 W) and 23 iv_coeffs calls for the
    # centres; with steps halved from the point rule and W(h/2) flown ahead
    # it took 26 calls in 23 attempts.
    calls = counting_kernels(monkeypatch)
    img = v3_v4_cell_flight(monkeypatch)
    assert img.stats.attempts == 22
    assert calls == {"iv_var_coeffs": 23, "iv_coeffs": 0}


def test_the_v3_v4_cell_encloses_each_crossing_in_few_dense_evaluations(monkeypatch):
    # interval Newton on y: 6 evaluations for the set and 4 for the
    # center box's point; the bisection took 15 and 36
    calls = {False: 0, True: 0}
    original = LohnerFlow.enclosure_at

    def counted(flow, rec, tau, of_center=False):
        calls[of_center] += 1
        return original(flow, rec, tau, of_center)

    monkeypatch.setattr(LohnerFlow, "enclosure_at", counted)
    img = v3_v4_cell_flight(monkeypatch)
    # one crossing of the set and one of its center box, refined once each
    assert img.stats.halvings == 0
    assert 0 < calls[False] <= 8 and 0 < calls[True] <= 8


def first_tries(stats):
    """Attempts that validated their first try, at the least."""
    return stats.attempts - stats.picard_misses - stats.budget_misses


def test_most_first_tries_validate(monkeypatch):
    # each step is sized from the last step's remainder, so the first try
    # validates; halving from the point rule validated none
    assert first_tries(v3_v4_cell_flight(monkeypatch).stats) >= 20
    stats = g0_flight().stats
    assert first_tries(stats) >= 0.8 * stats.attempts


def test_the_image_carries_the_step_counts_of_its_flight(monkeypatch):
    calls = {"attempt_step": 0, "commit": 0}
    for name in calls:
        original = getattr(LohnerFlow, name)

        def counted(flow, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(flow, *args)

        monkeypatch.setattr(LohnerFlow, name, counted)
    stats = g0_flight().stats
    assert (stats.attempts, stats.commits) == (calls["attempt_step"], calls["commit"])
    assert stats.commits > 20


def remainder_of(rec):
    """The realized Lagrange remainder of a step, state and variational."""
    hn = Interval.symmetric(rec.h).pow_int(integrator.ORDER + 1).mag
    return np.abs(np.concatenate([rec.rem.lo.ravel(), rec.rem.hi.ravel()])).max() * hn


@pytest.mark.parametrize("flight", ["v3_v4_cell", "g0"])
def test_every_accepted_step_keeps_its_remainder_within_budget(monkeypatch, flight):
    taken = []
    original = LohnerFlow.commit

    def commit(flow, rec):
        taken.append(remainder_of(rec))
        original(flow, rec)

    monkeypatch.setattr(LohnerFlow, "commit", commit)
    v3_v4_cell_flight(monkeypatch) if flight == "v3_v4_cell" else g0_flight()
    assert len(taken) > 20
    assert max(taken) <= integrator.REMAINDER_BUDGET


def tries_of(monkeypatch):
    """The step lengths each W is tried at, in order."""
    tries = []
    original = LohnerFlow._a_priori

    def logged(flow, hull, h):
        tries.append(h)
        return original(flow, hull, h)

    monkeypatch.setattr(LohnerFlow, "_a_priori", logged)
    return tries


def settled_flow():
    """A point set about the anchor after two steps, its counts reset: the
    first try of its next attempt, sized from the last remainder, passes
    the Picard test."""
    flow = LohnerFlow(P, box_set(IArray.from_point(ANCHOR).inflate(1e-12)))
    for _ in range(2):
        flow.commit(flow.attempt_step())
    flow.stats = integrator.FlowStats()
    return flow


def poisoned_first_call(monkeypatch, value):
    """Set the order-(N+1) rows of W in the next stacked kernel call to ``value``."""
    original = taylor.iv_var_coeffs
    n = integrator.ORDER

    def poisoned(xlo, xhi, vlo, vhi, mu, order):
        clo, chi, v_lo, v_hi = original(xlo, xhi, vlo, vhi, mu, order)
        if np.ndim(xlo) == 2:
            monkeypatch.setattr(taylor, "iv_var_coeffs", original)
            for ends in (clo, chi, v_lo, v_hi):
                ends[0, n + 1] = value
        return clo, chi, v_lo, v_hi

    monkeypatch.setattr(taylor, "iv_var_coeffs", poisoned)


def test_a_budget_miss_at_least_halves_the_step(monkeypatch):
    # a remainder just over the budget halves h
    flow = settled_flow()
    tries = tries_of(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(integrator, "REMAINDER_BUDGET", 1e-2 * integrator.TOL)
        rec = flow.attempt_step()
    assert tries == [tries[0], 0.5 * tries[0]] and rec.h == tries[1]
    assert (flow.stats.budget_misses, flow.stats.picard_misses) == (1, 0)
    # a far larger one cuts it by its own factor SAFETY (TOL / rem)^(1/21)
    tries.clear()
    poisoned_first_call(monkeypatch, 1e10)
    flow.attempt_step()
    hn = Interval.symmetric(tries[0]).pow_int(integrator.ORDER + 1).mag
    factor = integrator.SAFETY * (integrator.TOL / (1e10 * hn)) ** (1.0 / 21)
    assert factor < 0.4 and tries[:2] == [tries[0], tries[0] * factor]
    assert flow.stats.budget_misses == 2


def test_a_non_finite_remainder_halves_the_step(monkeypatch):
    flow = settled_flow()
    tries = tries_of(monkeypatch)
    poisoned_first_call(monkeypatch, np.inf)
    rec = flow.attempt_step()
    assert tries == [tries[0], 0.5 * tries[0]] and rec.h == tries[1]
    assert (flow.stats.budget_misses, flow.stats.picard_misses) == (1, 0)


def test_a_zero_remainder_leaves_the_point_rule_in_charge(monkeypatch):
    # a step whose remainder vanishes asks for no step of its own: the
    # next attempt first tries the point rule's step, where the remainder
    # of a step sized it before
    sized, flow = settled_flow(), settled_flow()
    poisoned_first_call(monkeypatch, 0.0)
    flow.commit(flow.attempt_step())
    tries = tries_of(monkeypatch)
    for f, point_rule_first in ((sized, False), (flow, True)):
        tries.clear()
        f.attempt_step()
        point_rule = integrator._step_from_coeffs(
            taylor.point_coeffs(f.lset.c, P.mu, integrator.ORDER))
        assert (tries[0] == point_rule) == point_rule_first
