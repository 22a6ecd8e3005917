"""Adaptive Taylor integration: point mode and validated Lohner mode."""

import numpy as np
import pytest

from pcr3bp import dynamics, integrator, taylor
from pcr3bp.dynamics import JACOBI_OTERMA, MU_SUN_JUPITER, Params
from pcr3bp.errors import EnclosureError, IntegrationError, SingularityError
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
    lset = box_set(IArray.from_point(ANCHOR).inflate(1e-12))
    flow = LohnerFlow(P, lset)
    while flow.t < 1.0:
        flow.commit(flow.attempt_step())
    el = flow.elapsed
    assert el.width <= 4e-16 * max(1.0, abs(flow.t))


def test_accumulated_jacobian_contains_point_jacobian():
    # the derivative accumulated over the whole flight to the second
    # crossing, through the first
    box = IArray.from_point(ANCHOR).inflate(1e-11)
    lset = box_set(box, track_jacobian=True)
    crossings, jac = lohner_section_crossings(P, lset, [-1, 1], want_jacobian=True)
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
    crossings, jac = lohner_section_crossings(P, lset, [-1], want_jacobian=True)
    t_star = crossings[0].t.mid
    _, v = flow_point(P, ANCHOR, t_star, variational=True)
    # the point jacobian at the enclosed crossing time must lie inside
    assert np.all(jac.lo <= v + 1e-30)
    assert np.all(v <= jac.hi + 1e-30)


def test_wrong_sign_request_fails():
    box = IArray.from_point(ANCHOR).inflate(1e-10)
    with pytest.raises(IntegrationError):
        lohner_section_crossings(P, box_set(box), [1])


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
    clo, chi = rec.c.lo.copy(), rec.c.hi.copy()
    clo[0, 0], chi[0, 0] = lo, hi
    rec.c = IArray(clo, chi)
    with pytest.raises(EnclosureError, match="not bounded"), np.errstate(invalid="ignore"):
        flow._reanchor(rec, Interval.point(rec.h))


# ----------------------------------------------------------------------
# one kernel call per validated step
# ----------------------------------------------------------------------


def frozen_attempt(flow, h_cap=None):
    """The validated step with one kernel call per series, as a reference.

    A copy of the attempt loop from before the stacked kernel call: one
    call for W at every try, then one for the centre and one for the hull,
    each at its own order.  Returns the step's bits (:func:`step_bits`) and
    the number of W tries that missed the remainder budget.
    """
    params, lset, n = flow.params, flow.lset, integrator.ORDER
    hull = lset.hull()
    h = integrator._step_from_coeffs(taylor.point_coeffs(lset.c, params.mu, n))
    if h_cap is not None:
        h = min(h, h_cap)
    misses = 0
    while True:
        span = Interval(0.0, h)
        w = flow._rough_enclosure(hull, span)
        wv = flow._rough_var_enclosure(w, span) if w is not None else None
        if wv is not None:
            rlo, rhi, vrlo, vrhi = taylor.iv_var_coeffs(
                w.lo, w.hi, wv.lo, wv.hi, params.mu, n + 1)
            hn = Interval.symmetric(h).pow_int(n + 1).mag
            rem_sz = max(abs(rlo[n + 1]).max(), abs(rhi[n + 1]).max()) * hn
            vrem_sz = max(abs(vrlo[n + 1]).max(), abs(vrhi[n + 1]).max()) * hn
            if max(rem_sz, vrem_sz) <= integrator.REMAINDER_BUDGET:
                break
            misses += 1
        h *= 0.5
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
    return step_bits(rec.h, (rec.rem.lo, rec.rem.hi), (rec.vrem.lo, rec.vrem.hi),
                     (rec.ph.lo, rec.ph.hi), (rec.c.lo, rec.c.hi), rec.wy, rec.wvy)


def against_frozen_steps(monkeypatch):
    """Check every attempt of the flights that follow against the frozen loop.

    Returns the counts of attempts and of budget misses, filled as they fly.
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


def v3_v4_cell_flight():
    """The one flight of check_cover of V3 => V4 (Ph-) at 1x1."""
    sets = standard_sets(include_constructed=False)
    src, dst = sets["V3"], sets["V4"]
    rep = check_cover(section_map(Params(), [HALF_MINUS], src, dst), src, dst,
                      grid=(1, 1), max_grid=(4, 1))
    assert (rep.outcome, rep.cells) == ("verified", 1)


def test_stacked_steps_match_one_call_per_series_on_the_v3_v4_cell(monkeypatch):
    counts = against_frozen_steps(monkeypatch)
    v3_v4_cell_flight()
    assert counts == {"attempts": 23, "misses": 11}


def test_stacked_steps_match_one_call_per_series_on_g0_under_ph_plus(monkeypatch):
    counts = against_frozen_steps(monkeypatch)
    h = standard_sets(include_constructed=False)["G0"]
    whole = Interval(-1.0, 1.0)
    apply_parallelogram_rigorous(Params(), [HALF_PLUS], h.center, h.u, h.s, whole,
                                 whole, h.sign, want_derivative=True)
    assert counts["attempts"] > 20 and counts["misses"] > 5


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
    # 23 attempts: 23 stacked calls, and 3 calls for the W of a budget miss
    # that no half step flown ahead covered.  With one call per series the
    # flight took 57 iv_var_coeffs calls (23 hulls, 34 W) and 23 iv_coeffs
    # calls for the centres.
    attempts = {"n": 0}
    original = LohnerFlow.attempt_step

    def counted(flow, h_cap=None):
        attempts["n"] += 1
        return original(flow, h_cap)

    monkeypatch.setattr(LohnerFlow, "attempt_step", counted)
    calls = counting_kernels(monkeypatch)
    v3_v4_cell_flight()
    assert attempts["n"] == 23
    assert calls == {"iv_var_coeffs": 26, "iv_coeffs": 0}


def missing_flow():
    """A flow whose next attempt flies W(h/2) ahead and needs it.

    The 1e-3 box about the anchor: its 9th attempt misses the remainder
    budget on its first W, and so does its 10th.
    """
    flow = LohnerFlow(P, box_set(IArray.from_point(ANCHOR).inflate(1e-3)))
    for _ in range(9):
        flow.commit(flow.attempt_step())
    assert flow._pre_fly
    return flow


def failing_once(method, h, fail, seen):
    """``method(flow, box, span)`` with its first call over a step of ``h``
    replaced by ``fail()``, which ``seen`` records."""
    def patched(flow, box, span):
        if span.hi == h and not seen:
            seen.append(h)
            return fail()
        return method(flow, box, span)

    return patched


def _refuse():
    raise SingularityError("forced guard refusal")


@pytest.mark.parametrize("how", [None, "picard", "jacobian", "kernel"])
def test_a_failed_half_step_falls_back_to_its_own_call(monkeypatch, how):
    # the attempt takes the step of one call per series.  It flies the half
    # step ahead and takes it without a call of its own; when that half
    # step fails it raises nothing, and flies the half step itself.
    flow = missing_flow()
    ref, misses = frozen_attempt(flow)
    assert misses == 1
    h_half = float.fromhex(ref["h"])
    calls = counting_kernels(monkeypatch)
    seen = []
    if how == "picard":
        monkeypatch.setattr(LohnerFlow, "_rough_enclosure", failing_once(
            LohnerFlow._rough_enclosure, h_half, lambda: None, seen))
    elif how == "jacobian":
        monkeypatch.setattr(LohnerFlow, "_rough_var_enclosure", failing_once(
            LohnerFlow._rough_var_enclosure, h_half, _refuse, seen))
    elif how == "kernel":
        stacked = taylor.iv_var_coeffs

        def refuse_the_half(xlo, *rest):
            if np.ndim(xlo) == 2 and len(xlo) == 4:  # W, W(h/2), hull, centre
                seen.append(h_half)
                _refuse()
            return stacked(xlo, *rest)

        monkeypatch.setattr(taylor, "iv_var_coeffs", refuse_the_half)
    rec = flow.attempt_step()
    assert record_bits(rec) == ref
    assert seen == ([] if how is None else [h_half])
    assert calls["iv_var_coeffs"] == (1 if how is None else 2)
