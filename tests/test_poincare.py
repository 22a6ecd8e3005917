"""Section maps: composition, reversibility, derivatives, fixed points."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from pcr3bp import dynamics, hset, integrator, poincare as pc, taylor
from pcr3bp.dynamics import JACOBI_OTERMA, MU_SUN_JUPITER, Params
from pcr3bp.errors import DomainError, PCR3BPError, SearchError
from pcr3bp.integrator import flow_point
from pcr3bp.intervals import Interval
from pcr3bp.orbits import sample_trajectory

P = Params(MU_SUN_JUPITER, JACOBI_OTERMA)
RNG = np.random.default_rng(7)

# exterior-realm departure used as a well-behaved base point
BASE = pc.SectionPoint(-1.12327231155833984, 0.0, 1)
ANCHOR = pc.lift(P, BASE)


def section_samples(n, seed=11):
    """Random admissible section points on Theta_+ in the outer realm."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.uniform(-1.3, -1.0)
        vx = rng.uniform(-0.15, 0.15)
        try:
            pc.section_lift_vy(P, x, vx, 1)
        except DomainError:
            continue
        pts.append(pc.SectionPoint(x, vx, 1))
    return pts


# ----------------------------------------------------------------------
# map tags
# ----------------------------------------------------------------------


def test_tag_signatures():
    assert pc.HALF_PLUS.signs == (-1,)
    assert pc.HALF_MINUS.signs == (1,)
    assert pc.FULL_PLUS.signs == (-1, 1)
    assert pc.FULL_MINUS.signs == (1, -1)


def test_tag_domains_compose():
    assert pc.HALF_PLUS.image_sign == pc.HALF_MINUS.domain_sign
    assert pc.FULL_PLUS.domain_sign == pc.FULL_PLUS.image_sign
    with pytest.raises(DomainError):
        pc.apply_chain(P, [pc.HALF_PLUS, pc.HALF_PLUS], BASE)


# ----------------------------------------------------------------------
# lift / project
# ----------------------------------------------------------------------


def test_lift_project_roundtrip():
    for pt in section_samples(10):
        state = pc.lift(P, pt)
        assert state[1] == 0.0
        assert dynamics.jacobi_constant(P, state) == pytest.approx(P.jacobi, abs=1e-13)
        back = pc.project(state)
        assert back == pt


def test_lift_rejects_forbidden_points():
    with pytest.raises(DomainError):
        pc.lift(P, pc.SectionPoint(-1.0, 0.0, 1))


def test_lift_tangent_matches_finite_differences():
    pt = BASE
    state = pc.lift(P, pt)
    dt = pc.lift_tangent(P, state)
    eps = 1e-7
    for j, dvec in enumerate([(eps, 0.0), (0.0, eps)]):
        sp = pc.lift(P, pc.SectionPoint(pt.x + dvec[0], pt.vx + dvec[1], 1))
        sm = pc.lift(P, pc.SectionPoint(pt.x - dvec[0], pt.vx - dvec[1], 1))
        fd = (sp - sm) / (2 * eps)
        assert np.max(np.abs(dt[:, j] - fd)) < 1e-7


def test_reflect_is_an_involution_on_the_section():
    pt = section_samples(1, seed=5)[0]
    assert pc.reflect(pc.reflect(pt)) == pt
    state = pc.lift(P, pt)
    r_state = dynamics.reversal(state)
    assert pc.project(r_state) == pc.reflect(pt)


# ----------------------------------------------------------------------
# map application
# ----------------------------------------------------------------------


def test_full_map_is_the_half_map_composition():
    img_full, t_full = pc.apply_map(P, pc.FULL_PLUS, BASE)
    mid, t1 = pc.apply_map(P, pc.HALF_PLUS, BASE)
    img_two, t2 = pc.apply_map(P, pc.HALF_MINUS, mid)
    assert img_full.x == pytest.approx(img_two.x, abs=1e-12)
    assert img_full.vx == pytest.approx(img_two.vx, abs=1e-12)
    assert t_full == pytest.approx(t1 + t2, abs=1e-9)


def test_reversibility_conjugacy(lyapunov_orbits):
    # R P R = P_mirror^-1 pointwise on the section, so P_mirror(R P(p)) = R p;
    # the half maps mirror each other and each full map is its own mirror
    outer = section_samples(5, seed=13)
    l2 = lyapunov_orbits[2].point
    offsets = np.random.default_rng(17).uniform(-1e-3, 1e-3, size=(5, 2))
    near_l2 = [pc.SectionPoint(l2.x + dx, l2.vx + dv, -1) for dx, dv in offsets]
    for tag, mirror, points in ((pc.HALF_PLUS, pc.HALF_MINUS, outer),
                                (pc.FULL_PLUS, pc.FULL_PLUS, outer),
                                (pc.FULL_MINUS, pc.FULL_MINUS, near_l2)):
        for pt in points:
            img, _ = pc.apply_map(P, tag, pt)
            w, _ = pc.apply_map(P, mirror, pc.reflect(img))
            assert w.x == pytest.approx(pt.x, abs=1e-8)
            assert w.vx == pytest.approx(-pt.vx, abs=1e-8)


def test_apply_chain_runs_whole_words():
    # P+ as a chain of two half maps in application order
    img_chain, t_chain = pc.apply_chain(P, [pc.HALF_PLUS, pc.HALF_MINUS], BASE)
    img_full, t_full = pc.apply_map(P, pc.FULL_PLUS, BASE)
    assert img_chain.x == pytest.approx(img_full.x, abs=1e-12)
    assert t_chain == pytest.approx(t_full, abs=1e-10)


def test_domain_mismatch_raises():
    theta_minus_pt = pc.SectionPoint(1.05, 0.0, -1)
    with pytest.raises(DomainError):
        pc.apply_map(P, pc.HALF_PLUS, theta_minus_pt)
    with pytest.raises(DomainError):
        pc.apply_chain(P, [pc.HALF_PLUS, pc.HALF_MINUS], theta_minus_pt)
    with pytest.raises(DomainError):
        pc.chain_derivative(P, [pc.FULL_PLUS], theta_minus_pt)
    with pytest.raises(DomainError):
        pc.apply_parallelogram_rigorous(
            P, [pc.HALF_PLUS], (1.05, 0.0), (1e-6, 0.0), (0.0, 1e-6),
            Interval(-1.0, 1.0), Interval(-1.0, 1.0), -1)


def _single_flight(tags, pt):
    try:
        return pc.apply_chain(P, tags, pt)
    except PCR3BPError as exc:
        return exc


def test_lanes_match_single_flights_lane_by_lane(monkeypatch):
    # one P+ batch (two crossings per lane) of ordinary lanes and of lanes
    # that fail: outside the energy level, on the wrong side, inside the
    # guard radius at the start or on a close pass, and past the horizon;
    # each lane gives the bits of its single flight or its exception type
    x_lib = dynamics.libration_point(P, 1)
    monkeypatch.setattr(integrator, "MAX_TIME", 10.0)  # flights of 12-17 fail
    monkeypatch.setattr(taylor, "_GUARD_SQ", 1e-12)  # the close pass is 5.4e-8
    pts = [pc.SectionPoint(x, 0.0, 1) for x in (x_lib + np.linspace(-0.05, 0.05, 11)).tolist()]
    pts += [
        pc.SectionPoint(x_lib, 1.0, 1),  # outside the energy level
        pc.SectionPoint(x_lib, 0.0, -1),  # not the domain of P+
        pc.SectionPoint(1.0 - P.mu + 1e-13, 0.0, 1),  # at the small primary
        pc.SectionPoint(0.9351335715115707, 0.0, 1),  # its close pass
    ]
    lanes = pc.apply_chain_lanes(P, [pc.FULL_PLUS], pts)
    kinds = []
    for pt, lane in zip(pts, lanes):
        single = _single_flight([pc.FULL_PLUS], pt)
        if isinstance(single, PCR3BPError):
            assert type(lane) is type(single) and str(lane) == str(single)
            kinds.append(type(single).__name__)
        else:
            assert lane == single
            kinds.append("image")
    assert kinds == (["HorizonError"] * 4 + ["image"] * 7
                     + ["DomainError"] * 2 + ["SingularityError"] * 2)


def test_lanes_let_other_exceptions_through(monkeypatch):
    def broken(states, mu, n):
        raise FloatingPointError("kernel fault")

    monkeypatch.setattr(taylor, "lane_coeffs", broken)
    with pytest.raises(FloatingPointError):
        pc.apply_chain_lanes(P, [pc.HALF_PLUS], [BASE])


def test_point_outputs_are_pinned_to_the_bit():
    # point-mode outputs frozen as exact floats: a reworked flight path that
    # drifts in the last bits fails here, where the tolerance tests pass
    got = {}
    for i in (1, 2):
        o = pc.lyapunov_fixed_point(P, i)
        got[f"L{i}"] = [o.point.x, o.point.vx, o.period, *o.multipliers, o.residual]
    for tag in (pc.HALF_PLUS, pc.FULL_PLUS):
        dp, img, t = pc.chain_derivative(P, [tag], BASE)
        got[tag.name] = [*dp.ravel(), img.x, img.vx, img.sign, t]
    state, v = flow_point(P, ANCHOR, 2.3456789, variational=True)
    got["flow"] = [*state, *v.ravel()]
    got["back"] = sample_trajectory(P, ANCHOR, -2.5, 5).states.ravel().tolist()
    assert {k: [float(x) for x in v] for k, v in got.items()} == {
        "L1": [0.9208034913207471, -1.4848058623877282e-15, 3.082119126392008,
               1391.7775433629345, 0.0007185056293792513, 5.770892844227202e-14],
        "L2": [1.0819294868417904, 3.0621344679964687e-15, 3.3106714575715506,
               1147.247960036633, 0.0008716511468946919, 3.814275225688063e-14],
        "Ph+": [-27.573299317810648, -0.7645254222159652, -37.378086303733916,
                -1.072649916577659, 1.0933378373828957, -0.025100941960990532,
                -1.0, 10.428050146550534],
        "P+": [-460.5590176436674, -12.943450017910695, -1627.6732561526574,
               -45.74594488302017, 1.047131541187202, -0.0010561993176001862,
               1.0, 12.047542757948378],
        "flow": [-1.1658288496926716, 0.6263268701685838, 0.12158127039211467,
                 0.46820122032939365, 2.1245436595688525, 0.6115911753731486,
                 -0.526033072306341, 1.841834964556228, -7.618264744349805,
                 1.3801481440167713, -3.249880855678199, -3.3656616279822553,
                 -3.1340278173821585, 0.6381494659490491, -2.112502877559563,
                 -1.2039493424448409, -7.277653077228953, 0.017571270384693576,
                 -1.1766808631343684, -4.599706417998126],
        "back": [-1.1232723115583398, 0.0, 0.0, 0.11797393804215285,
                 -1.1404111643473092, -0.082593388792858, 0.05098149135182003,
                 0.1598831911988046, -1.1776338046085182, -0.21384482426458573,
                 0.05738029546211282, 0.26794362189556603, -1.1958734723962627,
                 -0.4216745642939883, -0.013316396731532247, 0.39548005810301773,
                 -1.1437101636361995, -0.6997875871654721, -0.16567051286030954,
                 0.4829532197978789],
    }


# ----------------------------------------------------------------------
# sign-change search
# ----------------------------------------------------------------------


def test_point_crossings_do_not_refind_the_root_they_land_on():
    # on these Fix(R) seeds near the L1 orbit the first landing leaves y at
    # +8.7e-19, the sign of the side just left; the next step must not
    # take that residue for a second crossing
    for x in (0.9207986617591787, 0.9207696843897678):
        pt = pc.SectionPoint(x, 0.0, 1)
        (half, t_half), (full, t_full) = (pc.apply_chain(P, [tag], pt)
                                          for tag in (pc.HALF_PLUS, pc.FULL_PLUS))
        assert (half.sign, full.sign) == (-1, 1)
        assert t_full - t_half > 1.0  # half a turn apart


def _bisect_to_adjacency(f, lo, hi, flo):
    """A plain bisection of a sign-change bracket down to adjacent floats."""
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_refine_bracket_to_adjacent_floats_stops_evaluating():
    calls = []

    def f(x):
        # the sign of x - root, for a root that is no float
        calls.append(x)
        return 1.0 if Fraction(x) > root else -1.0

    # from [0, 1], a bisection reaches adjacent ends after k halvings once
    # 2^-k is the spacing of the floats at the root: 2^-56 in [1/16, 1/8),
    # 2^-54 in [1/4, 1/2) and 2^-53 in [1/2, 1); the safeguard spends at
    # most three evaluations per halving
    expected = {Fraction(1, 10): 56, Fraction(1, 3): 54, Fraction(9, 10): 53}
    for root, halvings in expected.items():
        calls.clear()
        lo, hi = pc._refine_bracket(f, 0.0, 1.0, -1.0, 1.0, tol=0.0)
        assert lo < root < hi == np.nextafter(lo, np.inf)
        assert len(calls) <= 3 * halvings
        calls.clear()
        assert pc._refine_bracket(f, lo, hi, -1.0, 1.0, tol=0.0) == (lo, hi)
        assert calls == []


def test_refine_bracket_converges_fast_on_a_smooth_root():
    calls = []

    def f(x):
        # x^3 - 2, correctly rounded: one sign change, at the cube root of 2
        calls.append(x)
        return float(Fraction(x) ** 3 - 2)

    lo, hi = 1.255, 1.26
    flo, fhi = f(lo), f(hi)
    calls.clear()
    refined = pc._refine_bracket(f, lo, hi, flo, fhi, tol=0.0)
    assert len(calls) <= 12
    assert refined == _bisect_to_adjacency(f, lo, hi, flo)
    assert refined[1] == np.nextafter(refined[0], np.inf)


def test_refine_bracket_reports_a_failure_inside_the_bracket():
    def f(x):
        return None if 0.4 < x < 0.6 else x - 0.5

    assert pc._refine_bracket(f, 0.0, 1.0, -0.5, 0.5, tol=0.0) is None


def test_refine_bracket_stops_on_an_exact_zero():
    # the secant point of a line is its root; a zero at an end needs no
    # evaluation at all
    assert pc._refine_bracket(lambda x: x - 0.5, 0.0, 1.0, -0.5, 0.5, 0.0) == (0.5, 0.5)
    assert pc._refine_bracket(pytest.fail, 0.0, 1.0, 0.0, 0.5, 0.0) == (0.0, 0.0)
    assert pc._refine_bracket(pytest.fail, 0.0, 1.0, -0.5, 0.0, 0.0) == (1.0, 1.0)


def test_refine_bracket_says_when_its_budget_runs_out(monkeypatch):
    # a bracket short of adjacency is never returned as if refined
    monkeypatch.setattr(pc, "_evaluation_budget", lambda lo, hi, tol: 5)
    with pytest.raises(SearchError, match="evaluation budget"):
        pc._refine_bracket(lambda x: 1.0 if x > 1 / 3 else -1.0,
                           0.0, 1.0, -1.0, 1.0, tol=0.0)


def test_grid_brackets_split_at_failures():
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert pc._grid_brackets(grid, [None if x == 0.0 else x for x in grid]) == []
    assert pc._grid_brackets(grid, grid - 0.25) == [(0.0, 0.5, -0.25, 0.25)]


# ----------------------------------------------------------------------
# derivatives
# ----------------------------------------------------------------------


def test_map_derivative_matches_finite_differences():
    dp, img, _ = pc.chain_derivative(P, [pc.HALF_PLUS], BASE)
    eps = 1e-7
    fd = np.zeros((2, 2))
    for j, dvec in enumerate([(eps, 0.0), (0.0, eps)]):
        pp = pc.SectionPoint(BASE.x + dvec[0], BASE.vx + dvec[1], 1)
        pm = pc.SectionPoint(BASE.x - dvec[0], BASE.vx - dvec[1], 1)
        ip, _ = pc.apply_map(P, pc.HALF_PLUS, pp)
        im, _ = pc.apply_map(P, pc.HALF_PLUS, pm)
        fd[:, j] = (ip.as_array() - im.as_array()) / (2 * eps)
    assert np.max(np.abs(dp - fd)) < 1e-6 * np.max(np.abs(dp))


def test_chain_rule_across_the_intermediate_section():
    dp_full, _, _ = pc.chain_derivative(P, [pc.FULL_PLUS], BASE)
    dp_1, mid, _ = pc.chain_derivative(P, [pc.HALF_PLUS], BASE)
    dp_2, _, _ = pc.chain_derivative(P, [pc.HALF_MINUS], mid)
    assert np.max(np.abs(dp_2 @ dp_1 - dp_full)) < 1e-8 * np.max(np.abs(dp_full))


# ----------------------------------------------------------------------
# rigorous application
# ----------------------------------------------------------------------


def test_rigorous_image_contains_point_images():
    rig = pc.apply_parallelogram_rigorous(
        P, [pc.HALF_PLUS], (BASE.x, BASE.vx), (1.0, 0.0), (0.0, 1.0),
        Interval(-5e-9, 5e-9), Interval(-2e-7, 2e-7), 1, want_derivative=True)
    for sx in (-1.0, 0.0, 1.0):
        for sv in (-1.0, 0.0, 1.0):
            pt = pc.SectionPoint(BASE.x + sx * 5e-9, sv * 2e-7, 1)
            img, t = pc.apply_map(P, pc.HALF_PLUS, pt)
            assert rig.x.lo <= img.x <= rig.x.hi
            assert rig.vx.lo <= img.vx <= rig.vx.hi
            assert rig.t.lo <= t <= rig.t.hi
    dp_pt, _, _ = pc.chain_derivative(P, [pc.HALF_PLUS], BASE)
    for i in range(2):
        for j in range(2):
            assert rig.dp[i, j].lo <= dp_pt[i, j] <= rig.dp[i, j].hi


def vy_on_level_mp(x, vx, sign):
    """The on-level vy of a section point, to 50 digits."""
    with mp.workdps(50):
        x, vx, mu = mp.mpf(x), mp.mpf(vx), mp.mpf(P.mu)
        r1, r2 = abs(x + mu), abs(x - 1 + mu)
        omega = x**2 / 2 + (1 - mu) / r1 + mu / r2 + mu * (1 - mu) / 2
        return sign * mp.sqrt(2 * omega - vx**2 - mp.mpf(P.jacobi))


def test_lifted_cell_contains_its_on_level_center():
    # at the centres and exit-edge midpoints of V3, G0 and G3 the float
    # lift misses the exact vy by up to a few ulps; the lifted cell, thin
    # or whole, must still hold the exact lift of its centre, and c itself
    sets = {**hset.load_bundled("g_chain"), **hset.load_bundled("v_chain")}
    zero, whole = Interval.point(0.0), Interval(-1.0, 1.0)
    missed = 0
    for name in ("V3", "G0", "G3"):
        h = sets[name]
        for a_mid in (-1.0, 0.0, 1.0):
            origin = h.corner_point(a_mid, 0.0)
            for a, b in ((zero, zero), (whole, whole)):
                lset, _ = pc._lifted_cell(P, origin, h.u, h.s, a, b, h.sign,
                                          False)
                c, r = lset.c, lset.r
                exact = vy_on_level_mp(c[0], c[2], h.sign)
                missed += exact != mp.mpf(c[3])
                # the set's points over the cell centre (da = db = 0) are
                # c + r[3] e_vy
                with mp.workdps(50):
                    assert mp.mpf(c[3]) + mp.mpf(r[3].lo) <= exact
                    assert exact <= mp.mpf(c[3]) + mp.mpf(r[3].hi)
                assert all(r[i].contains(0.0) for i in range(4))
    assert missed > 0  # the float lift is inexact somewhere


def test_lifted_cells_hold_their_exact_corners():
    # the float sum origin + am d1 + bm d2 rounds; the offsets must take
    # that miss up, or the corners of subdivided cells fall outside the set
    sets = {**hset.load_bundled("g_chain"), **hset.load_bundled("v_chain")}
    whole = Interval(-1.0, 1.0)
    for name in ("G0", "V3", "G3"):
        h = sets[name]
        o, d1, d2 = ([Fraction(float(v)) for v in w] for w in (h.center, h.u, h.s))
        det = d1[0] * d2[1] - d2[0] * d1[1]
        for a in whole.split(16):
            lset, _ = pc._lifted_cell(P, h.center, h.u, h.s, a, whole, h.sign,
                                      False)
            # the set's (x, vx) are c + da d1 + db d2
            c = (Fraction(lset.c[0]), Fraction(lset.c[2]))
            for alpha in (a.lo, a.hi):
                for beta in (whole.lo, whole.hi):
                    e = [o[i] + Fraction(alpha) * d1[i] + Fraction(beta) * d2[i]
                         - c[i] for i in range(2)]
                    da = (e[0] * d2[1] - d2[0] * e[1]) / det
                    db = (d1[0] * e[1] - e[0] * d1[1]) / det
                    assert Fraction(lset.r[0].lo) <= da <= Fraction(lset.r[0].hi)
                    assert Fraction(lset.r[1].lo) <= db <= Fraction(lset.r[1].hi)


def test_rigorous_composite_word():
    # one flight through P+ then Ph+: three crossings, no re-boxing
    tiny = Interval(-1e-10, 1e-10)
    rig = pc.apply_parallelogram_rigorous(
        P, [pc.FULL_PLUS, pc.HALF_PLUS], (BASE.x, BASE.vx), (1.0, 0.0),
        (0.0, 1.0), tiny, tiny, 1)
    mid, _ = pc.apply_map(P, pc.FULL_PLUS, BASE)
    img, _ = pc.apply_map(P, pc.HALF_PLUS, mid)
    assert rig.x.lo <= img.x <= rig.x.hi
    assert rig.vx.lo <= img.vx <= rig.vx.hi
    assert rig.state[3].hi < 0.0  # lands on Theta_-


# ----------------------------------------------------------------------
# Lyapunov fixed points
# ----------------------------------------------------------------------


def test_lyapunov_frozen_positions(lyapunov_orbits):
    assert lyapunov_orbits[1].point.x == pytest.approx(0.920803491320747, abs=1e-9)
    assert lyapunov_orbits[2].point.x == pytest.approx(1.081929486841790, abs=1e-9)


def test_lyapunov_fixed_point_quality(lyapunov_orbits):
    for i, full in ((1, pc.FULL_PLUS), (2, pc.FULL_MINUS)):
        orb = lyapunov_orbits[i]
        assert orb.residual < 1e-11
        assert abs(orb.point.vx) < 1e-12  # sits on the symmetry line
        img, t = pc.apply_map(P, full, orb.point)
        assert abs(img.x - orb.point.x) < 1e-11
        assert t == pytest.approx(orb.period, abs=1e-9)


def test_lyapunov_multipliers(lyapunov_orbits):
    for i in (1, 2):
        lam_u, lam_s = lyapunov_orbits[i].multipliers
        assert lam_u > 100.0
        assert abs(lam_u * lam_s - 1.0) < 1e-8


def test_lyapunov_eigenvector_symmetry(lyapunov_orbits):
    # the reversal maps the unstable direction to the stable one
    for i in (1, 2):
        orb = lyapunov_orbits[i]
        r_u = np.array([orb.unstable_dir[0], -orb.unstable_dir[1]])
        cross = abs(r_u[0] * orb.stable_dir[1] - r_u[1] * orb.stable_dir[0])
        assert cross < 1e-7


def test_lyapunov_periods(lyapunov_orbits):
    assert lyapunov_orbits[1].period == pytest.approx(3.082119126392, abs=1e-8)
    assert lyapunov_orbits[2].period == pytest.approx(3.310671457571, abs=1e-8)


@pytest.mark.parametrize("index", [1, 2])
def test_lyapunov_bracket_takes_few_flights(monkeypatch, lyapunov_orbits, index):
    # after the lane scan, each evaluation of the perpendicularity defect
    # is one apply_map flight; a bisection to adjacent floats took 42 (L1)
    # and 41 (L2), the regula falsi ends on the same adjacent bracket
    flights, refinements = [], []
    original_map, original_refine = pc.apply_map, pc._refine_bracket

    def counted(*args):
        flights.append(args)
        return original_map(*args)

    def recorded(f, lo, hi, flo, fhi, tol):
        refined = original_refine(f, lo, hi, flo, fhi, tol)
        refinements.append((f, lo, hi, flo, refined))
        return refined

    monkeypatch.setattr(pc, "apply_map", counted)
    monkeypatch.setattr(pc, "_refine_bracket", recorded)
    orb = pc.lyapunov_fixed_point(P, index)
    assert len(flights) <= 12
    [(defect, lo, hi, flo, refined)] = refinements
    assert refined == _bisect_to_adjacency(defect, lo, hi, flo)
    assert orb.point == lyapunov_orbits[index].point


def test_lyapunov_polish_stops_when_the_residual_stops_decreasing(monkeypatch):
    # rounding, magnified by the unstable multiplier, keeps the Newton
    # residual near 1e-14..1e-13; the polish must stop there instead of
    # cycling, and return the best iterate with the derivative made there
    calls = []
    original = pc.chain_derivative

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(pc, "chain_derivative", counted)
    orb = pc.lyapunov_fixed_point(P, 1)
    assert 2 <= len(calls) <= 5
    dp, img, period = original(P, [pc.FULL_PLUS], orb.point)
    assert orb.residual == float(np.max(np.abs(img.as_array() - orb.point.as_array())))
    assert orb.period == abs(period)
    lam = np.sort(np.abs(np.linalg.eigvals(dp)))[::-1]
    assert [abs(m) for m in orb.multipliers] == pytest.approx(lam, rel=1e-12)
