"""Taylor coefficient kernels: recurrences, variational series, enclosures."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from pcr3bp import dynamics, integrator, taylor
from pcr3bp.dynamics import JACOBI_OTERMA, MU_SUN_JUPITER, Params
from pcr3bp.errors import PCR3BPError, SingularityError
from pcr3bp.integrator import PointFlow
from pcr3bp.intervals import IArray, _iadd, _imul
from pcr3bp.poincare import SectionPoint, lift

P = Params(MU_SUN_JUPITER, JACOBI_OTERMA)
RNG = np.random.default_rng(1123)

STATE = np.array([-1.12327231155833984, 0.0, 0.0, 0.11797393804215285])
ORDER = 20


def random_states(n, rng=RNG):
    out = []
    while len(out) < n:
        s = rng.uniform([-1.4, -1.4, -0.6, -0.6], [1.4, 1.4, 0.6, 0.6])
        r1 = np.hypot(s[0] + P.mu, s[1])
        r2 = np.hypot(s[0] - 1 + P.mu, s[1])
        if r1 > 0.2 and r2 > 0.05:
            out.append(s)
    return out


def test_first_coefficient_is_the_vector_field():
    for s in random_states(10):
        c = taylor.point_coeffs(s, P.mu, 6)
        f = dynamics.vector_field(P, s)
        assert np.allclose(c[1], f, rtol=1e-14, atol=1e-14)
        assert np.array_equal(c[0], s)


def test_series_satisfies_the_equation_termwise():
    # (k+1) c_{k+1} must be the k-th Taylor coefficient of f(x(t)); check
    # via differentiated Horner evaluation against the field along the arc
    c = taylor.point_coeffs(STATE, P.mu, ORDER)
    dc = (c[1:].T * np.arange(1, ORDER + 1)).T  # series of d/dt x(t)
    for tau in (0.0, 0.05, -0.07, 0.11):
        x_t = taylor.horner_point(c, tau)
        dx_t = taylor.horner_point(np.vstack([dc, np.zeros(4)]), tau)
        f = dynamics.vector_field(P, x_t)
        assert np.max(np.abs(dx_t - f)) < 1e-12


def test_series_matches_independent_integrator():
    # mpmath's odefun is an unrelated Taylor implementation at 30 digits
    mp.mp.dps = 30
    mu = mp.mpf('0.0009537')

    def field(t, s):
        x, y, vx, vy = s
        r1 = mp.sqrt((x + mu) ** 2 + y**2)
        r2 = mp.sqrt((x - 1 + mu) ** 2 + y**2)
        ox = x - (1 - mu) * (x + mu) / r1**3 - mu * (x - 1 + mu) / r2**3
        oy = y - (1 - mu) * y / r1**3 - mu * y / r2**3
        return [vx, vy, 2 * vy + ox, -2 * vx + oy]

    ref = mp.odefun(field, 0, [mp.mpf(float(v)) for v in STATE], tol=mp.mpf('1e-25'))
    c = taylor.point_coeffs(STATE, P.mu, 28)
    for tau in (0.02, 0.05, 0.08):
        ours = taylor.horner_point(c, tau)
        theirs = ref(tau)
        err = max(abs(mp.mpf(float(o)) - t) for o, t in zip(ours, theirs))
        assert err < 1e-14


def test_jacobi_constant_along_series():
    c = taylor.point_coeffs(STATE, P.mu, ORDER)
    c0 = dynamics.jacobi_constant(P, STATE)
    for tau in np.linspace(-0.1, 0.1, 11):
        drift = dynamics.jacobi_constant(P, taylor.horner_point(c, tau)) - c0
        assert abs(drift) < 1e-13


def test_variational_series_matches_finite_differences():
    c, vc = taylor.point_var_coeffs(STATE, np.eye(4), P.mu, ORDER)
    tau = 0.05
    v = taylor.horner_var_point(vc, tau)
    eps = 1e-6
    for j in range(4):
        dv = np.zeros(4)
        dv[j] = eps
        cp = taylor.point_coeffs(STATE + dv, P.mu, ORDER)
        cm = taylor.point_coeffs(STATE - dv, P.mu, ORDER)
        fd = (taylor.horner_point(cp, tau) - taylor.horner_point(cm, tau)) / (2 * eps)
        assert np.max(np.abs(v[:, j] - fd)) < 1e-8


def test_variational_series_seeding():
    # seeding with V0 must equal (series with identity) @ V0
    v0 = RNG.normal(size=(4, 4))
    _, vc_seeded = taylor.point_var_coeffs(STATE, v0, P.mu, 12)
    _, vc_eye = taylor.point_var_coeffs(STATE, np.eye(4), P.mu, 12)
    tau = 0.04
    a = taylor.horner_var_point(vc_seeded, tau)
    b = taylor.horner_var_point(vc_eye, tau) @ v0
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b)))


def test_interval_coeffs_contain_point_coeffs():
    for s in random_states(6):
        c = taylor.point_coeffs(s, P.mu, 10)
        box = np.array([s - 1e-6, s + 1e-6])
        clo, chi = taylor.iv_coeffs(box[0], box[1], P.mu, 10)
        for _ in range(10):
            sample = RNG.uniform(box[0], box[1])
            cs = taylor.point_coeffs(sample, P.mu, 10)
            assert np.all(clo <= cs + 1e-300) and np.all(cs <= chi + 1e-300)
        assert np.all(clo <= c) and np.all(c <= chi)


def test_interval_thin_coeffs_are_tight():
    # rounding slack compounds through the order-k convolutions; measured
    # against each order's dominant coefficient it stays below ~1e-10
    clo, chi = taylor.iv_coeffs(STATE, STATE, P.mu, ORDER)
    c = taylor.point_coeffs(STATE, P.mu, ORDER)
    width = chi - clo
    row_scale = np.maximum(np.max(np.abs(c), axis=1), 1e-300)
    assert np.max(width / row_scale[:, None]) < 1e-9
    assert np.all(clo <= c) and np.all(c <= chi)


def test_interval_horner_contains_point_horner():
    clo, chi = taylor.iv_coeffs(STATE - 1e-8, STATE + 1e-8, P.mu, ORDER)
    c = taylor.point_coeffs(STATE, P.mu, ORDER)
    for tlo, thi in [(0.0, 0.05), (-0.05, 0.0), (0.02, 0.03)]:
        lo, hi = taylor.horner_iv(clo, chi, tlo, thi)
        for tau in np.linspace(tlo, thi, 7):
            pt = taylor.horner_point(c, tau)
            assert np.all(lo <= pt) and np.all(pt <= hi)


def test_interval_variational_contains_point_variational():
    vlo_seed = np.eye(4)
    clo, chi, vlo, vhi = taylor.iv_var_coeffs(
        STATE - 1e-8, STATE + 1e-8, vlo_seed, vlo_seed, P.mu, 12
    )
    _, vc = taylor.point_var_coeffs(STATE, np.eye(4), P.mu, 12)
    assert np.all(vlo <= vc + 1e-300) and np.all(vc <= vhi + 1e-300)
    glo, ghi = taylor.horner_var_iv(vlo, vhi, 0.0, 0.04)
    for tau in np.linspace(0.0, 0.04, 5):
        v = taylor.horner_var_point(vc, tau)
        assert np.all(glo <= v) and np.all(v <= ghi)


def test_close_encounter_guard():
    at_primary = np.array([1.0 - P.mu, 0.0, 0.1, 0.1])
    with pytest.raises(SingularityError):
        taylor.point_coeffs(at_primary, P.mu, 8)
    with pytest.raises(SingularityError):
        taylor.iv_coeffs(at_primary - 1e-3, at_primary + 1e-3, P.mu, 8)
    # the lane kernel flags the lane and refuses the batch
    states = np.column_stack([STATE, at_primary])
    assert taylor.lane_guard(states, P.mu).tolist() == [False, True]
    with pytest.raises(SingularityError):
        taylor.lane_coeffs(states, P.mu, 8)


def states_near_the_necks(n, rng):
    """(4, n) states around the L1 and L2 libration points, alternating."""
    necks = [dynamics.libration_point(P, i) for i in (1, 2)]
    x_lib = np.array([necks[k % 2] for k in range(n)])
    lo = np.column_stack([x_lib - 0.05, np.tile([-0.02, -0.1, -0.1], (n, 1))])
    hi = np.column_stack([x_lib + 0.05, np.tile([0.02, 0.1, 0.1], (n, 1))])
    return rng.uniform(lo, hi).T


def test_builtin_sum_adds_left_to_right():
    # the list kernel sums its convolutions with the built-in sum, and the
    # lane kernel is pinned to its bits by adding the same terms in order;
    # from Python 3.12 on sum compensates floats (1.0 here, not 0.0), which
    # breaks those pins, so pyproject.toml supports Python < 3.12 only
    assert sum([1e16, 1.0, -1e16]) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 200])
def test_lane_kernel_matches_list_kernel(n):
    states = states_near_the_necks(n, np.random.default_rng(n))
    lanes = taylor.lane_coeffs(states, P.mu, ORDER)
    assert lanes.shape == (ORDER + 1, 4, n)
    for i in range(n):
        assert np.array_equal(lanes[:, :, i], taylor.point_coeffs(states[:, i], P.mu, ORDER))


def test_lane_kernel_matches_list_kernel_through_a_close_pass():
    # this Theta_+ point of the L1 Lyapunov scan closes in on the small
    # primary until its step rule asks for less than H_MIN; one lane, where
    # the axis the terms are summed along is contiguous and a pairwise sum
    # would change the last bits, and two copies of it, which run the lane
    # recurrence, up to that step
    flow = PointFlow(P, lift(P, SectionPoint(0.9351335715115707, 0.0, 1)))
    for steps in range(100):
        ref = taylor.point_coeffs(flow.state[:, 0], P.mu, ORDER)
        for n in (1, 2):
            lanes = taylor.lane_coeffs(np.repeat(flow.state, n, axis=1), P.mu, ORDER)
            for i in range(n):
                assert np.array_equal(lanes[:, :, i], ref)
        if not flow.step().h[0]:
            break
    assert steps > 50 and integrator._step_from_coeffs(ref) < integrator.H_MIN


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stacked_boxes_match_their_one_box_calls():
    # the boxes of a validated step's first kernel call: two a-priori boxes
    # W with wide initial matrices, the hull with the identity and the
    # point centre with none (Bv = 3 < B = 4), at order 21.  Each box gets
    # its own one-box bits; the hull and the centre are read at order 20.
    # Four boxes sum their order-21 terms pairwise, as one box does, which
    # a gather that leaves the term axis strided would break (the third
    # rounding trap of the taylor module docstring).
    n, eye = ORACLE_ORDER, np.eye(4)
    hull = (STATE - 1e-7, STATE + 1e-7)
    ws = [(STATE - 3e-4, STATE + 2e-4), (STATE - 1e-4, STATE + 1.5e-4)]
    v0 = [(eye - 0.3, eye + 0.2), (eye - 0.1, eye + 0.15), (eye, eye)]
    xlo = np.array([lo for lo, _ in ws + [hull]] + [STATE])
    xhi = np.array([hi for _, hi in ws + [hull]] + [STATE])
    vlo0, vhi0 = np.array([lo for lo, _ in v0]), np.array([hi for _, hi in v0])
    clo, chi, vlo, vhi = taylor.iv_var_coeffs(xlo, xhi, vlo0, vhi0, P.mu, n)
    assert clo.shape == (4, n + 1, 4) and vlo.shape == (3, n + 1, 4, 4)
    for i in range(2):
        one = taylor.iv_var_coeffs(xlo[i], xhi[i], vlo0[i], vhi0[i], P.mu, n)
        assert all(map(_same_bits, (clo[i], chi[i], vlo[i], vhi[i]), one))
    one = taylor.iv_var_coeffs(*hull, eye, eye, P.mu, n - 1)
    assert all(map(_same_bits, (clo[2, :n], chi[2, :n], vlo[2, :n], vhi[2, :n]), one))
    one = taylor.iv_coeffs(STATE, STATE, P.mu, n - 1)
    assert all(map(_same_bits, (clo[3, :n], chi[3, :n]), one))
    # and the Hessian-free view of the same loop takes a stack too
    stacked = taylor.iv_coeffs(xlo, xhi, P.mu, n - 1)
    assert all(map(_same_bits, (stacked[0][3], stacked[1][3]), one))


def test_a_stack_without_variational_boxes():
    # Bv = 0: the state series of every box, and an empty variational stack
    boxes = [(s - 1e-9, s + 1e-9) for s in random_states(3, np.random.default_rng(9))]
    xlo, xhi = np.array([b[0] for b in boxes]), np.array([b[1] for b in boxes])
    none = np.zeros((0, 4, 4))
    clo, chi, vlo, vhi = taylor.iv_var_coeffs(xlo, xhi, none, none, P.mu, ORDER)
    assert vlo.shape == vhi.shape == (0, ORDER + 1, 4, 4)
    for i, (lo, hi) in enumerate(boxes):
        one = taylor.iv_var_coeffs(lo, hi, np.eye(4), np.eye(4), P.mu, ORDER)
        assert _same_bits(clo[i], one[0]) and _same_bits(chi[i], one[1])


def test_a_stack_is_refused_when_one_box_reaches_a_primary():
    at_primary = np.array([1.0 - P.mu, 0.0, 0.1, 0.1])
    xlo = np.array([STATE, at_primary - 1e-3])
    with pytest.raises(SingularityError):
        taylor.iv_var_coeffs(xlo, xlo + 2e-3, np.eye(4)[None], np.eye(4)[None], P.mu, 8)


# ends of every kind: zero-width points, huge and infinite ends
_END_POOL = np.array([0.0, 1.0, -1.0, 0.5, 3.0, -2.0, 1e300, -1e300,
                      1.7976931348623157e308, -1.7976931348623157e308,
                      math.inf, -math.inf])


def _random_box(rng, shape):
    a = np.where(rng.random(shape) < 0.5, rng.choice(_END_POOL, shape),
                 rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape))
    b = np.where(rng.random(shape) < 0.3, a, rng.choice(_END_POOL, shape))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # [inf, inf] and [-inf, -inf] are not intervals; widen them
    return np.where(lo == math.inf, 1.0, lo), np.where(hi == -math.inf, -1.0, hi)


@pytest.mark.parametrize("seed", range(8))
def test_interval_kernel_outputs_are_valid_intervals(seed):
    # the integrator wraps these outputs unchecked, so every one must pass
    # the IArray constructor (no NaN, ordered, finite-side ends), unless the
    # kernel refuses the box with a typed error
    rng = np.random.default_rng([7, seed])
    for _ in range(25):
        lo, hi = _random_box(rng, (4,))
        vlo, vhi = _random_box(rng, (4, 4))
        tlo, thi = sorted(rng.choice([0.0, 0.1, -0.1, 1e-3, 2.0], 2))
        with np.errstate(all="ignore"):
            try:
                outputs = [taylor.iv_field(lo, hi, P.mu, True)]
                c = taylor.iv_coeffs(lo, hi, P.mu, 6)
                v = taylor.iv_var_coeffs(lo, hi, vlo, vhi, P.mu, 6)
                outputs += [c, v, taylor.horner_iv(c[0], c[1], tlo, thi),
                            taylor.horner_var_iv(v[2], v[3], tlo, thi)]
            except PCR3BPError:
                continue
        for out in outputs:
            for olo, ohi in zip(out[::2], out[1::2]):
                IArray(olo, ohi)


# ----------------------------------------------------------------------
# exact oracle: the same recurrences in mpmath at 50 digits
# ----------------------------------------------------------------------

ORACLE_ORDER = 21


def _mp_series(state, mu, n):
    """State and variational (V(0) = I) series 0..n, exact to 50 digits."""
    with mp.workdps(50):
        mu = mp.mpf(mu)
        m1 = 1 - mu
        c = [[mp.mpf(float(v)) for v in state]]
        p1, p2, y = [c[0][0] + mu], [c[0][0] - m1], [c[0][1]]
        p1sq, p2sq, ysq, p1y, p2y, q1, q2, s1, s2, w1, w2 = ([] for _ in range(11))
        hess = []
        for k in range(n):
            def conv(a, b):
                return mp.fsum(a[i] * b[k - i] for i in range(k + 1))

            for out, a, b in ((p1sq, p1, p1), (p2sq, p2, p2), (ysq, y, y),
                              (p1y, p1, y), (p2y, p2, y)):
                out.append(conv(a, b))
            q1.append(p1sq[k] + ysq[k])
            q2.append(p2sq[k] + ysq[k])
            for q, s, w in ((q1, s1, w1), (q2, s2, w2)):
                if k == 0:
                    s.append(q[0] ** mp.mpf(-1.5))
                    w.append(q[0] ** mp.mpf(-2.5))
                    continue
                for out, alpha in ((s, mp.mpf(-1.5)), (w, mp.mpf(-2.5))):
                    acc = mp.fsum(((alpha + 1) * j - k) * q[j] * out[k - j]
                                  for j in range(1, k + 1))
                    out.append(acc / (k * q[0]))
            unit = 1 if k == 0 else 0
            oxx = unit - m1 * (s1[k] - 3 * conv(p1sq, w1)) - mu * (s2[k] - 3 * conv(p2sq, w2))
            oxy = 3 * m1 * conv(p1y, w1) + 3 * mu * conv(p2y, w2)
            oyy = unit - m1 * (s1[k] - 3 * conv(ysq, w1)) - mu * (s2[k] - 3 * conv(ysq, w2))
            hess.append((oxx, oxy, oyy))
            ax = 2 * c[k][3] + c[k][0] - m1 * conv(p1, s1) - mu * conv(p2, s2)
            ay = -2 * c[k][2] + c[k][1] - m1 * conv(y, s1) - mu * conv(y, s2)
            c.append([c[k][2] / (k + 1), c[k][3] / (k + 1), ax / (k + 1), ay / (k + 1)])
            p1.append(c[k + 1][0])
            p2.append(c[k + 1][0])
            y.append(c[k + 1][1])
        v = [mp.eye(4)]
        for k in range(n):
            nxt = mp.matrix(4, 4)
            for j in range(4):
                a2 = 2 * v[k][3, j] + mp.fsum(
                    hess[m][0] * v[k - m][0, j] + hess[m][1] * v[k - m][1, j]
                    for m in range(k + 1))
                a3 = -2 * v[k][2, j] + mp.fsum(
                    hess[m][1] * v[k - m][0, j] + hess[m][2] * v[k - m][1, j]
                    for m in range(k + 1))
                for i, val in enumerate((v[k][2, j], v[k][3, j], a2, a3)):
                    nxt[i, j] = val / (k + 1)
            v.append(nxt)
        return c, v


def _encloses_series(lo, hi, exact):
    with mp.workdps(50):
        return all(
            mp.mpf(float(lo[idx])) <= val <= mp.mpf(float(hi[idx]))
            for idx, val in exact
        )


def _flat_state(c):
    return [((k, i), c[k][i]) for k in range(len(c)) for i in range(4)]


def _flat_var(v):
    return [((k, i, j), v[k][i, j]) for k in range(len(v))
            for i in range(4) for j in range(4)]


def _check_kernels_contain(xlo, xhi, points):
    eye = np.eye(4)
    clo, chi = taylor.iv_coeffs(xlo, xhi, P.mu, ORACLE_ORDER)
    vclo, vchi, vlo, vhi = taylor.iv_var_coeffs(xlo, xhi, eye, eye, P.mu, ORACLE_ORDER)
    for s in points:
        c, v = _mp_series(s, P.mu, ORACLE_ORDER)
        assert _encloses_series(clo, chi, _flat_state(c))
        assert _encloses_series(vclo, vchi, _flat_state(c))
        assert _encloses_series(vlo, vhi, _flat_var(v))


def test_interval_kernels_contain_exact_series_at_points():
    # a point box leaves only rounding inside the enclosure, so every
    # outward step of the batched products and sums is needed here
    for s in [STATE] + random_states(3, np.random.default_rng(21)):
        _check_kernels_contain(s, s, [s])


def test_interval_kernels_contain_exact_series_at_box_corners():
    lo, hi = STATE - 1e-8, STATE + 1e-8
    corners = [np.where([(m >> i) & 1 for i in range(4)], hi, lo) for m in range(16)]
    _check_kernels_contain(lo, hi, corners)


def _check_batch(z, k):
    # the batch's sums must enclose the exact weighted sums of the exact
    # products of its point operands (lo == hi)
    a, b, w = taylor._operands(z.shape[-1] - 1)
    ia, ib, weights = a[:, :k + 1], b[:, k::-1], w[:, :k + 1] - (k + 1.0)
    sums = taylor._convolve(z, ia, ib, weights)
    zf = z[0].ravel()
    w = np.ones(ia.shape)
    w[-len(weights):] = weights
    for r, (lo, hi) in enumerate(sums):
        exact = sum(Fraction(w[r, i]) * Fraction(zf[ia[r, i]]) * Fraction(zf[ib[r, i]])
                    for i in range(k + 1))
        assert Fraction(lo) <= exact <= Fraction(hi)


def test_batched_convolution_exact():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(taylor._ROWS, 9)) * 10.0 ** rng.integers(-12, 12, (taylor._ROWS, 9))
    z = np.array([vals, vals])
    for k in range(1, 8):
        _check_batch(z, k)
    # one unit product and six products just under half an ulp of 1: the
    # float sum rounds every small term away
    eps = 0.9 * 2.0 ** -53
    z = np.zeros((2, taylor._ROWS, 8))
    z[:, taylor._P1SQ] = 1.0
    z[:, taylor._W1, :6] = eps
    z[:, taylor._W1, 6] = 1.0
    _check_batch(z, 6)


# ----------------------------------------------------------------------
# the float point kernels against the exact oracle
# ----------------------------------------------------------------------


def _max_rel_error(ours, exact):
    # error of each order's terms relative to that order's largest exact term
    with mp.workdps(50):
        worst = mp.mpf(0)
        for k, row in enumerate(exact):
            vals = list(row)
            scale = max(abs(v) for v in vals)
            if scale == 0:
                continue
            got = np.asarray(ours[k]).ravel()
            worst = max(worst, max(abs(mp.mpf(float(g)) - v) for g, v in zip(got, vals)) / scale)
        return float(worst)


@pytest.mark.parametrize("s", [STATE] + random_states(4, np.random.default_rng(31)))
def test_point_kernels_match_exact_series(s):
    c, v = _mp_series(s, P.mu, ORACLE_ORDER)
    pc = taylor.point_coeffs(s, P.mu, ORACLE_ORDER)
    vcc, vc = taylor.point_var_coeffs(s, np.eye(4), P.mu, ORACLE_ORDER)
    assert np.array_equal(pc, vcc)
    assert _max_rel_error(pc, c) < 1e-12
    assert _max_rel_error(vc, [[v[k][i, j] for i in range(4) for j in range(4)]
                               for k in range(len(v))]) < 1e-12


def _fraction_horner(coeffs, t):
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = acc * Fraction(t) + Fraction(a)
    return acc


def _horner_ulps(got, coeffs, t):
    # error against the exact polynomial value, in ulps of sum |a_k| |t|^k
    # (the value itself can cancel to near zero)
    exact = _fraction_horner(coeffs, t)
    scale = _fraction_horner([abs(a) for a in coeffs], abs(t))
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(scale)))


def test_point_horner_matches_exact_horner():
    rng = np.random.default_rng(32)
    for s in [STATE] + random_states(3, rng):
        c, vc = taylor.point_var_coeffs(s, rng.normal(size=(4, 4)), P.mu, ORACLE_ORDER)
        for t in rng.uniform(-0.08, 0.08, 3):
            got = taylor.horner_point(c, t)
            vgot = taylor.horner_var_point(vc, t)
            for j in range(4):
                assert _horner_ulps(got[j], c[:, j].tolist(), t) <= 4
                for i in range(4):
                    assert _horner_ulps(vgot[i, j], vc[:, i, j].tolist(), t) <= 4


# ----------------------------------------------------------------------
# one Horner evaluation per arithmetic
# ----------------------------------------------------------------------


def _scalar_horner_iv(lo, hi, tlo, thi):
    # the scalar primitives, order by order, on one entry's coefficients
    acc = lo[-1], hi[-1]
    for bl, bh in zip(lo[-2::-1], hi[-2::-1]):
        acc = _iadd(*_imul(*acc, tlo, thi), bl, bh)
    return acc


def test_interval_horner_of_a_stack_gives_each_column_its_own_bits():
    # a validated step evaluates the transition matrix and the centre side
    # by side, (n+1, 4, 5): each column, and the matrix columns together,
    # get the bits of their own evaluation, which are those of the scalar
    # primitives entry by entry
    eye = np.eye(4)
    clo, chi, vlo, vhi = taylor.iv_var_coeffs(STATE - 1e-7, STATE + 1e-7, eye, eye,
                                              P.mu, ORDER)
    lo = np.concatenate([vlo, clo[:, :, None]], axis=-1)
    hi = np.concatenate([vhi, chi[:, :, None]], axis=-1)
    for tlo, thi in [(0.0, 0.05), (0.03, 0.03), (-0.02, 0.01)]:
        slo, shi = taylor.horner_iv(lo, hi, tlo, thi)
        assert slo.shape == shi.shape == (4, 5)
        for j in range(5):
            own = taylor.horner_iv(lo[:, :, j], hi[:, :, j], tlo, thi)
            assert _same_bits(slo[:, j], own[0]) and _same_bits(shi[:, j], own[1])
            for i in range(4):
                ref = _scalar_horner_iv(lo[:, i, j].tolist(), hi[:, i, j].tolist(), tlo, thi)
                assert (slo[i, j], shi[i, j]) == ref
        matrix = taylor.horner_var_iv(vlo, vhi, tlo, thi)
        assert _same_bits(slo[:, :4], matrix[0]) and _same_bits(shi[:, :4], matrix[1])
        centre = taylor.horner_iv(clo, chi, tlo, thi)
        assert _same_bits(slo[:, 4], centre[0]) and _same_bits(shi[:, 4], centre[1])


@pytest.mark.parametrize("seed", range(4))
def test_interval_horner_holds_the_exact_value(seed):
    # random order-20 series, some entries points and some intervals, at a
    # point time and over a time interval: the exact values of the
    # lower-end and the upper-end polynomials at both ends and at the
    # midpoint of tau lie in the result
    rng = np.random.default_rng([41, seed])
    shape = (ORDER + 1, 6)
    clo = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 4, shape)
    chi = clo + np.abs(clo) * rng.uniform(0.0, 1e-3, shape) * (rng.random(shape) < 0.5)
    t0 = float(rng.uniform(-0.5, 0.5))
    for tlo, thi in [(t0, t0), tuple(sorted(rng.uniform(-0.5, 0.5, 2).tolist()))]:
        lo, hi = taylor.horner_iv(clo, chi, tlo, thi)
        for t in (tlo, thi, 0.5 * (tlo + thi)):
            for ends in (clo, chi):
                for j in range(shape[1]):
                    exact = _fraction_horner(ends[:, j].tolist(), t)
                    assert Fraction(lo[j]) <= exact <= Fraction(hi[j])


def _float_horner(coeffs, t):
    # a Horner loop on Python floats
    acc = coeffs[-1]
    for a in coeffs[-2::-1]:
        acc = acc * t + a
    return acc


def test_point_horner_is_a_float_horner_loop():
    # horner_point and horner_lanes, one state or lanes with a time each,
    # give every entry the bits of a float Horner loop on that entry alone
    rng = np.random.default_rng(42)
    shape = (ORDER + 1, 4, 20)
    for _ in range(100):
        c = rng.normal(size=shape) * 10.0 ** rng.integers(-10, 10, shape)
        t = rng.uniform(-1.0, 1.0, shape[2])
        lanes = taylor.horner_lanes(c, t)
        for k in range(shape[2]):
            point = taylor.horner_point(c[:, :, k], t[k])
            ref = np.array([_float_horner(c[:, i, k].tolist(), float(t[k])) for i in range(4)])
            assert _same_bits(point, ref) and _same_bits(lanes[:, k], ref)
