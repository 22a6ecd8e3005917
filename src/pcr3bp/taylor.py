"""Taylor coefficient kernels for the rotating-frame three-body field.

The right-hand side is rational in ``x, y, vx, vy, r1^-1, r2^-1``, so Taylor
coefficients of solutions satisfy closed convolution recurrences (Jorba &
Zou, Exp. Math. 14, 2005): squared distances are series products, and the
inverse-cube / inverse-fifth powers ``q^(-3/2)``, ``q^(-5/2)`` follow the
classical power recurrence

    s_m = (1 / (m q_0)) * sum_{j=1..m} ((alpha+1) j - m) q_j s_{m-j}.

Each kernel exists in a float flavor (point integration) and an interval
flavor (rigorous enclosures).  The interval flavors run on the outward
rounding of :mod:`pcr3bp.intervals`, which states the package's one
rounding policy; this module defines no arithmetic of its own.  Order 0,
with its square roots and the guard check, uses the scalar primitives.
Every later order is batched on the array layer: all its convolution terms
are one vectorised interval product (``_prod_bounds``), and each sum is the
float sum widened by one a-posteriori bound on its rounding error
(``_sum_down``/``_sum_up``, after Rump, BIT 39, 1999) instead of a rounding
per addition.  The handful of per-order combinations that are not sums use
the scalar primitives.

The interval series' low-order terms (:func:`iv_field`) are the package's
one interval source for the field and the potential Hessian.  Both kernels
raise :class:`~pcr3bp.errors.SingularityError` within :data:`GUARD_RADIUS`
of a primary.

The point kernels and the interval Horner evaluations go through ``_jit``,
which compiles them (cached to disk) when numba is importable and is the
identity otherwise.  The interval series kernels are plain numpy.
"""

from __future__ import annotations

import math

import numpy as np

from . import intervals
from .errors import SingularityError
from .intervals import _iadd, _idiv, _idivn, _imul, _iscale, _isqrt_pos, _isub

__all__ = [
    "point_coeffs",
    "point_var_coeffs",
    "iv_coeffs",
    "iv_var_coeffs",
    "horner_point",
    "horner_var_point",
    "horner_iv",
    "horner_var_iv",
    "iv_field",
    "GUARD_RADIUS",
    "NUMBA_ENABLED",
]

try:  # pragma: no cover - exercised implicitly on import
    from numba import njit as _njit

    def _jit(func):
        return _njit(cache=True, nogil=True)(func)

    NUMBA_ENABLED = True
except ImportError:  # pragma: no cover
    def _jit(func):
        return func

    NUMBA_ENABLED = False

#: Distances to a primary below this raise :class:`SingularityError`.
GUARD_RADIUS = 1e-12
_GUARD_SQ = GUARD_RADIUS * GUARD_RADIUS

# compiled copies of the shared primitives for the interval Horner kernels
_hadd = _jit(intervals._iadd)
_hmul = _jit(intervals._imul)


# ----------------------------------------------------------------------
# Float (point) kernels
# ----------------------------------------------------------------------


@_jit
def _pt_series(state, mu, n, want_hessian):
    """Taylor coefficients 0..n of the solution through ``state``.

    Needs ``n >= 1``.  Returns (c, oxx, oxy, oyy) where c has shape
    (n+1, 4); the potential second-derivative series are filled at orders
    0..n-1 (all the variational recurrence reads) only when ``want_hessian``.
    """
    c = np.zeros((n + 1, 4))
    p1 = np.zeros(n + 1)
    p2 = np.zeros(n + 1)
    ysq = np.zeros(n + 1)
    p1sq = np.zeros(n + 1)
    p2sq = np.zeros(n + 1)
    q1 = np.zeros(n + 1)
    q2 = np.zeros(n + 1)
    s1 = np.zeros(n + 1)
    s2 = np.zeros(n + 1)
    w1 = np.zeros(n + 1)
    w2 = np.zeros(n + 1)
    oxx = np.zeros(n + 1)
    oxy = np.zeros(n + 1)
    oyy = np.zeros(n + 1)

    c[0, 0] = state[0]
    c[0, 1] = state[1]
    c[0, 2] = state[2]
    c[0, 3] = state[3]
    p1[0] = state[0] + mu
    p2[0] = state[0] - (1.0 - mu)

    for k in range(n):
        # squared-distance series coefficients at order k
        a1 = 0.0
        a2 = 0.0
        ay = 0.0
        for i in range(k + 1):
            a1 += p1[i] * p1[k - i]
            a2 += p2[i] * p2[k - i]
            ay += c[i, 1] * c[k - i, 1]
        p1sq[k] = a1
        p2sq[k] = a2
        ysq[k] = ay
        q1[k] = a1 + ay
        q2[k] = a2 + ay

        if k == 0:
            if q1[0] <= _GUARD_SQ or q2[0] <= _GUARD_SQ:
                raise SingularityError("taylor kernel: state inside primary guard radius")
            r1 = math.sqrt(q1[0])
            r2 = math.sqrt(q2[0])
            s1[0] = 1.0 / (q1[0] * r1)
            s2[0] = 1.0 / (q2[0] * r2)
            w1[0] = s1[0] / q1[0]
            w2[0] = s2[0] / q2[0]
        else:
            acc1 = 0.0
            acc2 = 0.0
            accw1 = 0.0
            accw2 = 0.0
            for j in range(1, k + 1):
                cs = -0.5 * j - k
                cw = -1.5 * j - k
                acc1 += cs * q1[j] * s1[k - j]
                acc2 += cs * q2[j] * s2[k - j]
                accw1 += cw * q1[j] * w1[k - j]
                accw2 += cw * q2[j] * w2[k - j]
            s1[k] = acc1 / (k * q1[0])
            s2[k] = acc2 / (k * q2[0])
            w1[k] = accw1 / (k * q1[0])
            w2[k] = accw2 / (k * q2[0])

        if want_hessian:
            # Omega_xx = 1 - (1-mu)(s1 - 3 p1^2 w1) - mu (s2 - 3 p2^2 w2), etc.
            g11 = 0.0
            g22 = 0.0
            gy1 = 0.0
            gy2 = 0.0
            gxy1 = 0.0
            gxy2 = 0.0
            for i in range(k + 1):
                g11 += p1sq[i] * w1[k - i]
                g22 += p2sq[i] * w2[k - i]
                gy1 += ysq[i] * w1[k - i]
                gy2 += ysq[i] * w2[k - i]
            # p*y*w double convolutions
            for i in range(k + 1):
                py1 = 0.0
                py2 = 0.0
                for m in range(i + 1):
                    py1 += p1[m] * c[i - m, 1]
                    py2 += p2[m] * c[i - m, 1]
                gxy1 += py1 * w1[k - i]
                gxy2 += py2 * w2[k - i]
            unit = 1.0 if k == 0 else 0.0
            oxx[k] = unit - (1.0 - mu) * (s1[k] - 3.0 * g11) - mu * (s2[k] - 3.0 * g22)
            oxy[k] = 3.0 * (1.0 - mu) * gxy1 + 3.0 * mu * gxy2
            oyy[k] = unit - (1.0 - mu) * (s1[k] - 3.0 * gy1) - mu * (s2[k] - 3.0 * gy2)

        # accelerations at order k and the next state coefficients
        g1 = 0.0
        g2 = 0.0
        h1 = 0.0
        h2 = 0.0
        for i in range(k + 1):
            g1 += p1[i] * s1[k - i]
            g2 += p2[i] * s2[k - i]
            h1 += c[i, 1] * s1[k - i]
            h2 += c[i, 1] * s2[k - i]
        ax = 2.0 * c[k, 3] + c[k, 0] - (1.0 - mu) * g1 - mu * g2
        ay2 = -2.0 * c[k, 2] + c[k, 1] - (1.0 - mu) * h1 - mu * h2
        inv = 1.0 / (k + 1)
        c[k + 1, 0] = c[k, 2] * inv
        c[k + 1, 1] = c[k, 3] * inv
        c[k + 1, 2] = ax * inv
        c[k + 1, 3] = ay2 * inv
        p1[k + 1] = c[k + 1, 0]
        p2[k + 1] = c[k + 1, 0]

    return c, oxx, oxy, oyy


@_jit
def point_coeffs(state, mu, n):
    """Taylor coefficients (n+1, 4) of the solution through ``state``."""
    c, _, _, _ = _pt_series(state, mu, n, False)
    return c


@_jit
def point_var_coeffs(state, v0, mu, n):
    """State and variational Taylor coefficients through ``state``.

    The variational series solves V' = Df(u(t)) V with V(0) = v0.
    Returns (c, vc) with shapes (n+1, 4) and (n+1, 4, 4).
    """
    c, oxx, oxy, oyy = _pt_series(state, mu, n, True)
    vc = np.zeros((n + 1, 4, 4))
    for i in range(4):
        for j in range(4):
            vc[0, i, j] = v0[i, j]
    for k in range(n):
        inv = 1.0 / (k + 1)
        for j in range(4):
            vc[k + 1, 0, j] = vc[k, 2, j] * inv
            vc[k + 1, 1, j] = vc[k, 3, j] * inv
            acc2 = 2.0 * vc[k, 3, j]
            acc3 = -2.0 * vc[k, 2, j]
            for m in range(k + 1):
                acc2 += oxx[m] * vc[k - m, 0, j] + oxy[m] * vc[k - m, 1, j]
                acc3 += oxy[m] * vc[k - m, 0, j] + oyy[m] * vc[k - m, 1, j]
            vc[k + 1, 2, j] = acc2 * inv
            vc[k + 1, 3, j] = acc3 * inv
    return c, vc


@_jit
def horner_point(c, t):
    """Evaluate a coefficient array (n+1, 4) at time t."""
    n = c.shape[0] - 1
    out = np.empty(4)
    for j in range(4):
        acc = c[n, j]
        for k in range(n - 1, -1, -1):
            acc = acc * t + c[k, j]
        out[j] = acc
    return out


@_jit
def horner_var_point(vc, t):
    """Evaluate a variational coefficient array (n+1, 4, 4) at time t."""
    n = vc.shape[0] - 1
    out = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            acc = vc[n, i, j]
            for k in range(n - 1, -1, -1):
                acc = acc * t + vc[k, i, j]
            out[i, j] = acc
    return out


# ----------------------------------------------------------------------
# Interval kernels
# ----------------------------------------------------------------------

# Rows of the series array z of shape (2, _ROWS, n+1): lower ends in z[0],
# upper ends in z[1], the order along the last axis.  p1 = x + mu and
# p2 = x - (1 - mu) are the offsets from the primaries, q = p^2 + y^2 the
# squared distances, s = q^(-3/2) and w = q^(-5/2).  From order 1 on, p1,
# p2 and x share their terms.
_P1, _P2, _Y, _P1SQ, _P2SQ, _YSQ, _P1Y, _P2Y, _Q1, _Q2, _S1, _S2, _W1, _W2 = range(14)
_ROWS = 14
_ZERO = (0.0, 0.0)

# Row pairs (a, b) of the convolutions sum_i a_i b_(k-i).  The squares
# give rows _P1SQ.._P2Y and the powers rows _S1.._W2, in this order; the
# Hessian-free kernels take the first three squares and the first two powers.
_SQUARES = [(_P1, _P1), (_P2, _P2), (_Y, _Y), (_P1, _Y), (_P2, _Y)]
_POWERS = [(_Q1, _S1), (_Q2, _S2), (_Q1, _W1), (_Q2, _W2)]
_POWER_ALPHA1 = np.array([-0.5, -0.5, -1.5, -1.5])  # alpha + 1 per power row
_HESSIAN = [(_P1SQ, _W1), (_P2SQ, _W2), (_YSQ, _W1), (_YSQ, _W2), (_P1Y, _W1), (_P2Y, _W2)]
_ACCELERATIONS = [(_P1, _S1), (_P2, _S2), (_Y, _S1), (_Y, _S2)]


def _layout(want_hessian):
    """(Hessian and acceleration pairs, square pairs, power pairs)."""
    if want_hessian:
        return _HESSIAN + _ACCELERATIONS, _SQUARES, _POWERS
    return _ACCELERATIONS, _SQUARES[:3], _POWERS[:2]


def _operands(n, want_hessian):
    """Operands of the one batched convolution of each order 1..n-1.

    The rows of the order-k batch are the order-k Hessian and acceleration
    sums, then the order-(k+1) squares and powers less their terms in the
    order-(k+1) coefficients, which are still zero in z:

        sum_{i=0..k} a_i b_(k-i),   sum_{i=1..k} a_i b_(k+1-i),
        sum_{j=1..k} ((alpha+1) j - k - 1) q_j s_(k+1-j).

    Returns (a, b, w): flat indices into z.reshape(2, -1) of the a and b
    operands (rows by terms), and (alpha+1) j for the power rows.  Order k
    takes ``a[:, :k+1]``, ``b[:, k::-1]`` and the exact weights
    ``w[:, :k+1] - (k+1)``.  So all rows read b_k..b_0; the order-k rows
    read a_0..a_k, the order-(k+1) rows a_1..a_(k+1), whose last term is
    still zero.
    """
    products, squares, powers = _layout(want_hessian)
    pairs = products + squares + powers
    shift = np.array([0] * len(products) + [1] * (len(squares) + len(powers)))
    i = np.arange(n)
    a = (np.array([p for p, _ in pairs]) * (n + 1) + shift)[:, None] + i
    b = (np.array([q for _, q in pairs]) * (n + 1))[:, None] + i
    w = _POWER_ALPHA1[:len(powers), None] * (i + 1.0)
    return a, b, w


def _convolve(z, ia, ib, weights):
    """Enclosures (lo, hi) of the batch's sums, as lists of (lo, hi) pairs.

    One interval product of the gathered operands and one summed bound
    per end.  The weights of the last rows are exact and negative, so
    scaling by them swaps the ends.
    """
    zf = z.reshape(2, -1)
    a = zf[:, ia]
    b = zf[:, ib]
    lo, hi = intervals._prod_bounds(a[0], a[1], b[0], b[1])
    m = len(weights)
    lo[-m:], hi[-m:] = (intervals._nd_down(weights * hi[-m:]),
                        intervals._nd_up(weights * lo[-m:]))
    lo = intervals._sum_down(lo, -1).tolist()
    hi = intervals._sum_up(hi, -1).tolist()
    return list(zip(lo, hi))


def _masses(mu):
    # 1 - mu, 3 (1 - mu) and 3 mu are not floats; enclose them
    m1 = _isub(1.0, 1.0, mu, mu)
    return m1, _iscale(*m1, 3.0), _iscale(mu, mu, 3.0)


def _square(a):
    lo, hi = _imul(*a, *a)
    return max(lo, 0.0), hi


def _next_terms(k, g, s1, s2, ck, mu, masses, want_hessian):
    """Order-k Hessian terms and order-(k+1) state terms, by scalar primitives.

    ``g`` holds the order-k sums of the Hessian and acceleration pairs
    (only the last four without the Hessian), ``s1``/``s2`` the order-k
    powers and ``ck`` the order-k state terms, all as (lo, hi) pairs.
    Returns ((Omega_xx, Omega_xy, Omega_yy) or None, next state terms).
    """
    m1, m1x3, mux3 = masses
    g1, g2, h1, h2 = g[-4:]
    ax = _iadd(*_iscale(*ck[3], 2.0), *ck[0])
    ax = _isub(*ax, *_imul(*m1, *g1))
    ax = _isub(*ax, *_iscale(*g2, mu))
    ay = _iadd(*_iscale(*ck[2], -2.0), *ck[1])
    ay = _isub(*ay, *_imul(*m1, *h1))
    ay = _isub(*ay, *_iscale(*h2, mu))
    kp = float(k + 1)
    nxt = [_idivn(*ck[2], kp), _idivn(*ck[3], kp), _idivn(*ax, kp), _idivn(*ay, kp)]
    if not want_hessian:
        return None, nxt
    # Omega_xx = 1 - (1-mu)(s1 - 3 p1^2 w1) - mu (s2 - 3 p2^2 w2), Omega_yy
    # likewise with y^2, Omega_xy = 3 (1-mu) p1 y w1 + 3 mu p2 y w2; the 1
    # only at order 0
    unit = 1.0 if k == 0 else 0.0
    diag = []
    for ga, gb in ((g[0], g[1]), (g[2], g[3])):
        t = _imul(*m1, *_isub(*s1, *_iscale(*ga, 3.0)))
        u = _isub(unit, unit, *t)
        t = _iscale(*_isub(*s2, *_iscale(*gb, 3.0)), mu)
        diag.append(_isub(*u, *t))
    oxy = _iadd(*_imul(*m1x3, *g[4]), *_imul(*mux3, *g[5]))
    return (diag[0], oxy, diag[1]), nxt


def _iv_order0(xlo, xhi, mu, masses, want_hessian):
    """The order-0 series terms, by the scalar primitives.

    Returns (terms, hessian, next): the order-0 (lo, hi) pairs of the
    :data:`_ROWS` rows, then the results of :func:`_next_terms` at k = 0.
    """
    x = list(zip(xlo.tolist(), xhi.tolist()))
    p1 = _iadd(*x[0], mu, mu)
    p2 = _isub(*x[0], *masses[0])
    y = x[1]
    p1sq, p2sq, ysq = _square(p1), _square(p2), _square(y)
    q1 = _iadd(*p1sq, *ysq)
    q2 = _iadd(*p2sq, *ysq)
    if q1[0] <= _GUARD_SQ or q2[0] <= _GUARD_SQ:
        raise SingularityError("taylor kernel: box reaches primary guard radius")
    s1 = _idiv(1.0, 1.0, *_imul(*q1, *_isqrt_pos(*q1)))
    s2 = _idiv(1.0, 1.0, *_imul(*q2, *_isqrt_pos(*q2)))
    terms = [p1, p2, y, p1sq, p2sq, ysq, _imul(*p1, *y), _imul(*p2, *y), q1, q2,
             s1, s2, _idiv(*s1, *q1), _idiv(*s2, *q2)]
    products = _layout(want_hessian)[0]
    g = [_imul(*terms[a], *terms[b]) for a, b in products]
    return (terms,) + _next_terms(0, g, s1, s2, x, mu, masses, want_hessian)


def _order_terms(k, ck, t0, sq, pw, want_hessian):
    """The order-k (k >= 1) series terms, by scalar primitives.

    Completes the partial sums of the previous batch (``sq`` for the
    squares, ``pw`` for the powers) with their terms in the order-k state
    ``ck``: a_0 b_k + a_k b_0, and alpha k q_k s_0.  ``t0`` holds the
    order-0 terms.
    """
    x, y = ck[0], ck[1]
    p1sq = _iadd(*sq[0], *_iscale(*_imul(*t0[_P1], *x), 2.0))
    p2sq = _iadd(*sq[1], *_iscale(*_imul(*t0[_P2], *x), 2.0))
    ysq = _iadd(*sq[2], *_iscale(*_imul(*t0[_Y], *y), 2.0))
    q1 = _iadd(*p1sq, *ysq)
    q2 = _iadd(*p2sq, *ysq)
    d1 = _iscale(*t0[_Q1], float(k))
    d2 = _iscale(*t0[_Q2], float(k))
    s1 = _idiv(*_iadd(*pw[0], *_iscale(*_imul(*q1, *t0[_S1]), -1.5 * k)), *d1)
    s2 = _idiv(*_iadd(*pw[1], *_iscale(*_imul(*q2, *t0[_S2]), -1.5 * k)), *d2)
    if not want_hessian:
        return [x, x, y, p1sq, p2sq, ysq, _ZERO, _ZERO, q1, q2, s1, s2, _ZERO, _ZERO]
    xy0 = _imul(*x, *t0[_Y])
    p1y = _iadd(*_iadd(*sq[3], *_imul(*t0[_P1], *y)), *xy0)
    p2y = _iadd(*_iadd(*sq[4], *_imul(*t0[_P2], *y)), *xy0)
    w1 = _idiv(*_iadd(*pw[2], *_iscale(*_imul(*q1, *t0[_W1]), -2.5 * k)), *d1)
    w2 = _idiv(*_iadd(*pw[3], *_iscale(*_imul(*q2, *t0[_W2]), -2.5 * k)), *d2)
    return [x, x, y, p1sq, p2sq, ysq, p1y, p2y, q1, q2, s1, s2, w1, w2]


def _ends(pairs):
    """A nested list of (lo, hi) pairs as one (2, ...) endpoint array."""
    return np.ascontiguousarray(np.moveaxis(np.array(pairs), -1, 0))


def _iv_series(xlo, xhi, mu, n, want_hessian):
    """Interval Taylor coefficients 0..n of solutions through the box.

    Needs ``n >= 1``.  Returns (c, h): c of shape (2, n+1, 4) holds the
    lower and upper ends of the state terms, h of shape (2, n, 3) those of
    (Omega_xx, Omega_xy, Omega_yy) at orders 0..n-1, all the variational
    recurrence reads (None without ``want_hessian``).

    Order 0 runs on the scalar primitives.  Each later order k is one
    batched convolution (:func:`_operands`) plus a fixed number of scalar
    steps: completing the order-k squares and powers, and combining the
    order-k sums into the Hessian and the order-(k+1) state terms.
    """
    masses = _masses(mu)
    t0, hk, nxt = _iv_order0(xlo, xhi, mu, masses, want_hessian)
    z = np.zeros((2, _ROWS, n + 1))
    z[:, :, 0] = np.array(t0).T
    state = [list(zip(xlo.tolist(), xhi.tolist())), nxt]
    hess = [hk]
    nprod, nsq, npow = (len(p) for p in _layout(want_hessian))
    sq, pw = [_ZERO] * nsq, [_ZERO] * npow
    a, b, w = _operands(n, want_hessian)
    for k in range(1, n):
        tk = _order_terms(k, state[k], t0, sq, pw, want_hessian)
        z[:, :, k] = np.array(tk).T
        sums = _convolve(z, a[:, :k + 1], b[:, k::-1], w[:, :k + 1] - (k + 1.0))
        sq, pw = sums[nprod:nprod + nsq], sums[nprod + nsq:]
        hk, nxt = _next_terms(k, sums[:nprod], tk[_S1], tk[_S2], state[k], mu,
                              masses, want_hessian)
        state.append(nxt)
        hess.append(hk)
    c = _ends(state)
    h = _ends(hess) if want_hessian else None
    return c, h


def iv_coeffs(xlo, xhi, mu, n):
    """Interval Taylor coefficients (n+1, 4) over a state box."""
    c, _ = _iv_series(xlo, xhi, mu, n, False)
    return c[0], c[1]


def iv_field(xlo, xhi, mu, want_hessian):
    """Enclosure of the field and the potential Hessian over a state box.

    Reads the order-1 state terms and the order-0 Hessian terms of the
    interval series.  Returns (flo, fhi, hlo, hhi); hlo/hhi hold
    (Omega_xx, Omega_xy, Omega_yy) when ``want_hessian`` and zeros otherwise.
    """
    _, hk, nxt = _iv_order0(xlo, xhi, mu, _masses(mu), want_hessian)
    hk = hk or (_ZERO,) * 3
    return (np.array([lo for lo, _ in nxt]), np.array([hi for _, hi in nxt]),
            np.array([lo for lo, _ in hk]), np.array([hi for _, hi in hk]))


def iv_var_coeffs(xlo, xhi, v0lo, v0hi, mu, n):
    """Interval state and variational coefficients over a state box.

    Solves V' = Df(u(t)) V with V(0) in [v0lo, v0hi] for every solution
    u through the box.  Returns (clo, chi, vlo, vhi).

    Rows 0 and 1 of each order are a shift; rows 2 and 3 of all four
    columns are one batched product of (coefficient, V entry) pairs over
    the whole convolution, summed with one bound per end.
    """
    c, h = _iv_series(xlo, xhi, mu, n, True)
    # (V_(k+1))_r+2 = (1/(k+1)) sum_{m=0..k} sum_i coef[r, m, i] (V_(k-m))_i:
    # the Hessian terms on rows 0 and 1, and at m = 0 the Coriolis terms
    # 2 V_3 and -2 V_2 on rows 2 and 3
    coef = np.zeros((2, 2, n, 4))
    coef[:, :, :, :2] = np.moveaxis(h[:, :, [[0, 1], [1, 2]]], 2, 1)
    coef[:, 0, 0, 3] = 2.0
    coef[:, 1, 0, 2] = -2.0
    v = np.zeros((2, n + 1, 4, 4))
    v[0, 0] = v0lo
    v[1, 0] = v0hi
    for k in range(n):
        a = coef[:, :, :k + 1, :, None]
        past = v[:, k::-1]
        lo, hi = intervals._prod_bounds(a[0], a[1], past[0], past[1])
        nxt = v[:, k + 1]
        nxt[:, :2] = v[:, k, 2:]
        nxt[0, 2:] = intervals._sum_down(lo.reshape(2, -1, 4), 1)
        nxt[1, 2:] = intervals._sum_up(hi.reshape(2, -1, 4), 1)
        nxt /= float(k + 1)
        nxt[0] = intervals._nd_down(nxt[0])
        nxt[1] = intervals._nd_up(nxt[1])
    return c[0], c[1], v[0], v[1]


@_jit
def horner_iv(clo, chi, tlo, thi):
    """Evaluate interval coefficients (n+1, 4) at an interval time."""
    n = clo.shape[0] - 1
    outlo = np.empty(4)
    outhi = np.empty(4)
    for j in range(4):
        accl = clo[n, j]
        acch = chi[n, j]
        for k in range(n - 1, -1, -1):
            accl, acch = _hmul(accl, acch, tlo, thi)
            accl, acch = _hadd(accl, acch, clo[k, j], chi[k, j])
        outlo[j] = accl
        outhi[j] = acch
    return outlo, outhi


@_jit
def horner_var_iv(vlo, vhi, tlo, thi):
    """Evaluate interval variational coefficients (n+1, 4, 4) at a time."""
    n = vlo.shape[0] - 1
    outlo = np.empty((4, 4))
    outhi = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            accl = vlo[n, i, j]
            acch = vhi[n, i, j]
            for k in range(n - 1, -1, -1):
                accl, acch = _hmul(accl, acch, tlo, thi)
                accl, acch = _hadd(accl, acch, vlo[k, i, j], vhi[k, i, j])
            outlo[i, j] = accl
            outhi[i, j] = acch
    return outlo, outhi
