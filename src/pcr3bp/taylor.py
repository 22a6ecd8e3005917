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
are one vectorised product of corner bounds rounded to nearest
(``_corners``), and each sum is the float sum widened by one a-posteriori
bound (``_sum_down``/``_sum_up``, after Rump, BIT 39, 1999) that covers the
rounding of its products as well as of its additions.  So each
convolution is a dot product, rounded once (the dot-product rule of
:mod:`pcr3bp.intervals`).  The handful of per-order combinations that are
not sums use the scalar primitives, on (lo, hi) pairs.  The interval
kernels take a stack of boxes as well as one box, and run one order loop
for all of them: one product and one sum per order for the convolutions of
every box, and the scalar steps box by box.  The numpy calls cost mostly
their per-call overhead on a few hundred floats, so a stack of four boxes
costs about 2.1 one-box calls (4.5 ms against 2.1 ms at order 21 on a
2-core Xeon, best of 150).  A validated step's stack, three boxes of which
two carry a matrix, costs 3.4 ms at order 22: 0.8 ms of scalar steps,
0.4 ms of conversions between pairs and arrays, 0.9 ms of convolutions and
1.2 ms of variational recurrence.

The series' low-order terms are the package's one source for the field
and the potential Hessian: :func:`point_field` in floats and
:func:`iv_field` in intervals.  Both kernels raise
:class:`~pcr3bp.errors.SingularityError` within :data:`GUARD_RADIUS` of a
primary.

The point kernels run on Python floats: each series is a list, and each
convolution is one ``sum`` of a ``map`` of products, so the series cost
O(n^2) per call.  The variational step of :func:`point_var_coeffs` is one
matrix product per order.  No kernel is compiled.

There is one Horner evaluation per arithmetic, and it takes whole rows of
any shape: :func:`horner_lanes` in floats, of which :func:`horner_point`
and :func:`horner_var_point` are views, and :func:`horner_iv` in
intervals, which is ``_imul`` and ``_iadd`` on the array layer, end for
end, so an entry gets the same bits alone or in a stack.

One state takes the list kernel :func:`point_coeffs`; many independent
states take its lane twin :func:`lane_coeffs`, which runs the same
recurrence on numpy rows, one lane per state.  Each lane convolution is
one product of the operand views and one reduction along the term axis,
and each stage of an order is one numpy call over all its rows.  At
order 20 on a 2-core Xeon, a list call costs about 0.17 ms, and a lane
call about 0.45 ms at 2 to 10 lanes and 1.0 ms at 200: most of a lane
call is numpy's per-call overhead, so the kernel keeps its calls few.
A lane call on one lane runs the list kernel.  Every lane equals the
list kernel's result bit for bit, so a flight gives the same image
whichever kernel flies it.  Two rounding traps would break that:

1. Pairwise summation.  ``np.sum`` and ``np.add.reduce`` along the term
   axis switch to pairwise summation once that axis is contiguous, as it
   is when one lane is left.  The list kernel's ``sum`` adds its floats
   left to right (Python 3.11; from 3.12 on ``sum`` compensates, and the
   twins would part in the last bits).  With two lanes or more the term
   axis is strided, and numpy adds it slice by slice in order; one lane
   never reaches the lane recurrence.
2. Vectorised powers.  numpy's float64 ``**`` is not libm's ``pow``, so
   the step rule that reads the coefficients takes its roots with
   Python's ``**`` lane by lane (``integrator._step_from_coeffs``).

The interval kernels meet the first trap the other way round: their sums
run along a contiguous term axis, pairwise from eight terms on, and a box
of a stack must be summed as its one-box call sums it.  That is the third
trap:

3. Gather layout.  A fancy-index gather behind slices, ``zf[:, :, idx]``
   on a stack, gives a term axis that is not contiguous, and numpy then
   sums it in sequence instead of pairwise: the last bits part from
   order 8 on.  ``zf.take(idx, axis=-1)`` keeps the term axis contiguous
   for one box and a stack alike (``_convolve``).
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from . import intervals
from .errors import SingularityError
from .intervals import _iadd, _idiv, _idivn, _imul, _iscale, _isqrt_pos, _isub

__all__ = [
    "point_coeffs",
    "point_var_coeffs",
    "lane_coeffs",
    "lane_guard",
    "iv_coeffs",
    "iv_var_coeffs",
    "horner_point",
    "horner_var_point",
    "horner_lanes",
    "horner_iv",
    "horner_var_iv",
    "point_field",
    "iv_field",
    "GUARD_RADIUS",
    "NUMBA_ENABLED",
]

#: No kernel is compiled; ``perfbench`` records this flag in its environment stamp.
NUMBA_ENABLED = False

#: Distances to a primary below this raise :class:`SingularityError`.
GUARD_RADIUS = 1e-12
_GUARD_SQ = GUARD_RADIUS * GUARD_RADIUS


# ----------------------------------------------------------------------
# Float (point) kernels
# ----------------------------------------------------------------------


def _conv(a, b):
    """sum_i a_i b_(k-i) over the k+1 terms of a and b.

    Summed left to right, as a plain loop would; from Python 3.12 on,
    ``sum`` compensates float round-off, which can change the last bits.
    """
    return sum(map(mul, a, reversed(b)))


def _power_term(weights, q, s):
    """Order k of s = q^alpha from orders 0..k of q and 0..k-1 of s.

    ``weights`` are (alpha+1) j - k for j = 1..k.
    """
    k = len(s)
    return _conv(list(map(mul, weights, q[1:])), s) / (k * q[0])


def _pt_series(state, mu, n, want_hessian):
    """Taylor coefficients 0..n of the solution through ``state``.

    Needs ``n >= 1``.  Returns (c, h): c is the list of the four state
    series (x, y, vx, vy), each a list of n+1 floats; h is the list of the
    (Omega_xx, Omega_xy, Omega_yy) series at orders 0..n-1 (all the
    variational recurrence reads), or None without ``want_hessian``.
    """
    m1 = 1.0 - mu
    x, y, vx, vy = ([float(v)] for v in state)
    p1, p2 = [x[0] + mu], [x[0] - m1]
    p1sq, p2sq, ysq, q1, q2, s1, s2 = [], [], [], [], [], [], []
    p1y, p2y, w1, w2, oxx, oxy, oyy = [], [], [], [], [], [], []
    for k in range(n):
        # squared distances q = p^2 + y^2 at order k
        p1sq.append(_conv(p1, p1))
        p2sq.append(_conv(p2, p2))
        ysq.append(_conv(y, y))
        q1.append(p1sq[k] + ysq[k])
        q2.append(p2sq[k] + ysq[k])
        # s = q^(-3/2) and w = q^(-5/2) at order k
        if k == 0:
            if q1[0] <= _GUARD_SQ or q2[0] <= _GUARD_SQ:
                raise SingularityError("taylor kernel: state inside primary guard radius")
            s1.append(1.0 / (q1[0] * math.sqrt(q1[0])))
            s2.append(1.0 / (q2[0] * math.sqrt(q2[0])))
            if want_hessian:
                w1.append(s1[0] / q1[0])
                w2.append(s2[0] / q2[0])
        else:
            cs = [-0.5 * j - k for j in range(1, k + 1)]
            s1.append(_power_term(cs, q1, s1))
            s2.append(_power_term(cs, q2, s2))
            if want_hessian:
                cw = [-1.5 * j - k for j in range(1, k + 1)]
                w1.append(_power_term(cw, q1, w1))
                w2.append(_power_term(cw, q2, w2))

        if want_hessian:
            # Omega_xx = 1 - (1-mu)(s1 - 3 p1^2 w1) - mu (s2 - 3 p2^2 w2),
            # Omega_yy likewise with y^2, Omega_xy = 3 (1-mu) p1 y w1 + 3 mu p2 y w2
            p1y.append(_conv(p1, y))
            p2y.append(_conv(p2, y))
            unit = 1.0 if k == 0 else 0.0
            oxx.append(unit - m1 * (s1[k] - 3.0 * _conv(p1sq, w1))
                       - mu * (s2[k] - 3.0 * _conv(p2sq, w2)))
            oxy.append(3.0 * m1 * _conv(p1y, w1) + 3.0 * mu * _conv(p2y, w2))
            oyy.append(unit - m1 * (s1[k] - 3.0 * _conv(ysq, w1))
                       - mu * (s2[k] - 3.0 * _conv(ysq, w2)))

        # accelerations at order k and the next state coefficients
        ax = 2.0 * vy[k] + x[k] - m1 * _conv(p1, s1) - mu * _conv(p2, s2)
        ay = -2.0 * vx[k] + y[k] - m1 * _conv(y, s1) - mu * _conv(y, s2)
        inv = 1.0 / (k + 1)
        x.append(vx[k] * inv)
        y.append(vy[k] * inv)
        vx.append(ax * inv)
        vy.append(ay * inv)
        p1.append(x[k + 1])
        p2.append(x[k + 1])
    return [x, y, vx, vy], ([oxx, oxy, oyy] if want_hessian else None)


def point_coeffs(state, mu, n):
    """Taylor coefficients (n+1, 4) of the solution through ``state``."""
    c, _ = _pt_series(state, mu, n, False)
    return np.array(c).T.copy()


def point_field(state, mu, want_hessian):
    """The field and the potential Hessian at a state: the twin of :func:`iv_field`.

    Reads the order-1 state terms and the order-0 Hessian terms of the
    point series.  Returns (f, h): f the four field components, h the list
    (Omega_xx, Omega_xy, Omega_yy) when ``want_hessian`` and None otherwise.
    """
    c, h = _pt_series(state, mu, 1, want_hessian)
    return [s[1] for s in c], (None if h is None else [t[0] for t in h])


def point_var_coeffs(state, v0, mu, n):
    """State and variational Taylor coefficients through ``state``.

    The variational series solves V' = Df(u(t)) V with V(0) = v0.
    Returns (c, vc) with shapes (n+1, 4) and (n+1, 4, 4).

    Rows 0 and 1 of each order are a shift; rows 2 and 3 are one product
    of the (Hessian + Coriolis) coefficients with the V history.
    """
    c, h = _pt_series(state, mu, n, True)
    # (V_(k+1))_(r+2) = (1/(k+1)) sum_{m=0..k} sum_i coef[r, m, i] (V_(k-m))_i:
    # the Hessian terms on rows 0 and 1, and at m = 0 the Coriolis terms
    # 2 V_3 and -2 V_2 on rows 2 and 3
    h = np.array(h)
    coef = np.zeros((2, n, 4))
    coef[:, :, :2] = h[[[0, 1], [1, 2]]].transpose(0, 2, 1)
    coef[0, 0, 3] = 2.0
    coef[1, 0, 2] = -2.0
    # V_k is stored at index n - k, so V_k..V_0 is one forward slice
    v = np.zeros((n + 1, 4, 4))
    v[n] = v0
    for k in range(n):
        inv = 1.0 / (k + 1)
        past = v[n - k:]
        nxt = v[n - k - 1]
        nxt[:2] = past[0, 2:] * inv
        nxt[2:] = (coef[:, :k + 1].reshape(2, -1) @ past.reshape(-1, 4)) * inv
    return np.array(c).T.copy(), v[::-1].copy()


def horner_point(c, t):
    """Evaluate a coefficient array (n+1, 4) at time t: :func:`horner_lanes`."""
    return horner_lanes(c, t)


def horner_var_point(vc, t):
    """Evaluate a variational coefficient array (n+1, 4, 4) at time t."""
    return horner_lanes(vc, t)


# ----------------------------------------------------------------------
# Float (point) kernels on lanes
# ----------------------------------------------------------------------

# Rows of the lane series array z of shape (8, n+1, N), each by order and
# lane: the offset p1 = x + mu from the first primary, y, the offset p2 =
# x - (1 - mu) from the second, y again, the powers s = q^(-3/2) of the
# squared distances q = p^2 + y^2, and q.  From order 1 on, p1, p2 and x
# share their terms.  The copy of y makes the operands of each batch of
# convolutions one view: rows _LSQ by themselves give p1^2, y^2, p2^2, and
# rows _LACC, as a (2, 2) block [[p1, y], [p2, y]] against [[s1], [s2]],
# give the acceleration sums [[p1 s1, y s1], [p2 s2, y s2]].
_LSQ, _LACC, _LS, _LQ = slice(0, 3), slice(0, 4), slice(4, 6), slice(6, 8)
_LANE_ROWS = 8


def _lane_conv(a, b, k):
    """sum_{i=0..k} a_i b_(k-i) along the term axis -2, for every row and lane.

    One product and one reduction.  Needs two lanes or more: then the term
    axis is not contiguous, and ``np.add.reduce`` adds its slices in
    order, left to right as :func:`_conv` does.  With one lane it would
    sum pairwise.
    """
    return np.add.reduce(a[..., :k + 1, :] * b[..., k::-1, :], axis=-2)


def lane_guard(states, mu):
    """Lanes of a (4, N) state inside :data:`GUARD_RADIUS` of a primary.

    The order-0 guard test of :func:`point_coeffs`, lane by lane.
    """
    y2 = states[1] * states[1]
    p1 = states[0] + mu
    p2 = states[0] - (1.0 - mu)
    return (p1 * p1 + y2 <= _GUARD_SQ) | (p2 * p2 + y2 <= _GUARD_SQ)


def lane_coeffs(states, mu, n):
    """Taylor coefficients (n+1, 4, N) of the solutions through N states.

    The lane twin of :func:`point_coeffs`: ``states`` is (4, N), one state
    per lane, and lane i of the result equals ``point_coeffs(states[:, i],
    mu, n)`` bit for bit.  Each float operation of the list kernel is made
    on every lane, in the same order, and each stage of an order is one
    numpy call over its rows: the squares, the two squared distances, the
    two powers, the four acceleration sums, both accelerations, and the
    next state's positions and velocities.  The convolutions add their
    terms left to right (:func:`_lane_conv`).  One lane is handed to the
    list kernel, which is faster on it and sums as :func:`_lane_conv`
    cannot there.  Needs ``n >= 1``; raises :class:`SingularityError` if a
    lane is inside the guard radius.
    """
    states = np.asarray(states, dtype=np.float64)
    lanes = states.shape[1]
    if lanes == 1:
        return point_coeffs(states[:, 0], mu, n)[:, :, None]
    if lane_guard(states, mu).any():
        raise SingularityError("taylor kernel: state inside primary guard radius")
    m1 = 1.0 - mu
    # the power weights -j/2 - k of order k in column k, j = 1..k down it,
    # the Coriolis factors of (vy, vx) in (ax, ay), and the masses of the
    # acceleration sums of each primary
    weights = -0.5 * np.arange(1.0, n)[:, None] - np.arange(n)
    spin = np.array([[2.0], [-2.0]])
    masses = np.array([m1, mu])[:, None, None]
    c = np.zeros((n + 1, 4, lanes))
    c[0] = states
    z = np.zeros((_LANE_ROWS, n + 1, lanes))
    z[0, 0] = states[0] + mu
    z[1, 0] = z[3, 0] = states[1]
    z[2, 0] = states[0] - m1
    pairs = z[_LACC].reshape(2, 2, n + 1, lanes)
    powers = z[_LS, None]
    for k in range(n):
        # squared distances q = p^2 + y^2 at order k
        sq = _lane_conv(z[_LSQ], z[_LSQ], k)
        np.add(sq[::2], sq[1], out=z[_LQ, k])
        # s = q^(-3/2) at order k, by the power recurrence from order 1 on
        q = z[_LQ, :k + 1]
        if k == 0:
            np.divide(1.0, q[:, 0] * np.sqrt(q[:, 0]), out=z[_LS, 0])
            scale = np.arange(n)[:, None, None] * q[:, 0]  # k q_0 of order k
        else:
            np.divide(_lane_conv(weights[:k, k, None] * q[:, 1:], z[_LS], k - 1),
                      scale[k], out=z[_LS, k])
        # accelerations (ax, ay) at order k and the next state coefficients
        g = masses * _lane_conv(pairs, powers, k)
        acc = spin * c[k, 3:1:-1] + c[k, :2] - g[0] - g[1]
        inv = 1.0 / (k + 1)
        np.multiply(c[k, 2:], inv, out=c[k + 1, :2])
        np.multiply(acc, inv, out=c[k + 1, 2:])
        pairs[:, :, k + 1] = c[k + 1, :2]
    return c


def horner_lanes(c, t):
    """Evaluate coefficient rows (n+1, ...) at t, one whole row at a time.

    ``t`` broadcasts against a row: one time for a variational array
    (n+1, 4, 4), one time per lane for a lane array (n+1, 4, N).  Each
    entry sees one product and one sum per order, as a float Horner loop
    on that entry alone would.
    """
    acc = c[-1].copy()
    for row in c[-2::-1]:
        acc = acc * t + row
    return acc


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
# give rows _P1SQ.._P2Y and the powers rows _S1.._W2, in this order.
_SQUARES = [(_P1, _P1), (_P2, _P2), (_Y, _Y), (_P1, _Y), (_P2, _Y)]
_POWERS = [(_Q1, _S1), (_Q2, _S2), (_Q1, _W1), (_Q2, _W2)]
_POWER_ALPHA1 = np.array([-0.5, -0.5, -1.5, -1.5])  # alpha + 1 per power row
_HESSIAN = [(_P1SQ, _W1), (_P2SQ, _W2), (_YSQ, _W1), (_YSQ, _W2), (_P1Y, _W1), (_P2Y, _W2)]
_ACCELERATIONS = [(_P1, _S1), (_P2, _S2), (_Y, _S1), (_Y, _S2)]
_PRODUCTS = _HESSIAN + _ACCELERATIONS


def _operands(n):
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
    pairs = _PRODUCTS + _SQUARES + _POWERS
    shift = np.array([0] * len(_PRODUCTS) + [1] * (len(_SQUARES) + len(_POWERS)))
    i = np.arange(n)
    a = (np.array([p for p, _ in pairs]) * (n + 1) + shift)[:, None] + i
    b = (np.array([q for _, q in pairs]) * (n + 1))[:, None] + i
    w = _POWER_ALPHA1[:, None] * (i + 1.0)
    return a, b, w


def _convolve(z, ia, ib, weights):
    """Enclosures of the batch's sums, for every box of z at once.

    ``z`` is one series array (2, _ROWS, n+1) or a stack (2, B, _ROWS,
    n+1).  One product of the gathered operands' corner bounds, rounded to
    nearest, and one summed bound per end, which covers that rounding.
    The weights of the last rows are exact and negative, so scaling by
    them swaps the ends; that scaling rounds again, so it steps outward.
    Returns ``zip(lo, hi)`` of the nested lists of the sums: (lo, hi)
    pairs by row for one box, and a (lo row list, hi row list) pair per
    box for a stack.
    """
    zf = z.reshape(*z.shape[:-2], -1)
    a = zf.take(ia, axis=-1)
    b = zf.take(ib, axis=-1)
    lo, hi = intervals._corners(a[0], a[1], b[0], b[1])
    m = len(weights)
    lo[..., -m:, :], hi[..., -m:, :] = (intervals._nd_down(weights * hi[..., -m:, :]),
                                        intervals._nd_up(weights * lo[..., -m:, :]))
    return zip(intervals._sum_down(lo, -1).tolist(), intervals._sum_up(hi, -1).tolist())


def _masses(mu):
    # 1 - mu, 3 (1 - mu) and 3 mu are not floats; enclose them
    m1 = _isub((1.0, 1.0), (mu, mu))
    return m1, _iscale(m1, 3.0), _iscale((mu, mu), 3.0)


def _square(a):
    lo, hi = _imul(a, a)
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
    # ax = 2 vy + x - (1-mu) g1 - mu g2 and ay = -2 vx + y - (1-mu) h1 - mu h2
    ax = _isub(_isub(_iadd(_iscale(ck[3], 2.0), ck[0]), _imul(m1, g1)), _iscale(g2, mu))
    ay = _isub(_isub(_iadd(_iscale(ck[2], -2.0), ck[1]), _imul(m1, h1)), _iscale(h2, mu))
    kp = float(k + 1)
    nxt = [_idivn(ck[2], kp), _idivn(ck[3], kp), _idivn(ax, kp), _idivn(ay, kp)]
    if not want_hessian:
        return None, nxt
    # Omega_xx = 1 - (1-mu)(s1 - 3 p1^2 w1) - mu (s2 - 3 p2^2 w2), Omega_yy
    # likewise with y^2, Omega_xy = 3 (1-mu) p1 y w1 + 3 mu p2 y w2; the 1
    # only at order 0
    unit = (1.0, 1.0) if k == 0 else _ZERO
    diag = [_isub(_isub(unit, _imul(m1, _isub(s1, _iscale(ga, 3.0)))),
                  _iscale(_isub(s2, _iscale(gb, 3.0)), mu))
            for ga, gb in ((g[0], g[1]), (g[2], g[3]))]
    oxy = _iadd(_imul(m1x3, g[4]), _imul(mux3, g[5]))
    return (diag[0], oxy, diag[1]), nxt


def _iv_order0(xlo, xhi, mu, masses, want_hessian):
    """The order-0 series terms, by the scalar primitives.

    Returns (terms, hessian, next): the order-0 (lo, hi) pairs of the
    :data:`_ROWS` rows, then the results of :func:`_next_terms` at k = 0.
    """
    x = list(zip(xlo.tolist(), xhi.tolist()))
    p1 = _iadd(x[0], (mu, mu))
    p2 = _isub(x[0], masses[0])
    y = x[1]
    p1sq, p2sq, ysq = _square(p1), _square(p2), _square(y)
    q1 = _iadd(p1sq, ysq)
    q2 = _iadd(p2sq, ysq)
    if q1[0] <= _GUARD_SQ or q2[0] <= _GUARD_SQ:
        raise SingularityError("taylor kernel: box reaches primary guard radius")
    s1 = _idiv((1.0, 1.0), _imul(q1, _isqrt_pos(q1)))
    s2 = _idiv((1.0, 1.0), _imul(q2, _isqrt_pos(q2)))
    terms = [p1, p2, y, p1sq, p2sq, ysq, _imul(p1, y), _imul(p2, y), q1, q2,
             s1, s2, _idiv(s1, q1), _idiv(s2, q2)]
    products = _PRODUCTS if want_hessian else _ACCELERATIONS
    g = [_imul(terms[a], terms[b]) for a, b in products]
    return (terms,) + _next_terms(0, g, s1, s2, x, mu, masses, want_hessian)


def _order_terms(k, ck, t0, sq, pw, want_hessian):
    """The order-k (k >= 1) series terms, by scalar primitives.

    Completes the partial sums of the previous batch (``sq`` for the
    squares, ``pw`` for the powers) with their terms in the order-k state
    ``ck``: a_0 b_k + a_k b_0, and alpha k q_k s_0.  ``t0`` holds the
    order-0 terms.
    """
    x, y = ck[0], ck[1]
    p1sq = _iadd(sq[0], _iscale(_imul(t0[_P1], x), 2.0))
    p2sq = _iadd(sq[1], _iscale(_imul(t0[_P2], x), 2.0))
    ysq = _iadd(sq[2], _iscale(_imul(t0[_Y], y), 2.0))
    q1 = _iadd(p1sq, ysq)
    q2 = _iadd(p2sq, ysq)
    d1 = _iscale(t0[_Q1], float(k))
    d2 = _iscale(t0[_Q2], float(k))
    s1 = _idiv(_iadd(pw[0], _iscale(_imul(q1, t0[_S1]), -1.5 * k)), d1)
    s2 = _idiv(_iadd(pw[1], _iscale(_imul(q2, t0[_S2]), -1.5 * k)), d2)
    if not want_hessian:
        return [x, x, y, p1sq, p2sq, ysq, _ZERO, _ZERO, q1, q2, s1, s2, _ZERO, _ZERO]
    xy0 = _imul(x, t0[_Y])
    p1y = _iadd(_iadd(sq[3], _imul(t0[_P1], y)), xy0)
    p2y = _iadd(_iadd(sq[4], _imul(t0[_P2], y)), xy0)
    w1 = _idiv(_iadd(pw[2], _iscale(_imul(q1, t0[_W1]), -2.5 * k)), d1)
    w2 = _idiv(_iadd(pw[3], _iscale(_imul(q2, t0[_W2]), -2.5 * k)), d2)
    return [x, x, y, p1sq, p2sq, ysq, p1y, p2y, q1, q2, s1, s2, w1, w2]


def _ends(boxes):
    """Per-box lists of (lo, hi) pairs as one (2, B, pairs) endpoint view.

    The ends enter numpy as one flat float list, which costs far less than
    an array of nested tuples.
    """
    flat = np.array([e for box in boxes for pair in box for e in pair])
    return flat.reshape(len(boxes), -1, 2).transpose(2, 0, 1)


def _iv_series(xlo, xhi, mu, n, bv):
    """Interval Taylor coefficients 0..n of solutions through B boxes.

    ``xlo``/``xhi`` are (B, 4); needs ``n >= 1``.  Returns (c, h): c of
    shape (2, B, n+1, 4) holds the lower and upper ends of the state
    terms, h of shape (2, bv, n, 3) those of (Omega_xx, Omega_xy, Omega_yy)
    of the leading ``bv`` boxes at orders 0..n-1, all the variational
    recurrence reads (None for ``bv = 0``).

    Order 0 runs on the scalar primitives, box by box.  Each later order k
    is one batched convolution over all boxes (:func:`_operands`) plus, box
    by box, a fixed number of scalar steps: completing the order-k squares
    and powers, and combining the order-k sums into the Hessian and the
    order-(k+1) state terms.  The boxes past ``bv`` skip the Hessian's
    scalar steps, which no state term reads.  A box's state terms do not
    depend on the other boxes of the stack, on ``bv``, nor on n.
    """
    masses = _masses(mu)
    hessian = [i < bv for i in range(len(xlo))]
    first = [_iv_order0(lo, hi, mu, masses, want)
             for lo, hi, want in zip(xlo, xhi, hessian)]
    t0s = [t0 for t0, _, _ in first]
    z = np.zeros((2, len(first), _ROWS, n + 1))
    z[..., 0] = _ends(t0s)
    states = [[list(zip(lo, hi)), nxt]
              for lo, hi, (_, _, nxt) in zip(xlo.tolist(), xhi.tolist(), first)]
    hess = [[hk] for _, hk, _ in first[:bv]]
    nprod, nsq = len(_PRODUCTS), len(_SQUARES)
    partial = [([_ZERO] * nsq, [_ZERO] * len(_POWERS))] * len(first)
    a, b, w = _operands(n)
    for k in range(1, n):
        tks = [_order_terms(k, state[k], t0, sq, pw, want)
               for state, t0, (sq, pw), want in zip(states, t0s, partial, hessian)]
        z[..., k] = _ends(tks)
        sums = _convolve(z, a[:, :k + 1], b[:, k::-1], w[:, :k + 1] - (k + 1.0))
        partial = []
        for i, (state, tk, (lo, hi)) in enumerate(zip(states, tks, sums)):
            g = list(zip(lo, hi))
            partial.append((g[nprod:nprod + nsq], g[nprod + nsq:]))
            hk, nxt = _next_terms(k, g[:nprod], tk[_S1], tk[_S2], state[k], mu,
                                  masses, hessian[i])
            state.append(nxt)
            if hk is not None:
                hess[i].append(hk)
    c = _ends([[e for ck in state for e in ck] for state in states]).reshape(2, -1, n + 1, 4)
    h = _ends([[e for hk in hs for e in hk] for hs in hess]).reshape(2, bv, n, 3) if bv else None
    return c, h


def _boxes(xlo, xhi):
    """One box (4,) or a stack (B, 4) as a stack, and whether it was one."""
    xlo, xhi = np.asarray(xlo, dtype=np.float64), np.asarray(xhi, dtype=np.float64)
    return xlo.reshape(-1, 4), xhi.reshape(-1, 4), xlo.ndim == 1


def iv_coeffs(xlo, xhi, mu, n):
    """Interval Taylor coefficients (n+1, 4) over a state box.

    The state series of :func:`iv_var_coeffs`; a stack of boxes (B, 4)
    gives (B, n+1, 4).
    """
    xlo, xhi, one = _boxes(xlo, xhi)
    c, _ = _iv_series(xlo, xhi, mu, n, 0)
    return (c[0, 0], c[1, 0]) if one else (c[0], c[1])


def iv_field(xlo, xhi, mu, want_hessian):
    """Enclosure of the field and the potential Hessian over a state box.

    Reads the order-1 state terms and the order-0 Hessian terms of the
    interval series.  Returns (flo, fhi, hlo, hhi); hlo/hhi hold
    (Omega_xx, Omega_xy, Omega_yy) when ``want_hessian`` and zeros otherwise.
    """
    _, hk, nxt = _iv_order0(xlo, xhi, mu, _masses(mu), want_hessian)
    return (*np.array(nxt).T, *np.array(hk or (_ZERO,) * 3).T)


def iv_var_coeffs(xlo, xhi, v0lo, v0hi, mu, n):
    """Interval state and variational coefficients over state boxes.

    Solves V' = Df(u(t)) V with V(0) in [v0lo, v0hi] for every solution
    u through a box.  For one box, ``xlo``/``xhi`` of shape (4,) and
    ``v0lo``/``v0hi`` of shape (4, 4), returns (clo, chi, vlo, vhi) of
    shapes (n+1, 4) and (n+1, 4, 4).  A stack of boxes (B, 4) with
    initial matrices (Bv, 4, 4) for its leading Bv boxes returns
    (B, n+1, 4) and (Bv, n+1, 4, 4); the boxes past Bv get the state
    series only.  Each box of a stack gets its one-box result bit for bit,
    and rows 0..m of order n are those of order m.

    All boxes share one order loop.  Rows 0 and 1 of each order are a
    shift; rows 2 and 3 of all four columns are one batched product of
    (coefficient, V entry) pairs over the whole convolution of every box,
    rounded to nearest and summed with one bound per end: a dot product.
    """
    xlo, xhi, one = _boxes(xlo, xhi)
    v0lo, v0hi = np.reshape(v0lo, (-1, 4, 4)), np.reshape(v0hi, (-1, 4, 4))
    bv = len(v0lo)
    c, h = _iv_series(xlo, xhi, mu, n, bv)
    # (V_(k+1))_r+2 = (1/(k+1)) sum_{m=0..k} sum_i coef[r, m, i] (V_(k-m))_i:
    # the Hessian terms on rows 0 and 1, and at m = 0 the Coriolis terms
    # 2 V_3 and -2 V_2 on rows 2 and 3
    coef = np.zeros((2, bv, 2, n, 4))
    if bv:
        coef[..., :2] = np.moveaxis(h[..., [[0, 1], [1, 2]]], 3, 2)
    coef[:, :, 0, 0, 3] = 2.0
    coef[:, :, 1, 0, 2] = -2.0
    v = np.zeros((2, bv, n + 1, 4, 4))
    v[0, :, 0] = v0lo
    v[1, :, 0] = v0hi
    for k in range(n):
        a = coef[:, :, :, :k + 1, :, None]
        past = v[:, :, None, k::-1]
        lo, hi = intervals._corners(a[0], a[1], past[0], past[1])
        nxt = v[:, :, k + 1]
        nxt[:, :, :2] = v[:, :, k, 2:]
        terms = (bv, 2, 4 * (k + 1), 4)
        nxt[0, :, 2:] = intervals._sum_down(lo.reshape(terms), 2)
        nxt[1, :, 2:] = intervals._sum_up(hi.reshape(terms), 2)
        nxt /= float(k + 1)
        nxt[0] = intervals._nd_down(nxt[0])
        nxt[1] = intervals._nd_up(nxt[1])
    if one:
        return c[0, 0], c[1, 0], v[0, 0], v[1, 0]
    return c[0], c[1], v[0], v[1]


def horner_iv(clo, chi, tlo, thi):
    """Evaluate interval coefficients (n+1, ...) at an interval time.

    Each order is ``_imul`` by the time, then ``_iadd`` of the next row,
    on the array layer: ``_prod_bounds``, then one outward step of each
    sum.  So every entry gets the bits of its own evaluation, and any rows
    or columns of an array evaluate as they do in the whole.
    """
    lo, hi = clo[-1], chi[-1]
    for blo, bhi in zip(clo[-2::-1], chi[-2::-1]):
        lo, hi = intervals._prod_bounds(lo, hi, tlo, thi)
        lo, hi = intervals._nd_down(lo + blo), intervals._nd_up(hi + bhi)
    return lo, hi


def horner_var_iv(vlo, vhi, tlo, thi):
    """Evaluate interval variational coefficients (n+1, 4, 4): :func:`horner_iv`."""
    return horner_iv(vlo, vhi, tlo, thi)
