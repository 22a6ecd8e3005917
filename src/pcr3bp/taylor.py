"""Taylor coefficient kernels for the rotating-frame three-body field.

The right-hand side is rational in ``x, y, vx, vy, r1^-1, r2^-1``, so Taylor
coefficients of solutions satisfy closed convolution recurrences: squared
distances are series products, and the inverse-cube / inverse-fifth powers
``q^(-3/2)``, ``q^(-5/2)`` follow the classical power recurrence

    s_m = (1 / (m q_0)) * sum_{j=1..m} ((alpha+1) j - m) q_j s_{m-j}.

Each kernel exists in a float flavor (point integration) and an interval
flavor (rigorous enclosures).  Interval flavors operate on (lo, hi) endpoint
arrays through the scalar rounding primitives of :mod:`pcr3bp.intervals`,
which state the package's one rounding policy; this module defines no
arithmetic of its own.  Sums are accumulated interval-by-interval so every
elementary operation is individually rounded outward.

The interval series' low-order terms (:func:`iv_field`) are the package's
one interval source for the field and the potential Hessian.  Both kernels
raise :class:`~pcr3bp.errors.SingularityError` within :data:`GUARD_RADIUS`
of a primary.

Kernels are numba-compiled when numba is importable (cached to disk), with a
pure-Python fallback that is functionally identical but slow.
"""

from __future__ import annotations

import math

import numpy as np

from . import intervals
from .errors import SingularityError

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

_iadd = _jit(intervals._iadd)
_isub = _jit(intervals._isub)
_imul = _jit(intervals._imul)
_iscale = _jit(intervals._iscale)
_idiv = _jit(intervals._idiv)
_idivn = _jit(intervals._idivn)
_isqrt_pos = _jit(intervals._isqrt_pos)


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


@_jit
def _iv_series(xlo, xhi, mu, n, want_hessian):
    """Interval Taylor coefficients 0..n of solutions through the box.

    Needs ``n >= 1``.  Returns (clo, chi, oxxlo, oxxhi, oxylo, oxyhi, oyylo,
    oyyhi); as in :func:`_pt_series` the Hessian series stop at order n-1.
    """
    clo = np.zeros((n + 1, 4))
    chi = np.zeros((n + 1, 4))
    p1lo = np.zeros(n + 1)
    p1hi = np.zeros(n + 1)
    p2lo = np.zeros(n + 1)
    p2hi = np.zeros(n + 1)
    ysqlo = np.zeros(n + 1)
    ysqhi = np.zeros(n + 1)
    p1sqlo = np.zeros(n + 1)
    p1sqhi = np.zeros(n + 1)
    p2sqlo = np.zeros(n + 1)
    p2sqhi = np.zeros(n + 1)
    q1lo = np.zeros(n + 1)
    q1hi = np.zeros(n + 1)
    q2lo = np.zeros(n + 1)
    q2hi = np.zeros(n + 1)
    s1lo = np.zeros(n + 1)
    s1hi = np.zeros(n + 1)
    s2lo = np.zeros(n + 1)
    s2hi = np.zeros(n + 1)
    w1lo = np.zeros(n + 1)
    w1hi = np.zeros(n + 1)
    w2lo = np.zeros(n + 1)
    w2hi = np.zeros(n + 1)
    oxxlo = np.zeros(n + 1)
    oxxhi = np.zeros(n + 1)
    oxylo = np.zeros(n + 1)
    oxyhi = np.zeros(n + 1)
    oyylo = np.zeros(n + 1)
    oyyhi = np.zeros(n + 1)

    for j in range(4):
        clo[0, j] = xlo[j]
        chi[0, j] = xhi[j]
    p1lo[0], p1hi[0] = _iadd(xlo[0], xhi[0], mu, mu)
    p2lo[0], p2hi[0] = _isub(xlo[0], xhi[0], 1.0 - mu, 1.0 - mu)

    for k in range(n):
        a1lo, a1hi = 0.0, 0.0
        a2lo, a2hi = 0.0, 0.0
        aylo, ayhi = 0.0, 0.0
        for i in range(k + 1):
            tl, th = _imul(p1lo[i], p1hi[i], p1lo[k - i], p1hi[k - i])
            a1lo, a1hi = _iadd(a1lo, a1hi, tl, th)
            tl, th = _imul(p2lo[i], p2hi[i], p2lo[k - i], p2hi[k - i])
            a2lo, a2hi = _iadd(a2lo, a2hi, tl, th)
            tl, th = _imul(clo[i, 1], chi[i, 1], clo[k - i, 1], chi[k - i, 1])
            aylo, ayhi = _iadd(aylo, ayhi, tl, th)
        if k == 0:  # true squares, never negative
            a1lo, a2lo, aylo = max(a1lo, 0.0), max(a2lo, 0.0), max(aylo, 0.0)
        p1sqlo[k], p1sqhi[k] = a1lo, a1hi
        p2sqlo[k], p2sqhi[k] = a2lo, a2hi
        ysqlo[k], ysqhi[k] = aylo, ayhi
        q1lo[k], q1hi[k] = _iadd(a1lo, a1hi, aylo, ayhi)
        q2lo[k], q2hi[k] = _iadd(a2lo, a2hi, aylo, ayhi)

        if k == 0:
            if q1lo[0] <= _GUARD_SQ or q2lo[0] <= _GUARD_SQ:
                raise SingularityError("taylor kernel: box reaches primary guard radius")
            r1lo, r1hi = _isqrt_pos(q1lo[0], q1hi[0])
            r2lo, r2hi = _isqrt_pos(q2lo[0], q2hi[0])
            tl, th = _imul(q1lo[0], q1hi[0], r1lo, r1hi)
            s1lo[0], s1hi[0] = _idiv(1.0, 1.0, tl, th)
            tl, th = _imul(q2lo[0], q2hi[0], r2lo, r2hi)
            s2lo[0], s2hi[0] = _idiv(1.0, 1.0, tl, th)
            w1lo[0], w1hi[0] = _idiv(s1lo[0], s1hi[0], q1lo[0], q1hi[0])
            w2lo[0], w2hi[0] = _idiv(s2lo[0], s2hi[0], q2lo[0], q2hi[0])
        else:
            acc1lo, acc1hi = 0.0, 0.0
            acc2lo, acc2hi = 0.0, 0.0
            accw1lo, accw1hi = 0.0, 0.0
            accw2lo, accw2hi = 0.0, 0.0
            for j in range(1, k + 1):
                cs = -0.5 * j - k
                cw = -1.5 * j - k
                tl, th = _imul(q1lo[j], q1hi[j], s1lo[k - j], s1hi[k - j])
                tl, th = _iscale(tl, th, cs)
                acc1lo, acc1hi = _iadd(acc1lo, acc1hi, tl, th)
                tl, th = _imul(q2lo[j], q2hi[j], s2lo[k - j], s2hi[k - j])
                tl, th = _iscale(tl, th, cs)
                acc2lo, acc2hi = _iadd(acc2lo, acc2hi, tl, th)
                tl, th = _imul(q1lo[j], q1hi[j], w1lo[k - j], w1hi[k - j])
                tl, th = _iscale(tl, th, cw)
                accw1lo, accw1hi = _iadd(accw1lo, accw1hi, tl, th)
                tl, th = _imul(q2lo[j], q2hi[j], w2lo[k - j], w2hi[k - j])
                tl, th = _iscale(tl, th, cw)
                accw2lo, accw2hi = _iadd(accw2lo, accw2hi, tl, th)
            dlo, dhi = _iscale(q1lo[0], q1hi[0], float(k))
            s1lo[k], s1hi[k] = _idiv(acc1lo, acc1hi, dlo, dhi)
            w1lo[k], w1hi[k] = _idiv(accw1lo, accw1hi, dlo, dhi)
            dlo, dhi = _iscale(q2lo[0], q2hi[0], float(k))
            s2lo[k], s2hi[k] = _idiv(acc2lo, acc2hi, dlo, dhi)
            w2lo[k], w2hi[k] = _idiv(accw2lo, accw2hi, dlo, dhi)

        if want_hessian:
            g11lo, g11hi = 0.0, 0.0
            g22lo, g22hi = 0.0, 0.0
            gy1lo, gy1hi = 0.0, 0.0
            gy2lo, gy2hi = 0.0, 0.0
            gxy1lo, gxy1hi = 0.0, 0.0
            gxy2lo, gxy2hi = 0.0, 0.0
            for i in range(k + 1):
                tl, th = _imul(p1sqlo[i], p1sqhi[i], w1lo[k - i], w1hi[k - i])
                g11lo, g11hi = _iadd(g11lo, g11hi, tl, th)
                tl, th = _imul(p2sqlo[i], p2sqhi[i], w2lo[k - i], w2hi[k - i])
                g22lo, g22hi = _iadd(g22lo, g22hi, tl, th)
                tl, th = _imul(ysqlo[i], ysqhi[i], w1lo[k - i], w1hi[k - i])
                gy1lo, gy1hi = _iadd(gy1lo, gy1hi, tl, th)
                tl, th = _imul(ysqlo[i], ysqhi[i], w2lo[k - i], w2hi[k - i])
                gy2lo, gy2hi = _iadd(gy2lo, gy2hi, tl, th)
                py1lo, py1hi = 0.0, 0.0
                py2lo, py2hi = 0.0, 0.0
                for m in range(i + 1):
                    tl, th = _imul(p1lo[m], p1hi[m], clo[i - m, 1], chi[i - m, 1])
                    py1lo, py1hi = _iadd(py1lo, py1hi, tl, th)
                    tl, th = _imul(p2lo[m], p2hi[m], clo[i - m, 1], chi[i - m, 1])
                    py2lo, py2hi = _iadd(py2lo, py2hi, tl, th)
                tl, th = _imul(py1lo, py1hi, w1lo[k - i], w1hi[k - i])
                gxy1lo, gxy1hi = _iadd(gxy1lo, gxy1hi, tl, th)
                tl, th = _imul(py2lo, py2hi, w2lo[k - i], w2hi[k - i])
                gxy2lo, gxy2hi = _iadd(gxy2lo, gxy2hi, tl, th)
            unit = 1.0 if k == 0 else 0.0
            tl, th = _iscale(g11lo, g11hi, 3.0)
            tl, th = _isub(s1lo[k], s1hi[k], tl, th)
            tl, th = _iscale(tl, th, 1.0 - mu)
            ulo, uhi = _isub(unit, unit, tl, th)
            tl, th = _iscale(g22lo, g22hi, 3.0)
            tl, th = _isub(s2lo[k], s2hi[k], tl, th)
            tl, th = _iscale(tl, th, mu)
            oxxlo[k], oxxhi[k] = _isub(ulo, uhi, tl, th)

            tl, th = _iscale(gxy1lo, gxy1hi, 3.0 * (1.0 - mu))
            t2l, t2h = _iscale(gxy2lo, gxy2hi, 3.0 * mu)
            oxylo[k], oxyhi[k] = _iadd(tl, th, t2l, t2h)

            tl, th = _iscale(gy1lo, gy1hi, 3.0)
            tl, th = _isub(s1lo[k], s1hi[k], tl, th)
            tl, th = _iscale(tl, th, 1.0 - mu)
            ulo, uhi = _isub(unit, unit, tl, th)
            tl, th = _iscale(gy2lo, gy2hi, 3.0)
            tl, th = _isub(s2lo[k], s2hi[k], tl, th)
            tl, th = _iscale(tl, th, mu)
            oyylo[k], oyyhi[k] = _isub(ulo, uhi, tl, th)

        g1lo, g1hi = 0.0, 0.0
        g2lo, g2hi = 0.0, 0.0
        h1lo, h1hi = 0.0, 0.0
        h2lo, h2hi = 0.0, 0.0
        for i in range(k + 1):
            tl, th = _imul(p1lo[i], p1hi[i], s1lo[k - i], s1hi[k - i])
            g1lo, g1hi = _iadd(g1lo, g1hi, tl, th)
            tl, th = _imul(p2lo[i], p2hi[i], s2lo[k - i], s2hi[k - i])
            g2lo, g2hi = _iadd(g2lo, g2hi, tl, th)
            tl, th = _imul(clo[i, 1], chi[i, 1], s1lo[k - i], s1hi[k - i])
            h1lo, h1hi = _iadd(h1lo, h1hi, tl, th)
            tl, th = _imul(clo[i, 1], chi[i, 1], s2lo[k - i], s2hi[k - i])
            h2lo, h2hi = _iadd(h2lo, h2hi, tl, th)
        axlo, axhi = _iscale(clo[k, 3], chi[k, 3], 2.0)
        axlo, axhi = _iadd(axlo, axhi, clo[k, 0], chi[k, 0])
        tl, th = _iscale(g1lo, g1hi, 1.0 - mu)
        axlo, axhi = _isub(axlo, axhi, tl, th)
        tl, th = _iscale(g2lo, g2hi, mu)
        axlo, axhi = _isub(axlo, axhi, tl, th)
        aylo2, ayhi2 = _iscale(clo[k, 2], chi[k, 2], -2.0)
        aylo2, ayhi2 = _iadd(aylo2, ayhi2, clo[k, 1], chi[k, 1])
        tl, th = _iscale(h1lo, h1hi, 1.0 - mu)
        aylo2, ayhi2 = _isub(aylo2, ayhi2, tl, th)
        tl, th = _iscale(h2lo, h2hi, mu)
        aylo2, ayhi2 = _isub(aylo2, ayhi2, tl, th)
        kp = float(k + 1)
        clo[k + 1, 0], chi[k + 1, 0] = _idivn(clo[k, 2], chi[k, 2], kp)
        clo[k + 1, 1], chi[k + 1, 1] = _idivn(clo[k, 3], chi[k, 3], kp)
        clo[k + 1, 2], chi[k + 1, 2] = _idivn(axlo, axhi, kp)
        clo[k + 1, 3], chi[k + 1, 3] = _idivn(aylo2, ayhi2, kp)
        p1lo[k + 1], p1hi[k + 1] = clo[k + 1, 0], chi[k + 1, 0]
        p2lo[k + 1], p2hi[k + 1] = clo[k + 1, 0], chi[k + 1, 0]

    return clo, chi, oxxlo, oxxhi, oxylo, oxyhi, oyylo, oyyhi


@_jit
def iv_coeffs(xlo, xhi, mu, n):
    """Interval Taylor coefficients (n+1, 4) over a state box."""
    clo, chi, _, _, _, _, _, _ = _iv_series(xlo, xhi, mu, n, False)
    return clo, chi


@_jit
def iv_field(xlo, xhi, mu, want_hessian):
    """Enclosure of the field and the potential Hessian over a state box.

    Reads the order-1 state terms and the order-0 Hessian terms of the
    interval series.  Returns (flo, fhi, hlo, hhi); hlo/hhi hold
    (Omega_xx, Omega_xy, Omega_yy) when ``want_hessian`` and zeros otherwise.
    """
    clo, chi, oxxlo, oxxhi, oxylo, oxyhi, oyylo, oyyhi = _iv_series(
        xlo, xhi, mu, 1, want_hessian
    )
    hlo = np.array([oxxlo[0], oxylo[0], oyylo[0]])
    hhi = np.array([oxxhi[0], oxyhi[0], oyyhi[0]])
    return clo[1], chi[1], hlo, hhi


@_jit
def iv_var_coeffs(xlo, xhi, v0lo, v0hi, mu, n):
    """Interval state and variational coefficients over a state box.

    Solves V' = Df(u(t)) V with V(0) in [v0lo, v0hi] for every solution
    u through the box.  Returns (clo, chi, vlo, vhi).
    """
    clo, chi, oxxlo, oxxhi, oxylo, oxyhi, oyylo, oyyhi = _iv_series(
        xlo, xhi, mu, n, True
    )
    vlo = np.zeros((n + 1, 4, 4))
    vhi = np.zeros((n + 1, 4, 4))
    for i in range(4):
        for j in range(4):
            vlo[0, i, j] = v0lo[i, j]
            vhi[0, i, j] = v0hi[i, j]
    for k in range(n):
        kp = float(k + 1)
        for j in range(4):
            vlo[k + 1, 0, j], vhi[k + 1, 0, j] = _idivn(vlo[k, 2, j], vhi[k, 2, j], kp)
            vlo[k + 1, 1, j], vhi[k + 1, 1, j] = _idivn(vlo[k, 3, j], vhi[k, 3, j], kp)
            a2lo, a2hi = _iscale(vlo[k, 3, j], vhi[k, 3, j], 2.0)
            a3lo, a3hi = _iscale(vlo[k, 2, j], vhi[k, 2, j], -2.0)
            for m in range(k + 1):
                tl, th = _imul(oxxlo[m], oxxhi[m], vlo[k - m, 0, j], vhi[k - m, 0, j])
                a2lo, a2hi = _iadd(a2lo, a2hi, tl, th)
                tl, th = _imul(oxylo[m], oxyhi[m], vlo[k - m, 1, j], vhi[k - m, 1, j])
                a2lo, a2hi = _iadd(a2lo, a2hi, tl, th)
                tl, th = _imul(oxylo[m], oxyhi[m], vlo[k - m, 0, j], vhi[k - m, 0, j])
                a3lo, a3hi = _iadd(a3lo, a3hi, tl, th)
                tl, th = _imul(oyylo[m], oyyhi[m], vlo[k - m, 1, j], vhi[k - m, 1, j])
                a3lo, a3hi = _iadd(a3lo, a3hi, tl, th)
            vlo[k + 1, 2, j], vhi[k + 1, 2, j] = _idivn(a2lo, a2hi, kp)
            vlo[k + 1, 3, j], vhi[k + 1, 3, j] = _idivn(a3lo, a3hi, kp)
    return clo, chi, vlo, vhi


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
            accl, acch = _imul(accl, acch, tlo, thi)
            accl, acch = _iadd(accl, acch, clo[k, j], chi[k, j])
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
                accl, acch = _imul(accl, acch, tlo, thi)
                accl, acch = _iadd(accl, acch, vlo[k, i, j], vhi[k, i, j])
            outlo[i, j] = accl
            outhi[i, j] = acch
    return outlo, outhi
