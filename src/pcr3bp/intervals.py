"""Outward-rounded interval arithmetic on IEEE-754 doubles.

Rounding policy, the one policy of the package: every elementary operation
is evaluated once in round-to-nearest and each endpoint is then stepped
outward by one ``nextafter``, unconditionally.  IEEE add/sub/mul/div/sqrt
are correctly rounded, so that one step always encloses the exact result (a
float test such as ``fl(r * r) <= a`` would itself round, so none is used).
An undefined corner (0 * inf, inf / inf) gives the whole line, and an
overflowed end is the infinity it rounds to.  The scalar primitives
``_dn``, ``_up``, ``_iadd``, ``_isub``, ``_imul``, ``_iscale``, ``_idiv``,
``_idivn`` and ``_isqrt_pos`` define the policy.  Each interval operand
and result is one ``(lo, hi)`` pair, ``_imul(a, b)`` for a product, so a
chain of steps passes pairs along and builds no argument tuples.  The
order-0 terms and per-order combinations of the :mod:`pcr3bp.taylor`
interval kernels call them, and :class:`Interval` mul, div, sqr and sqrt
call them.  Two exceptions.  :class:`Interval` add and sub are sharpened
with an exact residual (TwoSum); when the float sum is exact no step is
taken, which keeps small-integer arithmetic exact.  And a dot product
rounds once, as a whole (below).

The array layer applies the same policy to (lo, hi) float64 array pairs,
and it is the rounding core of the batched interval Taylor kernels and
their Horner evaluation as well as of :class:`IArray`, the one interval
array type (vectors and matrices alike, with one ``@`` for both
products).  ``_prod_bounds`` is the array form of ``_imul``, end for end;
it serves the products that are not summed (``IArray.scale`` and
:func:`pcr3bp.taylor.horner_iv`).  A sum is not rounded per addition:
``_sum_down``/``_sum_up`` bound the accumulated round-off of a
length-``n`` float sum, in any summation order, by ``(n + 1) * u *
sum|terms|`` plus a tiny absolute term for underflow, then step outward
once (an a-posteriori bound after Rump, "Fast and parallel interval
arithmetic", BIT 39, 1999).  The dot-product rule: the ``n + 1`` covers
one round-to-nearest rounding per term as well (the ``gamma_n`` of a dot
product; Ogita, Rump & Oishi, SISC 26, 2005), so the terms of a summed
product need no outward step of their own.  They are the corner bounds
of ``_corners``, ``_prod_bounds`` without its step: the least and the
greatest corner product, rounded to nearest.  ``IArray.__matmul__`` and
the convolutions of the Taylor kernels are dot products in this sense.

The array layer also does the package's linear solves.  ``_point_inverse``
encloses the inverse of a point matrix once, from a float inverse and a
bound on its residual (Rump, "Verification methods", Acta Numerica 19,
2010), and :func:`gauss_solve_mat` multiplies that enclosure into the
right-hand side, so a frame solve costs one interval matrix product.
There is no interval Gaussian elimination.

Ends are checked where values enter, not in the inner loop.  The
:class:`Interval` constructor refuses NaN and ``lo > hi``; the
:class:`IArray` constructor, :meth:`IArray.from_point` and the point
operands of its ``+`` and ``-`` also refuse a ``+inf`` lower and a
``-inf`` upper end.  On such operands the array operations cannot make a
NaN or an unordered end (``inf - inf`` and ``0 * inf`` give the whole
line), so their results are built unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, StructureError

__all__ = [
    "Interval",
    "IArray",
    "gauss_solve_mat",
]

_INF = math.inf
_U = 2.0 ** -53  # unit round-off for binary64


# -- scalar rounding primitives: (lo, hi) endpoint pairs in and out ------

_next = math.nextafter  # looked up once: the kernels call these in their inner loops


def _dn(x):
    return _next(x, -_INF)


def _up(x):
    return _next(x, _INF)


def _iadd(a, b):
    (al, ah), (bl, bh) = a, b
    return _next(al + bl, -_INF), _next(ah + bh, _INF)


def _isub(a, b):
    (al, ah), (bl, bh) = a, b
    return _next(al - bh, -_INF), _next(ah - bl, _INF)


def _imul(a, b):
    # the corner products, ordered pairwise by compare-and-swap, which is
    # much cheaper than min()/max() in pure Python; a NaN corner (0 * inf)
    # would slip past the comparisons, so it yields the whole line
    (al, ah), (bl, bh) = a, b
    p1 = al * bl
    p2 = al * bh
    p3 = ah * bl
    p4 = ah * bh
    if p1 != p1 or p2 != p2 or p3 != p3 or p4 != p4:
        return -_INF, _INF
    if p1 > p2:
        p1, p2 = p2, p1
    if p3 > p4:
        p3, p4 = p4, p3
    lo = p1 if p1 < p3 else p3
    hi = p2 if p2 > p4 else p4
    return _next(lo, -_INF), _next(hi, _INF)


def _iscale(a, c):
    # multiply by an exact float scalar
    p1 = a[0] * c
    p2 = a[1] * c
    if p1 <= p2:
        return _next(p1, -_INF), _next(p2, _INF)
    return _next(p2, -_INF), _next(p1, _INF)


def _idiv(a, b):
    # divide by an interval that excludes zero; corners as in _imul
    (al, ah), (bl, bh) = a, b
    q1 = al / bl
    q2 = al / bh
    q3 = ah / bl
    q4 = ah / bh
    if q1 != q1 or q2 != q2 or q3 != q3 or q4 != q4:
        return -_INF, _INF
    if q1 > q2:
        q1, q2 = q2, q1
    if q3 > q4:
        q3, q4 = q4, q3
    lo = q1 if q1 < q3 else q3
    hi = q2 if q2 > q4 else q4
    return _next(lo, -_INF), _next(hi, _INF)


def _idivn(a, n):
    # divide by an exact positive float value
    return _next(a[0] / n, -_INF), _next(a[1] / n, _INF)


def _isqrt_pos(a):
    # square root for 0 <= lo <= hi; the lower end is clamped at 0
    lo = _next(math.sqrt(a[0]), -_INF)
    return max(lo, 0.0), _next(math.sqrt(a[1]), _INF)


# -- TwoSum-sharpened addition (Interval add/sub only) --------------------


def _sum_residual(a: float, b: float, s: float) -> float:
    # TwoSum: exact a + b == s + residual for any rounding of s = fl(a+b).
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _add_down(a: float, b: float) -> float:
    s = a + b
    if not math.isfinite(s):
        return _dn(s) if s == _INF else s
    return s if _sum_residual(a, b, s) >= 0.0 else _dn(s)


def _add_up(a: float, b: float) -> float:
    s = a + b
    if not math.isfinite(s):
        return _up(s) if s == -_INF else s
    return s if _sum_residual(a, b, s) <= 0.0 else _up(s)


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval [lo, hi] of real numbers with float64 endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise StructureError(f"invalid interval endpoints [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors -------------------------------------------------

    @classmethod
    def point(cls, x: float) -> "Interval":
        """Degenerate interval [x, x]."""
        return cls(x, x)

    @classmethod
    def symmetric(cls, radius: float) -> "Interval":
        """Interval [-radius, radius]."""
        return cls(-radius, radius)

    # -- basic queries ------------------------------------------------

    @property
    def width(self) -> float:
        return _add_up(self.hi, -self.lo)

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if math.isfinite(m):
            return m
        return 0.5 * self.lo + 0.5 * self.hi

    @property
    def mag(self) -> float:
        """Largest absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> float:
        """Smallest absolute value over the interval (0 if it contains 0)."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    __contains__ = contains

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def is_subset(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> "Interval":
        if not self.intersects(other):
            raise DomainError(f"empty intersection of {self} and {other}")
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        return Interval(_add_down(self.lo, o.lo), _add_up(self.hi, o.hi))

    __radd__ = __add__

    def __sub__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        return Interval(_add_down(self.lo, -o.hi), _add_up(self.hi, -o.lo))

    def __rsub__(self, other: float) -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        return Interval(*_imul((self.lo, self.hi), (o.lo, o.hi)))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        if o.contains_zero():
            raise ZeroDivisionError(f"division by interval {o} containing zero")
        return Interval(*_idiv((self.lo, self.hi), (o.lo, o.hi)))

    def __rtruediv__(self, other: float) -> "Interval":
        return _coerce(other) / self

    def sqr(self) -> "Interval":
        """Tight enclosure of x**2 (lower endpoint 0 when 0 is inside)."""
        x = (self.lo, self.hi)
        lo, hi = _imul(x, x)
        return Interval(max(lo, 0.0), hi)

    def sqrt(self) -> "Interval":
        """Enclosure of the square root; raises below zero."""
        if self.lo < 0.0:
            raise DomainError(f"sqrt of interval {self} below zero")
        return Interval(*_isqrt_pos((self.lo, self.hi)))

    def pow_int(self, n: int) -> "Interval":
        """Enclosure of x**n for a positive odd integer exponent.

        The Lagrange remainder takes h**(ORDER + 1), an odd power; any
        other exponent raises DomainError.
        """
        if n < 1 or n != int(n) or n % 2 == 0:
            raise DomainError(f"pow_int exponent must be a positive odd integer, got {n}")
        result = self
        base = self.sqr()
        k = (n - 1) // 2
        while k:
            if k & 1:
                result = result * base
            base = base.sqr()
            k >>= 1
        return result

    # -- set operations ------------------------------------------------

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def inflate(self, radius: float) -> "Interval":
        if radius < 0.0:
            raise DomainError("inflate radius must be non-negative")
        return Interval(_add_down(self.lo, -radius), _add_up(self.hi, radius))

    def split(self, n: int) -> list["Interval"]:
        """Cover the interval by n pieces sharing exact float endpoints."""
        if n < 1:
            raise DomainError("split count must be >= 1")
        cuts = np.linspace(self.lo, self.hi, n + 1)
        cuts[0], cuts[-1] = self.lo, self.hi
        return [Interval(float(a), float(b)) for a, b in zip(cuts[:-1], cuts[1:])]

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def _coerce(x: "Interval | float") -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x), float(x))


# ----------------------------------------------------------------------
# Array layer: (lo, hi) float64 ndarray pairs with outward rounding.
# ----------------------------------------------------------------------

_ABS_TINY = np.float64(1e-300)


def _nd_down(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, -np.inf)


def _nd_up(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, np.inf)


def _sum_down(terms: np.ndarray, axis: int) -> np.ndarray:
    """Lower bound of the exact sum of ``terms`` along ``axis``, or of a dot product.

    The float sum less the a-posteriori bound ``(n + 1) * u * A`` (plus a
    tiny absolute term for underflow), stepped outward once, where ``A``
    is the float sum of ``|terms|``.  The terms may be exact, or each the
    round-to-nearest value of an exact real (:func:`_corners`), with an
    error of at most ``u |t|``.  The float sum of n terms in any order
    errs by at most ``gamma_(n-1) S`` with ``S`` the exact sum of ``|t|``
    (``gamma_m = m u / (1 - m u)``), so the exact sum of the reals lies
    within ``(gamma_(n-1) + u) S <= gamma_n S`` of the float sum: the
    ``gamma_n`` of a dot product (Ogita, Rump & Oishi, SISC 26, 2005).
    ``A`` is itself a float sum, at least ``(1 - gamma_(n-1)) S``, and its
    product with ``(n + 1) u`` rounds once more, so the bound is at least
    ``(n + 1) u (1 - u) (1 - gamma_(n-1)) S``, which dominates
    ``gamma_n S``, and ``(gamma_(n-1) + u (1 + 4u)) S`` too, for every
    ``n <= 2**25`` (the slack shrinks as n grows; checked in exact
    rationals at ``n = 2**25``).  The ``4u`` covers a term
    that is a corner bound scaled once more with an outward step (the
    weighted power rows of :func:`pcr3bp.taylor._convolve`); the tiny
    term covers the absolute error of products that underflow.  An
    overflowed or undefined sum (inf - inf, or a NaN term from a 0 * inf
    corner) gives -inf, the lower end of the whole line.
    """
    s = np.add.reduce(terms, axis)
    bound = ((terms.shape[axis] + 1) * _U) * np.add.reduce(np.abs(terms), axis) + _ABS_TINY
    return np.fmax(_nd_down(s - bound), -np.inf)


def _sum_up(terms: np.ndarray, axis: int) -> np.ndarray:
    """Upper bound of the exact sum, as :func:`_sum_down` (NaN gives +inf)."""
    s = np.add.reduce(terms, axis)
    bound = ((terms.shape[axis] + 1) * _U) * np.add.reduce(np.abs(terms), axis) + _ABS_TINY
    return np.fmin(_nd_up(s + bound), np.inf)


def _corners(alo, ahi, blo, bhi):
    """Round-to-nearest (lo, hi) of the products of two interval arrays (broadcast).

    The least and the greatest of the four corner products, with no
    outward step and no NaN guard: fit only as terms of a sum by
    :func:`_sum_down`/:func:`_sum_up`, whose bound covers their rounding
    and turns a NaN corner (0 * inf) into the whole line.
    """
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    return (np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
            np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))


def _prod_bounds(alo, ahi, blo, bhi):
    """Outward (lo, hi) of the products of two interval arrays (broadcast).

    The array form of :func:`_imul`: :func:`_corners` stepped outward.  A
    NaN corner (0 * inf) propagates through minimum/maximum and yields
    the whole line, and an overflowed corner is already the infinity it
    rounds to.
    """
    lo, hi = _corners(alo, ahi, blo, bhi)
    return np.fmax(_nd_down(lo), -np.inf), np.fmin(_nd_up(hi), np.inf)


class IArray:
    """Interval array of any shape, backed by a pair of float64 arrays.

    Values enter through the constructor, :meth:`from_point`,
    :meth:`from_intervals` and the point-array operand of ``+`` and ``-``;
    those check their ends.  A valid array has no NaN end, ``lo <= hi``, no
    ``+inf`` lower end and no ``-inf`` upper end.  On valid operands every
    operation below gives a valid result (an undefined corner or sum is the
    whole line), so results are built by :func:`_wrap` unchecked.  Indexing
    is numpy's; a single entry comes back as an :class:`Interval`.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape:
            raise StructureError("IArray needs two arrays of equal shape")
        # lo <= hi is False at a NaN end as well
        if not (lo <= hi).all() or (lo == _INF).any() or (hi == -_INF).any():
            raise StructureError("invalid IArray endpoints")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_point(cls, x) -> "IArray":
        a = _finite(x)
        return _wrap(a.copy(), a.copy())

    @classmethod
    def from_intervals(cls, items: Iterable[Interval]) -> "IArray":
        items = list(items)
        return cls([iv.lo for iv in items], [iv.hi for iv in items])

    @classmethod
    def identity(cls, n: int) -> "IArray":
        return _wrap(np.eye(n), np.eye(n))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.lo.shape

    def __getitem__(self, key) -> "Interval | IArray":
        lo, hi = self.lo[key], self.hi[key]
        if np.ndim(lo) == 0:
            return Interval(float(lo), float(hi))
        return _wrap(lo, hi)

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> np.ndarray:
        return _nd_up(self.hi - self.lo)

    def max_width(self) -> float:
        return float(self.width.max(initial=0.0))

    def __add__(self, other) -> "IArray":
        olo, ohi = _operand(other)
        return _wrap(_nd_down(self.lo + olo), _nd_up(self.hi + ohi))

    __radd__ = __add__

    def __sub__(self, other) -> "IArray":
        olo, ohi = _operand(other)
        return _wrap(_nd_down(self.lo - ohi), _nd_up(self.hi - olo))

    def __rsub__(self, other) -> "IArray":
        olo, ohi = _operand(other)
        return _wrap(_nd_down(olo - self.hi), _nd_up(ohi - self.lo))

    def __neg__(self) -> "IArray":
        return _wrap(-self.hi, -self.lo)

    def scale(self, s: "Interval | float") -> "IArray":
        s = _coerce(s)
        return _wrap(*_prod_bounds(self.lo, self.hi, np.float64(s.lo), np.float64(s.hi)))

    __mul__ = scale
    __rmul__ = scale

    def __matmul__(self, other: "IArray") -> "IArray":
        # terms[i, j, k] bound A[i, j] * B[j, k], a vector B being one
        # column, rounded to nearest; the summed bound over j covers that
        n = other.shape[0]
        lo, hi = _corners(
            self.lo[:, :, np.newaxis], self.hi[:, :, np.newaxis],
            other.lo.reshape(n, -1), other.hi.reshape(n, -1),
        )
        shape = self.shape[:1] + other.shape[1:]
        return _wrap(_sum_down(lo, axis=1).reshape(shape),
                     _sum_up(hi, axis=1).reshape(shape))

    def is_subset(self, other: "IArray") -> bool:
        return bool(np.all(other.lo <= self.lo) and np.all(self.hi <= other.hi))

    def inflate(self, radius: float) -> "IArray":
        if not radius >= 0.0:
            raise DomainError("inflate radius must be non-negative")
        return _wrap(_nd_down(self.lo - radius), _nd_up(self.hi + radius))

    def __repr__(self) -> str:
        return f"IArray(lo={self.lo!r}, hi={self.hi!r})"


IMatrix = IArray  # the name perfbench/workloads.py imports


def _wrap(lo: np.ndarray, hi: np.ndarray) -> IArray:
    """An :class:`IArray` of ends an operation computed, built unchecked."""
    out = IArray.__new__(IArray)
    out.lo = lo
    out.hi = hi
    return out


def _finite(x) -> np.ndarray:
    """``x`` as a float64 array; a point enters only with finite values."""
    a = np.asarray(x, dtype=np.float64)
    if not np.isfinite(a).all():
        raise StructureError("point values must be finite")
    return a


def _operand(x) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of an array operand; a float array is a point."""
    if isinstance(x, IArray):
        return x.lo, x.hi
    a = _finite(x)
    return a, a


def _point_inverse(a) -> IArray:
    """Rigorous enclosure of the inverse of a square point matrix ``a``.

    ``R = inv(a)`` in floats, ``E`` encloses ``I - R a`` on the array layer
    and ``delta`` bounds ``||E||_inf`` from above.  If ``delta < 1``, then
    ``a`` is invertible and ``a^-1 = (R a)^-1 R``, so every entry of
    ``a^-1 - R`` is at most ``||R||_inf * delta / (1 - delta)`` in magnitude
    (Rump, "Verification methods", Acta Numerica 19, 2010).  Raises if
    ``inv`` fails or ``delta`` does not certify the inverse.
    """
    a = np.asarray(a, dtype=np.float64)
    try:
        r = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise StructureError(f"cannot invert the point matrix: {exc}") from None
    if not np.all(np.isfinite(r)):
        raise StructureError("the float inverse of the point matrix is not finite")
    e = IArray.identity(a.shape[0]) - IArray.from_point(r) @ IArray.from_point(a)
    delta = float(_sum_up(np.maximum(-e.lo, e.hi), axis=1).max())
    if not delta < 1.0:
        raise StructureError(
            f"the point matrix is too ill-conditioned (||I - R a|| <= {delta})")
    r_norm = float(_sum_up(np.abs(r), axis=1).max())
    rad = _up(_up(r_norm * delta) / _dn(1.0 - delta))
    return _wrap(_nd_down(r - rad), _nd_up(r + rad))


def gauss_solve_mat(a: np.ndarray, b: IArray) -> IArray:
    """Rigorous enclosure of ``a^-1 b`` for a point matrix ``a``.

    ``b`` is a vector or a matrix; it is multiplied by the enclosure
    :func:`_point_inverse` of ``a^-1``.
    """
    return _point_inverse(a) @ b
