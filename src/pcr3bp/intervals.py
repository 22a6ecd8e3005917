"""Outward-rounded interval arithmetic on IEEE-754 doubles.

Rounding policy, the one policy of the package: every elementary operation
is evaluated once in round-to-nearest and each endpoint is then stepped
outward by one ``nextafter``, unconditionally.  IEEE add/sub/mul/div/sqrt
are correctly rounded, so that one step always encloses the exact result (a
float test such as ``fl(r * r) <= a`` would itself round, so none is used).
An undefined corner (0 * inf, inf / inf) gives the whole line, and an
overflowed end is the infinity it rounds to.  The scalar primitives
``_dn``, ``_up``, ``_iadd``, ``_isub``, ``_imul``, ``_iscale``, ``_idiv``,
``_idivn`` and ``_isqrt_pos`` on ``(lo, hi)`` pairs define the policy: the
order-0 terms, per-order combinations and Horner evaluations of the
:mod:`pcr3bp.taylor` interval kernels call them, and :class:`Interval`
mul, div, sqr and sqrt call them.  The one exception: :class:`Interval`
add and sub are sharpened with an exact residual (TwoSum); when the float
sum is exact no step is taken, which keeps small-integer arithmetic exact.

The array layer applies the same policy to (lo, hi) float64 array pairs,
and it is the rounding core of the batched interval Taylor kernels as well
as of :class:`IVector`/:class:`IMatrix`.  ``_prod_bounds`` is the array form
of ``_imul``, end for end.  A sum is not rounded per addition:
``_sum_down``/``_sum_up`` bound the accumulated round-off of a length-``n``
float sum, in any summation order, by ``n * u * sum|terms|`` plus a tiny
absolute term for underflow, then step outward once (an a-posteriori bound
after Rump, "Fast and parallel interval arithmetic", BIT 39, 1999).  That
bound dominates the classical ``(n-1)u/(1-(n-1)u)`` for every ``n`` used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, StructureError

__all__ = [
    "Interval",
    "IVector",
    "IMatrix",
    "hull",
    "gauss_solve",
    "gauss_solve_mat",
]

_INF = math.inf
_U = 2.0 ** -53  # unit round-off for binary64


# -- scalar rounding primitives: (lo, hi) endpoint pairs in and out ------


def _dn(x):
    return math.nextafter(x, -math.inf)


def _up(x):
    return math.nextafter(x, math.inf)


def _iadd(al, ah, bl, bh):
    return math.nextafter(al + bl, -math.inf), math.nextafter(ah + bh, math.inf)


def _isub(al, ah, bl, bh):
    return math.nextafter(al - bh, -math.inf), math.nextafter(ah - bl, math.inf)


def _imul(al, ah, bl, bh):
    # the corner products, ordered pairwise by compare-and-swap, which is
    # much cheaper than min()/max() in pure Python; a NaN corner (0 * inf)
    # would slip past the comparisons, so it yields the whole line
    p1 = al * bl
    p2 = al * bh
    p3 = ah * bl
    p4 = ah * bh
    if p1 != p1 or p2 != p2 or p3 != p3 or p4 != p4:
        return -math.inf, math.inf
    if p1 > p2:
        p1, p2 = p2, p1
    if p3 > p4:
        p3, p4 = p4, p3
    lo = p1 if p1 < p3 else p3
    hi = p2 if p2 > p4 else p4
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _iscale(al, ah, c):
    # multiply by an exact float scalar
    p1 = al * c
    p2 = ah * c
    if p1 <= p2:
        return math.nextafter(p1, -math.inf), math.nextafter(p2, math.inf)
    return math.nextafter(p2, -math.inf), math.nextafter(p1, math.inf)


def _idiv(al, ah, bl, bh):
    # divide by an interval that excludes zero; corners as in _imul
    q1 = al / bl
    q2 = al / bh
    q3 = ah / bl
    q4 = ah / bh
    if q1 != q1 or q2 != q2 or q3 != q3 or q4 != q4:
        return -math.inf, math.inf
    if q1 > q2:
        q1, q2 = q2, q1
    if q3 > q4:
        q3, q4 = q4, q3
    lo = q1 if q1 < q3 else q3
    hi = q2 if q2 > q4 else q4
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _idivn(al, ah, n):
    # divide by an exact positive float value
    return math.nextafter(al / n, -math.inf), math.nextafter(ah / n, math.inf)


def _isqrt_pos(al, ah):
    # square root for 0 <= al <= ah; the lower end is clamped at 0
    lo = math.nextafter(math.sqrt(al), -math.inf)
    return max(lo, 0.0), math.nextafter(math.sqrt(ah), math.inf)


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

    def is_interior_subset(self, other: "Interval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

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
        return Interval(*_imul(self.lo, self.hi, o.lo, o.hi))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | float") -> "Interval":
        o = _coerce(other)
        if o.contains_zero():
            raise ZeroDivisionError(f"division by interval {o} containing zero")
        return Interval(*_idiv(self.lo, self.hi, o.lo, o.hi))

    def __rtruediv__(self, other: float) -> "Interval":
        return _coerce(other) / self

    def sqr(self) -> "Interval":
        """Tight enclosure of x**2 (lower endpoint 0 when 0 is inside)."""
        lo, hi = _imul(self.lo, self.hi, self.lo, self.hi)
        return Interval(max(lo, 0.0), hi)

    def sqrt(self) -> "Interval":
        """Enclosure of the square root; raises below zero."""
        if self.lo < 0.0:
            raise DomainError(f"sqrt of interval {self} below zero")
        return Interval(*_isqrt_pos(self.lo, self.hi))

    def pow_int(self, n: int) -> "Interval":
        """Enclosure of x**n for a non-negative integer exponent."""
        if n < 0 or n != int(n):
            raise DomainError(f"pow_int exponent must be a non-negative integer, got {n}")
        if n == 0:
            return Interval(1.0, 1.0)
        if n % 2 == 0:
            return self.sqr().pow_int(n // 2) if n > 2 else self.sqr()
        result = self
        base = self.sqr()
        k = (n - 1) // 2
        while k:
            if k & 1:
                result = result * base
            base = base.sqr()
            k >>= 1
        return result

    __pow__ = pow_int

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


def hull(a: Interval, b: Interval) -> Interval:
    """Interval hull of two intervals."""
    return a.hull(b)


# ----------------------------------------------------------------------
# Array layer: (lo, hi) float64 ndarray pairs with outward rounding.
# ----------------------------------------------------------------------

_ABS_TINY = np.float64(1e-300)


def _nd_down(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, -np.inf)


def _nd_up(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, np.inf)


def _sum_down(terms: np.ndarray, axis: int) -> np.ndarray:
    """Lower bound of the exact sum of ``terms`` along ``axis``.

    The float sum plus the a-posteriori bound ``n * u * sum|terms|`` (plus
    a tiny absolute term for underflow), stepped outward once.  An
    overflowed or undefined sum (inf - inf) gives -inf, the lower end of
    the whole line.
    """
    s = terms.sum(axis=axis)
    bound = (terms.shape[axis] * _U) * np.abs(terms).sum(axis=axis) + _ABS_TINY
    return np.fmax(_nd_down(s - bound), -np.inf)


def _sum_up(terms: np.ndarray, axis: int) -> np.ndarray:
    """Upper bound of the exact sum, as :func:`_sum_down` (NaN gives +inf)."""
    s = terms.sum(axis=axis)
    bound = (terms.shape[axis] * _U) * np.abs(terms).sum(axis=axis) + _ABS_TINY
    return np.fmin(_nd_up(s + bound), np.inf)


def _prod_bounds(alo, ahi, blo, bhi):
    """Outward (lo, hi) of the products of two interval arrays (broadcast).

    The array form of :func:`_imul`: a NaN corner (0 * inf) propagates
    through minimum/maximum and yields the whole line, and an overflowed
    corner is already the infinity it rounds to.
    """
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return np.fmax(_nd_down(lo), -np.inf), np.fmin(_nd_up(hi), np.inf)


class IVector:
    """Interval vector backed by a pair of float64 arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise StructureError("IVector needs two 1-d arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
            raise StructureError("invalid IVector endpoints")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_intervals(cls, items: Iterable[Interval]) -> "IVector":
        items = list(items)
        return cls([iv.lo for iv in items], [iv.hi for iv in items])

    @classmethod
    def from_point(cls, x: Sequence[float]) -> "IVector":
        a = np.asarray(x, dtype=np.float64)
        return cls(a.copy(), a.copy())

    def __len__(self) -> int:
        return self.lo.size

    def __getitem__(self, i: int) -> Interval:
        return Interval(float(self.lo[i]), float(self.hi[i]))

    @property
    def components(self) -> list[Interval]:
        return [self[i] for i in range(len(self))]

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> np.ndarray:
        return _nd_up(self.hi - self.lo)

    def max_width(self) -> float:
        return float(self.width.max()) if len(self) else 0.0

    def __add__(self, other: "IVector") -> "IVector":
        if isinstance(other, IVector):
            return IVector(_nd_down(self.lo + other.lo), _nd_up(self.hi + other.hi))
        o = np.asarray(other, dtype=np.float64)
        return IVector(_nd_down(self.lo + o), _nd_up(self.hi + o))

    __radd__ = __add__

    def __sub__(self, other: "IVector") -> "IVector":
        if isinstance(other, IVector):
            return IVector(_nd_down(self.lo - other.hi), _nd_up(self.hi - other.lo))
        o = np.asarray(other, dtype=np.float64)
        return IVector(_nd_down(self.lo - o), _nd_up(self.hi - o))

    def __rsub__(self, other) -> "IVector":
        o = np.asarray(other, dtype=np.float64)
        return IVector(_nd_down(o - self.hi), _nd_up(o - self.lo))

    def __neg__(self) -> "IVector":
        return IVector(-self.hi, -self.lo)

    def scale(self, s: "Interval | float") -> "IVector":
        s = _coerce(s)
        lo, hi = _prod_bounds(self.lo, self.hi, np.float64(s.lo), np.float64(s.hi))
        return IVector(lo, hi)

    __mul__ = scale
    __rmul__ = scale

    def hull(self, other: "IVector") -> "IVector":
        return IVector(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def is_subset(self, other: "IVector") -> bool:
        return bool(np.all(other.lo <= self.lo) and np.all(self.hi <= other.hi))

    def is_interior_subset(self, other: "IVector") -> bool:
        return bool(np.all(other.lo < self.lo) and np.all(self.hi < other.hi))

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def inflate(self, radius: float) -> "IVector":
        return IVector(_nd_down(self.lo - radius), _nd_up(self.hi + radius))

    def __repr__(self) -> str:
        parts = ", ".join(repr(iv) for iv in self.components)
        return f"IVector({parts})"


class IMatrix:
    """Interval matrix backed by a pair of float64 arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise StructureError("IMatrix needs two 2-d arrays of equal shape")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
            raise StructureError("invalid IMatrix endpoints")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_point(cls, a) -> "IMatrix":
        a = np.asarray(a, dtype=np.float64)
        return cls(a.copy(), a.copy())

    @classmethod
    def identity(cls, n: int) -> "IMatrix":
        return cls.from_point(np.eye(n))

    @property
    def shape(self):
        return self.lo.shape

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def entry(self, i: int, j: int) -> Interval:
        return Interval(float(self.lo[i, j]), float(self.hi[i, j]))

    @property
    def T(self) -> "IMatrix":
        return IMatrix(self.lo.T.copy(), self.hi.T.copy())

    def __add__(self, other: "IMatrix") -> "IMatrix":
        return IMatrix(_nd_down(self.lo + other.lo), _nd_up(self.hi + other.hi))

    def __sub__(self, other: "IMatrix") -> "IMatrix":
        return IMatrix(_nd_down(self.lo - other.hi), _nd_up(self.hi - other.lo))

    def hull(self, other: "IMatrix") -> "IMatrix":
        return IMatrix(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def matvec(self, v: IVector) -> IVector:
        # terms[i, j] = enclosure of A[i, j] * v[j], then a rounded row sum
        lo, hi = _prod_bounds(
            self.lo, self.hi, v.lo[np.newaxis, :], v.hi[np.newaxis, :]
        )
        return IVector(_sum_down(lo, axis=1), _sum_up(hi, axis=1))

    def matmul(self, other: "IMatrix") -> "IMatrix":
        lo, hi = _prod_bounds(
            self.lo[:, :, np.newaxis],
            self.hi[:, :, np.newaxis],
            other.lo[np.newaxis, :, :],
            other.hi[np.newaxis, :, :],
        )
        return IMatrix(_sum_down(lo, axis=1), _sum_up(hi, axis=1))

    def __matmul__(self, other):
        if isinstance(other, IMatrix):
            return self.matmul(other)
        if isinstance(other, IVector):
            return self.matvec(other)
        return NotImplemented

    def scale(self, s: "Interval | float") -> "IMatrix":
        s = _coerce(s)
        lo, hi = _prod_bounds(self.lo, self.hi, np.float64(s.lo), np.float64(s.hi))
        return IMatrix(lo, hi)

    def is_subset(self, other: "IMatrix") -> bool:
        return bool(np.all(other.lo <= self.lo) and np.all(self.hi <= other.hi))

    def inflate(self, radius: float) -> "IMatrix":
        return IMatrix(_nd_down(self.lo - radius), _nd_up(self.hi + radius))

    def max_width(self) -> float:
        return float(_nd_up(self.hi - self.lo).max())

    def __repr__(self) -> str:
        return f"IMatrix(lo={self.lo!r}, hi={self.hi!r})"


def _gauss_columns(a, columns: list[list[Interval]]) -> list[list[Interval]]:
    """Solve ``a x = c`` for every interval column ``c`` by one elimination.

    Interval Gaussian elimination with partial pivoting on the point matrix
    ``a``; each row operation is applied to every column in turn, so each
    solution takes the same ``Interval`` operations, in the same order, as a
    solve of its column alone.  Raises if a pivot interval touches zero.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or any(len(c) != n for c in columns):
        raise StructureError("gauss_solve needs a square matrix and matching columns")
    rows: list[list[Interval]] = [
        [Interval.point(float(a[i, j])) for j in range(n)] for i in range(n)
    ]
    perm = list(range(n))
    for col in range(n):
        piv = max(range(col, n), key=lambda r: rows[perm[r]][col].mig)
        perm[col], perm[piv] = perm[piv], perm[col]
        prow = rows[perm[col]]
        pivot = prow[col]
        if pivot.contains_zero():
            raise StructureError("gauss_solve pivot interval contains zero")
        for r in range(col + 1, n):
            row = rows[perm[r]]
            if row[col].lo == 0.0 and row[col].hi == 0.0:
                continue
            factor = row[col] / pivot
            for j in range(col + 1, n):
                row[j] = row[j] - factor * prow[j]
            for rhs in columns:
                rhs[perm[r]] = rhs[perm[r]] - factor * rhs[perm[col]]
            row[col] = Interval.point(0.0)
    solutions = []
    for rhs in columns:
        x: list[Interval] = [Interval.point(0.0)] * n
        for i in range(n - 1, -1, -1):
            row = rows[perm[i]]
            acc = rhs[perm[i]]
            for j in range(i + 1, n):
                acc = acc - row[j] * x[j]
            x[i] = acc / row[i]
        solutions.append(x)
    return solutions


def gauss_solve(a: np.ndarray, b: IVector) -> IVector:
    """Rigorous enclosure of the solution of ``a x = b`` for a point matrix.

    Interval Gaussian elimination with partial pivoting; ``a`` must be a
    well-conditioned square float matrix (it is an orthonormal frame in the
    integrator's use).  Raises if a pivot interval touches zero.
    """
    return IVector.from_intervals(_gauss_columns(a, [b.components])[0])


def gauss_solve_mat(a: np.ndarray, b: IMatrix) -> IMatrix:
    """Rigorous enclosure of ``a^-1 B`` for a point matrix ``a``.

    Equal, column by column, to :func:`gauss_solve` of each column of ``B``.
    """
    columns = [IVector(b.lo[:, j], b.hi[:, j]).components for j in range(b.shape[1])]
    solutions = _gauss_columns(a, columns)
    lo = [[x[i].lo for x in solutions] for i in range(b.shape[0])]
    hi = [[x[i].hi for x in solutions] for i in range(b.shape[0])]
    return IMatrix(lo, hi)
