"""Interval arithmetic: exactness, containment, and linear algebra."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcr3bp import intervals
from pcr3bp.errors import DomainError, StructureError
from pcr3bp.intervals import IArray, Interval, gauss_solve_mat

mp.mp.dps = 50


def ulps(iv: Interval) -> float:
    """Width of an interval in units of the last place of its magnitude."""
    scale = max(abs(iv.lo), abs(iv.hi), 1e-300)
    return iv.width / (math.ulp(scale))


# ----------------------------------------------------------------------
# exact cases
# ----------------------------------------------------------------------


def test_add_exact():
    r = Interval(1.0, 2.0) + Interval(3.0, 4.0)
    assert (r.lo, r.hi) == (4.0, 6.0)


def test_sub_exact():
    r = Interval(1.0, 2.0) - Interval(3.0, 4.0)
    assert (r.lo, r.hi) == (-3.0, -1.0)


def test_mul_tight_products():
    # products are opened by one ulp each side (uniform rounding guard)
    r = Interval(-1.0, 2.0) * Interval(3.0, 4.0)
    assert r.lo <= -4.0 <= r.hi and r.lo <= 8.0 <= r.hi
    assert -4.0 - r.lo <= math.ulp(4.0)
    assert r.hi - 8.0 <= math.ulp(8.0)


def test_add_inexact_is_one_ulp():
    # 0.1 + 0.2 is not representable; the exact-residual correction should
    # open the result by a single ulp on the correct side only
    r = Interval.point(0.1) + Interval.point(0.2)
    exact = mp.mpf(0.1) + mp.mpf(0.2)
    assert mp.mpf(r.lo) <= exact <= mp.mpf(r.hi)
    assert ulps(r) <= 1.0


def test_scalar_coercion():
    assert (Interval(1.0, 2.0) + 1.0) == Interval(2.0, 3.0)
    assert (3.0 - Interval(1.0, 2.0)) == Interval(1.0, 2.0)
    r = 2.0 * Interval(1.0, 2.0)
    assert r.lo <= 2.0 and 4.0 <= r.hi
    # at most the one-ulp rounding guard beyond the true endpoints
    assert 2.0 - r.lo <= math.ulp(2.0)
    assert r.hi - 4.0 <= math.ulp(4.0)


def test_div_straddles_exact_third():
    r = Interval.point(1.0) / Interval.point(3.0)
    third = mp.mpf(1) / 3
    assert mp.mpf(r.lo) < third < mp.mpf(r.hi)
    assert ulps(r) <= 2.0


def test_div_by_zero_interval_raises():
    with pytest.raises(ZeroDivisionError):
        Interval.point(1.0) / Interval(-1.0, 1.0)


def test_sqrt_two_tight():
    r = Interval.point(2.0).sqrt()
    assert mp.mpf(r.lo) < mp.sqrt(2) < mp.mpf(r.hi)
    assert ulps(r) <= 2.0


def test_sqrt_negative_raises():
    with pytest.raises(DomainError):
        Interval(-1.0, 4.0).sqrt()


def test_sqr_through_zero():
    r = Interval(-1.0, 2.0).sqr()
    assert r.lo == 0.0
    assert 4.0 <= r.hi <= math.nextafter(4.0, math.inf)


def test_pow_int():
    iv = Interval(-0.5, -0.5)
    cubed = iv.pow_int(3)
    assert cubed.lo <= -0.125 <= cubed.hi
    # consistency with repeated multiplication
    five = Interval(0.9, 1.1)
    direct = five.pow_int(5)
    manual = five * five * five * five * five
    assert direct.lo <= manual.hi and manual.lo <= direct.hi
    assert direct.is_subset(manual.inflate(1e-15))


def test_hull_intersection_subset():
    a = Interval(0.0, 1.0)
    b = Interval(0.5, 2.0)
    assert a.hull(b) == Interval(0.0, 2.0)
    assert a.intersection(b) == Interval(0.5, 1.0)
    assert Interval(0.25, 0.75).is_subset(a)
    with pytest.raises(ValueError):
        Interval(0.0, 0.1).intersection(Interval(0.2, 0.3))


def test_split_covers_exactly():
    parts = Interval(0.0, 1.0).split(4)
    assert len(parts) == 4
    assert parts[0].lo == 0.0 and parts[-1].hi == 1.0
    for a, b in zip(parts, parts[1:]):
        assert a.hi == b.lo


def test_point_queries():
    iv = Interval(-2.0, 6.0)
    assert iv.mid == 2.0
    assert iv.width == 8.0
    assert iv.mag == 6.0
    assert iv.mig == 0.0
    assert Interval(3.0, 6.0).mig == 3.0


# ----------------------------------------------------------------------
# property-based containment
# ----------------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _make(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


def _inside(x: Interval, s: float) -> float:
    # parameterize a point of x; clamp because the float blend can land
    # one rounding step outside a very lopsided interval
    return min(max(x.lo + s * (x.hi - x.lo), x.lo), x.hi)


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
def test_mul_contains_samples(a, b, c, d, s, t):
    x = _make(a, b)
    y = _make(c, d)
    px = _inside(x, s)
    py = _inside(y, t)
    r = x * y
    assert r.lo <= px * py <= r.hi


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
def test_add_sub_contain_samples(a, b, c, d, s, t):
    x = _make(a, b)
    y = _make(c, d)
    px = _inside(x, s)
    py = _inside(y, t)
    r = x + y
    assert r.lo <= px + py <= r.hi
    r = x - y
    assert r.lo <= px - py <= r.hi


@settings(max_examples=100, deadline=None)
@given(finite, finite, finite, finite)
def test_inclusion_monotone(a, b, c, d):
    outer = _make(a, b)
    inner = Interval(
        outer.lo + 0.25 * (outer.hi - outer.lo),
        outer.lo + 0.75 * (outer.hi - outer.lo),
    )
    y = _make(c, d)
    assert (inner * y).is_subset(outer * y)
    assert (inner + y).is_subset(outer + y)


# ----------------------------------------------------------------------
# exact oracles: every result must contain the exact real result
# ----------------------------------------------------------------------

wide = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=1e100)
away = st.floats(min_value=1e-100, max_value=1e100)
sign = st.sampled_from([-1.0, 1.0])
PINNED_SQRT = 1.4757107596075603e-06  # a float-checked sqrt missed its root


def _pair(a: float, b: float) -> tuple[float, float]:
    return min(a, b), max(a, b)


def _encloses(lo: float, hi: float, values) -> bool:
    return all(Fraction(lo) <= v <= Fraction(hi) for v in values)


def _corners(op, xl, xh, yl, yh):
    return [op(Fraction(u), Fraction(v)) for u in (xl, xh) for v in (yl, yh)]


def _sqrt_encloses(lo: float, hi: float, al: float, ah: float) -> bool:
    # lo <= sqrt(al) and sqrt(ah) <= hi, decided on exact squares
    return 0.0 <= lo and Fraction(lo) ** 2 <= Fraction(al) \
        and Fraction(ah) <= Fraction(hi) ** 2


@settings(max_examples=300, deadline=None)
@given(wide)
def test_outward_steps_exact(x):
    assert Fraction(intervals._dn(x)) < Fraction(x) < Fraction(intervals._up(x))


@settings(max_examples=300, deadline=None)
@given(wide, wide, wide, wide)
def test_add_sub_mul_primitives_exact(a, b, c, d):
    xl, xh = _pair(a, b)
    yl, yh = _pair(c, d)
    add = _corners(lambda u, v: u + v, xl, xh, yl, yh)
    sub = _corners(lambda u, v: u - v, xl, xh, yl, yh)
    mul = _corners(lambda u, v: u * v, xl, xh, yl, yh)
    assert _encloses(*intervals._iadd((xl, xh), (yl, yh)), add)
    assert _encloses(*intervals._isub((xl, xh), (yl, yh)), sub)
    assert _encloses(*intervals._imul((xl, xh), (yl, yh)), mul)
    x, y = Interval(xl, xh), Interval(yl, yh)
    assert _encloses((x + y).lo, (x + y).hi, add)
    assert _encloses((x - y).lo, (x - y).hi, sub)
    assert _encloses((x * y).lo, (x * y).hi, mul)


@settings(max_examples=300, deadline=None)
@given(wide, wide, away, away, sign)
def test_div_primitive_exact(a, b, c, d, s):
    xl, xh = _pair(a, b)
    yl, yh = _pair(s * c, s * d)
    quo = _corners(lambda u, v: u / v, xl, xh, yl, yh)
    assert _encloses(*intervals._idiv((xl, xh), (yl, yh)), quo)
    q = Interval(xl, xh) / Interval(yl, yh)
    assert _encloses(q.lo, q.hi, quo)


@settings(max_examples=300, deadline=None)
@given(wide, wide, wide, st.integers(min_value=1, max_value=10**6))
def test_scale_and_divn_primitives_exact(a, b, c, n):
    xl, xh = _pair(a, b)
    ends = [Fraction(xl), Fraction(xh)]
    assert _encloses(*intervals._iscale((xl, xh), c), [e * Fraction(c) for e in ends])
    assert _encloses(*intervals._idivn((xl, xh), float(n)), [e / n for e in ends])


@settings(max_examples=300, deadline=None)
@given(wide, wide)
def test_sqr_exact(a, b):
    x = Interval(*_pair(a, b))
    sq = [Fraction(x.lo) ** 2, Fraction(x.hi) ** 2]
    if x.contains_zero():
        sq.append(Fraction(0))
    r = x.sqr()
    assert _encloses(r.lo, r.hi, sq)
    assert r.lo >= 0.0


@settings(max_examples=300, deadline=None)
@given(nonneg, nonneg)
def test_sqrt_exact(a, b):
    al, ah = _pair(a, b)
    for lo, hi in ((al, ah), (al, al)):
        assert _sqrt_encloses(*intervals._isqrt_pos((lo, hi)), lo, hi)
        r = Interval(lo, hi).sqrt()
        assert _sqrt_encloses(r.lo, r.hi, lo, hi)


def test_sqrt_pinned_point_encloses_root():
    r = Interval.point(PINNED_SQRT).sqrt()
    assert r.lo < r.hi
    assert _sqrt_encloses(r.lo, r.hi, PINNED_SQRT, PINNED_SQRT)
    assert _sqrt_encloses(*intervals._isqrt_pos((PINNED_SQRT, PINNED_SQRT)),
                          PINNED_SQRT, PINNED_SQRT)


def test_undefined_corner_gives_whole_line():
    # 0 * inf and inf / inf corners have no float value; the result must
    # still enclose every real product / quotient of the operands
    r = Interval(-math.inf, 1.0) * Interval(0.0, 1.0)
    assert r.lo <= -2.5 and 0.5 <= r.hi
    r = Interval(1.0, math.inf) / Interval(1.0, math.inf)
    assert r.lo <= 1e-300 and 1e300 <= r.hi


def test_sqrt_of_zero_clamps_at_zero():
    assert intervals._isqrt_pos((0.0, 0.0))[0] == 0.0
    assert Interval(0.0, 4.0).sqrt().lo == 0.0


# ----------------------------------------------------------------------
# array layer: the rounding core of the vectorised kernels
# ----------------------------------------------------------------------

# finite floats of every size, with subnormals and overflowing neighbours
anyfloat = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
)
HALF_ULP_OF_ONE = 2.0 ** -53


def _le(x: float, v: Fraction) -> bool:
    """x <= v in the extended reals (x a float end, v exact)."""
    return x == -math.inf or (x != math.inf and Fraction(x) <= v)


def _ge(x: float, v: Fraction) -> bool:
    return x == math.inf or (x != -math.inf and Fraction(x) >= v)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(anyfloat, anyfloat, anyfloat, anyfloat), min_size=1, max_size=6))
def test_prod_bounds_exact_and_as_scalar(rows):
    ends = [(*_pair(a, b), *_pair(c, d)) for a, b, c, d in rows]
    alo, ahi, blo, bhi = (np.array(col) for col in zip(*ends))
    with np.errstate(all="ignore"):
        lo, hi = intervals._prod_bounds(alo, ahi, blo, bhi)
    for i, (xl, xh, yl, yh) in enumerate(ends):
        mul = _corners(lambda u, v: u * v, xl, xh, yl, yh)
        assert _le(lo[i], min(mul)) and _ge(hi[i], max(mul))
        assert (lo[i], hi[i]) == intervals._imul((xl, xh), (yl, yh))


@settings(max_examples=300, deadline=None)
@given(st.lists(anyfloat, min_size=1, max_size=12))
def test_sum_bounds_exact(terms):
    exact = sum(Fraction(t) for t in terms)
    t = np.array(terms)
    with np.errstate(all="ignore"):
        lo = intervals._sum_down(t, 0)
        hi = intervals._sum_up(t[np.newaxis, :], 1)[0]
    assert _le(float(lo), exact) and _ge(float(hi), exact)


def test_sum_bounds_cover_lost_small_terms():
    # every small term is below half an ulp of the partial sum, so the
    # float sum drops all of them; only the summed bound recovers them
    eps = 0.9 * HALF_ULP_OF_ONE
    t = np.array([1.0] + [eps] * 6)
    assert t.sum() == 1.0
    exact = 1 + 6 * Fraction(eps)
    assert _ge(float(intervals._sum_up(t, 0)), exact)
    assert _le(float(intervals._sum_down(-t, 0)), -exact)


# a finite end, or now and then an infinite one, so that 0 * inf corners
# turn up beside overflowed corners and subnormal products
maybe_inf = st.one_of(anyfloat, st.sampled_from([-math.inf, math.inf]))


def _interval_ends(a: float, b: float) -> tuple[float, float]:
    # [inf, inf] and [-inf, -inf] are not intervals; widen them
    lo, hi = _pair(a, b)
    return (1.0 if lo == math.inf else lo), (-1.0 if hi == -math.inf else hi)


def _exact_product_ends(xl, xh, yl, yh):
    """Infimum and supremum of x * y over two intervals, ends possibly infinite.

    Exact: a Fraction, or a float infinity; a 0 * inf corner counts as 0.
    """
    def mul(u, v):
        if u == 0.0 or v == 0.0:
            return Fraction(0)
        if math.isinf(u) or math.isinf(v):
            return math.copysign(math.inf, u) * math.copysign(1.0, v)
        return Fraction(u) * Fraction(v)

    c = [mul(u, v) for u in (xl, xh) for v in (yl, yh)]
    return min(c), max(c)


def _exact_dot(rows):
    """Exact (lo, hi) of the interval dot product of rows (xl, xh, yl, yh)."""
    ends = [_exact_product_ends(*row) for row in rows]
    los, his = [lo for lo, _ in ends], [hi for _, hi in ends]
    lo = -math.inf if -math.inf in los else sum(los, Fraction(0))
    hi = math.inf if math.inf in his else sum(his, Fraction(0))
    return lo, hi


def _rounded_dot(rows):
    """The dot product rule: round-to-nearest corner terms and one summed bound."""
    alo, ahi, blo, bhi = (np.array(col) for col in zip(*rows))
    with np.errstate(all="ignore"):
        lo, hi = intervals._corners(alo, ahi, blo, bhi)
        return float(intervals._sum_down(lo, 0)), float(intervals._sum_up(hi, 0))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(maybe_inf, maybe_inf, maybe_inf, maybe_inf), min_size=1, max_size=8))
def test_dot_product_of_rounded_corners_encloses_the_exact_one(rows):
    rows = [(*_interval_ends(a, b), *_interval_ends(c, d)) for a, b, c, d in rows]
    lo, hi = _rounded_dot(rows)
    exact_lo, exact_hi = _exact_dot(rows)
    assert _le(lo, exact_lo) and _ge(hi, exact_hi)


# point products: a * b rounds down and c * d rounds up, each by 0.45 to
# 0.5 ulp, to the same float 1 + j 2**-30 (j = 1..6)
SAME_WAY_ROWS = [tuple(float.fromhex(h) for h in row) for row in (
    ("0x1.38723d05efec9p+0", "0x1.a380a7fe32f45p-1",
     "0x1.9c7b2cfc7131cp+0", "0x1.3dc3cb42134f9p-1"),
    ("0x1.61776a7412b2bp+0", "0x1.72d19ac8405f6p-1",
     "0x1.26b6b10414a4cp+0", "0x1.bcbe5b9b24295p-1"),
    ("0x1.d7d91a67223a8p+0", "0x1.15c8ca52b9048p-1",
     "0x1.6d2533baaa4fap+0", "0x1.66f55d59b2665p-1"),
    ("0x1.969fa8a057a48p+0", "0x1.42579fc3b4029p-1",
     "0x1.1db4f2f009f06p+0", "0x1.cac3938a86b3fp-1"),
    ("0x1.9a14576ee9266p+0", "0x1.3fa0387dea293p-1",
     "0x1.770d7f5471f16p+0", "0x1.5d79e83430e20p-1"),
    ("0x1.b7c2f7e19d3fdp+0", "0x1.2a0d6a60aa6a8p-1",
     "0x1.5e8ee9dfcc077p+0", "0x1.75e522bfdd277p-1"),
)]


def test_dot_product_covers_terms_that_all_round_the_same_way():
    # the terms a * b and -(c * d) all lie below their exact products by
    # nearly half an ulp, and cancel in pairs, so the float sum is exactly
    # 0 in any order while the exact sum is nearly u * sum|t|: only the
    # summed bound, not the final outward step, can cover it
    half_ulp = Fraction(2) ** -53
    rows = []
    for j, (a, b, c, d) in enumerate(SAME_WAY_ROWS, 1):
        assert a * b == c * d == 1 + j * 2.0 ** -30
        for u, v in ((a, b), (-c, d)):
            assert 0.9 * half_ulp < Fraction(u) * Fraction(v) - Fraction(u * v) < half_ulp
            rows.append((u, u, v, v))
    assert sum(u * v for u, _, v, _ in rows) == 0.0
    exact_lo, exact_hi = _exact_dot(rows)
    assert exact_lo == exact_hi > 10 * half_ulp
    for n in range(1, len(rows) + 1):
        lo, hi = _rounded_dot(rows[:n])
        exact_lo, exact_hi = _exact_dot(rows[:n])
        assert _le(lo, exact_lo) and _ge(hi, exact_hi)


def test_one_term_dot_product_encloses_its_rounded_product():
    # 0.1 * 0.1 and 0.1 * 3.0: one rounding per term, one term per sum
    for row in [(0.1, 0.1, 0.1, 0.1), (0.1, 0.1, 3.0, 3.0), (-0.1, 0.3, 0.7, 3.0)]:
        lo, hi = _rounded_dot([row])
        exact_lo, exact_hi = _exact_dot([row])
        assert _le(lo, exact_lo) and _ge(hi, exact_hi)


def test_array_layer_nan_and_overflow():
    with np.errstate(all="ignore"):
        # overflowed sum (inf - inf inside the bound): lower end -inf, not NaN
        t = np.array([[1e308, 1e308]])
        assert intervals._sum_down(t, 1)[0] == -math.inf
        assert intervals._sum_up(t, 1)[0] == math.inf
        # infinite terms, and an undefined inf - inf sum: the whole line
        assert intervals._sum_down(np.array([-math.inf, 1.0]), 0) == -math.inf
        assert intervals._sum_up(np.array([math.inf, 1.0]), 0) == math.inf
        both = np.array([math.inf, -math.inf])
        assert intervals._sum_down(both, 0) == -math.inf
        assert intervals._sum_up(both, 0) == math.inf
        # a 0 * inf corner: the whole line, as the scalar _imul gives
        lo, hi = intervals._prod_bounds(np.array([0.0, -math.inf]), np.array([1.0, 1.0]),
                                        np.array([1.0, 0.0]), np.array([math.inf, 1.0]))
        assert lo.tolist() == [-math.inf, -math.inf] and hi.tolist() == [math.inf, math.inf]
        # an overflowed corner rounds to the infinity beyond it
        lo, hi = intervals._prod_bounds(np.array([1e300]), np.array([1e300]),
                                        np.array([1e10]), np.array([1e10]))
        assert lo[0] == 1.7976931348623157e308 and hi[0] == math.inf


# ----------------------------------------------------------------------
# vector / matrix layer
# ----------------------------------------------------------------------


def test_iarray_roundtrip():
    v = IArray.from_point(np.array([1.0, -2.0, 3.0, 0.5]))
    assert np.all(v.lo == v.hi)
    w = v.inflate(1e-3)
    assert np.all(w.lo < v.lo) and np.all(w.hi > v.hi)
    assert v.is_subset(w)
    assert not w.is_subset(v)


def test_matvec_contains_float_product():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.normal(size=(4, 4))
        x = rng.normal(size=4)
        prod = IArray.from_point(a) @ IArray.from_point(x)
        exact = [sum(mp.mpf(a[i, j]) * mp.mpf(x[j]) for j in range(4)) for i in range(4)]
        for i in range(4):
            assert mp.mpf(prod.lo[i]) <= exact[i] <= mp.mpf(prod.hi[i])


def test_matmul_contains_sampled_products():
    rng = np.random.default_rng(8)
    alo = rng.normal(size=(3, 3))
    a = IArray(alo, alo + 0.01)
    blo = rng.normal(size=(3, 3))
    b = IArray(blo, blo + 0.01)
    prod = a @ b
    for _ in range(20):
        sa = alo + 0.01 * rng.random(size=(3, 3))
        sb = blo + 0.01 * rng.random(size=(3, 3))
        point = sa @ sb
        # float rounding in the sample product is far below the 0.01 widths
        assert np.all(prod.lo <= point + 1e-12)
        assert np.all(point - 1e-12 <= prod.hi)


def test_matmul_of_point_matrices_encloses_the_exact_product():
    # point matrices of entries from 1e-300 to 1e300 in magnitude, each
    # entry of the product checked against the exact rational dot product
    rng = np.random.default_rng(12)
    for k in range(60):
        n, m = (2, 4) if k % 2 else (4, 3)
        a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-300, 301, size=(n, n))
        b = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-300, 301, size=(n, m))
        if k % 3 == 0:  # cancellation: the off-diagonal entries of a inv(a)
            a = rng.normal(size=(n, n))
            b = np.linalg.inv(a)
        with np.errstate(all="ignore"):
            prod = IArray.from_point(a) @ IArray.from_point(b)
        for i in range(n):
            for j in range(b.shape[1]):
                exact = sum(Fraction(a[i, t]) * Fraction(b[t, j]) for t in range(n))
                assert _le(float(prod.lo[i, j]), exact) and _ge(float(prod.hi[i, j]), exact)


def test_gauss_solve_contains_true_solution():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        x_true = rng.normal(size=4)
        b = IArray.from_point(a @ x_true)
        sol = gauss_solve_mat(a, b)
        hp = mp.lu_solve(mp.matrix(a.tolist()), mp.matrix((a @ x_true).tolist()))
        for i in range(4):
            assert mp.mpf(sol.lo[i]) <= hp[i] <= mp.mpf(sol.hi[i])


def _exact_inverse(a):
    """Gauss-Jordan inverse of a float matrix in exact rational arithmetic."""
    n = a.shape[0]
    rows = [[Fraction(float(x)) for x in a[i]] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _frames(rng, count):
    # orthonormal frames (the integrator's use), shifted random matrices and
    # permuted triangular ones with exact zeros, of sizes 2 and 4
    for k in range(count):
        n = 2 if k % 2 else 4
        if k % 3 == 0:
            yield np.linalg.qr(rng.normal(size=(n, n)))[0]
        elif k % 3 == 1:
            yield rng.normal(size=(n, n)) + 4.0 * np.eye(n)
        else:
            yield rng.permutation(np.diag(rng.uniform(1.0, 3.0, n)) + np.triu(
                rng.normal(size=(n, n)), 1))


def test_point_inverse_contains_exact_inverse():
    for a in _frames(np.random.default_rng(10), 60):
        inv = intervals._point_inverse(a)
        exact = _exact_inverse(a)
        n = a.shape[0]
        for i in range(n):
            for j in range(n):
                assert Fraction(inv.lo[i, j]) <= exact[i][j] <= Fraction(inv.hi[i, j])


def test_point_inverse_refuses_singular_frames():
    # 1 + 1e-17 rounds to 1, so the first matrix is exactly singular; the
    # third is invertible but too ill-conditioned for the residual bound
    for a in ([[1.0, 1.0], [1.0, 1.0 + 1e-17]], np.zeros((2, 2)),
              [[1.0, 1.0], [1.0, 1.0 + 1e-15]]):
        with pytest.raises(StructureError):
            intervals._point_inverse(np.array(a))


def test_solve_with_orthonormal_frame_is_tight():
    # for an orthonormal Q the exact hull of Q^-1 b has width |Q^T| width(b);
    # the enclosure may add only a rounding term of order n^2 u |Q^T| mag(b)
    rng = np.random.default_rng(11)
    for k in range(40):
        n = 2 if k % 2 else 4
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        lo = rng.normal(size=(n, 3))
        b = IArray(lo, lo + rng.uniform(0.1, 1.0, size=(n, 3)))
        sol = gauss_solve_mat(q, b)
        sharp = np.abs(q.T) @ (b.hi - b.lo)
        mag = np.abs(q.T) @ np.maximum(np.abs(b.lo), np.abs(b.hi))
        assert np.all(sol.hi - sol.lo <= sharp + 1024 * 2.0 ** -53 * mag)


def test_gauss_singular_raises():
    a = np.zeros((4, 4))
    with pytest.raises(StructureError):
        gauss_solve_mat(a, IArray.from_point(np.ones(4)))


# ----------------------------------------------------------------------
# the array contract: ends are checked where values enter, and on valid
# operands every operation gives a valid result
# ----------------------------------------------------------------------

INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("lo, hi", [(NAN, 1.0), (0.0, NAN), (2.0, 1.0),
                                    (INF, INF), (-INF, -INF), (INF, -INF)])
def test_iarray_refuses_invalid_ends(lo, hi):
    with pytest.raises(StructureError):
        IArray([0.0, lo], [1.0, hi])
    with pytest.raises(StructureError):
        IArray.from_intervals([Interval(0.0, 1.0), Interval(lo, hi)])


@pytest.mark.parametrize("x", [NAN, INF, -INF])
def test_point_values_must_be_finite(x):
    with pytest.raises(StructureError):
        IArray.from_point([0.0, x])
    v = IArray.from_point([1.0, 2.0])
    for op in (lambda: v + np.array([0.0, x]), lambda: v - np.array([x, 0.0])):
        with pytest.raises(StructureError):
            op()


@pytest.mark.parametrize("radius", [-1e-300, -1.0, NAN])
def test_inflate_refuses_a_negative_radius(radius):
    with pytest.raises(DomainError):
        IArray.from_point([1.0, 2.0]).inflate(radius)


def test_iarray_indexing():
    m = IArray(np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(2, 3) + 0.5)
    assert m[1, 2] == Interval(5.0, 5.5)
    row = m[1]
    assert isinstance(row, IArray) and row.shape == (3,) and row[0] == Interval(3.0, 3.5)
    col = m[:, 1]
    assert col.lo.tolist() == [1.0, 4.0] and col.hi.tolist() == [1.5, 4.5]


# ends of every kind: zero-width points, tiny, huge and infinite ends
_END_POOL = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.1, -3.0, 1e300,
                      -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
                      INF, -INF])


def _random_iarray(rng, shape, finite):
    pool = _END_POOL[np.isfinite(_END_POOL)] if finite else _END_POOL
    a = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                 rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, shape))
    b = np.where(rng.random(shape) < 0.3, a, rng.choice(pool, shape))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # [inf, inf] and [-inf, -inf] are not intervals; widen them
    lo = np.where(lo == INF, 1.0, lo)
    hi = np.where(hi == -INF, -1.0, hi)
    return IArray(lo, hi)


def _array_results(rng, finite):
    """(name, result, operands) of every array operation on random operands."""
    v, w = _random_iarray(rng, (4,), finite), _random_iarray(rng, (4,), finite)
    a, b = _random_iarray(rng, (4, 4), finite), _random_iarray(rng, (4, 3), finite)
    s = _random_iarray(rng, (1,), finite)[0]
    r = float(rng.choice([0.0, 1e-300, 1e-3, 1e300]))
    with np.errstate(all="ignore"):
        return [("add", v + w, (v, w)), ("sub", v - w, (v, w)), ("neg", -a, (a,)),
                ("scale", a.scale(s), (a, s)), ("matvec", a @ v, (a, v)),
                ("matmul", a @ b, (a, b)), ("inflate", v.inflate(r), (v, r))]


def _exact_bounds(name, ops):
    """Exact (lo, hi) Fraction arrays the result of ``name`` must enclose."""
    def fr(x):
        return np.vectorize(Fraction, otypes=[object])(x)

    if name == "inflate":
        (x, r) = ops
        return fr(x.lo) - Fraction(r), fr(x.hi) + Fraction(r)
    if name == "neg":
        return -fr(ops[0].hi), -fr(ops[0].lo)
    x, y = ops
    if name == "add":
        return fr(x.lo) + fr(y.lo), fr(x.hi) + fr(y.hi)
    if name == "sub":
        return fr(x.lo) - fr(y.hi), fr(x.hi) - fr(y.lo)
    if name == "scale":
        ylo, yhi = Fraction(y.lo), Fraction(y.hi)
        c = [fr(e) * f for e in (x.lo, x.hi) for f in (ylo, yhi)]
        return np.minimum.reduce(c), np.maximum.reduce(c)
    # matrix products: the sum over j of the exact hull of A[i, j] * B[j, k]
    n = y.shape[0]
    ylo, yhi = fr(y.lo).reshape(n, -1), fr(y.hi).reshape(n, -1)
    xlo, xhi = fr(x.lo)[:, :, None], fr(x.hi)[:, :, None]
    c = [p * q for p in (xlo, xhi) for q in (ylo, yhi)]
    shape = x.shape[:1] + y.shape[1:]
    return (np.minimum.reduce(c).sum(axis=1).reshape(shape),
            np.maximum.reduce(c).sum(axis=1).reshape(shape))


@pytest.mark.parametrize("seed", range(40))
def test_array_results_are_valid_intervals(seed):
    # zero-width, huge and infinite ends: no result has a NaN end, an
    # unordered pair, a +inf lower or a -inf upper end
    for _, res, _ in _array_results(np.random.default_rng(seed), finite=False):
        IArray(res.lo, res.hi)


@pytest.mark.parametrize("seed", range(40))
def test_array_results_contain_exact_results(seed):
    for name, res, ops in _array_results(np.random.default_rng([1, seed]), finite=True):
        IArray(res.lo, res.hi)
        lo, hi = _exact_bounds(name, ops)
        for x, v in zip(res.lo.ravel(), lo.ravel()):
            assert _le(float(x), v), name
        for x, v in zip(res.hi.ravel(), hi.ravel()):
            assert _ge(float(x), v), name
