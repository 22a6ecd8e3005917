"""Interval arithmetic: exactness, containment, and linear algebra."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcr3bp import intervals
from pcr3bp.errors import DomainError
from pcr3bp.intervals import (
    IMatrix,
    Interval,
    IVector,
    gauss_solve,
    gauss_solve_mat,
)

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
    assert Interval(0.25, 0.75).is_interior_subset(a)
    assert not a.is_interior_subset(a)
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
    assert _encloses(*intervals._iadd(xl, xh, yl, yh), add)
    assert _encloses(*intervals._isub(xl, xh, yl, yh), sub)
    assert _encloses(*intervals._imul(xl, xh, yl, yh), mul)
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
    assert _encloses(*intervals._idiv(xl, xh, yl, yh), quo)
    q = Interval(xl, xh) / Interval(yl, yh)
    assert _encloses(q.lo, q.hi, quo)


@settings(max_examples=300, deadline=None)
@given(wide, wide, wide, st.integers(min_value=1, max_value=10**6))
def test_scale_and_divn_primitives_exact(a, b, c, n):
    xl, xh = _pair(a, b)
    ends = [Fraction(xl), Fraction(xh)]
    assert _encloses(*intervals._iscale(xl, xh, c), [e * Fraction(c) for e in ends])
    assert _encloses(*intervals._idivn(xl, xh, float(n)), [e / n for e in ends])


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
        assert _sqrt_encloses(*intervals._isqrt_pos(lo, hi), lo, hi)
        r = Interval(lo, hi).sqrt()
        assert _sqrt_encloses(r.lo, r.hi, lo, hi)


def test_sqrt_pinned_point_encloses_root():
    r = Interval.point(PINNED_SQRT).sqrt()
    assert r.lo < r.hi
    assert _sqrt_encloses(r.lo, r.hi, PINNED_SQRT, PINNED_SQRT)
    assert _sqrt_encloses(*intervals._isqrt_pos(PINNED_SQRT, PINNED_SQRT),
                          PINNED_SQRT, PINNED_SQRT)


def test_undefined_corner_gives_whole_line():
    # 0 * inf and inf / inf corners have no float value; the result must
    # still enclose every real product / quotient of the operands
    r = Interval(-math.inf, 1.0) * Interval(0.0, 1.0)
    assert r.lo <= -2.5 and 0.5 <= r.hi
    r = Interval(1.0, math.inf) / Interval(1.0, math.inf)
    assert r.lo <= 1e-300 and 1e300 <= r.hi


def test_sqrt_of_zero_clamps_at_zero():
    assert intervals._isqrt_pos(0.0, 0.0)[0] == 0.0
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
        assert (lo[i], hi[i]) == intervals._imul(xl, xh, yl, yh)


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


def test_ivector_roundtrip():
    v = IVector.from_point(np.array([1.0, -2.0, 3.0, 0.5]))
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
        prod = IMatrix.from_point(a) @ IVector.from_point(x)
        exact = [sum(mp.mpf(a[i, j]) * mp.mpf(x[j]) for j in range(4)) for i in range(4)]
        for i in range(4):
            assert mp.mpf(prod.lo[i]) <= exact[i] <= mp.mpf(prod.hi[i])


def test_matmul_contains_sampled_products():
    rng = np.random.default_rng(8)
    alo = rng.normal(size=(3, 3))
    a = IMatrix(alo, alo + 0.01)
    blo = rng.normal(size=(3, 3))
    b = IMatrix(blo, blo + 0.01)
    prod = a @ b
    for _ in range(20):
        sa = alo + 0.01 * rng.random(size=(3, 3))
        sb = blo + 0.01 * rng.random(size=(3, 3))
        point = sa @ sb
        # float rounding in the sample product is far below the 0.01 widths
        assert np.all(prod.lo <= point + 1e-12)
        assert np.all(point - 1e-12 <= prod.hi)


def test_gauss_solve_contains_true_solution():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        x_true = rng.normal(size=4)
        b = IVector.from_point(a @ x_true)
        sol = gauss_solve(a, b)
        hp = mp.lu_solve(mp.matrix(a.tolist()), mp.matrix((a @ x_true).tolist()))
        for i in range(4):
            assert mp.mpf(sol.lo[i]) <= hp[i] <= mp.mpf(sol.hi[i])


def _column_gauss_solve(a, b):
    """The single-column elimination that ``gauss_solve_mat`` once ran per
    column, kept verbatim as the reference the shared elimination must equal."""
    n = a.shape[0]
    rows = [[Interval.point(float(a[i, j])) for j in range(n)] for i in range(n)]
    rhs = list(b.components)
    perm = list(range(n))
    for col in range(n):
        piv = max(range(col, n), key=lambda r: rows[perm[r]][col].mig)
        perm[col], perm[piv] = perm[piv], perm[col]
        prow = rows[perm[col]]
        pivot = prow[col]
        for r in range(col + 1, n):
            row = rows[perm[r]]
            if row[col].lo == 0.0 and row[col].hi == 0.0:
                continue
            factor = row[col] / pivot
            for j in range(col + 1, n):
                row[j] = row[j] - factor * prow[j]
            rhs[perm[r]] = rhs[perm[r]] - factor * rhs[perm[col]]
            row[col] = Interval.point(0.0)
    x = [Interval.point(0.0)] * n
    for i in range(n - 1, -1, -1):
        row = rows[perm[i]]
        acc = rhs[perm[i]]
        for j in range(i + 1, n):
            acc = acc - row[j] * x[j]
        x[i] = acc / row[i]
    return IVector.from_intervals(x)


def test_gauss_solve_mat_matches_columns():
    # orthonormal frames (the integrator's use), shifted random matrices and
    # permuted ones with exact zeros, against thin, wide and point columns
    rng = np.random.default_rng(10)
    for k in range(240):
        n = 4 if k % 6 else int(rng.integers(2, 6))
        if k % 3 == 0:
            a = np.linalg.qr(rng.normal(size=(n, n)))[0]
        elif k % 3 == 1:
            a = rng.normal(size=(n, n)) + 4.0 * np.eye(n)
        else:
            a = rng.permutation(np.diag(rng.uniform(1.0, 3.0, n)) + np.triu(
                rng.normal(size=(n, n)), 1))
        m = int(rng.integers(1, 6))
        lo = rng.normal(size=(n, m))
        widths = rng.choice([0.0, 1e-12, 1e-6, 0.5], size=(n, m))
        b = IMatrix(lo, lo + widths)
        sol = gauss_solve_mat(a, b)
        assert sol.shape == (n, m)
        for j in range(m):
            col = IVector(b.lo[:, j], b.hi[:, j])
            ref = _column_gauss_solve(a, col)
            assert np.array_equal(sol.lo[:, j], ref.lo)
            assert np.array_equal(sol.hi[:, j], ref.hi)
            one = gauss_solve(a, col)
            assert np.array_equal(one.lo, ref.lo) and np.array_equal(one.hi, ref.hi)


def test_gauss_singular_raises():
    a = np.zeros((4, 4))
    with pytest.raises(ValueError):
        gauss_solve(a, IVector.from_point(np.ones(4)))
