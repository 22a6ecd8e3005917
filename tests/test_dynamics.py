"""Rotating-frame dynamics: potential, field, symmetry, libration points."""

import math

import mpmath as mp
import numpy as np
import pytest

from pcr3bp import dynamics, taylor
from pcr3bp.dynamics import JACOBI_OTERMA, MU_SUN_JUPITER, Params
from pcr3bp.errors import SingularityError
from pcr3bp.intervals import IArray, Interval

mp.mp.dps = 50

P = Params(MU_SUN_JUPITER, JACOBI_OTERMA)
RNG = np.random.default_rng(20260816)

# sample points kept away from both primaries
SAMPLES = [
    (0.5, 0.3),
    (-1.1, 0.05),
    (0.93, 0.0),
    (1.05, -0.2),
    (0.1, -0.9),
    (-0.4, 0.0),
]


def omega_mp(mu, x, y):
    """High-precision effective potential (reference implementation)."""
    x, y, mu = mp.mpf(x), mp.mpf(y), mp.mpf(mu)
    r1 = mp.sqrt((x + mu) ** 2 + y**2)
    r2 = mp.sqrt((x - 1 + mu) ** 2 + y**2)
    return (x**2 + y**2) / 2 + (1 - mu) / r1 + mu / r2 + mu * (1 - mu) / 2


def test_potential_matches_high_precision():
    for x, y in SAMPLES:
        ours = dynamics.effective_potential(P, x, y)
        ref = omega_mp(P.mu, x, y)
        assert abs(mp.mpf(ours) - ref) < 8 * mp.mpf(math.ulp(float(ref)))


def test_potential_includes_mass_coupling_constant():
    # the convention here includes the constant mu(1-mu)/2 (the energy
    # values in this package are calibrated to it)
    x, y = 0.5, 0.3
    bare = omega_mp(P.mu, x, y) - mp.mpf(P.mu) * (1 - mp.mpf(P.mu)) / 2
    ours = mp.mpf(dynamics.effective_potential(P, x, y))
    assert abs(ours - bare - mp.mpf(P.mu) * (1 - mp.mpf(P.mu)) / 2) < 1e-15


def rest(x, y):
    """The state at rest at (x, y), where the field's accelerations are the gradient."""
    return np.array([x, y, 0.0, 0.0])


def field_jacobian(state):
    """Float Jacobian of the field, from the Hessian of the float kernel.

    The oracle the mpmath derivatives check, and the interval Jacobian
    must enclose.
    """
    _, (oxx, oxy, oyy) = taylor.point_field(state, P.mu, True)
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [oxx, oxy, 0.0, 2.0],
        [oxy, oyy, -2.0, 0.0],
    ])


def hill_admissible(x, y):
    """Whether (x, y) lies in the Hill region 2 Omega >= C of the level."""
    return 2.0 * dynamics.effective_potential(P, x, y) - P.jacobi >= 0.0


def test_gradient_matches_high_precision_derivative():
    for x, y in SAMPLES:
        _, _, gx, gy = dynamics.vector_field(P, rest(x, y))
        ref_x = mp.diff(lambda t: omega_mp(P.mu, t, y), mp.mpf(x))
        ref_y = mp.diff(lambda t: omega_mp(P.mu, x, t), mp.mpf(y))
        assert abs(mp.mpf(gx) - ref_x) < 1e-13 * max(1, abs(ref_x))
        assert abs(mp.mpf(gy) - ref_y) < 1e-13 * max(1, abs(ref_y))


def test_hessian_matches_high_precision():
    for x, y in SAMPLES:
        jac = field_jacobian(rest(x, y))
        hxx, hxy, hyy = jac[2, 0], jac[2, 1], jac[3, 1]
        assert jac[3, 0] == hxy
        ref_xx = mp.diff(lambda t: omega_mp(P.mu, t, y), mp.mpf(x), 2)
        ref_yy = mp.diff(lambda t: omega_mp(P.mu, x, t), mp.mpf(y), 2)
        ref_xy = mp.diff(
            lambda s, t: omega_mp(P.mu, s, t), (mp.mpf(x), mp.mpf(y)), (1, 1)
        )
        assert abs(mp.mpf(hxx) - ref_xx) < 1e-12 * max(1, abs(ref_xx))
        assert abs(mp.mpf(hxy) - ref_xy) < 1e-12 * max(1, abs(ref_xy))
        assert abs(mp.mpf(hyy) - ref_yy) < 1e-12 * max(1, abs(ref_yy))


def test_reflection_symmetry_in_y():
    for x, y in SAMPLES:
        assert dynamics.effective_potential(P, x, y) == dynamics.effective_potential(P, x, -y)
        _, _, gx_p, gy_p = dynamics.vector_field(P, rest(x, y))
        _, _, gx_m, gy_m = dynamics.vector_field(P, rest(x, -y))
        assert gx_p == gx_m
        assert gy_p == -gy_m
        # Omega_xx and Omega_yy are even in y, Omega_xy is odd
        jac_p = field_jacobian(rest(x, y))
        jac_m = field_jacobian(rest(x, -y))
        assert (jac_m[2, 0], jac_m[2, 1], jac_m[3, 1]) == (
            jac_p[2, 0], -jac_p[2, 1], jac_p[3, 1])


def test_vector_field_structure():
    state = np.array([0.5, 0.3, -0.2, 0.4])
    f = dynamics.vector_field(P, state)
    _, _, gx, gy = dynamics.vector_field(P, rest(0.5, 0.3))
    assert f[0] == state[2]
    assert f[1] == state[3]
    assert f[2] == pytest.approx(2 * state[3] + gx, rel=1e-15)
    assert f[3] == pytest.approx(-2 * state[2] + gy, rel=1e-15)


def test_field_jacobian_matches_finite_differences():
    state = np.array([0.45, 0.31, -0.22, 0.41])
    jac = field_jacobian(state)
    eps = 1e-6
    for j in range(4):
        dv = np.zeros(4)
        dv[j] = eps
        fd = (
            dynamics.vector_field(P, state + dv) - dynamics.vector_field(P, state - dv)
        ) / (2 * eps)
        assert np.max(np.abs(jac[:, j] - fd)) < 1e-7


def test_jacobi_constant_and_reversal():
    for _ in range(20):
        state = RNG.uniform([-1.5, -1.5, -1, -1], [1.5, 1.5, 1, 1])
        if min(
            np.hypot(state[0] + P.mu, state[1]),
            np.hypot(state[0] - 1 + P.mu, state[1]),
        ) < 0.05:
            continue
        c = dynamics.jacobi_constant(P, state)
        r_state = dynamics.reversal(state)
        assert np.array_equal(dynamics.reversal(r_state), state)
        assert dynamics.jacobi_constant(P, r_state) == pytest.approx(c, rel=1e-15)


def test_reversal_conjugates_the_flow_direction():
    # d/dt R(s) must equal -R(f(s)): reversal flips the field
    state = np.array([0.5, 0.3, -0.2, 0.4])
    f = dynamics.vector_field(P, state)
    f_r = dynamics.vector_field(P, dynamics.reversal(state))
    assert np.allclose(f_r, -dynamics.reversal(f), rtol=1e-14, atol=1e-14)


def test_hill_region_membership():
    # between the primaries at this energy the zero-velocity curves close:
    # x = -1 on the section is inadmissible, the neighbourhoods of the
    # primaries and the far exterior are admissible
    assert not hill_admissible(-1.0, 0.0)
    assert hill_admissible(0.5, 0.0)
    assert hill_admissible(1.02, 0.0)
    assert hill_admissible(-2.0, 0.0)


def test_libration_points_bracket_the_neck():
    x1 = dynamics.libration_point(P, 1)
    x2 = dynamics.libration_point(P, 2)
    assert 0.9 < x1 < 1.0 - P.mu < x2 < 1.1
    for x in (x1, x2):
        gx = dynamics.vector_field(P, rest(x, 0.0))[2]
        assert abs(gx) < 1e-12


def test_libration_points_small_mass_limit():
    # for small mu the collinear points approach 1 -/+ (mu/3)^(1/3)
    tiny = Params(1e-9, 3.0)
    cube = (tiny.mu / 3) ** (1 / 3)
    assert abs(dynamics.libration_point(tiny, 1) - (1 - cube)) < 0.01 * cube
    assert abs(dynamics.libration_point(tiny, 2) - (1 + cube)) < 0.01 * cube


def test_libration_point_frozen_values():
    # cross-checked against a 40-digit root solve of Omega_x(x, 0) = 0
    assert dynamics.libration_point(P, 1) == pytest.approx(0.9323697524160933, abs=5e-15)
    assert dynamics.libration_point(P, 2) == pytest.approx(1.0688263265633298, abs=5e-15)


def test_singularity_guard():
    with pytest.raises(SingularityError):
        dynamics.effective_potential(P, 1.0 - P.mu, 0.0)
    with pytest.raises(SingularityError):
        dynamics.vector_field(P, np.array([-P.mu, 0.0, 0.1, 0.1]))


def test_guard_refuses_at_the_radius_where_the_kernels_do():
    # at (-mu, 1e-12) r1^2 is the float GUARD_RADIUS^2 exactly: the Taylor
    # kernels refuse there, and the potential and the Jacobi integral with them
    x, y = -P.mu, dynamics.GUARD_RADIUS
    assert (x + P.mu) ** 2 + y * y == dynamics.GUARD_RADIUS * dynamics.GUARD_RADIUS
    state = np.array([x, y, 0.0, 0.0])
    for call in (lambda: dynamics.effective_potential(P, x, y),
                 lambda: dynamics.jacobi_constant(P, state),
                 lambda: dynamics.vector_field(P, state),
                 lambda: dynamics.effective_potential_iv(P, Interval.point(x),
                                                         Interval.point(y)),
                 lambda: dynamics.vector_field_iv(P, IArray.from_point(state))):
        with pytest.raises(SingularityError):
            call()


def test_interval_potential_contains_point_values():
    for x, y in SAMPLES:
        xi = Interval(x - 1e-4, x + 1e-4)
        yi = Interval(y - 1e-4, y + 1e-4)
        enc = dynamics.effective_potential_iv(P, xi, yi)
        for dx in (-1e-4, 0.0, 1e-4):
            for dy in (-1e-4, 0.0, 1e-4):
                v = dynamics.effective_potential(P, x + dx, y + dy)
                assert enc.lo <= v <= enc.hi


def test_interval_field_contains_point_values():
    state = np.array([0.5, 0.3, -0.2, 0.4])
    box = IArray.from_point(state).inflate(1e-5)
    enc = dynamics.vector_field_iv(P, box)
    jac_enc = dynamics.vector_field_jacobian_iv(P, box)
    for _ in range(30):
        s = state + RNG.uniform(-1e-5, 1e-5, size=4)
        f = dynamics.vector_field(P, s)
        jac = field_jacobian(s)
        assert np.all(enc.lo <= f) and np.all(f <= enc.hi)
        assert np.all(jac_enc.lo <= jac) and np.all(jac <= jac_enc.hi)


def test_float_field_lies_in_the_interval_field_of_its_point():
    # the float and the interval kernel must agree to within rounding at
    # every state, or the point-mode and rigorous maps drift apart
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 200:
        state = rng.uniform([-1.5, -1.5, -2.0, -2.0], [1.5, 1.5, 2.0, 2.0])
        if min(np.hypot(state[0] + P.mu, state[1]),
               np.hypot(state[0] - 1 + P.mu, state[1])) < 0.05:
            continue
        box = IArray.from_point(state)
        f = dynamics.vector_field(P, state)
        jac = field_jacobian(state)
        enc = dynamics.vector_field_iv(P, box)
        jac_enc = dynamics.vector_field_jacobian_iv(P, box)
        assert np.all(enc.lo <= f) and np.all(f <= enc.hi), state
        assert np.all(jac_enc.lo <= jac) and np.all(jac <= jac_enc.hi), state
        checked += 1


def test_interval_potential_contains_exact_value_at_points():
    # point boxes leave only rounding in the enclosure; near a primary the
    # float 1 - mu would shift the light primary by far more than that
    offsets = [(1e-9, 0.0), (-3e-7, 0.0), (0.0, 2e-8), (1e-9, -2e-8)]
    near = [(c + dx, dy) for c in (-P.mu, 1.0 - P.mu) for dx, dy in offsets]
    for x, y in SAMPLES + near:
        enc = dynamics.effective_potential_iv(P, Interval.point(x), Interval.point(y))
        exact = omega_mp(P.mu, x, y)
        assert mp.mpf(enc.lo) <= exact <= mp.mpf(enc.hi), (x, y)


def test_interval_potential_thin_box_is_tight():
    for x, y in SAMPLES:
        enc = dynamics.effective_potential_iv(P, Interval.point(x), Interval.point(y))
        v = dynamics.effective_potential(P, x, y)
        assert enc.lo <= v <= enc.hi
        assert enc.width < 1e-13 * max(1.0, abs(v))
