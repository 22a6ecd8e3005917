"""Tests for h-sets, covering verification, cone conditions and file I/O.

The covering engine is exercised against linear hyperbolic maps whose
covering status and clearances are known in closed form, so every verdict
and margin can be checked against an independent oracle.
"""

import os

import numpy as np
import pytest

from pcr3bp import taylor
from pcr3bp.dynamics import MU_SUN_JUPITER, Params
from pcr3bp.errors import DomainError, StructureError
from pcr3bp.hset import (
    CellImage,
    HSet,
    check_cover,
    check_cover_pointwise,
    cone_condition,
    fix_r_segment,
    is_r_symmetric,
    load_bundled,
    r_image,
    read_hset_file,
    write_hset_file,
)
from pcr3bp.intervals import IArray, Interval
from pcr3bp.poincare import HALF_MINUS, HALF_PLUS, SectionPoint, apply_chain_lanes
from pcr3bp.symbolic import section_point_map

UNIT_N = HSet("N", 1, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
UNIT_M = HSet("M", 1, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def linear_local_map(la, lb, ta, tb):
    """Map (a, b) -> (la a + ta, lb b + tb) in local coordinates."""

    def map_fn(a, b):
        return a * la + ta, b * lb + tb

    return map_fn


def through_section_adapter(source, target, la, lb, ta, tb):
    """The same linear map, but routed through section coordinates and
    converted back with the target frame, the way a real section-map
    adapter does it (with the attendant box-wrapping overestimate)."""
    fr = target.frame
    cx, cvx = float(target.center[0]), float(target.center[1])

    def map_fn(a, b):
        ap = a * la + ta
        bp = b * lb + tb
        x = ap * float(fr[0, 0]) + bp * float(fr[0, 1]) + cx
        vx = ap * float(fr[1, 0]) + bp * float(fr[1, 1]) + cvx
        return target.local_coords_iv(x, vx)

    return map_fn


# ----------------------------------------------------------------------
# h-set geometry
# ----------------------------------------------------------------------


def test_hset_validation():
    with pytest.raises(StructureError):
        HSet("bad", 0, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(StructureError):
        HSet("bad", 1, (0.0, 0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_local_coords_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.uniform(-1, 1, size=2)
        u = rng.uniform(-1, 1, size=2)
        s = rng.uniform(-1, 1, size=2)
        if abs(u[0] * s[1] - u[1] * s[0]) < 0.1:
            continue
        h = HSet("T", 1, c, u, s)
        a, b = rng.uniform(-1, 1, size=2)
        pt = h.corner_point(a, b)
        a2, b2 = h.local_coords(pt[0], pt[1])
        assert abs(a2 - a) < 1e-12 and abs(b2 - b) < 1e-12


def test_local_coords_iv_contains_point_coords():
    h = HSet("T", 1, (0.3, -0.2), (0.02, 0.01), (-0.01, 0.03))
    rng = np.random.default_rng(11)
    for _ in range(20):
        x0, vx0 = rng.uniform(-0.05, 0.05, size=2) + h.center
        w = rng.uniform(0, 1e-3)
        a_iv, b_iv = h.local_coords_iv(
            Interval(x0 - w, x0 + w), Interval(vx0 - w, vx0 + w)
        )
        a_pt, b_pt = h.local_coords(x0, vx0)
        assert a_iv.lo <= a_pt <= a_iv.hi
        assert b_iv.lo <= b_pt <= b_iv.hi


def test_frame_inverse_is_made_once_and_encloses_the_inverse():
    h = HSet("T", 1, (0.3, -0.2), (0.02, 0.01), (-0.01, 0.03))
    inv = h.frame_inverse
    assert h.frame_inverse is inv
    exact = np.linalg.inv(h.frame)
    assert np.all(inv.lo <= exact) and np.all(exact <= inv.hi)
    # a degenerate set constructs; only its frame inverse refuses
    z = HSet("Z", 1, (0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    with pytest.raises(StructureError):
        z.frame_inverse
    # a set made from another does not inherit its cached inverse
    assert r_image(h).frame_inverse is not inv


def test_degenerate_frame_refuses_point_coords_with_a_typed_error(tmp_path):
    # u parallel to s: the file format accepts the set, but its point
    # coordinates refuse as its frame inverse does, so a pointwise screen
    # into it fails with a StructureError and not numpy's LinAlgError
    path = tmp_path / "flat.hset"
    v4 = load_bundled("v_chain")["V4"]
    u = np.array([2.0 ** -6, 2.0 ** -7])  # exact in the file and the solve
    write_hset_file(path, [HSet("Z", v4.sign, v4.center, u, 2.0 * u)])
    flat = read_hset_file(path)["Z"]
    with pytest.raises(StructureError, match="singular frame"):
        flat.local_coords(*flat.center)
    v3 = load_bundled("v_chain")["V3"]
    point_map = section_point_map(Params(), [HALF_MINUS], v3, flat)
    with pytest.raises(StructureError):
        check_cover_pointwise(point_map, v3, flat, samples=16)


@pytest.mark.parametrize("src, dst, tag", [
    ("G1", "G2", HALF_MINUS), ("G2", "G3", HALF_PLUS),
    ("G3", "G4", HALF_MINUS), ("V3", "V4", HALF_MINUS),
])
def test_array_coords_give_each_landing_its_own_bits(src, dst, tag):
    # the landings of the benchmark's four screen links, 200 each: solved
    # in one call, every point gets the bits it gets alone; solving them
    # all against one frame, as the columns of one right-hand side, parts
    # from these in the last bits
    sets = {**load_bundled("g_chain"), **load_bundled("v_chain")}
    source, target = sets[src], sets[dst]
    ab = np.random.default_rng(1).uniform(-1.0, 1.0, (200, 2))
    xv = source.corner_point(ab[:, :1], ab[:, 1:])
    flown = apply_chain_lanes(Params(), [tag], [
        SectionPoint(x, vx, source.sign) for x, vx in xv.tolist()])
    landed = [f[0] for f in flown]
    x, vx = np.array([p.x for p in landed]), np.array([p.vx for p in landed])
    a, b = target.local_coords(x, vx)
    assert a.shape == b.shape == (200,)
    alone = [target.local_coords(p.x, p.vx) for p in landed]
    assert all(type(c) is float for pair in alone for c in pair)
    assert list(zip(a.tolist(), b.tolist())) == alone


def test_r_image_involution_and_geometry():
    h = HSet("T", 1, (0.5, 0.3), (0.01, 0.02), (-0.01, 0.04))
    ri = r_image(h)
    assert ri.center[0] == h.center[0] and ri.center[1] == -h.center[1]
    # reversal exchanges expansion and contraction
    assert np.array_equal(ri.u, h.s * np.array([1.0, -1.0]))
    rr = r_image(ri)
    assert np.array_equal(rr.center, h.center)
    assert np.array_equal(rr.u, h.u) and np.array_equal(rr.s, h.s)


# ----------------------------------------------------------------------
# reversal symmetry predicates
# ----------------------------------------------------------------------


def test_is_r_symmetric_on_symmetric_set():
    h = HSet("A", 1, (-1.12327231155833984, 0.0), (1e-8, 4e-7), (-1e-8, 4e-7))
    assert is_r_symmetric(h)


def test_is_r_symmetric_rejects_off_axis_center():
    h = HSet("A", 1, (-1.1232, 1e-3), (1e-8, 4e-7), (-1e-8, 4e-7))
    assert not is_r_symmetric(h)


def test_is_r_symmetric_rejects_mismatched_directions():
    h = HSet("A", 1, (-1.1232, 0.0), (1e-8, 4e-7), (-1e-8, 3e-7))
    assert not is_r_symmetric(h)


def test_is_r_symmetric_degenerate_directions_is_false():
    # flipping the sign of s_x makes u and s parallel; the degenerate
    # parallelogram must report False rather than raise
    h = HSet("A", 1, (-1.12327231155833984, 0.0), (1e-8, 4e-7), (1e-8, 4e-7))
    assert not is_r_symmetric(h)
    z = HSet("Z", 1, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
    assert not is_r_symmetric(z)


def test_fix_r_segment_lies_on_symmetry_line():
    h = HSet("A", 1, (-1.12327231155833984, 0.0), (1e-8, 4e-7), (-1e-8, 4e-7))
    gamma = fix_r_segment(h)
    for a in (-1.0, -0.5, 0.0, 0.7, 1.0):
        pt, b = gamma(a)
        assert pt[1] == pytest.approx(0.0, abs=1e-20)
        assert abs(b) <= 1.0 + 1e-12
        a2, b2 = h.local_coords(pt[0], pt[1])
        # absolute embedding at scale ~1 limits local-coordinate recovery
        assert a2 == pytest.approx(a, abs=1e-6)
        assert b2 == pytest.approx(b, abs=1e-6)


def test_fix_r_segment_requires_symmetry():
    h = HSet("A", 1, (0.5, 0.3), (1e-8, 4e-7), (-1e-8, 4e-7))
    with pytest.raises(StructureError):
        fix_r_segment(h)


# ----------------------------------------------------------------------
# covering verification: closed-form toy maps
# ----------------------------------------------------------------------


def test_toy_hyperbolic_cover_verified_with_exact_margin():
    def f(a, b):
        return a * 3.0, b * (1.0 / 3.0)

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(4, 2))
    assert rep.verified and rep.outcome == "verified"
    assert rep.margin == pytest.approx(2.0, abs=1e-12)
    assert rep.stable_clearance == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_toy_contraction_is_falsified():
    # the image provably never reaches either unstable edge (|a'| < 1)
    def f(a, b):
        return a * 0.3, b * 0.2

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(4, 2), max_grid=(8, 4))
    assert rep.outcome == "falsified"
    assert rep.margin < 0.0


def test_toy_displaced_image_is_falsified():
    # the whole image is certified disjoint from the target square
    def f(a, b):
        return a * 0.5 + 5.0, b * 0.2

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(4, 2), max_grid=(8, 4))
    assert rep.outcome == "falsified"
    assert not rep.verified and rep.margin <= 0.0


def test_toy_image_above_target_is_falsified():
    # disjoint from the target square on the stable side
    def f(a, b):
        return a * 3.0, b * 0.1 + 7.0

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(4, 2), max_grid=(8, 4))
    assert rep.outcome == "falsified"
    assert rep.margin < 0.0


def test_weak_cover_with_strip_escape_beyond_exits_is_verified():
    # |b'| exceeds 1 only where |a'| is already far beyond the exit
    # edges; the bars beside the target are avoided, so this covers
    def f(a, b):
        return a * 5.0, b * (a * a + 0.05)

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(16, 2), max_grid=(64, 8))
    assert rep.verified, str(rep)
    assert rep.margin == pytest.approx(4.0, abs=1e-9)
    # the stable clearance is measured where the image can meet the
    # target's unstable range, not out at the exits
    assert rep.stable_clearance > 0.85


def test_same_side_exits_with_interior_sweep_is_inconclusive():
    # both exit edges certify beyond a' = +1, yet the interior image
    # sweeps across the whole target: not certifiable in these frames,
    # but no disproof either (the map may still cover through the fold)
    def f(a, b):
        return a * a * 4.0 - 2.5, b * (1.0 / 3.0)

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(8, 2), max_grid=(32, 8))
    assert rep.outcome == "inconclusive"
    assert rep.margin == 0.0


def test_bar_hit_is_inconclusive_not_falsified():
    # cells near a = 0 land inside the closed bar {|a'| <= 1, |b'| >= 1},
    # which blocks certification but does not disprove a covering
    def f(a, b):
        return b * 3.0, a * 2.0

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(4, 4), max_grid=(16, 16))
    assert rep.outcome == "inconclusive"
    assert rep.margin == 0.0


def test_toy_marginal_map_is_inconclusive():
    # edges land exactly on the unstable edges: never strictly beyond
    def f(a, b):
        return a * 1.0, b * 0.5

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(4, 2), max_grid=(8, 4))
    assert rep.outcome == "inconclusive"
    assert not rep.verified
    assert rep.margin <= 0.0 and abs(rep.margin) < 1e-12


def test_margin_positive_iff_verified():
    reports = []
    for la, lb in [(3.0, 1 / 3), (0.3, 0.2), (1.0, 0.5)]:
        def f(a, b, la=la, lb=lb):
            return a * la, b * lb

        reports.append(check_cover(f, UNIT_N, UNIT_M, grid=(4, 2),
                                   max_grid=(8, 4)))
    for rep in reports:
        assert (rep.margin > 0.0) == rep.verified


def test_cover_leaves_kernel_singularity_undecided():
    # the map runs the interval kernel on a box around the light primary
    # for cells right of a = 1/2; the kernel's typed guard must turn
    # those cells undecided instead of aborting the check
    at_primary = np.array([1.0 - MU_SUN_JUPITER, 0.0, 0.1, 0.1])

    def f(a, b):
        if a.hi > 0.5:
            taylor.iv_coeffs(at_primary - 1e-3, at_primary + 1e-3,
                             MU_SUN_JUPITER, 4)
        return a * 3.0, b * (1.0 / 3.0)

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(4, 1), max_grid=(4, 1))
    assert rep.outcome == "inconclusive"
    assert "undecided" in rep.message
    # the map raised on the cell [1/2, 1] and on the exit edge a = +1; the
    # report counts both and names them
    assert rep.errors == {"SingularityError": 2}
    assert "SingularityError: 2" in rep.message


def counted_faces(face_of):
    """The map (a, b) -> (3 a, b / 3) as CellImages, with ``face_of(a,
    a_edge)`` as the face of the cell over ``a``, and the list of the
    (a, b) it was called on."""
    calls = []

    def f(a, b):
        calls.append((a, b))
        return CellImage(a * 3.0, b * (1.0 / 3.0),
                         lambda a_edge: face_of(a, a_edge))

    return f, calls


def widening_face(a, a_edge):
    # a' = 3 a_edge blurred by the cell's a-width: the face of a whole-width
    # cell touches a' = +-1, the face of a half-width one clears it by 1
    return Interval.symmetric(a.width) + 3.0 * a_edge, Interval(-0.5, 0.5)


def test_exit_edges_are_decided_from_the_faces_of_their_cells():
    # the faces clear a' = +-1 by 1.5, sharper than the cells' own images
    # (which clear nothing at 1x1); no edge piece is evaluated on its own
    f, calls = counted_faces(lambda a, a_edge: (Interval.point(2.5 * a_edge),
                                                Interval(-0.5, 0.5)))
    rep = check_cover(f, UNIT_N, UNIT_M, grid=(1, 1), max_grid=(1, 1))
    assert rep.verified, str(rep)
    assert rep.margin == 1.5
    assert len(calls) == rep.cells == 1
    assert rep.edge_faces == 2
    assert "1 cells, 2 edges from cell faces" in str(rep)


def test_an_undecided_face_splits_its_cell_and_the_children_decide_it():
    # the whole cell is certified, but its faces touch a' = +-1: it splits
    # in both axes, as an undecided cell does, and each of the four
    # children decides the one exit-edge piece at its own end from its face
    f, calls = counted_faces(widening_face)
    rep = check_cover(f, UNIT_N, UNIT_M, grid=(1, 1), max_grid=(2, 2))
    assert rep.verified, str(rep)
    assert rep.margin == 1.0
    assert rep.stable_clearance == pytest.approx(2.0 / 3.0)
    assert len(calls) == rep.cells == 1 + 4
    assert rep.edge_faces == 4
    assert [a for a, _ in calls[1:]] == [Interval(-1.0, 0.0)] * 2 + [Interval(0.0, 1.0)] * 2


def test_an_undecided_face_at_the_finest_grid_leaves_the_check_undecided():
    f, calls = counted_faces(widening_face)
    rep = check_cover(f, UNIT_N, UNIT_M, grid=(1, 1), max_grid=(1, 1))
    assert rep.outcome == "inconclusive"
    assert "undecided at the finest grid" in rep.message
    assert (len(calls), rep.cells, rep.edge_faces) == (1, 1, 0)


def test_a_face_that_raises_is_counted_in_the_errors():
    def face(a, a_edge):
        raise DomainError("face image off the section")

    f, _ = counted_faces(face)
    rep = check_cover(f, UNIT_N, UNIT_M, grid=(1, 1), max_grid=(1, 1))
    assert rep.outcome == "inconclusive"
    assert rep.errors == {"DomainError": 2}
    assert "DomainError: 2" in rep.message


def test_face_decided_pieces_feed_the_falsification_hull():
    # the cells' a' stays within +-0.5, so from the cells alone the hull of
    # a' stops short of both unstable edges; the faces reach beyond them,
    # and, as flown pieces do, they enter the hull, so nothing is falsified
    def f(a, b):
        return CellImage(a * 0.5, b * (1.0 / 3.0),
                         lambda a_edge: (Interval.point(2.5 * a_edge),
                                         Interval(-0.5, 0.5)))

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(1, 1), max_grid=(1, 1))
    assert rep.verified, str(rep)
    assert rep.margin == 1.5


def test_face_decided_pieces_on_opposite_sides_are_inconclusive():
    # the faces of the two cells on one exit edge land beyond opposite
    # unstable edges: the mixed-side rule sees pieces decided from faces
    def f(a, b):
        return CellImage(a * 3.0, b * (1.0 / 3.0),
                         lambda a_edge: (Interval.point(2.0 if b.lo < 0.0 else -2.0),
                                         Interval(-0.5, 0.5)))

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(1, 2), max_grid=(1, 2))
    assert rep.outcome == "inconclusive"
    assert "land beyond opposite edges" in rep.message
    assert (rep.cells, rep.edge_faces) == (2, 4)


def test_opposite_sides_found_at_depth_are_inconclusive():
    # the whole cell's faces decide nothing; split along b, the lower half
    # lands both its edge pieces beyond a' = +1 and the upper half beyond
    # a' = -1, so each exit edge has pieces on opposite sides
    def f(a, b):
        def face(a_edge):
            if b.width == 2.0:
                return Interval(-3.0, 3.0), Interval(-0.5, 0.5)
            return Interval.point(2.0 if b.lo < 0.0 else -2.0), Interval(-0.5, 0.5)

        return CellImage(a * 3.0, b * (1.0 / 3.0), face)

    rep = check_cover(f, UNIT_N, UNIT_M, grid=(1, 1), max_grid=(1, 2))
    assert rep.outcome == "inconclusive"
    assert "land beyond opposite edges" in rep.message
    assert (rep.cells, rep.edge_faces) == (3, 4)


def test_adaptive_refinement_rescues_coarse_grid():
    # the b-image is written with an interval dependency problem, so a
    # single coarse cell overestimates it badly; subdivision shrinks the
    # overestimate linearly until the strip condition certifies
    def f(a, b):
        ap = a * 3.0
        bp = (a + b) * 0.5 - a * 0.5  # = b/2, but wraps on wide cells
        return ap, bp

    coarse = check_cover(f, UNIT_N, UNIT_M, grid=(1, 1), max_grid=(1, 1))
    refined = check_cover(f, UNIT_N, UNIT_M, grid=(1, 1), max_grid=(16, 8))
    assert coarse.outcome == "inconclusive"
    assert refined.outcome == "verified"
    assert refined.cells > coarse.cells


# ----------------------------------------------------------------------
# covering verification: randomized linear-map oracle
# ----------------------------------------------------------------------


def random_hset(rng, name):
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    frame = rot @ np.diag(rng.uniform(0.5, 2.0, size=2))
    return HSet(
        name, 1, rng.uniform(-1.0, 1.0, size=2), frame[:, 0], frame[:, 1]
    )


def covering_params(rng):
    """Linear-map parameters guaranteed to cover, with analytic clearances."""
    la = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 4.0)
    ta = rng.uniform(-1.0, 1.0) * (abs(la) - 1.05)
    lb = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.8)
    tb = rng.uniform(-1.0, 1.0) * (1.0 - abs(lb) - 0.05)
    margin = min(abs(ta - la), abs(ta + la)) - 1.0
    stable = 1.0 - (abs(tb) + abs(lb))
    return (la, lb, ta, tb), margin, stable


def non_covering_params(rng, kind):
    """Linear-map parameters whose image provably cannot cross the target."""
    if kind == 0:  # image never reaches either unstable edge (max |a'| < 1)
        la = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.45)
        ta = rng.uniform(-1.0, 1.0) * (0.95 - abs(la))
        lb, tb = 0.2, 0.0
    elif kind == 1:  # image displaced wholly past one unstable edge
        la = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 4.0)
        ta = rng.choice([-1.0, 1.0]) * (abs(la) + 1.05 + rng.uniform(0.0, 1.0))
        lb, tb = 0.2, 0.0
    else:  # image wholly above or below the target square
        la = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 4.0)
        ta = 0.0
        lb = rng.uniform(0.05, 0.4)
        tb = rng.choice([-1.0, 1.0]) * (1.05 + lb + rng.uniform(0.0, 1.0))
    return la, lb, ta, tb


def test_randomized_linear_covers_match_oracle():
    rng = np.random.default_rng(2026)
    for k in range(20):
        params, margin, stable = covering_params(rng)
        rep = check_cover(linear_local_map(*params), UNIT_N, UNIT_M,
                          grid=(4, 2), max_grid=(16, 8))
        assert rep.verified, f"case {k}: {rep}"
        assert rep.margin == pytest.approx(margin, abs=1e-9)
        assert rep.stable_clearance == pytest.approx(stable, abs=1e-9)


def test_randomized_linear_non_covers_never_verify():
    rng = np.random.default_rng(1719)
    for k in range(20):
        params = non_covering_params(rng, k % 3)
        rep = check_cover(linear_local_map(*params), UNIT_N, UNIT_M,
                          grid=(4, 2), max_grid=(16, 8))
        assert rep.outcome == "falsified", f"case {k}: {rep}"
        assert not rep.verified
        assert rep.margin <= 0.0


def test_cover_through_section_adapter_with_random_frames():
    # same engine fed by an adapter that converts through section
    # coordinates with a random target frame; the bounding-box wrap
    # shrinks under refinement, so comfortable margins still certify
    rng = np.random.default_rng(33)
    for k in range(5):
        target = random_hset(rng, f"M{k}")
        f = through_section_adapter(UNIT_N, target, 3.0, 0.25, 0.1, -0.05)
        rep = check_cover(f, UNIT_N, target, grid=(8, 2), max_grid=(64, 16))
        assert rep.verified, f"case {k}: {rep}"
        # wrapping only ever shrinks reported clearances
        assert rep.margin <= min(abs(0.1 - 3.0), abs(0.1 + 3.0)) - 1.0 + 1e-12
        assert rep.stable_clearance <= 1.0 - (0.05 + 0.25) + 1e-12


# ----------------------------------------------------------------------
# pointwise screen (degraded mode)
# ----------------------------------------------------------------------


def test_pointwise_screen_never_claims_verified():
    def f(ab):
        return [(3.0 * a, b / 3.0) for a, b in ab]

    rep = check_cover_pointwise(f, UNIT_N, UNIT_M, samples=500)
    assert rep.outcome == "inconclusive"
    assert rep.margin == 0.0
    assert rep.errors == {}


def test_pointwise_screen_counts_map_errors():
    # samples where the map raises are skipped, but counted by type
    def f(ab):
        return [DomainError("outside the map's domain") if a > 0.9
                else (3.0 * a, b / 3.0) for a, b in ab]

    rep = check_cover_pointwise(f, UNIT_N, UNIT_M, samples=500)
    assert rep.outcome == "inconclusive"
    n = rep.errors["DomainError"]
    assert n >= 22  # the whole a = +1 exit edge, plus sampled cells
    assert f"DomainError: {n}" in rep.message


def test_pointwise_screen_falsifies_contraction():
    def f(ab):
        return [(0.3 * a, 0.2 * b) for a, b in ab]

    rep = check_cover_pointwise(f, UNIT_N, UNIT_M, samples=500)
    assert rep.outcome == "falsified"
    assert rep.margin < 0.0


def test_pointwise_screen_same_side_exits_report_finite_clearance():
    # every image lies beyond a' = 1, so no sample lands in |a'| <= 1 and
    # both exit edges leave on the same side
    v = load_bundled("v_chain")
    rep = check_cover_pointwise(lambda ab: [(a + 5.0, b) for a, b in ab],
                                v["V3"], v["V4"], samples=100)
    assert rep.outcome == "falsified"
    assert "do not separate" in rep.message
    assert rep.stable_clearance == 0.0


def test_pointwise_screen_report_stops_at_the_first_violation():
    # the map sees every sample in one call; of the inner samples, every
    # third fails and the tenth lands in a bar, so the report counts the
    # samples and the errors before it, as a sample-by-sample loop stops
    calls = []

    def f(ab):
        calls.append(len(ab))
        return [DomainError("outside the map's domain") if i % 3 == 1
                else (0.0, 2.0) if i == 9 else (3.0 * a, b / 3.0)
                for i, (a, b) in enumerate(ab)]

    rep = check_cover_pointwise(f, UNIT_N, UNIT_M, samples=500)
    assert calls == [500]  # 456 inner samples and two exit edges of 22
    assert rep.outcome == "falsified"
    assert rep.margin == -1.0
    assert rep.errors == {"DomainError": 3}  # samples 1, 4 and 7
    assert rep.cells == 7  # samples 0, 2, 3, 5, 6 and 8, then the tenth
    a, b = np.random.default_rng(0).uniform(-1.0, 1.0, size=(456, 2))[9]
    assert f"a={a:.3f} b={b:.3f}" in rep.message


# ----------------------------------------------------------------------
# cone conditions
# ----------------------------------------------------------------------


def test_cone_condition_diagonal_hyperbolic():
    dp = IArray.from_point(np.array([[3.0, 0.0], [0.0, 1.0 / 3.0]]))
    assert cone_condition(dp, 1.0)
    assert cone_condition(dp, 8.0)
    assert not cone_condition(dp, 10.0)


def test_cone_condition_rotation_fails():
    th = np.pi / 4
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    dp = IArray.from_point(rot)
    assert not cone_condition(dp, 1.0)


# ----------------------------------------------------------------------
# file exchange and bundled data
# ----------------------------------------------------------------------


def test_hset_file_roundtrip_is_exact(tmp_path):
    sets = [
        HSet("A", 1, (-1.12327231155833984, 0.0), (1e-8, 4e-7), (-1e-8, 4e-7)),
        HSet("B", -1, (1.093337837571255552, -0.02510094170679043584),
             (-1e-8, 2.1e-8), (1e-7, 2.1e-7)),
    ]
    path = os.path.join(tmp_path, "sets.hset")
    write_hset_file(path, sets)
    back = read_hset_file(path)
    assert list(back) == ["A", "B"]
    for h in sets:
        b = back[h.name]
        assert b.sign == h.sign
        assert np.array_equal(b.center, h.center)
        assert np.array_equal(b.u, h.u)
        assert np.array_equal(b.s, h.s)


def test_read_hset_missing_file_raises(tmp_path):
    with pytest.raises(StructureError):
        read_hset_file(os.path.join(tmp_path, "nope.hset"))


def test_read_hset_bad_section_side_raises(tmp_path):
    path = os.path.join(tmp_path, "bad.hset")
    with open(path, "w") as fh:
        fh.write("[X]\nsection = up\ncenter = 0 0\nu = 1 0\ns = 0 1\n")
    with pytest.raises(StructureError):
        read_hset_file(path)


def test_bundled_chains_load_and_are_well_formed():
    g = load_bundled("g_chain")
    v = load_bundled("v_chain")
    assert list(g) == ["G0", "G1", "G2", "G3", "G4"]
    assert list(v) == ["V0", "V1", "V2", "V3", "V4"]
    # alternating section sides along each chain, starting on the +side
    for chain in (g, v):
        for i, h in enumerate(chain.values()):
            assert h.sign == (1 if i % 2 == 0 else -1)
            det = h.u[0] * h.s[1] - h.u[1] * h.s[0]
            assert det != 0.0
    # the chain seeds sit on the symmetry line; later sets do not
    assert is_r_symmetric(g["G0"])
    assert is_r_symmetric(v["V0"])
    assert not is_r_symmetric(g["G3"])
    assert not is_r_symmetric(v["V4"])
    assert g["G3"].center[0] == 1.08194053721089792
    assert v["V4"].center[0] == 0.9208022956271231241
