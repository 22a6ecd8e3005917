"""Tests for the four-symbol transition table and its covering adapters.

The transition registry is pure table logic (checked exhaustively); the
adapter tests fly a few real cells through one elementary map and pin the
interval enclosures against point-mode images.
"""

import itertools

import mpmath as mp
import numpy as np
import pytest

from pcr3bp import integrator, orbits, poincare, symbolic
from pcr3bp.dynamics import Params
from pcr3bp.errors import RegistryError
from pcr3bp.hset import check_cover, check_cover_pointwise, cone_condition, r_image
from pcr3bp.intervals import IArray, Interval
from pcr3bp.poincare import (
    FULL_MINUS,
    FULL_PLUS,
    HALF_MINUS,
    HALF_PLUS,
    SectionPoint,
    apply_chain,
    apply_parallelogram_rigorous,
    chain_derivative,
)
from pcr3bp.symbolic import (
    SYMBOL_SIDES,
    SYMBOLS,
    TRANSITIONS,
    Link,
    is_admissible,
    local_derivative,
    mirror_recipe,
    mirror_tag,
    resolve_links,
    section_map,
    section_point_map,
    standard_sets,
    transition,
    transition_recipe,
    word_links,
    word_recipe,
)

ALLOWED_PAIRS = {
    ("L1", "L1"), ("L2", "L2"),
    ("L1", "L2"), ("L2", "L1"),
    ("E", "L2"), ("L2", "E"),
    ("I", "L1"), ("L1", "I"),
}


# ----------------------------------------------------------------------
# transition table structure
# ----------------------------------------------------------------------


def test_registered_pairs_are_exactly_the_eight():
    assert set(TRANSITIONS) == ALLOWED_PAIRS


def test_recipes_type_check_side_by_side():
    # domain/image section sides must chain through every recipe
    for (alpha, beta), tr in TRANSITIONS.items():
        side = SYMBOL_SIDES[alpha]
        for tag in tr.tags:
            assert tag.domain_sign == side
            side = tag.image_sign
        assert side == SYMBOL_SIDES[beta]


def test_recipe_operator_counts():
    assert transition_recipe("L1", "L1") == [FULL_PLUS]
    assert transition_recipe("L2", "L2") == [FULL_MINUS]
    # neck-to-neck: two full maps bracketing nine half maps
    tags = transition_recipe("L1", "L2")
    assert len(tags) == 11
    assert tags[0] == FULL_PLUS and tags[-1] == FULL_MINUS
    assert all(t in (HALF_PLUS, HALF_MINUS) for t in tags[1:-1])
    # excursions: four half maps and two closing maps, one link each
    for alpha, beta in [("E", "L2"), ("I", "L1")]:
        tr = transition(alpha, beta)
        assert len(tr.tags) == 6
        assert [len(link.tags) for link in tr.links] == [1] * 6
    # the neck-to-neck passage is one relation of eleven maps
    assert [len(link.tags) for link in transition("L1", "L2").links] == [11]


def test_half_maps_alternate_along_each_recipe():
    for tr in TRANSITIONS.values():
        halves = [t for t in tr.tags if t in (HALF_PLUS, HALF_MINUS)]
        for prev, nxt in zip(halves, halves[1:]):
            assert nxt == mirror_tag(prev)


def test_mirror_recipe_matches_registered_reversals():
    for alpha, beta in [("E", "L2"), ("I", "L1"), ("L1", "L2")]:
        fwd = transition_recipe(alpha, beta)
        assert transition_recipe(beta, alpha) == mirror_recipe(fwd)


def test_mirror_recipe_is_an_involution():
    for tr in TRANSITIONS.values():
        tags = list(tr.tags)
        assert mirror_recipe(mirror_recipe(tags)) == tags


def test_mirrored_transition_visits_r_images_backwards():
    fwd = transition("E", "L2")
    rev = transition("L2", "E")
    # (L2, E) retraces G4, G3, G2, G1 as R-images and ends on G0 itself
    assert [link.target for link in rev.links] == \
        ["H2b", "G4", "G3", "G2", "G1", "G0"]
    assert all(link.mirrored for link in rev.links)
    assert [link.target for link in fwd.links] == \
        ["G1", "G2", "G3", "G4", "H2b", "H2"]
    assert not any(link.mirrored for link in fwd.links)
    # each reversed link flies the mirrored maps of its forward twin
    assert [link.tags for link in rev.links] == \
        [tuple(mirror_recipe(link.tags)) for link in reversed(fwd.links)]


def test_transition_unknown_symbol_raises():
    with pytest.raises(RegistryError):
        transition("Q", "L1")
    with pytest.raises(RegistryError):
        transition("L1", "q")


def test_transition_missing_pair_raises():
    with pytest.raises(RegistryError):
        transition("E", "L1")
    with pytest.raises(RegistryError):
        transition("E", "I")


def test_registry_refuses_recipes_off_their_sides():
    # the shipped table passes; a recipe that does not compose, starts on
    # the wrong side or lands on the wrong side is refused
    symbolic._validate_table(TRANSITIONS)
    for key, tags, message in (
        (("L1", "L1"), (FULL_PLUS, FULL_MINUS), "do not compose"),
        (("L2", "L2"), (FULL_PLUS,), "is not the domain"),
        (("I", "L2"), (FULL_PLUS,), "lands on side 1"),
    ):
        table = {key: symbolic.Transition(*key, (Link(tags, "H1"),))}
        with pytest.raises(RegistryError, match=message):
            symbolic._validate_table(table)


# ----------------------------------------------------------------------
# words
# ----------------------------------------------------------------------


def test_is_admissible_accepts_registered_words():
    assert is_admissible(("L1", "L1"))
    assert is_admissible(("E", "L2", "L2", "E"))
    assert is_admissible(("L2", "L1", "L1", "I"))
    assert is_admissible(("L1", "I"))


def test_is_admissible_cyclic_needs_the_closing_pair():
    assert is_admissible(("L1",), cyclic=True)
    assert is_admissible(("I", "L1"), cyclic=True)  # (L1, I) registered
    assert is_admissible(("E", "L2", "L1", "I"))
    assert not is_admissible(("E", "L2", "L1", "I"), cyclic=True)  # no (I, E)
    assert not is_admissible(("I", "L1", "L2"), cyclic=True)  # no (L2, I)


def test_is_admissible_rejects_junk():
    assert not is_admissible(())
    assert not is_admissible(("L1",))  # one symbol needs the cyclic closing
    assert not is_admissible(("Q",), cyclic=True)
    assert not is_admissible(("E", "L1"))
    assert not is_admissible(("L1", "L2", "I"))  # no (L2, I)


def test_word_links_concatenate_the_transitions_after_the_start_set():
    links = word_links(("L2", "L1", "L1", "I"))
    assert links[0] == Link((), "H2")
    assert [len(link.tags) for link in links[1:]] == [11] + [1] * 7
    # transition boundaries land on the symbols' own sets
    assert (links[1].target, links[1].mirrored) == ("H1", True)
    assert (links[2].target, links[2].mirrored) == ("H1", False)
    assert links[-1].target == "V0" and links[-1].mirrored


def test_word_recipe_for_the_seed_word():
    # (L1, I): mirror of (I, L1) = [Ph+ Ph- Ph+ Ph- P+ P+]
    assert word_recipe(("L1", "I")) == [
        FULL_PLUS, FULL_PLUS, HALF_PLUS, HALF_MINUS, HALF_PLUS, HALF_MINUS,
    ]


def test_word_links_reject_short_and_inadmissible_words():
    with pytest.raises(RegistryError):
        word_links(("L1",))
    with pytest.raises(RegistryError):
        word_links(("E", "L1"))
    assert word_links(("L1",), cyclic=True) == [Link((), "H1"), Link((FULL_PLUS,), "H1")]


def test_admissible_words_are_the_words_with_links():
    # a word is admissible exactly when it has links, on every word of up
    # to four symbols, open or cyclic: no other error escapes either one
    for n in (0, 1, 2, 3, 4):
        for word in itertools.product(SYMBOLS, repeat=n):
            for cyclic in (False, True):
                try:
                    word_links(word, cyclic)
                    linked = True
                except RegistryError:
                    linked = False
                assert is_admissible(word, cyclic) is linked, (word, cyclic)


# ----------------------------------------------------------------------
# h-set repository
# ----------------------------------------------------------------------


def test_standard_sets_bundled_chains_only():
    # the constructed sets are not shipped: a search whose word needs one
    # is refused with the name of the missing set
    sets = standard_sets()
    assert set(sets) == {f"G{i}" for i in range(5)} | \
        {f"V{i}" for i in range(5)}
    with pytest.raises(RegistryError, match="'H2' not loaded"):
        orbits.find_symmetric_periodic(Params(), ("E", "L2"))


def test_resolve_links_applies_mirror_flag():
    sets = standard_sets()
    plain, mirrored = resolve_links(
        [Link((HALF_PLUS,), "G1"), Link((HALF_PLUS,), "G1", mirrored=True)], sets)
    assert plain is sets["G1"]
    assert mirrored.center[1] == -plain.center[1]
    assert np.array_equal(r_image(mirrored).center, plain.center)


def test_resolve_links_names_every_missing_set():
    sets = standard_sets()
    with pytest.raises(RegistryError, match=r"h-sets 'H2b', 'H2' not loaded"):
        resolve_links(word_links(("E", "L2", "E")), sets)
    with pytest.raises(RegistryError, match=r"h-sets 'H1' not loaded"):
        resolve_links(word_links(("L1",), cyclic=True), sets)


@pytest.fixture
def flights(monkeypatch):
    """The names of the flights and covers called, each of which raises."""
    called = []

    def refuse(name):
        def fn(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} called")
        return fn

    # every point-mode flight runs the one crossing loop
    monkeypatch.setattr(poincare, "_fly_to_crossings", refuse("_fly_to_crossings"))
    monkeypatch.setattr(orbits, "check_cover", refuse("check_cover"))
    return called


@pytest.mark.parametrize("call, missing", [
    (lambda: orbits.find_symmetric_periodic(Params(), ("E", "L2", "E")),
     "'H2b', 'H2'"),
    (lambda: orbits.find_symmetric_periodic(Params(), ("L1",)), "'H1'"),
    (lambda: orbits.find_symmetric_homoclinic(Params(), ("E", "L2")),
     "'H2b', 'H2'"),
    (lambda: orbits.verify_backward_coding(
        Params(), SectionPoint(*map(float, standard_sets()["G0"].center), 1),
        ("E", "L2")), "'H2b', 'H2'"),
    (lambda: orbits.rigorous_chain_verdict(Params(), ("E", "L2")), "'H2b', 'H2'"),
], ids=["periodic", "periodic_start", "homoclinic", "backward_coding",
        "chain_verdict"])
def test_a_word_without_its_sets_is_refused_before_any_flight(flights, call,
                                                              missing):
    # one error names every missing set, the start set included
    with pytest.raises(RegistryError, match=f"h-sets {missing} not loaded"):
        call()
    assert flights == []


# ----------------------------------------------------------------------
# covering adapters on one real stage
# ----------------------------------------------------------------------


def test_section_map_encloses_point_images():
    # one parallelogram cell of G3 through the descending half map; the
    # interval enclosure must contain the point images of the cell's
    # corners and midpoint
    params = Params()
    sets = standard_sets()
    src, dst = sets["G3"], sets["G4"]
    mf = section_map(params, [HALF_MINUS], src, dst)
    pm = section_point_map(params, [HALF_MINUS], src, dst)
    a, b = Interval(-0.25, 0.0), Interval(0.5, 1.0)
    a_img, b_img = mf(a, b)
    corners = [(-0.25, 0.5), (-0.25, 1.0), (0.0, 0.5), (0.0, 1.0), (-0.125, 0.75)]
    for ap, bp in pm(np.array(corners)):
        assert a_img.lo <= ap <= a_img.hi
        assert b_img.lo <= bp <= b_img.hi
    # and the enclosure is tight enough to be useful: a plain set flight
    # loses the x-vx correlation here and returns a' spans in the hundreds
    assert a_img.width < 5.0
    assert b_img.width < 0.1


@pytest.mark.parametrize("src,dst,a,b", [
    ("V3", "V4", Interval(-1.0, 1.0), Interval(-1.0, 1.0)),  # the 1x1 cell
    ("G3", "G4", Interval(0.5, 1.0), Interval(0.5, 1.0)),  # off the centre
])
def test_cell_faces_enclose_the_point_images_of_the_face(src, dst, a, b):
    # the face a = a.lo or a.hi of a flown cell, by the cell's mean-value
    # form: it must hold the point images of samples along that face, and
    # be narrower in a' than the cell, or it could decide no exit edge
    params = Params()
    sets = standard_sets()
    img = section_map(params, [HALF_MINUS], sets[src], sets[dst])(a, b)
    pm = section_point_map(params, [HALF_MINUS], sets[src], sets[dst])
    b_samples = np.linspace(b.lo, b.hi, 33)
    for a_edge in (a.lo, a.hi):
        a_face, b_face = img.face(a_edge)
        assert a_face.is_subset(img.a) and b_face.is_subset(img.b)
        assert a_face.width < 0.5 * img.a.width
        for ap, bp in pm(np.column_stack([np.full(33, a_edge), b_samples])):
            assert a_face.contains(ap) and b_face.contains(bp)


# The reports of the 200-sample screens the benchmark runs, as the serial
# loop gave them, one flight per sample: (stable clearance, samples).
SCREEN_REPORTS = {
    ("V3", "V4", 7): ("0.9712445593475586", 200),
    ("G2", "G3", 7): ("0.969952357106666", 200),
    ("V3", "V4", 3): ("0.9721414864671456", 200),
    ("G2", "G3", 3): ("0.9758397628833928", 200),
}


@pytest.mark.parametrize("src,dst,seed", list(SCREEN_REPORTS))
def test_pointwise_screen_reports_are_pinned(src, dst, seed):
    # the screens fly all their samples as lanes of one flight; every
    # figure of the report is the one the sample-by-sample loop gave
    sets = standard_sets()
    tag = HALF_MINUS if sets[src].sign < 0 else HALF_PLUS  # from the set's side
    pm = section_point_map(Params(), [tag], sets[src], sets[dst])
    rep = check_cover_pointwise(pm, sets[src], sets[dst], samples=200, seed=seed)
    stable, count = SCREEN_REPORTS[src, dst, seed]
    assert (rep.outcome, rep.margin, repr(rep.stable_clearance)) == (
        "inconclusive", 0.0, stable)
    assert (rep.cells, rep.grid, rep.errors) == (count, (0, 0), {})
    assert rep.message == (
        f"{src} covering {dst}: all {count} samples satisfy the covering "
        "inequalities (pointwise screen certifies nothing)")


def test_local_derivative_contains_point_derivative_and_cones():
    # the V3 cell a, b in [-1/64, 1/64] under Ph- into V4: the interval
    # derivative encloses the point derivative at the cell centre, and it
    # is tight enough for the cone condition of the link
    params = Params()
    sets = standard_sets()
    src, dst = sets["V3"], sets["V4"]
    cell = Interval(-1.0 / 64.0, 1.0 / 64.0)
    dp = local_derivative(params, [HALF_MINUS], src, dst, cell, cell)
    centre = SectionPoint(float(src.center[0]), float(src.center[1]), src.sign)
    dp_pt, _, _ = chain_derivative(params, [HALF_MINUS], centre)
    point = np.linalg.solve(dst.frame, dp_pt @ src.frame)
    assert np.all(dp.lo <= point) and np.all(point <= dp.hi)
    assert cone_condition(dp)


def test_the_section_projection_meets_the_thin_factor_first():
    # a finest cell of R(V2) => R(V1) at the default grids lands inside the
    # stable strip, |b'| < 1, only when the section projection multiplies
    # the thin factor of the flow derivative before its accumulated box:
    # the 4x4 product first left b' 2.4 wide and dL'/db 14 wide there
    params = Params()
    sets = standard_sets()
    src, dst = r_image(sets["V2"]), r_image(sets["V1"])
    tag = mirror_tag(HALF_MINUS)
    a, b = Interval(-1.0 / 64.0, 0.0), Interval(-1.0, -0.75)
    _, b_img = section_map(params, [tag], src, dst)(a, b)
    assert -1.0 < b_img.lo and b_img.hi < 1.0
    dp = local_derivative(params, [tag], src, dst, a, b)
    assert dp[1, 1].width < 5.0
    xv = src.center + a.mid * src.u + b.mid * src.s
    dp_pt, _, _ = chain_derivative(params, [tag], SectionPoint(*map(float, xv), src.sign))
    point = np.linalg.solve(dst.frame, dp_pt @ src.frame)
    assert np.all(dp.lo <= point) and np.all(point <= dp.hi)


def test_step_bound_leaves_a_cover_undecided(monkeypatch):
    # every flight of V3 => V4 needs more than three step attempts; with the
    # bound patched that low, each map call raises IntegrationError and the
    # check reports its cells undecided instead of stalling
    monkeypatch.setattr(integrator, "MAX_STEPS", 3)
    params = Params()
    sets = standard_sets()
    src, dst = sets["V3"], sets["V4"]
    rep = check_cover(section_map(params, [HALF_MINUS], src, dst), src, dst,
                      grid=(1, 1), max_grid=(1, 1))
    assert rep.outcome == "inconclusive"
    assert set(rep.errors) == {"IntegrationError"}
    assert "IntegrationError" in rep.message


def test_cover_flies_each_cell_once_with_its_center_inside(monkeypatch):
    # V3 => V4 at 1x1: one cell, flown once; its two exit edges are the
    # cell's faces, decided from the cell's mean-value form with no flight
    # of their own.  At every committed step the center box lies in the
    # hull of the cell set, which is what lets the cell's a-priori box,
    # remainder and transition matrix enclose the center's trajectory too
    flights = []
    original_flight = symbolic.apply_parallelogram_rigorous

    def counted(*args, **kwargs):
        flights.append(kwargs)
        return original_flight(*args, **kwargs)

    checked = []
    original_commit = integrator.LohnerFlow.commit

    def commit(flow, rec):
        after = rec.set_after
        if after.rc is not None:
            center = IArray.from_point(after.bc) @ after.rc + after.c
            assert center.is_subset(after.hull())
            checked.append(rec)
        original_commit(flow, rec)

    monkeypatch.setattr(symbolic, "apply_parallelogram_rigorous", counted)
    monkeypatch.setattr(integrator.LohnerFlow, "commit", commit)
    params = Params()
    sets = standard_sets()
    src, dst = sets["V3"], sets["V4"]
    rep = check_cover(section_map(params, [HALF_MINUS], src, dst), src, dst,
                      grid=(1, 1), max_grid=(4, 1))
    assert rep.outcome == "verified"
    assert (rep.cells, rep.edge_faces) == (1, 2)
    assert len(flights) == 1
    assert all(kw["want_center"] and kw["want_derivative"] for kw in flights)
    assert len(checked) > 10


def test_boundary_cell_faces_decide_the_exit_edges_of_v3_v4():
    # check_cover decides exit edges from the faces of the cells that hold
    # them and flies no edge of its own while they decide: at the default
    # 32x2 grid the four boundary cells' faces decide both exit edges, on
    # opposite sides, and at 1x1 the one cell's faces do, to the same bits
    params = Params()
    sets = standard_sets()
    src, dst = sets["V3"], sets["V4"]
    map_fn = section_map(params, [HALF_MINUS], src, dst)
    a_pieces = Interval(-1.0, 1.0).split(32)
    sides = {}
    for a_edge, a in ((-1.0, a_pieces[0]), (1.0, a_pieces[-1])):
        for b in Interval(-1.0, 1.0).split(2):
            a_face, _ = map_fn(a, b).face(a_edge)
            assert max(a_face.lo - 1.0, -1.0 - a_face.hi) > 0.0
            sides.setdefault(a_edge, set()).add(a_face.lo > 1.0)
    assert sides[-1.0] != sides[1.0] and all(len(s) == 1 for s in sides.values())
    rep = check_cover(map_fn, src, dst, grid=(1, 1), max_grid=(4, 1))
    assert (rep.outcome, rep.cells, rep.edge_faces) == ("verified", 1, 2)
    assert rep.margin.hex() == "0x1.eef8022c66c9ap+2"
    assert rep.stable_clearance.hex() == "0x1.cc02af1822dbdp-1"


def test_a_refined_relation_is_pinned_to_the_bit():
    # R(G4) => R(G3) at the grid (4, 1), refined up to (512, 16): its four
    # cells and their children take twelve evaluations, and the two end
    # cells decide the two exit edges from their faces.  The verdict, the
    # margin and the stable clearance are frozen here as exact floats
    sets = standard_sets()
    src, dst = r_image(sets["G4"]), r_image(sets["G3"])
    rep = check_cover(section_map(Params(), [HALF_PLUS], src, dst), src, dst,
                      grid=(4, 1), max_grid=(512, 16))
    assert (rep.outcome, rep.cells, rep.edge_faces) == ("verified", 12, 2)
    assert rep.margin.hex() == "0x1.4589708b1af23p+5"
    assert rep.stable_clearance.hex() == "0x1.a7219086346dcp-2"


def exact_crossing(params, pt, t_guess):
    """The section crossing (x, vx) of a point near ``t_guess``, at 30 digits.

    The energy lift of ``pt`` is flown by mpmath's ``odefun``, an
    unrelated Taylor integrator, and the crossing time polished by Newton
    steps on y.
    """
    mu, jacobi = mp.mpf(params.mu), mp.mpf(params.jacobi)

    def field(t, s):
        x, y, vx, vy = s
        r1 = mp.sqrt((x + mu) ** 2 + y**2)
        r2 = mp.sqrt((x - 1 + mu) ** 2 + y**2)
        ox = x - (1 - mu) * (x + mu) / r1**3 - mu * (x - 1 + mu) / r2**3
        oy = y - (1 - mu) * y / r1**3 - mu * y / r2**3
        return [vx, vy, 2 * vy + ox, -2 * vx + oy]

    x, vx = mp.mpf(pt.x), mp.mpf(pt.vx)
    omega = (x * x / 2 + (1 - mu) / abs(x + mu) + mu / abs(x - 1 + mu)
             + mu * (1 - mu) / 2)
    vy = pt.sign * mp.sqrt(2 * omega - vx * vx - jacobi)
    flight = mp.odefun(field, 0, [x, mp.mpf(0), vx, vy], tol=mp.mpf("1e-25"))
    t = mp.mpf(t_guess)
    for _ in range(5):
        s = flight(t)
        t -= s[1] / s[3]
    s = flight(t)
    return s[0], s[2]


def holds(iv, value):
    return mp.mpf(iv.lo) <= value <= mp.mpf(iv.hi)


def test_center_image_matches_a_zero_width_flight():
    # the center box of the whole V3 under Ph- and a separate flight of the
    # centre both enclose the exact crossing of the centre, and here the
    # center box is no wider than the separate flight
    params = Params()
    h = standard_sets()["V3"]
    whole, zero = Interval(-1.0, 1.0), Interval.point(0.0)
    img = apply_parallelogram_rigorous(
        params, [HALF_MINUS], h.center, h.u, h.s, whole, whole, h.sign,
        want_derivative=True, want_center=True)
    thin = apply_parallelogram_rigorous(
        params, [HALF_MINUS], h.center, h.u, h.s, zero, zero, h.sign)
    centre = SectionPoint(float(h.center[0]), float(h.center[1]), h.sign)
    pt, t = apply_chain(params, [HALF_MINUS], centre)
    with mp.workdps(30):
        x_exact, vx_exact = exact_crossing(params, centre, t)
    x, vx = img.center[0], img.center[2]
    assert x.contains(pt.x) and vx.contains(pt.vx)
    assert thin.x.contains(pt.x) and thin.vx.contains(pt.vx)
    assert holds(x, x_exact) and holds(vx, vx_exact)
    assert holds(thin.x, x_exact) and holds(thin.vx, vx_exact)
    assert x.width <= 1.01 * thin.x.width
    assert vx.width <= 1.01 * thin.vx.width
    # the cell image holds the center image
    assert x.is_subset(img.x) and vx.is_subset(img.vx)
