"""Tests for the six-symbol transition table and its covering adapters.

The transition registry is pure table logic (checked exhaustively); the
adapter tests fly a few real cells through one elementary map and pin the
interval enclosures against point-mode images.
"""

import numpy as np
import pytest

from pcr3bp.dynamics import Params
from pcr3bp.errors import RegistryError
from pcr3bp.hset import cone_condition, r_image
from pcr3bp.intervals import Interval
from pcr3bp.poincare import FULL_MINUS, FULL_PLUS, HALF_MINUS, HALF_PLUS
from pcr3bp.symbolic import (
    SYMBOL_SETS,
    SYMBOL_SIDES,
    SYMBOLS,
    TRANSITIONS,
    Stage,
    inverse_section_map,
    is_admissible,
    local_derivative,
    mirror_recipe,
    mirror_tag,
    point_local_derivative,
    resolve_stage_set,
    section_map,
    section_point_map,
    standard_sets,
    transition,
    transition_recipe,
    word_recipe,
    word_stages,
)

ALLOWED_PAIRS = {
    ("L1", "L1"), ("L2", "L2"),
    ("L1", "L2"), ("L2", "L1"),
    ("S", "L1"), ("L1", "S"),
    ("X", "L2"), ("L2", "X"),
    ("E", "L2"), ("L2", "E"),
    ("I", "L1"), ("L1", "I"),
}


# ----------------------------------------------------------------------
# transition table structure
# ----------------------------------------------------------------------


def test_registered_pairs_are_exactly_the_twelve():
    assert set(TRANSITIONS) == ALLOWED_PAIRS


def test_recipes_type_check_side_by_side():
    # domain/image section sides must chain through every recipe
    for (alpha, beta), tr in TRANSITIONS.items():
        side = SYMBOL_SIDES[alpha]
        for tag in tr.tags:
            assert tag.domain() == side
            side = tag.image()
        assert side == SYMBOL_SIDES[beta]


def test_recipe_operator_counts():
    assert transition_recipe("L1", "L1") == [FULL_PLUS]
    assert transition_recipe("L2", "L2") == [FULL_MINUS]
    # neck-to-neck: two full maps bracketing nine half maps
    tags = transition_recipe("L1", "L2")
    assert len(tags) == 11
    assert tags[0] == FULL_PLUS and tags[-1] == FULL_MINUS
    assert all(t in (HALF_PLUS, HALF_MINUS) for t in tags[1:-1])
    # excursions: five half maps and the closing full map(s)
    assert len(transition_recipe("S", "L1")) == 6
    assert len(transition_recipe("X", "L2")) == 7
    assert len(transition_recipe("E", "L2")) == 6
    assert len(transition_recipe("I", "L1")) == 6


def test_half_maps_alternate_along_each_recipe():
    for tr in TRANSITIONS.values():
        halves = [t for t in tr.tags if t in (HALF_PLUS, HALF_MINUS)]
        for prev, nxt in zip(halves, halves[1:]):
            assert nxt == mirror_tag(prev)


def test_mirror_recipe_matches_registered_reversals():
    for alpha, beta in [("E", "L2"), ("I", "L1"), ("S", "L1"),
                        ("X", "L2"), ("L1", "L2")]:
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
    assert [s.target for s in rev.stages] == \
        ["H2b", "G4", "G3", "G2", "G1", "G0"]
    assert all(s.mirrored for s in rev.stages)
    assert [s.target for s in fwd.stages] == \
        ["G1", "G2", "G3", "G4", "H2b", "H2"]
    assert not any(s.mirrored for s in fwd.stages)


def test_transition_unknown_symbol_raises():
    with pytest.raises(RegistryError):
        transition("Q", "L1")
    with pytest.raises(RegistryError):
        transition("L1", "q")


def test_transition_missing_pair_raises():
    with pytest.raises(RegistryError):
        transition("S", "L2")
    with pytest.raises(RegistryError):
        transition("E", "I")


# ----------------------------------------------------------------------
# words
# ----------------------------------------------------------------------


def test_is_admissible_accepts_registered_words():
    assert is_admissible(("L1", "L1"))
    assert is_admissible(("E", "L2", "L2", "X"))
    assert is_admissible(("S", "L1", "L1", "I"))
    assert is_admissible(("L1", "I"))


def test_is_admissible_cyclic_needs_the_closing_pair():
    assert is_admissible(("L1",), cyclic=True)
    assert is_admissible(("S", "L1"), cyclic=True)  # (L1, S) registered
    assert is_admissible(("E", "L2", "L2", "X"))
    assert not is_admissible(("E", "L2", "L2", "X"), cyclic=True)  # no (X, E)
    assert not is_admissible(("I", "L1", "L2"), cyclic=True)  # no (L2, I)


def test_is_admissible_rejects_junk():
    assert not is_admissible(())
    assert not is_admissible(("Q",), cyclic=True)
    assert not is_admissible(("S", "L2"))
    assert not is_admissible(("L1", "L2", "I"))  # no (L2, I)


def test_word_stages_concatenates_and_checks_composition():
    start, stages = word_stages(("S", "L1", "L1", "I"))
    assert start == "E0"
    assert len(stages) == 6 + 1 + 6
    # stage boundaries land on the symbols' own sets
    assert stages[5].target == "H1"
    assert stages[6].target == "H1"
    assert stages[-1].target == "V0" and stages[-1].mirrored


def test_word_recipe_for_the_seed_word():
    # (L1, I): mirror of (I, L1) = [Ph+ Ph- Ph+ Ph- P+ P+]
    assert word_recipe(("L1", "I")) == [
        FULL_PLUS, FULL_PLUS, HALF_PLUS, HALF_MINUS, HALF_PLUS, HALF_MINUS,
    ]


def test_word_stages_rejects_short_and_inadmissible_words():
    with pytest.raises(RegistryError):
        word_stages(("L1",))
    with pytest.raises(RegistryError):
        word_stages(("S", "L2"))
    start, stages = word_stages(("L1",), cyclic=True)
    assert start == "H1" and len(stages) == 1


# ----------------------------------------------------------------------
# h-set repository
# ----------------------------------------------------------------------


def test_standard_sets_bundled_chains_only():
    sets = standard_sets(include_constructed=False)
    assert set(sets) == {f"G{i}" for i in range(5)} | \
        {f"V{i}" for i in range(5)}


def test_resolve_stage_set_applies_mirror_flag():
    sets = standard_sets(include_constructed=False)
    plain = resolve_stage_set(Stage(HALF_PLUS, "G1"), sets)
    mirrored = resolve_stage_set(Stage(HALF_PLUS, "G1", mirrored=True), sets)
    assert np.array_equal(plain.center, sets["G1"].center)
    assert mirrored.center[1] == -plain.center[1]
    assert np.array_equal(r_image(mirrored).center, plain.center)


def test_resolve_stage_set_failures():
    sets = standard_sets(include_constructed=False)
    with pytest.raises(RegistryError):
        resolve_stage_set(Stage(HALF_PLUS, None), sets)
    with pytest.raises(RegistryError):
        resolve_stage_set(Stage(HALF_PLUS, "H2"), sets)


# ----------------------------------------------------------------------
# covering adapters on one real stage
# ----------------------------------------------------------------------


def test_section_map_encloses_point_images():
    # one parallelogram cell of G3 through the descending half map; the
    # interval enclosure must contain the point images of the cell's
    # corners and midpoint
    params = Params()
    sets = standard_sets(include_constructed=False)
    src, dst = sets["G3"], sets["G4"]
    mf = section_map(params, [HALF_MINUS], src, dst)
    pm = section_point_map(params, [HALF_MINUS], src, dst)
    a, b = Interval(-0.25, 0.0), Interval(0.5, 1.0)
    a_img, b_img = mf(a, b)
    for aa, bb in [(-0.25, 0.5), (-0.25, 1.0), (0.0, 0.5), (0.0, 1.0),
                   (-0.125, 0.75)]:
        ap, bp = pm(aa, bb)
        assert a_img.lo <= ap <= a_img.hi
        assert b_img.lo <= bp <= b_img.hi
    # and the enclosure is tight enough to be useful: a plain set flight
    # loses the x-vx correlation here and returns a' spans in the hundreds
    assert a_img.width < 5.0
    assert b_img.width < 0.1


def test_inverse_section_map_encloses_inverse_point_images():
    # backcover adapter: evaluates the inverse composite on
    # swap_uv(target)-local cells, returning swap_uv(source)-local images
    params = Params()
    sets = standard_sets(include_constructed=False)
    src, dst = sets["G3"], sets["G4"]
    imf = inverse_section_map(params, [HALF_MINUS], src, dst)
    a, b = Interval(0.1, 0.2), Interval(-0.3, -0.2)
    a_img, b_img = imf(a, b)
    pm = section_point_map(params, [HALF_MINUS], dst, src, inverse=True)
    for aa, bb in [(0.1, -0.3), (0.2, -0.2), (0.15, -0.25)]:
        # swap_uv(target)-local (a, b) is target-local (b, a)
        ap, bp = pm(bb, aa)
        # swap back: image (a', b') in swap_uv(source) is source (b', a')
        assert a_img.lo <= bp <= a_img.hi
        assert b_img.lo <= ap <= b_img.hi


def test_local_derivative_contains_point_derivative_and_cones():
    # the V3 cell a, b in [-1/64, 1/64] under Ph- into V4: the interval
    # derivative encloses the point derivative at the cell centre, and it
    # is tight enough for the cone condition of the link
    params = Params()
    sets = standard_sets(include_constructed=False)
    src, dst = sets["V3"], sets["V4"]
    cell = Interval(-1.0 / 64.0, 1.0 / 64.0)
    dp = local_derivative(params, [HALF_MINUS], src, dst, cell, cell)
    point, _ = point_local_derivative(params, [HALF_MINUS], src, dst, 0.0, 0.0)
    assert np.all(dp.lo <= point) and np.all(point <= dp.hi)
    assert cone_condition(dp)
