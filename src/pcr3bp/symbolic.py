"""Six-symbol transition structure on the section.

Trajectories in the Oterma energy regime are coded by six symbols, each
anchored to a reference h-set on the section:

======  =======  ==========  =============================================
symbol  h-set    side        behavior of one coded block
======  =======  ==========  =============================================
L1      H1       y' > 0      one full turn beside the smaller Lyapunov
                             orbit (inner neck)
L2      H2       y' < 0      one full turn beside the larger Lyapunov
                             orbit (outer neck)
S       E0       y' < 0      inner excursion around the Sun (3:2 type)
I       V0       y' > 0      interior resonant excursion (5:3 type)
E       G0       y' > 0      exterior resonant excursion (2:3 type)
X       F0       y' > 0      exterior excursion (1:2 type)
======  =======  ==========  =============================================

A word is admissible when every consecutive pair of symbols is one of the
twelve registered transitions.  Each transition carries a *recipe*: the
sequence of elementary section maps (in application order) whose
composition carries the source symbol's h-set to the target symbol's,
plus the names of the intermediate h-sets where the covering chain is
pinned down (``None`` where no set is registered).

Only seven transitions are stored explicitly.  The remaining five follow
from the reversal symmetry: with ``R(x, x') = (x, -x')`` on the section,

    P_half_minus o R = R o P_half_plus^{-1},

so conjugating a composite by R inverts it and swaps the two half-map
families while fixing the full-map families.  Consequently the recipe of
the reversed transition (beta, alpha) is the reversed, half-swapped
recipe of (alpha, beta), and its intermediate sets are the R-images of
the original ones in reverse order (see :func:`mirror_recipe`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .dynamics import Params
from .errors import PCR3BPError, RegistryError
from .hset import CellImage, HSet, MapEnclosure, load_bundled, r_image
from .intervals import IArray, Interval
from .poincare import (
    FULL_MINUS,
    FULL_PLUS,
    HALF_MINUS,
    HALF_PLUS,
    MapTag,
    SectionPoint,
    apply_chain,  # unused here; perfbench's tracer test patches this lookup
    apply_chain_lanes,
    apply_parallelogram_rigorous,
    cell_offsets,
)

__all__ = [
    "SYMBOLS",
    "SYMBOL_SETS",
    "SYMBOL_SIDES",
    "Stage",
    "Transition",
    "TRANSITIONS",
    "mirror_tag",
    "mirror_recipe",
    "transition",
    "transition_recipe",
    "is_admissible",
    "word_stages",
    "word_recipe",
    "standard_sets",
    "resolve_stage_set",
    "section_map",
    "section_point_map",
    "local_derivative",
]

Symbol = str

SYMBOLS: tuple[Symbol, ...] = ("L1", "L2", "S", "X", "I", "E")

#: reference h-set of each symbol
SYMBOL_SETS: dict[Symbol, str] = {
    "L1": "H1",
    "L2": "H2",
    "S": "E0",
    "X": "F0",
    "I": "V0",
    "E": "G0",
}

#: section side of each symbol's h-set
SYMBOL_SIDES: dict[Symbol, int] = {
    "L1": +1,
    "L2": -1,
    "S": -1,
    "X": +1,
    "I": +1,
    "E": +1,
}


@dataclass(frozen=True, slots=True)
class Stage:
    """One elementary map of a transition recipe.

    ``target`` names the registered h-set the image is pinned to after
    this map (``None`` where the chain has no registered set), and
    ``mirrored`` marks targets that are R-images of the stored set.
    """

    tag: MapTag
    target: str | None = None
    mirrored: bool = False


@dataclass(frozen=True, slots=True)
class Transition:
    """A registered symbol transition with its map recipe."""

    alpha: Symbol
    beta: Symbol
    stages: tuple[Stage, ...]

    @property
    def tags(self) -> tuple[MapTag, ...]:
        return tuple(s.tag for s in self.stages)

    def __repr__(self) -> str:
        word = " ".join(t.name for t in self.tags)
        return f"Transition({self.alpha}->{self.beta}: {word})"


_MIRROR = {
    "Ph+": HALF_MINUS,
    "Ph-": HALF_PLUS,
    "P+": FULL_PLUS,
    "P-": FULL_MINUS,
}


def mirror_tag(tag: MapTag) -> MapTag:
    """R-conjugate of an elementary map: half maps swap, full maps stay."""
    return _MIRROR[tag.name]


def mirror_recipe(tags: Sequence[MapTag]) -> list[MapTag]:
    """Recipe of the reversed transition.

    If ``tags`` (application order) realize the transition (alpha, beta),
    the returned list realizes (beta, alpha): the reversal conjugation
    inverts the composite and swaps the half-map families, which on
    application-ordered lists is a reversal with per-tag mirroring.
    """
    return [mirror_tag(t) for t in reversed(tags)]


def _mirror_transition(tr: Transition) -> Transition:
    # sets visited by (alpha, beta): N_0 = Q_alpha, N_1, ..., N_n = Q_beta;
    # the reversed transition visits their R-images backwards
    names = [(SYMBOL_SETS[tr.alpha], False)]
    names += [(s.target, s.mirrored) for s in tr.stages]
    n = len(tr.stages)
    stages = []
    for i in range(1, n + 1):
        name, flag = names[n - i]
        stages.append(
            Stage(
                tag=mirror_tag(tr.stages[n - i].tag),
                target=name,
                mirrored=(not flag) if name is not None else False,
            )
        )
    return Transition(tr.beta, tr.alpha, tuple(stages))


def _plain(tags: Iterable[MapTag], final: str) -> tuple[Stage, ...]:
    tags = list(tags)
    return tuple(
        [Stage(t) for t in tags[:-1]] + [Stage(tags[-1], final)]
    )


# The seven explicitly registered transitions.  Application order; the
# final stage of each recipe lands on the target symbol's h-set.
_BASE: tuple[Transition, ...] = (
    # one more turn beside the same Lyapunov orbit
    Transition("L1", "L1", (Stage(FULL_PLUS, "H1"),)),
    Transition("L2", "L2", (Stage(FULL_MINUS, "H2"),)),
    # neck-to-neck passage L1 -> L2 through the Jupiter region
    Transition(
        "L1",
        "L2",
        _plain(
            [FULL_PLUS, HALF_PLUS]
            + [HALF_MINUS, HALF_PLUS] * 4
            + [FULL_MINUS],
            "H2",
        ),
    ),
    # inner 3:2 excursion joining onto the L1 orbit
    Transition(
        "S",
        "L1",
        _plain(
            [HALF_MINUS, HALF_PLUS, HALF_MINUS, HALF_PLUS, HALF_MINUS,
             FULL_PLUS],
            "H1",
        ),
    ),
    # exterior 1:2 excursion joining onto the L2 orbit
    Transition(
        "X",
        "L2",
        _plain(
            [HALF_PLUS, HALF_MINUS, HALF_PLUS, HALF_MINUS, HALF_PLUS,
             FULL_MINUS, FULL_MINUS],
            "H2",
        ),
    ),
    # exterior 2:3 excursion: the fully registered covering chain
    # G0 => G1 => G2 => G3 => G4 => H2b => H2
    Transition(
        "E",
        "L2",
        (
            Stage(HALF_PLUS, "G1"),
            Stage(HALF_MINUS, "G2"),
            Stage(HALF_PLUS, "G3"),
            Stage(HALF_MINUS, "G4"),
            Stage(HALF_PLUS, "H2b"),
            Stage(FULL_MINUS, "H2"),
        ),
    ),
    # interior 5:3 excursion: the fully registered covering chain
    # V0 => V1 => V2 => V3 => V4 => H1b => H1
    Transition(
        "I",
        "L1",
        (
            Stage(HALF_PLUS, "V1"),
            Stage(HALF_MINUS, "V2"),
            Stage(HALF_PLUS, "V3"),
            Stage(HALF_MINUS, "V4"),
            Stage(FULL_PLUS, "H1b"),
            Stage(FULL_PLUS, "H1"),
        ),
    ),
)


def _build_transitions() -> dict[tuple[Symbol, Symbol], Transition]:
    table: dict[tuple[Symbol, Symbol], Transition] = {}
    for tr in _BASE:
        table[(tr.alpha, tr.beta)] = tr
    for tr in _BASE:
        key = (tr.beta, tr.alpha)
        if key not in table:
            table[key] = _mirror_transition(tr)
    return table


def _validate_table(table: Mapping[tuple[Symbol, Symbol], Transition]) -> None:
    for (alpha, beta), tr in table.items():
        side = SYMBOL_SIDES[alpha]
        for stage in tr.stages:
            if stage.tag.domain_sign != side:
                raise RegistryError(
                    f"transition {alpha}->{beta}: {stage.tag.name} applied "
                    f"on section side {side}"
                )
            side = stage.tag.image_sign
        if side != SYMBOL_SIDES[beta]:
            raise RegistryError(
                f"transition {alpha}->{beta}: recipe lands on side {side}, "
                f"but {SYMBOL_SETS[beta]} lives on side {SYMBOL_SIDES[beta]}"
            )


TRANSITIONS: dict[tuple[Symbol, Symbol], Transition] = _build_transitions()
_validate_table(TRANSITIONS)


def transition(alpha: Symbol, beta: Symbol) -> Transition:
    """The registered transition (alpha, beta), or RegistryError."""
    for s in (alpha, beta):
        if s not in SYMBOLS:
            raise RegistryError(f"unknown symbol {s!r}")
    try:
        return TRANSITIONS[(alpha, beta)]
    except KeyError:
        raise RegistryError(f"no transition {alpha}->{beta}") from None


def transition_recipe(alpha: Symbol, beta: Symbol) -> list[MapTag]:
    """Elementary maps (application order) realizing (alpha, beta)."""
    return list(transition(alpha, beta).tags)


def is_admissible(word: Sequence[Symbol], cyclic: bool = False) -> bool:
    """Whether every consecutive symbol pair is a registered transition.

    With ``cyclic`` the pair (last, first) is required as well, as for
    the coding of a periodic orbit.  Unknown symbols are inadmissible.
    """
    if len(word) == 0:
        return False
    if any(s not in SYMBOLS for s in word):
        return False
    pairs = list(zip(word, word[1:]))
    if cyclic:
        pairs.append((word[-1], word[0]))
    return all(p in TRANSITIONS for p in pairs)


def word_stages(word: Sequence[Symbol],
                cyclic: bool = False) -> tuple[str, list[Stage]]:
    """Concatenated stages of a word, with the starting h-set name.

    Raises RegistryError when the word is not admissible.  Consecutive
    recipes are checked to compose (the image side of each stage matches
    the domain side of the next).
    """
    if len(word) < 2 and not (cyclic and len(word) == 1):
        raise RegistryError("a word needs at least two symbols "
                            "(or one symbol cyclically)")
    pairs = list(zip(word, word[1:]))
    if cyclic:
        pairs.append((word[-1], word[0]))
    stages: list[Stage] = []
    for alpha, beta in pairs:
        tr = transition(alpha, beta)
        if stages and stages[-1].tag.image_sign != tr.tags[0].domain_sign:
            raise RegistryError(
                f"recipes of ...{alpha} and {alpha}->{beta} do not compose"
            )
        stages.extend(tr.stages)
    return SYMBOL_SETS[word[0]], stages


def word_recipe(word: Sequence[Symbol], cyclic: bool = False) -> list[MapTag]:
    """Elementary maps (application order) realizing a whole word."""
    return [s.tag for s in word_stages(word, cyclic)[1]]


# ----------------------------------------------------------------------
# h-set repository
# ----------------------------------------------------------------------


def standard_sets() -> dict[str, HSet]:
    """The shipped h-sets, keyed by name.

    These are the bundled exterior (G0-G4) and interior (V0-V4) chains.
    The fixed-point and excursion seed sets the transition table also
    names (H1, H1b, H2, H2b, E0, F0) are not shipped, so a stage pinned
    to one of them raises a :class:`~pcr3bp.errors.RegistryError` naming
    it, from :func:`resolve_stage_set`.
    """
    return {**load_bundled("g_chain"), **load_bundled("v_chain")}


def resolve_stage_set(stage: Stage, sets: Mapping[str, HSet]) -> HSet:
    """The concrete h-set a stage's image is pinned to."""
    if stage.target is None:
        raise RegistryError("stage has no registered target set")
    try:
        h = sets[stage.target]
    except KeyError:
        raise RegistryError(f"h-set {stage.target!r} not loaded") from None
    return r_image(h) if stage.mirrored else h


# ----------------------------------------------------------------------
# covering-engine adapters
# ----------------------------------------------------------------------


def section_map(params: Params, tags: Sequence[MapTag], source: HSet,
                target: HSet) -> MapEnclosure:
    """Rigorous covering-check map for a composite of elementary maps.

    The returned callable takes source-local (a, b) interval cells,
    flies the corresponding parallelogram through the composite, and
    returns target-local image enclosures, as :func:`~pcr3bp.hset.check_cover`
    expects.  It is evaluated in mean-value form, the sharp image of the
    cell center plus an interval derivative over the whole cell,

        g(a, b)  in  g(am, bm) + Dg(cell) (a - am, b - bm),

    with ``g`` the map written source-local to target-local and ``(am, bm)``
    the cell center as the flight lifted it; the offsets are the ones the
    flight reports, which hold the rounding of that center.  One flight of
    the cell gives all three: the set carries the cell center as its center
    box, and tracks the derivative.  The mean-value form keeps the image's
    coordinate correlations that a plain set flight loses to its final
    bounding box; the direct set enclosure comes from the same flight and
    is intersected in.

    The result is a :class:`~pcr3bp.hset.CellImage`: it unpacks as
    ``(a', b')``, and its ``face(a_edge)`` encloses the image of the face
    ``a = a_edge`` of the cell by the same mean-value form, with the
    offset along ``a`` narrowed to ``a_edge - am`` (plus the center's
    rounding, :func:`~pcr3bp.poincare.cell_offsets`), so that
    :func:`~pcr3bp.hset.check_cover` decides exit edges without flying
    them.
    """

    def map_fn(a: Interval, b: Interval) -> CellImage:
        cell = apply_parallelogram_rigorous(
            params, tags, source.center, source.u, source.s, a, b, source.sign,
            want_derivative=True, want_center=True,
        )
        base_a, base_b = target.local_coords_iv(cell.center[0], cell.center[2])
        lmat = target.frame_inverse @ (cell.dp @ IArray.from_point(source.frame))
        a_direct, b_direct = target.local_coords_iv(cell.x, cell.vx)
        db = cell.offsets[1]

        def mean_value(da: Interval) -> tuple[Interval, Interval]:
            a_mv = base_a + lmat[0, 0] * da + lmat[0, 1] * db
            b_mv = base_b + lmat[1, 0] * da + lmat[1, 1] * db
            return a_mv.intersection(a_direct), b_mv.intersection(b_direct)

        def face(a_edge: float) -> tuple[Interval, Interval]:
            da, _ = cell_offsets(source.center, source.u, source.s,
                                 Interval.point(a_edge), b, a.mid, b.mid)
            return mean_value(da)

        return CellImage(*mean_value(cell.offsets[0]), face)

    return map_fn


def section_point_map(params: Params, tags: Sequence[MapTag], source: HSet,
                      target: HSet) -> Callable:
    """Point-mode counterpart of :func:`section_map` (degraded screens).

    Returns the batch map of :func:`~pcr3bp.hset.check_cover_pointwise`:
    source-local points ``(a, b)``, the rows of an (n, 2) array, fly
    together as lanes (:func:`~pcr3bp.poincare.apply_chain_lanes`), and
    each entry of the result is the target-local image ``(a', b')`` of its
    row or the :class:`~pcr3bp.errors.PCR3BPError` the flight raised.
    """

    def point_map(points):
        ab = np.asarray(points, dtype=np.float64)
        xv = source.corner_point(ab[:, :1], ab[:, 1:])
        flown = apply_chain_lanes(params, tags, [
            SectionPoint(x, vx, source.sign) for x, vx in xv.tolist()])
        return [f if isinstance(f, PCR3BPError) else target.local_coords(f[0].x, f[0].vx)
                for f in flown]

    return point_map


def local_derivative(params: Params, tags: Sequence[MapTag], source: HSet,
                     target: HSet, a: Interval, b: Interval) -> IArray:
    """Interval derivative of a composite in h-set local coordinates.

    Returns ``[u_M s_M]^{-1} DP [u_N s_N]`` over the given source cell,
    the 2x2 matrix the cone conditions are stated in.
    """
    img = apply_parallelogram_rigorous(
        params, tags, source.center, source.u, source.s, a, b, source.sign,
        want_derivative=True,
    )
    dp_frame = img.dp @ IArray.from_point(source.frame)
    return target.frame_inverse @ dp_frame

