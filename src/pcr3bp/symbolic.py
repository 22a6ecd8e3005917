"""Four-symbol transition structure on the section.

Trajectories in the Oterma energy regime are coded by four symbols, each
anchored to a reference h-set on the section:

======  =======  ==========  =============================================
symbol  h-set    side        behavior of one coded block
======  =======  ==========  =============================================
L1      H1       y' > 0      one full turn beside the smaller Lyapunov
                             orbit (inner neck)
L2      H2       y' < 0      one full turn beside the larger Lyapunov
                             orbit (outer neck)
I       V0       y' > 0      interior resonant excursion (5:3 type)
E       G0       y' > 0      exterior resonant excursion (2:3 type)
======  =======  ==========  =============================================

A word is admissible when it has two symbols or more (one, read
cyclically) and every consecutive pair of symbols is one of the eight
registered transitions.  Each transition's recipe is its chain of
covering relations, its *links*: a :class:`Link` holds the elementary
section maps (in application order) that carry the previous h-set onto
the link's target set, named in the registry.  The last link of a
transition lands on the target symbol's h-set.

Only five transitions are stored explicitly.  The remaining three follow
from the reversal symmetry: with ``R(x, x') = (x, -x')`` on the section,

    P_half_minus o R = R o P_half_plus^{-1},

so conjugating a composite by R inverts it and swaps the two half-map
families while fixing the full-map families.  Consequently the recipe of
the reversed transition (beta, alpha) is the reversed, half-swapped
recipe of (alpha, beta), and its sets are the R-images of the original
ones in reverse order (see :func:`mirror_recipe`).

A word's sets are looked up in one place, :func:`resolve_links`, before
anything flies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dynamics import Params
from .errors import DomainError, PCR3BPError, RegistryError
from .hset import CellImage, HSet, MapEnclosure, load_bundled, r_image
from .intervals import IArray, Interval
from .poincare import (
    FULL_MINUS,
    FULL_PLUS,
    HALF_MINUS,
    HALF_PLUS,
    MapTag,
    SectionPoint,
    _chain_to_signs,
    apply_chain,  # unused here; perfbench's tracer test patches this lookup
    apply_chain_lanes,
    apply_parallelogram_rigorous,
    cell_offsets,
)

__all__ = [
    "SYMBOLS",
    "SYMBOL_SETS",
    "SYMBOL_SIDES",
    "Link",
    "Transition",
    "TRANSITIONS",
    "mirror_tag",
    "mirror_recipe",
    "transition",
    "transition_recipe",
    "is_admissible",
    "word_links",
    "word_recipe",
    "standard_sets",
    "resolve_links",
    "section_map",
    "section_point_map",
    "local_derivative",
]

Symbol = str

SYMBOLS: tuple[Symbol, ...] = ("L1", "L2", "I", "E")

#: reference h-set of each symbol
SYMBOL_SETS: dict[Symbol, str] = {
    "L1": "H1",
    "L2": "H2",
    "I": "V0",
    "E": "G0",
}

#: section side of each symbol's h-set
SYMBOL_SIDES: dict[Symbol, int] = {
    "L1": +1,
    "L2": -1,
    "I": +1,
    "E": +1,
}


@dataclass(frozen=True, slots=True)
class Link:
    """One covering relation of a recipe.

    ``tags`` (application order) carry the previous h-set onto the
    registered h-set named ``target``, or onto its R-image where
    ``mirrored``.  A link without maps starts a word's chain on its
    first set (:func:`word_links`).
    """

    tags: tuple[MapTag, ...]
    target: str
    mirrored: bool = False


@dataclass(frozen=True, slots=True)
class Transition:
    """A registered symbol transition with its covering relations."""

    alpha: Symbol
    beta: Symbol
    links: tuple[Link, ...]

    @property
    def tags(self) -> tuple[MapTag, ...]:
        return tuple(t for link in self.links for t in link.tags)

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
    # the reversed transition visits their R-images backwards, the link
    # onto R(N_{i-1}) mirroring the maps of the link onto N_i
    sources = [Link((), SYMBOL_SETS[tr.alpha]), *tr.links[:-1]]
    links = tuple(
        Link(tuple(mirror_recipe(link.tags)), source.target, not source.mirrored)
        for link, source in zip(reversed(tr.links), reversed(sources))
    )
    return Transition(tr.beta, tr.alpha, links)


# The five explicitly registered transitions.  Application order; the
# final link of each recipe lands on the target symbol's h-set.
_BASE: tuple[Transition, ...] = (
    # one more turn beside the same Lyapunov orbit
    Transition("L1", "L1", (Link((FULL_PLUS,), "H1"),)),
    Transition("L2", "L2", (Link((FULL_MINUS,), "H2"),)),
    # neck-to-neck passage L1 -> L2 through the Jupiter region, one
    # relation with no registered set on the way
    Transition("L1", "L2", (
        Link((FULL_PLUS, HALF_PLUS, *(HALF_MINUS, HALF_PLUS) * 4, FULL_MINUS),
             "H2"),
    )),
    # exterior 2:3 excursion: the covering chain
    # G0 => G1 => G2 => G3 => G4 => H2b => H2
    Transition("E", "L2", (
        Link((HALF_PLUS,), "G1"),
        Link((HALF_MINUS,), "G2"),
        Link((HALF_PLUS,), "G3"),
        Link((HALF_MINUS,), "G4"),
        Link((HALF_PLUS,), "H2b"),
        Link((FULL_MINUS,), "H2"),
    )),
    # interior 5:3 excursion: the covering chain
    # V0 => V1 => V2 => V3 => V4 => H1b => H1
    Transition("I", "L1", (
        Link((HALF_PLUS,), "V1"),
        Link((HALF_MINUS,), "V2"),
        Link((HALF_PLUS,), "V3"),
        Link((HALF_MINUS,), "V4"),
        Link((FULL_PLUS,), "H1b"),
        Link((FULL_PLUS,), "H1"),
    )),
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
        try:
            _chain_to_signs(tr.tags, SYMBOL_SIDES[alpha])
        except DomainError as exc:
            raise RegistryError(f"transition {alpha}->{beta}: {exc}") from exc
        side = tr.tags[-1].image_sign
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
    """Whether the word has links: :func:`word_links` does not refuse it.

    Every consecutive symbol pair must be a registered transition, with
    ``cyclic`` the pair (last, first) as well, as for the coding of a
    periodic orbit.  An open word needs two symbols or more, a cyclic
    word one or more.  Unknown symbols are inadmissible.
    """
    try:
        word_links(word, cyclic)
    except RegistryError:
        return False
    return True


def word_links(word: Sequence[Symbol], cyclic: bool = False) -> list[Link]:
    """The covering relations of a word, after a map-less link onto its start set.

    The transitions' links are concatenated in order; every recipe's
    section sides are pinned when the table is built, so consecutive
    recipes compose.  Raises RegistryError when the word is not
    admissible.
    """
    if len(word) < 2 and not (cyclic and len(word) == 1):
        raise RegistryError("a word needs at least two symbols "
                            "(or one symbol cyclically)")
    pairs = list(zip(word, word[1:]))
    if cyclic:
        pairs.append((word[-1], word[0]))
    links = [link for alpha, beta in pairs for link in transition(alpha, beta).links]
    return [Link((), SYMBOL_SETS[word[0]]), *links]


def word_recipe(word: Sequence[Symbol], cyclic: bool = False) -> list[MapTag]:
    """Elementary maps (application order) realizing a whole word."""
    return [t for link in word_links(word, cyclic) for t in link.tags]


# ----------------------------------------------------------------------
# h-set repository
# ----------------------------------------------------------------------


def standard_sets() -> dict[str, HSet]:
    """The shipped h-sets, keyed by name.

    These are the bundled exterior (G0-G4) and interior (V0-V4) chains.
    The Lyapunov sets the transition table also names (H1, H1b, H2, H2b)
    are not shipped yet, so a word that needs one is refused by
    :func:`resolve_links` with a :class:`~pcr3bp.errors.RegistryError`
    naming every missing set, before anything flies.
    """
    return {**load_bundled("g_chain"), **load_bundled("v_chain")}


def resolve_links(links: Sequence[Link], sets: Mapping[str, HSet]) -> list[HSet]:
    """The h-set each link lands on: the registered set, or its R-image.

    This is the one lookup of a word's sets; the searches, the verdicts
    and the relation table all run it before they fly.  One
    RegistryError names every set of ``links`` that ``sets`` lacks.
    """
    missing = list(dict.fromkeys(
        link.target for link in links if link.target not in sets))
    if missing:
        raise RegistryError(
            f"h-sets {', '.join(map(repr, missing))} not loaded")
    return [r_image(sets[link.target]) if link.mirrored else sets[link.target]
            for link in links]


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
    rounding, :func:`~pcr3bp.poincare.cell_offsets`).  That face is how
    :func:`~pcr3bp.hset.check_cover` decides the exit-edge pieces the
    cell holds.
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
        landed = [f[0] for f in flown if not isinstance(f, PCR3BPError)]
        a, b = target.local_coords(np.array([p.x for p in landed]),
                                   np.array([p.vx for p in landed]))
        images = zip(a.tolist(), b.tolist())
        return [f if isinstance(f, PCR3BPError) else next(images) for f in flown]

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

