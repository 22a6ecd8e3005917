"""H-sets on the section and rigorous covering verification.

An h-set is a parallelogram support on one side of the section,

    |N| = { c + a u + b s : a, b in [-1, 1] },

with a nominally expanding direction ``u`` and contracting direction
``s``.  ``N f-covers M`` when the image of ``|N|`` stretches across
``|M|`` "horizontally".  In M's local (a, b) coordinates the sufficient
conditions checked here are:

* every image point of ``|N|`` avoids the closed bars
  ``{|a| <= 1, |b| >= 1}`` above and below M — certified cell by cell,
  either because the cell image has ``b`` strictly inside ``(-1, 1)`` or
  because it lies strictly beyond one unstable edge (``a > 1`` or
  ``a < -1``, where the stable coordinate is unconstrained);
* the two ``a = +-1`` exit edges of N map strictly beyond M's unstable
  edges, on opposite sides (one consistent orientation, direct or
  swapped).

These imply the crossing property the chaining theorems use: any curve
through N from exit edge to exit edge maps to a curve that, between its
last crossing of one unstable edge and its next crossing of the other,
runs through M inside the stable strip.

:func:`check_cover` verifies this with interval arithmetic over an
adaptive grid of parallelogram cells, in one recursion.  The map returns
each cell's image as a :class:`CellImage`, and each cell decides the
exit-edge pieces it holds from the image of its face ``a = +-1``; a cell
that is undecided, whose face leaves its piece undecided, or whose
evaluation raised, splits.  Its verdicts are three-valued:

``verified``
    all covering conditions hold with certified clearances;
``falsified``
    a certificate that no horizontal crossing of M exists (every leaf
    cell image disjoint from M's closed unit square, or the certified
    hull of the image's unstable coordinate stops short of an exit
    edge);
``inconclusive``
    neither could be certified within the grid budget (including edge
    images that land beyond inconsistent sides, which this checker
    cannot certify either way).

The reported ``margin`` is the smallest certified unstable-edge clearance
when verified and the most negative certified clearance otherwise, so
``margin > 0`` exactly when ``outcome == "verified"``; the
``stable_clearance`` is the smallest certified distance from ``|b| = 1``
over the cells whose image can meet M's unstable range (the crossing
region).
"""

from __future__ import annotations

import configparser
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterable

import numpy as np

from .errors import PCR3BPError, StructureError
from .intervals import IArray, Interval, _point_inverse

__all__ = [
    "HSet",
    "r_image",
    "is_r_symmetric",
    "fix_r_segment",
    "CoverReport",
    "CellImage",
    "MapEnclosure",
    "check_cover",
    "check_cover_pointwise",
    "cone_condition",
    "load_bundled",
    "read_hset_file",
    "write_hset_file",
]


@dataclass(frozen=True, slots=True, eq=False)
class HSet:
    """Parallelogram h-set ``{c + a u + b s}`` on one section side."""

    name: str
    sign: int  # +1 on Theta_+, -1 on Theta_-
    center: np.ndarray  # (x, vx)
    u: np.ndarray  # expanding direction
    s: np.ndarray  # contracting direction
    _frame_inv: IArray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for field in ("center", "u", "s"):
            arr = np.asarray(getattr(self, field), dtype=np.float64)
            if arr.shape != (2,):
                raise StructureError(f"h-set {field} must be a 2-vector")
            object.__setattr__(self, field, arr)
        if self.sign not in (-1, 1):
            raise StructureError("h-set section sign must be +1 or -1")

    @property
    def frame(self) -> np.ndarray:
        """Direction matrix with columns ``u`` and ``s``."""
        return np.column_stack([self.u, self.s])

    @property
    def frame_inverse(self) -> IArray:
        """Rigorous enclosure of the inverse of :attr:`frame`.

        Made at first use and kept, so a degenerate set still constructs.
        """
        if self._frame_inv is None:
            object.__setattr__(self, "_frame_inv", _point_inverse(self.frame))
        return self._frame_inv

    def corner_point(self, a: float, b: float) -> np.ndarray:
        return self.center + a * self.u + b * self.s

    def local_coords(self, x: float | np.ndarray, vx: float | np.ndarray
                     ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """(a, b) coordinates of a section point, or arrays of them for arrays of points.

        Floats give floats; arrays ``x`` and ``vx`` of one shape give
        ``a`` and ``b`` of that shape.  Either way the points go through
        one stacked solve, each against its own copy of the frame, so a
        point has the same bits alone and among others: solving all of
        them against one frame, as the columns of one right-hand side,
        runs a blocked triangular solve and changes the last bits of about
        two points in five (2 054 of 5 010 sampled over the ten bundled G
        and V sets).

        Raises :class:`StructureError` if ``u`` and ``s`` are parallel.
        """
        rhs = np.stack([x, vx], axis=-1) - self.center
        try:
            ab = np.linalg.solve(np.broadcast_to(self.frame, rhs.shape + (2,)),
                                 rhs[..., None])
        except np.linalg.LinAlgError as exc:
            raise StructureError(f"h-set {self.name} has a singular frame: {exc}") from None
        a, b = ab[..., 0, 0], ab[..., 1, 0]
        return (a, b) if isinstance(x, np.ndarray) else (float(a), float(b))

    def local_coords_iv(self, x: Interval, vx: Interval) -> tuple[Interval, Interval]:
        """Rigorous (a, b) enclosure of a section box."""
        rhs = IArray.from_intervals([
            x - float(self.center[0]),
            vx - float(self.center[1]),
        ])
        ab = self.frame_inverse @ rhs
        return ab[0], ab[1]

    def contains(self, x: float, vx: float, slack: float = 0.0) -> bool:
        a, b = self.local_coords(x, vx)
        return abs(a) <= 1.0 + slack and abs(b) <= 1.0 + slack

    def __repr__(self) -> str:
        side = "+" if self.sign > 0 else "-"
        return (
            f"HSet({self.name!r}, Theta_{side}, c={tuple(self.center)}, "
            f"u={tuple(self.u)}, s={tuple(self.s)})"
        )


def r_image(h: HSet) -> HSet:
    """Image of an h-set under the reversal ``(x, vx) -> (x, -vx)``.

    The reversal exchanges expansion and contraction, so the image's
    expanding direction is the reflection of ``s`` and vice versa.
    """
    flip = np.array([1.0, -1.0])
    return HSet(
        name=f"R({h.name})",
        sign=h.sign,
        center=h.center * flip,
        u=h.s * flip,
        s=h.u * flip,
    )


def is_r_symmetric(h: HSet) -> bool:
    """Whether the reversal maps the h-set onto itself, exchanging u and s.

    Requires the center on the symmetry line and ``s = +-R(u)``, each to a
    relative 1e-9.  A degenerate direction pair (``u`` parallel to ``s``)
    is never reversal-symmetric in this structured sense and reports False.
    """
    rtol = 1e-9
    scale = max(np.max(np.abs(h.u)), np.max(np.abs(h.s)))
    if scale == 0.0:
        return False
    det = h.u[0] * h.s[1] - h.u[1] * h.s[0]
    if abs(det) <= rtol * scale * scale:
        return False  # degenerate parallelogram
    c_scale = max(np.max(np.abs(h.center)), scale)
    if abs(h.center[1]) > rtol * c_scale:
        return False
    r_u = h.u * np.array([1.0, -1.0])
    return bool(
        np.max(np.abs(r_u - h.s)) <= rtol * scale
        or np.max(np.abs(r_u + h.s)) <= rtol * scale
    )


def fix_r_segment(h: HSet) -> Callable[[float], tuple[np.ndarray, float]]:
    """Parameterization of ``Fix(R) = {vx = 0}`` inside the support.

    Returns ``gamma`` with ``gamma(a) = (point, b)`` where ``point`` is the
    section point ``c + a u + b s`` solving ``vx = 0``.  Requires a
    reversal-symmetric h-set (the segment then joins two opposite corners
    through the center).
    """
    if not is_r_symmetric(h):
        raise StructureError(f"{h.name} is not reversal-symmetric")
    if h.s[1] == 0.0:
        raise StructureError(
            f"{h.name} has a contracting direction tangent to the symmetry line"
        )
    ratio = -h.u[1] / h.s[1]

    def gamma(a: float) -> tuple[np.ndarray, float]:
        b = ratio * a
        return h.center + a * h.u + b * h.s, b

    return gamma


# ----------------------------------------------------------------------
# covering verification
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CellImage:
    """A cell's image enclosure ``(a', b')`` that also encloses its faces.

    It unpacks as the pair ``(a, b)``.  ``face(a_edge)`` encloses, as a
    pair, the image of the cell's face ``{a = a_edge}``; ``a_edge`` must be
    an end of the cell's ``a`` range.  The face enclosure may be sharper
    than the pair, since the face is a part of the cell.
    """

    a: Interval
    b: Interval
    face: Callable[[float], tuple[Interval, Interval]]

    def __iter__(self):
        return iter((self.a, self.b))


# A covering-check map evaluates the composite map on one parallelogram
# cell of the source h-set, given in the source's local (a, b)
# coordinates, and returns a CellImage: an enclosure of the image in the
# *target's local* (a', b') coordinates, whose faces are the only thing
# that decides the exit-edge pieces the cell holds.  The adapter that wraps
# the actual section map owns the section-to-local conversion (see
# HSet.local_coords_iv), so it can exploit whatever structure its image
# representation has instead of losing correlations to an intermediate
# bounding box.
MapEnclosure = Callable[[Interval, Interval], CellImage]


@dataclass(slots=True)
class CoverReport:
    """Outcome of a covering check."""

    outcome: str  # "verified" | "falsified" | "inconclusive"
    margin: float
    stable_clearance: float
    grid: tuple[int, int]
    cells: int
    message: str
    #: exceptions the map raised, counted by type name
    errors: dict[str, int] = field(default_factory=dict)
    #: exit-edge pieces decided, each from the face of its cell
    edge_faces: int = 0

    @property
    def verified(self) -> bool:
        return self.outcome == "verified"

    def __str__(self) -> str:
        return (
            f"{self.outcome} (margin {self.margin:.3e}, "
            f"stable clearance {self.stable_clearance:.3e}, "
            f"grid {self.grid[0]}x{self.grid[1]}, {self.cells} cells, "
            f"{self.edge_faces} edges from cell faces): {self.message}"
        )


@dataclass(slots=True)
class _Tally:
    """Clearance and certificate aggregation across cells and edge pieces.

    Besides the verification clearances, every *leaf* enclosure (cells
    and decided edge pieces alike) feeds the falsification certificates:
    the hull of the image's unstable coordinate and whether every leaf is
    certified disjoint from the target's closed unit square.  ``sides``
    holds, per exit edge, the sides its decided pieces land beyond (True
    for ``a' > 1``), and ``edges_open`` whether a piece stayed undecided.
    """

    margin: float = math.inf
    stable: float = math.inf
    cells: int = 0
    edge_faces: int = 0
    hull_lo: float = math.inf
    hull_hi: float = -math.inf
    outside_min: float = math.inf
    all_outside: bool = True
    hull_ok: bool = True
    edges_open: bool = False
    sides: dict = field(default_factory=lambda: {-1.0: set(), 1.0: set()})
    errors: Counter = field(default_factory=Counter)

    def note_leaf(self, a_img: Interval, b_img: Interval) -> None:
        self.hull_lo = min(self.hull_lo, a_img.lo)
        self.hull_hi = max(self.hull_hi, a_img.hi)
        gap = max(a_img.lo - 1.0, -1.0 - a_img.hi,
                  b_img.lo - 1.0, -1.0 - b_img.hi)
        if gap > 0.0:
            self.outside_min = min(self.outside_min, gap)
        else:
            self.all_outside = False


def _split_interval(iv: Interval, allow: bool) -> list[Interval]:
    return iv.split(2) if allow and iv.width > 0.0 else [iv]


def _evaluate(fn, tally: _Tally, *args):
    """``fn(*args)``, or None with the failure counted in ``tally.errors``."""
    try:
        return fn(*args)
    except PCR3BPError as exc:
        tally.errors[type(exc).__name__] += 1
        return None


def _decide_edge(image: CellImage | None, a_edge: float, tally: _Tally) -> bool:
    """Decide the exit-edge piece at ``a_edge`` from the face of its cell.

    ``image`` is the map's image of the cell, which has ``a_edge`` as an
    end of its ``a`` range, or None if its evaluation raised; such a cell
    decides no piece.  The piece is decided when ``image.face(a_edge)``
    lies strictly beyond one unstable edge (the stable coordinate is
    unconstrained on exit edges); its clearance, leaf and side are then
    noted.  Returns whether the piece was decided.
    """
    face = None if image is None else _evaluate(image.face, tally, a_edge)
    if face is None:
        return False
    a_img, b_img = face
    clearance = max(a_img.lo - 1.0, -1.0 - a_img.hi)
    if not clearance > 0.0:
        return False
    tally.edge_faces += 1
    tally.margin = min(tally.margin, clearance)
    tally.note_leaf(a_img, b_img)
    tally.sides[a_edge].add(a_img.lo > 1.0)
    return True


def _refine_cell(map_fn: MapEnclosure, a: Interval, b: Interval,
                 tally: _Tally, sa: int, sb: int, edges: list[float]) -> bool:
    """Recursively certify one cell and the exit-edge pieces it holds.

    The cell is certified when its image avoids the closed bars
    ``{|a'| <= 1, |b'| >= 1}``: either ``b'`` lies strictly inside
    ``(-1, 1)`` or ``a'`` lies strictly beyond one unstable edge.
    ``edges`` lists the exit edges ``a = +-1`` whose pieces are still
    undecided; the cell decides the pieces ``{a_edge} x b`` at the ends of
    ``a`` from its faces (:func:`_decide_edge`).  A cell that is not
    certified, or that leaves a piece undecided, splits in half per axis
    while the per-axis budgets ``sa``/``sb`` last, and its children take
    up the undecided edges.  Every leaf enclosure feeds the falsification
    certificates.  Returns whether the cell and all its edge pieces were
    decided.
    """
    tally.cells += 1
    image = _evaluate(map_fn, tally, a, b)
    edges = [e for e in edges
             if e in (a.lo, a.hi) and not _decide_edge(image, e, tally)]
    ok = False
    if image is not None:
        a_img, b_img = image
        strip = min(1.0 - b_img.hi, b_img.lo + 1.0)
        ok = max(strip, a_img.lo - 1.0, -1.0 - a_img.hi) > 0.0
    if (ok and not edges) or (sa <= 0 and sb <= 0):
        if image is None:
            tally.hull_ok = tally.all_outside = False
        else:
            tally.note_leaf(a_img, b_img)
            if ok and a_img.lo <= 1.0 and a_img.hi >= -1.0:
                # crossing region: certification came from the stable strip
                tally.stable = min(tally.stable, strip)
        tally.edges_open |= bool(edges)
        return ok and not edges
    decided = True
    for aa in _split_interval(a, sa > 0):
        for bb in _split_interval(b, sb > 0):
            decided &= _refine_cell(map_fn, aa, bb, tally, sa - 1, sb - 1, edges)
    return decided


def check_cover(map_fn: MapEnclosure, source: HSet, target: HSet,
                grid: tuple[int, int] = (32, 2),
                max_grid: tuple[int, int] = (512, 16)) -> CoverReport:
    """Verify that ``source`` f-covers ``target``.

    ``map_fn`` evaluates the map on cells of ``source`` given in
    source-local (a, b) coordinates and returns each image as a
    :class:`CellImage` in target-local (a', b') coordinates (see
    :data:`MapEnclosure`).  The grid is refined adaptively (undecided
    cells split in half per axis) from ``grid`` up to ``max_grid``.

    Certified for a ``verified`` verdict:

    * every cell image avoids the closed bars ``{|a'| <= 1, |b'| >= 1}``
      beside the target (``b'`` strictly inside ``(-1, 1)``, or ``a'``
      strictly beyond one unstable edge);
    * every piece of the two exit edges ``a = +-1`` maps strictly beyond
      an unstable edge of the target, one consistent side per edge and
      opposite sides for the two edges.

    Each exit-edge piece is a face of the cell that holds it, and it is
    decided inside the one cell recursion, only from the cell image's
    ``face(a_edge)`` (for a mean-value map, the cell's mean-value form
    restricted to the face, with no evaluation of its own).  A face that
    leaves its piece undecided, or a cell whose evaluation raised, refines
    its cell, as an undecided cell does, and each child decides the pieces
    at its own ends; at the finest grid such a piece leaves the check
    undecided.  ``CoverReport.edge_faces`` counts the decided pieces, and
    ``CoverReport.cells`` counts the map evaluations.

    Why that suffices: a curve through ``source`` from one exit edge to
    the other maps to a curve that starts and ends strictly beyond
    opposite unstable edges of ``target``; between its last crossing of
    the one edge and its first crossing of the other it runs through
    ``|a'| <= 1``, where bar avoidance forces ``|b'| < 1`` — a
    horizontal crossing of ``target``, which is what the covering
    composition and symmetric-orbit arguments consume.

    ``falsified`` is reported only on certificates that no horizontal
    crossing can exist: every leaf image disjoint from the target's
    closed unit square, or the certified hull of ``a'`` over all leaves
    short of an unstable edge.
    """
    na, nb = grid
    if na < 1 or nb < 1:
        raise StructureError("covering grid must be at least 1x1")
    sa = _log2_steps(na, max_grid[0])
    sb = _log2_steps(nb, max_grid[1])
    tally = _Tally()
    decided = True
    for a in Interval(-1.0, 1.0).split(na):
        for b in Interval(-1.0, 1.0).split(nb):
            decided &= _refine_cell(map_fn, a, b, tally, sa, sb, [-1.0, 1.0])

    if tally.all_outside and tally.outside_min < math.inf:
        return _report(
            tally, grid, "falsified", -tally.outside_min,
            f"the image of {source.name} is certified disjoint from "
            f"{target.name}; it cannot stretch across it",
        )
    if tally.hull_ok and tally.hull_hi < 1.0:
        return _report(
            tally, grid, "falsified", tally.hull_hi - 1.0,
            f"the image of {source.name} certifiably stops short of the "
            f"a' = +1 edge of {target.name} (sup a' <= {tally.hull_hi:.6g})",
        )
    if tally.hull_ok and tally.hull_lo > -1.0:
        return _report(
            tally, grid, "falsified", -1.0 - tally.hull_lo,
            f"the image of {source.name} certifiably stops short of the "
            f"a' = -1 edge of {target.name} (inf a' >= {tally.hull_lo:.6g})",
        )
    if any(len(sides) > 1 for sides in tally.sides.values()):
        # the connecting image may legally pass around the target through
        # |b'| > 1: no disproof, but these conditions cannot certify it
        return _report(
            tally, grid, "inconclusive", 0.0,
            f"pieces of one exit edge of {source.name} land beyond opposite "
            f"edges of {target.name}; not certifiable in these frames",
        )
    if not tally.edges_open and tally.sides[-1.0] == tally.sides[1.0]:
        return _report(
            tally, grid, "inconclusive", 0.0,
            f"both exit edges of {source.name} map beyond the same unstable "
            f"edge of {target.name}; not certifiable in these frames",
        )
    if not decided:
        return _report(
            tally, grid, "inconclusive", 0.0,
            f"{source.name} covering {target.name} undecided at the finest grid",
        )
    return _report(
        tally, grid, "verified", tally.margin,
        f"{source.name} covers {target.name}: all conditions certified",
    )


def _log2_steps(start: int, stop: int) -> int:
    steps = 0
    while start < stop:
        start *= 2
        steps += 1
    return steps


def _errors_note(errors: Counter) -> str:
    """Message suffix naming the map's exceptions, by type and count."""
    if not errors:
        return ""
    counts = ", ".join(f"{name}: {n}" for name, n in sorted(errors.items()))
    return f" (the map raised {counts})"


def _report(tally: _Tally, grid, outcome, margin, message) -> CoverReport:
    if not math.isfinite(margin):
        margin = 0.0
    stable = tally.stable if tally.stable != math.inf else 0.0
    if outcome == "inconclusive":
        message += _errors_note(tally.errors)
    return CoverReport(
        outcome=outcome,
        margin=margin,
        stable_clearance=stable,
        grid=grid,
        cells=tally.cells,
        message=message,
        errors=dict(tally.errors),
        edge_faces=tally.edge_faces,
    )


def check_cover_pointwise(point_map, source: HSet, target: HSet,
                          samples: int = 10_000,
                          seed: int = 0) -> CoverReport:
    """Non-rigorous covering screen by dense point sampling (degraded mode).

    ``point_map`` is a batch map: it takes the source-local points
    ``(a, b)`` as the rows of an (n, 2) array and returns one entry per
    row, the target-local image ``(a', b')`` or the
    :class:`~pcr3bp.errors.PCR3BPError` the map raised at that point.  It
    is called once, on every sample.  The covering conditions of
    :func:`check_cover` are tested on sampled points only, so a positive
    outcome is reported as ``inconclusive`` — it certifies nothing — while
    a violated sample still reports ``falsified`` honestly: the sufficient
    conditions provably fail on this pair of frames (the screen makes no
    claim about other frames).  The results are read in sampling order,
    inner points first, and the report counts the samples and the errors
    up to the first violated one.  Useful as a fast screen before the
    interval check.
    """
    rng = np.random.default_rng(seed)
    n_edge = max(16, int(math.sqrt(samples)))
    n_inner = max(samples - 2 * n_edge, 16)
    inner = rng.uniform(-1.0, 1.0, size=(n_inner, 2))
    edge_b = np.linspace(-1.0, 1.0, n_edge)
    edges = [np.column_stack([np.full(n_edge, a_edge), edge_b])
             for a_edge in (-1.0, 1.0)]
    images = iter(point_map(np.concatenate([inner] + edges)))
    stable = math.inf
    sides = {-1.0: set(), 1.0: set()}
    count = 0
    errors: Counter = Counter()
    for (a, b), img in zip(inner, images):
        if isinstance(img, PCR3BPError):
            errors[type(img).__name__] += 1
            continue
        a_img, b_img = img
        count += 1
        if abs(a_img) <= 1.0:
            stable = min(stable, 1.0 - abs(b_img))
        clearance = max(1.0 - abs(b_img), abs(a_img) - 1.0)
        if clearance < 0.0:
            return CoverReport(
                "falsified", clearance,
                stable if stable != math.inf else 0.0, (0, 0), count,
                f"sampled point a={a:.3f} b={b:.3f} maps into a bar beside "
                f"{target.name} (|a'| <= 1 with |b'| >= 1)", dict(errors),
            )
    if stable == math.inf:  # no sampled image landed within |a'| <= 1
        stable = 0.0
    for a_edge in (-1.0, 1.0):
        for img in itertools.islice(images, n_edge):
            if isinstance(img, PCR3BPError):
                errors[type(img).__name__] += 1
                continue
            a_img, _ = img
            count += 1
            clearance = abs(a_img) - 1.0
            if clearance < 0.0:
                return CoverReport(
                    "falsified", clearance, stable, (0, 0), count,
                    "sampled exit-edge point falls short of the unstable "
                    "edges", dict(errors),
                )
            sides[a_edge].add(1.0 if a_img > 0 else -1.0)
    if any(len(v) > 1 for v in sides.values()) or (
        sides[-1.0] and sides[-1.0] == sides[1.0]
    ):
        return CoverReport(
            "falsified", -0.0, stable, (0, 0), count,
            "sampled exit edges do not separate consistently", dict(errors),
        )
    return CoverReport(
        "inconclusive", 0.0, stable, (0, 0), count,
        f"{source.name} covering {target.name}: all {count} samples satisfy "
        f"the covering inequalities (pointwise screen certifies nothing)"
        + _errors_note(errors),
        dict(errors),
    )


# ----------------------------------------------------------------------
# cone conditions
# ----------------------------------------------------------------------


def cone_condition(dp_local: IArray, lam: float = 1.0) -> bool:
    """Check the cone condition for a local-coordinate derivative enclosure.

    With the indefinite form ``Q(a, b) = a^2 - b^2``, the condition holds
    when ``Q(Dp z) > lam Q(z)`` for all nonzero ``z``, i.e. when the
    symmetric interval matrix ``S = Dp^T J Dp - lam J`` (``J = diag(1,-1)``)
    is positive definite.  Checked by Sylvester's criterion evaluated in
    interval arithmetic, so True is a certificate.
    """
    if dp_local.shape != (2, 2):
        raise StructureError("cone condition needs a 2x2 derivative")
    m11, m12 = dp_local[0, 0], dp_local[0, 1]
    m21, m22 = dp_local[1, 0], dp_local[1, 1]
    s11 = m11.sqr() - m21.sqr() - lam
    s22 = m12.sqr() - m22.sqr() + lam
    s12 = m11 * m12 - m21 * m22
    if not s11.lo > 0.0:
        return False
    det = s11 * s22 - s12.sqr()
    return det.lo > 0.0


# ----------------------------------------------------------------------
# file exchange
# ----------------------------------------------------------------------


def _format_pair(v: np.ndarray) -> str:
    return f"{float(v[0])!r} {float(v[1])!r}"


def _parse_pair(text: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != 2:
        raise StructureError(f"expected two floats, got {text!r}")
    return np.array([float(parts[0]), float(parts[1])])


def write_hset_file(path, hsets: Iterable[HSet]) -> None:
    """Write h-sets to the INI exchange format."""
    cp = configparser.ConfigParser()
    for h in hsets:
        cp[h.name] = {
            "section": "plus" if h.sign > 0 else "minus",
            "center": _format_pair(h.center),
            "u": _format_pair(h.u),
            "s": _format_pair(h.s),
        }
    with open(path, "w") as fh:
        fh.write("# h-set exchange file: one section per set\n")
        fh.write("# center/u/s are 'x vx' pairs on the y=0 section\n")
        cp.write(fh)


def load_bundled(name: str) -> dict[str, HSet]:
    """Load one of the h-set families shipped with the package.

    ``name`` is the file stem, e.g. ``"g_chain"`` or ``"v_chain"``.
    """
    root = resources.files("pcr3bp") / "data" / f"{name}.hset"
    with resources.as_file(root) as path:
        return read_hset_file(path)


def read_hset_file(path) -> dict[str, HSet]:
    """Read h-sets from the INI exchange format (see :func:`write_hset_file`)."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise StructureError(f"cannot read h-set file {path}")
    out: dict[str, HSet] = {}
    for name in cp.sections():
        sec = cp[name]
        side = sec.get("section", "").strip().lower()
        if side not in ("plus", "minus"):
            raise StructureError(
                f"h-set {name}: section must be 'plus' or 'minus', got {side!r}"
            )
        out[name] = HSet(
            name=name,
            sign=1 if side == "plus" else -1,
            center=_parse_pair(sec.get("center", "")),
            u=_parse_pair(sec.get("u", "")),
            s=_parse_pair(sec.get("s", "")),
        )
    return out
