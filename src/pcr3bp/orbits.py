"""Symmetric orbit searches, trajectory sampling, and resonance labels.

The searches here implement fixed-set iteration on the reversal symmetry
line: a segment of ``Fix(R) = {y = 0, x' = 0}`` inside the starting h-set
of a symbolic word is pushed through the word's chain of section maps, and
roots are bracketed and refined along the segment parameter.  For
periodic orbits the root condition is ``x' = 0`` at the terminal section
point (the mirror image of the first half then closes the loop); for
homoclinic orbits it is the vanishing of the expanding local coordinate
near the target libration fixed point, sharpened by appending more and
more return-map factors (iterative deepening, one hyperbolic contraction
per level).

A point flight lands after every map of its word
(:func:`pcr3bp.poincare.chain_landings`), so each search flies a seed
once per question: the walk that checks where each link lands is one
flight of the word, and a deepening level's images are one flight of
the chain and its return maps.

Everything in this module runs in point mode.  Rigorous existence
certificates for the same words come from :func:`rigorous_chain_verdict`,
which replays the word's covering relations with the interval engine of
:mod:`pcr3bp.hset` and checks the reversal symmetry of the endpoint sets.

Settings
--------
The module constants are the only settings of the searches, the
trajectory tools and the resonance labels; they are the defaults the
package was first written with.  Functions read them at call time, so a
test can change one with ``monkeypatch.setattr``.

* ``PERIODIC_GRID = 256``, ``HOMOCLINIC_GRID = 128``: samples of the
  symmetry segment, ``a`` in [-1, 1], scanned for sign changes of the
  terminal ``x'`` and of the expanding coordinate.  A finer grid separates
  roots closer than the spacing; the samples fly the word together, as the
  lanes of one flight (:func:`pcr3bp.poincare.apply_chain_lanes`).
* ``A_TOL = 1e-12``: width in ``a`` at which the refinement of a periodic
  bracket (a safeguarded regula falsi) stops.
  On an h-set of radius 1e-4 that is below the float spacing of ``x``.
* ``SLACK = 0.05``: how far, in local coordinates, a link's image may lie
  outside its registered h-set and still count as landing in it
  (searches and backward coding alike).  The point searches only screen
  candidates; :func:`rigorous_chain_verdict` gives the certificate.
* ``N_TAIL = 6``: most return-map factors appended to deepen a
  homoclinic bracket.  Each one contracts the bracket by the multiplier
  (about 1.4e3 and 1.1e3 at L1 and L2), so double precision stops the
  deepening within a few levels anyway.
* ``COLLAPSE_WIDTH = 1e-15``: bracket width at which the deepening stops
  as collapsed onto the float grid.
* ``MIRROR_TOL = 1e-9``: how far from ``Fix(R)``, relative to the state's
  size, an arc may start and still be mirror-doubled.
* ``PROMINENCE = 0.15``: radial extrema whose amplitude is below this
  share of the arc's radial span cancel in pairs and are not counted.
* ``PLATEAU_TOL = 1e-12``: a radial extremum flatter than this against a
  neighbouring sample is refused as under-resolved.
* ``EXCURSION_SAMPLES = 4097``: samples of the half excursion that
  :func:`excursion_trajectory` cuts.
* ``BAND_PAD = 0.004``: widening of the Lyapunov orbit's radial band where
  an excursion is cut, so the cut falls before the slow approach.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .dynamics import Params, _refine_bracket, reversal
from .errors import (
    DomainError,
    PCR3BPError,
    SearchError,
    StructureError,
)
from .hset import HSet, check_cover, fix_r_segment, is_r_symmetric
from .integrator import PointFlow, flow_point
from .poincare import (
    FULL_MINUS,
    FULL_PLUS,
    LyapunovOrbit,
    SectionPoint,
    _fix_r_scan,
    apply_chain_lanes,
    chain_landings,
    lift,
    lyapunov_fixed_point,
    reflect,
)
from .symbolic import (
    Link,
    resolve_links,
    section_map,
    standard_sets,
    word_links,
)

__all__ = [
    "Trajectory",
    "sample_trajectory",
    "mirror_double",
    "ResonanceLabel",
    "resonance_from_counts",
    "resonance_of",
    "SymmetricPeriodicOrbit",
    "SymmetricHomoclinicOrbit",
    "find_symmetric_periodic",
    "find_symmetric_homoclinic",
    "verify_backward_coding",
    "excursion_trajectory",
    "RelationVerdict",
    "ChainVerdict",
    "rigorous_chain_verdict",
]

log = logging.getLogger(__name__)

# Settings (see the module docstring).
PERIODIC_GRID = 256
HOMOCLINIC_GRID = 128
A_TOL = 1e-12
SLACK = 0.05
N_TAIL = 6
COLLAPSE_WIDTH = 1e-15
MIRROR_TOL = 1e-9
PROMINENCE = 0.15
PLATEAU_TOL = 1e-12
EXCURSION_SAMPLES = 4097
BAND_PAD = 0.004


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Trajectory:
    """A sampled orbit arc: times ``t`` against rows ``(x, y, x', y')``."""

    t: np.ndarray
    states: np.ndarray
    params: Params

    def __post_init__(self) -> None:
        if self.t.ndim != 1 or self.states.shape != (self.t.size, 4):
            raise StructureError("trajectory needs times (n,) and states (n, 4)")

    def __len__(self) -> int:
        return self.t.size

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    def radii(self) -> np.ndarray:
        """Distance to the heavy primary along the arc."""
        return np.hypot(self.states[:, 0] + self.params.mu, self.states[:, 1])

    def write(self, path, header: Sequence[str] = ()) -> None:
        """Save as plain text: '#' header lines, then columns t x y x' y'."""
        lines = [*header, "columns: t x y vx vy"]
        np.savetxt(path, np.column_stack([self.t, self.states]),
                   fmt="%+.17e", header="\n".join(lines))


def sample_trajectory(params: Params, state, t_final: float,
                      n: int = 1001) -> Trajectory:
    """Integrate from ``state`` and sample ``n`` equally spaced times.

    ``t_final`` may be negative; output times then run from 0 down to it.
    The flight is :meth:`~pcr3bp.integrator.PointFlow.steps_to`, and each
    sample reads the dense Taylor polynomial of the step that holds its
    time, so ``n`` does not affect the integration accuracy.  Raises
    :class:`~pcr3bp.errors.IntegrationError` where the step rule asks for
    less than ``integrator.H_MIN``.
    """
    if n < 2:
        raise DomainError("need at least two sample times")
    times = np.linspace(0.0, float(t_final), n)
    out = np.empty((n, 4))
    out[0] = np.asarray(state, dtype=np.float64)
    flow = PointFlow(params, state)
    i = 1
    for rec in flow.steps_to(t_final):
        # times and flight share a sign, so |t| orders them
        while i < n and abs(times[i]) <= abs(flow.t[0]):
            out[i] = rec.state_at(times[i] - rec.t0[0])[:, 0]
            i += 1
    out[i:] = flow.state[:, 0]  # a zero t_final takes no step
    return Trajectory(times, out, params)


def mirror_double(traj: Trajectory) -> Trajectory:
    """Extend an arc starting on ``Fix(R)`` backward by its mirror image.

    For ``x0`` on the symmetry set the backward orbit is the reversal of
    the forward one, so the arc over ``[0, T]`` determines the orbit over
    ``[-T, T]`` without further integration.
    """
    if traj.t[0] != 0.0:
        raise StructureError("mirror doubling needs the arc to start at t = 0")
    x0 = traj.states[0]
    scale = max(1.0, abs(x0[0]), abs(x0[3]))
    if max(abs(x0[1]), abs(x0[2])) > MIRROR_TOL * scale:
        raise StructureError(
            "initial state is not on the symmetry set (y and x' must vanish)"
        )
    back = (reversal(traj.states[:0:-1]), -traj.t[:0:-1])
    t = np.concatenate([back[1], traj.t])
    states = np.vstack([back[0], traj.states])
    return Trajectory(t, states, traj.params)


# ----------------------------------------------------------------------
# resonance labels
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ResonanceLabel:
    """A ``p:q`` mean-motion label with the counts that produced it.

    ``theta`` is the number of full turns around the heavy primary over
    the counted arc (positive for interior, negative for exterior
    excursions) and ``m`` the number of significant radial extrema of the
    counted kind; the ratio of periods is then ``m / (m - theta)``,
    reduced to lowest terms ``p:q``.
    """

    p: int
    q: int
    theta: int
    m: int

    def __str__(self) -> str:
        return f"{self.p}:{self.q}"


def resonance_from_counts(theta: int, m: int) -> ResonanceLabel:
    """Reduce turn and extremum counts to a ``p:q`` resonance label."""
    if m <= 0:
        raise DomainError(f"extremum count must be positive, got {m}")
    denom = m - theta
    if denom <= 0:
        raise DomainError(
            f"counts theta={theta}, m={m} do not give a positive period ratio"
        )
    g = math.gcd(m, denom)
    return ResonanceLabel(m // g, denom // g, theta, m)


def _extrema_indices(r: np.ndarray, cyclic: bool) -> list[tuple[int, bool]]:
    """Strict local extrema as ``(index, is_peak)``, flagging plateaus."""
    n = r.size
    found: list[tuple[int, bool]] = []
    indices = range(n) if cyclic else range(1, n - 1)
    for i in indices:
        dl = r[i] - r[i - 1 if not cyclic else (i - 1) % n]
        dr = r[i] - r[(i + 1) % n if cyclic else i + 1]
        if (dl > 0.0) == (dr > 0.0):
            if min(abs(dl), abs(dr)) <= PLATEAU_TOL:
                raise SearchError(
                    f"flat radial extremum near sample {i}; refine the sampling"
                )
            found.append((i, dl > 0.0))
    return found


def _significant_extrema(r: np.ndarray, cand: list[tuple[int, bool]],
                         cyclic: bool) -> tuple[int, int]:
    """Cancel small adjacent wiggles; return (peak count, valley count).

    Adjacent extrema whose amplitude falls below the prominence threshold
    annihilate in pairs (smallest first), and on open arcs an extremum can
    be absorbed into the cut endpoint it hugs.  What survives are the
    radial oscillations of the excursion itself.
    """
    prom_abs = PROMINENCE * (float(r.max()) - float(r.min()))
    work = list(cand)
    while work:
        best_amp = math.inf
        best: tuple[str, int] | None = None
        pairs = list(zip(work, work[1:]))
        if cyclic and len(work) > 1:
            pairs.append((work[-1], work[0]))
        for k, ((i, _), (j, _)) in enumerate(pairs):
            amp = abs(r[i] - r[j])
            if amp < best_amp:
                best_amp, best = amp, ("pair", k)
        if not cyclic:
            for which, (i, _) in (("first", work[0]), ("last", work[-1])):
                amp = abs(r[i] - (r[0] if which == "first" else r[-1]))
                if amp < best_amp:
                    best_amp, best = amp, (which, 0)
        if best is None or best_amp >= prom_abs:
            break
        kind, k = best
        if kind == "pair":
            if k == len(work) - 1:  # wrap pair
                del work[-1], work[0]
            else:
                del work[k:k + 2]
        elif kind == "first":
            del work[0]
        else:
            del work[-1]
    peaks = sum(1 for _, is_peak in work if is_peak)
    return peaks, len(work) - peaks


def _polar(traj: Trajectory, periodic: bool):
    """Heavy-primary-centred ``(x, y)`` and unwrapped angle of the samples.

    A closed orbit's repeated last sample is dropped.
    """
    states = traj.states
    if periodic and np.allclose(states[0], states[-1], rtol=0.0, atol=1e-9):
        states = states[:-1]
    x = states[:, 0] + traj.params.mu
    y = states[:, 1]
    return x, y, np.unwrap(np.arctan2(y, x))


def resonance_of(traj: Trajectory, periodic: bool = False) -> ResonanceLabel:
    """Classify an excursion or closed orbit by its mean-motion resonance.

    The turn count is the rounded winding of the arc around the heavy
    primary, signed positive when the arc stays interior to the light
    primary's circle and negative when exterior.  The extremum count takes
    significant radial maxima on interior arcs and minima on exterior
    ones.  Pass ``periodic=True`` for a closed orbit (the endpoints then
    wrap around instead of acting as cuts).

    The arc should already be trimmed of any slow sojourn near a
    libration region (see :func:`excursion_trajectory`); oscillations
    small against the radial span are cancelled, not counted.  An arc of
    fewer than 1025 samples, or one that turns more than 0.15 rad between
    two samples, is first resampled once from its first state at 8193
    samples.
    """
    x, y, phi = _polar(traj, periodic)
    if phi.size < 1025 or np.abs(np.diff(phi)).max() > 0.15:
        traj = sample_trajectory(traj.params, traj.states[0],
                                 traj.duration, n=8193)
        x, y, phi = _polar(traj, periodic)
    r = np.hypot(x, y)
    median_r = float(np.median(r))
    if 0.98 < median_r < 1.02:
        raise DomainError(
            "arc hugs the light primary's circle; no interior/exterior side"
        )
    interior = median_r < 1.0

    winding = (phi[-1] - phi[0]) / (2.0 * math.pi)
    if periodic:
        # a closed loop's winding includes the wrap back to the start
        winding += _principal(phi[0] - phi[-1]) / (2.0 * math.pi)
    turns = abs(winding)
    theta_mag = round(turns)
    if abs(turns - theta_mag) > 0.3:
        raise SearchError(
            f"winding {winding:+.3f} is not close to an integer; "
            "the arc is under-resolved or not trimmed to the excursion"
        )
    if theta_mag == 0:
        raise DomainError("arc makes no full turn around the heavy primary")
    theta = theta_mag if interior else -theta_mag

    cand = _extrema_indices(r, periodic)
    peaks, valleys = _significant_extrema(r, cand, periodic)
    m = peaks if interior else valleys
    if m == 0:
        raise SearchError("no significant radial extrema survive the filter")
    return resonance_from_counts(theta, m)


def _principal(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    return math.remainder(angle, 2.0 * math.pi)


# ----------------------------------------------------------------------
# symmetric periodic orbits
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SymmetricPeriodicOrbit:
    """A reversal-symmetric periodic orbit located by fixed-set iteration.

    ``map_points`` holds the seed's landing after each map of the word,
    ``terminal`` the last of them.
    """

    word: tuple[str, ...]
    seed: SectionPoint
    half_period: float
    closure_residual: float
    terminal: SectionPoint
    map_points: tuple[SectionPoint, ...]

    @property
    def period(self) -> float:
        return 2.0 * self.half_period


def _word_setup(word: Sequence[str], sets: Mapping[str, HSet] | None):
    """The word, its start set and its links, each with the set it lands on.

    Every set is resolved here, before anything flies; a missing one
    raises RegistryError.
    """
    word = tuple(word)
    links = word_links(word, cyclic=len(word) == 1)
    start, *targets = resolve_links(links, standard_sets() if sets is None else sets)
    return word, start, list(zip(links[1:], targets))


def _seed_line(start: HSet):
    """Seed line ``a -> SectionPoint`` along the Fix(R) segment of a set.

    ``a`` in [-1, 1] joins two opposite corners.  A set that is not
    reversal-symmetric has no such segment and raises StructureError.
    """
    if not is_r_symmetric(start):
        raise StructureError(
            f"start set {start.name} is not reversal-symmetric; "
            "fixed-set iteration has no seed segment"
        )
    gamma = fix_r_segment(start)

    def seed_at(a: float) -> SectionPoint:
        point, _ = gamma(a)
        return SectionPoint(float(point[0]), 0.0, start.sign)

    return seed_at


def _link_walk(params: Params, seed: SectionPoint,
               links: Sequence[tuple[Link, HSet]]) -> list[tuple[SectionPoint, float]] | str:
    """Fly a seed through a word's maps in one flight, checking each link's landing.

    Returns the landing after each map with its time, or the reason for
    the rejection: the first link whose image lies more than ``SLACK``
    outside its h-set, or a flight that failed before it.
    """
    (marks, error), = chain_landings(
        params, [t for link, _ in links for t in link.tags], [seed])
    end = 0
    for k, (link, target) in enumerate(links):
        end += len(link.tags)
        if end > len(marks):
            return f"link walk failed: {error}"
        pt, _ = marks[end - 1]
        if not target.contains(pt.x, pt.vx, slack=SLACK):
            return f"link {k} image escapes {target.name}"
    return marks


def _rejected(rejects: list[tuple[float, float, str]]) -> SearchError:
    """The error of a search whose every bracket was rejected."""
    detail = "; ".join(f"[{lo:+.3f}, {hi:+.3f}]: {why}" for lo, hi, why in rejects)
    return SearchError(f"all {len(rejects)} brackets rejected ({detail})")


def find_symmetric_periodic(params: Params, word: Sequence[str], *,
                            sets: Mapping[str, HSet] | None = None,
                            ) -> SymmetricPeriodicOrbit:
    """Locate the reversal-symmetric periodic orbit coded by ``word``.

    The seed runs along the symmetry segment of the word's starting h-set;
    the root condition is a vanishing terminal ``x'``.  A one-symbol word
    is closed cyclically (the chain returns to the starting set and the
    flight covers a full period); a longer word's chain ends on a mirrored
    set, the reflection of the located half closing the orbit.  Candidate
    roots are rejected unless every link's image lands in its registered
    h-set (within ``SLACK`` in local coordinates).
    """
    word, start, links = _word_setup(word, sets)
    seed_at = _seed_line(start)
    terminal_set = links[-1][1]
    if not is_r_symmetric(terminal_set):
        raise StructureError(
            f"terminal set {terminal_set.name} is not reversal-symmetric; "
            "the located half cannot be closed by reflection"
        )

    def terminal_vx(a: float, flown) -> float | None:
        return None if isinstance(flown, PCR3BPError) else flown[0].vx

    grid = np.linspace(-1.0, 1.0, PERIODIC_GRID).tolist()
    brackets, terminal_vx_at = _fix_r_scan(
        params, [t for link, _ in links for t in link.tags], seed_at, grid,
        terminal_vx)
    if not brackets:
        raise SearchError(
            f"no terminal x' sign change along Fix(R) in {start.name} "
            f"({PERIODIC_GRID} samples)"
        )
    rejects = []
    for lo, hi, flo, fhi in brackets:
        refined = _refine_bracket(terminal_vx_at, lo, hi, flo, fhi, A_TOL)
        if refined is None:
            rejects.append((lo, hi, "map failure while refining the bracket"))
            continue
        seed = seed_at(0.5 * (refined[0] + refined[1]))
        marks = _link_walk(params, seed, links)
        if isinstance(marks, str):
            rejects.append((lo, hi, marks))
            continue
        total = marks[-1][1]
        half_period = 0.5 * total if len(word) == 1 else total
        state0 = lift(params, seed)
        closed, _ = flow_point(params, state0, 2.0 * half_period)
        residual = float(np.max(np.abs(closed - state0)))
        return SymmetricPeriodicOrbit(
            word=word, seed=seed, half_period=half_period,
            closure_residual=residual, terminal=marks[-1][0],
            map_points=tuple(pt for pt, _ in marks),
        )
    raise _rejected(rejects)


# ----------------------------------------------------------------------
# backward coding
# ----------------------------------------------------------------------

def verify_backward_coding(params: Params, seed: SectionPoint,
                           word: Sequence[str], *,
                           sets: Mapping[str, HSet] | None = None) -> bool:
    """Check that the backward orbit of ``seed`` realizes the mirrored word.

    Backward, each link applies the inverses of its maps' mirrors and must
    land in the reversal image of its target set (within ``SLACK``).  The
    reversal conjugates each section map to the inverse of its mirror,
    ``R P R = P_mirror^{-1}``, so that backward orbit is the reversal of the
    forward link walk of ``R(seed)``, one flight, and the check is that
    walk.  Returns False on the first escape or failed flight (logged at
    INFO level).  A set the word needs that ``sets`` lacks raises
    RegistryError before anything flies.
    """
    word, _, links = _word_setup(word, sets)
    walk = _link_walk(params, reflect(seed), links)
    if isinstance(walk, str):
        log.info("backward coding of %s, walking the reflected seed: %s",
                 word, walk)
        return False
    return True


# ----------------------------------------------------------------------
# symmetric homoclinic orbits
# ----------------------------------------------------------------------

@lru_cache(maxsize=8)
def _lyapunov_by(solve, params: Params, index: int) -> LyapunovOrbit:
    """``solve(params, index)``, made once per solver, parameters and index."""
    return solve(params, index)


def _lyapunov(params: Params, index: int) -> LyapunovOrbit:
    """The Lyapunov fixed point near a neck, solved once per ``(params, index)``.

    The cache is keyed on the solver too, so a solver patched in over
    :func:`lyapunov_fixed_point` answers only while it is in place.
    """
    return _lyapunov_by(lyapunov_fixed_point, params, index)


@dataclass(frozen=True, slots=True)
class SymmetricHomoclinicOrbit:
    """Half of a reversal-symmetric homoclinic excursion, plus its target.

    The seed lies on the symmetry line inside the word's starting h-set;
    flying it for ``half_time`` lands near the hyperbolic fixed point
    ``target`` of the return map (the section trace of a Lyapunov orbit),
    and the mirror image of this half completes the excursion.
    ``tail_depth`` counts how many extra return-map factors confirmed a
    sign-change bracket of the expanding coordinate — each level contracts
    the seed bracket by the multiplier, so double precision caps the
    attainable depth.  ``convergence_log`` records the section distances
    to the target along the tail while they shrink.
    """

    word: tuple[str, ...]
    seed: SectionPoint
    half_time: float
    target: SectionPoint
    target_index: int
    multiplier: float
    n_tail: int
    tail_depth: int
    convergence_log: tuple[float, ...]


def find_symmetric_homoclinic(params: Params, word: Sequence[str], *,
                              sets: Mapping[str, HSet] | None = None,
                              ) -> SymmetricHomoclinicOrbit:
    """Locate the reversal-symmetric homoclinic orbit coded by ``word``.

    ``word`` must end in a libration symbol; the chain then lands in that
    symbol's h-set, where the expanding local coordinate (measured from
    the recomputed fixed point) changes sign across the stable manifold.
    The bracket is deepened by appending return-map factors one at a time
    up to ``N_TAIL``; when a level's bracket collapses to the floating
    point grid the search stops early and reports the achieved depth.
    The seed grid, and the probes of each deepening level, are one Fix(R)
    scan (:func:`~pcr3bp.poincare._fix_r_scan`), and each level's bracket
    is refined with that level's evaluator.  The images at depth k, of the
    deepening and of the convergence log alike, are one lane flight of the
    chain and k return maps, whose time horizon spans all its maps; the
    log's depth-0 image is the landing of the chosen seed's link walk,
    which is that flight.
    """
    word, start, links = _word_setup(word, sets)
    seed_at = _seed_line(start)
    if word[-1] not in ("L1", "L2"):
        raise DomainError(
            f"homoclinic words must end in a libration symbol, got {word[-1]!r}"
        )
    index = 1 if word[-1] == "L1" else 2
    tail_tag = FULL_PLUS if index == 1 else FULL_MINUS
    orb = _lyapunov(params, index)
    fixed = orb.point
    lam = float(max(abs(m) for m in orb.multipliers))
    frame = links[-1][1].frame
    tags = [t for link, _ in links for t in link.tags]

    def expanding(a: float, flown) -> float | None:
        if isinstance(flown, PCR3BPError):
            return None
        img = flown[0]
        return float(np.linalg.solve(frame, [img.x - fixed.x, img.vx - fixed.vx])[0])

    def scan(seeds: list[float], depth: int):
        """The Fix(R) scan of the expanding coordinate ``depth`` return maps on."""
        return _fix_r_scan(params, tags + [tail_tag] * depth, seed_at, seeds,
                           expanding)

    base, expanding_at = scan(np.linspace(-1.0, 1.0, HOMOCLINIC_GRID).tolist(), 0)
    if not base:
        raise SearchError(
            f"no sign change of the expanding coordinate along Fix(R) in "
            f"{start.name} ({HOMOCLINIC_GRID} samples)"
        )

    def deepen(lo, hi, flo, fhi) -> tuple[float, float, int]:
        at, depth = expanding_at, 0
        for k in range(1, N_TAIL + 1):
            # sharpen the current bracket enough that the next level's
            # root (a multiplier factor closer) can be re-bracketed
            target_w = max(COLLAPSE_WIDTH, (hi - lo) / lam * 0.25)
            refined = _refine_bracket(at, lo, hi, flo, fhi, target_w)
            if refined is None:
                return (lo, hi, depth)
            lo, hi = refined
            # the refinement may end far inside the target width; probe
            # the next level over a window of that width about the root
            mid, half_w = 0.5 * (lo + hi), 0.5 * max(hi - lo, target_w)
            w_lo, w_hi = mid - half_w, mid + half_w
            if w_hi - w_lo <= COLLAPSE_WIDTH or np.nextafter(w_lo, w_hi) >= w_hi:
                log.warning(
                    "homoclinic bracket for %s collapsed to the double "
                    "precision grid at depth %d (width %.3g)",
                    word, depth, w_hi - w_lo,
                )
                return (lo, hi, depth)
            probes = [w_lo + f * (w_hi - w_lo) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
            found, at = scan(probes, k)
            if not found:
                return (lo, hi, depth)
            lo, hi, flo, fhi = found[0]
            depth = k
        return (lo, hi, depth)

    best = None
    rejects = []
    for lo, hi, flo, fhi in base:
        b_lo, b_hi, depth = deepen(lo, hi, flo, fhi)
        a_hat = 0.5 * (b_lo + b_hi)
        marks = _link_walk(params, seed_at(a_hat), links)
        if isinstance(marks, str):
            rejects.append((lo, hi, marks))
            continue
        if best is None or depth > best[1]:
            best = (a_hat, depth, marks[-1])
    if best is None:
        raise _rejected(rejects)
    a_hat, depth, (landing, half_time) = best
    if depth < N_TAIL:
        log.warning(
            "homoclinic search for %s reached tail depth %d of %d "
            "(bracket at the double precision floor)", word, depth, N_TAIL,
        )

    # depth 0 is the walk's landing, the same one-lane flight of the chain
    distances = []
    for j in range(N_TAIL + 3):
        flown = (apply_chain_lanes(params, tags + [tail_tag] * j, [seed_at(a_hat)])[0]
                 if j else (landing, half_time))
        if isinstance(flown, PCR3BPError):
            break
        img = flown[0]
        d = math.hypot(img.x - fixed.x, img.vx - fixed.vx)
        if distances and d >= distances[-1]:
            break
        distances.append(d)

    return SymmetricHomoclinicOrbit(
        word=word, seed=seed_at(a_hat), half_time=half_time,
        target=fixed, target_index=index, multiplier=lam,
        n_tail=N_TAIL, tail_depth=depth,
        convergence_log=tuple(distances),
    )


# ----------------------------------------------------------------------
# excursion extraction
# ----------------------------------------------------------------------

@lru_cache(maxsize=8)
def _radial_band(params: Params, point: SectionPoint,
                 period: float) -> tuple[float, float]:
    """Range of distances to the heavy primary along a periodic orbit."""
    arc = sample_trajectory(params, lift(params, point), period, 2049)
    r = arc.radii()
    return float(r.min()), float(r.max())


def excursion_trajectory(params: Params,
                         orbit: SymmetricHomoclinicOrbit) -> Trajectory:
    """The full excursion of a homoclinic orbit, trimmed and mirror-doubled.

    The located half is flown from the seed, cut where it enters the
    radial band swept by the target Lyapunov orbit (widened by
    ``BAND_PAD``), and doubled across the symmetric initial point.  The
    result is the bounded excursion the resonance count applies to, free
    of the asymptotic spiral.
    """
    half = sample_trajectory(params, lift(params, orbit.seed),
                             orbit.half_time, EXCURSION_SAMPLES)
    r = half.radii()
    lyap = _lyapunov(params, orbit.target_index)
    band_lo, band_hi = _radial_band(params, lyap.point, lyap.period)
    interior = r[0] < band_lo
    threshold = band_lo - BAND_PAD if interior else band_hi + BAND_PAD
    inside = r >= threshold if interior else r <= threshold
    hits = np.flatnonzero(inside)
    if hits.size == 0:
        raise SearchError(
            f"arc never reaches the libration band (cut radius {threshold:.6g})"
        )
    cut = int(hits[0])
    if cut < 2:
        raise SearchError("arc starts inside the libration band; nothing to trim")
    kept = Trajectory(half.t[:cut], half.states[:cut], params)
    return mirror_double(kept)


# ----------------------------------------------------------------------
# rigorous verdict for a word
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RelationVerdict:
    """One covering relation of a word, with its interval check outcome."""

    source: str
    target: str
    tags: tuple[str, ...]
    report: object  # CoverReport

    def __str__(self) -> str:
        chain = " ".join(self.tags)
        return f"{self.source} =[{chain}]=> {self.target}: {self.report}"


@dataclass(frozen=True, slots=True)
class ChainVerdict:
    """Rigorous status of all covering relations behind a symbolic word."""

    word: tuple[str, ...]
    relations: tuple[RelationVerdict, ...]
    start_symmetric: bool
    end_symmetric: bool

    @property
    def verified(self) -> bool:
        return (self.start_symmetric and self.end_symmetric
                and all(r.report.verified for r in self.relations))

    @property
    def verdict(self) -> str:
        if any(r.report.outcome == "falsified" for r in self.relations):
            return "falsified"
        return "verified" if self.verified else "inconclusive"

    def __str__(self) -> str:
        lines = [f"word ({', '.join(self.word)}): {self.verdict}"]
        lines += [f"  {r}" for r in self.relations]
        lines.append(
            f"  endpoints reversal-symmetric: start={self.start_symmetric}, "
            f"end={self.end_symmetric}"
        )
        return "\n".join(lines)


def rigorous_chain_verdict(params: Params, word: Sequence[str], *,
                           grid: tuple[int, int] = (32, 2),
                           max_grid: tuple[int, int] = (128, 8),
                           sets: Mapping[str, HSet] | None = None) -> ChainVerdict:
    """Run the interval covering checks behind a word's symbolic chain.

    Each link of the word is one covering relation, checked with
    :func:`pcr3bp.hset.check_cover` on the mean-value section-map
    enclosure.  Together with reversal-symmetric endpoint sets, verified
    relations prove that an orbit with the word's itinerary exists.  They
    do not locate it, and the point searches need not: the seeds that
    follow a long chain can fill a window of the Fix(R) segment narrower
    than the float spacing, and the searches then raise SearchError, as
    they do on (E, L2) and (I, L1).  Every set is resolved before the
    first cover, so a word whose set is not loaded raises RegistryError
    at once.
    Relations spanning many composed maps typically come back
    inconclusive at sane grids — the composite expansion outruns the
    subdivision budget — and are reported individually.
    """
    word, start, links = _word_setup(word, sets)
    relations = []
    source = start
    for link, target in links:
        map_fn = section_map(params, link.tags, source, target)
        report = check_cover(map_fn, source, target,
                             grid=grid, max_grid=max_grid)
        relations.append(RelationVerdict(
            source=source.name, target=target.name,
            tags=tuple(str(t) for t in link.tags), report=report,
        ))
        source = target
    return ChainVerdict(
        word=word, relations=tuple(relations),
        start_symmetric=is_r_symmetric(start),
        end_symmetric=is_r_symmetric(source),
    )
