"""Symmetric orbit searches, trajectory sampling, and resonance labels.

The searches here implement fixed-set iteration on the reversal symmetry
line: a segment of ``Fix(R) = {y = 0, x' = 0}`` inside the starting h-set
of a symbolic word is pushed through the word's chain of section maps, and
roots are bracketed and bisected along the segment parameter.  For
periodic orbits the root condition is ``x' = 0`` at the terminal section
point (the mirror image of the first half then closes the loop); for
homoclinic orbits it is the vanishing of the expanding local coordinate
near the target libration fixed point, sharpened by appending more and
more return-map factors (iterative deepening, one hyperbolic contraction
per level).

Everything in this module runs in point mode.  Rigorous existence
certificates for the same words come from :func:`rigorous_chain_verdict`,
which replays the word's covering relations with the interval engine of
:mod:`pcr3bp.hset` and checks the reversal symmetry of the endpoint sets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .dynamics import Params
from .errors import (
    DomainError,
    PCR3BPError,
    SearchError,
    StructureError,
)
from .hset import HSet, check_cover, fix_r_segment, is_r_symmetric, r_image
from .integrator import PointFlow, flow_point
from .poincare import (
    FULL_MINUS,
    FULL_PLUS,
    SectionPoint,
    apply_chain,
    lift,
    lyapunov_fixed_point,
)
from .symbolic import (
    Stage,
    mirror_tag,
    resolve_stage_set,
    section_map,
    standard_sets,
    word_stages,
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

#: Diagonal of the reversal R(x, y, x', y') = (x, -y, -x', y').
_REVERSAL_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


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
    Sampling reads the dense Taylor polynomial of each accepted step, so
    ``n`` does not affect the integration accuracy.
    """
    if n < 2:
        raise DomainError("need at least two sample times")
    times = np.linspace(0.0, float(t_final), n)
    out = np.empty((n, 4))
    out[0] = np.asarray(state, dtype=np.float64)
    if t_final == 0.0:
        out[:] = out[0]
        return Trajectory(times, out, params)
    direction = math.copysign(1.0, t_final)
    flow = PointFlow(params, state)
    i = 1
    while i < n:
        rem = t_final - flow.t
        if rem * direction <= 0.0:
            break
        rec = flow.step(direction, h_cap=abs(rem))
        while i < n and (times[i] - flow.t) * direction <= 0.0:
            out[i] = rec.state_at(times[i] - rec.t0)
            i += 1
    while i < n:  # guard against landing a rounding hair short of t_final
        out[i] = flow.state
        i += 1
    return Trajectory(times, out, params)


def mirror_double(traj: Trajectory, tol: float = 1e-9) -> Trajectory:
    """Extend an arc starting on ``Fix(R)`` backward by its mirror image.

    For ``x0`` on the symmetry set the backward orbit is the reversal of
    the forward one, so the arc over ``[0, T]`` determines the orbit over
    ``[-T, T]`` without further integration.
    """
    if traj.t[0] != 0.0:
        raise StructureError("mirror doubling needs the arc to start at t = 0")
    x0 = traj.states[0]
    scale = max(1.0, abs(x0[0]), abs(x0[3]))
    if max(abs(x0[1]), abs(x0[2])) > tol * scale:
        raise StructureError(
            "initial state is not on the symmetry set (y and x' must vanish)"
        )
    back = (traj.states[:0:-1] * _REVERSAL_SIGNS, -traj.t[:0:-1])
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


def _extrema_indices(r: np.ndarray, plateau_tol: float,
                     cyclic: bool) -> list[tuple[int, bool]]:
    """Strict local extrema as ``(index, is_peak)``, flagging plateaus."""
    n = r.size
    found: list[tuple[int, bool]] = []
    indices = range(n) if cyclic else range(1, n - 1)
    for i in indices:
        dl = r[i] - r[i - 1 if not cyclic else (i - 1) % n]
        dr = r[i] - r[(i + 1) % n if cyclic else i + 1]
        if (dl > 0.0) == (dr > 0.0):
            if min(abs(dl), abs(dr)) <= plateau_tol:
                raise SearchError(
                    f"flat radial extremum near sample {i}; refine the sampling"
                )
            found.append((i, dl > 0.0))
    return found


def _significant_extrema(r: np.ndarray, cand: list[tuple[int, bool]],
                         prominence: float, cyclic: bool) -> tuple[int, int]:
    """Cancel small adjacent wiggles; return (peak count, valley count).

    Adjacent extrema whose amplitude falls below the prominence threshold
    annihilate in pairs (smallest first), and on open arcs an extremum can
    be absorbed into the cut endpoint it hugs.  What survives are the
    radial oscillations of the excursion itself.
    """
    prom_abs = prominence * (float(r.max()) - float(r.min()))
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


def resonance_of(traj: Trajectory, periodic: bool = False, *,
                 prominence: float = 0.15, plateau_tol: float = 1e-12,
                 _refined: bool = False) -> ResonanceLabel:
    """Classify an excursion or closed orbit by its mean-motion resonance.

    The turn count is the rounded winding of the arc around the heavy
    primary, signed positive when the arc stays interior to the light
    primary's circle and negative when exterior.  The extremum count takes
    significant radial maxima on interior arcs and minima on exterior
    ones.  Pass ``periodic=True`` for a closed orbit (the endpoints then
    wrap around instead of acting as cuts).

    The arc should already be trimmed of any slow sojourn near a
    libration region (see :func:`excursion_trajectory`); oscillations
    small against the radial span are cancelled, not counted.
    """
    t, states = traj.t, traj.states
    if periodic and np.allclose(states[0], states[-1], rtol=0.0, atol=1e-9):
        t, states = t[:-1], states[:-1]
    x = states[:, 0] + traj.params.mu
    y = states[:, 1]
    phi = np.unwrap(np.arctan2(y, x))
    if not _refined and (t.size < 1025 or np.abs(np.diff(phi)).max() > 0.15):
        fresh = sample_trajectory(traj.params, traj.states[0],
                                  traj.duration, n=8193)
        return resonance_of(fresh, periodic, prominence=prominence,
                            plateau_tol=plateau_tol, _refined=True)
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

    cand = _extrema_indices(r, plateau_tol, periodic)
    peaks, valleys = _significant_extrema(r, cand, prominence, periodic)
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
    """A reversal-symmetric periodic orbit located by fixed-set iteration."""

    word: tuple[str, ...]
    seed: SectionPoint
    half_period: float
    closure_residual: float
    terminal: SectionPoint
    stage_points: tuple[SectionPoint, ...]

    @property
    def period(self) -> float:
        return 2.0 * self.half_period


def _word_setup(params: Params, word: Sequence[str],
                sets: Mapping[str, HSet] | None):
    """Common search scaffolding: stages, start set, symmetry segment."""
    word = tuple(word)
    if sets is None:
        sets = standard_sets()
    cyclic = len(word) == 1
    start_name, stages = word_stages(word, cyclic=cyclic)
    try:
        start = sets[start_name]
    except KeyError:
        raise StructureError(f"start set {start_name!r} is not loaded") from None
    if not is_r_symmetric(start):
        raise StructureError(
            f"start set {start_name} is not reversal-symmetric; "
            "fixed-set iteration has no seed segment"
        )
    gamma = fix_r_segment(start)
    return word, sets, cyclic, start, stages, gamma


def _grid_brackets(f: Callable[[float], float | None],
                   grid: np.ndarray) -> list[tuple[float, float, float, float]]:
    """Sign-change brackets of ``f`` over ``grid``; failures split the domain."""
    brackets = []
    prev_a = prev_v = None
    for a in grid:
        v = f(float(a))
        if v is not None and prev_v is not None and (v == 0.0 or prev_v * v < 0.0):
            brackets.append((prev_a, float(a), prev_v, v))
        prev_a, prev_v = float(a), (None if v is None else v)
    return brackets


def _bisect(f: Callable[[float], float | None], lo: float, hi: float,
            flo: float, fhi: float, tol: float,
            max_iter: int = 100) -> tuple[float, float] | None:
    """Shrink a sign-change bracket; None if the map fails inside it."""
    for _ in range(max_iter):
        if hi - lo <= tol or np.nextafter(lo, hi) >= hi:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm is None:
            return None
        if fm == 0.0:
            return mid, mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return lo, hi


def find_symmetric_periodic(params: Params, word: Sequence[str], *,
                            search_grid: int = 256,
                            sets: Mapping[str, HSet] | None = None,
                            slack: float = 0.05,
                            a_tol: float = 1e-12) -> SymmetricPeriodicOrbit:
    """Locate the reversal-symmetric periodic orbit coded by ``word``.

    The seed runs along the symmetry segment of the word's starting h-set;
    the root condition is a vanishing terminal ``x'``.  A one-symbol word
    is closed cyclically (the chain returns to the starting set and the
    flight covers a full period); a longer word's chain ends on a mirrored
    set, the reflection of the located half closing the orbit.  Candidate
    roots are rejected unless every staged image lands in its registered
    h-set (within ``slack`` in local coordinates).
    """
    word, sets, cyclic, start, stages, gamma = _word_setup(params, word, sets)
    terminal_set = resolve_stage_set(stages[-1], sets)
    if not is_r_symmetric(terminal_set):
        raise StructureError(
            f"terminal set {terminal_set.name} is not reversal-symmetric; "
            "the located half cannot be closed by reflection"
        )
    tags = [stage.tag for stage in stages]

    def seed_at(a: float) -> SectionPoint:
        point, _ = gamma(a)
        return SectionPoint(float(point[0]), 0.0, start.sign)

    def terminal_vx(a: float) -> float | None:
        try:
            img, _ = apply_chain(params, tags, seed_at(a))
        except PCR3BPError:
            return None
        return img.vx

    grid = np.linspace(-1.0, 1.0, search_grid)
    brackets = _grid_brackets(terminal_vx, grid)
    if not brackets:
        raise SearchError(
            f"no terminal x' sign change along Fix(R) in {start.name} "
            f"({search_grid} samples)"
        )
    rejects = []
    for lo, hi, flo, fhi in brackets:
        refined = _bisect(terminal_vx, lo, hi, flo, fhi, a_tol)
        if refined is None:
            rejects.append((lo, hi, "map failure during bisection"))
            continue
        a_hat = 0.5 * (refined[0] + refined[1])
        seed = seed_at(a_hat)
        points = []
        pt, total = seed, 0.0
        bad = None
        try:
            for k, stage in enumerate(stages):
                pt, dt = apply_chain(params, [stage.tag], pt)
                total += dt
                points.append(pt)
                if stage.target is not None:
                    hs = resolve_stage_set(stage, sets)
                    if not hs.contains(pt.x, pt.vx, slack=slack):
                        bad = f"stage {k} image escapes {hs.name}"
                        break
        except PCR3BPError as exc:
            bad = f"stage walk failed: {exc}"
        if bad is not None:
            rejects.append((lo, hi, bad))
            continue
        half_period = 0.5 * total if cyclic else total
        state0 = lift(params, seed)
        closed, _ = flow_point(params, state0, 2.0 * half_period)
        residual = float(np.max(np.abs(closed - state0)))
        return SymmetricPeriodicOrbit(
            word=word, seed=seed, half_period=half_period,
            closure_residual=residual, terminal=pt,
            stage_points=tuple(points),
        )
    detail = "; ".join(f"[{lo:+.3f}, {hi:+.3f}]: {why}" for lo, hi, why in rejects)
    raise SearchError(f"all {len(brackets)} brackets rejected ({detail})")


# ----------------------------------------------------------------------
# backward coding
# ----------------------------------------------------------------------

def verify_backward_coding(params: Params, seed: SectionPoint,
                           word: Sequence[str], *,
                           sets: Mapping[str, HSet] | None = None,
                           slack: float = 0.05) -> bool:
    """Check that the backward orbit of ``seed`` realizes the mirrored word.

    The reversal conjugates each section map to the inverse of its mirror,
    so the backward images of a symmetric seed must visit the reversal
    images of the word's target sets in order.  Stages without a
    registered target are flown but not checked.  Returns False on the
    first escape (logged at INFO level).
    """
    word, sets, _, _, stages, _ = _word_setup(params, word, sets)
    pt = seed
    for k, stage in enumerate(stages):
        try:
            pt, _ = apply_chain(params, [mirror_tag(stage.tag)], pt,
                                inverse=True)
        except PCR3BPError as exc:
            log.info("backward coding of %s: stage %d flight failed: %s",
                     word, k, exc)
            return False
        if stage.target is None:
            continue
        hs = r_image(resolve_stage_set(stage, sets))
        if not hs.contains(pt.x, pt.vx, slack=slack):
            a, b = hs.local_coords(pt.x, pt.vx)
            log.info(
                "backward coding of %s: stage %d image escapes %s "
                "(local a=%.3g, b=%.3g)", word, k, hs.name, a, b,
            )
            return False
    return True


# ----------------------------------------------------------------------
# symmetric homoclinic orbits
# ----------------------------------------------------------------------

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


class _TailCache:
    """Per-parameter chain and tail images, computed once and extended lazily."""

    def __init__(self, params, tags, tail_tag, seed_at):
        self.params = params
        self.tags = tags
        self.tail_tag = tail_tag
        self.seed_at = seed_at
        self.entries: dict[float, dict] = {}

    def entry(self, a: float) -> dict | None:
        ent = self.entries.get(a)
        if ent is None:
            try:
                img, t = apply_chain(self.params, self.tags, self.seed_at(a))
            except PCR3BPError:
                ent = {"images": None}
            else:
                ent = {"images": [img], "time": t}
            self.entries[a] = ent
        return ent

    def image(self, a: float, depth: int) -> SectionPoint | None:
        """Chain image followed by ``depth`` extra return-map factors."""
        ent = self.entry(a)
        images = ent["images"]
        if images is None:
            return None
        while len(images) <= depth:
            try:
                nxt, _ = apply_chain(self.params, [self.tail_tag], images[-1])
            except PCR3BPError:
                return None
            images.append(nxt)
        return images[depth]


def find_symmetric_homoclinic(params: Params, word: Sequence[str], *,
                              n_tail: int = 6, search_grid: int = 128,
                              sets: Mapping[str, HSet] | None = None,
                              slack: float = 0.05,
                              collapse_width: float = 1e-15,
                              ) -> SymmetricHomoclinicOrbit:
    """Locate the reversal-symmetric homoclinic orbit coded by ``word``.

    ``word`` must end in a libration symbol; the chain then lands in that
    symbol's h-set, where the expanding local coordinate (measured from
    the recomputed fixed point) changes sign across the stable manifold.
    The bracket is deepened by appending return-map factors one at a time
    up to ``n_tail``; when a level's bracket collapses to the floating
    point grid the search stops early and reports the achieved depth.
    """
    word, sets, _, start, stages, gamma = _word_setup(params, word, sets)
    if word[-1] not in ("L1", "L2"):
        raise DomainError(
            f"homoclinic words must end in a libration symbol, got {word[-1]!r}"
        )
    index = 1 if word[-1] == "L1" else 2
    tail_tag = FULL_PLUS if index == 1 else FULL_MINUS
    terminal_set = resolve_stage_set(stages[-1], sets)
    orb = lyapunov_fixed_point(params, index)
    fixed = orb.point
    lam = float(max(abs(m) for m in orb.multipliers))
    frame = terminal_set.frame
    tags = [stage.tag for stage in stages]

    def seed_at(a: float) -> SectionPoint:
        point, _ = gamma(a)
        return SectionPoint(float(point[0]), 0.0, start.sign)

    cache = _TailCache(params, tags, tail_tag, seed_at)

    def expanding_coord(a: float, depth: int) -> float | None:
        img = cache.image(a, depth)
        if img is None:
            return None
        local = np.linalg.solve(frame, [img.x - fixed.x, img.vx - fixed.vx])
        return float(local[0])

    grid = np.linspace(-1.0, 1.0, search_grid)
    base = _grid_brackets(lambda a: expanding_coord(a, 0), grid)
    if not base:
        raise SearchError(
            f"no sign change of the expanding coordinate along Fix(R) in "
            f"{start.name} ({search_grid} samples)"
        )

    def deepen(lo, hi, flo, fhi) -> tuple[float, float, int] | None:
        depth = 0
        for k in range(1, n_tail + 1):
            # sharpen the current bracket enough that the next level's
            # root (a multiplier factor closer) can be re-bracketed
            target_w = max(collapse_width, (hi - lo) / lam * 0.25)
            refined = _bisect(lambda a: expanding_coord(a, depth),
                              lo, hi, flo, fhi, target_w)
            if refined is None:
                return (lo, hi, depth)
            lo, hi = refined
            if hi - lo <= collapse_width or np.nextafter(lo, hi) >= hi:
                log.warning(
                    "homoclinic bracket for %s collapsed to the double "
                    "precision grid at depth %d (width %.3g)",
                    word, depth, hi - lo,
                )
                return (lo, hi, depth)
            probes = [lo + f * (hi - lo) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
            vals = [expanding_coord(a, k) for a in probes]
            found = None
            for (a0, v0), (a1, v1) in zip(zip(probes, vals),
                                          zip(probes[1:], vals[1:])):
                if v0 is not None and v1 is not None and \
                        (v1 == 0.0 or v0 * v1 < 0.0):
                    found = (a0, a1, v0, v1)
                    break
            if found is None:
                return (lo, hi, depth)
            lo, hi, flo, fhi = found
            depth = k
        return (lo, hi, depth)

    best = None
    rejects = []
    for lo, hi, flo, fhi in base:
        result = deepen(lo, hi, flo, fhi)
        if result is None:
            continue
        b_lo, b_hi, depth = result
        a_hat = 0.5 * (b_lo + b_hi)
        # containment walk along the word's registered targets
        pt, total, bad = seed_at(a_hat), 0.0, None
        try:
            for k, stage in enumerate(stages):
                pt, dt = apply_chain(params, [stage.tag], pt)
                total += dt
                if stage.target is not None:
                    hs = resolve_stage_set(stage, sets)
                    if not hs.contains(pt.x, pt.vx, slack=slack):
                        bad = f"stage {k} image escapes {hs.name}"
                        break
        except PCR3BPError as exc:
            bad = f"stage walk failed: {exc}"
        if bad is not None:
            rejects.append((lo, hi, bad))
            continue
        if best is None or depth > best[1]:
            best = (a_hat, depth, total)
    if best is None:
        detail = "; ".join(f"[{lo:+.3f}, {hi:+.3f}]: {why}"
                           for lo, hi, why in rejects)
        raise SearchError(f"all homoclinic brackets rejected ({detail})")
    a_hat, depth, half_time = best
    if depth < n_tail:
        log.warning(
            "homoclinic search for %s reached tail depth %d of %d "
            "(bracket at the double precision floor)", word, depth, n_tail,
        )

    distances = []
    img = cache.image(a_hat, 0)
    j = 0
    while img is not None and j <= n_tail + 2:
        d = math.hypot(img.x - fixed.x, img.vx - fixed.vx)
        if distances and d >= distances[-1]:
            break
        distances.append(d)
        j += 1
        img = cache.image(a_hat, j)

    return SymmetricHomoclinicOrbit(
        word=word, seed=seed_at(a_hat), half_time=half_time,
        target=fixed, target_index=index, multiplier=lam,
        n_tail=n_tail, tail_depth=depth,
        convergence_log=tuple(distances),
    )


# ----------------------------------------------------------------------
# excursion extraction
# ----------------------------------------------------------------------

@lru_cache(maxsize=8)
def _lyapunov_radial_band(params: Params, index: int) -> tuple[float, float]:
    """Range of distances to the heavy primary along a Lyapunov orbit."""
    orb = lyapunov_fixed_point(params, index)
    arc = sample_trajectory(params, lift(params, orb.point), orb.period, 2049)
    r = arc.radii()
    return float(r.min()), float(r.max())


def excursion_trajectory(params: Params, orbit: SymmetricHomoclinicOrbit, *,
                         samples: int = 4097, pad: float = 0.004,
                         threshold: float | None = None) -> Trajectory:
    """The full excursion of a homoclinic orbit, trimmed and mirror-doubled.

    The located half is flown from the seed, cut where it enters the
    radial band swept by the target Lyapunov orbit (widened by ``pad``;
    override the cut radius with ``threshold``), and doubled across the
    symmetric initial point.  The result is the bounded excursion the
    resonance count applies to, free of the asymptotic spiral.
    """
    half = sample_trajectory(params, lift(params, orbit.seed),
                             orbit.half_time, samples)
    r = half.radii()
    if threshold is None:
        band_lo, band_hi = _lyapunov_radial_band(params, orbit.target_index)
        interior = r[0] < band_lo
        threshold = band_lo - pad if interior else band_hi + pad
        inside = r >= threshold if interior else r <= threshold
    else:
        inside = r >= threshold if r[0] < threshold else r <= threshold
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

    Consecutive stages accumulate until a registered target set, giving
    one covering relation per named link; each is checked with
    :func:`pcr3bp.hset.check_cover` on the mean-value section-map
    enclosure.  Together with reversal-symmetric endpoint sets, verified
    relations certify an orbit with the word's itinerary (the symmetric
    searches locate it; this routine supplies the existence side).
    Relations spanning many composed maps typically come back
    inconclusive at sane grids — the composite expansion outruns the
    subdivision budget — and are reported individually.
    """
    word, sets, _, start, stages, _ = _word_setup(params, word, sets)
    relations = []
    source_name, source = start.name, start
    pending: list = []
    for stage in stages:
        pending.append(stage.tag)
        if stage.target is None:
            continue
        target = resolve_stage_set(stage, sets)
        map_fn = section_map(params, pending, source, target)
        report = check_cover(map_fn, source, target,
                             grid=grid, max_grid=max_grid)
        relations.append(RelationVerdict(
            source=source_name, target=target.name,
            tags=tuple(str(t) for t in pending), report=report,
        ))
        source_name, source = target.name, target
        pending = []
    return ChainVerdict(
        word=word, relations=tuple(relations),
        start_symmetric=is_r_symmetric(start),
        end_symmetric=is_r_symmetric(source),
    )
