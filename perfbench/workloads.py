"""The benchmark's workloads: operations on the bundled data and their checks.

Every operation is one public call into ``pcr3bp`` (timed) followed by the
checks of its output (not timed).  A check that fails, or an exception out
of the call, fails the operation.

* ``cover``: a rigorous covering check of a bundled single-map link.
* ``flight``: a rigorous flight of the whole G0 through ``[Ph+, Ph-]``.
* ``point``: a Lyapunov fixed point and pointwise covering screens.

A pass is kept to about 10 s of work on a 2-core Xeon.  On such a shared
machine the speed drifts by tens of percent over minutes, so the spread
of a set of runs grows with the time the set takes, while longer runs
average none of it away.  The inputs left out for that reason are named
below.

``cover`` and ``flight`` run the proof's fixed inputs; the seed only picks
the sample points of the flight containment check.  ``point`` feeds the
seed to ``check_cover_pointwise``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pcr3bp import hset, poincare, symbolic
from pcr3bp.dynamics import Params
from pcr3bp.intervals import IMatrix, Interval, gauss_solve_mat
from pcr3bp.poincare import HALF_MINUS, HALF_PLUS, SectionPoint

WORKLOADS = ("cover", "flight", "point")

PARAMS = Params()  # the Oterma parameters

# Bundled single-map links that verify at a 1x1 grid.
LINKS = {
    "G1-G2": ("G1", "G2", HALF_MINUS),
    "G2-G3": ("G2", "G3", HALF_PLUS),
    "G3-G4": ("G3", "G4", HALF_MINUS),
    "V3-V4": ("V3", "V4", HALF_MINUS),
}
# V3-V4 is the cheapest of them and has the smallest margin; the other
# three (10-21 s each) are screened in point mode only.
COVER_LINKS = ("V3-V4",)
COVER_GRID = dict(grid=(1, 1), max_grid=(4, 1))

# Whole source sets through [Ph+, Ph-], with the set whose local frame
# the image widths are measured in.  V0 -> V2 (11-16 s) is left out.
FLIGHTS = {"G0": "G2"}
FLIGHT_TAGS = (HALF_PLUS, HALF_MINUS)
FLIGHT_SAMPLES = 6

# Lyapunov fixed-point position the tests freeze for index 1 (Theta_+).
# Index 2 (x = 1.081929486841790 on Theta_-) runs the same code and is
# left out.
LYAPUNOV_X = {1: 0.920803491320747}
LYAPUNOV_TOL = 1e-9
SCREEN_SAMPLES = 200

# Exceptions a covering map can raise, each tallied on its own.
CELL_ERROR_TYPES = ("DomainError", "SingularityError", "IntegrationError",
                    "HorizonError", "TangencyError", "EnclosureError")


@dataclass
class PassStats:
    """Per-pass figures the checks collect for the per-layer report."""

    cells: int = 0
    cell_errors: Counter = field(default_factory=Counter)
    margins: list = field(default_factory=list)
    stable: list = field(default_factory=list)
    screen_stable: list = field(default_factory=list)
    width_a: list = field(default_factory=list)
    width_b: list = field(default_factory=list)
    dp_width: list = field(default_factory=list)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]  # returns the problems found


def load_sets() -> dict:
    return {**hset.load_bundled("g_chain"), **hset.load_bundled("v_chain")}


def build(workload: str, sets: dict, seed: int, stats: PassStats,
          wrap: Callable) -> list[Op]:
    """Operations of one pass.

    ``wrap(name, fn)`` wraps the callables ``symbolic`` returns, so the
    tracer can put spans around them; ``stats`` collects their outputs.
    """
    if workload == "cover":
        return [cover_op(link, sets, stats, wrap) for link in COVER_LINKS]
    if workload == "flight":
        return [flight_op(src, dst, sets, seed, stats) for src, dst in FLIGHTS.items()]
    if workload == "point":
        return ([lyapunov_op(i) for i in LYAPUNOV_X]
                + [screen_op(link, sets, seed, stats, wrap) for link in LINKS])
    raise ValueError(f"unknown workload {workload!r}")


def _counting(fn, errors: Counter):
    """``fn`` with every exception it raises tallied by type, then re-raised.

    ``check_cover`` turns a map error into an undecided cell; the tally
    keeps that visible from outside.
    """
    def counted(*args):
        try:
            return fn(*args)
        except Exception as exc:
            errors[type(exc).__name__] += 1
            raise
    return counted


def cover_op(link: str, sets: dict, stats: PassStats, wrap) -> Op:
    src, dst, tag = LINKS[link]
    errors: Counter = Counter()

    def call():
        map_fn = symbolic.section_map(PARAMS, [tag], sets[src], sets[dst])
        return hset.check_cover(wrap("symbolic.map_fn", _counting(map_fn, errors)),
                                sets[src], sets[dst], **COVER_GRID)

    def check(report):
        stats.cells += report.cells
        stats.cell_errors.update(errors)
        if report.outcome != "verified":
            why = f"{link} {tag}: {report}"
            if errors:
                why += f"; the map raised {dict(errors)}"
            return [why]
        if not report.margin > 0.0:
            return [f"{link}: verified with margin {report.margin}"]
        stats.margins.append(report.margin)
        stats.stable.append(report.stable_clearance)
        return []

    return Op(f"cover {link} {tag}", call, check)


def flight_op(src: str, dst: str, sets: dict, seed: int, stats: PassStats) -> Op:
    """Rigorous image and derivative of the whole ``src`` through [Ph+, Ph-]."""
    h, target = sets[src], sets[dst]
    whole = Interval(-1.0, 1.0)

    def call():
        return poincare.apply_parallelogram_rigorous(
            PARAMS, FLIGHT_TAGS, h.center, h.u, h.s, whole, whole, h.sign,
            want_derivative=True,
        )

    def check(img):
        a, b = target.local_coords_iv(img.x, img.vx)
        local_dp = gauss_solve_mat(target.frame, img.dp @ IMatrix.from_point(h.frame))
        stats.width_a.append(a.width)
        stats.width_b.append(b.width)
        stats.dp_width.append(float(np.max(local_dp.hi - local_dp.lo)))
        problems = []
        rng = np.random.default_rng([seed, sum(map(ord, src))])
        for sa, sb in rng.uniform(-1.0, 1.0, size=(FLIGHT_SAMPLES, 2)):
            x, vx = h.corner_point(sa, sb)
            img_pt, _ = poincare.apply_chain(
                PARAMS, FLIGHT_TAGS, SectionPoint(float(x), float(vx), h.sign))
            if not (img.x.contains(img_pt.x) and img.vx.contains(img_pt.vx)):
                problems.append(
                    f"{src}: point image ({img_pt.x}, {img_pt.vx}) of "
                    f"(a, b) = ({sa}, {sb}) lies outside the enclosure "
                    f"x {img.x}, vx {img.vx}")
        return problems

    return Op(f"flight {src} [Ph+, Ph-]", call, check)


def lyapunov_op(index: int) -> Op:
    def call():
        return poincare.lyapunov_fixed_point(PARAMS, index)

    def check(orbit):
        x = orbit.point.x
        if not abs(x - LYAPUNOV_X[index]) <= LYAPUNOV_TOL:
            return [f"Lyapunov {index}: x = {x!r}, expected {LYAPUNOV_X[index]!r}"]
        return []

    return Op(f"lyapunov {index}", call, check)


def screen_op(link: str, sets: dict, seed: int, stats: PassStats, wrap) -> Op:
    src, dst, tag = LINKS[link]

    def call():
        point_map = symbolic.section_point_map(PARAMS, [tag], sets[src], sets[dst])
        return hset.check_cover_pointwise(
            wrap("symbolic.point_map", point_map), sets[src], sets[dst],
            samples=SCREEN_SAMPLES, seed=seed,
        )

    def check(report):
        if report.outcome == "falsified":
            return [f"screen {link}: {report}"]
        stats.screen_stable.append(report.stable_clearance)
        return []

    return Op(f"screen {link} {tag}", call, check)


def pass_metrics(stats: PassStats) -> dict[str, float]:
    """Per-layer figures of one pass's outputs, 0.0 where the workload has none."""
    def lo(v):
        return min(v) if v else 0.0

    def hi(v):
        return max(v) if v else 0.0

    out = {
        "hset.cells": stats.cells,
        "hset.cell_errors": sum(stats.cell_errors.values()),
        "hset.cell_errors.other": sum(
            n for k, n in stats.cell_errors.items() if k not in CELL_ERROR_TYPES),
        "hset.cover_margin_min": lo(stats.margins),
        "hset.cover_stable_clearance_min": lo(stats.stable),
        "hset.screen_stable_clearance_min": lo(stats.screen_stable),
        "poincare.image_width_a": hi(stats.width_a),
        "poincare.image_width_b": hi(stats.width_b),
        "poincare.dp_width_max": hi(stats.dp_width),
    }
    for name in CELL_ERROR_TYPES:
        out[f"hset.cell_errors.{name}"] = stats.cell_errors[name]
    return out
