"""Covering-relation table: every relation the shipped h-sets can fly, as JSON.

Usage (from the repository root)::

    python3 tools/relation_table.py > table.json

A relation is one link of a transition of :data:`pcr3bp.symbolic.TRANSITIONS`
whose source and target h-sets both resolve, by
:func:`pcr3bp.symbolic.resolve_links`, in the shipped sets: the links of
the G and V chains and of their reversal images, 16 relations of one map
each.  Each is checked by :func:`pcr3bp.hset.check_cover` on
:func:`pcr3bp.symbolic.section_map` at the Oterma parameters and at two
grids: (4, 1) refined up to (512, 16), and ``rigorous_chain_verdict``'s
default (32, 2) up to (128, 8).  The checks run in one worker process per
core.  Each row gives the relation's maps, the verdict, the margin and the
stable clearance (each also as ``float.hex``, so that two tables compare
bit for bit), the number of cell evaluations and the CPU seconds of the
check in its worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcr3bp.dynamics import Params  # noqa: E402
from pcr3bp.errors import RegistryError  # noqa: E402
from pcr3bp.hset import check_cover  # noqa: E402
from pcr3bp.symbolic import (  # noqa: E402
    TRANSITIONS,
    resolve_links,
    section_map,
    standard_sets,
    word_links,
)

GRIDS = (((4, 1), (512, 16)), ((32, 2), (128, 8)))


def relations(sets) -> dict[str, tuple]:
    """``{"S=>T": (source, target, tags)}`` over the links whose sets are in ``sets``."""
    found = {}
    for pair in TRANSITIONS:
        chain = word_links(pair)
        for source_link, link in zip(chain, chain[1:]):
            try:
                source, target = resolve_links((source_link, link), sets)
            except RegistryError:
                continue
            found[f"{source.name}=>{target.name}"] = (source, target, link.tags)
    return found


def check(job: tuple[str, tuple, tuple]) -> dict:
    """One row of the table: the relation ``job[0]`` at grid ``job[1]``, max ``job[2]``."""
    name, grid, max_grid = job
    source, target, tags = relations(standard_sets())[name]
    start = time.process_time()
    rep = check_cover(section_map(Params(), tags, source, target), source, target,
                      grid=grid, max_grid=max_grid)
    return {
        "relation": name, "maps": [t.name for t in tags],
        "grid": list(grid), "max_grid": list(max_grid),
        "outcome": rep.outcome,
        "margin": rep.margin, "margin_hex": rep.margin.hex(),
        "stable_clearance": rep.stable_clearance,
        "stable_clearance_hex": rep.stable_clearance.hex(),
        "evaluations": rep.cells, "errors": rep.errors,
        "cpu_s": round(time.process_time() - start, 2),
    }


def main() -> None:
    names = list(relations(standard_sets()))
    jobs = [(name, grid, max_grid) for grid, max_grid in GRIDS for name in names]
    cores = os.cpu_count() or 1
    start = time.perf_counter()
    with multiprocessing.get_context("spawn").Pool(cores) as pool:
        rows = pool.map(check, jobs, chunksize=1)
    json.dump({
        "python": platform.python_version(), "machine": platform.machine(),
        "cores": cores, "wall_s": round(time.perf_counter() - start, 1),
        "cpu_s": {f"{g}/{m}": round(sum(r["cpu_s"] for r in rows
                                        if r["grid"] == list(g)), 1)
                  for g, m in GRIDS},
        "rows": rows,
    }, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
