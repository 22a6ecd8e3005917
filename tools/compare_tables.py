"""Compare two covering-relation tables row by row.

Usage (from the repository root)::

    python3 tools/compare_tables.py A.json B.json

``A`` and ``B`` are outputs of ``tools/relation_table.py``.  Rows are
matched by relation and grids, and compared on the relation's maps,
outcome, ``margin_hex``, ``stable_clearance_hex``, evaluations and the
errors the map raised; a row without an ``errors`` column, from an older
table, reads as one whose map raised nothing.  Every
row is printed with the CPU seconds of both sides, which are not compared;
a row that differs, or is in one table only, is marked with its differing
fields, and a margin or stable clearance that differs also with how far
it moved, ``(b - a) / |a|``.  The exit status is 1 if any row differs.
"""

import json
import sys

FIELDS = ("maps", "outcome", "margin_hex", "stable_clearance_hex", "evaluations",
          "errors")
MOVED = ("margin", "stable_clearance")


def rows(path: str) -> dict:
    """The rows of a table, keyed by relation and grids."""
    with open(path) as f:
        return {(r["relation"], tuple(r["grid"]), tuple(r["max_grid"])): {"errors": {}, **r}
                for r in json.load(f)["rows"]}


def moved(a_hex: str, b_hex: str) -> str:
    """The relative change ``(b - a) / |a|`` of two ``float.hex`` values."""
    a, b = float.fromhex(a_hex), float.fromhex(b_hex)
    return f"{(b - a) / abs(a):+.2e}" if a else "from 0"


def main(path_a: str, path_b: str) -> int:
    a, b = rows(path_a), rows(path_b)
    differ = 0
    for key in [*a, *(k for k in b if k not in a)]:
        ra, rb = a.get(key, {}), b.get(key, {})
        diff = [f"{k}: {ra.get(k)} | {rb.get(k)}" for k in FIELDS if ra.get(k) != rb.get(k)]
        diff += [f"{k} moved {moved(ra[k + '_hex'], rb[k + '_hex'])}" for k in MOVED
                 if k + "_hex" in ra.keys() & rb.keys() and ra[k + "_hex"] != rb[k + "_hex"]]
        differ += bool(diff)
        print(f"{key[0]:>14} {key[1]}/{key[2]}  cpu_s {ra.get('cpu_s')} | {rb.get('cpu_s')}  "
              + ("DIFFERS  " + "; ".join(diff) if diff else "same"))
    print(f"{differ} of {len(a.keys() | b.keys())} rows differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
