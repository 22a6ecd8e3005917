"""In-process A/B of the interval kernel, one flight and one covering check.

Usage (from the repository root)::

    python3 tools/layer_pairs.py PARENT_DIR CHANGE_DIR > layers.json

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts, each with its own
``src/`` and ``perfbench/``.  For each of ``ROUNDS`` rounds the tool
starts one fresh interpreter per side, the parent first in odd rounds and
the change first in even ones.  Each interpreter imports its checkout's
package and benchmark workloads, flies the ``flight`` operation once to
warm up (recording the arguments of its first ``iv_var_coeffs`` call, the
three-box stack of a validated step: the a-priori box, the hull and the
centre), and then reports

* ``kernel_s``: the best of 3 times of one ``iv_var_coeffs`` call on that
  stack;
* ``flight_s`` and ``cover_s``: the best of 3 times of one call of the
  benchmark's ``flight`` and ``cover`` operations;
* ``flight_digest``: a sha256 of the bits of the flight's image and
  derivative enclosures, and ``cover_digest`` one of the covering
  check's margin and stable clearance;
* ``point_digest``: a sha256 of the bits of the ``point`` operations at
  seed 1, run once: the Lyapunov orbit (point, period, multipliers,
  directions and residual) and every field of the screens' reports.

One traced run per side cannot resolve a layer change below about 20 %
on a shared machine; interleaved best-of-3 times in fresh interpreters
can.  The tool writes one JSON document to standard output: every round
and the ``summary`` (per time, each side's median, the change's relative
change of the median and the rounds it won; per digest, whether every
run of both sides gave the same one).  Progress goes to standard error.
The exit status is 1 if any probe fails.
"""

import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 8
REPEATS = 3
TIMES = ("kernel_s", "flight_s", "cover_s")
DIGESTS = ("flight_digest", "cover_digest", "point_digest")


def _best(fn) -> float:
    """The best of REPEATS wall times of ``fn()``."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _digest(values) -> str:
    """A sha256 of ``values``, a float by its bits and anything else by its repr."""
    return hashlib.sha256(" ".join(v.hex() if isinstance(v, float) else repr(v)
                                   for v in values).encode()).hexdigest()


def _point_bits(result) -> list:
    """The fields of a ``point`` operation's result: a screen report or a Lyapunov orbit."""
    if hasattr(result, "outcome"):
        return [result.outcome, result.margin, result.stable_clearance, result.grid,
                result.cells, result.message, result.errors, result.edge_faces]
    return [result.point.x, result.point.vx, result.period, *result.multipliers,
            *result.unstable_dir, *result.stable_dir, result.residual]


def probe(checkout: str) -> dict:
    """Times and digests of one side, measured in this interpreter."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from pcr3bp import taylor

    sets = workloads.load_sets()
    stats = workloads.PassStats()
    ops = {w: workloads.build(w, sets, 1, stats, lambda name, fn: fn)[0]
           for w in ("flight", "cover")}
    point = [op.call() for op in workloads.build("point", sets, 1, stats,
                                                 lambda name, fn: fn)]
    kernel = taylor.iv_var_coeffs
    calls = []

    def recording(*args):
        if not calls:
            calls.append(args)
        return kernel(*args)

    taylor.iv_var_coeffs = recording
    image = ops["flight"].call()
    taylor.iv_var_coeffs = kernel
    report = ops["cover"].call()
    args = calls[0]
    ends = [image.x.lo, image.x.hi, image.vx.lo, image.vx.hi,
            *image.dp.lo.ravel(), *image.dp.hi.ravel()]
    return {
        "kernel_s": _best(lambda: kernel(*args)),
        "flight_s": _best(ops["flight"].call),
        "cover_s": _best(ops["cover"].call),
        "flight_digest": _digest(ends),
        "cover_digest": _digest([report.margin, report.stable_clearance]),
        "point_digest": _digest([bit for result in point for bit in _point_bits(result)]),
    }


def run(checkout: Path) -> dict:
    """One probe of ``checkout`` in a fresh interpreter, or an ``error``."""
    out = subprocess.run([sys.executable, __file__, "--probe", str(checkout)],
                         capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        return {"error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def summarize(rounds: list) -> dict:
    """Medians, relative changes and wins of the times; agreement of the digests.

    ``rounds`` holds dicts with the ``parent`` and ``change`` probe of a
    round; rounds in which either side failed are left out.
    """
    done = [r for r in rounds if "error" not in r["parent"] and "error" not in r["change"]]
    if not done:
        return {}
    summary = {"rounds": len(rounds), "failed_rounds": len(rounds) - len(done)}
    for name in TIMES:
        parent = statistics.median(r["parent"][name] for r in done)
        change = statistics.median(r["change"][name] for r in done)
        summary[name] = {
            "parent": parent, "change": change,
            "relative_change": (change - parent) / parent,
            "change_wins": sum(r["change"][name] < r["parent"][name] for r in done),
        }
    for name in DIGESTS:
        summary[name + "_same"] = len({r[side][name] for r in done
                                       for side in ("parent", "change")}) == 1
    return summary


def main(parent_dir: str, change_dir: str) -> int:
    dirs = {"parent": Path(parent_dir).resolve(), "change": Path(change_dir).resolve()}
    rounds, failed = [], 0
    for i in range(1, ROUNDS + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        entry = {"round": i, "first": order[0]}
        for side in order:
            entry[side] = run(dirs[side])
            failed += "error" in entry[side]
            print(f"round {i} {side}: " + entry[side].get("error", "") + " ".join(
                f"{k}={entry[side][k] * 1e3:.2f}ms" for k in TIMES if k in entry[side]),
                file=sys.stderr, flush=True)
        rounds.append(entry)
    summary = summarize(rounds)
    for name in TIMES:
        s = summary.get(name)
        if s:
            print(f"{name}: {s['parent'] * 1e3:.2f} -> {s['change'] * 1e3:.2f} ms "
                  f"({s['relative_change']:+.1%}, {s['change_wins']} of "
                  f"{len(rounds) - summary['failed_rounds']} won)", file=sys.stderr)
    json.dump({"rounds": rounds, "summary": summary}, sys.stdout, indent=1)
    print()
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        print(json.dumps(probe(sys.argv[2])))
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__)
