"""Alternating parent/change pairs of the benchmark, summarised per metric.

Usage (from the repository root)::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR > BENCH_name.json

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts, each with its own
``src/``, ``perfbench/`` and ``BENCHMARK.json``.  For seeds 1-10 and
every workload of the parent's ``BENCHMARK.json``, the tool runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

in both checkouts, the parent first on odd seeds and the change first on
even ones, with ``S`` the ``run_seconds`` of ``BENCHMARK.json``.  It
writes one JSON document to standard output: the ``pairs`` of each
workload, every run's result line, and their ``summary``.  Per workload
and end-to-end metric the summary gives each side's median and
quartiles (``statistics.quantiles``), the pairs the change won and lost
by the metric's ``better`` (ties count for neither), the pairs run and
the failed ones, the change's ``relative_worsening`` of the median
against the metric's ``bound``, the ``parent_iqr``, ``unresolved``: the
parent's interquartile range, relative to its median, is wider than the
bound and not every change run reads better than every parent run, and
``gain_shown``: at least nine tenths of all pairs run won, the medians
apart in the change's favour by more than the parent's interquartile
range, and the change's median ``ops_ok_frac`` no lower than the
parent's.  Progress goes to standard error.  The exit status is 1 if
any run exits non-zero, prints no result or reports a wrong output.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run, with an ``error`` if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        return {"error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"no result line: {lines[-1][:200]}"}
    if not result.get("correct"):
        result["error"] = f"{result.get('failed')} of {result.get('attempted')} operations wrong"
    return result


def _spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """The summary of one workload's pairs for the end-to-end ``metrics``.

    ``pairs`` holds dicts with the ``parent`` and ``change`` result of a
    seed.  Spreads, wins and losses are taken over the pairs whose two
    sides both ran, and fewer than two of those give no summary; the wins
    rule counts every pair run, so a failed pair counts against a gain.
    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    done = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    if len(done) < 2:
        return {}
    got = {m["name"]: {side: [p[side]["metrics"][m["name"]]["value"] for p in done]
                       for side in ("parent", "change")} for m in metrics}
    ok = got.get("ops_ok_frac")
    fails_more = ok is not None and statistics.median(ok["change"]) < statistics.median(ok["parent"])
    summary = {}
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        # a positive gap is the change doing worse
        gaps = [sign * (c - p) for p, c in zip(got[name]["parent"], got[name]["change"])]
        parent, change = _spread(got[name]["parent"]), _spread(got[name]["change"])
        worse = sign * (change["median"] - parent["median"])
        relative = worse / abs(parent["median"]) if parent["median"] else (
            0.0 if worse == 0.0 else float("inf"))
        parent_iqr = parent["q3"] - parent["q1"]
        noise = parent_iqr / abs(parent["median"]) if parent["median"] else (
            0.0 if parent_iqr == 0.0 else float("inf"))
        beats_every_run = (max(sign * v for v in got[name]["change"])
                           < min(sign * v for v in got[name]["parent"]))
        wins = sum(g < 0.0 for g in gaps)
        summary[name] = {
            "parent": parent, "change": change,
            "change_wins": wins, "change_losses": sum(g > 0.0 for g in gaps),
            "pairs": len(pairs), "failed_pairs": len(pairs) - len(done),
            "relative_worsening": relative,
            "bound": m["bound"], "within_bound": relative <= m["bound"],
            "parent_iqr": parent_iqr,
            "unresolved": noise > m["bound"] and not beats_every_run,
            "gain_shown": (wins >= 0.9 * len(pairs) and -worse > parent_iqr
                           and not fails_more),
        }
    return summary


def main(parent_dir: str, change_dir: str) -> int:
    dirs = {"parent": Path(parent_dir).resolve(), "change": Path(change_dir).resolve()}
    spec = json.loads((dirs["parent"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    pairs, summary, failed = {}, {}, 0
    for w in (w["name"] for w in spec["workloads"]):
        pairs[w] = []
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(dirs[side], w, seed, seconds)
                failed += "error" in pair[side]
                print(f"{w} seed {seed} {side}: "
                      + pair[side].get("error", "")
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in pair[side].get("metrics", {}).items()),
                      file=sys.stderr, flush=True)
            pairs[w].append(pair)
        summary[w] = summarize(pairs[w], spec["end_to_end"])
        for name, s in summary[w].items():
            print(f"{w} {name}: {s['parent']['median']:.4g} -> {s['change']['median']:.4g} "
                  f"({s['change_wins']} won, {s['change_losses']} lost of {s['pairs']}; "
                  f"worse by {s['relative_worsening']:+.1%}, bound {s['bound']:.0%}; "
                  f"unresolved: {s['unresolved']}; gain shown: {s['gain_shown']})",
                  file=sys.stderr, flush=True)
    command = "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0"
    json.dump({"command": command, "run_seconds": seconds, "pairs": pairs,
               "summary": summary}, sys.stdout, indent=1)
    print()
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
