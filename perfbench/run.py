"""pcr3bp benchmark: one closed-loop client running a workload on the bundled data.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cover --seed 1 --seconds 15 --trace 0

One process and one thread run whole passes over the workload's
operations (see workloads.py), starting another pass only while it is
expected to end within ``--seconds``; at least one pass always runs.
Every output is checked.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics instead, including the tracing overhead.
Earlier lines, starting with ``#``, give the environment, every operation
and, when traced, the calls and self time of every span.  The full result,
with the spans of a traced run, is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
clock = time.perf_counter


@dataclass
class OpResult:
    label: str
    seconds: float
    cpu_seconds: float
    problems: list


@dataclass
class Pass:
    traced: bool
    ops: list = field(default_factory=list)
    stats: object = None

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup() -> float:
    """Median set-up time over SETUP_SAMPLES fresh interpreters."""
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def import_package():
    """Import pcr3bp from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import pcr3bp

    if Path(pcr3bp.__file__).resolve().parent != SRC / "pcr3bp":
        raise SystemExit(f"pcr3bp imported from {pcr3bp.__file__}, not {SRC}")


def run_pass(workload: str, sets: dict, seed: int, tracer=None) -> Pass:
    """One pass over the workload's operations; spans only when traced."""
    import workloads

    stats = workloads.PassStats()
    wrap = tracer.wrap if tracer else (lambda name, fn: fn)
    done = run_ops(workloads.build(workload, sets, seed, stats, wrap), tracer)
    done.stats = stats
    return done


def run_ops(ops: list, tracer=None) -> Pass:
    """Time each operation, then check its output; an exception fails it."""
    done = Pass(traced=tracer is not None)
    for op in ops:
        call = tracer.wrap(f"op:{op.label}", op.call) if tracer else op.call
        t0, c0 = clock(), time.process_time()
        try:
            with tracer.active() if tracer else nullcontext():
                out = call()
        except Exception as exc:  # a failed operation; the run goes on
            problems = [f"{op.label}: {type(exc).__name__}: {exc}",
                        traceback.format_exc(limit=-3)]
        else:
            problems = None
        seconds, cpu = clock() - t0, time.process_time() - c0
        if problems is None:
            try:
                problems = op.check(out)
            except Exception as exc:
                problems = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
        done.ops.append(OpResult(op.label, seconds, cpu, problems))
        print(f"# op {'traced' if tracer else 'untraced'} {op.label}: "
              f"{seconds:.3f} s {'ok' if not problems else 'FAILED ' + problems[0]}",
              flush=True)
    return done


def run_passes(args, sets, tracer) -> list[Pass]:
    """Whole rounds of passes until another round would overrun ``--seconds``."""
    start = clock()
    passes: list[Pass] = []
    while True:
        round_start = clock()
        passes.append(run_pass(args.workload, sets, args.seed))
        if tracer:
            tracer.install()
            try:
                passes.append(run_pass(args.workload, sets, args.seed, tracer))
            finally:
                tracer.uninstall()
        round_s = clock() - round_start
        if clock() - start + round_s > args.seconds:
            return passes


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    ops = [r for p in passes for r in p.ops]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.seconds for p in passes),
        "op_s_p50": statistics.median(r.seconds for r in ops),
        "ops_ok_frac": sum(not r.problems for r in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes: list[Pass], tracer) -> dict[str, float]:
    import spans
    import workloads

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    out = spans.layer_metrics(tracer.spans, len(traced))
    out.update(workloads.pass_metrics(traced[0].stats))
    traced_s = statistics.median(p.seconds for p in traced)
    untraced_s = statistics.median(p.seconds for p in untraced)
    out["trace.wall_s"] = traced_s
    out["trace.untraced_wall_s"] = untraced_s
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def environment(args) -> dict:
    import numpy as np
    from pcr3bp import taylor

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_enabled": bool(taylor.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (no parent lookup)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the package sources and data, identifying the code run."""
    h = hashlib.sha256()
    pkg = SRC / "pcr3bp"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def emit(spec: list[dict], values: dict[str, float]) -> dict:
    """Metrics in BENCHMARK.json order, each with its unit there."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(
            f"computed metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, extra {sorted(set(values) - set(names))}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_json = ROOT / "BENCHMARK.json"
    if not (SRC / "pcr3bp" / "__init__.py").is_file() or not bench_json.is_file():
        print(f"error: {SRC / 'pcr3bp'} or {bench_json} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(bench_json.read_text())
    import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s = measure_setup() if not args.trace else None
    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    sets = workloads.load_sets()
    tracer = spans.Tracer() if args.trace else None
    passes = run_passes(args, sets, tracer)

    if args.trace:
        metrics = emit(spec["per_layer"], per_layer(passes, tracer))
        table = spans.self_seconds(tracer.spans)
        n_traced = sum(p.traced for p in passes)
        for name, (calls, self_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
            print(f"# span {name}: {calls / n_traced:g} calls/pass, "
                  f"{self_s / n_traced:.4f} s self/pass, "
                  f"{1e3 * self_s / calls:.4f} ms self/call")
    else:
        metrics = emit(spec["end_to_end"], end_to_end(passes, setup_s))
    for name, m in metrics.items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")

    ops = [r for p in passes for r in p.ops]
    failed = sum(bool(r.problems) for r in ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record = dict(result, env=env, ops=[
        {"label": r.label, "traced": p.traced, "seconds": r.seconds,
         "cpu_seconds": r.cpu_seconds, "problems": r.problems} for p in passes for r in p.ops])
    if args.trace:
        record["spans_fields"] = ["name", "start", "end", "parent", "error"]
        record["spans"] = tracer.spans
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print(f"# wrote {out_file.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
