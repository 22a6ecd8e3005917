"""Lines of the package that neither the benchmark nor the tier-1 tests run.

Usage (from the repository root)::

    python3 tools/unreached_lines.py > unreached.txt

The tool traces with ``sys.settrace``, in one interpreter, one pass of
each workload that ``BENCHMARK.json`` names (the operations of
``perfbench/workloads.py`` at seed 1, each called and checked) and then
the tier-1 tests (``pytest tests``, whose output goes to standard
error).  For each module of ``src/pcr3bp`` it prints the count and the
runs of its executable lines that ran in neither.  A module's executable
lines are those that the line tables (``co_lines``) of its code objects
name; a run is a stretch of unreached lines with no line between them
that ran.  Only frames of package files are traced line by line; the
traced run takes about 95 s on a 2-core Xeon where the untraced tests
take 32 s.  The exit status is that of the tests.
"""

import contextlib
import json
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcr3bp"


class LineTrace:
    """A context that records the lines run in the files under one directory.

    ``ran`` maps each resolved file path to the set of its lines that ran.
    The trace function it replaces is put back on exit.
    """

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.ran: dict[str, set[int]] = defaultdict(set)
        self._inside: dict[str, str | None] = {}

    def _key(self, filename: str) -> str | None:
        if filename not in self._inside:
            path = Path(filename).resolve()
            self._inside[filename] = str(path) if path.is_relative_to(self.root) else None
        return self._inside[filename]

    def _trace(self, frame, event, arg):
        key = self._key(frame.f_code.co_filename)
        if key is None:
            return None
        ran = self.ran[key]
        ran.add(frame.f_lineno)

        def line(frame, event, arg):
            ran.add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        sys.settrace(self._trace)
        threading.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def executable_lines(path) -> set[int]:
    """The lines that the line tables of a source file's code objects name."""
    lines = set()
    todo = [compile(Path(path).read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def unreached(root, ran) -> dict[str, list[list[int]]]:
    """Per module under ``root``, its unreached executable lines in runs.

    ``ran`` is :attr:`LineTrace.ran`.  A run holds unreached lines with no
    line between them that ran.  Modules are keyed by their path relative
    to ``root``.
    """
    root = Path(root).resolve()
    out = {}
    for path in sorted(root.rglob("*.py")):
        done = ran.get(str(path), set())
        runs = [[]]
        for line in sorted(executable_lines(path)):
            if line not in done:
                runs[-1].append(line)
            elif runs[-1]:
                runs.append([])
        out[str(path.relative_to(root))] = [r for r in runs if r]
    return out


def report(found: dict[str, list[list[int]]]) -> str:
    """One line per module: how many lines it leaves unreached, and their runs."""
    lines = []
    for module, runs in found.items():
        shown = ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)
        lines.append(f"{module}: {sum(map(len, runs))} unreached" + (f": {shown}" if runs else ""))
    return "\n".join(lines)


def run_workloads() -> list:
    """One checked pass of each benchmark workload; the problems found."""
    import workloads

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    sets = workloads.load_sets()
    stats = workloads.PassStats()
    problems = []
    for name in names:
        for op in workloads.build(name, sets, 1, stats, lambda _, fn: fn):
            problems += [f"{op.label}: {p}" for p in op.check(op.call())]
    return problems


def main() -> int:
    import pytest

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with LineTrace(PACKAGE) as trace:
        problems = run_workloads()
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    for problem in problems:
        print(f"workload check failed: {problem}", file=sys.stderr)
    print(report(unreached(PACKAGE, trace.ran)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
