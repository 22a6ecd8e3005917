"""In-memory spans around the public functions of each pcr3bp layer.

The traced functions are patched where their callers look them up: on the
module that defines them, in every ``pcr3bp`` module that imported them by
name, and on the class for methods.  Each call made while tracing is on
records one span ``[name, start, end, parent, error]``; ``parent`` is the
index of the enclosing span (-1 at the root), so the spans of one
operation share the root span the benchmark opens around it.

``intervals`` has no spans: wrapping the ``Interval`` operators would cost
more than they do, so their time shows up in their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (span name, module, attribute) of every patched function.  The four
# Horner evaluators share one span name.
PATCHED = (
    ("taylor.iv_var_coeffs", "pcr3bp.taylor", "iv_var_coeffs"),
    ("taylor.iv_coeffs", "pcr3bp.taylor", "iv_coeffs"),
    ("taylor.point_coeffs", "pcr3bp.taylor", "point_coeffs"),
    ("taylor.point_var_coeffs", "pcr3bp.taylor", "point_var_coeffs"),
    ("taylor.horner", "pcr3bp.taylor", "horner_point"),
    ("taylor.horner", "pcr3bp.taylor", "horner_var_point"),
    ("taylor.horner", "pcr3bp.taylor", "horner_iv"),
    ("taylor.horner", "pcr3bp.taylor", "horner_var_iv"),
    ("dynamics.vector_field_iv", "pcr3bp.dynamics", "vector_field_iv"),
    ("dynamics.vector_field_jacobian_iv", "pcr3bp.dynamics",
     "vector_field_jacobian_iv"),
    ("integrator.attempt_step", "pcr3bp.integrator", "LohnerFlow.attempt_step"),
    ("integrator.commit", "pcr3bp.integrator", "LohnerFlow.commit"),
    ("integrator.lohner_section_crossings", "pcr3bp.integrator",
     "lohner_section_crossings"),
    ("integrator.PointFlow.step", "pcr3bp.integrator", "PointFlow.step"),
    ("poincare.apply_parallelogram_rigorous", "pcr3bp.poincare",
     "apply_parallelogram_rigorous"),
    ("poincare.apply_chain", "pcr3bp.poincare", "apply_chain"),
    ("poincare.apply_map", "pcr3bp.poincare", "apply_map"),
    ("poincare.chain_derivative", "pcr3bp.poincare", "chain_derivative"),
    ("poincare.lyapunov_fixed_point", "pcr3bp.poincare", "lyapunov_fixed_point"),
    ("hset.check_cover", "pcr3bp.hset", "check_cover"),
    ("hset.check_cover_pointwise", "pcr3bp.hset", "check_cover_pointwise"),
)

# Callables that ``symbolic`` builds and returns: the workloads wrap them
# with Tracer.wrap where they receive them.
RETURNED = ("symbolic.map_fn", "symbolic.point_map")

SPAN_NAMES = tuple(dict.fromkeys([p[0] for p in PATCHED] + list(RETURNED)))

NAME, START, END, PARENT, ERROR = range(5)


class Tracer:
    """Records spans of the wrapped calls while ``enabled`` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    @contextmanager
    def active(self):
        """Record the calls made inside the block."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def install(self) -> None:
        """Patch every function in PATCHED wherever pcr3bp looks it up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module_name, attr in PATCHED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for holder in _package_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def _patch(self, holder, key: str, traced) -> None:
        self._patches.append((holder, key, vars(holder)[key]))
        setattr(holder, key, traced)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "pcr3bp" or n.startswith("pcr3bp."))]


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer counts, self-time shares and ratios over ``passes`` passes.

    Counts are per pass.  A span's self time is its duration minus the
    durations of its direct children; ``self_frac`` is the summed self
    time of a name over the summed duration of the root spans.
    """
    calls: Counter = Counter()
    self_t: Counter = Counter()
    errors: Counter = Counter()
    root_t = 0.0
    for s, own in zip(spans, _self_times(spans)):
        calls[s[NAME]] += 1
        self_t[s[NAME]] += own
        if s[ERROR] is not None:
            errors[s[NAME]] += 1
        if s[PARENT] < 0:
            root_t += s[END] - s[START]

    def under(name: str, parent: str, anywhere: bool = False) -> int:
        """Spans called ``name`` whose parent (or any ancestor) is ``parent``."""
        n = 0
        for s in spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            while p >= 0:
                if spans[p][NAME] == parent:
                    n += 1
                    break
                p = spans[p][PARENT] if anywhere else -1
        return n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_frac"] = ratio(self_t[name], root_t)
    attempts = calls["integrator.attempt_step"]
    flights = calls["poincare.apply_parallelogram_rigorous"]
    out["integrator.attempt_step.errors"] = errors["integrator.attempt_step"] / passes
    out["integrator.step_accept_ratio"] = ratio(calls["integrator.commit"], attempts)
    out["integrator.iv_var_per_attempt"] = ratio(
        under("taylor.iv_var_coeffs", "integrator.attempt_step"), attempts)
    out["poincare.steps_per_flight"] = ratio(
        under("integrator.commit", "poincare.apply_parallelogram_rigorous",
              anywhere=True), flights)
    out["symbolic.flights_per_cell"] = ratio(
        under("poincare.apply_parallelogram_rigorous", "symbolic.map_fn"),
        calls["symbolic.map_fn"])
    return out


def self_seconds(spans: list[list]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)`` over all spans, for the report."""
    calls: Counter = Counter()
    self_t: Counter = Counter()
    for s, own in zip(spans, _self_times(spans)):
        calls[s[NAME]] += 1
        self_t[s[NAME]] += own
    return {name: (calls[name], self_t[name]) for name in calls}


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
