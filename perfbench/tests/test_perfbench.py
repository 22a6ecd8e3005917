"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
``traced`` runs one traced pass of every workload, about 40 s on a 2-core
Xeon; the other tests take a few seconds.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from pcr3bp import integrator, poincare, symbolic
from pcr3bp.poincare import HALF_PLUS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Spans each workload must record at least once per pass.
EXERCISED = {
    "cover": (
        "taylor.iv_var_coeffs", "taylor.iv_coeffs", "taylor.point_coeffs",
        "taylor.horner", "dynamics.vector_field_iv",
        "dynamics.vector_field_jacobian_iv", "integrator.attempt_step",
        "integrator.commit", "integrator.lohner_section_crossings",
        "poincare.apply_parallelogram_rigorous", "symbolic.map_fn",
        "hset.check_cover",
    ),
    "flight": (
        "taylor.iv_var_coeffs", "taylor.iv_coeffs", "taylor.point_coeffs",
        "taylor.horner", "dynamics.vector_field_iv",
        "dynamics.vector_field_jacobian_iv", "integrator.attempt_step",
        "integrator.commit", "integrator.lohner_section_crossings",
        "poincare.apply_parallelogram_rigorous",
    ),
    "point": (
        "taylor.point_coeffs", "taylor.point_var_coeffs", "taylor.horner",
        "integrator.PointFlow.step", "poincare.apply_chain",
        "poincare.apply_map", "poincare.chain_derivative",
        "poincare.lyapunov_fixed_point", "symbolic.point_map",
        "hset.check_cover_pointwise",
    ),
}
INTERVAL_SPANS = (
    "taylor.iv_var_coeffs", "taylor.iv_coeffs", "dynamics.vector_field_iv",
    "dynamics.vector_field_jacobian_iv", "integrator.attempt_step",
    "poincare.apply_parallelogram_rigorous",
)


def test_install_patches_every_lookup():
    originals = {
        "lsc": integrator.lohner_section_crossings,
        "apr": poincare.apply_parallelogram_rigorous,
        "chain": poincare.apply_chain,
        "step": integrator.LohnerFlow.attempt_step,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        # names imported into other modules are patched too
        assert poincare.lohner_section_crossings is integrator.lohner_section_crossings
        assert poincare.lohner_section_crossings is not originals["lsc"]
        assert symbolic.apply_parallelogram_rigorous is poincare.apply_parallelogram_rigorous
        assert symbolic.apply_parallelogram_rigorous is not originals["apr"]
        assert symbolic.apply_chain is not originals["chain"]
        assert integrator.LohnerFlow.attempt_step is not originals["step"]
        patched = {id(v) for v in originals.values()}
        for module in spans._package_modules():
            for key, value in vars(module).items():
                assert id(value) not in patched, f"{module.__name__}.{key} unpatched"
    finally:
        tracer.uninstall()
    assert poincare.lohner_section_crossings is originals["lsc"]
    assert symbolic.apply_parallelogram_rigorous is originals["apr"]
    assert integrator.LohnerFlow.attempt_step is originals["step"]


def test_self_time_subtracts_direct_children():
    # op [0, 10] > attempt_step [1, 5] > iv_var_coeffs [2, 3]; iv_var_coeffs [6, 8]
    s = [
        ["op:x", 0.0, 10.0, -1, None],
        ["integrator.attempt_step", 1.0, 5.0, 0, "EnclosureError"],
        ["taylor.iv_var_coeffs", 2.0, 3.0, 1, None],
        ["taylor.iv_var_coeffs", 6.0, 8.0, 0, None],
    ]
    m = spans.layer_metrics(s, passes=1)
    assert m["integrator.attempt_step.self_frac"] == pytest.approx(0.3)
    assert m["taylor.iv_var_coeffs.self_frac"] == pytest.approx(0.3)
    assert m["taylor.iv_var_coeffs.calls"] == 2
    assert m["integrator.attempt_step.errors"] == 1
    assert m["integrator.iv_var_per_attempt"] == 1.0
    assert spans.self_seconds(s)["op:x"] == (1, pytest.approx(4.0))


def test_map_error_fails_the_cover_op(monkeypatch):
    # Ph+ does not apply on G1's side of the section: every map call
    # raises DomainError and check_cover comes back undecided at once.
    monkeypatch.setitem(workloads.LINKS, "G1-G2", ("G1", "G2", HALF_PLUS))
    stats = workloads.PassStats()
    op = workloads.cover_op("G1-G2", workloads.load_sets(), stats, lambda n, f: f)
    done = run.run_ops([op])
    (result,) = done.ops
    assert result.problems and "DomainError" in result.problems[0]
    assert stats.cell_errors["DomainError"] >= 1


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def traced():
    """One traced pass per workload; a stub stands in for the untraced pass."""
    sets = workloads.load_sets()
    out = {}
    for name in workloads.WORKLOADS:
        tracer = spans.Tracer()
        passes = [run.Pass(traced=False, ops=[run.OpResult("stub", 1.0, 1.0, [])])]
        tracer.install()
        try:
            passes.append(run.run_pass(name, sets, seed=1, tracer=tracer))
        finally:
            tracer.uninstall()
        out[name] = (passes[1], run.per_layer(passes, tracer))
    return out


def test_traced_passes_are_correct(traced):
    for name, (done, _) in traced.items():
        assert all(not r.problems for r in done.ops), (name, done.ops)


def test_every_span_counted_on_its_workload(traced):
    assert set().union(*EXERCISED.values()) == set(spans.SPAN_NAMES)
    for name, names in EXERCISED.items():
        metrics = traced[name][1]
        for span in names:
            assert metrics[f"{span}.calls"] > 0, (name, span)
            assert metrics[f"{span}.self_frac"] > 0.0, (name, span)


def test_per_layer_metrics_match_benchmark_json(traced):
    names = {m["name"] for m in SPEC["per_layer"]}
    for _, metrics in traced.values():
        assert set(metrics) == names


def test_layer_ratios(traced):
    cover, flight, point = (traced[w][1] for w in ("cover", "flight", "point"))
    assert cover["symbolic.flights_per_cell"] == 2.0
    assert cover["hset.cells"] == 3  # one cell and two exit edges
    for span in INTERVAL_SPANS:
        assert point[f"{span}.calls"] == 0
    for m in (cover, flight):
        assert 0.9 < m["integrator.step_accept_ratio"] <= 1.0
        assert m["integrator.iv_var_per_attempt"] >= 2.0
        assert m["poincare.steps_per_flight"] > 10
    assert flight["hset.check_cover.calls"] == 0
    assert flight["symbolic.map_fn.calls"] == 0
    assert cover["hset.cover_margin_min"] > 0.0
    assert flight["poincare.image_width_a"] > 1.0
