"""The relation table's link walk (without flights), the table comparison, the
code-line count and the summary of benchmark pairs (on made-up runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

from pcr3bp import symbolic
from pcr3bp.symbolic import standard_sets

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_relation_table_walks_the_sixteen_shipped_relations(monkeypatch):
    table = load("relation_table")

    def refuse(*args, **kwargs):
        raise AssertionError("the link walk flew")

    for module, name in ((table, "check_cover"), (table, "section_map"),
                         (symbolic, "apply_parallelogram_rigorous"),
                         (symbolic, "apply_chain_lanes")):
        monkeypatch.setattr(module, name, refuse)
    found = table.relations(standard_sets())
    got = {name: [t.name for t in tags] for name, (_, _, tags) in found.items()}
    assert got == {
        "G0=>G1": ["Ph+"], "G1=>G2": ["Ph-"], "G2=>G3": ["Ph+"], "G3=>G4": ["Ph-"],
        "V0=>V1": ["Ph+"], "V1=>V2": ["Ph-"], "V2=>V3": ["Ph+"], "V3=>V4": ["Ph-"],
        "R(G4)=>R(G3)": ["Ph+"], "R(G3)=>R(G2)": ["Ph-"],
        "R(G2)=>R(G1)": ["Ph+"], "R(G1)=>R(G0)": ["Ph-"],
        "R(V4)=>R(V3)": ["Ph+"], "R(V3)=>R(V2)": ["Ph-"],
        "R(V2)=>R(V1)": ["Ph+"], "R(V1)=>R(V0)": ["Ph-"],
    }
    for name, (source, target, _) in found.items():
        assert name == f"{source.name}=>{target.name}"


def test_compare_tables_flags_a_row_whose_maps_changed(tmp_path, capsys):
    compare = load("compare_tables")
    row = {"relation": "G0=>G1", "grid": [4, 1], "max_grid": [512, 16],
           "maps": ["Ph+"], "outcome": "verified", "margin_hex": "0x1.0p-1",
           "stable_clearance_hex": "0x1.0p-2", "evaluations": 4, "cpu_s": 1.0}
    paths = []
    for maps in (["Ph+"], ["Ph+"], ["Ph+", "P-"]):
        path = tmp_path / f"table{len(paths)}.json"
        path.write_text(json.dumps({"rows": [{**row, "maps": maps}]}))
        paths.append(str(path))
    assert compare.main(paths[0], paths[1]) == 0
    assert compare.main(paths[0], paths[2]) == 1
    assert "DIFFERS  maps: ['Ph+'] | ['Ph+', 'P-']" in capsys.readouterr().out


def test_code_lines_leave_out_blank_comment_and_docstring_lines(tmp_path, capsys):
    source = '''"""Module docstring
over two lines."""

import os  # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    s = """a string,
not a docstring"""
    return s


class C:
    """Class docstring."""
'''
    (tmp_path / "m.py").write_text(source)
    assert load("code_lines").main(str(tmp_path)) == 0
    # import, def, the two lines of s, return and class
    assert capsys.readouterr().out.splitlines() == [
        "    16      6  m.py", "    16      6  total (lines, code lines)"]


def _result(**values):
    return {"correct": True, "attempted": 5, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


METRICS = [{"name": "op_s_p50", "better": "lower", "bound": 0.25},
           {"name": "ops_ok_frac", "better": "higher", "bound": 0.05}]


def test_bench_pairs_summary_counts_wins_by_each_metrics_direction():
    pairs = load("bench_pairs")
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.9]  # a tie last
    runs = [{"seed": i + 1, "parent": _result(op_s_p50=p, ops_ok_frac=1.0),
             "change": _result(op_s_p50=c, ops_ok_frac=0.9 if i < 2 else 1.0)}
            for i, (p, c) in enumerate(zip(parent, change))]
    got = pairs.summarize(runs, METRICS)
    op = got["op_s_p50"]
    assert op["parent"]["median"] == 1.45 and op["change"]["median"] == 0.95
    assert (op["parent"]["q1"], op["parent"]["q3"]) == pytest.approx((1.175, 1.725))
    assert op["parent_iqr"] == pytest.approx(0.55)
    assert (op["change_wins"], op["change_losses"], op["pairs"], op["failed_pairs"]) \
        == (9, 0, 10, 0)
    assert op["relative_worsening"] == pytest.approx(-0.5 / 1.45)
    assert op["within_bound"] and not op["gain_shown"]  # 0.5 apart, IQR 0.55
    # the parent's IQR is 38 % of its median, wider than the 25 % bound
    assert op["unresolved"]
    ok = got["ops_ok_frac"]
    assert (ok["change_wins"], ok["change_losses"]) == (0, 2)
    assert ok["relative_worsening"] == 0.0 and ok["within_bound"]
    assert not ok["unresolved"]
    # a wider gap shows the gain, unresolved while the tie's run reads no
    # better than every parent run
    for r, c in zip(runs, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]):
        r["change"]["metrics"]["op_s_p50"]["value"] = c
    op = pairs.summarize(runs, METRICS)["op_s_p50"]
    assert op["gain_shown"] and op["unresolved"]
    # a failed pair counts among the pairs run: 9 won of 11 is too few
    runs.append({"seed": 11, "parent": _result(op_s_p50=9.0, ops_ok_frac=1.0),
                 "change": {"error": "exit 1: boom"}})
    op = pairs.summarize(runs, METRICS)["op_s_p50"]
    assert (op["change_wins"], op["pairs"], op["failed_pairs"]) == (9, 11, 1)
    assert not op["gain_shown"]
    runs.pop()
    runs[-1]["change"]["metrics"]["op_s_p50"]["value"] = 0.95
    op = pairs.summarize(runs, METRICS)["op_s_p50"]
    assert op["gain_shown"] and not op["unresolved"]
    # so does a change that fails more operations than the parent
    for r in runs[:6]:
        r["change"]["metrics"]["ops_ok_frac"]["value"] = 0.9
    assert not pairs.summarize(runs, METRICS)["op_s_p50"]["gain_shown"]
    # one more tie leaves 9 of 10 won
    for r in runs[:6]:
        r["change"]["metrics"]["ops_ok_frac"]["value"] = 1.0
    runs[0]["change"]["metrics"]["op_s_p50"]["value"] = 1.0
    assert pairs.summarize(runs, METRICS)["op_s_p50"]["gain_shown"]
    runs[1]["change"]["metrics"]["op_s_p50"]["value"] = 1.1
    assert not pairs.summarize(runs, METRICS)["op_s_p50"]["gain_shown"]


def test_bench_pairs_alternate_sides_and_fail_on_a_failed_run(tmp_path, monkeypatch, capsys):
    pairs = load("bench_pairs")
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 3, "workloads": [{"name": "point"}], "end_to_end": METRICS}))
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        if (checkout.name, seed) == ("change", 10):
            return {"error": "exit 1: boom"}
        return _result(op_s_p50=1.0 + seed, ops_ok_frac=1.0)

    monkeypatch.setattr(pairs, "run", fake)
    assert pairs.main(str(tmp_path / "parent"), str(tmp_path / "change")) == 1
    assert calls[:4] == [("parent", "point", 1, 3), ("change", "point", 1, 3),
                         ("change", "point", 2, 3), ("parent", "point", 2, 3)]
    assert len(calls) == 20
    doc = json.loads(capsys.readouterr().out)
    assert [p["first"] for p in doc["pairs"]["point"]][:2] == ["parent", "change"]
    assert doc["summary"]["point"]["op_s_p50"]["failed_pairs"] == 1
