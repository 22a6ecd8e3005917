"""The relation table's link walk (without flights), the table comparison and the
code-line count."""

import importlib.util
import json
from pathlib import Path

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
