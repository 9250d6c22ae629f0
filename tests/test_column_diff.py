"""The column-by-column comparison of two trees' runs (tools/column_diff.py)."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "column_diff.py"
_spec = importlib.util.spec_from_file_location("column_diff", _PATH)
column_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(column_diff)


def test_relative_difference():
    rd = column_diff.relative_difference
    assert rd("1.0", "1.0") == 0.0 and rd("nan", "nan") == 0.0
    assert rd("0.5", "5e-1") == 0.0
    assert rd("2.0", "1.5") == 0.25 and rd("-1", "1") == 2.0
    assert rd("RECT", "CORPSE") == math.inf and rd("inf", "1.0") == math.inf


def test_table_columns():
    a = "pulse,inv_v,mean_df2\nRECT,0.001,1.0\nRECT,0.01,4.0\n"
    b = "pulse,inv_v,mean_df2\nRECT,0.001,1.0\nRECT,0.01,3.0\n"
    assert column_diff.table_differences(a, b) == {"pulse": 0.0, "inv_v": 0.0,
                                                   "mean_df2": 0.25}
    dat_a = "# inv_v  mean_df\n0.001 2.0\n"
    dat_b = "# inv_v  mean_df\n0.001 1.0\n"
    assert column_diff.table_differences(dat_a, dat_b) == {"inv_v": 0.0, "mean_df": 0.5}
    assert column_diff.table_differences(a, a + "RECT,0.1,9.0\n") == {"<shape>": math.inf}


def test_json_leaves():
    a = '{"seed": 1, "fits": {"RECT": {"slope": 1.0, "excluded": [[0.1, "x"]]}}}'
    b = '{"seed": 1, "fits": {"RECT": {"slope": 0.5, "excluded": [[0.1, "y"]]}}}'
    assert column_diff.json_differences(a, b) == {"fits.RECT.slope": 0.5,
                                                  "fits.RECT.excluded[0][1]": math.inf}
    assert column_diff.json_differences(a, '{"seed": 1}') == {
        "fits.RECT.slope": math.inf, "fits.RECT.excluded[0][0]": math.inf,
        "fits.RECT.excluded[0][1]": math.inf}


def test_compare_reports_each_differing_output(monkeypatch):
    outputs = {
        "a": (0, b"RECT: slope 1.000\n", b"", {"out/scaling.csv": b"x,y\n1,2.0\n",
                                              "out/a.json": b'{"k": 4.0}'}),
        "b": (0, b"RECT: slope 0.500\n", b"", {"out/scaling.csv": b"x,y\n1,1.0\n",
                                              "out/a.json": b'{"k": 4.0}'}),
    }
    monkeypatch.setattr(column_diff.output_digest, "run",
                        lambda args, inputs, src: outputs[src])
    assert column_diff.compare("a", "b", [(["scaling"], {}), (["nogo"], {})]) == [
        "$ pulselab scaling", "  <stdout>: <tokens> 0.5", "  out/scaling.csv: x 0, y 0.5",
        "$ pulselab nogo", "  <stdout>: <tokens> 0.5", "  out/scaling.csv: x 0, y 0.5"]
    assert column_diff.compare("a", "a", [(["scaling"], {})]) == [
        "$ pulselab scaling", "  identical"]


def test_a_tree_against_itself_is_identical():
    src = _PATH.parent.parent / "src"
    assert column_diff.compare(src, src, [(["catalog-validate"], {})]) == [
        "$ pulselab catalog-validate", "  identical"]
