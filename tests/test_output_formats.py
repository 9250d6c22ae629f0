"""The layouts of the files the CLI writes under --out, pinned.

One tiny exponential configuration runs every subcommand that writes a run
file.  The headers and key orders below are the layouts README's "Files
written" table documents, so a column or key is added here on purpose.
Every number is written so that it reads back to the same float.
"""

import json
import math

import pytest

from pulselab.cli import main

EXP = ["--model", "exponential", "--gamma", "0.01"]
CELLS = ["--realizations", "800", "--steps", "32", "--seed", "1"]

SCALING_HEADER = ("pulse,inv_v,mean_df2,stderr_df2,mean_df,partial_x,partial_y,partial_z,"
                  "polarization_dev,realizations")
PREFACTOR_HEADER = "inv_v,measured_df2,stderr_df2,predicted_df2,ratio,ratio_err"
DAT_HEADER = "# inv_v  mean_df  stderr_df"
FIT_DAT_HEADER = "# inv_v  fitted_df"

SUMMARY_KEYS = ["model", "seed", "realizations", "steps_per_pulse", "fit_window", "fits"]
MODEL_KEYS = ["kind", "g0", "gamma", "eta0"]
FIT_KEYS = ["slope", "slope_err", "intercept", "intercept_err", "n_used", "excluded"]
NOGO_KEYS = ["pulse", "grid_n", "quad_a_cos", "quad_a_sin", "b_norm_cos", "b_norm_sin",
             "i32_kernel", "i32_discrete", "identity_residual"]
NOISE_KEYS = ["max_cov_sigma", "max_mean_sigma", "realizations", "steps"]


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    for args in (
            # 0.1 lies outside the exponential fit window, so `excluded` is not empty
            ["scaling", *EXP, "--pulses", "rect,corpse", "--inv-v", "1e-3,3e-3,1e-2,1e-1",
             *CELLS],
            ["prefactor", *EXP, "--inv-v", "1e-3,1e-2", *CELLS],
            ["nogo", "--pulse", "corpse", "--grid", "64", *EXP],
            ["nogo", "--pulse", "scorpse", "--grid", "64"],
            ["noise-validate", *EXP, "--steps", "8", "--realizations", "1000"]):
        assert main(args + ["--out", str(out)]) == 0
    return out


def _table(path):
    """The header line and the rows of a CSV or .dat file, as strings."""
    lines = path.read_text(encoding="utf-8").splitlines()
    sep = " " if path.suffix == ".dat" else ","
    return lines[0], [line.split(sep) for line in lines[1:]]


def _round_trip(token: str) -> float:
    assert repr(float(token)) == token
    return float(token)


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"), parse_float=_round_trip)


def test_files_written(out):
    assert sorted(p.name for p in out.iterdir()) == [
        "corpse.dat", "corpse_fit.dat", "nogo_corpse.json", "nogo_scorpse.json",
        "noise_validate.json", "prefactor_corpse.csv", "rect.dat", "rect_fit.dat",
        "scaling.csv", "summary.json"]


def test_table_headers(out):
    assert _table(out / "scaling.csv")[0] == SCALING_HEADER
    assert _table(out / "prefactor_corpse.csv")[0] == PREFACTOR_HEADER
    for name in ("rect", "corpse"):
        assert _table(out / f"{name}.dat")[0] == DAT_HEADER
        assert _table(out / f"{name}_fit.dat")[0] == FIT_DAT_HEADER


def test_json_key_order(out):
    summary = _json(out / "summary.json")
    assert list(summary) == SUMMARY_KEYS
    assert list(summary["model"]) == MODEL_KEYS
    assert list(summary["fits"]) == ["RECT", "CORPSE"]
    for fit in summary["fits"].values():
        assert list(fit) == FIT_KEYS
        assert fit["excluded"] == [[0.1, "outside fit window"]]
    corpse, scorpse = _json(out / "nogo_corpse.json"), _json(out / "nogo_scorpse.json")
    assert list(corpse) == list(scorpse) == NOGO_KEYS
    assert corpse["pulse"] == "CORPSE" and scorpse["i32_discrete"] is None
    assert list(_json(out / "noise_validate.json")) == NOISE_KEYS


def test_every_number_round_trips(out):
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            _json(path)   # parse_float checks each float
            continue
        _, rows = _table(path)
        assert rows
        for row in rows:
            if path.name == "scaling.csv":
                assert row[0] in ("RECT", "CORPSE") and str(int(row[-1])) == row[-1]
                row = row[1:-1]
            for token in row:
                assert math.isfinite(_round_trip(token))


def test_dat_columns_follow_the_csv(out):
    _, rows = _table(out / "scaling.csv")
    header = SCALING_HEADER.split(",")
    for name in ("RECT", "CORPSE"):
        cells = [dict(zip(header, row)) for row in rows if row[0] == name]
        _, dat = _table(out / f"{name.lower()}.dat")
        assert len(dat) == len(cells) == 4
        for (inv_v, mean_df, stderr_df), cell in zip(dat, cells):
            assert (inv_v, mean_df) == (cell["inv_v"], cell["mean_df"])
            # the delta-method error of sqrt(mean DF^2), to the bit
            assert float(stderr_df) == float(cell["stderr_df2"]) / (2.0 * float(mean_df))


def test_fit_dat_is_the_fitted_line_at_the_window_ends(out):
    summary = _json(out / "summary.json")
    for name, fit in summary["fits"].items():
        _, rows = _table(out / f"{name.lower()}_fit.dat")
        assert [float(x) for x, _ in rows] == summary["fit_window"]
        for x, fitted in rows:
            assert float(fitted) == 10 ** (fit["intercept"]
                                           + fit["slope"] * math.log10(float(x)))


def test_prefactor_ratio_columns(out):
    _, rows = _table(out / "prefactor_corpse.csv")
    assert [row[0] for row in rows] == ["0.001", "0.01"]
    for _, measured, stderr, predicted, ratio, ratio_err in rows:
        assert float(ratio) == float(measured) / float(predicted)
        assert float(ratio_err) == float(stderr) / float(predicted)
