"""Tests for the scaling harness: fits, reproducibility, serialization."""

import json
import math

import numpy as np
import pytest

from pulselab import (AutocorrelationModel, InsufficientPoints, NotFirstOrder,
                      ScalingExperimentConfig, evaluate_i32, fit_exponent,
                      run_convergence_check, run_prefactor_check, run_scaling,
                      verify_nogo)

EXP = AutocorrelationModel("exponential", gamma=0.01)
GAUSS = AutocorrelationModel("gaussian", gamma=0.1)


def small_config(**kw):
    base = dict(
        pulses=("RECT", "CORPSE"),
        model=EXP,
        inv_v_grid=tuple(np.geomspace(1e-3, 3e-2, 5)),
        realizations=3000,
        steps_per_pulse=96,
        seed=42,
        chunk_size=1024,
    )
    base.update(kw)
    return ScalingExperimentConfig(**base)


class TestFitExponent:
    def test_exact_power_law(self):
        xs = np.geomspace(1e-3, 1e-1, 8)
        pts = [(x, (0.7 * x**2) ** 2, 1e-9 * (0.7 * x**2) ** 2) for x in xs]
        fit = fit_exponent(pts, (1e-3, 1e-1))
        np.testing.assert_allclose(fit.slope, 2.0, atol=1e-10)
        assert fit.slope_err < 1e-10
        assert fit.n_used == 8

    def test_noisy_three_halves(self):
        rng = np.random.default_rng(8)
        xs = np.geomspace(1e-3, 1e-1, 8)
        df = 0.3 * xs**1.5 * np.exp(rng.normal(0, 0.01, xs.size))
        pts = [(x, d * d, 0.02 * d * d) for x, d in zip(xs, df)]
        fit = fit_exponent(pts, (1e-3, 1e-1))
        assert abs(fit.slope - 1.5) < 0.03

    def test_exclusion_rule(self):
        xs = np.geomspace(1e-3, 1e-1, 8)
        pts = [(x, (0.7 * x**2) ** 2, 1e-9) for x in xs]
        clean = fit_exponent(pts, (1e-3, 1e-1))
        # add one garbage point with 50% relative stderr on DF^2
        bad = (0.01 * 1.11, 1.0, 0.5)
        fit = fit_exponent(pts + [bad], (1e-3, 1e-1))
        assert any("relative stderr" in reason for _, reason in fit.excluded)
        np.testing.assert_allclose(fit.slope, clean.slope, atol=1e-3)

    def test_window_filtering(self):
        xs = np.geomspace(1e-4, 1.0, 10)
        pts = [(x, x**2, 1e-9 * x**2) for x in xs]
        fit = fit_exponent(pts, (1e-3, 1e-1))
        assert fit.n_used == sum(1e-3 <= x <= 1e-1 for x in xs)

    def test_insufficient_points(self):
        pts = [(1e-3, 1.0, 1e-9), (1e-2, 1.0, 1e-9)]
        with pytest.raises(InsufficientPoints):
            fit_exponent(pts, (1e-3, 1e-1))


class TestRunScaling:
    def test_known_exponents_small_scale(self):
        res = run_scaling(small_config())
        assert abs(res.fits["RECT"].slope - 1.0) < 0.05
        assert abs(res.fits["CORPSE"].slope - 1.5) < 0.05

    def test_bit_reproducible(self):
        r1 = run_scaling(small_config())
        r2 = run_scaling(small_config())
        for a, b in zip(r1.cells, r2.cells):
            assert a.estimate.mean_df2 == b.estimate.mean_df2
            assert a.estimate.stderr_df2 == b.estimate.stderr_df2
            assert a.poldev.mean_df2 == b.poldev.mean_df2

    def test_worker_count_invariance(self):
        r1 = run_scaling(small_config(workers=1))
        r2 = run_scaling(small_config(workers=2))
        for a, b in zip(r1.cells, r2.cells):
            assert a.estimate.mean_df2 == b.estimate.mean_df2
        # every column of every exponential cell, not only mean DF^2
        assert r1.csv_text() == r2.csv_text()

    def test_fit_records_excluded_points(self):
        res = run_scaling(small_config(inv_v_grid=(1e-3, 3e-3, 1e-2, 3e-2, 0.1)))
        for fit in res.fits.values():
            assert fit.n_used == 4
            assert fit.excluded == ((0.1, "outside fit window"),)

    def test_polarization_column_is_y_partial(self):
        res = run_scaling(small_config())
        header = res.CSV_HEADER.split(",")
        y, pol = header.index("partial_y"), header.index("polarization_dev")
        for line in res.csv_text().strip().splitlines()[1:]:
            fields = line.split(",")
            assert fields[pol] == fields[y]

    def test_csv_rows_parse_finite(self):
        res = run_scaling(small_config())
        lines = res.csv_text().strip().splitlines()
        assert lines[0].startswith("pulse,inv_v,mean_df2")
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] in ("RECT", "CORPSE")
            for tok in fields[1:]:
                assert math.isfinite(float(tok))

    def test_write_outputs(self, tmp_path):
        res = run_scaling(small_config())
        res.write(str(tmp_path))
        assert (tmp_path / "scaling.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "RECT" in summary["fits"]
        dat = (tmp_path / "rect.dat").read_text().strip().splitlines()
        assert len(dat) == 6  # header + 5 points
        assert (tmp_path / "rect_fit.dat").exists()

    def test_insufficient_points_propagates(self):
        cfg = small_config(inv_v_grid=(1e-3, 1e-2))
        with pytest.raises(InsufficientPoints):
            run_scaling(cfg)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_config(inv_v_grid=(1e-2, 1e-3))
        with pytest.raises(ValueError):
            small_config(chunk_size=0)
        with pytest.raises(ValueError):
            small_config(fit_window=(3e-2, 1e-3))
        with pytest.raises(ValueError):
            small_config(workers=0)


class TestPrefactorCheck:
    def test_corpse_ratio_near_unity(self):
        rows = run_prefactor_check("CORPSE", EXP, [3e-3, 1e-2],
                                   realizations=8000, steps_per_pulse=256, seed=7)
        for row in rows:
            assert abs(row.measured_df2 - row.predicted_df2) < 4 * row.stderr_df2
            pred = 4.0 * math.pi * EXP.g0**2 * EXP.gamma * row.inv_v**3
            np.testing.assert_allclose(row.predicted_df2, pred, rtol=1e-12)

    def test_prediction_is_four_thirds_of_i32(self, catalog):
        # any first-order shape: the prediction comes from its kernel K
        inv_vs = (3e-3, 1e-2)
        rows = run_prefactor_check("SYM2ND", EXP, inv_vs, realizations=200,
                                   steps_per_pulse=64, seed=5)
        base = catalog["SYM2ND"]
        assert [r.predicted_df2 for r in rows] == [
            4.0 / 3.0 * evaluate_i32(base.for_inverse_amplitude(v), EXP) for v in inv_vs]

    def test_matches_scaling_cells(self):
        # one cell runner and one stream layout: cell k of a one-pulse sweep
        # is the prefactor check's k-th 1/v, bit for bit
        inv_vs = (3e-3, 1e-2, 3e-2)
        rows = run_prefactor_check("CORPSE", EXP, inv_vs, realizations=5000,
                                   steps_per_pulse=64, seed=11)
        res = run_scaling(ScalingExperimentConfig(
            pulses=("CORPSE",), model=EXP, inv_v_grid=inv_vs, realizations=5000,
            steps_per_pulse=64, seed=11, chunk_size=4096))
        assert [(r.inv_v, r.measured_df2, r.stderr_df2) for r in rows] == [
            (c.inv_v, c.estimate.mean_df2, c.estimate.stderr_df2) for c in res.cells]

    def test_rejects_unsupported_inputs(self):
        with pytest.raises(ValueError):
            run_prefactor_check("RECT", EXP, [1e-2], 100)
        with pytest.raises(ValueError):
            run_prefactor_check("CORPSE", GAUSS, [1e-2], 100)
        # gamma = 0 predicts a zero cubic law: every ratio would divide by 0
        with pytest.raises(ValueError):
            run_prefactor_check("CORPSE", AutocorrelationModel("exponential"), [1e-2], 100)

    @pytest.mark.parametrize("inv_vs, realizations", [
        ([1e-2, 1e-2], 100),        # one 1/v twice
        ([1e-2, 3e-3], 100),        # not increasing
        ([3e-3, 1e-2], 1),          # no standard error from one realization
    ], ids=["repeated", "unsorted", "one-realization"])
    def test_sweep_config_rules_apply(self, monkeypatch, inv_vs, realizations):
        # the sweep's config refuses these before any cell is drawn
        monkeypatch.setattr("pulselab.harness._run_cell", None)
        with pytest.raises(ValueError):
            run_prefactor_check("CORPSE", EXP, inv_vs, realizations)

    def test_first_order_rule_is_shared(self, catalog):
        # one rule and one exception type for the prefactor and no-go checks
        for check in (lambda: run_prefactor_check("RECT", EXP, [1e-2], 100),
                      lambda: verify_nogo(catalog["RECT"], 64)):
            with pytest.raises(NotFirstOrder) as info:
                check()
            assert isinstance(info.value, ValueError)


class TestConvergenceCheck:
    def test_nested_odd_refinement(self):
        rep = run_convergence_check("SCORPSE", EXP, 1e-2, 3000, 64, (3, 3), seed=3)
        assert rep.shared_draws
        assert rep.passed
        drifts = [r.drift_vs_finest for r in rep.rows]
        assert drifts[0] > drifts[1] > drifts[2] == 0.0

    def test_even_refinement_resamples(self):
        rep = run_convergence_check("RECT", EXP, 1e-2, 2000, 64, (2,), seed=3)
        assert not rep.shared_draws
        assert len(rep.rows) == 2
