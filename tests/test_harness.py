"""Tests for the scaling harness: fits, reproducibility, serialization."""

import dataclasses
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pulselab import (AutocorrelationModel, InsufficientPoints, NotFirstOrder,
                      ScalingExperimentConfig, build_sampler, build_time_grid,
                      evaluate_i32, fit_exponent, harness, load_catalog,
                      run_prefactor_check, run_scaling, verify_nogo)
from reference import weighted_fit

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

    def test_zero_stderr_point_is_excluded(self):
        # a cell whose realizations all gave the same DF has no weight
        rng = np.random.default_rng(8)
        xs = np.geomspace(1e-3, 1e-1, 8)
        df = 0.3 * xs**1.5 * np.exp(rng.normal(0, 0.01, xs.size))
        pts = [(x, d * d, 0.02 * d * d) for x, d in zip(xs, df)]
        zero = (0.01 * 1.11, 1e-6, 0.0)
        fit = fit_exponent(pts + [zero], (1e-3, 1e-1))
        assert fit.excluded == ((zero[0], "zero standard error"),)
        assert dataclasses.replace(fit, excluded=()) == fit_exponent(pts, (1e-3, 1e-1))

    def test_non_finite_point_is_excluded(self):
        # nan fails every comparison of the other exclusions, so it has its own
        xs = np.geomspace(1e-3, 1e-1, 3)
        pts = [(x, (0.7 * x**2) ** 2, 1e-3 * (0.7 * x**2) ** 2) for x in xs]
        for bad in ((0.01 * 1.11, math.nan, 1e-6), (0.01 * 1.11, 1e-6, math.inf)):
            fit = fit_exponent(pts + [bad], (1e-3, 1e-1))
            assert fit.excluded == ((bad[0], "non-finite mean"),)
            assert dataclasses.replace(fit, excluded=()) == fit_exponent(pts, (1e-3, 1e-1))

    def test_window_filtering(self):
        xs = np.geomspace(1e-4, 1.0, 10)
        pts = [(x, x**2, 1e-9 * x**2) for x in xs]
        fit = fit_exponent(pts, (1e-3, 1e-1))
        assert fit.n_used == sum(1e-3 <= x <= 1e-1 for x in xs)

    def test_insufficient_points(self):
        pts = [(1e-3, 1.0, 1e-9), (1e-2, 1.0, 1e-9)]
        with pytest.raises(InsufficientPoints):
            fit_exponent(pts, (1e-3, 1e-1))

    def test_one_inv_v_value_is_insufficient(self):
        # three usable points at one 1/v leave the slope undetermined
        with pytest.raises(InsufficientPoints, match="1 distinct"):
            fit_exponent([(1e-2, 1e-4, 1e-6)] * 3, (1e-3, 1e-1))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 40), st.floats(-0.01, 0.01),
                                   st.floats(1e-4, 0.09)),
                         min_size=3, max_size=12, unique_by=lambda row: row[0]),
           exponent=st.floats(0.5, 3.0), log_c=st.floats(2.0, 4.0))
    def test_matches_the_weighted_sums(self, rows, exponent, log_c):
        # 1/v on a twentieth-decade grid across the window; DF a power law with
        # scatter; relative stderr of DF^2 below twice REL_STDERR_MAX
        pts = []
        for k, scatter, rel in rows:
            inv_v = 10.0 ** (-3 + k / 20)
            mean_df2 = 10.0 ** (2 * (log_c + exponent * math.log10(inv_v) + scatter))
            pts.append((inv_v, mean_df2, rel * mean_df2))
        slope, slope_err, intercept, intercept_err = weighted_fit(pts)
        # a scatter that a line absorbs leaves errors made of round-off alone
        assume(slope_err > 1e-4 * slope)
        fit = fit_exponent(pts, (1e-3, 1e-1))
        assert fit.n_used == len(pts) and fit.excluded == ()
        np.testing.assert_allclose([fit.slope, fit.intercept], [slope, intercept], rtol=1e-12)
        np.testing.assert_allclose([fit.slope_err, fit.intercept_err],
                                   [slope_err, intercept_err], rtol=1e-10)


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
        # 5 full chunks and a remainder at two chunk sizes: with 2 to 4 workers
        # the last group is partial, and threads hand over the GIL every
        # microsecond
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for model, chunk in ((EXP, 512), (EXP, 768), (GAUSS, 512)):
                cfg = dict(model=model, realizations=5 * chunk + 37, chunk_size=chunk)
                runs = [run_scaling(small_config(workers=n, **cfg)) for n in (1, 2, 3, 4)]
                # every column of every cell, not only mean DF^2
                for r in runs[1:]:
                    assert r.csv_text() == runs[0].csv_text()
        finally:
            sys.setswitchinterval(interval)

    def test_workers_above_full_chunks(self, monkeypatch):
        # 8 workers, 2 full chunks: one buffer of 2 blocks and 2 threads at most
        n_steps, chunk = 256, 1024
        pulse = load_catalog()["RECT"].for_inverse_amplitude(1e-2)
        grid = build_time_grid(pulse, n_steps)
        sampler = build_sampler(EXP, grid, 3)
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Pool)
        block_bytes = 8 * grid.n_steps * chunk
        tracemalloc.start()
        try:
            est = harness._run_cell(pulse, sampler, 0, 2 * chunk + 5, chunk, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pools == [2]
        assert 2 * block_bytes <= peak < 3 * block_bytes
        assert est["df2"] == harness._run_cell(pulse, sampler, 0, 2 * chunk + 5,
                                               chunk, 1)["df2"]

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
        # two 1/v values cannot make a fit: refused before any cell is drawn
        cfg = small_config(inv_v_grid=(1e-3, 1e-2))
        with pytest.raises(ValueError, match="fit window"):
            run_scaling(cfg)

    def test_points_excluded_by_stderr_are_insufficient(self):
        # two realizations per cell: every point fails the stderr rule
        with pytest.raises(InsufficientPoints):
            run_scaling(small_config(realizations=2))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_config(inv_v_grid=(1e-2, 1e-3))
        with pytest.raises(ValueError):
            small_config(chunk_size=0)
        with pytest.raises(ValueError):
            small_config(fit_window=(3e-2, 1e-3))
        with pytest.raises(ValueError):
            small_config(workers=0)
        # refused before any grid is built
        with pytest.raises(ValueError, match="8193 steps exceed"):
            small_config(steps_per_pulse=8193)

    def test_fit_window_end_left_none_takes_the_default(self):
        assert small_config(fit_window=(2e-3, None)).window == (2e-3, 3e-2)

    def test_fit_window_is_checked_after_the_default_fills_it(self):
        # (None, 5e-4) resolves to (1e-3, 5e-4), an empty window
        with pytest.raises(ValueError, match="fit_window"):
            small_config(fit_window=(None, 5e-4))

    @pytest.mark.parametrize("pulses", [(), ("RECT", "CORPSE", "rect")],
                             ids=["empty", "repeated"])
    def test_pulse_list_must_be_nonempty_and_distinct(self, pulses):
        with pytest.raises(ValueError, match="pulses"):
            small_config(pulses=pulses)


def prefactor_config(pulses, inv_vs, realizations, model=EXP, **kw):
    return ScalingExperimentConfig(pulses=tuple(pulses), model=model, inv_v_grid=inv_vs,
                                   realizations=realizations, **kw)


class TestPrefactorCheck:
    def test_corpse_ratio_near_unity(self):
        rows = run_prefactor_check(prefactor_config(
            ["CORPSE"], [3e-3, 1e-2], 8000, steps_per_pulse=256, seed=7))
        for row in rows:
            est = row.cell.estimate
            assert abs(est.mean_df2 - row.predicted_df2) < 4 * est.stderr_df2
            pred = 4.0 * math.pi * EXP.g0**2 * EXP.gamma * row.cell.inv_v**3
            np.testing.assert_allclose(row.predicted_df2, pred, rtol=1e-12)

    def test_prediction_is_four_thirds_of_i32(self, catalog):
        # any first-order shape: the prediction comes from its kernel K
        inv_vs = (3e-3, 1e-2)
        rows = run_prefactor_check(prefactor_config(
            ["SYM2ND"], inv_vs, 200, steps_per_pulse=64, seed=5))
        base = catalog["SYM2ND"]
        assert [r.predicted_df2 for r in rows] == [
            4.0 / 3.0 * evaluate_i32(base.for_inverse_amplitude(v), EXP) for v in inv_vs]

    def test_matches_scaling_cells(self):
        # one sweep: the prefactor check's rows hold the scaling run's cells of
        # the same config, bit for bit, with every pulse's cells
        config = prefactor_config(["CORPSE", "SYM2ND"], (3e-3, 1e-2, 3e-2), 5000,
                                  steps_per_pulse=64, seed=11)
        rows = run_prefactor_check(config)
        assert [r.cell for r in rows] == run_scaling(config).cells
        assert [r.cell.pulse for r in rows] == ["CORPSE"] * 3 + ["SYM2ND"] * 3

    def test_rejects_unsupported_inputs(self):
        with pytest.raises(ValueError):
            run_prefactor_check(prefactor_config(["RECT"], [1e-2], 100))
        with pytest.raises(ValueError):
            run_prefactor_check(prefactor_config(["CORPSE"], [1e-2], 100, model=GAUSS))
        # gamma = 0 predicts a zero cubic law: every ratio would divide by 0
        with pytest.raises(ValueError):
            run_prefactor_check(prefactor_config(
                ["CORPSE"], [1e-2], 100, model=AutocorrelationModel("exponential")))

    @pytest.mark.parametrize("inv_vs, realizations", [
        ([1e-2, 1e-2], 100),        # one 1/v twice
        ([1e-2, 3e-3], 100),        # not increasing
        ([3e-3, 1e-2], 1),          # no standard error from one realization
    ], ids=["repeated", "unsorted", "one-realization"])
    def test_sweep_config_rules_apply(self, monkeypatch, inv_vs, realizations):
        # the sweep's config refuses these before any cell is drawn
        monkeypatch.setattr("pulselab.harness._run_cell", None)
        with pytest.raises(ValueError):
            run_prefactor_check(prefactor_config(["CORPSE"], inv_vs, realizations))

    def test_every_pulse_must_be_first_order_before_any_cell(self, monkeypatch):
        # RECT after two first-order pulses: refused before the first cell
        monkeypatch.setattr("pulselab.harness._run_cell", None)
        with pytest.raises(NotFirstOrder, match="RECT"):
            run_prefactor_check(prefactor_config(["CORPSE", "SYM2ND", "RECT"], [1e-2], 100))

    def test_first_order_rule_is_shared(self, catalog):
        # one rule and one exception type for the prefactor and no-go checks
        for check in (lambda: run_prefactor_check(prefactor_config(["RECT"], [1e-2], 100)),
                      lambda: verify_nogo(catalog["RECT"], 64)):
            with pytest.raises(NotFirstOrder) as info:
                check()
            assert isinstance(info.value, ValueError)
