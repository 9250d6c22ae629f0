"""Tests for autocorrelation models and correlated noise synthesis."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulselab import (AutocorrelationModel, EigenvalueTooNegative, TimeGrid,
                      build_sampler, build_time_grid, ensemble_frobenius,
                      evolve_ensemble, load_catalog, noise)


class TestAutocorrelationModel:
    def test_gaussian_at_zero(self):
        model = AutocorrelationModel("gaussian", g0=1.0, gamma=0.1)
        assert model.evaluate(0.0) == 1.0

    def test_exponential_one_decay_time(self):
        model = AutocorrelationModel("exponential", g0=1.0, gamma=2.7)
        got = model.evaluate(1.0 / 2.7)
        np.testing.assert_allclose(got, math.exp(-1.0), rtol=1e-14)

    def test_gaussian_hand_value(self):
        # g0=2, gamma=0.5, t=2: 4 exp(-0.25*4) = 4/e
        model = AutocorrelationModel("gaussian", g0=2.0, gamma=0.5)
        np.testing.assert_allclose(model.evaluate(2.0), 4.0 * math.exp(-1.0), rtol=1e-14)

    @given(t=st.floats(-50, 50), gamma=st.floats(0, 3), g0=st.floats(0.1, 5),
           kind=st.sampled_from(["gaussian", "exponential"]))
    @settings(max_examples=100, deadline=None)
    def test_even_in_time(self, t, gamma, g0, kind):
        model = AutocorrelationModel(kind, g0=g0, gamma=gamma)
        assert model.evaluate(t) == model.evaluate(-t)
        assert model.evaluate(0.0) == pytest.approx(g0 * g0, rel=1e-15)

    def test_cusp_coefficient_exponential(self):
        g0, gamma = 1.3, 2.0
        model = AutocorrelationModel("exponential", g0=g0, gamma=gamma)
        assert model.cusp_coefficient == g0**2 * gamma
        delta = 1e-4 / gamma
        ratio = (model.evaluate(0.0) - model.evaluate(delta)) / (g0**2 * gamma * delta)
        assert abs(ratio - 1.0) < 1e-2

    def test_cusp_coefficient_gaussian(self):
        g0, gamma = 1.0, 2.0
        model = AutocorrelationModel("gaussian", g0=g0, gamma=gamma)
        assert model.cusp_coefficient == 0.0
        delta = 1e-4 / gamma
        ratio = (model.evaluate(0.0) - model.evaluate(delta)) / (g0**2 * gamma * delta)
        assert abs(ratio) < 1e-3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AutocorrelationModel("lorentzian", g0=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            AutocorrelationModel("gaussian", g0=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            AutocorrelationModel("gaussian", g0=1.0, gamma=-1.0)
        # g(0) = g0^2 must be positive and finite: 1e160 overflows, 1e-200 underflows
        for kind in ("gaussian", "exponential"):
            for g0 in (1e160, 1e-200):
                with pytest.raises(ValueError, match=r"g0\*\*2 positive and finite"):
                    AutocorrelationModel(kind, g0=g0, gamma=0.5)

    def test_gaussian_gamma_squared_must_be_finite(self):
        # gamma^2 overflows above sqrt(float max) = 1.34e154
        with pytest.raises(ValueError, match=r"gamma\*\*2 must be finite"):
            AutocorrelationModel("gaussian", gamma=1e160)
        with pytest.raises(ValueError, match=r"gamma\*\*2 must be finite"):
            AutocorrelationModel("gaussian", gamma=np.float64(1.35e154))
        model = AutocorrelationModel("gaussian", g0=2.0, gamma=1.3e154)
        assert model.evaluate(0.0) == 4.0 and model.evaluate(1.0) == 0.0
        # the exponential model never squares gamma
        assert AutocorrelationModel("exponential", gamma=1e160).evaluate(0.0) == 1.0


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(2.0, 4)
        np.testing.assert_array_equal(grid.boundaries, [0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_array_equal(grid.midpoints, [0.25, 0.75, 1.25, 1.75])
        assert grid.tau_p == 2.0 and grid.n_steps == 4

    def test_steps_above_dense_limit_are_refused(self):
        # by uniform, and by the sampler for a grid built directly
        n = noise.MAX_DENSE_N + 1
        with pytest.raises(ValueError, match=f"{n} steps exceed"):
            TimeGrid.uniform(1.0, n)
        with pytest.raises(ValueError, match=f"{n} steps exceed"):
            build_sampler(AutocorrelationModel("exponential", gamma=0.1),
                          TimeGrid(np.arange(n + 1.0)), seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.2, 0.2]))

    def test_refined_keeps_boundaries_and_nests_midpoints(self):
        grid = TimeGrid(np.array([0.0, 0.3, 1.0]))
        fine = noise._subdivide(grid.boundaries, [3, 3])
        assert fine.n_steps == 6
        for b in grid.boundaries:
            assert b in fine.boundaries
        # odd refinement keeps each coarse midpoint as a fine midpoint
        for m in grid.midpoints:
            assert np.any(np.isclose(fine.midpoints, m, atol=0, rtol=1e-15))


class TestSamplerConstruction:
    def test_single_point_transform(self):
        model = AutocorrelationModel("gaussian", g0=1.0, gamma=0.3)
        grid = TimeGrid.uniform(1.0, 1)
        sampler = build_sampler(model, grid, seed=0)
        np.testing.assert_allclose(sampler.transform, [[1.0]], atol=1e-14)

    def test_two_point_covariance_reconstruction(self):
        # midpoints ln(2) apart -> off-diagonal exactly 1/2
        model = AutocorrelationModel("exponential", g0=1.0, gamma=1.0)
        gap = math.log(2.0)
        grid = TimeGrid(np.array([0.0, 0.2, 2.0 * gap]))
        np.testing.assert_allclose(np.diff(grid.midpoints), [gap], rtol=1e-15)
        sampler = build_sampler(model, grid, seed=0)
        np.testing.assert_allclose(sampler.covariance, [[1.0, 0.5], [0.5, 1.0]],
                                   rtol=1e-14)
        recon = sampler.transform @ sampler.transform.T
        assert np.abs(recon - sampler.covariance).max() < 1e-12

    def test_constant_noise_limit_rank_one(self):
        model = AutocorrelationModel("gaussian", g0=1.5, gamma=0.0)
        grid = TimeGrid.uniform(3.0, 8)
        sampler = build_sampler(model, grid, seed=0)
        np.testing.assert_allclose(sampler.covariance, 1.5**2 * np.ones((8, 8)))
        eigvals = np.linalg.eigvalsh(sampler.covariance)
        big = eigvals[np.abs(eigvals) > 1e-9]
        assert big.size == 1
        np.testing.assert_allclose(big[0], 8 * 1.5**2, rtol=1e-12)

    def test_symmetry_exact(self):
        model = AutocorrelationModel("exponential", g0=1.0, gamma=0.7)
        grid = TimeGrid.uniform(5.0, 32)
        sampler = build_sampler(model, grid, seed=0)
        assert np.array_equal(sampler.covariance, sampler.covariance.T)

    @pytest.mark.parametrize("kind,gamma", [("gaussian", 0.2), ("exponential", 1.3)])
    def test_reconstruction_tolerance(self, kind, gamma):
        model = AutocorrelationModel(kind, g0=1.0, gamma=gamma)
        grid = TimeGrid.uniform(4.0, 512)
        sampler = build_sampler(model, grid, seed=0)
        recon = sampler.transform @ sampler.transform.T
        lam_max = np.linalg.eigvalsh(sampler.covariance)[-1]
        assert np.abs(recon - sampler.covariance).max() <= 10 * 1e-10 * lam_max

    def test_eigenvalue_error_with_zero_band(self, monkeypatch):
        # a nearly singular covariance has tiny negative round-off eigenvalues;
        # with the clip band collapsed to zero they must be reported, not fixed
        monkeypatch.setattr(noise, "EPS_CLIP", 0.0)
        model = AutocorrelationModel("gaussian", g0=1.0, gamma=1e-4)
        grid = TimeGrid.uniform(1.0, 64)
        with pytest.raises(EigenvalueTooNegative):
            build_sampler(model, grid, seed=0)


class TestMarkovSampler:
    """The exponential model is drawn by its exact Markov recursion."""

    @pytest.mark.parametrize("gamma", [0.01, 1.3])
    def test_factor_reproduces_covariance_on_uneven_grid(self, gamma):
        g0 = 1.3
        grid = build_time_grid(load_catalog()["SCORPSE"], 512)
        gaps = np.diff(grid.midpoints)
        assert gaps.max() - gaps.min() > 1e-3 * gaps.max()
        sampler = build_sampler(AutocorrelationModel("exponential", g0=g0, gamma=gamma),
                                grid, seed=0)
        factor = sampler.transform
        # lower triangular with a positive diagonal: G's Cholesky factor
        assert np.array_equal(factor, np.tril(factor))
        assert np.all(np.diag(factor) > 0.0)
        assert np.abs(factor @ factor.T - sampler.covariance).max() <= 1e-12 * g0**2

    def test_block_is_transform_times_normals(self):
        model = AutocorrelationModel("exponential", g0=1.3, gamma=0.7, eta0=0.5)
        grid = build_time_grid(load_catalog()["CORPSE"], 96)
        sampler = build_sampler(model, grid, seed=11)
        stream = (3, 1)
        z = noise._stream_generator(11, *stream).standard_normal((grid.n_steps, 200))
        block = sampler.sample_block(200, stream=stream)
        assert np.abs(block - (sampler.transform @ z + model.eta0)).max() <= 1e-12

    def test_gamma_zero_gives_constant_paths(self):
        # the covariance g0^2 on every entry has rank one: each path is flat
        model = AutocorrelationModel("exponential", g0=1.5, gamma=0.0)
        sampler = build_sampler(model, TimeGrid(np.array([0.0, 0.1, 0.5, 2.0, 2.2])), seed=3)
        block = sampler.sample_block(50, stream=(0,))
        assert np.array_equal(block, np.broadcast_to(block[0], block.shape))
        assert np.unique(block[0]).size == 50

    def test_construction_is_linear_in_steps(self):
        # no N x N array: 512 MB at this size for the covariance alone
        grid = TimeGrid.uniform(1.0, noise.MAX_DENSE_N)
        model = AutocorrelationModel("exponential", g0=1.0, gamma=0.3)
        tracemalloc.start()
        try:
            build_sampler(model, grid, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestGaussianSampler:
    """The Gaussian model is drawn in its numerical rank k, not in N."""

    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_block_is_transform_times_normals(self, gamma):
        model = AutocorrelationModel("gaussian", g0=1.3, gamma=gamma, eta0=0.5)
        grid = build_time_grid(load_catalog()["CORPSE"], 96)
        sampler = build_sampler(model, grid, seed=11)
        eigvals = np.linalg.eigvalsh(sampler.covariance)
        k = np.count_nonzero(eigvals > noise.EPS_CLIP * eigvals[-1])
        assert sampler.transform.shape == (grid.n_steps, k) and 1 < k < grid.n_steps
        stream = (3, 1)
        z = noise._stream_generator(11, *stream).standard_normal((k, 200))
        block = sampler.sample_block(200, stream=stream)
        assert np.abs(block - (sampler.transform @ z + model.eta0)).max() <= 1e-12

    def test_sampler_holds_no_covariance(self):
        # the N x N covariance (8 MB here) is formed for eigh and then dropped:
        # the sampler keeps its N x k transform alone
        grid = TimeGrid.uniform(1.0, 1024)
        model = AutocorrelationModel("gaussian", gamma=1.0)
        tracemalloc.start()
        try:
            sampler = build_sampler(model, grid, seed=0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1_000_000
        assert sampler.covariance.shape == (1024, 1024)

    def test_gamma_zero_has_rank_one(self):
        model = AutocorrelationModel("gaussian", g0=1.5, gamma=0.0)
        sampler = build_sampler(model, TimeGrid.uniform(3.0, 64), seed=3)
        assert sampler.transform.shape == (64, 1)
        block = sampler.sample_block(50, stream=(0,))
        assert np.allclose(block, block[0], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name,inv_v", [("CORPSE", 1e-3), ("CORPSE", 1e-1),
                                            ("SYM2ND", 1e-3), ("SYM2ND", 1e-1)])
    def test_cut_moves_mean_df2_below_1e_3(self, name, inv_v):
        # the same normals through the full O sqrt(D) and through the kept
        # columns, which are the last k of eigh's ascending order
        pulse = load_catalog()[name].for_inverse_amplitude(inv_v)
        grid = build_time_grid(pulse, 128)
        sampler = build_sampler(AutocorrelationModel("gaussian", gamma=0.1), grid, seed=0)
        eigvals, eigvecs = np.linalg.eigh(sampler.covariance)
        full = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        k = sampler.transform.shape[1]
        z = noise._stream_generator(0, 5).standard_normal((grid.n_steps, 2000))
        means = [ensemble_frobenius(*evolve_ensemble(pulse, grid, eta))["df2"].mean()
                 for eta in (full @ z, sampler.transform @ z[-k:])]
        assert abs(means[1] / means[0] - 1.0) <= 1e-3


class TestSampling:
    def test_same_seed_bit_identical(self):
        model = AutocorrelationModel("exponential", g0=1.0, gamma=0.5)
        grid = TimeGrid.uniform(1.0, 16)
        s1 = build_sampler(model, grid, seed=99)
        s2 = build_sampler(model, grid, seed=99)
        for stream in [(), (0,), (3, 1)]:
            np.testing.assert_array_equal(s1.sample_block(5, stream=stream),
                                          s2.sample_block(5, stream=stream))

    def test_block_streams_reproducible_and_independent(self):
        model = AutocorrelationModel("gaussian", g0=1.0, gamma=0.5)
        grid = TimeGrid.uniform(1.0, 8)
        sampler = build_sampler(model, grid, seed=5)
        a1 = sampler.sample_block(10, stream=(0, 0))
        a2 = sampler.sample_block(10, stream=(0, 0))
        b = sampler.sample_block(10, stream=(0, 1))
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    @pytest.mark.parametrize("kind", ["exponential", "gaussian"])
    def test_row_tiles_continue_the_whole_block(self, kind):
        # tiles of 32 rows, the last one short, each written into a chunk's
        # columns of a wider tile: one cursor continues the stream, so they
        # equal one whole-block draw and leave the other columns alone
        model = AutocorrelationModel(kind, g0=1.3, gamma=0.7, eta0=0.3)
        sampler = build_sampler(model, TimeGrid.uniform(2.0, 100), seed=11)
        cursor = noise.StreamCursor()
        tiles = []
        for start in range(0, 100, 32):
            rows = min(32, 100 - start)
            wide = np.full((rows, 50), np.nan)
            tiles.append(sampler.sample_block(37, (2, 5), wide[:, 5:42], cursor))
            assert np.isnan(wide[:, :5]).all() and np.isnan(wide[:, 42:]).all()
        assert cursor.row == 100
        assert np.array_equal(np.concatenate(tiles), sampler.sample_block(37, stream=(2, 5)))

    def test_eta0_shifts_exactly(self):
        grid = TimeGrid.uniform(1.0, 8)
        base = build_sampler(AutocorrelationModel("gaussian", g0=1.0, gamma=0.5),
                             grid, seed=7)
        shifted = build_sampler(
            AutocorrelationModel("gaussian", g0=1.0, gamma=0.5, eta0=2.0),
            grid, seed=7)
        np.testing.assert_array_equal(
            shifted.sample_block(5, stream=(1,)),
            base.sample_block(5, stream=(1,)) + 2.0)

    def test_sample_statistics_match_autocorrelation(self):
        # deterministic given the seed; bounds chosen at 5 standard errors
        model = AutocorrelationModel("exponential", g0=1.2, gamma=0.8)
        grid = TimeGrid.uniform(2.0, 16)
        sampler = build_sampler(model, grid, seed=2024)
        m = 50000
        block = sampler.sample_block(m, stream=(0,))
        target = sampler.covariance
        cov = (block @ block.T) / m
        se_cov = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
        assert (np.abs(cov - target) / se_cov).max() < 5.0
        se_mean = np.sqrt(np.diag(target) / m)
        assert (np.abs(block.mean(axis=1)) / se_mean).max() < 4.0
