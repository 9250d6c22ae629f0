"""Tests for the step-product kernel, against scipy's expm and the 2x2
references of ``reference.py``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pulselab import (GridMismatch, TimeGrid, build_time_grid, ensemble_frobenius,
                      evolve_ensemble)
from pulselab.noise import _subdivide
from pulselab.propagator import P_SERIES_MAX
from pulselab.pulses import PiecewiseConstantPulse, PulseSegment
from reference import (IDEAL_PULSE, SIGMA_X, SIGMA_Z, correcting_factor,
                       evolve_one, rotate_bloch, unitary_of_quaternion)

NAMES = ["RECT", "CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND"]


def constant_pulse(amplitude_taup, tau_p=1.0):
    return PiecewiseConstantPulse("const", tau_p,
                                  (PulseSegment(0.0, 1.0, amplitude_taup),))


def expm_product(pulse, grid, eta):
    """Reference U_tot: product of scipy expm step propagators, latest leftmost."""
    v_mid = pulse.amplitudes_on(grid.midpoints)
    u = np.eye(2, dtype=complex)
    for e, v, dt in zip(eta, v_mid, grid.widths):
        u = expm(-1j * dt * (e * SIGMA_Z + v * SIGMA_X)) @ u
    return u


def one_step(eta, v, dt):
    """U_tot of a single step of width dt, through evolve_ensemble, and its expm
    reference."""
    p = constant_pulse(v * dt, tau_p=dt)
    grid = TimeGrid.uniform(dt, 1)
    u = unitary_of_quaternion(*evolve_one(p, grid, eta))
    return u, expm_product(p, grid, [eta])


class TestStepPropagator:
    def test_zero_hamiltonian(self):
        u, ref = one_step(0.0, 0.0, 0.7)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(u, ref, atol=1e-14)

    def test_pure_pi_rotation(self):
        u, ref = one_step(0.0, 1.0, math.pi / 2)
        np.testing.assert_allclose(u, -1j * SIGMA_X, atol=1e-14)
        np.testing.assert_allclose(u, ref, atol=1e-14)

    def test_hand_value(self):
        u, ref = one_step(3.0, 4.0, 0.1)
        expect = (math.cos(0.5) * np.eye(2)
                  - 1j * math.sin(0.5) * (4 * SIGMA_X + 3 * SIGMA_Z) / 5)
        np.testing.assert_allclose(u, expect, atol=1e-12)
        np.testing.assert_allclose(u, ref, atol=1e-14)

    def test_small_phase_branch_matches_expm(self):
        for eta, v, dt in [(1e-10, 2e-10, 1.0), (1e-12, 0.0, 0.5), (0.0, 0.0, 1.0)]:
            u, ref = one_step(eta, v, dt)
            np.testing.assert_allclose(u, ref, atol=1e-14)

    @given(eta=st.floats(-10, 10), v=st.floats(-10, 10), dt=st.floats(1e-6, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_unitary_and_special(self, eta, v, dt):
        u, ref = one_step(eta, v, dt)
        np.testing.assert_allclose(u, ref, atol=1e-14)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        assert abs(np.trace(u).imag) < 1e-12


class TestIdealPulse:
    def test_matrix(self):
        # the ideal pulse -i sx is the quaternion (0, 1, 0, 0), where
        # ensemble_frobenius measures zero
        np.testing.assert_allclose(unitary_of_quaternion(0.0, 1.0, 0.0, 0.0), IDEAL_PULSE)
        assert all(v == 0.0 for v in ensemble_frobenius(0.0, 1.0, 0.0, 0.0).values())

    @pytest.mark.parametrize("r0,expect", [
        ((0, 1, 0), (0, -1, 0)),
        ((0, 0, 1), (0, 0, -1)),
        ((1, 0, 0), (1, 0, 0)),
    ])
    def test_bloch_action(self, r0, expect):
        # a noiseless RECT pulse realizes the ideal pi rotation about x
        p = constant_pulse(0.5 * math.pi, tau_p=1.0)
        grid = TimeGrid.uniform(1.0, 8)
        q = evolve_one(p, grid, 0.0)
        np.testing.assert_allclose(unitary_of_quaternion(*q), IDEAL_PULSE, atol=1e-14)
        np.testing.assert_allclose(rotate_bloch(r0, *q), expect, atol=1e-14)


class TestEvolve:
    @pytest.mark.parametrize("name", NAMES)
    def test_noiseless_realizes_ideal_pulse(self, catalog, name):
        p = catalog[name].with_duration(0.42)
        grid = build_time_grid(p, 128)
        q = evolve_one(p, grid, 0.0)
        assert np.abs(unitary_of_quaternion(*q) - IDEAL_PULSE).max() < 1e-10
        assert np.abs(correcting_factor(*q) - np.eye(2)).max() < 1e-10

    def test_pure_dephasing_closed_form(self):
        p = constant_pulse(0.0, tau_p=1.4)
        grid = build_time_grid(p, 16)
        eta_c = 0.37
        u = unitary_of_quaternion(*evolve_one(p, grid, eta_c))
        expect = expm(-1j * eta_c * 1.4 * SIGMA_Z)
        np.testing.assert_allclose(u, expect, atol=1e-12)

    def test_unitarity_many_steps(self, catalog):
        p = catalog["SYM2ND"].with_duration(1.0)
        grid = build_time_grid(p, 4096)
        rng = np.random.default_rng(3)
        q = evolve_one(p, grid, rng.normal(size=grid.n_steps))
        u = unitary_of_quaternion(*q)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        assert abs(np.trace(correcting_factor(*q)).imag) < 1e-12

    def test_grid_mismatch_raises(self, catalog):
        p = catalog["CORPSE"].with_duration(1.0)
        bad_grid = TimeGrid.uniform(1.0, 64)   # misses 1/13, 6/13
        with pytest.raises(GridMismatch):
            evolve_one(p, bad_grid, 0.0)

    def test_step_halving_convergence_order(self, catalog):
        # smooth deterministic eta(t); the midpoint discretization error of
        # DF^2 should shrink by ~4x per uniform step halving
        p = catalog["SCORPSE"].with_duration(1.0)
        grids = [build_time_grid(p, 64)]
        for _ in range(4):
            grids.append(_subdivide(grids[-1].boundaries, [2] * grids[-1].n_steps))

        def df2_on(grid):
            eta = 0.4 * np.sin(3.0 * grid.midpoints) + 0.2
            return ensemble_frobenius(*evolve_one(p, grid, eta))["df2"]

        ref = df2_on(grids[-1])
        errs = [abs(df2_on(g) - ref) for g in grids[:3]]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9


class TestEnsembleEvolution:
    # the short grids take the exact trigonometry on most steps; the long
    # grids and the short pulses reach the p-series
    @given(name=st.sampled_from(NAMES),
           tau_p=st.one_of(st.floats(0.05, 3.0), st.floats(1e-3, 0.05)),
           n_steps=st.one_of(st.integers(6, 80), st.integers(256, 1024)),
           m=st.integers(1, 4),
           scale=st.sampled_from([0.0, 1e-9, 0.1, 1.0, 10.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_expm_product(self, catalog, name, tau_p, n_steps, m, scale, seed):
        p = catalog[name].with_duration(tau_p)
        grid = build_time_grid(p, n_steps)
        block = scale * np.random.default_rng(seed).normal(size=(grid.n_steps, m))
        w, x, y, z = evolve_ensemble(p, grid, block)
        for k in range(m):
            ref = expm_product(p, grid, block[:, k])
            u = unitary_of_quaternion(w[k], x[k], y[k], z[k])
            np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)

    def test_step_straddling_series_bound(self):
        # one step of phase^2 p = (eta^2 + v^2) dt^2 on both sides of P_SERIES_MAX
        tau_p, n = 1.0, 16
        p = constant_pulse(0.5 * math.pi, tau_p)
        grid = TimeGrid.uniform(tau_p, n)
        dt, v = tau_p / n, 0.5 * math.pi / tau_p
        phase = math.sqrt(P_SERIES_MAX) * np.array([0.0, 0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 5.0])
        eta = np.sqrt(np.maximum(phase**2 / dt**2 - v**2, 0.0)) * [1, -1, 1, -1, 1, -1, 1, -1]
        step_p = (eta**2 + v**2) * dt**2
        assert (step_p <= P_SERIES_MAX).any() and (step_p > P_SERIES_MAX).any()
        block = np.tile(eta, (n, 1))
        w, x, y, z = evolve_ensemble(p, grid, block)
        for k in range(eta.size):
            u = unitary_of_quaternion(w[k], x[k], y[k], z[k])
            np.testing.assert_allclose(u, expm_product(p, grid, block[:, k]),
                                       rtol=0, atol=1e-12)
            alone = evolve_ensemble(p, grid, block[:, k:k + 1])
            assert all(a[0] == b[k] for a, b in zip(alone, (w, x, y, z)))

    def test_huge_noise_takes_exact_route_without_warning(self):
        # eta^2 overflows p to inf (a RuntimeWarning is an error here)
        p = constant_pulse(0.5 * math.pi)
        grid = TimeGrid.uniform(1.0, 4)
        block = np.tile([1e160, -1e160, 0.1], (grid.n_steps, 1))
        w, x, y, z = evolve_ensemble(p, grid, block)
        np.testing.assert_allclose(w**2 + x**2 + y**2 + z**2, 1.0, rtol=0, atol=1e-12)
        alone = evolve_ensemble(p, grid, block[:, 2:])
        assert all(a[0] == b[2] for a, b in zip(alone, (w, x, y, z)))

    @pytest.mark.filterwarnings("error")
    def test_huge_drive_on_tiny_steps_takes_exact_route(self, catalog):
        # v^2 overflows to inf and dt^2 underflows to 0, so p = inf * 0 is nan,
        # although each step's phase v dt is pi/8
        eta = np.array([[0.0, 0.3], [0.0, -0.2], [0.0, 0.5], [0.0, 0.1]])
        results = []
        for inv_v in (1e-300, 1e-3):
            p = catalog["RECT"].for_inverse_amplitude(inv_v)
            results.append(evolve_ensemble(p, build_time_grid(p, 4), eta / inv_v))
        huge, moderate = np.array(results)
        np.testing.assert_allclose(huge[:, 0], [0.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-12)
        # the same phases at a moderate scale: the noisy column is scale invariant
        np.testing.assert_allclose(huge[:, 1], moderate[:, 1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.3, 30.0])
    def test_block_of_chunks_matches_chunks(self, catalog, scale):
        # scale 30 puts some realizations of a step above the series bound
        p = catalog["CORPSE"].with_duration(0.5)
        grid = build_time_grid(p, 256)
        chunks = scale * np.random.default_rng(4).normal(size=(3, grid.n_steps, 50))
        grouped = evolve_ensemble(p, grid, chunks.transpose(1, 0, 2))
        for c in range(3):
            one = evolve_ensemble(p, grid, chunks[c])
            for a, b in zip(one, grouped):
                assert np.array_equal(a, b[c])

    def test_shape_mismatch(self, catalog):
        p = catalog["RECT"].with_duration(1.0)
        grid = build_time_grid(p, 8)
        with pytest.raises(GridMismatch):
            evolve_ensemble(p, grid, np.zeros((9, 3)))
