"""Tests for the Frobenius-norm metric and Monte-Carlo aggregation."""

import math

import numpy as np
import pytest

from pulselab import (NoiseRealization, NotUnitary, MissingTrajectory,
                      accumulate_values, build_time_grid, ensemble_frobenius,
                      evolve, frobenius_from_unitary, polarization_deviation)
from pulselab.metrics import DF2_MAX
from pulselab.propagator import unitary_of_quaternion


def random_su2(rng, n):
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q


class TestFrobeniusFromUnitary:
    def test_identity(self):
        fs = frobenius_from_unitary(np.eye(2, dtype=complex))
        assert fs.delta_f_squared == 0.0
        assert fs.partials == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("theta", [0.1, 0.7, 1.2, math.pi / 2])
    def test_z_rotation(self, theta):
        u = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        fs = frobenius_from_unitary(u)
        np.testing.assert_allclose(fs.delta_f_squared,
                                   DF2_MAX * math.sin(theta) ** 2, atol=1e-13)

    def test_pi_half_z_rotation_partials(self):
        u = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
        fs = frobenius_from_unitary(u)
        np.testing.assert_allclose(fs.delta_f_squared, DF2_MAX, atol=1e-13)
        np.testing.assert_allclose(fs.partials, (2.0, 2.0, 0.0), atol=1e-13)

    def test_composition_rule_and_range(self):
        rng = np.random.default_rng(0)
        for q in random_su2(rng, 500):
            fs = frobenius_from_unitary(unitary_of_quaternion(*q))
            np.testing.assert_allclose(fs.delta_f_squared, sum(fs.partials) / 3.0,
                                       atol=1e-12)
            assert -1e-12 <= fs.delta_f_squared <= DF2_MAX + 1e-12

    def test_two_routes_agree_on_random_su2(self):
        # the identity check runs inside frobenius_from_unitary at 1e-12
        rng = np.random.default_rng(1)
        for q in random_su2(rng, 2000):
            frobenius_from_unitary(unitary_of_quaternion(*q))

    def test_not_unitary_raises(self):
        with pytest.raises(NotUnitary):
            frobenius_from_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_ensemble_matches_matrix_route(self):
        # ensemble_frobenius consumes total-propagator components; the matrix
        # route consumes the correcting factor P^dag U_tot
        from pulselab import ideal_pulse
        rng = np.random.default_rng(2)
        q = random_su2(rng, 100)
        out = ensemble_frobenius(q[:, 0], q[:, 1], q[:, 2], q[:, 3])
        for k in range(100):
            u_tot = unitary_of_quaternion(*q[k])
            fs = frobenius_from_unitary(ideal_pulse().conj().T @ u_tot)
            np.testing.assert_allclose(out["df2"][k], fs.delta_f_squared, atol=1e-12)
            np.testing.assert_allclose(
                [out["partial_x"][k], out["partial_y"][k], out["partial_z"][k]],
                fs.partials, atol=1e-12)


class TestPolarizationDeviation:
    def test_noiseless_scorpse(self, catalog):
        p = catalog["SCORPSE"].with_duration(0.8)
        grid = build_time_grid(p, 64)
        res = evolve(p, NoiseRealization.constant(grid, 0.0),
                     initial_bloch=[0, 1, 0])
        dev, path = polarization_deviation(res.trajectory, "y")
        assert dev < 1e-10
        assert len(path) == grid.n_steps + 1

    def test_x_axis_is_fixed(self, catalog):
        p = catalog["CORPSE"].with_duration(0.8)
        grid = build_time_grid(p, 64)
        res = evolve(p, NoiseRealization.constant(grid, 0.0),
                     initial_bloch=[1, 0, 0])
        dev, _ = polarization_deviation(res.trajectory, "x")
        assert dev < 1e-10

    def test_missing_trajectory(self):
        with pytest.raises(MissingTrajectory):
            polarization_deviation(None, "y")

    def test_wrong_initial_state(self, catalog):
        p = catalog["RECT"].with_duration(1.0)
        grid = build_time_grid(p, 8)
        res = evolve(p, NoiseRealization.constant(grid, 0.0),
                     initial_bloch=[0, 0, 1])
        with pytest.raises(ValueError):
            polarization_deviation(res.trajectory, "y")

    def test_poldev_equals_y_partial(self, catalog):
        # |<sy>+1| for a y-polarized start equals the y-direction partial
        p = catalog["SCORPSE"].with_duration(0.5)
        grid = build_time_grid(p, 64)
        rng = np.random.default_rng(9)
        noise = NoiseRealization(grid, 0.3 * rng.normal(size=grid.n_steps))
        res = evolve(p, noise, initial_bloch=[0, 1, 0])
        dev, _ = polarization_deviation(res.trajectory, "y")
        fs = frobenius_from_unitary(res.u_correcting)
        np.testing.assert_allclose(dev, fs.partials[1], atol=1e-11)


class TestAccumulate:
    def test_constant_samples(self):
        est = accumulate_values(np.full(10, 0.25))
        assert est.mean_df2 == 0.25
        assert est.stderr_df2 == 0.0
        assert est.mean_df == 0.5
        assert est.realizations == 10

    def test_two_point_sample(self):
        est = accumulate_values([0.0, 2.0 / 3.0])
        np.testing.assert_allclose(est.mean_df2, 1.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(est.stderr_df2, 1.0 / 3.0, rtol=1e-15)

    def test_permutation_bit_identical(self):
        rng = np.random.default_rng(5)
        vals = rng.exponential(size=5001)
        a = accumulate_values(vals)
        b = accumulate_values(vals[::-1].copy())
        assert a.mean_df2 == b.mean_df2
        assert a.stderr_df2 == b.stderr_df2

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            accumulate_values([1.0])
