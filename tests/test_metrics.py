"""Tests for the Frobenius-norm metric and Monte-Carlo aggregation.

``ensemble_frobenius`` reads DF^2 and its partials from the quaternion of the
total propagator; ``reference.trace_route`` computes them from the 2x2
correcting factor and the polarized-state traces.
"""

import math

import numpy as np
import pytest

from pulselab import accumulate_values, build_time_grid, ensemble_frobenius
from pulselab.metrics import DF2_MAX
from reference import (IDEAL_PULSE, correcting_factor, evolve_one,
                       quaternion_of_unitary, rotate_bloch, trace_route)


def random_su2(rng, n):
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q


def ensemble_of_correcting(u_c):
    """ensemble_frobenius of the total propagator P U_c: (DF^2, partials)."""
    out = ensemble_frobenius(*quaternion_of_unitary(IDEAL_PULSE @ u_c))
    return out["df2"], (out["partial_x"], out["partial_y"], out["partial_z"])


class TestFrobeniusFromUnitary:
    def test_identity(self):
        u = np.eye(2, dtype=complex)
        assert trace_route(u) == (0.0, (0.0, 0.0, 0.0))
        assert ensemble_of_correcting(u) == (0.0, (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("theta", [0.1, 0.7, 1.2, math.pi / 2])
    def test_z_rotation(self, theta):
        u = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        for df2, _ in (trace_route(u), ensemble_of_correcting(u)):
            np.testing.assert_allclose(df2, DF2_MAX * math.sin(theta) ** 2, atol=1e-13)

    def test_pi_half_z_rotation_partials(self):
        u = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
        for df2, partials in (trace_route(u), ensemble_of_correcting(u)):
            np.testing.assert_allclose(df2, DF2_MAX, atol=1e-13)
            np.testing.assert_allclose(partials, (2.0, 2.0, 0.0), atol=1e-13)

    def test_composition_rule_and_range(self):
        rng = np.random.default_rng(0)
        q = random_su2(rng, 500)
        out = ensemble_frobenius(*q.T)
        np.testing.assert_allclose(
            out["df2"], (out["partial_x"] + out["partial_y"] + out["partial_z"]) / 3.0,
            atol=1e-12)
        assert np.all((-1e-12 <= out["df2"]) & (out["df2"] <= DF2_MAX + 1e-12))

    def test_two_routes_agree_on_random_su2(self):
        # the trace route and ensemble_frobenius's rotation-invariant route
        rng = np.random.default_rng(1)
        q = random_su2(rng, 2000)
        df2 = ensemble_frobenius(*q.T)["df2"]
        for k in range(q.shape[0]):
            np.testing.assert_allclose(df2[k], trace_route(correcting_factor(*q[k]))[0],
                                       rtol=0, atol=1e-12)

    def test_not_unitary_raises(self):
        # the reference refuses a matrix it cannot measure
        with pytest.raises(ValueError, match="deviates from identity"):
            trace_route(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_ensemble_matches_matrix_route(self):
        # ensemble_frobenius consumes total-propagator components; the matrix
        # route consumes the correcting factor P^dag U_tot
        rng = np.random.default_rng(2)
        q = random_su2(rng, 100)
        out = ensemble_frobenius(q[:, 0], q[:, 1], q[:, 2], q[:, 3])
        for k in range(100):
            df2, partials = trace_route(correcting_factor(*q[k]))
            np.testing.assert_allclose(out["df2"][k], df2, atol=1e-12)
            np.testing.assert_allclose(
                [out["partial_x"][k], out["partial_y"][k], out["partial_z"][k]],
                partials, atol=1e-12)


class TestPolarizationDeviation:
    # |<s_a> - ideal| of the final Bloch vector of an a-polarized start; the
    # ideal pi flip about x keeps +1 along x and sends y and z to -1

    def test_noiseless_scorpse(self, catalog):
        p = catalog["SCORPSE"].with_duration(0.8)
        grid = build_time_grid(p, 64)
        q = evolve_one(p, grid, 0.0)
        dev = abs(rotate_bloch([0, 1, 0], *q)[1] + 1.0)
        assert dev < 1e-10

    def test_x_axis_is_fixed(self, catalog):
        p = catalog["CORPSE"].with_duration(0.8)
        grid = build_time_grid(p, 64)
        q = evolve_one(p, grid, 0.0)
        dev = abs(rotate_bloch([1, 0, 0], *q)[0] - 1.0)
        assert dev < 1e-10

    def test_poldev_equals_y_partial(self, catalog):
        # |<sy>+1| for a y-polarized start equals the y-direction partial
        p = catalog["SCORPSE"].with_duration(0.5)
        grid = build_time_grid(p, 64)
        rng = np.random.default_rng(9)
        q = evolve_one(p, grid, 0.3 * rng.normal(size=grid.n_steps))
        dev = abs(rotate_bloch([0, 1, 0], *q)[1] + 1.0)
        np.testing.assert_allclose(dev, ensemble_frobenius(*q)["partial_y"], atol=1e-11)
        np.testing.assert_allclose(dev, trace_route(correcting_factor(*q))[1][1],
                                   atol=1e-11)


class TestAccumulate:
    def test_constant_samples(self):
        est = accumulate_values(np.full(10, 0.25))
        assert est.mean_df2 == 0.25
        assert est.stderr_df2 == 0.0
        assert est.mean_df == 0.5
        assert est.realizations == 10

    def test_equal_samples_have_no_spread(self):
        # fsum(50 x) / 50 rounds one ulp below x = 1.3333333333333321, the DF^2
        # of every realization of a cell whose huge eta0 swamps the noise
        x = 1.3333333333333321
        assert math.fsum([x] * 50) / 50 != x
        est = accumulate_values(np.full(50, x))
        assert est.mean_df2 == x and est.stderr_df2 == 0.0

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
