"""Tests for the Magnus-expansion quantities and the no-go machinery."""

import dataclasses
import gc
import json
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.optimize import approx_fprime, least_squares
from scipy.optimize._numdiff import approx_derivative
from test_cli import _child_env

from pulselab import (AutocorrelationModel, NoFeasiblePoint, NotFirstOrder,
                      build_time_grid, evaluate_i1, evaluate_i32,
                      first_moment_integrals, first_order_integrals, minimize_i32,
                      ordered_sine_integral, verify_nogo)
from pulselab import magnus, pulses
from pulselab.magnus import MIN_GAP, _i32_shape_kernel
from pulselab.pulses import PiecewiseConstantPulse, PulseSegment

EXP_MODEL = AutocorrelationModel("exponential", g0=1.0, gamma=0.01)
GAUSS_MODEL = AutocorrelationModel("gaussian", g0=1.0, gamma=0.1)


def switching_edges(pulse):
    return [0.0] + [s.end * pulse.tau_p for s in pulse.segments]


def interpolated_angle(pulse):
    """psi(t) as the linear interpolant of its edge values (exact, and ten
    times faster than ``angle_at`` inside nested quadrature)."""
    edges, angles = switching_edges(pulse), pulse.edge_angles
    return lambda t: float(np.interp(t, edges, angles))


def triangle_quad(pulse, integrand, **tol):
    """int_0^tau dt1 int_0^t1 dt2 integrand(t1, t2) by dblquad, split at the
    switching instants so that every piece is smooth."""
    edges = switching_edges(pulse)
    total = 0.0
    for i in range(len(pulse.segments)):
        for j in range(i + 1):
            inner_hi = (lambda t1: t1) if j == i else edges[j + 1]
            total += dblquad(lambda t2, t1: integrand(t1, t2), edges[i], edges[i + 1],
                             edges[j], inner_hi, **tol)[0]
    return total


def kernel_by_quadrature(pulse):
    """K = -int int |x1-x2| cos[psi(x1)-psi(x2)], twice the triangle x2 < x1."""
    psi = interpolated_angle(pulse)
    return -2.0 * triangle_quad(
        pulse, lambda t1, t2: (t1 - t2) * math.cos(psi(t1) - psi(t2)),
        epsabs=1e-14, epsrel=1e-12)


def line_quad(pulse, integrand):
    """int_0^tau integrand(t) dt by quad, split at the switching instants."""
    edges = switching_edges(pulse)
    return sum(quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def first_order_terms(pulse, grid, eta):
    """(mu_y, mu_z) = sum_i eta_i int e^{i psi} dt over step i: the primitive
    table built on the grid's steps, summed exactly rounded."""
    table = pulses._primitive_table(grid.widths.tolist(),
                                    (2.0 * pulse.amplitudes_on(grid.midpoints)).tolist(),
                                    pulse.angles_on(grid.boundaries).tolist())
    terms = [eta * d_f for d_f, _, _, _ in table]
    return math.fsum(t.imag for t in terms), math.fsum(t.real for t in terms)


def check_segment_integrals(pulse):
    """S, C, both first moments, the ordered sine integral and K against
    quadrature, within 1e-12, and the per-step first-order Magnus integrals
    with eta = 1 against S and C, within 1e-14 (pulse at tau_p = 1)."""
    psi = interpolated_angle(pulse)
    refs = [line_quad(pulse, lambda t: math.sin(psi(t))),
            line_quad(pulse, lambda t: math.cos(psi(t))),
            line_quad(pulse, lambda t: t * math.sin(psi(t))),
            line_quad(pulse, lambda t: t * math.cos(psi(t))),
            triangle_quad(pulse, lambda t1, t2: math.sin(psi(t1) - psi(t2)),
                          epsabs=1e-14, epsrel=1e-12),
            kernel_by_quadrature(pulse)]
    got = [*first_order_integrals(pulse), *first_moment_integrals(pulse),
           ordered_sine_integral(pulse), _i32_shape_kernel(pulse.segments)]
    np.testing.assert_allclose(got, refs, rtol=0, atol=1e-12)
    grid = build_time_grid(pulse, 64)
    np.testing.assert_allclose(first_order_terms(pulse, grid, 1.0), got[:2], rtol=0, atol=1e-14)


@st.composite
def random_pulses(draw):
    """1-5 segments, |amplitude| <= 4 pi, zero and near-zero amplitudes included."""
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    edges = [0.0, *np.cumsum(widths)[:-1] / sum(widths), 1.0]
    amplitude = st.one_of(st.just(0.0),
                          st.sampled_from([1e-12, -1e-9, 1e-6, -1e-3, 0.04]),
                          st.floats(-4 * math.pi, 4 * math.pi))
    amps = draw(st.lists(amplitude, min_size=n, max_size=n))
    return PiecewiseConstantPulse("random", 1.0, tuple(
        PulseSegment(float(edges[k]), float(edges[k + 1]), amps[k]) for k in range(n)))


class TestFirstOrderTerms:
    def test_constant_eta_reduces_to_closed_integrals(self, catalog):
        p = catalog["CORPSE"].with_duration(0.7)
        grid = build_time_grid(p, 128)
        eta0 = 0.31
        mu_y, mu_z = first_order_terms(p, grid, eta0)
        s_val, c_val = first_order_integrals(p)
        np.testing.assert_allclose(mu_y, eta0 * s_val, atol=1e-14)
        np.testing.assert_allclose(mu_z, eta0 * c_val, atol=1e-14)

    def test_rect_constant_eta(self, catalog):
        p = catalog["RECT"].with_duration(1.0)
        grid = build_time_grid(p, 64)
        mu_y, mu_z = first_order_terms(p, grid, 1.0)
        np.testing.assert_allclose(mu_y, 2.0 / math.pi, rtol=1e-12)
        np.testing.assert_allclose(mu_z, 0.0, atol=1e-14)


class TestI1:
    def test_rect_value(self, catalog):
        p = catalog["RECT"].with_duration(1.0)
        np.testing.assert_allclose(evaluate_i1(p), (2.0 / math.pi) ** 2, rtol=1e-12)
        p2 = catalog["RECT"].with_duration(2.0)
        np.testing.assert_allclose(evaluate_i1(p2), 4 * (2.0 / math.pi) ** 2,
                                   rtol=1e-12)

    def test_first_order_pulses_vanish(self, catalog):
        for name in ("CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND"):
            p = catalog[name].with_duration(1.0)
            assert evaluate_i1(p) < 1e-20

    def test_zero_amplitude_noise(self, catalog):
        assert evaluate_i1(catalog["RECT"].with_duration(1.0), g0=0.0) == 0.0

    def test_equivalence_with_first_order_integrals(self, catalog):
        for pulse in catalog:
            p = pulse.with_duration(1.0)
            s_val, c_val = first_order_integrals(p)
            vanishes = abs(s_val) < 1e-9 and abs(c_val) < 1e-9
            assert (evaluate_i1(p) < 1e-18) == vanishes


class TestI32:
    def test_corpse_closed_form(self, catalog):
        inv_v = 7e-3
        p = catalog["CORPSE"].for_inverse_amplitude(inv_v)
        got = evaluate_i32(p, EXP_MODEL)
        expect = 3.0 * math.pi * EXP_MODEL.gamma * inv_v**3
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_scorpse_closed_form(self, catalog):
        inv_v = 7e-3
        p = catalog["SCORPSE"].for_inverse_amplitude(inv_v)
        got = evaluate_i32(p, EXP_MODEL)
        expect = 2.0 * math.pi * EXP_MODEL.gamma * inv_v**3
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_gaussian_model_exactly_zero(self, catalog):
        p = catalog["SCORPSE"].with_duration(1.0)
        assert evaluate_i32(p, GAUSS_MODEL) == 0.0

    def test_runtime_budget(self, catalog):
        _i32_shape_kernel.cache_clear()
        for name in ("CORPSE", "SCORPSE"):
            p = catalog[name].with_duration(0.01)
            start = time.perf_counter()
            evaluate_i32(p, EXP_MODEL)
            assert time.perf_counter() - start < 1.0

    def test_positive_for_all_first_order_catalog_pulses(self, catalog):
        for name in ("CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND"):
            p = catalog[name].with_duration(1.0)
            assert evaluate_i32(p, EXP_MODEL) > 0.0

    @pytest.mark.parametrize("name", ["RECT", "CORPSE", "SCORPSE", "CLASS2ND",
                                      "SYM2ND", "ASYM2ND"])
    def test_catalog_kernel_against_quadrature(self, catalog, name):
        p = catalog[name]
        assert abs(_i32_shape_kernel(p.segments) - kernel_by_quadrature(p)) <= 1e-12


class TestSegmentIntegrals:
    @given(pulse=random_pulses())
    @settings(max_examples=50, deadline=None)
    def test_random_pulses_against_quadrature(self, pulse):
        check_segment_integrals(pulse)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
    def test_near_zero_amplitudes(self, eps):
        # closed forms that divide by the segment's angle lose every digit here
        pulse = PiecewiseConstantPulse("tiny", 1.0, (
            PulseSegment(0.0, 0.4, eps), PulseSegment(0.4, 0.7, 3.0),
            PulseSegment(0.7, 1.0, -eps)))
        check_segment_integrals(pulse)


class TestShapeMoments:
    def test_corpse_against_quadrature(self, catalog):
        p = catalog["CORPSE"].with_duration(1.0)
        bounds = [0.0] + [s.end for s in p.segments]
        ts_ref = sum(quad(lambda t: t * math.sin(p.angle_at(t)), a, b,
                          epsabs=1e-13)[0]
                     for a, b in zip(bounds[:-1], bounds[1:]))
        tc_ref = sum(quad(lambda t: t * math.cos(p.angle_at(t)), a, b,
                          epsabs=1e-13)[0]
                     for a, b in zip(bounds[:-1], bounds[1:]))
        ts, tc = first_moment_integrals(p)
        np.testing.assert_allclose([ts, tc], [ts_ref, tc_ref], atol=1e-11)

        d_ref = triangle_quad(p, lambda t1, t2: math.sin(p.angle_at(t1) - p.angle_at(t2)),
                              epsabs=1e-11)
        np.testing.assert_allclose(ordered_sine_integral(p), d_ref, atol=1e-9)

    def test_moment_scaling(self, catalog):
        p1 = catalog["SCORPSE"].with_duration(1.0)
        p3 = catalog["SCORPSE"].with_duration(3.0)
        ts1, tc1 = first_moment_integrals(p1)
        ts3, tc3 = first_moment_integrals(p3)
        np.testing.assert_allclose([ts3, tc3], [9 * ts1, 9 * tc1], rtol=1e-12,
                                   atol=1e-15)
        np.testing.assert_allclose(ordered_sine_integral(p3),
                                   9 * ordered_sine_integral(p1), rtol=1e-12,
                                   atol=1e-15)

    def test_catalog_second_order_character(self, catalog):
        """Which residuals each catalog shape leaves is load-bearing for the
        scaling experiments: the time-weighted moments vanish for SYM2ND and
        ASYM2ND, while CLASS2ND only satisfies the static-noise condition
        (ordered sine integral = 0) and keeps a finite cos moment."""
        for name in ("SYM2ND", "ASYM2ND"):
            ts, tc = first_moment_integrals(catalog[name].with_duration(1.0))
            assert abs(ts) < 1e-8 and abs(tc) < 1e-8
            assert abs(ordered_sine_integral(catalog[name].with_duration(1.0))) < 1e-7
        class2nd = catalog["CLASS2ND"].with_duration(1.0)
        ts, tc = first_moment_integrals(class2nd)
        assert abs(ts) < 1e-10
        np.testing.assert_allclose(tc, -0.18785, rtol=1e-3)
        assert abs(ordered_sine_integral(class2nd)) < 1e-7
        # SCORPSE (first order only) keeps both residuals
        scorpse = catalog["SCORPSE"].with_duration(1.0)
        np.testing.assert_allclose(ordered_sine_integral(scorpse), 0.1229320558,
                                   rtol=1e-7)


def _dense_nogo(pulse, n):
    """verify_nogo's report from dense N x N kernel matrices
    (A_ij = |t_i - t_j|, B_ij = sgn(t_i - t_j)), as a reference."""
    tau = pulse.tau_p
    dt = tau / n
    mids = (np.arange(n) + 0.5) * dt
    psi = pulse.angles_on(mids)
    cosv, sinv = np.cos(psi), np.sin(psi)
    gap = mids[:, None] - mids[None, :]
    a_kernel, b_kernel = np.abs(gap), np.sign(gap)
    b_cos, b_sin = (b_kernel @ cosv) * dt, (b_kernel @ sinv) * dt
    b_norm_cos, b_norm_sin = float(b_cos @ b_cos) * dt, float(b_sin @ b_sin) * dt
    btb = (b_kernel.T @ b_kernel) * dt
    i32_kernel = 0.5 * (b_norm_cos + b_norm_sin)
    return magnus.NoGoReport(
        grid_n=n, dt=dt,
        quad_a_cos=float(cosv @ (a_kernel @ cosv)) * dt * dt,
        quad_a_sin=float(sinv @ (a_kernel @ sinv)) * dt * dt,
        b_norm_cos=b_norm_cos, b_norm_sin=b_norm_sin,
        identity_residual=float(np.abs(a_kernel - 0.5 * (tau - btb)).max()),
        i32_kernel=i32_kernel, i32_discrete=EXP_MODEL.cusp_coefficient * i32_kernel)


class TestVerifyNogo:
    @pytest.mark.parametrize("n", [2, 3, 64, 257])
    @pytest.mark.parametrize("tau", [1.0, 2.0])
    @pytest.mark.parametrize("name", ["CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND"])
    def test_ordered_sums_match_dense_kernels(self, catalog, name, tau, n):
        p = catalog[name].with_duration(tau)
        got = dataclasses.asdict(verify_nogo(p, n, model=EXP_MODEL))
        ref = dataclasses.asdict(_dense_nogo(p, n))
        assert got["identity_residual"] == ref["identity_residual"]
        np.testing.assert_allclose(list(got.values()), list(ref.values()), rtol=1e-12, atol=0)

    def test_memory_is_linear_in_grid(self, catalog):
        # the dense route peaks at 192 MiB here (four 2048 x 2048 arrays and B^T B)
        p = catalog["SCORPSE"].with_duration(1.0)
        verify_nogo(p, 8)
        tracemalloc.start()
        try:
            verify_nogo(p, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_scorpse_matches_quadrature(self, catalog):
        p = catalog["SCORPSE"].with_duration(1.0)
        report = verify_nogo(p, 2048, model=EXP_MODEL)
        accurate = evaluate_i32(p, EXP_MODEL)
        assert report.i32_discrete > 0.0
        assert abs(report.i32_discrete / accurate - 1.0) < 0.01
        assert report.b_norm_cos > 0.0 and report.b_norm_sin > 0.0

    def test_quadratic_forms_negative_for_first_order(self, catalog):
        report = verify_nogo(catalog["SCORPSE"].with_duration(1.0), 512)
        assert report.quad_a_cos < 0.0 and report.quad_a_sin < 0.0
        # A-route and B-route evaluations of I_3/2 / a agree to O(dt)
        np.testing.assert_allclose(-(report.quad_a_cos + report.quad_a_sin),
                                   report.i32_kernel, rtol=2e-2)

    def test_identity_residual_is_half_dt_and_halves(self, catalog):
        p = catalog["SCORPSE"].with_duration(2.0)
        res = {}
        for n in (256, 512, 1024):
            report = verify_nogo(p, n)
            np.testing.assert_allclose(report.identity_residual, report.dt / 2,
                                       rtol=1e-12)
            res[n] = report.identity_residual
        np.testing.assert_allclose(res[256] / res[512], 2.0, rtol=1e-12)
        np.testing.assert_allclose(res[512] / res[1024], 2.0, rtol=1e-12)

    def test_rejects_zeroth_order_pulse(self, catalog):
        with pytest.raises(NotFirstOrder):
            verify_nogo(catalog["RECT"].with_duration(1.0), 128)


#: the seed-0 search at budget 2000 x 3 restarts, as the design benchmark runs it
PINNED_DESIGNS = """
import json
from pulselab import AutocorrelationModel, minimize_i32
EXP = AutocorrelationModel("exponential", g0=1.0, gamma=0.01)
print(json.dumps([minimize_i32(n, EXP, budget=2000, restarts=3, seed=0)[1] for n in (3, 4, 5)]))
"""


class TestMinimizeI32:
    @staticmethod
    def constraint_residual(pulse):
        s_val, c_val = first_order_integrals(pulse)
        return max(abs(pulse.total_angle - math.pi), abs(s_val), abs(c_val))

    def test_value_never_rises_with_segment_count(self):
        # stage n + 1 starts from stage n's best, split, so the ladder is monotone
        values = []
        for n_seg in (3, 4, 5, 6):
            pulse, val = minimize_i32(n_seg, EXP_MODEL, budget=300, restarts=1, seed=0)
            assert len(pulse.segments) == n_seg
            assert self.constraint_residual(pulse) <= 1e-8
            assert min(s.end - s.start for s in pulse.segments) >= MIN_GAP * (1.0 - 1e-8)
            values.append(val)
        assert all(b <= a for a, b in zip(values, values[1:])), values

    def test_three_segments_beat_scorpse(self, catalog):
        scorpse = evaluate_i32(catalog["SCORPSE"].with_duration(1.0), EXP_MODEL)
        _, val = minimize_i32(3, EXP_MODEL, budget=300, restarts=1, seed=1)
        assert 0.0 < val <= scorpse

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_segments_reach_the_bang_bang_basin(self, seed):
        # the best 3-segment pulse seen (widths 0.228/0.544/0.228, amplitudes
        # at -+- the bound) lies in the basin of the bang-bang start, so the
        # value does not hang on the random starts
        pulse, val = minimize_i32(3, EXP_MODEL, budget=300, restarts=1, seed=seed)
        assert self.constraint_residual(pulse) <= 1e-8
        assert 0.0 < val <= 1.072e-4

    @pytest.mark.parametrize("seed", [6, 7])
    def test_three_segments_feasible_at_seed(self, seed):
        # an earlier penalty search raised NoFeasiblePoint at these two seeds
        pulse, val = minimize_i32(3, EXP_MODEL, budget=2000, restarts=3, seed=seed)
        assert self.constraint_residual(pulse) <= 1e-8
        assert val > 0.0

    def test_returned_pulse_is_feasible_pi_pulse(self):
        pulse, val = minimize_i32(4, EXP_MODEL, budget=3000, restarts=3, seed=3)
        assert abs(pulse.total_angle - math.pi) < 1e-8
        s_val, c_val = first_order_integrals(pulse)
        assert abs(s_val) < 1e-8 and abs(c_val) < 1e-8
        assert val > 0.0

    def test_one_segment_table_per_evaluated_point(self, monkeypatch):
        calls = {"_primitive_table": 0, "_shape_sums": 0, "PulseSegment": 0}
        for module, name in ((pulses, "_primitive_table"), (magnus, "_shape_sums"),
                             (magnus, "PulseSegment")):
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        pulse, _ = minimize_i32(3, EXP_MODEL, budget=30, restarts=1)
        # every evaluated point is read straight from theta into one table;
        # the only segments built are the returned design's three
        assert calls["PulseSegment"] == len(pulse.segments) == 3
        assert calls["_shape_sums"] > 0 and calls["_primitive_table"] == calls["_shape_sums"]

    @pytest.mark.parametrize("n_seg", [3, 4, 5])
    def test_parameter_route_matches_segment_route(self, n_seg):
        # the search scores theta's (edges, amplitudes) layout; the returned
        # pulse's segments must give the same kernel bit for bit
        pulse, val = minimize_i32(n_seg, EXP_MODEL, budget=50, restarts=1, seed=0)
        assert val == EXP_MODEL.cusp_coefficient * _i32_shape_kernel(pulse.segments)

    def test_seed_zero_designs_are_pinned(self):
        # the designs depend on the BLAS thread count, so a child pins it to one
        proc = subprocess.run([sys.executable, "-c", PINNED_DESIGNS], capture_output=True,
                              env=_child_env(OPENBLAS_NUM_THREADS="1"), text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [1.071694474125724e-4, 6.756615943606211e-5,
                                           6.737047023675882e-5]

    def test_search_leaves_no_reference_cycle(self):
        # a point cache that referred to itself would keep each search's
        # cache alive until the cyclic collector runs
        minimize_i32(3, EXP_MODEL, budget=30, restarts=1)
        gc.collect()
        gc.disable()
        try:
            minimize_i32(4, EXP_MODEL, budget=30, restarts=1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_infeasible_amplitude_budget(self):
        # |amplitude| <= 0.5 cannot reach a pi rotation at tau_p = 1
        with pytest.raises(NoFeasiblePoint):
            minimize_i32(3, EXP_MODEL, budget=500, restarts=2, seed=0,
                         v_max_taup=0.5)

    def test_requires_cusp_model(self):
        with pytest.raises(ValueError):
            minimize_i32(3, GAUSS_MODEL)


FD_STEP = math.sqrt(np.finfo(float).eps)


def search_box(n, v_max_taup=magnus.DEFAULT_V_MAX_TAUP):
    return magnus._search_box(n, v_max_taup)


def kernel_of(theta):
    return magnus._kernel_and_constraints(np.asarray(theta).tolist())[0]


def constraints_of(theta):
    return np.array(magnus._kernel_and_constraints(np.asarray(theta).tolist())[1])


def search_jacobians(theta, lo, hi):
    theta = list(theta)
    return magnus._forward_differences(theta, *magnus._kernel_and_constraints(theta), lo, hi)


class TestForwardDifferences:
    """The design search's own Jacobians follow the rule of scipy's 2-point
    differences, so SLSQP takes the same path as with scipy's."""

    @pytest.fixture(params=["CORPSE", "SCORPSE", "random-5"])
    def theta(self, request, catalog):
        if request.param == "random-5":
            return np.random.default_rng(3).uniform(*search_box(5))
        return magnus._params_of(catalog[request.param])

    def test_interior_point_matches_approx_fprime(self, theta):
        grad, jac = search_jacobians(theta, *search_box(theta.size // 2))
        assert np.array_equal(grad, approx_fprime(theta, kernel_of, FD_STEP))
        assert np.array_equal(jac, approx_fprime(theta, constraints_of, FD_STEP))

    def test_arrays_are_c_contiguous_float64(self, theta):
        n = theta.size // 2
        grad, jac = search_jacobians(theta, *search_box(n))
        assert grad.shape == (2 * n,) and jac.shape == (4, 2 * n)
        for arr in (grad, jac):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous

    @pytest.mark.parametrize("i, side", [(0, "upper"), (1, "lower"), (3, "lower"),
                                         (4, "upper")])
    def test_step_on_a_bound_points_inside(self, catalog, i, side):
        # the step leaves the box forwards from an upper bound, so it is taken
        # backwards; from a lower bound the forward step stays inside
        theta = magnus._params_of(catalog["CORPSE"])
        lo, hi = search_box(3)
        theta[i] = hi[i] if side == "upper" else lo[i]
        grad, jac = search_jacobians(theta, lo, hi)
        h = -FD_STEP if side == "upper" else FD_STEP
        point = theta.copy()
        point[i] = theta[i] + h
        dx = (theta[i] + h) - theta[i]
        assert lo[i] <= point[i] <= hi[i]
        assert grad[i] == (kernel_of(point) - kernel_of(theta)) / dx
        assert np.array_equal(jac[:, i], (constraints_of(point) - constraints_of(theta)) / dx)

    @pytest.mark.parametrize("case", ["upper-bounds", "lower-bounds", "narrow-box",
                                      "large-amplitude"])
    def test_bounded_point_matches_approx_derivative(self, catalog, case):
        # approx_derivative with bounds is what SLSQP calls when given no jac
        theta = magnus._params_of(catalog["SCORPSE"])
        lo, hi = search_box(3)
        if case == "upper-bounds":
            theta[[0, 3]] = hi[0], hi[3]
        elif case == "lower-bounds":
            theta[[1, 4]] = lo[1], lo[4]
        elif case == "narrow-box":   # no step of FD_STEP fits: go to the farther bound
            lo[2], hi[2] = theta[2] - 1e-9, theta[2] + 4e-9
            lo[5], hi[5] = theta[5] - 4e-9, theta[5] + 1e-9
        else:   # FD_STEP is lost in the rounding of x ~ 1e9: a relative step
            # instead, which x + h rounds, so the quotient's dx is not h
            lo, hi = search_box(3, 1e10)
            theta[3:] = 1234567890.123, -1000123456.789, 987654321.0987
        grad, jac = search_jacobians(theta, lo, hi)
        for f, ours in ((kernel_of, grad), (constraints_of, jac)):
            theirs = approx_derivative(f, theta, method="2-point", abs_step=FD_STEP,
                                       bounds=(lo, hi))
            assert np.array_equal(ours, theirs)


class TestTracerNames:
    """``magnus.quad`` and ``magnus.least_squares`` forward to scipy: the
    benchmark tracer wraps them by name, so they are module attributes."""

    def test_names_are_module_attributes(self):
        assert "quad" in vars(magnus) and "least_squares" in vars(magnus)

    def test_quad_forwards(self):
        assert magnus.quad(math.sin, 0.0, math.pi) == quad(math.sin, 0.0, math.pi)

    def test_least_squares_forwards(self):
        t = np.linspace(0.0, 1.0, 9)

        def residuals(p):
            return p[0] * t - (2.0 * t + 0.1)

        ours, ref = magnus.least_squares(residuals, [1.0]), least_squares(residuals, [1.0])
        assert ours.x.tolist() == ref.x.tolist() and ours.cost == ref.cost
