"""Tests for the pulse catalog, the angle psi(t), and the first-order integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pulselab import (CatalogInvalid, OutOfRangeError, PiecewiseConstantPulse,
                      PulseSegment, build_time_grid, first_order_integrals,
                      load_catalog, save_catalog, truncate_pulse,
                      validate_catalog)
from pulselab.pulses import grid_is_aligned, require_valid

NAMES = ["RECT", "CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND"]


class TestCatalogContent:
    def test_names(self, catalog):
        assert [p.name for p in catalog] == NAMES

    def test_corpse_structure(self, catalog):
        p = catalog["CORPSE"]
        assert [s.end for s in p.segments[:-1]] == [1 / 13, 6 / 13]
        amps = [s.amplitude_taup for s in p.segments]
        np.testing.assert_allclose(np.abs(amps), 13 * math.pi / 6, rtol=1e-15)
        assert np.sign(amps).tolist() == [1, -1, 1]

    def test_scorpse_structure(self, catalog):
        p = catalog["SCORPSE"]
        assert [s.end for s in p.segments[:-1]] == [1 / 7, 6 / 7]
        amps = [s.amplitude_taup for s in p.segments]
        np.testing.assert_allclose(np.abs(amps), 7 * math.pi / 6, rtol=1e-15)
        assert np.sign(amps).tolist() == [-1, 1, -1]

    def test_second_order_sign_patterns(self, catalog):
        assert [np.sign(s.amplitude_taup) for s in catalog["CLASS2ND"].segments] == \
            [1, -1, 1, -1, 1]
        assert [np.sign(s.amplitude_taup) for s in catalog["SYM2ND"].segments] == \
            [-1, 1, -1, 1, -1]
        assert [np.sign(s.amplitude_taup) for s in catalog["ASYM2ND"].segments] == \
            [1, -1, 1, -1, 1, -1]

    def test_sym2nd_is_symmetric(self, catalog):
        segs = catalog["SYM2ND"].segments
        amps = [s.amplitude_taup for s in segs]
        widths = [s.end - s.start for s in segs]
        np.testing.assert_allclose(amps, amps[::-1], rtol=1e-15)
        np.testing.assert_allclose(widths, widths[::-1], rtol=1e-12)

    def test_total_angles_are_pi(self, catalog):
        for pulse in catalog:
            assert abs(pulse.total_angle - math.pi) < 1e-9

    def test_round_trip(self, catalog, tmp_path):
        path = tmp_path / "cat.json"
        save_catalog(catalog, path)
        again = load_catalog(path)
        for name in NAMES:
            a, b = catalog[name], again[name]
            assert a.order == b.order
            for sa, sb in zip(a.segments, b.segments):
                assert (sa.start, sa.end, sa.amplitude_taup) == \
                    (sb.start, sb.end, sb.amplitude_taup)

    def test_repeated_name_is_refused(self, catalog, tmp_path):
        # names are upper-cased, so an order-0 RECT shape named "corpse"
        # would silently replace CORPSE
        path = tmp_path / "cat.json"
        save_catalog(list(catalog) + [PiecewiseConstantPulse(
            "corpse", 1.0, catalog["RECT"].segments, 0)], path)
        with pytest.raises(ValueError, match="pulse CORPSE is defined twice"):
            load_catalog(path)


class TestAngle:
    def test_rect_midpoint(self, catalog):
        p = catalog["RECT"].with_duration(2.0)
        np.testing.assert_allclose(p.angle_at(1.0), math.pi / 2, rtol=1e-14)

    def test_corpse_first_switch(self, catalog):
        p = catalog["CORPSE"].with_duration(1.3)
        np.testing.assert_allclose(p.angle_at(1.3 / 13), math.pi / 3, rtol=1e-12)

    def test_scorpse_first_switch(self, catalog):
        p = catalog["SCORPSE"].with_duration(0.9)
        np.testing.assert_allclose(p.angle_at(0.9 / 7), -math.pi / 3, rtol=1e-12)

    def test_out_of_range(self, catalog):
        p = catalog["RECT"].with_duration(1.0)
        with pytest.raises(OutOfRangeError):
            p.angle_at(-0.1)
        with pytest.raises(OutOfRangeError):
            p.angle_at(1.1)

    def test_continuity_at_switches(self, catalog):
        eps = 1e-12
        for pulse in catalog:
            p = pulse.with_duration(1.0)
            for t in p.switching_instants:
                left = p.angle_at(max(t - eps, 0.0))
                right = p.angle_at(min(t + eps, 1.0))
                assert abs(left - right) < 1e-10

    def test_vectorized_matches_scalar(self, catalog):
        p = catalog["ASYM2ND"].with_duration(0.7)
        ts = np.linspace(0.0, 0.7, 57)
        vec = p.angles_on(ts)
        np.testing.assert_allclose(vec, [p.angle_at(t) for t in ts], rtol=1e-13)


class TestFirstOrderIntegrals:
    def test_rect(self, catalog):
        p = catalog["RECT"].with_duration(1.7)
        s_val, c_val = first_order_integrals(p)
        np.testing.assert_allclose(s_val, 2 * 1.7 / math.pi, rtol=1e-12)
        assert abs(c_val) < 1e-12 * 1.7

    @pytest.mark.parametrize("name", ["CORPSE", "SCORPSE"])
    def test_first_order_pulses_vanish(self, catalog, name):
        p = catalog[name].with_duration(2.3)
        s_val, c_val = first_order_integrals(p)
        assert abs(s_val) < 1e-12 * 2.3
        assert abs(c_val) < 1e-12 * 2.3

    @pytest.mark.parametrize("name", NAMES)
    def test_against_quadrature(self, catalog, name):
        p = catalog[name].with_duration(1.0)
        bounds = [0.0] + [s.end for s in p.segments]
        s_ref = sum(quad(lambda t: math.sin(p.angle_at(t)), a, b, epsabs=1e-14)[0]
                    for a, b in zip(bounds[:-1], bounds[1:]))
        c_ref = sum(quad(lambda t: math.cos(p.angle_at(t)), a, b, epsabs=1e-14)[0]
                    for a, b in zip(bounds[:-1], bounds[1:]))
        s_val, c_val = first_order_integrals(p)
        assert abs(s_val - s_ref) < 1e-12
        assert abs(c_val - c_ref) < 1e-12

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_covariance(self, scale):
        # stretching tau_p leaves psi(t/tau_p) unchanged and scales S, C linearly
        p1 = load_catalog()["CORPSE"].with_duration(1.0)
        p2 = p1.with_duration(scale)
        s1, c1 = first_order_integrals(p1)
        s2, c2 = first_order_integrals(p2)
        np.testing.assert_allclose([s2, c2], [scale * s1, scale * c1],
                                   rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(p2.angle_at(0.3 * scale), p1.angle_at(0.3),
                                   rtol=1e-12)


class TestValidation:
    def test_shipped_catalog_passes(self, catalog):
        report = validate_catalog(catalog)
        assert report.ok, str(report)

    def test_rect_gets_no_first_order_check(self, catalog):
        report = validate_catalog(catalog)
        rect_checks = [c for c in report.checks if c[0] == "RECT"]
        assert [c[1] for c in rect_checks] == ["total-angle"]

    def test_flipped_scorpse_fails_angle(self, catalog):
        bad_segs = tuple(
            PulseSegment(s.start, s.end, -s.amplitude_taup)
            for s in catalog["SCORPSE"].segments
        )
        bad = PiecewiseConstantPulse("SCORPSE", 1.0, bad_segs, order=1)
        from pulselab.pulses import PulseCatalog
        report = validate_catalog(PulseCatalog({"SCORPSE": bad}))
        assert not report.ok
        assert any(c[1] == "total-angle" for c in report.failures)
        # an invalid argument, named by its first failed check
        with pytest.raises(ValueError, match=r"^invalid catalog: SCORPSE total-angle: "
                                             r"\|psi\(tau_p\) - pi\| = 6\.28e\+00$") as exc:
            require_valid(PulseCatalog({"SCORPSE": bad}))
        assert isinstance(exc.value, CatalogInvalid)

    def test_segment_tiling_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseConstantPulse("bad", 1.0, (
                PulseSegment(0.0, 0.4, 1.0), PulseSegment(0.5, 1.0, 1.0)))
        with pytest.raises(ValueError):
            PiecewiseConstantPulse("bad", 1.0, (PulseSegment(0.0, 0.9, 1.0),))


class TestGridsAndPerturbations:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("n", [16, 97, 512])
    def test_grid_alignment_and_count(self, catalog, name, n):
        p = catalog[name].with_duration(0.83)
        grid = build_time_grid(p, n)
        assert grid.n_steps == n
        assert grid_is_aligned(p, grid)
        for t in p.switching_instants:
            assert np.any(grid.boundaries == t)

    def test_truncate_pulse_tiles_and_degrades(self, catalog):
        trunc = truncate_pulse(catalog["SYM2ND"], 3)
        prev = 0.0
        for seg in trunc.segments:
            assert seg.start == prev
            prev = seg.end
        assert prev == 1.0
        # rounding to 3 decimals costs the pi condition
        assert abs(trunc.total_angle - math.pi) > 1e-6

    def test_peak_amplitude_scaling(self, catalog):
        p = catalog["CORPSE"]
        inv_v = 2.5e-3
        scaled = p.for_inverse_amplitude(inv_v)
        np.testing.assert_allclose(scaled.peak_amplitude, 1.0 / inv_v, rtol=1e-15)
        np.testing.assert_allclose(scaled.tau_p, 13 * math.pi / 6 * inv_v, rtol=1e-15)
