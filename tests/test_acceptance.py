"""Acceptance suite: desk-scale end-to-end checks of the scaling physics.

Every check prints one PASS/FAIL line (collected in the terminal summary).
Desk scale: 20,000 realizations per point, 8 log-spaced inverse amplitudes,
512 time steps, fixed seed, so every number below is deterministic.

Six checks (three root causes) are known to fail and are kept failing on
purpose; each failing test's docstring states the quantitative reason.  The
common cause: the shipped shapes carry O(tau_p^4) residuals (the ordered sine
integral D = int int_{t2<t1} sin[psi(t1)-psi(t2)] for SCORPSE, the
time-weighted moment int t cos psi for CLASS2ND) that the targeted
leading-order laws ignore, and inside the configured windows those residuals
contribute between 4% and 300% of the leading term.
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from pulselab import (AutocorrelationModel, ScalingExperimentConfig, TimeGrid,
                      build_sampler, build_time_grid, ensemble_frobenius,
                      evaluate_i32, evolve_ensemble, fit_exponent,
                      first_order_integrals, minimize_i32,
                      run_prefactor_check, run_scaling, truncate_pulse,
                      verify_nogo)
from pulselab.magnus import _i32_shape_kernel
from pulselab.metrics import DF2_MAX
from reference import SIGMA_X, SIGMA_Y, SIGMA_Z

SEED = 7
REALIZATIONS = 20000
STEPS = 512
PULSES = ("RECT", "CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND")

GAUSS = AutocorrelationModel("gaussian", g0=1.0, gamma=0.1)
EXP = AutocorrelationModel("exponential", g0=1.0, gamma=0.01)


def record(tag: str, ok: bool, detail: str) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module")
def gaussian_run():
    config = ScalingExperimentConfig(
        pulses=PULSES, model=GAUSS,
        inv_v_grid=tuple(np.geomspace(1e-3, 1e-1, 8)),
        realizations=REALIZATIONS, steps_per_pulse=STEPS, seed=SEED)
    return run_scaling(config)


@pytest.fixture(scope="module")
def exponential_run():
    config = ScalingExperimentConfig(
        pulses=PULSES, model=EXP,
        inv_v_grid=tuple(np.geomspace(1e-3, 3e-2, 8)),
        realizations=REALIZATIONS, steps_per_pulse=STEPS, seed=SEED)
    return run_scaling(config)


def partial_slope(result, pulse, axis):
    pts = [(c.inv_v, c.partials[axis].mean_df2, c.partials[axis].stderr_df2)
           for c in result.cells_for(pulse)]
    return fit_exponent(pts, result.config.window).slope


def poldev_slope(result, pulse):
    pts = [(c.inv_v, c.poldev.mean_df2, c.poldev.stderr_df2)
           for c in result.cells_for(pulse)]
    # fit_exponent reports the exponent of the square root of the fitted
    # quantity; the polarization deviation itself scales with twice that
    return 2.0 * fit_exponent(pts, result.config.window).slope


# -- criterion 1: exponents under analytic (gaussian) autocorrelation ---------


GAUSSIAN_TARGETS = {
    "RECT": (1.0, 0.1), "CORPSE": (2.0, 0.15), "SCORPSE": (2.0, 0.15),
    "CLASS2ND": (3.0, 0.2), "SYM2ND": (3.0, 0.2), "ASYM2ND": (3.0, 0.2),
}


@pytest.mark.parametrize("name", [p for p in PULSES if p != "CLASS2ND"])
def test_criterion1_gaussian_exponents(gaussian_run, name):
    target, tol = GAUSSIAN_TARGETS[name]
    slope = gaussian_run.fits[name].slope
    ok = abs(slope - target) <= tol
    record(f"criterion 1 ({name})", ok,
           f"gaussian slope {slope:.3f}, target {target} +- {tol}")
    assert ok


def test_criterion1_gaussian_exponent_class2nd(gaussian_run):
    """Known failure: the shipped CLASS2ND is second-order for static noise
    only.  Its time-weighted moment int t cos psi = -0.188 tau_p^2 feeds
    2 g0^2 gamma^2 (0.188)^2 tau_p^4 into the averaged squared distance, which
    dominates the whole fit window, so the fitted exponent stays near 2
    instead of 3 (the stronger shapes SYM2ND/ASYM2ND, whose moment vanishes,
    do reach 3)."""
    target, tol = GAUSSIAN_TARGETS["CLASS2ND"]
    slope = gaussian_run.fits["CLASS2ND"].slope
    ok = abs(slope - target) <= tol
    record("criterion 1 (CLASS2ND)", ok,
           f"gaussian slope {slope:.3f}, target {target} +- {tol} "
           "(known catalog-data limitation)")
    assert ok


# -- criterion 2: anomalous exponents under exponential autocorrelation -------


EXPONENTIAL_TARGETS = {
    "RECT": (1.0, 0.1), "CORPSE": (1.5, 0.1), "SCORPSE": (1.5, 0.1),
    "CLASS2ND": (1.5, 0.1), "SYM2ND": (1.5, 0.1), "ASYM2ND": (1.5, 0.1),
}


@pytest.mark.parametrize("name", [p for p in PULSES if p != "SCORPSE"])
def test_criterion2_exponential_exponents(exponential_run, name):
    target, tol = EXPONENTIAL_TARGETS[name]
    slope = exponential_run.fits[name].slope
    ok = abs(slope - target) <= tol
    record(f"criterion 2 ({name})", ok,
           f"exponential slope {slope:.3f}, target {target} +- {tol}")
    assert ok


def test_criterion2_exponential_exponent_scorpse(exponential_run):
    """Known failure: SCORPSE's ordered sine integral D = 0.123 tau_p^2 adds
    a gamma-independent 3 D^2 tau_p^4 term to the averaged squared distance.
    At gamma = 0.01 it reaches 13% of the anomalous term already at
    1/v = 1e-3 and 400% at 3e-2, bending the fitted exponent to ~1.68; the
    window would need 1/v <~ 3e-4 for a clean 3/2 (the other shaped pulses
    have |D| <~ 2e-3 and pass)."""
    target, tol = EXPONENTIAL_TARGETS["SCORPSE"]
    slope = exponential_run.fits["SCORPSE"].slope
    ok = abs(slope - target) <= tol
    record("criterion 2 (SCORPSE)", ok,
           f"exponential slope {slope:.3f}, target {target} +- {tol} "
           "(known higher-order contamination)")
    assert ok


# -- criterion 3: cubic-law prefactor ------------------------------------------


@pytest.mark.parametrize("gamma", [0.01, 0.1])
def test_criterion3_prefactor_corpse(gamma):
    model = AutocorrelationModel("exponential", g0=1.0, gamma=gamma)
    rows = run_prefactor_check("CORPSE", model, [3e-3, 1e-2],
                               realizations=50000, steps_per_pulse=STEPS,
                               seed=SEED)
    ok = all(abs(r.measured_df2 - r.predicted_df2) <= 3 * r.stderr_df2
             for r in rows)
    detail = ", ".join(f"1/v={r.inv_v:.0e}: ratio {r.ratio:.4f}" for r in rows)
    record(f"criterion 3 (CORPSE, gamma={gamma})", ok, detail)
    assert ok


@pytest.mark.parametrize("gamma", [0.01, 0.1])
def test_criterion3_prefactor_scorpse(gamma):
    """Known failure: the same D-term as in criterion 2.  The measured mean
    squared distance exceeds the leading cubic law by the factor
    1 + 4 D^2 (v tau_p)^4 (1/v) / (prefactor gamma) -- between 4% and 128% at
    these (gamma, 1/v) combinations -- which is tens of Monte-Carlo standard
    errors at 50,000 realizations.  CORPSE, with |D| = 0.0017, sits within
    1.3 sigma everywhere."""
    model = AutocorrelationModel("exponential", g0=1.0, gamma=gamma)
    rows = run_prefactor_check("SCORPSE", model, [3e-3, 1e-2],
                               realizations=50000, steps_per_pulse=STEPS,
                               seed=SEED)
    ok = all(abs(r.measured_df2 - r.predicted_df2) <= 3 * r.stderr_df2
             for r in rows)
    detail = ", ".join(f"1/v={r.inv_v:.0e}: ratio {r.ratio:.4f}" for r in rows)
    record(f"criterion 3 (SCORPSE, gamma={gamma})", ok,
           detail + " (known higher-order contamination)")
    assert ok


# -- criterion 4: semianalytic anomalous integral -------------------------------


def test_criterion4_i32_quadrature_matches_closed_forms(catalog):
    _i32_shape_kernel.cache_clear()
    results = []
    for name, coeff in (("CORPSE", 3 * math.pi), ("SCORPSE", 2 * math.pi)):
        inv_v = 4e-3
        pulse = catalog[name].for_inverse_amplitude(inv_v)
        start = time.perf_counter()
        got = evaluate_i32(pulse, EXP)
        elapsed = time.perf_counter() - start
        expect = coeff * EXP.g0**2 * EXP.gamma * inv_v**3
        results.append((name, abs(got / expect - 1.0), elapsed))
    ok = all(rel <= 1e-6 and dt < 1.0 for _, rel, dt in results)
    record("criterion 4", ok,
           ", ".join(f"{n}: rel {rel:.1e} in {dt*1e3:.0f} ms"
                     for n, rel, dt in results))
    assert ok


# -- criterion 5: no-go verification and constrained minimum --------------------


def test_criterion5_kernel_positivity(catalog):
    vals = {}
    for name in ("CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND"):
        report = verify_nogo(catalog[name].with_duration(1.0), 512, model=EXP)
        vals[name] = report.i32_discrete
    ok = all(v > 0.0 for v in vals.values())
    record("criterion 5 (positivity)", ok,
           ", ".join(f"{n}: {v:.2e}" for n, v in vals.items()))
    assert ok


def test_criterion5_identity_residual_convergence(catalog):
    pulse = catalog["SCORPSE"].with_duration(1.0)
    residuals = {n: verify_nogo(pulse, n).identity_residual
                 for n in (256, 512, 1024)}
    orders = [math.log2(residuals[256] / residuals[512]),
              math.log2(residuals[512] / residuals[1024])]
    c_bound = max(residuals[n] * n / pulse.tau_p for n in residuals)
    ok = min(orders) >= 0.9 and c_bound <= 1.0
    record("criterion 5 (identity residual)", ok,
           f"residuals {residuals[256]:.2e}/{residuals[512]:.2e}/"
           f"{residuals[1024]:.2e}, orders {orders[0]:.2f}, {orders[1]:.2f}")
    assert ok


def test_criterion5_constrained_minimum(catalog):
    scorpse_val = evaluate_i32(catalog["SCORPSE"].with_duration(1.0), EXP)
    floor = 1e-3 * scorpse_val
    found = {}
    for n_seg in (3, 4, 5):
        _, val = minimize_i32(n_seg, EXP, budget=15000, restarts=10, seed=11)
        found[n_seg] = val
    ok = all(v > floor for v in found.values())
    record("criterion 5 (minimization)", ok,
           ", ".join(f"{n} segments: {v:.2e}" for n, v in found.items())
           + f" (floor {floor:.2e})")
    assert ok


# -- criterion 6: first-order integrals -----------------------------------------


def test_criterion6_first_order_conditions(catalog):
    tau = 1.7
    worst = 0.0
    for name in ("CORPSE", "SCORPSE"):
        s_val, c_val = first_order_integrals(catalog[name].with_duration(tau))
        worst = max(worst, abs(s_val) / tau, abs(c_val) / tau)
    s_rect, c_rect = first_order_integrals(catalog["RECT"].with_duration(tau))
    rect_ok = (abs(s_rect - 2 * tau / math.pi) < 1e-12
               and abs(c_rect) < 1e-12)
    ok = worst < 1e-12 and rect_ok
    record("criterion 6", ok,
           f"max |S|,|C| for CORPSE/SCORPSE: {worst:.1e} tau_p; "
           f"RECT S = {s_rect:.12f} (2 tau/pi = {2 * tau / math.pi:.12f})")
    assert ok


# -- criterion 7: metric identities ---------------------------------------------


def test_criterion7_metric_identities(catalog):
    rng = np.random.default_rng(123)
    q = rng.normal(size=(100000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    us = np.empty((q.shape[0], 2, 2), dtype=complex)
    us[:, 0, 0] = w - 1j * z
    us[:, 0, 1] = -y - 1j * x
    us[:, 1, 0] = y - 1j * x
    us[:, 1, 1] = w + 1j * z
    total15 = np.zeros(q.shape[0])
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        tr = np.einsum("ij,njk,kl,nml->nim", sigma, us, sigma, us.conj())
        traces = np.trace(tr, axis1=1, axis2=2).real
        total15 += 1.0 - 0.5 * traces
    total15 /= 3.0
    total16 = DF2_MAX * (1.0 - w**2)
    max_disc = np.abs(total15 - total16).max()

    in_range = bool(np.all(total16 >= 0.0) and np.all(total16 <= DF2_MAX + 1e-12))

    worst_noiseless = 0.0
    for name in PULSES:
        pulse = catalog[name].with_duration(0.42)
        grid = build_time_grid(pulse, STEPS)
        qw, qx, qy, qz = evolve_ensemble(pulse, grid, np.zeros((STEPS, 1)))
        df = math.sqrt(ensemble_frobenius(qw, qx, qy, qz)["df2"][0])
        worst_noiseless = max(worst_noiseless, df)

    ok = max_disc < 1e-12 and in_range and worst_noiseless < 1e-10
    record("criterion 7", ok,
           f"max identity discrepancy {max_disc:.1e} over 1e5 unitaries; "
           f"range ok: {in_range}; worst noiseless DF {worst_noiseless:.1e}")
    assert ok


# -- criterion 8: polarization deviation scaling --------------------------------


def test_criterion8_polarization_scaling_gaussian(gaussian_run):
    slope = poldev_slope(gaussian_run, "SCORPSE")
    ok = abs(slope - 4.0) <= 0.3
    record("criterion 8 (gaussian)", ok, f"poldev slope {slope:.3f}, target 4.0 +- 0.3")
    assert ok


def test_criterion8_polarization_scaling_exponential(exponential_run):
    """Known failure: the polarization deviation for a y-polarized start is
    exactly the y-direction partial, so SCORPSE's D-term contaminates it the
    same way as in criterion 2; the measured slope is ~3.4 against the
    leading-order target 3.0 +- 0.3."""
    slope = poldev_slope(exponential_run, "SCORPSE")
    ok = abs(slope - 3.0) <= 0.3
    record("criterion 8 (exponential)", ok,
           f"poldev slope {slope:.3f}, target 3.0 +- 0.3 "
           "(known higher-order contamination)")
    assert ok


# -- criterion 9: partial-norm slope agreement -----------------------------------


def test_criterion9_partial_slopes_gaussian(gaussian_run):
    total = gaussian_run.fits["SCORPSE"].slope
    spreads = [abs(partial_slope(gaussian_run, "SCORPSE", i) - total)
               for i in range(3)]
    ok = max(spreads) <= 0.1
    record("criterion 9 (gaussian)", ok,
           f"partial-total spreads {spreads[0]:.3f}/{spreads[1]:.3f}/"
           f"{spreads[2]:.3f}, limit 0.1")
    assert ok


def test_criterion9_partial_slopes_exponential(exponential_run):
    """Known failure: under the cusp model the three partials mix the
    anomalous 3/2 term and SCORPSE's tau_p^4 D-term in different proportions
    (the x partial carries none of the D-term, the z partial most of it), so
    their fitted slopes straddle the contaminated total by up to 0.21 inside
    this window, exceeding the 0.1 agreement bound."""
    total = exponential_run.fits["SCORPSE"].slope
    spreads = [abs(partial_slope(exponential_run, "SCORPSE", i) - total)
               for i in range(3)]
    ok = max(spreads) <= 0.1
    record("criterion 9 (exponential)", ok,
           f"partial-total spreads {spreads[0]:.3f}/{spreads[1]:.3f}/"
           f"{spreads[2]:.3f}, limit 0.1 (known higher-order contamination)")
    assert ok


# -- criterion 10: noise synthesis ----------------------------------------------


def test_criterion10_noise_statistics():
    worst = {}
    for kind, gamma in (("gaussian", 0.5), ("exponential", 1.0)):
        model = AutocorrelationModel(kind, g0=1.0, gamma=gamma)
        grid = TimeGrid.uniform(2.0, 16)
        sampler = build_sampler(model, grid, seed=123)
        block = sampler.sample_block(200000, stream=(0,))
        m = block.shape[1]
        cov = (block @ block.T) / m
        target = sampler.covariance
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
        worst[kind] = float((np.abs(cov - target) / se).max())
        rebuilt = build_sampler(model, grid, seed=123)
        assert np.array_equal(rebuilt.sample_block(64, stream=(1,)),
                              sampler.sample_block(64, stream=(1,)))
    ok = all(v < 5.0 for v in worst.values())
    record("criterion 10", ok,
           f"max covariance deviation: gaussian {worst['gaussian']:.2f} sigma, "
           f"exponential {worst['exponential']:.2f} sigma; "
           "same-seed draws bit-identical")
    assert ok


# -- criterion 11: accuracy plateau emulation ------------------------------------


def test_criterion11_truncation_plateau(catalog):
    """A finite-accuracy realization plateaus at its accuracy scale: once the
    noise term has fallen below it, DF stays flat, within a factor 3 of the
    accuracy.  The accuracy is the total-angle error a = |psi(tau_p) - pi|
    of the rounded shape, summed in closed form over its segments.
    truncate_pulse promises no accuracy of 10^-decimals: rounding SYM2ND's
    amplitudes of order 11/tau_p and its switching instants to 3 decimals
    leaves a = 0.0369 rad, and a static rotation error a gives
    DF = sqrt(DF2_MAX) |sin(a/2)| = 2.13e-2."""
    trunc = truncate_pulse(catalog["SYM2ND"], 3)
    angle = sum(2.0 * s.amplitude_taup * (s.end - s.start) for s in trunc.segments)
    accuracy = abs(angle - math.pi)
    vt = catalog["SYM2ND"].v_tau_product
    levels = []
    for inv_v in (1e-4, 3e-4, 1e-3):
        scaled = trunc.with_duration(vt * inv_v)
        grid = build_time_grid(scaled, STEPS)
        sampler = build_sampler(GAUSS, grid, seed=5)
        eta = sampler.sample_block(2000, stream=(0,))
        qw, qx, qy, qz = evolve_ensemble(scaled, grid, eta)
        levels.append(math.sqrt(ensemble_frobenius(qw, qx, qy, qz)["df2"].mean()))
    flat = max(levels) / min(levels) < 1.2
    ok = flat and all(accuracy / 3 <= lv <= 3 * accuracy for lv in levels)
    record("criterion 11", ok,
           f"angle error a = {accuracy:.4e} rad; plateau levels "
           f"{levels[0]:.2e}/{levels[1]:.2e}/{levels[2]:.2e}, "
           f"target within [a/3, 3a] = [{accuracy / 3:.2e}, {3 * accuracy:.2e}]")
    assert ok
