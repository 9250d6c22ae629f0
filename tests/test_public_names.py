"""The public names of ``pulselab``, pinned.

Adding, renaming or removing a public name changes this list, so it shows up
in the diff of the change that makes it.
"""

import types

import pulselab

PUBLIC_NAMES = [
    "AutocorrelationModel", "CatalogInvalid", "EXPONENTIAL", "EigenvalueTooNegative",
    "FitResult", "GAUSSIAN", "GridMismatch", "InsufficientPoints", "MonteCarloEstimate",
    "NoFeasiblePoint", "NoGoReport", "NoiseSampler", "NotFirstOrder", "OutOfRangeError",
    "PiecewiseConstantPulse", "PrefactorRow", "PulseCatalog", "PulseSegment",
    "PulselabError", "ScalingExperimentConfig", "ScalingResult", "TimeGrid",
    "accumulate_values", "build_sampler", "build_time_grid", "ensemble_frobenius",
    "evaluate_i1", "evaluate_i32", "evolve_ensemble", "first_moment_integrals",
    "first_order_integrals", "fit_exponent", "load_catalog", "minimize_i32",
    "ordered_sine_integral", "run_prefactor_check", "run_scaling", "save_catalog",
    "truncate_pulse", "validate_catalog", "verify_nogo",
]


def test_public_names_are_pinned():
    names = sorted(name for name in dir(pulselab) if not name.startswith("__")
                   and not isinstance(getattr(pulselab, name), types.ModuleType))
    assert names == PUBLIC_NAMES
