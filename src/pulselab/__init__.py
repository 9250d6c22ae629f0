"""pulselab: shaped spin-flip pulses under correlated classical dephasing noise.

Simulates a driven two-level system H(t) = eta(t) sigma_z + v(t) sigma_x with
correlated Gaussian noise eta, measures pulse quality with a polarization-
averaged Frobenius norm, and reproduces the scaling laws of shaped pi-pulses,
including the anomalous tau_p^(3/2) law for noise with a cusp-like
autocorrelation and the impossibility of designing it away.
"""

from .errors import (CatalogInvalid, EigenvalueTooNegative, GridMismatch,
                     InsufficientPoints, NoFeasiblePoint, NotFirstOrder,
                     OutOfRangeError, PulselabError)
from .noise import (AutocorrelationModel, EXPONENTIAL, GAUSSIAN, NoiseSampler,
                    TimeGrid, build_sampler)
from .pulses import (PiecewiseConstantPulse, PulseCatalog, PulseSegment,
                     build_time_grid, first_order_integrals, load_catalog,
                     save_catalog, truncate_pulse, validate_catalog)
from .propagator import evolve_ensemble
from .metrics import MonteCarloEstimate, accumulate_values, ensemble_frobenius
from .magnus import (NoGoReport, evaluate_i1, evaluate_i32, first_moment_integrals,
                     minimize_i32, ordered_sine_integral, verify_nogo)
from .harness import (FitResult, PrefactorRow, ScalingExperimentConfig, ScalingResult,
                      fit_exponent, run_prefactor_check, run_scaling)

__version__ = "0.1.0"
