"""pulselab: shaped spin-flip pulses under correlated classical dephasing noise.

Simulates a driven two-level system H(t) = eta(t) sigma_z + v(t) sigma_x with
correlated Gaussian noise eta, measures pulse quality with a polarization-
averaged Frobenius norm, and reproduces the scaling laws of shaped pi-pulses,
including the anomalous tau_p^(3/2) law for noise with a cusp-like
autocorrelation and the impossibility of designing it away.
"""

from .errors import (CatalogInvalid, EigenvalueTooNegative, GridMismatch,
                     InsufficientPoints, MissingTrajectory, NoFeasiblePoint,
                     NotFirstOrder, NotUnitary, OutOfRangeError, PulselabError)
from .noise import (AutocorrelationModel, EXPONENTIAL, GAUSSIAN,
                    NoiseRealization, NoiseSampler, TimeGrid, build_sampler)
from .pulses import (PiecewiseConstantPulse, PulseCatalog, PulseSegment,
                     build_time_grid, first_order_integrals, load_catalog,
                     save_catalog, truncate_pulse, validate_catalog)
from .propagator import (Trajectory, UnitaryResult, evolve, evolve_ensemble,
                         ideal_pulse)
from .metrics import (FrobeniusSample, MonteCarloEstimate, accumulate,
                      accumulate_values, ensemble_frobenius,
                      frobenius_from_unitary, polarization_deviation)
from .magnus import (MagnusFirstOrder, NoGoReport, evaluate_i1, evaluate_i32,
                     evaluate_mu2x, first_moment_integrals, first_order_terms,
                     minimize_i32, ordered_sine_integral, verify_nogo)
from .harness import (ConvergenceReport, FitResult, PrefactorRow,
                      ScalingExperimentConfig, ScalingResult, fit_exponent,
                      run_convergence_check, run_prefactor_check, run_scaling)

__version__ = "0.1.0"
