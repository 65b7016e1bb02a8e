"""Spectral solver for the 1D periodic advection-diffusion equation.

Fourier modes carry the spatial periodicity; time integration is handled by
Gegenbauer-Gauss integral collocation, so no time stepping is involved. The
package also ships a closed-form variant and an analysis toolkit for error,
convergence, and conditioning studies.
"""

from .analysis import (ConditioningReport, ErrorReport, SweepResult,
                       conditioning_study, convergence_sweep, error_report,
                       jacobi_svd, singular_values)
from .fourier import (FourierGrid, InitialSpectrum, dft_coefficients,
                      synthesize_derivative, synthesize_field)
from .gegenbauer import (GegenbauerBasis, IntegrationMatrix, TimeGrid,
                         bary_interpolate, build_basis,
                         build_integration_matrix, shift_integration_matrix,
                         time_grid)
from .problems import (ADProblem, ConfigError, SolverConfig, load_config,
                       parse_config_pairs, test_problem)
from .semianalytic import (SAField, sa_coefficient_map,
                           sa_evaluate_u, sa_evaluate_ux, sa_field)
from .solver import (ModeSolveError, SpectralSolution, assemble_mode,
                     coefficients_at, evaluate_u, evaluate_ux, mode_rate,
                     solve_modes)

__version__ = "0.1.0"

__all__ = [
    "ADProblem", "ConditioningReport", "ConfigError",
    "ErrorReport", "FourierGrid", "GegenbauerBasis", "InitialSpectrum",
    "IntegrationMatrix", "ModeSolveError", "SAField",
    "SolverConfig", "SpectralSolution", "SweepResult", "TimeGrid",
    "assemble_mode", "bary_interpolate", "build_basis",
    "build_integration_matrix", "coefficients_at", "conditioning_study",
    "convergence_sweep", "dft_coefficients", "error_report", "evaluate_u",
    "evaluate_ux", "jacobi_svd", "load_config",
    "mode_rate", "parse_config_pairs", "sa_coefficient_map",
    "sa_evaluate_u", "sa_evaluate_ux", "sa_field", "shift_integration_matrix",
    "singular_values", "solve_modes", "synthesize_derivative",
    "synthesize_field", "test_problem", "time_grid",
]
