"""Standing waves of the 1D quadratic-cubic Klein-Gordon equation.

Construction of soliton profiles, closed-form and quadrature observables,
orbital-stability classification over the frequency window, spectra of the
linearized operators, and nonlinear time evolution — with a CLI front end
(``kgstab``) over all of it.
"""

from .evolve import (CFLError, Diagnostics, FieldState, field_charge,
                     field_energy, init_state, orbital_distance,
                     parse_perturbation, run)
from .model import (DomainError, FrequencyWindow, ModelParams, alpha_of_omega,
                    g_derivatives, omega_of_alpha, r_star)
from .soliton import (GridError, SolitonProfile, build_profile, charge,
                      closed_form_profile, closed_form_slope,
                      composite_simpson, d_second_numeric, energy)
from .spectrum import (EigensolverError, SpectrumReport, TridiagonalOperator,
                       assemble, apply, eigenvalue_count_below,
                       lowest_eigenpairs, spectral_report)
from .stability import (OracleDisagreementError, StabilityReport, TauStarResult,
                        classify, d_second_sign, k1, k2, k2_prime,
                        sigma_closed, tau_star)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ModelParams", "FrequencyWindow", "DomainError", "alpha_of_omega",
    "omega_of_alpha", "r_star", "g_derivatives",
    # soliton
    "SolitonProfile", "GridError", "closed_form_profile", "closed_form_slope",
    "build_profile", "composite_simpson", "charge", "energy",
    "d_second_numeric",
    # stability
    "OracleDisagreementError", "StabilityReport", "TauStarResult", "k1", "k2",
    "k2_prime", "tau_star", "sigma_closed", "d_second_sign", "classify",
    # spectrum
    "EigensolverError", "TridiagonalOperator", "SpectrumReport", "assemble",
    "apply", "eigenvalue_count_below", "lowest_eigenpairs", "spectral_report",
    # evolve
    "CFLError", "FieldState", "Diagnostics", "parse_perturbation",
    "init_state", "field_energy", "field_charge", "orbital_distance", "run",
]
