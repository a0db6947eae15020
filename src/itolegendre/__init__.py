"""Iterated Ito stochastic integrals via Fourier-Legendre expansions.

The package builds truncated expansions of iterated Ito integrals with
monomial weights from independent standard Gaussians, computes their exact
mean-square truncation error for any coincidence pattern of Wiener
components (multiplicities 1..5 certified), evaluates the factorial upper
bound, and validates everything against a coupled Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .coeffs import (
    CacheIntegrityError,
    CoeffValue,
    DegreeCapError,
    Interval,
    WeightSpec,
    coefficient_table,
    fourier_coefficient,
    kernel_norm,
    load_table,
    save_table,
)
from .expansion import (
    ExperimentalWarning,
    GaussianDraw,
    IndexPattern,
    MatchingTerm,
    MissingCoefficientError,
    enumerate_matchings,
    expansion_plan,
    realize,
    sample_draw,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    empirical_mse,
    run_report,
    simulate_true_integral,
    zetas_from_path,
)
from .msekit import (
    CaseInfo,
    MseReport,
    PatternScopeError,
    classify_case,
    exact_mse,
    list_cases,
    mse_bound,
    mse_bound_exact,
)
from .polycore import Poly, Rational, legendre

__all__ = [
    "CacheIntegrityError",
    "CaseInfo",
    "CoeffValue",
    "DegreeCapError",
    "ExperimentalWarning",
    "GaussianDraw",
    "IndexPattern",
    "Interval",
    "MatchingTerm",
    "McConfig",
    "McEstimate",
    "MissingCoefficientError",
    "MseReport",
    "PatternScopeError",
    "Poly",
    "Rational",
    "WeightSpec",
    "classify_case",
    "coefficient_table",
    "empirical_mse",
    "enumerate_matchings",
    "exact_mse",
    "expansion_plan",
    "fourier_coefficient",
    "kernel_norm",
    "legendre",
    "list_cases",
    "load_table",
    "mse_bound",
    "mse_bound_exact",
    "realize",
    "run_report",
    "sample_draw",
    "save_table",
    "simulate_true_integral",
    "zetas_from_path",
]
