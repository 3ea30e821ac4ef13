"""Vaccine-efficacy estimands on time-to-event distribution pairs.

The package computes, converts, and stress-tests the common VE estimands
(cumulative incidence, incidence rate, hazard-ratio, cumulative hazard,
odds) defined nonparametrically on a pair of time-to-event distributions,
and checks them against a frailty-aware randomized-trial simulator with
the matching empirical estimators.
"""

from .distributions import (
    Exponential,
    HazardSegment,
    PiecewiseHazard,
    SurvivalModel,
    TabulatedCdf,
    Weibull,
    distribution_spec,
    parse_distribution,
)
from .errors import (
    DomainError,
    GuardTimeError,
    SolverError,
    SupportExhaustedError,
    UndefinedEstimandError,
    VekitError,
)
from .estimands import (
    EstimandReport,
    IrBounds,
    Scenario,
    estimand_report,
    theta_ci_to_theta_ch,
    theta_ir_bounds,
    theta_odds_to_theta_ci,
    ve_ch,
    ve_ci,
    ve_cox,
    ve_ir,
    ve_local_hazard,
    ve_odds,
    weighted_mean_hazard_ratio,
)
from .frailty import (
    FrailtySpec,
    gamma_population_hazard,
    gamma_population_hr,
    log10_frailty_cdf,
    population_model,
    sample_frailty,
    spec_from_tau,
    stable_individual_from_population,
    stable_population_model,
)
from .rampup import (
    RampUpScenarioParams,
    build_scenario,
    conditional_distribution,
    rampup_ve,
    ve_ci_star_from_ve_ci,
    ve_curves,
)
from .trial import (
    FixedTime,
    TotalEvents,
    TrialConfig,
    TrialData,
    consistency_sweep,
    estimate_ch,
    estimate_ci,
    estimate_cox,
    estimate_ir,
    estimate_odds,
    fit_piecewise,
    sensitivity_id_ve,
    simulate,
)

__version__ = "0.1.0"
