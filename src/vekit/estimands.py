"""Cumulative and local vaccine-efficacy estimands on a distribution pair.

Every estimand is written as VE = 1 - theta for a ratio effect theta
comparing the test-vaccine arm (f1) to the control arm (f0):

  * ``ve_ci``:   theta = F1(t) / F0(t)                (cumulative incidence)
  * ``ve_ir``:   theta = [F1/mu1] / [F0/mu0]          (incidence rate)
  * ``ve_ch``:   theta = Lam1(t) / Lam0(t)            (cumulative hazard)
  * ``ve_odds``: theta = odds1(t) / odds0(t)
  * ``ve_cox``:  theta is the root of g(theta), the weighted
    hazard-difference equation the single-covariate proportional-hazards
    estimator converges to without censoring (see :func:`ve_cox`).

g is strictly decreasing, so its root is unique: ``ve_cox`` brackets it,
runs safeguarded Newton on one cached adaptive node set, and confirms the
root with an independent adaptive quadrature of g.

All functions are pure and evaluate at a single time; tolerances and the
root-solver policy are fixed here, not configurable per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import SurvivalModel
from .errors import DomainError, SolverError, UndefinedEstimandError
from .quadrature import adaptive_nodes, integrate

__all__ = [
    "Scenario",
    "EstimandReport",
    "IrBounds",
    "ve_ci",
    "ve_ir",
    "ve_ch",
    "ve_odds",
    "ve_cox",
    "ve_local_hazard",
    "weighted_mean_hazard_ratio",
    "theta_ci_to_theta_ch",
    "theta_odds_to_theta_ci",
    "theta_ir_bounds",
    "estimand_report",
    "CUMULATIVE_KINDS",
]

CUMULATIVE_KINDS = ("ci", "ir", "cox", "ch", "odds")

# ve_cox solver policy: bracket, node-set tolerance, Newton stopping rule
# (step in log-theta), and the residual the adaptive check must meet.
_COX_BRACKET = (1e-8, 1e8)
_COX_G_TOL = 1e-11
_COX_STEP_TOL = 1e-12
_COX_MAX_ITER = 100
_COX_ROOT_TOL = 1e-10


@dataclass(frozen=True)
class Scenario:
    """A control/test distribution pair with study horizon tau.

    ``t_ru`` is the optional end of the ramp-up period (see the rampup
    module); it must lie strictly inside (0, tau).
    """

    f0: SurvivalModel
    f1: SurvivalModel
    tau: float
    t_ru: float | None = None

    def __post_init__(self):
        if not self.tau > 0:
            raise DomainError(f"tau must be positive, got {self.tau!r}")
        if self.t_ru is not None and not 0 < self.t_ru < self.tau:
            raise DomainError(f"t_ru must be in (0, tau), got {self.t_ru!r}")
        if not self.f0.cdf(self.tau) > 0:
            raise DomainError("control attack rate F0(tau) must be positive")

    def _check_t(self, t: float) -> float:
        if not 0 < t <= self.tau:
            raise DomainError(f"t must be in (0, tau={self.tau:g}], got {t!r}")
        return float(t)


def _f0_f1(s: Scenario, t: float) -> tuple[float, float]:
    t = s._check_t(t)
    p0 = s.f0.cdf(t)
    p1 = s.f1.cdf(t)
    if p0 <= 0.0:
        raise UndefinedEstimandError(f"F0({t:g}) = 0; cumulative estimands undefined")
    return p0, p1


def ve_ci(s: Scenario, t: float) -> float:
    """1 - F1(t)/F0(t)."""
    p0, p1 = _f0_f1(s, t)
    return 1.0 - p1 / p0


def ve_ir(s: Scenario, t: float) -> float:
    """1 - [F1(t)/mu1(t)] / [F0(t)/mu0(t)], with mu the restricted mean."""
    p0, p1 = _f0_f1(s, t)
    return 1.0 - (p1 / s.f1.restricted_mean(t)) / (p0 / s.f0.restricted_mean(t))


def ve_ch(s: Scenario, t: float) -> float:
    """1 - Lam1(t)/Lam0(t)."""
    t = s._check_t(t)
    l0 = s.f0.cumulative_hazard(t)
    if l0 <= 0.0:
        raise UndefinedEstimandError(f"Lam0({t:g}) = 0; cumulative hazard ratio undefined")
    return 1.0 - s.f1.cumulative_hazard(t) / l0


def ve_odds(s: Scenario, t: float) -> float:
    """1 - odds ratio of the event by t."""
    p0, p1 = _f0_f1(s, t)
    if p1 >= 1.0:
        raise UndefinedEstimandError(f"F1({t:g}) = 1; odds undefined")
    return 1.0 - (p1 / (1.0 - p1)) / (p0 / (1.0 - p0))


def ve_local_hazard(s: Scenario, t: float) -> float:
    """1 - lam1(t)/lam0(t); may be negative (harm).

    Undefined where lam0(t) = 0 (including where both hazards vanish:
    with no control events the local effect is genuinely indeterminate).
    """
    t = s._check_t(t)
    lam0 = s.f0.hazard(t)
    if not lam0 > 0.0:
        raise UndefinedEstimandError(f"lam0({t:g}) = 0; local hazard ratio undefined")
    return 1.0 - s.f1.hazard(t) / lam0


def _cox_integrand(s: Scenario, theta: float):
    """u -> S1 S0 (lam1 - theta lam0) / (theta S1 + S0), the integrand of g."""
    f0, f1 = s.f0, s.f1

    def integrand(x):
        s0 = f0.survival(x)
        s1 = f1.survival(x)
        return s1 * s0 * (f1.hazard(x) - theta * f0.hazard(x)) / (theta * s1 + s0)

    return integrand


def _cox_root(s: Scenario, t: float, knots: list[float], theta: float) -> float:
    """Root of g on one adaptive node set built on g's integrand at theta."""
    x, w = adaptive_nodes(_cox_integrand(s, theta), 0.0, t, knots=knots, tol=_COX_G_TOL)
    lam0, lam1 = s.f0.hazard(x), s.f1.hazard(x)
    s0, s1 = s.f0.survival(x), s.f1.survival(x)
    ws = w * s0 * s1

    def g_and_slope(th: float) -> tuple[float, float]:
        den = th * s1 + s0
        return float(ws @ ((lam1 - th * lam0) / den)), -float(ws @ ((lam0 * s0 + lam1 * s1) / den**2))

    lo, hi = _COX_BRACKET
    g_lo, g_hi = g_and_slope(lo)[0], g_and_slope(hi)[0]
    if not (0.0 < g_lo < math.inf and -math.inf < g_hi < 0.0):
        raise SolverError(
            f"no sign change for the hazard-ratio root: g({lo:g}) = {g_lo:.3e}, g({hi:g}) = {g_hi:.3e}"
        )
    u, u_lo, u_hi = math.log(theta), math.log(lo), math.log(hi)
    for _ in range(_COX_MAX_ITER):
        g, slope = g_and_slope(math.exp(u))
        if g > 0.0:
            u_lo = u
        elif g < 0.0:
            u_hi = u
        else:
            break
        step = -g / (slope * math.exp(u))
        if abs(step) <= _COX_STEP_TOL:
            u += step
            break
        u = u + step if u_lo < u + step < u_hi else 0.5 * (u_lo + u_hi)
    return math.exp(u)


def ve_cox(s: Scenario, t: float) -> float:
    """VE implied by the uncensored single-covariate proportional-hazards fit.

    Returns 1 - theta* where theta* solves (Struthers & Kalbfleisch 1986)

        g(theta) = int_0^t  S1 S0 (lam1 - theta lam0) / (theta S1 + S0)  du = 0.

    g'(theta) = -int_0^t S1 S0 (lam0 S0 + lam1 S1) / (theta S1 + S0)^2 du
    is negative whenever either arm has hazard mass on (0, t), so the root
    is unique.  Undefined when F0(t) = 0.  g and g' are summed on one
    adaptive node set built on g's integrand at theta0 = Lam1(t)/Lam0(t);
    the bracket [1e-8, 1e8] must change sign there, and Newton in
    log-theta bisects whenever a step would leave the shrinking bracket.
    An independent adaptive quadrature must confirm |g(theta*)| <= 1e-10.
    Adaptive Simpson can misjudge g at one theta (an error estimate that
    cancels by chance), so a miss rebuilds the nodes at theta* and solves
    once more; a second miss raises SolverError.
    """
    t = s._check_t(t)
    cum0 = s.f0.cumulative_hazard(t)
    if cum0 <= 0.0:
        raise UndefinedEstimandError(f"F0({t:g}) = 0; hazard-ratio estimand undefined")
    knots = [k for k in sorted(set(s.f0.knots()) | set(s.f1.knots())) if 0.0 < k < t]
    theta = min(max(s.f1.cumulative_hazard(t) / cum0, _COX_BRACKET[0]), _COX_BRACKET[1])
    for _ in range(2):
        theta = _cox_root(s, t, knots, theta)
        resid = integrate(_cox_integrand(s, theta), 0.0, t, knots=knots, tol=_COX_G_TOL)
        if abs(resid) <= _COX_ROOT_TOL:
            return 1.0 - theta
    raise SolverError(f"root residual |g| = {abs(resid):.3e} exceeds {_COX_ROOT_TOL:g}")


def weighted_mean_hazard_ratio(s: Scenario, t: float, w="control_hazard") -> float:
    """Weighted mean of the local hazard ratio over (0, t].

    ``w`` is ``"control_hazard"`` (weight proportional to lam0, which makes
    the mean equal the cumulative hazard ratio), ``"uniform"``, or a
    callable weight function of time.
    """
    t = s._check_t(t)
    knots = sorted({k for k in (set(s.f0.knots()) | set(s.f1.knots())) if 0.0 < k < t})
    if w == "control_hazard":
        # w * theta_h = lam1, so the numerator is just the lam1 integral.
        num = integrate(s.f1.hazard, 0.0, t, knots=knots)
        den = integrate(s.f0.hazard, 0.0, t, knots=knots)
    else:
        if w == "uniform":
            wf = lambda x: np.ones_like(x)
        elif callable(w):
            wf = w
        else:
            raise DomainError(f"unknown weight tag {w!r}")

        def check_ratio(x):
            lam0 = np.asarray(s.f0.hazard(x), dtype=float)
            if np.any(lam0 <= 0.0):
                raise UndefinedEstimandError("lam0 vanishes where the weight is positive")
            return np.asarray(s.f1.hazard(x)) / lam0

        num = integrate(lambda x: wf(x) * check_ratio(x), 0.0, t, knots=knots)
        den = integrate(lambda x: np.asarray(wf(x), dtype=float) + 0.0 * x, 0.0, t, knots=knots)
    if den <= 0.0:
        raise DomainError("total weight is zero")
    return num / den


def theta_ci_to_theta_ch(theta_ci: float, f0_tau: float) -> float:
    """ln(1 - theta_CI * F0) / ln(1 - F0)."""
    if not 0.0 < f0_tau < 1.0:
        raise DomainError(f"F0(tau) must be in (0, 1), got {f0_tau!r}")
    if not 0.0 < theta_ci * f0_tau < 1.0:
        raise DomainError("theta_CI * F0(tau) must be in (0, 1)")
    return math.log1p(-theta_ci * f0_tau) / math.log1p(-f0_tau)


def theta_odds_to_theta_ci(theta_odds: float, f0_tau: float) -> float:
    """theta_odds / (1 - F0 + theta_odds * F0)."""
    if not 0.0 < f0_tau < 1.0:
        raise DomainError(f"F0(tau) must be in (0, 1), got {f0_tau!r}")
    if not theta_odds > 0.0:
        raise DomainError(f"theta_odds must be positive, got {theta_odds!r}")
    return theta_odds / (1.0 - f0_tau + theta_odds * f0_tau)


@dataclass(frozen=True)
class IrBounds:
    """Sandwich for the incidence-rate ratio from the restricted-mean bounds."""

    theta_lower: float
    theta_upper: float

    @property
    def ve_lower(self) -> float:
        return 1.0 - self.theta_upper

    @property
    def ve_upper(self) -> float:
        return 1.0 - self.theta_lower


def theta_ir_bounds(s: Scenario, t: float) -> IrBounds:
    """theta_CI*(1-F0) <= theta_IR <= theta_odds/(1-F0)."""
    p0, p1 = _f0_f1(s, t)
    th_ci = p1 / p0
    th_odds = (p1 / (1.0 - p1)) / (p0 / (1.0 - p0))
    return IrBounds(theta_lower=th_ci * (1.0 - p0), theta_upper=th_odds / (1.0 - p0))


@dataclass(frozen=True)
class EstimandReport:
    """All five cumulative VE values at one time."""

    evaluated_at: float
    ve_ci: float
    ve_ir: float
    ve_cox: float
    ve_ch: float
    ve_odds: float
    ir_bounds: IrBounds

    @property
    def thetas(self) -> dict[str, float]:
        return {
            "ci": 1.0 - self.ve_ci,
            "ir": 1.0 - self.ve_ir,
            "cox": 1.0 - self.ve_cox,
            "ch": 1.0 - self.ve_ch,
            "odds": 1.0 - self.ve_odds,
        }

    def summary(self) -> str:
        pct = lambda v: f"{100.0 * v:.1f}%"
        return (
            f"VE_CI={pct(self.ve_ci)} "
            f"VE_IR={pct(self.ve_ir)} (bounds [{pct(self.ir_bounds.ve_lower)}, "
            f"{pct(self.ir_bounds.ve_upper)}]) "
            f"VE_Cox={pct(self.ve_cox)} VE_CH={pct(self.ve_ch)} "
            f"VE_odds={pct(self.ve_odds)} at t={self.evaluated_at:g}"
        )


def estimand_report(s: Scenario, t: float | None = None) -> EstimandReport:
    """Evaluate all five estimands (default: at the study horizon)."""
    t = s.tau if t is None else s._check_t(t)
    return EstimandReport(
        evaluated_at=t,
        ve_ci=ve_ci(s, t),
        ve_ir=ve_ir(s, t),
        ve_cox=ve_cox(s, t),
        ve_ch=ve_ch(s, t),
        ve_odds=ve_odds(s, t),
        ir_bounds=theta_ir_bounds(s, t),
    )


def cumulative_ve(kind: str, s: Scenario, t: float) -> float:
    """Dispatch one of the five cumulative estimands by tag."""
    try:
        fn = {"ci": ve_ci, "ir": ve_ir, "cox": ve_cox, "ch": ve_ch, "odds": ve_odds}[kind]
    except KeyError:
        raise DomainError(f"unknown estimand kind {kind!r}; expected one of {CUMULATIVE_KINDS}")
    return fn(s, t)
