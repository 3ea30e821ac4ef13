"""Cumulative/local VE estimands: reference values, conversions, properties."""

import math

import numpy as np
import pytest

from scipy.integrate import quad
from scipy.optimize import brentq

from vekit import (
    DomainError,
    Exponential,
    FrailtySpec,
    HazardSegment,
    PiecewiseHazard,
    Scenario,
    SolverError,
    SurvivalModel,
    TabulatedCdf,
    UndefinedEstimandError,
    Weibull,
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
from vekit.frailty import population_model
from vekit.presets import preset_scenario
from vekit.quadrature import integrate
from vekit.rampup import build_scenario

from conftest import cox_fixed_point_oracle, random_dominated_pair


def exponential_pair(theta=0.5, rate0=0.001, tau=365.0):
    return Scenario(Exponential(rate0), Exponential(theta * rate0), tau=tau)


def null_pair(tau=100.0):
    return Scenario(Exponential(0.001), Exponential(0.001), tau=tau)


def ph_weibull_pair(theta=0.3, shape=1.7, tau=200.0):
    # S1 = S0 ** theta  <=>  scale1 = scale0 / theta**(1/shape)
    scale0 = 300.0
    return Scenario(
        Weibull(shape, scale0), Weibull(shape, scale0 / theta ** (1.0 / shape)), tau=tau
    )


DISCUSSION = preset_scenario("discussion")


# ---------------------------------------------------------------------------
# reference values at the 6.5% / 0.8% attack-rate pair

def test_attack_rate_pair_reference_values():
    t = DISCUSSION.tau
    assert round(100 * ve_ci(DISCUSSION, t), 1) == 87.7
    assert round(100 * ve_ch(DISCUSSION, t), 1) == 88.0
    assert round(100 * ve_odds(DISCUSSION, t), 1) == 88.4
    bounds = theta_ir_bounds(DISCUSSION, t)
    assert round(100 * bounds.ve_lower, 1) == 87.6
    assert round(100 * bounds.ve_upper, 1) == 88.5
    # frozen full-precision values
    assert ve_ci(DISCUSSION, t) == pytest.approx(0.8769230769230769, abs=1e-12)
    assert ve_ch(DISCUSSION, t) == pytest.approx(0.8804891962147743, abs=1e-12)
    assert ve_odds(DISCUSSION, t) == pytest.approx(0.8839950372208437, abs=1e-12)


def test_report_on_attack_rate_pair():
    rep = estimand_report(DISCUSSION)
    assert rep.ir_bounds.ve_lower <= rep.ve_ir <= rep.ir_bounds.ve_upper
    # exponential pair has proportional hazards, so the solver and the
    # cumulative-hazard ratio agree
    assert rep.ve_cox == pytest.approx(rep.ve_ch, abs=1e-9)
    assert "VE_CI=87.7%" in rep.summary()


def test_report_null_pair_all_zero():
    rep = estimand_report(null_pair())
    for v in (rep.ve_ci, rep.ve_ir, rep.ve_cox, rep.ve_ch, rep.ve_odds):
        assert v == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# ve_ci

def test_ve_ci_all_or_none_constant():
    # F1 = (1 - psi) F0 gives VE_CI = psi at every time
    t = np.array([0.0, 0.3, 0.7, 1.3, 2.0])
    f0 = np.array([0.0, 0.1, 0.25, 0.4, 0.6])
    psi = 0.4
    s = Scenario(
        TabulatedCdf(list(zip(t, f0))),
        TabulatedCdf(list(zip(t, (1 - psi) * f0))),
        tau=2.0,
    )
    for x in (0.2, 0.5, 1.0, 1.7, 2.0):
        assert ve_ci(s, x) == pytest.approx(psi, abs=1e-12)


def test_ve_ci_null():
    assert ve_ci(null_pair(), 50.0) == 0.0


def test_ve_ci_undefined_when_no_control_risk():
    s = Scenario(
        TabulatedCdf([(0.0, 0.0), (1.0, 0.0), (2.0, 0.5)]),
        TabulatedCdf([(0.0, 0.0), (2.0, 0.2)]),
        tau=2.0,
    )
    with pytest.raises(UndefinedEstimandError):
        ve_ci(s, 0.5)


# ---------------------------------------------------------------------------
# ve_ir

def test_ve_ir_exponential_pair_exact():
    for theta in (0.2, 0.5, 0.8):
        s = exponential_pair(theta)
        for t in (30.0, 180.0, 365.0):
            assert ve_ir(s, t) == pytest.approx(1.0 - theta, abs=1e-12)


def test_ve_ir_panel_b_between_bounds_and_near_ch():
    s = preset_scenario("figure3:b")
    v = ve_ir(s, 1.0)
    bounds = theta_ir_bounds(s, 1.0)
    assert bounds.ve_lower <= v <= bounds.ve_upper
    assert abs(v - ve_ch(s, 1.0)) < 0.02
    # dense-grid quadrature oracle for the restricted means
    x = np.linspace(0.0, 1.0, 200_001)
    mu0 = float(np.trapezoid(s.f0.survival(x), x))
    mu1 = float(np.trapezoid(s.f1.survival(x), x))
    oracle = 1.0 - (s.f1.cdf(1.0) / mu1) / (s.f0.cdf(1.0) / mu0)
    assert v == pytest.approx(oracle, abs=1e-7)


# ---------------------------------------------------------------------------
# ve_ch

def test_ve_ch_reference_and_ph():
    assert round(100 * ve_ch(DISCUSSION, DISCUSSION.tau), 1) == 88.0
    s = ph_weibull_pair(0.3)
    for t in (10.0, 50.0, 200.0):
        assert ve_ch(s, t) == pytest.approx(0.7, abs=1e-12)
    assert ve_ch(null_pair(), 40.0) == 0.0


# ---------------------------------------------------------------------------
# ve_odds

def test_ve_odds_hand_value():
    s = Scenario(
        TabulatedCdf([(0.0, 0.0), (1.0, 0.5)]),
        TabulatedCdf([(0.0, 0.0), (1.0, 0.25)]),
        tau=1.0,
    )
    assert ve_odds(s, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert ve_odds(null_pair(), 10.0) == 0.0


# ---------------------------------------------------------------------------
# ve_cox

def test_ve_cox_exponential_pairs_exact():
    for theta in (0.1, 0.3, 0.5, 0.9):
        s = exponential_pair(theta)
        assert ve_cox(s, s.tau) == pytest.approx(1.0 - theta, abs=1e-8)


def test_ve_cox_null_is_zero():
    assert ve_cox(null_pair(), 100.0) == pytest.approx(0.0, abs=1e-9)


def test_ve_cox_no_sign_change_reports_solver_failure():
    # no events ever in the test arm: the defining function is negative on
    # the whole bracket, so there is no root to report
    s = Scenario(
        Exponential(0.01),
        TabulatedCdf([(0.0, 0.0), (200.0, 0.0)]),
        tau=200.0,
    )
    with pytest.raises(SolverError, match="sign change"):
        ve_cox(s, 200.0)


def test_ve_cox_undefined_without_control_risk():
    # the control arm is flat to 50: F0(20) = F1(20) = 0, then F0(20) = 0 < F1(20)
    flat = TabulatedCdf([(0.0, 0.0), (50.0, 0.0), (100.0, 0.3)])
    for f1 in (TabulatedCdf([(0.0, 0.0), (50.0, 0.0), (100.0, 0.2)]), TabulatedCdf([(0.0, 0.0), (100.0, 0.2)])):
        with pytest.raises(UndefinedEstimandError):
            ve_cox(Scenario(flat, f1, tau=100.0), 20.0)


class _NanOnInterval(SurvivalModel):
    """Constant hazard 0.01 whose evaluator returns NaN on [10, 20)."""

    def hazard(self, t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= 10.0) & (t < 20.0), np.nan, 0.01)

    def cumulative_hazard(self, t):
        return 0.01 * np.asarray(t, dtype=float)

    def inverse_cumulative_hazard(self, h):
        return np.asarray(h, dtype=float) / 0.01

    def knots(self):
        return [10.0, 20.0]


def test_ve_cox_rejects_non_finite_integrand():
    with pytest.raises(SolverError):
        ve_cox(Scenario(Exponential(0.02), _NanOnInterval(), tau=50.0), 50.0)


def _cox_g(s, t, theta, integral):
    """g(theta) with the given integral(f, a, b) over the knot-split [0, t]."""

    def h(u):
        s0, s1 = s.f0.survival(u), s.f1.survival(u)
        return s1 * s0 * (s.f1.hazard(u) - theta * s.f0.hazard(u)) / (theta * s1 + s0)

    knots = sorted(k for k in set(s.f0.knots()) | set(s.f1.knots()) if 0.0 < k < t)
    edges = [0.0, *knots, t]
    return sum(integral(h, a, b) for a, b in zip(edges[:-1], edges[1:]))


SINGULAR_KNOT_PAIR = Scenario(
    Exponential(0.003),
    PiecewiseHazard(
        [
            HazardSegment(0.0, 45.7987, "constant", (0.001,)),
            HazardSegment(45.7987, 66.9748, "weibull_local", (0.9156, 40.0)),
            HazardSegment(66.9748, None, "constant", (0.002,)),
        ]
    ),
    tau=100.0,
)


@pytest.mark.parametrize("t", [50.0, 66.9748, 100.0])
def test_ve_cox_weibull_local_singularity_at_interior_knot(t):
    # the test-arm hazard is infinite at the knot 45.7987 itself
    def scipy_g(theta):
        return _cox_g(SINGULAR_KNOT_PAIR, t, theta, lambda h, a, b: quad(h, a, b, epsabs=1e-14, limit=200)[0])

    ref = 1.0 - brentq(scipy_g, 1e-3, 1e3, xtol=1e-14, rtol=1e-14)
    assert ve_cox(SINGULAR_KNOT_PAIR, t) == pytest.approx(ref, abs=1e-8)


def test_ve_cox_rebuilds_nodes_when_the_adaptive_check_misses():
    # Both hazards restart as power laws at the knot 41.7652.  At the root,
    # adaptive Simpson accepts the piece next to the knot on an error
    # estimate that cancels, 1.2e-9 off, so the first root fails the
    # residual check and the solve repeats on nodes built there; it returns
    # the root of that misjudged g, 2.3e-8 from the scipy root.
    def arm(a, b, shape, scale, c):
        return PiecewiseHazard(
            [
                HazardSegment(0.0, 41.7652, "linear", (a, b)),
                HazardSegment(41.7652, 186.734, "weibull_local", (shape, scale)),
                HazardSegment(186.734, None, "constant", (c,)),
            ]
        )

    s = Scenario(
        arm(0.00108755, 2.27062e-06, 2.21849, 323.576, 0.000822565),
        arm(0.000917923, 2.99552e-06, 2.12318, 345.255, 0.000380281),
        tau=363.634,
    )
    t = 130.794
    scipy_g = lambda theta: _cox_g(s, t, theta, lambda h, a, b: quad(h, a, b, epsabs=1e-15, limit=200)[0])
    ref = 1.0 - brentq(scipy_g, 0.5, 1.0, xtol=1e-15, rtol=1e-15)
    assert ve_cox(s, t) == pytest.approx(ref, abs=1e-7)


def _monotone_cases():
    rng = np.random.default_rng(7)
    yield from ((s, 1.0) for s in (random_dominated_pair(rng) for _ in range(6)))
    yield Scenario(Weibull(0.6, 100.0), Weibull(0.8, 300.0), tau=100.0), 100.0
    yield Scenario(Weibull(0.5, 50.0), Weibull(2.5, 80.0), tau=100.0), 100.0
    yield SINGULAR_KNOT_PAIR, 100.0
    yield build_scenario(3), 150.0
    base0, base1 = Weibull(1.5, 200.0), Weibull(0.7, 900.0)
    for spec in (FrailtySpec.gamma(2.0), FrailtySpec.positive_stable(0.5)):
        yield Scenario(population_model(base0, spec), population_model(base1, spec), tau=365.0), 365.0


def test_cox_score_strictly_decreasing():
    # g'(theta) < 0 is why ve_cox needs no search for further roots
    thetas = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 13))
    adaptive = lambda h, a, b: integrate(h, a, b, tol=1e-10)
    for s, t in _monotone_cases():
        g = np.array([_cox_g(s, t, th, adaptive) for th in thetas])
        assert np.all(np.diff(g) < 0.0), (s, t)
        assert g[0] > 0.0 > g[-1]


def test_ve_cox_matches_fixed_point_oracle_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_dominated_pair(rng)
        assert ve_cox(s, 1.0) == pytest.approx(cox_fixed_point_oracle(s, 1.0), abs=1e-6)


@pytest.mark.parametrize("panel", ["a", "b", "c", "d"])
def test_ve_cox_agrees_with_fixed_point_oracle(panel):
    s = preset_scenario(f"figure3:{panel}")
    assert ve_cox(s, 1.0) == pytest.approx(cox_fixed_point_oracle(s, 1.0), abs=1e-6)


def test_ve_cox_panel_c_near_ci_panel_d_near_odds():
    sc = preset_scenario("figure3:c")
    cox_c = ve_cox(sc, 1.0)
    assert abs(cox_c - ve_ci(sc, 1.0)) < abs(cox_c - ve_odds(sc, 1.0))
    sd = preset_scenario("figure3:d")
    cox_d = ve_cox(sd, 1.0)
    assert abs(cox_d - ve_odds(sd, 1.0)) < abs(cox_d - ve_ci(sd, 1.0))


# ---------------------------------------------------------------------------
# ve_local_hazard

def test_ve_local_hazard():
    s = ph_weibull_pair(0.3)
    for t in (1.0, 40.0, 160.0):
        assert ve_local_hazard(s, t) == pytest.approx(0.7, abs=1e-12)
    s3 = build_scenario(3)
    assert ve_local_hazard(s3, 1e-9) == pytest.approx(-2.0, abs=1e-6)
    s2 = build_scenario(2)
    assert ve_local_hazard(s2, 14.0) == pytest.approx(0.35, abs=1e-12)


def test_ve_local_hazard_undefined_when_control_hazard_zero():
    s = Scenario(
        TabulatedCdf([(0.0, 0.0), (1.0, 0.0), (2.0, 0.5)]),
        TabulatedCdf([(0.0, 0.0), (2.0, 0.3)]),
        tau=2.0,
    )
    with pytest.raises(UndefinedEstimandError):
        ve_local_hazard(s, 0.5)


# ---------------------------------------------------------------------------
# weighted mean hazard ratio

@pytest.mark.parametrize(
    "scenario,t",
    [
        (exponential_pair(0.4), 200.0),
        (build_scenario(2), 150.0),
        (preset_scenario("figure3:d"), 1.0),
    ],
)
def test_weighted_mean_control_hazard_equals_ch_ratio(scenario, t):
    got = weighted_mean_hazard_ratio(scenario, t, w="control_hazard")
    want = 1.0 - ve_ch(scenario, t)
    assert got == pytest.approx(want, abs=1e-8)


def test_weighted_mean_ph_any_weight():
    s = ph_weibull_pair(0.3)
    for w in ("control_hazard", "uniform", lambda x: np.exp(-0.01 * x)):
        assert weighted_mean_hazard_ratio(s, 150.0, w=w) == pytest.approx(0.3, abs=1e-9)


def test_weighted_mean_uniform_linear_ramp():
    # hazard ratio ramps linearly 1 -> 0.3 over the ramp, so its uniform
    # mean over [0, t_ru] is 0.65
    s = build_scenario(2)
    got = weighted_mean_hazard_ratio(s, 28.0, w="uniform")
    assert got == pytest.approx(0.65, abs=1e-10)


# ---------------------------------------------------------------------------
# conversions

def test_theta_ci_to_theta_ch():
    t = DISCUSSION.tau
    th_ch = theta_ci_to_theta_ch(1.0 - ve_ci(DISCUSSION, t), DISCUSSION.f0.cdf(t))
    assert 1.0 - th_ch == pytest.approx(ve_ch(DISCUSSION, t), abs=1e-12)
    assert theta_ci_to_theta_ch(1.0, 0.3) == pytest.approx(1.0, abs=1e-14)
    assert theta_ci_to_theta_ch(0.5, 0.5) == pytest.approx(
        math.log(0.75) / math.log(0.5), abs=1e-12
    )
    # independent construction: two-point tables with the implied attack rates
    s = Scenario(
        TabulatedCdf([(0.0, 0.0), (1.0, 0.5)]),
        TabulatedCdf([(0.0, 0.0), (1.0, 0.25)]),
        tau=1.0,
    )
    assert 1.0 - ve_ch(s, 1.0) == pytest.approx(theta_ci_to_theta_ch(0.5, 0.5), abs=1e-12)


def test_theta_odds_to_theta_ci():
    t = DISCUSSION.tau
    th_ci = theta_odds_to_theta_ci(1.0 - ve_odds(DISCUSSION, t), DISCUSSION.f0.cdf(t))
    assert th_ci == pytest.approx(1.0 - ve_ci(DISCUSSION, t), abs=1e-12)
    assert theta_odds_to_theta_ci(1.0, 0.25) == 1.0
    assert theta_odds_to_theta_ci(0.2, 0.5) == pytest.approx(0.2 / 0.6, abs=1e-14)


def test_conversion_consistency_fuzz(rng):
    for _ in range(200):
        s = random_dominated_pair(rng)
        f0 = s.f0.cdf(1.0)
        th_ci = 1.0 - ve_ci(s, 1.0)
        th_ch = 1.0 - ve_ch(s, 1.0)
        th_odds = 1.0 - ve_odds(s, 1.0)
        assert theta_ci_to_theta_ch(th_ci, f0) == pytest.approx(th_ch, abs=1e-10)
        assert theta_odds_to_theta_ci(th_odds, f0) == pytest.approx(th_ci, abs=1e-10)


def test_conversion_domain_errors():
    with pytest.raises(DomainError):
        theta_ci_to_theta_ch(0.5, 0.0)
    with pytest.raises(DomainError):
        theta_odds_to_theta_ci(-0.1, 0.5)


# ---------------------------------------------------------------------------
# IR bounds

def test_ir_bounds_reference():
    b = theta_ir_bounds(DISCUSSION, DISCUSSION.tau)
    assert b.ve_lower == pytest.approx(0.8759305210918115, abs=1e-12)
    assert b.ve_upper == pytest.approx(0.8849230769230769, abs=1e-12)


def test_ir_bounds_null_straddle_zero():
    b = theta_ir_bounds(null_pair(), 50.0)
    assert b.ve_lower < 0.0 < b.ve_upper


@pytest.mark.parametrize("panel", ["a", "b", "c", "d"])
def test_ve_ir_inside_bounds_on_panels(panel):
    s = preset_scenario(f"figure3:{panel}")
    b = theta_ir_bounds(s, 1.0)
    assert b.ve_lower <= ve_ir(s, 1.0) <= b.ve_upper


# ---------------------------------------------------------------------------
# ordering and other properties

def test_ordering_fuzz(rng):
    for _ in range(1000):
        s = random_dominated_pair(rng)
        ci, ch, odds = ve_ci(s, 1.0), ve_ch(s, 1.0), ve_odds(s, 1.0)
        assert ci < ch < odds
        b = theta_ir_bounds(s, 1.0)
        assert b.ve_lower <= ve_ir(s, 1.0) <= b.ve_upper


def test_ph_collapse_weibull_common_shape():
    s = ph_weibull_pair(0.45, shape=1.3)
    for t in (25.0, 90.0, 200.0):
        ch = ve_ch(s, t)
        assert ve_cox(s, t) == pytest.approx(ch, abs=1e-8)
        assert ve_local_hazard(s, t) == pytest.approx(ch, abs=1e-8)


def test_low_event_rate_collapse():
    # Scaling both hazards shrinks the spread of all five estimands to 0.
    spreads = []
    for eps in (1.0, 0.3, 0.1, 0.03):
        rate0 = 0.004 * eps
        s = Scenario(Exponential(rate0), Exponential(0.25 * rate0), tau=100.0)
        rep = estimand_report(s)
        vals = [rep.ve_ci, rep.ve_ir, rep.ve_cox, rep.ve_ch, rep.ve_odds]
        spreads.append(max(vals) - min(vals))
    assert all(b < a for a, b in zip(spreads, spreads[1:]))
    # At a 1% control attack rate, each adjacent gap (CI->CH, CH->odds) stays
    # below the 0.13 percentage-point ceiling, whatever the efficacy.
    for ve in np.linspace(0.02, 0.98, 25):
        lam0 = -math.log1p(-0.01) / 100.0
        s = Scenario(Exponential(lam0), Exponential((1 - ve) * lam0), tau=100.0)
        ci, ch, odds = ve_ci(s, 100.0), ve_ch(s, 100.0), ve_odds(s, 100.0)
        assert ch - ci <= 0.0013
        assert odds - ch <= 0.0013


def test_time_rescaling_invariance():
    # theta values are unchanged by a linear time rescale of both arms
    c = 7.25
    s = Scenario(Exponential(0.002), Exponential(0.0009), tau=400.0)
    sc = Scenario(Exponential(0.002 / c), Exponential(0.0009 / c), tau=400.0 * c)
    for f, g in ((ve_ci, ve_ci), (ve_ir, ve_ir), (ve_ch, ve_ch), (ve_odds, ve_odds)):
        assert f(s, 400.0) == pytest.approx(g(sc, 400.0 * c), abs=1e-10)
    assert ve_cox(s, 400.0) == pytest.approx(ve_cox(sc, 400.0 * c), abs=1e-8)

    w = Scenario(Weibull(1.6, 300.0), Weibull(1.6, 500.0), tau=350.0)
    wc = Scenario(Weibull(1.6, 300.0 * c), Weibull(1.6, 500.0 * c), tau=350.0 * c)
    for fn in (ve_ci, ve_ir, ve_ch, ve_odds):
        assert fn(w, 350.0) == pytest.approx(fn(wc, 350.0 * c), abs=1e-10)


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario(Exponential(0.001), Exponential(0.001), tau=-1.0)
    with pytest.raises(DomainError):
        Scenario(Exponential(0.001), Exponential(0.001), tau=10.0, t_ru=10.0)
    with pytest.raises(DomainError):
        ve_ci(null_pair(), 0.0)
