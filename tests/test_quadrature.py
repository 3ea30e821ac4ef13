"""Knot-aware adaptive Simpson against analytic and scipy references."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from vekit import DomainError
from vekit.quadrature import adaptive_nodes, integrate, split_at_knots


def test_polynomial_exactness():
    # Simpson integrates cubics exactly
    got = integrate(lambda x: 3.0 * x**2 - 2.0 * x + 1.0, 0.0, 4.0)
    assert got == pytest.approx(4.0**3 - 4.0**2 + 4.0, abs=1e-12)


def test_smooth_integrand_tolerance():
    got = integrate(np.sin, 0.0, math.pi, tol=1e-12)
    assert got == pytest.approx(2.0, abs=1e-11)


def test_discontinuous_integrand_with_knot():
    f = lambda x: np.where(x < 1.0, 1.0, 3.0)
    got = integrate(f, 0.0, 2.0, knots=[1.0], tol=1e-12)
    assert got == pytest.approx(4.0, abs=1e-10)


def test_matches_scipy_quad_on_awkward_integrand():
    f = lambda x: np.exp(-x) * np.sin(7.0 * x) + 1.0 / (1.0 + x * x)
    ref, _ = sp_integrate.quad(lambda x: float(f(np.asarray(x))), 0.0, 10.0, epsabs=1e-13)
    assert integrate(f, 0.0, 10.0, tol=1e-11) == pytest.approx(ref, abs=1e-9)


def test_integrable_endpoint_singularity():
    # x^(-1/2) on (0, 1]: the depth cap resolves the endpoint blow-up
    got = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-9)
    assert got == pytest.approx(2.0, abs=1e-6)


def test_split_at_knots_filters_and_sorts():
    edges = split_at_knots(0.0, 10.0, [12.0, 3.0, 0.0, 7.0, 3.0])
    assert list(edges) == [0.0, 3.0, 7.0, 10.0]
    with pytest.raises(DomainError):
        split_at_knots(1.0, 1.0, [])


def test_adaptive_nodes_are_integrate_rule():
    f = lambda x: np.where(x < 2.0, np.exp(-x), 3.0 * np.cos(x))
    x, w = adaptive_nodes(f, 0.0, 6.0, knots=[2.0], tol=1e-12)
    assert float(w @ f(x)) == integrate(f, 0.0, 6.0, knots=[2.0], tol=1e-12)
    assert w.sum() == pytest.approx(6.0, abs=1e-12)
    ref = 1.0 - math.exp(-2.0) + 3.0 * (math.sin(6.0) - math.sin(2.0))
    assert float(w @ f(x)) == pytest.approx(ref, abs=1e-10)
    # the rule carries over to an integrand of the same shape
    g = lambda x: 2.0 * f(x) + x
    assert float(w @ g(x)) == pytest.approx(2.0 * ref + 18.0, abs=1e-9)


def test_singularity_at_interior_knot_is_never_sampled():
    # (x - k)^(-0.4) right of an interior knot k: bisection reaches pieces
    # whose quarter points round onto k, where the integrand is infinite
    k = 45.7987
    f = lambda x: np.where(x < k, 1.0, np.abs(x - k) ** -0.4)
    got = integrate(f, 0.0, 100.0, knots=[k], tol=1e-9)
    assert math.isfinite(got)
    assert got == pytest.approx(k + (100.0 - k) ** 0.6 / 0.6, abs=1e-5)


def test_nan_interval_returns_nan_without_splitting_forever():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where((x > 1.0) & (x < 2.0), np.nan, 1.0)

    assert math.isnan(integrate(f, 0.0, 3.0))
    assert sum(calls) < 100
