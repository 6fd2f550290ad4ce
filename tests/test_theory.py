"""Expansion tests: frozen arithmetic values plus exact-expectation oracles.

The strongest checks here integrate the kernel against an analytic
density by quadrature, which gives the exact finite-sample mean of the
estimator without Monte Carlo noise, and compare the resulting bias to
the leading-term expansion as b shrinks.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from gammakde import theory
from gammakde.kernel import kernel_eval, kernel_grad_x
from gammakde.models import GammaMarginal, product_exponential, product_gamma
from gammakde.theory import (
    MixingProfile,
    OutOfValidityError,
    bias_density,
    bias_derivative,
    cov_bound_density,
    cov_bound_derivative,
    cov_split_density,
    mise_leading,
    var_density,
    var_derivative,
)

GAMMA3 = product_gamma([3.0])
EXP1 = product_exponential(1.0, d=1)
TWO_SQRT_PI = 2.0 * np.sqrt(np.pi)


def _exact_mean_density(marginal, x, b):
    """E[fhat(x)] for a univariate sample, by quadrature."""
    hi = marginal.quantile(1.0 - 1e-12)
    return quad(lambda t: kernel_eval(t, x, b) * marginal.pdf(t),
                0.0, hi, limit=400)[0]


def _exact_mean_derivative(marginal, x, b):
    hi = marginal.quantile(1.0 - 1e-12)
    return quad(lambda t: kernel_grad_x(t, x, b) * marginal.pdf(t),
                1e-300, hi, limit=400)[0]


class TestBiasDensity:
    def test_exponential_closed_form(self):
        # (b/2) x f''(x) with f'' = e^{-x}
        rep = bias_density(EXP1, [1.0], 0.05)
        assert rep.value == pytest.approx(0.025 * np.exp(-1.0), rel=1e-14)
        assert rep.order == "b"

    def test_product_additivity(self):
        # sum over axes of x_j f_jj * (other marginals)
        m = product_gamma([3.0, 2.0])
        x = np.array([1.0, 0.8])
        g0, g1 = GammaMarginal(3.0), GammaMarginal(2.0)
        want = 0.5 * 0.1 * (
            1.0 * g0.d2(1.0) * g1.pdf(0.8) + 0.8 * g0.pdf(1.0) * g1.d2(0.8)
        )
        assert bias_density(m, x, 0.1).value == pytest.approx(want, rel=1e-13)

    def test_exact_expectation_oracle(self):
        # quadrature mean of the estimator minus the truth, divided by the
        # expansion, tends to 1 as b -> 0
        g = GammaMarginal(3.0)
        ratios = []
        for b in (0.04, 0.02, 0.01):
            exact = _exact_mean_density(g, 1.0, b) - g.pdf(1.0)
            ratios.append(exact / bias_density(GAMMA3, [1.0], b).value)
        assert abs(ratios[-1] - 1.0) < 0.01
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_rejects_boundary_point(self):
        with pytest.raises(OutOfValidityError):
            bias_density(EXP1, [0.05], 0.1)


class TestVarDensity:
    def test_leading_component_closed_form(self):
        # (1/(n sqrt(b))) x^{-1/2} f / (2 sqrt(pi))
        n, b, x = 1000, 0.1, 1.0
        rep = var_density(EXP1, [x], b, n)
        want = np.exp(-x) / (n * np.sqrt(b) * np.sqrt(x) * TWO_SQRT_PI)
        assert rep.components["leading"] == pytest.approx(want, rel=1e-13)

    def test_components_sum_to_value(self):
        rep = var_density(GAMMA3, [1.3], 0.08, 500)
        assert rep.value == pytest.approx(sum(rep.components.values()),
                                          rel=1e-14)

    def test_exact_second_moment_oracle(self):
        # Var = (E[K^2 f] - (E[K f])^2) / n exactly for iid samples
        g = GammaMarginal(3.0)
        n, b, x = 1000, 0.05, 1.0
        hi = g.quantile(1.0 - 1e-12)
        ek2 = quad(lambda t: kernel_eval(t, x, b) ** 2 * g.pdf(t),
                   0.0, hi, limit=400)[0]
        ek = _exact_mean_density(g, x, b)
        exact = (ek2 - ek * ek) / n
        rep = var_density(GAMMA3, [x], b, n)
        assert rep.value == pytest.approx(exact, rel=0.03)

    def test_symmetry_under_coordinate_swap(self):
        m = product_exponential(1.0, d=2)
        a = var_density(m, [1.0, 2.0], 0.1, 1000).value
        b = var_density(m, [2.0, 1.0], 0.1, 1000).value
        assert a == pytest.approx(b, rel=1e-13)

    def test_fault_hook_flips_v1(self, monkeypatch):
        clean = var_density(GAMMA3, [1.0], 0.1, 1000).components["v1_term"]
        orig = theory._v1
        monkeypatch.setattr(theory, "_v1", lambda m, x: -orig(m, x))
        faulty = var_density(GAMMA3, [1.0], 0.1, 1000).components["v1_term"]
        assert faulty == pytest.approx(-clean, rel=1e-14)


class TestBiasDerivative:
    def test_frozen_coefficients(self):
        # Gamma(3,1) at x=1: B1 = (1/2)(f'' + x f''') = -e^{-1}/2,
        # B2 = x f'' / 24 = e^{-1}/48... with sign from f''(1) < 0
        rep = bias_derivative(GAMMA3, [1.0], 0.1)
        g = GammaMarginal(3.0)
        b1_want = 0.5 * (g.d2(1.0) + 1.0 * g.d3(1.0))
        b2_want = 1.0 * g.d2(1.0) / 24.0
        assert rep.components["B1"] == pytest.approx(b1_want, rel=1e-13)
        assert rep.components["B1"] == pytest.approx(-0.18393972058572114,
                                                     rel=1e-12)
        assert rep.components["B2"] == pytest.approx(b2_want, rel=1e-13)
        assert rep.value == pytest.approx(0.1 * b1_want + 0.01 * b2_want,
                                          rel=1e-13)

    def test_exact_expectation_oracle(self):
        # the derivative estimator is the exact x-partial of the density
        # estimator, so its quadrature bias must track b B1 + b^2 B2
        g = GammaMarginal(3.0)
        ratios = []
        for b in (0.04, 0.02, 0.01):
            exact = _exact_mean_derivative(g, 1.0, b) - g.d1(1.0)
            ratios.append(exact / bias_derivative(GAMMA3, [1.0], b).value)
        assert abs(ratios[-1] - 1.0) < 0.02
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_exact_oracle_exponential(self):
        # Exp(1) at x=1: B1 = (1/2)(f'' + x f''') = 0
        g = GammaMarginal(1.0, 1.0)
        m = EXP1
        rep = bias_derivative(m, [1.0], 0.02)
        assert rep.components["B1"] == pytest.approx(0.0, abs=1e-15)
        exact = _exact_mean_derivative(g, 1.0, 0.02) - g.d1(1.0)
        # with B1 = 0 the bias is second order and small
        assert abs(exact) < 0.02 * abs(g.d2(1.0)) * 0.5

    def test_rejects_boundary_point(self):
        with pytest.raises(OutOfValidityError):
            bias_derivative(GAMMA3, [0.1], 0.1)


class TestVarDerivative:
    def test_frozen_v3_term(self):
        rep = var_derivative(GAMMA3, [1.0], 0.1, 1000)
        assert rep.components["V3_term"] == pytest.approx(
            8.204282285384683e-4, rel=1e-12)
        assert rep.value == pytest.approx(7.904216700096279e-4, rel=1e-12)

    def test_leading_order_closed_form(self):
        # V3: (1/(n b^{3/2})) x^{-1/2}/(2 sqrt(pi)) * f/(2x)
        n, b, x = 1000, 0.1, 1.0
        f = GammaMarginal(3.0).pdf(x)
        want = f / (2.0 * x) / (n * b**1.5 * np.sqrt(x) * TWO_SQRT_PI)
        rep = var_derivative(GAMMA3, [x], b, n)
        assert rep.components["V3_term"] == pytest.approx(want, rel=1e-13)

    def test_exact_second_moment_oracle(self):
        g = GammaMarginal(3.0)
        n, b, x = 1000, 0.05, 1.0
        hi = g.quantile(1.0 - 1e-12)
        ek2 = quad(lambda t: kernel_grad_x(t, x, b) ** 2 * g.pdf(t),
                   1e-300, hi, limit=400)[0]
        ek = _exact_mean_derivative(g, x, b)
        exact = (ek2 - ek * ek) / n
        rep = var_derivative(GAMMA3, [x], b, n)
        assert rep.value == pytest.approx(exact, rel=0.03)

    def test_components_sum_to_value(self):
        rep = var_derivative(GAMMA3, [0.9], 0.07, 2000)
        assert rep.value == pytest.approx(sum(rep.components.values()),
                                          rel=1e-14)


class TestCovarianceBounds:
    MP = MixingProfile(upsilon=0.5, alpha_integral=1.0, alpha_sum=1.0, M=1.0)

    def test_density_bound_closed_form(self):
        # recompute the d=1 bound from its definition
        m, x, b, n = EXP1, 1.0, 0.1, 1000
        u = 0.5
        f = np.exp(-x)
        s = (u + 1) / ((u - 1) ** 2 * x) * f + (u + 1) / (u - 1) * (-f) \
            + 0.5 * x * f
        dd = 2.0 * (2 * np.pi) ** (-(0 * (u + 1) + u - 1) / 2) \
            * x ** (-(u + 1) / 2)
        base = b * s + f * (3 * u - 1) / (2 * (u - 1))
        want = b ** (-(u + 1) / 2) / n * dd * abs(base) ** (1 - u)
        got = cov_bound_density(m, [x], b, n, self.MP)
        assert got == pytest.approx(want, rel=1e-13)

    def test_homogeneous_in_alpha_integral(self):
        mp2 = MixingProfile(upsilon=0.5, alpha_integral=3.0, alpha_sum=1.0,
                            M=1.0)
        a = cov_bound_density(EXP1, [1.0], 0.1, 1000, self.MP)
        b = cov_bound_density(EXP1, [1.0], 0.1, 1000, mp2)
        assert b == pytest.approx(3.0 * a, rel=1e-13)

    def test_split_negligible_relative_to_variance(self):
        ratios = []
        for n in (10**3, 10**4, 10**5):
            b = n ** (-0.4)
            i1, i2 = cov_split_density(EXP1, [1.0], b, n, self.MP)
            assert i1 > 0.0 and i2 > 0.0
            lead = var_density(EXP1, [1.0], b, n).components["leading"]
            ratios.append((i1 + i2) / lead)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_split_requires_m(self):
        mp = MixingProfile(upsilon=0.5, alpha_integral=1.0)
        with pytest.raises(ValueError, match="M"):
            cov_split_density(EXP1, [1.0], 0.1, 1000, mp)

    def test_derivative_bound_positive_and_homogeneous(self):
        a = cov_bound_derivative(GAMMA3, [1.0], 0.1, 1000, self.MP)
        assert np.isfinite(a) and a > 0.0
        mp2 = MixingProfile(upsilon=0.5, alpha_integral=2.0, alpha_sum=1.0,
                            M=1.0)
        b = cov_bound_derivative(GAMMA3, [1.0], 0.1, 1000, mp2)
        assert b == pytest.approx(2.0 * a, rel=1e-13)

    def test_mixing_profile_validation(self):
        with pytest.raises(ValueError):
            MixingProfile(upsilon=1.0, alpha_integral=1.0)
        with pytest.raises(ValueError):
            MixingProfile(upsilon=0.5, alpha_integral=1.0, kappa=0.5)
        with pytest.raises(ValueError):
            MixingProfile(upsilon=0.5, alpha_integral=-1.0)


class TestMiseLeading:
    def test_one_dimensional_closed_form(self):
        # integrand is known in closed form for Exp(1); compare to a direct
        # high-resolution trapezoid of the same expression
        b, n = 0.1, 1000
        lo, hi = 0.3, 6.0
        t = np.linspace(lo, hi, 4001)
        f = np.exp(-t)
        integrand = (0.5 * b * t * f) ** 2 + f / (
            n * np.sqrt(b) * np.sqrt(t) * TWO_SQRT_PI)
        want = np.trapezoid(integrand, t)
        got = mise_leading(EXP1, b, n, "density", [(lo, hi)], nodes=4001)
        assert got == pytest.approx(want, rel=1e-12)

    def test_argmin_near_analytic_optimum(self):
        # on a fine log grid the argmin of the box MISE should sit at the
        # stationary point of the same box functional
        n = 1000
        dom = [(0.35, 7.0)]
        grid = np.geomspace(0.02, 0.17, 121)
        vals = [mise_leading(EXP1, b, n, "density", dom, nodes=400)
                for b in grid]
        b_star = grid[int(np.argmin(vals))]
        # analytic box optimum: b = (V / (4 B n))^{2/5} * ... solve
        # d/db [B b^2 + V n^{-1} b^{-1/2}] = 0 -> b = (V/(4 B n))^{2/5}
        t = np.linspace(dom[0][0], dom[0][1], 20001)
        f = np.exp(-t)
        B = np.trapezoid((0.5 * t * f) ** 2, t)
        V = np.trapezoid(f / (np.sqrt(t) * TWO_SQRT_PI), t)
        b_analytic = (V / (4.0 * B * n)) ** 0.4
        # within one grid step on the log grid
        step = grid[1] / grid[0]
        assert b_analytic / step <= b_star <= b_analytic * step

    def test_derivative_branch_positive(self):
        got = mise_leading(GAMMA3, 0.1, 1000, "derivative", [(0.4, 8.0)])
        assert np.isfinite(got) and got > 0.0

    def test_rejects_boundary_box(self):
        with pytest.raises(OutOfValidityError):
            mise_leading(EXP1, 0.1, 1000, "density", [(0.1, 5.0)])

    def test_rejects_unknown_which(self):
        with pytest.raises(ValueError):
            mise_leading(EXP1, 0.1, 1000, "pdf", [(0.3, 5.0)])

    def test_rejects_wrong_domain_length(self):
        with pytest.raises(ValueError, match="domain needs 1"):
            mise_leading(EXP1, 0.1, 1000, "density", [(0.3, 5.0)] * 2)


@pytest.mark.parametrize("b", [np.nan, -0.1, 0.0])
@pytest.mark.parametrize("expansion", [
    lambda b: bias_density(GAMMA3, [1.0], b),
    lambda b: var_density(GAMMA3, [1.0], b, 1000),
    lambda b: bias_derivative(GAMMA3, [1.0], b),
    lambda b: mise_leading(GAMMA3, b, 1000, "density", [(1.0, 8.0)]),
], ids=["bias_density", "var_density", "bias_derivative", "mise_leading"])
def test_rejects_bad_bandwidth(expansion, b):
    # every comparison with nan is False, so b must be checked for
    # finiteness; mise_leading needs the check as much as the pointwise
    # expansions
    with pytest.raises(ValueError, match="bandwidth must be finite"):
        expansion(b)


@pytest.mark.parametrize("coord", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("expansion", [
    lambda x: bias_density(GAMMA3, x, 0.1),
    lambda x: var_density(GAMMA3, x, 0.1, 1000),
    lambda x: cov_bound_density(GAMMA3, x, 0.1, 1000, TestCovarianceBounds.MP),
    lambda x: cov_split_density(GAMMA3, x, 0.1, 1000, TestCovarianceBounds.MP),
    lambda x: bias_derivative(GAMMA3, x, 0.1),
    lambda x: var_derivative(GAMMA3, x, 0.1, 1000),
    lambda x: cov_bound_derivative(GAMMA3, x, 0.1, 1000,
                                   TestCovarianceBounds.MP),
], ids=["bias_density", "var_density", "cov_bound_density",
        "cov_split_density", "bias_derivative", "var_derivative",
        "cov_bound_derivative"])
def test_rejects_non_finite_point(expansion, coord):
    # nan fails every comparison and +inf passes the interior check, so
    # both would reach the expansion; -inf gets the same message
    with pytest.raises(ValueError, match="point must be finite"):
        expansion([coord])


class TestExpansionReport:
    def test_serialize_lists_components(self):
        rep = var_density(GAMMA3, [1.0], 0.1, 1000)
        text = rep.serialize()
        assert text.splitlines()[0].startswith("value=")
        for key in rep.components:
            assert f"{key}=" in text
