"""Bandwidth-rule tests: closed-form constants, divergence detection,
plug-in behavior, and first-order optimality of the mixing rule."""

import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from gammakde import bandwidth, estimator
from gammakde.bandwidth import (
    BandwidthRule,
    DivergentIntegralError,
    density_bandwidth,
    derivative_bandwidth,
    mixing_bandwidth,
    plug_in_bandwidth,
)
from gammakde.estimator import fragment
from gammakde.models import (
    DensityModel,
    from_pdf,
    product_exponential,
    product_gamma,
)
from gammakde.theory import MixingProfile, mise_leading


class TestDensityRule:
    def test_exponential_constant_closed_form(self):
        # Exp(1): num = int f x^{-1/2}/(2 sqrt(pi)) = 1/(2 sqrt(2)),
        # den = int (x f'')^2 = 1/4, so C = (4/(2 sqrt 2))^{2/5} = 2^{2/5}
        rule = density_bandwidth(product_exponential(1.0, d=1), 1000)
        assert rule.C == pytest.approx(2.0**0.4, abs=1e-4)
        assert rule.e == pytest.approx(0.4)

    def test_bandwidth_power_law(self):
        rule = density_bandwidth(product_exponential(1.0, d=1), 1000)
        for n in (100, 10_000, 1_000_000):
            assert rule.bandwidth(n) * n**rule.e == pytest.approx(rule.C,
                                                                  rel=1e-14)

    def test_heavy_origin_reference_rejected(self):
        # Gamma(0.4): f itself diverges at 0 and so does the numerator
        with pytest.raises(DivergentIntegralError, match="density-rule"):
            density_bandwidth(product_gamma([0.4]), 1000)

    def test_divergent_denominator_rejected(self):
        # Gamma(k) with k < 3/2: (x f'')^2 ~ x^{2k-4} is not integrable
        with pytest.raises(DivergentIntegralError, match="denominator"):
            density_bandwidth(product_gamma([0.913]), 1000)

    def test_constant_scales_with_the_reference(self):
        # a Gamma(3, 0.01) reference used to fail the gradient check of
        # the model, whose finite-difference step did not scale with x
        got = [density_bandwidth(product_gamma([3.0], [theta]), 1000).C
               / theta for theta in (0.01, 1.0)]
        assert got[0] == pytest.approx(got[1], rel=1e-12)

    def test_requires_quantile(self):
        m = from_pdf(lambda x: np.exp(-np.sum(x, axis=-1)), dim=1)
        with pytest.raises(ValueError, match="quantile"):
            density_bandwidth(m, 1000)

    def test_minimizes_leading_mise(self):
        # the rule bandwidth should beat nearby bandwidths for the
        # leading MISE over a wide interior box
        m = product_gamma([3.0])
        n = 2000
        rule = density_bandwidth(m, n)
        b_star = rule.bandwidth(n)
        dom = [(4.2 * b_star, float(m.quantile(1 - 1e-6)[0]))]
        at = mise_leading(m, b_star, n, "density", dom, nodes=2001)
        lo = mise_leading(m, 0.5 * b_star, n, "density", dom, nodes=2001)
        hi = mise_leading(m, 2.0 * b_star, n, "density", dom, nodes=2001)
        assert at < lo and at < hi


class TestDerivativeRule:
    def test_gamma3_constant_closed_form(self):
        rule = derivative_bandwidth(product_gamma([3.0]), 1000)
        assert rule.C == pytest.approx((108.0 / 35.0) ** (2.0 / 7.0),
                                       abs=1e-4)
        assert rule.e == pytest.approx(2.0 / 7.0)

    def test_exponential_reference_rejected(self):
        # f/x^{3/2} diverges at the origin for Exp(1)
        with pytest.raises(DivergentIntegralError, match="derivative-rule"):
            derivative_bandwidth(product_exponential(1.0, d=1), 1000)

    def test_two_dimensional_runs(self):
        rule = derivative_bandwidth(product_gamma([3.0, 3.0]), 1000)
        assert rule.e == pytest.approx(0.25)
        assert 0.1 < rule.C < 10.0


class TestSeparableReference:
    """d=2 constants of the product Gamma(3)^2 model against 1-d quadrature.

    The rule integrals of a product g(x1) g(x2) factor into integrals of
    the marginal g = x^2 e^{-x}/2, g'' = (x^2 - 4x + 2) e^{-x}/2, which
    adaptive quadrature evaluates on [0, inf).
    """

    @staticmethod
    def _quad(h):
        return integrate.quad(h, 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                              limit=400)[0]

    @staticmethod
    def _g(x):
        return 0.5 * x * x * np.exp(-x)

    @staticmethod
    def _g2(x):
        return 0.5 * (x * x - 4.0 * x + 2.0) * np.exp(-x)

    def test_density_rule(self):
        # num = (int g/(2 sqrt(pi x)))^2, den = 2 A B + 2 D^2 with
        # A = int (x g'')^2, B = int g^2, D = int x g g''
        g, g2, quad = self._g, self._g2, self._quad
        num = quad(lambda x: g(x) / (2.0 * np.sqrt(np.pi * x))) ** 2
        A = quad(lambda x: (x * g2(x)) ** 2)
        B = quad(lambda x: g(x) ** 2)
        D = quad(lambda x: x * g(x) * g2(x))
        want = (2.0 * num / (2.0 * A * B + 2.0 * D * D)) ** (1.0 / 3.0)
        rule = density_bandwidth(product_gamma([3.0, 3.0]), 1000)
        assert rule.C == pytest.approx(want, rel=1e-6)

    def test_derivative_rule(self):
        # num = int g x^(-1/2) * int g x^(-3/2); with a = g/(3x^2) + g'',
        # den = int g^2 int a^2 + 2 int x g g'' int a g/x
        #       + int (x g'')^2 int g^2/x^2
        g, g2, quad = self._g, self._g2, self._quad

        def a(x):
            return g(x) / (3.0 * x * x) + g2(x)

        num = quad(lambda x: g(x) / np.sqrt(x)) * quad(
            lambda x: g(x) / x**1.5)
        den = (
            quad(lambda x: g(x) ** 2) * quad(lambda x: a(x) ** 2)
            + 2.0 * quad(lambda x: x * g(x) * g2(x))
            * quad(lambda x: a(x) * g(x) / x)
            + quad(lambda x: (x * g2(x)) ** 2)
            * quad(lambda x: (g(x) / x) ** 2)
        )
        want = (2.0 / np.pi * num / den) ** 0.25
        rule = derivative_bandwidth(product_gamma([3.0, 3.0]), 1000)
        assert rule.C == pytest.approx(want, rel=2e-5)

    def test_three_dimensional_density_rule(self):
        # num = (int g/(2 sqrt(pi x)))^3, den = 3 A B^2 + 6 D^2 B; taken
        # axis by axis, the integrals need no 3-d array
        g, g2, quad = self._g, self._g2, self._quad
        num = quad(lambda x: g(x) / (2.0 * np.sqrt(np.pi * x))) ** 3
        A = quad(lambda x: (x * g2(x)) ** 2)
        B = quad(lambda x: g(x) ** 2)
        D = quad(lambda x: x * g(x) * g2(x))
        want = (3.0 * num / (3.0 * A * B * B + 6.0 * D * D * B)) ** (2 / 7)
        tracemalloc.start()
        try:
            rule = density_bandwidth(product_gamma([3.0, 3.0, 3.0]), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.C == pytest.approx(want, rel=1e-6)
        assert peak < 300e6


class TestFactoredRules:
    """Product-model rules at d = 3 and 4, taken axis by axis, against
    adaptive quadrature of gamma marginals with unequal shapes and
    scales on [0, inf).

    Each rule integrand is a sum of products of per-axis functions, so
    its integral is a sum of products of 1-d integrals; a squared sum
    sum_s prod_j h_sj integrates to sum_{s,t} prod_j int h_sj h_tj.
    """

    SHAPES = [3.0, 4.5, 3.5, 5.0]
    SCALES = [1.0, 0.5, 1.5, 2.0]
    MP = MixingProfile(upsilon=0.5, alpha_integral=2.0)

    @staticmethod
    def _quad(h):
        return integrate.quad(h, 0.0, np.inf, epsabs=0.0, epsrel=1e-12,
                              limit=400)[0]

    def _marginals(self, d):
        # g and g'' of Gamma(k, s): g'' = g ((k-1)/x - 1/s)^2 - g (k-1)/x^2
        out = []
        for k, s in zip(self.SHAPES[:d], self.SCALES[:d]):
            def g(x, k=k, s=s):
                return np.exp((k - 1.0) * np.log(x) - x / s
                              - special.gammaln(k) - k * np.log(s))

            def g2(x, k=k, s=s, g=g):
                return g(x) * (((k - 1.0) / x - 1.0 / s) ** 2
                               - (k - 1.0) / x**2)
            out.append((g, g2))
        return out

    def _product(self, factors):
        return np.prod([self._quad(h) for h in factors])

    def _square(self, terms):
        # int (sum_s prod_j terms[s][j])^2
        return sum(self._product([lambda x, a=a, b=b: a(x) * b(x)
                                  for a, b in zip(s, t)])
                   for s in terms for t in terms)

    def _density_den(self, gs):
        # curv = sum_j x_j g_j'' prod_(i != j) g_i
        return self._square([
            [(lambda x, g2=g2: x * g2(x)) if i == j else g
             for i, (g, g2) in enumerate(gs)] for j in range(len(gs))])

    @pytest.mark.parametrize("d", [3, 4])
    def test_density_rule(self, d):
        gs = self._marginals(d)
        num = self._product([lambda x, g=g: g(x) / (2.0 * np.sqrt(np.pi * x))
                             for g, _ in gs])
        want = (d * num / self._density_den(gs)) ** (2.0 / (4.0 + d))
        rule = density_bandwidth(
            product_gamma(self.SHAPES[:d], self.SCALES[:d]), 1000)
        assert rule.C == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("d", [3, 4])
    def test_derivative_rule(self, d):
        # (f/(3 x_n^2) + curv/x_n)^2 with the 1/x_n weights on the last
        # axis n: terms f/(3 x_n^2), then x_j f_jj / x_n for each j
        gs = self._marginals(d)
        *head, (gn, g2n) = gs
        num = self._product([lambda x, g=g: g(x) / np.sqrt(x)
                             for g, _ in head]
                            + [lambda x: gn(x) / x**1.5])
        plain = [g for g, _ in head]
        terms = [plain + [lambda x: gn(x) / (3.0 * x * x)]]
        terms += [plain[:j] + [lambda x, g2=g2: x * g2(x)] + plain[j + 1:]
                  + [lambda x: gn(x) / x] for j, (_, g2) in enumerate(head)]
        terms += [plain + [g2n]]
        tau = d - 1
        pref = (tau + 3.0) / (2.0**tau * np.pi ** (d / 2.0))
        want = (pref * num / self._square(terms)) ** (2.0 / (tau + 7.0))
        rule = derivative_bandwidth(
            product_gamma(self.SHAPES[:d], self.SCALES[:d]), 1000)
        assert rule.C == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("d", [3, 4])
    def test_mixing_rule(self, d):
        # the rule integrates over the box up to each marginal's 1 - 1e-7
        # quantile, which leaves out more of f^(1-u) than of f (a
        # Gamma(3) axis loses 4e-5 of its [0, inf) integral at u = 1/2),
        # so C is checked on that box to 1e-6 and on [0, inf) only to
        # within the truncation
        gs = self._marginals(d)
        m = product_gamma(self.SHAPES[:d], self.SCALES[:d])
        u, tau = self.MP.upsilon, d - 1
        pref = 2.0 * (2.0 * np.pi) ** (-(tau * (u + 1.0) + u - 1.0) / 2.0)
        bracket = ((tau + 1.0) * (u + 1.0)
                   * ((3.0 * u - 1.0) / (2.0 - 2.0 * u)) ** (1.0 - u)
                   * pref / self._density_den(gs) * self.MP.alpha_integral)
        e = 2.0 / (tau * (u + 1.0) + u + 5.0)
        C = mixing_bandwidth(m, 1000, self.MP).C
        for box, rel in ((m.quantile(1.0 - 1e-7), 1e-6), ([np.inf] * d, 1e-4)):
            num = np.prod([integrate.quad(
                lambda x, g=g: x ** (-(u + 1.0) / 2.0) * g(x) ** (1.0 - u),
                0.0, hi, epsabs=0.0, epsrel=1e-12, limit=400)[0]
                for (g, _), hi in zip(gs, box)])
            assert C == pytest.approx((bracket * num) ** e, rel=rel)

    def test_six_dimensions_stay_small(self):
        # no d-dimensional array is made: d = 6 (tau = 5) takes each
        # marginal on its own 4001-node axis, once, and the 49 products
        # of the denominator hold 6 axes of 4001 floats each (9.4 MB)
        m = product_gamma([3.0] * 6)
        sizes = _count_marginal_values(m)
        tracemalloc.start()
        try:
            rule = derivative_bandwidth(m, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.e == pytest.approx(2.0 / 12.0)
        assert _grid_calls(sizes) == {"pdf": [4001] * 6, "d2": [4001] * 6}
        assert peak < 64e6

    def test_four_dimensions_need_marginals(self):
        # the open grid of a model without marginals stops at d = 3
        m = _stacked(product_gamma([3.0] * 4))
        with pytest.raises(ValueError, match="rule integrals of a model "
                           "without marginals support at most 3 "
                           r"dimensions \(tau <= 2\), got d=4"):
            density_bandwidth(m, 1000)


def _count_marginal_values(m):
    """Wrap each marginal's pdf and d2 to record how many values every
    call from outside the marginal is made on (d2 calls pdf itself)."""
    sizes = {"pdf": [], "d2": []}
    inside = []
    for g in m.marginals:
        for name in sizes:
            def counted(x, _fn=getattr(g, name), _name=name):
                if not inside:
                    sizes[_name].append(np.size(x))
                inside.append(_name)
                try:
                    return _fn(x)
                finally:
                    inside.pop()
            setattr(g, name, counted)
    return sizes


def _grid_calls(sizes):
    # the origin probes call on one value each; the grid calls on more
    return {name: [s for s in calls if s > 1] for name, calls in sizes.items()}


@pytest.mark.parametrize("rule", [density_bandwidth, derivative_bandwidth])
def test_one_model_evaluation_per_grid(rule):
    # each marginal is evaluated once on its own 801-node axis of the
    # 801^2 grid, never on the grid itself
    m = product_gamma([3.0, 3.0])
    sizes = _count_marginal_values(m)
    rule(m, 1000)
    assert _grid_calls(sizes) == {"pdf": [801, 801], "d2": [801, 801]}


def test_mixing_rule_evaluates_once_per_grid():
    # the numerator has its own power substitution, hence its own grid,
    # and needs no curvature
    m = product_gamma([3.0, 3.0])
    sizes = _count_marginal_values(m)
    mixing_bandwidth(m, 1000, MixingProfile(upsilon=0.5,
                                               alpha_integral=2.0))
    assert _grid_calls(sizes) == {"pdf": [801] * 4, "d2": [801, 801]}


def _stacked(m):
    """m with its marginals hidden: the rules then evaluate its pdf and
    hess_diag on stacked (..., d) points."""
    return DensityModel(m.dim, m.pdf, m.grad, m.hess_diag, m.third,
                        m.mixed, quantile=m.quantile)


@pytest.mark.parametrize("d", [1, 2])
def test_open_grid_matches_stacked_grid_bitwise(d):
    m = product_gamma([3.0, 4.5, 3.5][:d], [1.0, 0.5, 1.5][:d])
    stacked = _stacked(m)
    # the integrals average away most last-bit differences, so the
    # integrands are compared node by node first
    x = np.ix_(*[np.linspace(0.01, 12.0, 41)] * d)
    for got, want in zip(
            bandwidth._grid_terms(m, bandwidth._axis_terms(m, x))[1:],
            bandwidth._grid_terms(stacked,
                                  bandwidth._axis_terms(stacked, x))[1:]):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for which in ("density", "derivative"):
        open_grid = bandwidth._reference_integrals(m, which)
        want = bandwidth._reference_integrals(stacked, which)
        assert [v.hex() for v in open_grid] == [v.hex() for v in want]
    mp = MixingProfile(upsilon=0.5, alpha_integral=2.0)
    open_grid = mixing_bandwidth(m, 1000, mp).metadata["numerator"]
    want = mixing_bandwidth(stacked, 1000, mp).metadata["numerator"]
    assert open_grid.hex() == want.hex()


def test_factored_matches_tensor_grid(monkeypatch):
    # a d = 3 product is integrated axis by axis, the same model without
    # marginals on its 41^3 grid in slabs of 6 rows, the last one short:
    # the sums agree up to rounding
    monkeypatch.setattr(bandwidth, "_RULE_NODES", {1: 41, 3: 41})
    monkeypatch.setattr(bandwidth, "_SLAB_ELEMS", 6 * 41 * 41)
    m = product_gamma([3.0, 4.5, 3.5], [1.0, 0.5, 1.5])
    stacked = _stacked(m)
    for which in ("density", "derivative"):
        got = bandwidth._reference_integrals(m, which)
        want = bandwidth._reference_integrals(stacked, which)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    mp = MixingProfile(upsilon=0.5, alpha_integral=2.0)
    got = mixing_bandwidth(m, 1000, mp).metadata["numerator"]
    want = mixing_bandwidth(stacked, 1000, mp).metadata["numerator"]
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _rule_model(d):
    """A product model of d = 2 or 3; at d = 3 one without marginals,
    since a product is integrated axis by axis."""
    m = product_gamma([3.0, 4.5, 3.5][:d], [1.0, 0.5, 1.5][:d])
    return _stacked(m) if d == 3 else m


def _rule_bits(m):
    """The density, derivative and mixing integrals of ``m``, as hex."""
    mp = MixingProfile(upsilon=0.5, alpha_integral=2.0)
    values = [v for which in ("density", "derivative")
              for v in bandwidth._reference_integrals(m, which)]
    values.append(mixing_bandwidth(m, 1000, mp).metadata["numerator"])
    return tuple(v.hex() for v in values)


@pytest.mark.parametrize("d", [2, 3])
def test_slab_size_does_not_change_bits(monkeypatch, d):
    # slabs of 1 row, of 6 rows with a short last one, and the whole grid
    monkeypatch.setattr(bandwidth, "_RULE_NODES", {2: 41, 3: 41})
    m = _rule_model(d)
    got = set()
    for rows in (1, 6, 41):
        monkeypatch.setattr(bandwidth, "_SLAB_ELEMS", rows * 41 ** (d - 1))
        got.add(_rule_bits(m))
    assert len(got) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_slab_threads_do_not_change_bits(monkeypatch, pool_sizes, d):
    # the rules open no pool: with the node blocks' gate forced open and
    # 3 usable CPUs, the rule integrals, in slabs of 6 rows with a short
    # last one, run on the calling thread, from the main thread and from
    # a worker, with the bits of the shipped gates
    monkeypatch.setattr(bandwidth, "_RULE_NODES", {2: 41, 3: 41})
    monkeypatch.setattr(bandwidth, "_SLAB_ELEMS", 6 * 41 ** (d - 1))
    m = _rule_model(d)
    want = _rule_bits(m)
    monkeypatch.setattr(estimator, "_SPLIT_ELEMS", 0)
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 3)
    got = [_rule_bits(m)]
    worker = threading.Thread(target=lambda: got.append(_rule_bits(m)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert got == [want, want]
    assert pool_sizes == []


def test_rule_off_the_main_thread_stays_serial(monkeypatch, pool_sizes):
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(estimator, "_SPLIT_ELEMS", 0)
    monkeypatch.setattr(bandwidth, "_RULE_NODES", {2: 41})
    monkeypatch.setattr(bandwidth, "_SLAB_ELEMS", 6 * 41)
    m = product_gamma([3.0, 3.0])
    want = density_bandwidth(m, 1000).C
    got = []
    worker = threading.Thread(
        target=lambda: got.append(density_bandwidth(m, 1000).C))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert got == [want]
    assert pool_sizes == []


def test_d2_rule_grid_stays_on_the_calling_thread(monkeypatch, pool_sizes):
    # the 801^2 grid holds 641,601 nodes, below the 2^20 gate
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 3)
    density_bandwidth(product_gamma([3.0, 3.0]), 1000)
    assert pool_sizes == []


def test_d3_rule_grid_past_the_gate_keeps_its_bits(monkeypatch, pool_sizes):
    # 102^3 = 1,061,208 nodes of a model without marginals, past the
    # 2^20 gate of the node blocks, on the calling thread at any CPU count
    monkeypatch.setattr(bandwidth, "_RULE_NODES", {3: 102})
    m = _stacked(product_gamma([3.0, 4.5, 3.5], [1.0, 0.5, 1.5]))
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 1)
    want = density_bandwidth(m, 1000).C
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
    got = density_bandwidth(m, 1000).C
    assert pool_sizes == []
    assert got.hex() == want.hex()


def test_rule_gate_opens_at_its_size(monkeypatch, pool_sizes):
    # a 41^2 grid in slabs of 6 rows opens no pool at a gate of exactly
    # its node count, nor one node above it: the gate is the node blocks'
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(bandwidth, "_RULE_NODES", {2: 41})
    monkeypatch.setattr(bandwidth, "_SLAB_ELEMS", 6 * 41)
    m = product_gamma([3.0, 3.0])
    monkeypatch.setattr(estimator, "_SPLIT_ELEMS", 41 * 41)
    want = density_bandwidth(m, 1000).C
    monkeypatch.setattr(estimator, "_SPLIT_ELEMS", 41 * 41 + 1)
    assert density_bandwidth(m, 1000).C == want
    assert pool_sizes == []


@pytest.mark.parametrize("n", [0, -5])
@pytest.mark.parametrize("build", [
    lambda n: density_bandwidth(product_gamma([3.0]), n),
    lambda n: derivative_bandwidth(product_gamma([3.0]), n),
    lambda n: mixing_bandwidth(product_gamma([3.0]), n, MixingProfile(
        upsilon=0.5, alpha_integral=2.0)),
], ids=["density", "derivative", "mixing"])
def test_rule_builders_reject_small_n(build, n):
    # refused when the rule is built, not first in BandwidthRule.bandwidth
    with pytest.raises(ValueError, match="n must be >= 1"):
        build(n)


class TestMixingRule:
    MP = MixingProfile(upsilon=0.5, alpha_integral=2.0)

    def test_exponent(self):
        rule = mixing_bandwidth(product_gamma([3.0]), 1000, self.MP)
        assert rule.e == pytest.approx(2.0 / (0.5 + 5.0))

    def test_first_order_optimality(self):
        # b(n) must be a stationary point of
        # (b^2/4) den + coef * num * alpha / (n b^q), q = (tau+1)(u+1)/2
        m = product_gamma([3.0])
        u, tau, n = 0.5, 0, 10_000
        rule = mixing_bandwidth(m, n, self.MP)
        num = rule.metadata["numerator"]
        den = rule.metadata["denominator"]
        coef = ((3.0 * u - 1.0) / (2.0 - 2.0 * u)) ** (1.0 - u)
        q = (tau + 1.0) * (u + 1.0) / 2.0

        def objective(b):
            return 0.25 * b * b * den + coef * num * 2.0 / (n * b**q)

        b = rule.bandwidth(n)
        h = 1e-6 * b
        foc = (objective(b + h) - objective(b - h)) / (2 * h)
        scale = objective(b) / b
        assert abs(foc) / scale < 1e-3

    def test_shrinks_with_n(self):
        rule = mixing_bandwidth(product_gamma([3.0]), 1000, self.MP)
        assert rule.bandwidth(10_000) < rule.bandwidth(1000)

    def test_homogeneous_in_alpha_integral(self):
        m = product_gamma([3.0])
        r1 = mixing_bandwidth(m, 1000, self.MP)
        r2 = mixing_bandwidth(
            m, 1000, MixingProfile(upsilon=0.5, alpha_integral=4.0))
        assert r2.C == pytest.approx(2.0**r1.e * r1.C, rel=1e-12)

    def test_rejects_small_upsilon(self):
        mp = MixingProfile(upsilon=0.3, alpha_integral=1.0)
        with pytest.raises(ValueError, match="upsilon > 1/3"):
            mixing_bandwidth(product_gamma([3.0]), 1000, mp)


class TestPlugIn:
    @staticmethod
    def _gamma3_sample(n, seed=2024):
        rng = np.random.Generator(np.random.Philox(key=seed))
        return rng.gamma(shape=3.0, scale=1.0, size=n)

    def test_recovers_closed_form_constant(self):
        # moment matching on a large Gamma(3,1) sample should land close
        # to the model rule
        data = self._gamma3_sample(100_000)
        rule = plug_in_bandwidth(data, which="density")
        want = density_bandwidth(product_gamma([3.0]), len(data)).C
        assert abs(rule.C - want) / want < 0.05
        assert rule.metadata["stage"] == 0
        assert not rule.metadata["shape_floored"]

    def test_derivative_rule_recovered(self):
        data = self._gamma3_sample(100_000)
        rule = plug_in_bandwidth(data, which="derivative")
        want = derivative_bandwidth(product_gamma([3.0]), len(data)).C
        assert abs(rule.C - want) / want < 0.05

    def test_exponential_data_floors_shape(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        data = rng.exponential(size=5000)
        rule = plug_in_bandwidth(data, which="density")
        assert rule.metadata["shape_floored"]
        assert 0.05 < rule.C < 5.0

    def test_two_stage_refines(self):
        data = self._gamma3_sample(20_000)
        r2 = plug_in_bandwidth(data, which="density", stages=2)
        assert r2.metadata["stage"] == 1
        assert "pilot_bandwidth" in r2.metadata
        want = density_bandwidth(product_gamma([3.0]), len(data)).C
        assert abs(r2.C - want) / want < 0.3

    def test_fragments_series_for_positive_tau(self):
        data = fragment(self._gamma3_sample(5000), 1)
        rule = plug_in_bandwidth(data, which="density")
        assert rule.metadata["tau"] == 1
        assert rule.e == pytest.approx(2.0 / 6.0)

    def test_degenerate_column_rejected(self):
        data = np.column_stack([self._gamma3_sample(100),
                                np.full(100, 2.0)])
        with pytest.raises(ValueError, match="column 1"):
            plug_in_bandwidth(data, which="density")

    @pytest.mark.parametrize("which", ["density", "derivative"])
    @pytest.mark.parametrize("stages", [1, 2])
    def test_bandwidth_scales_with_the_data(self, which, stages):
        # b of c * sample is c * b: the rule does not depend on the units
        data = self._gamma3_sample(2000)
        want = plug_in_bandwidth(data, which, stages).bandwidth(len(data))
        for c in (1e-3, 1e3):
            got = plug_in_bandwidth(c * data, which, stages)
            assert got.bandwidth(len(data)) == pytest.approx(c * want,
                                                             rel=1e-12)

    @pytest.mark.parametrize("stages", [1, 2])
    def test_reference_past_half_the_quantile_rejected(self, stages):
        # column 1: uniform on (0, 1e-3) but for one far outlier, which
        # inflates its moment-matched scale; refused before a pilot would
        # run on a grid from 2b to the 0.999 quantile
        spike = (np.arange(2000) + 0.5) / 2e6
        spike[0] = 1e3
        data = np.column_stack([self._gamma3_sample(2000), spike])
        with pytest.raises(ValueError, match=r"column 1: the reference "
                           r"bandwidth b\(2000\) = .* 0\.999 quantile"):
            plug_in_bandwidth(data, which="density", stages=stages)

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="50"):
            plug_in_bandwidth(self._gamma3_sample(20))

    def test_staging_contract(self):
        with pytest.raises(ValueError, match="stages"):
            plug_in_bandwidth(self._gamma3_sample(1000), stages=3)

    def test_rejects_unknown_which(self):
        # the mixing rule needs a mixing profile, which a sample lacks
        with pytest.raises(ValueError, match="which must be 'density' or "
                           "'derivative'"):
            plug_in_bandwidth(self._gamma3_sample(100), which="mixing")


class TestBandwidthRule:
    def test_serialize(self):
        rule = BandwidthRule(kind="X", C=1.5, e=0.4, metadata={"tau": 0})
        text = rule.serialize(n=1000)
        assert "kind=X" in text and "b(1000)=" in text and "tau=0" in text

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BandwidthRule(kind="X", C=-1.0, e=0.4)
        with pytest.raises(ValueError):
            BandwidthRule(kind="X", C=1.0, e=0.0)
        # n = 0 divided by zero and n < 0 gave a complex bandwidth
        for n in (0, -5):
            with pytest.raises(ValueError, match="n must be >= 1"):
                BandwidthRule(kind="X", C=1.0, e=0.4).bandwidth(n)
