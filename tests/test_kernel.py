"""Kernel tests against the scipy gamma pdf and quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma, gammaln
from scipy.stats import gamma as gamma_dist

from gammakde import kernel
from gammakde.kernel import (
    kernel_eval,
    kernel_grad_x,
    kernel_into,
    l_term,
    log_kernel_eval,
    node_terms,
    obs_terms,
    rho,
)


class TestRho:
    def test_interior_branch(self):
        r, interior = rho(1.0, 0.1)
        assert interior
        assert r == pytest.approx(10.0)

    def test_boundary_branch(self):
        r, interior = rho(0.1, 0.1)
        assert not interior
        assert r == pytest.approx(0.5**2 + 1.0)

    def test_branches_agree_at_two_b(self):
        # x = 2b: x/b = 2 and (x/2b)^2 + 1 = 2
        for b in (0.01, 0.3, 2.0):
            r, interior = rho(2.0 * b, b)
            assert interior
            assert r == pytest.approx(2.0)

    def test_origin_shape_is_one(self):
        r, interior = rho(0.0, 0.5)
        assert not interior
        assert r == 1.0

    def test_elementwise(self):
        x = np.array([0.0, 0.05, 0.2, 1.0])
        r, interior = rho(x, 0.1)
        np.testing.assert_array_equal(interior, [False, False, True, True])
        np.testing.assert_allclose(r, [1.0, 1.0625, 2.0, 10.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rho(-1.0, 0.1)
        with pytest.raises(ValueError):
            rho(1.0, 0.0)


class TestKernelEval:
    @pytest.mark.parametrize(
        "t,x,b",
        [(1.0, 2.0, 1.0), (0.5, 0.0, 1.0), (0.3, 1.0, 0.1),
         (2.0, 0.05, 0.1), (1.0, 1.0, 0.01)],
    )
    def test_matches_scipy_gamma_pdf(self, t, x, b):
        r, _ = rho(x, b)
        expected = gamma_dist.pdf(t, a=r, scale=b)
        assert kernel_eval(t, x, b) == pytest.approx(expected, rel=1e-12)

    def test_known_values(self):
        # x=2, b=1: shape 2, K(1) = 1*e^-1/Gamma(2)
        assert kernel_eval(1.0, 2.0, 1.0) == pytest.approx(np.exp(-1.0),
                                                           rel=1e-12)
        # x=0: shape 1, the unit-scale exponential pdf
        assert kernel_eval(0.5, 0.0, 1.0) == pytest.approx(np.exp(-0.5),
                                                           rel=1e-12)

    def test_peak_height_matches_laplace_approximation(self):
        # for small b the kernel at t=x behaves like 1/sqrt(2 pi x b)
        val = kernel_eval(1.0, 1.0, 0.01)
        assert val == pytest.approx(1.0 / np.sqrt(2.0 * np.pi * 0.01),
                                    rel=0.01)

    def test_zero_t_limits(self):
        assert kernel_eval(0.0, 0.0, 0.25) == pytest.approx(4.0)  # shape 1
        assert kernel_eval(0.0, 1.0, 0.1) == 0.0  # shape > 1
        assert log_kernel_eval(0.0, 1.0, 0.1) == -np.inf

    def test_no_overflow_small_bandwidth(self):
        # shape 5e5; direct Gamma would overflow
        assert np.isfinite(log_kernel_eval(5.0, 5.0, 1e-5))

    @pytest.mark.parametrize("b", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("xf", [0.0, 0.5, 1.0, 2.0, 10.0, 50.0])
    def test_normalization(self, b, xf):
        x = xf * b  # cover both branches at every bandwidth
        upper = x + 40.0 * b + 40.0 * np.sqrt(max(x, b) * b)
        total = quad(kernel_eval, 0.0, upper, args=(x, b), limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("x,b", [(1.0, 0.1), (0.15, 0.1), (3.0, 0.02)])
    def test_mean_and_variance(self, x, b):
        # as a density in t the kernel has mean rho*b and variance rho*b^2
        r, _ = rho(x, b)
        upper = x + 50.0 * b + 50.0 * np.sqrt(max(x, b) * b)
        mean = quad(lambda t: t * kernel_eval(t, x, b), 0, upper, limit=200)[0]
        var = quad(lambda t: (t - mean) ** 2 * kernel_eval(t, x, b),
                   0, upper, limit=200)[0]
        assert mean == pytest.approx(r * b, abs=1e-6)
        assert var == pytest.approx(r * b * b, abs=1e-6)

    @pytest.mark.parametrize("fn", [log_kernel_eval, kernel_eval])
    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_refuses_bad_t(self, fn, t):
        msg = "kernel argument t must be finite and >= 0"
        with pytest.raises(ValueError, match=msg):
            fn(t, 1.0, 0.1)
        with pytest.raises(ValueError, match=msg):
            fn(np.array([0.0, 0.5, t]), 1.0, 0.1)

    # every public kernel function checks x and b where it is called; rho
    # takes no t
    PUBLIC = [rho, log_kernel_eval, kernel_eval, l_term, kernel_grad_x]

    @staticmethod
    def _call(fn, x, b):
        return fn(x, b) if fn is rho else fn(0.5, x, b)

    @pytest.mark.parametrize("fn", PUBLIC)
    @pytest.mark.parametrize("x", [-1.0, np.nan, np.inf])
    def test_refuses_bad_x(self, fn, x):
        msg = "evaluation coordinate x must be finite and >= 0"
        with pytest.raises(ValueError, match=msg):
            self._call(fn, x, 0.1)
        with pytest.raises(ValueError, match=msg):
            self._call(fn, np.array([0.0, 0.5, x]), 0.1)

    @pytest.mark.parametrize("fn", PUBLIC)
    @pytest.mark.parametrize("b", [0.0, -1.0, np.nan, np.inf])
    def test_refuses_bad_b(self, fn, b):
        msg = "bandwidth b must be finite and > 0"
        with pytest.raises(ValueError, match=msg):
            self._call(fn, 1.0, b)
        with pytest.raises(ValueError, match=msg):
            self._call(fn, 1.0, np.array([0.1, 0.5, b]))

    @pytest.mark.parametrize("fn", PUBLIC[1:])
    def test_checks_t_then_x_then_b(self, fn):
        with pytest.raises(ValueError, match="kernel argument t"):
            fn(-1.0, -1.0, 0.0)
        with pytest.raises(ValueError, match="evaluation coordinate x"):
            fn(0.5, -1.0, 0.0)

    @pytest.mark.parametrize("fn", PUBLIC)
    def test_refuses_shape_overflow(self, fn):
        with pytest.raises(ValueError, match="x/b overflows"):
            self._call(fn, np.array([1.0, 1e308]), 1e-10)

    def test_interior_mean_is_x(self):
        # interior shape x/b gives mean exactly x
        mean = quad(lambda t: t * kernel_eval(t, 1.0, 0.05), 0, 10,
                    limit=200)[0]
        assert mean == pytest.approx(1.0, abs=1e-8)


# mpmath.mp.dps = 50 oracle values of Psi(z)
DIGAMMA_ORACLE = [
    (1.0, -0.57721566490153286060651209008240243104215933593992),
    (2.0, 0.42278433509846713939348790991759756895784066406008),
    (10.0, 2.2517525890667211076474561638858515372650028368497),
    (1e6, 13.815510057964190770774615403106185245602640677804),
]


class TestLTerm:
    def test_definition(self):
        # ln t - ln b - Psi(rho), rho = 10
        val = l_term(1.0, 1.0, 0.1)
        assert val == pytest.approx(-np.log(0.1) - DIGAMMA_ORACLE[2][1],
                                    rel=1e-12)

    @pytest.mark.parametrize("z,expected", DIGAMMA_ORACLE)
    def test_digamma_oracle(self, z, expected):
        # t = b leaves L = -Psi(rho); rho = z on the interior branch
        # (x = z b >= 2b), and rho = 1 on the boundary branch at x = 0
        b = 0.25
        x = 0.0 if z == 1.0 else z * b
        assert l_term(b, x, b) == pytest.approx(-expected, abs=1e-13)

    def test_small_b_expansion(self):
        # interior: L(x, x, b) ~ b/(2x) + b^2/(12 x^2)
        b, x = 0.1, 1.0
        assert l_term(x, x, b) == pytest.approx(b / (2 * x) + b**2 / (12 * x**2),
                                                abs=1e-5)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError, match="l_term requires t > 0"):
            l_term(0.0, 1.0, 0.1)


class TestKernelGradX:
    def test_known_value(self):
        # t=1, x=2, b=1: K = e^-1, L = -Psi(2) = gamma - 1
        euler_gamma = 0.5772156649015329
        expected = np.exp(-1.0) * (euler_gamma - 1.0)
        assert kernel_grad_x(1.0, 2.0, 1.0) == pytest.approx(expected,
                                                             rel=1e-10)

    def test_prefactor_branches(self):
        # d(rho)/dx: 1/b interior, x/(2 b^2) on the boundary branch
        slope = node_terms(np.array([1.0, 0.1]), 0.1, grad=True).slope
        assert slope == pytest.approx([10.0, 0.1 / 0.02])

    def test_matches_finite_difference(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        worst = 0.0
        for _ in range(100):
            b = 10.0 ** rng.uniform(-2.0, -0.3)
            x = rng.uniform(2.5 * b, 5.0)
            t = rng.uniform(0.2, 3.0)
            h = 1e-6 * max(x, 1.0)
            fd = (kernel_eval(t, x + h, b) - kernel_eval(t, x - h, b)) / (2 * h)
            if abs(fd) < 1e-12:
                continue
            worst = max(worst, abs(kernel_grad_x(t, x, b) - fd) / abs(fd))
        assert worst < 1e-5

    def test_boundary_branch_finite_difference(self):
        # x in (0, 2b), step small enough to stay on the branch
        b, x, t = 0.2, 0.15, 0.3
        h = 1e-7
        fd = (kernel_eval(t, x + h, b) - kernel_eval(t, x - h, b)) / (2 * h)
        assert kernel_grad_x(t, x, b) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_requires_positive_t(self, t):
        with pytest.raises(ValueError):
            kernel_grad_x(t, 1.0, 0.1)
        with pytest.raises(ValueError):
            kernel_grad_x(np.array([0.5, t]), 0.0, 0.1)

    def test_zero_at_t_zero(self):
        # the exact limit, as in the estimator's derivative tiles, on both
        # branches and at x = 0 where the shape is 1
        for x in (0.0, 0.05, 1.0):
            assert kernel_grad_x(0.0, x, 0.1) == 0.0
        got = kernel_grad_x(np.array([0.0, 0.5]), np.array([[0.0], [1.0]]),
                            0.1)
        assert np.all(got[:, 0] == 0.0) and got[1, 1] != 0.0

    def test_integrates_to_zero(self):
        # d/dx of a normalized family: integral of the gradient is 0
        total = quad(kernel_grad_x, 1e-12, 12.0, args=(1.0, 0.1), limit=200)[0]
        assert total == pytest.approx(0.0, abs=1e-8)


def _written_out(t, x, b):
    """(log K, L, d(rho)/dx) by the kernel's ufunc sequence, written out:
    the shape on both branches, then the log kernel term by term and its
    t = 0 limits, and L on t' (t, or 1 where t = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        two_b = 2.0 * b
        interior = x >= two_b
        r = np.where(interior, x / b, (x / two_b) ** 2 + 1.0)
        logk = np.multiply(r - 1.0, np.log(t))
        logk = np.subtract(logk, t / b)
        logk = np.subtract(logk, r * np.log(b))
        logk = np.subtract(logk, gammaln(r))
    logk = np.where(t == 0.0, np.where(r == 1.0, -np.log(b), -np.inf), logk)
    lt = np.subtract(np.log(np.where(t == 0.0, 1.0, t)) - np.log(b),
                     digamma(r))
    slope = np.where(interior, 1.0 / b, x / (2.0 * b**2))
    return logk, lt, slope


def _grad_tile(t, x, logk, lt, slope):
    """The estimator's derivative tile: K c with c = L d(rho)/dx, set to
    0 where t or x is 0."""
    c = lt * slope
    c[:, t[0] == 0.0] = 0.0
    c[x[:, 0] == 0.0] = 0.0
    return np.exp(logk) * c


class TestOneFormula:
    # nodes: x = 0, one so small that its shape rounds to 1, the boundary
    # branch, x = 2b where the branches meet, and the interior; points at
    # t = 0 and on both sides of every node
    X = np.array([0.0, 1e-170, 0.05, 0.2, 1.0, 3.7])[:, None]
    T = np.array([0.0, 1e-300, 0.02, 0.2, 1.0, 4.0, 60.0])[None, :]

    @pytest.mark.parametrize("b", [0.1, 0.35])
    def test_public_functions_are_the_written_out_sequence(self, b):
        logk, lt, slope = _written_out(self.T, self.X, b)
        pos = self.T[:, 1:]
        assert log_kernel_eval(self.T, self.X, b).tobytes() == logk.tobytes()
        assert kernel_eval(self.T, self.X, b).tobytes() == \
            np.exp(logk).tobytes()
        assert l_term(pos, self.X, b).tobytes() == lt[:, 1:].tobytes()
        assert node_terms(self.X, b, grad=True).slope.tobytes() == \
            slope.tobytes()
        want = _grad_tile(self.T, self.X, logk, lt, slope)
        assert kernel_grad_x(self.T, self.X, b).tobytes() == want.tobytes()
        # and one point at a time
        for i, j in np.ndindex(logk.shape):
            t, x = self.T[0, j], self.X[i, 0]
            assert np.float64(log_kernel_eval(t, x, b)).tobytes() == \
                logk[i, j].tobytes()
            assert np.float64(kernel_grad_x(t, x, b)).tobytes() == \
                want[i, j].tobytes()

    @pytest.mark.parametrize("b", [0.1, 0.35])
    def test_kernel_tile_is_the_written_out_sequence(self, b):
        # the estimator's tiles: K, and on the derivative axis K c with
        # c = L d(rho)/dx, set to 0 where t or x is 0
        logk, lt, slope = _written_out(self.T, self.X, b)
        tile = _grad_tile(self.T, self.X, logk, lt, slope)
        for grad, want in ((False, np.exp(logk)), (True, tile)):
            got = np.full(want.shape, np.nan)
            work = np.full(2 * want.size, np.nan)
            # as the estimator calls it: ln 0 and (1 - 1) ln 0 on the way
            # to the t = 0 limits
            with np.errstate(divide="ignore", invalid="ignore"):
                kernel_into(node_terms(self.X, b, grad),
                            obs_terms(self.T, b, grad), got, work)
            assert got.tobytes() == want.tobytes()


class TestTermsOnce:
    # each public function validates its input and builds each kind of
    # term once per call
    @pytest.mark.parametrize("fn", [log_kernel_eval, kernel_eval, l_term,
                                    kernel_grad_x])
    @pytest.mark.parametrize("t", [0.7, np.array([[0.3, 1.0, 4.0]])])
    def test_one_build_per_call(self, monkeypatch, fn, t):
        calls = []
        for name in ("node_terms", "obs_terms"):
            def counted(*args, _name=name, _f=getattr(kernel, name), **kw):
                calls.append(_name)
                return _f(*args, **kw)
            monkeypatch.setattr(kernel, name, counted)
        fn(t, np.array([[0.0], [0.05], [1.0]]), 0.1)
        assert sorted(calls) == ["node_terms", "obs_terms"]
