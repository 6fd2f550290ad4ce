"""Analytic reference densities with partial derivatives up to third order.

The bias/variance expansions and the reference bandwidth rules need the
density together with its gradient, pure second and third partials, and
mixed seconds. Product models (exponential, gamma marginals) provide
these analytically; arbitrary densities get a finite-difference wrapper.

All model callables accept points of shape (..., d) and evaluate
vectorized over the leading axes.
"""

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln

__all__ = [
    "DensityModel",
    "GammaMarginal",
    "product_gamma",
    "product_exponential",
    "from_pdf",
]


class GammaMarginal:
    """Gamma(shape k, scale theta) marginal with derivatives up to order 3.

    With u(x) = (k-1)/x - 1/theta the derivatives of the pdf g are
    g' = g u, g'' = g (u^2 + u'), g''' = g (u^3 + 3 u u' + u'').
    """

    def __init__(self, shape, scale=1.0):
        if shape <= 0 or scale <= 0:
            raise ValueError("gamma shape and scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        k, th = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            logg = (k - 1.0) * np.log(x) - x / th - gammaln(k) - k * np.log(th)
            out = np.exp(logg)
        if k > 1.0:
            out = np.where(x == 0.0, 0.0, out)
        elif k == 1.0:
            out = np.where(x == 0.0, 1.0 / th, out)
        return out

    def _u(self, x, order):
        k, th = self.shape, self.scale
        if order == 0:
            return (k - 1.0) / x - 1.0 / th
        if order == 1:
            return -(k - 1.0) / x**2
        return 2.0 * (k - 1.0) / x**3

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        return self.pdf(x) * self._u(x, 0)

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        u = self._u(x, 0)
        return self.pdf(x) * (u * u + self._u(x, 1))

    def d3(self, x):
        x = np.asarray(x, dtype=float)
        u, u1, u2 = self._u(x, 0), self._u(x, 1), self._u(x, 2)
        return self.pdf(x) * (u**3 + 3.0 * u * u1 + u2)

    def cdf(self, x):
        return gammainc(self.shape, np.asarray(x, dtype=float) / self.scale)

    def quantile(self, q):
        return self.scale * gammaincinv(self.shape, q)


class DensityModel:
    """Reference density on the nonnegative orthant with analytic partials.

    Parameters are callables over points of shape (..., d):

    pdf(x) -> (...,)
    grad(x) -> (..., d)
    hess_diag(x) -> (..., d)      second pure partials
    third(x, j, i) -> (...,)      d^3 f / dx_j^2 dx_i
    mixed(x, a, j) -> (...,)      d^2 f / dx_a dx_j
    quantile(q) -> (d,) or None   per-axis marginal quantiles

    At construction grad is checked against central finite differences
    of pdf on a probe grid, within 1e-4 relative plus 1e-7 absolute; the
    higher derivatives are not checked.
    """

    def __init__(self, dim, pdf, grad, hess_diag, third, mixed,
                 quantile=None, probe=None):
        self.dim = int(dim)
        self.pdf = pdf
        self.grad = grad
        self.hess_diag = hess_diag
        self.third = third
        self.mixed = mixed
        self.quantile = quantile
        self._validate(probe)

    def _validate(self, probe):
        d = self.dim
        if probe is None:
            if self.quantile is not None:
                qs = np.array([self.quantile(q) for q in (0.3, 0.5, 0.7)])
            else:
                qs = np.array([[0.5] * d, [1.0] * d, [2.0] * d])
            probe = np.atleast_2d(qs)
        probe = np.asarray(probe, dtype=float).reshape(-1, d)
        g = np.asarray(self.grad(probe))
        for j in range(d):
            h = 1e-4 * np.maximum(probe[:, j], 1.0)
            hi, lo = probe.copy(), probe.copy()
            hi[:, j] += h
            lo[:, j] -= h
            fd = (np.asarray(self.pdf(hi)) - np.asarray(self.pdf(lo))) / (2 * h)
            # absolute floor: the probe can land on a critical point where
            # the finite difference is pure cancellation noise
            tol = 1e-4 * np.abs(fd) + 1e-7
            if np.any(np.abs(fd - g[..., j]) > tol):
                raise ValueError(
                    f"gradient inconsistent with pdf finite differences "
                    f"on axis {j}"
                )


def _product_model(marginals):
    marginals = list(marginals)
    d = len(marginals)

    def _stack(x, order_by_axis):
        """Product over axes of the requested per-axis derivative order."""
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for j, m in enumerate(marginals):
            order = order_by_axis.get(j, 0)
            fn = (m.pdf, m.d1, m.d2, m.d3)[order]
            out = out * fn(x[..., j])
        return out

    def pdf(x):
        return _stack(x, {})

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.stack([_stack(x, {j: 1}) for j in range(d)], axis=-1)

    def hess_diag(x):
        x = np.asarray(x, dtype=float)
        return np.stack([_stack(x, {j: 2}) for j in range(d)], axis=-1)

    def third(x, j, i):
        if i == j:
            return _stack(x, {j: 3})
        return _stack(x, {j: 2, i: 1})

    def mixed(x, a, j):
        if a == j:
            return _stack(x, {j: 2})
        return _stack(x, {a: 1, j: 1})

    def quantile(q):
        return np.array([m.quantile(q) for m in marginals])

    return DensityModel(d, pdf, grad, hess_diag, third, mixed,
                        quantile=quantile)


def product_gamma(shapes, scales=1.0):
    """Product of independent gamma marginals."""
    shapes = np.atleast_1d(np.asarray(shapes, dtype=float))
    scales = np.atleast_1d(np.asarray(scales, dtype=float))
    shapes, scales = np.broadcast_arrays(shapes, scales)
    return _product_model(GammaMarginal(k, th) for k, th in zip(shapes, scales))


def product_exponential(rates=1.0, d=1):
    """Product of independent Exponential(rate) marginals."""
    rates = np.broadcast_to(np.atleast_1d(np.asarray(rates, dtype=float)), (d,))
    return _product_model(GammaMarginal(1.0, 1.0 / r) for r in rates)


def from_pdf(pdf, dim, scale=1.0, quantile=None, probe=None):
    """Finite-difference DensityModel around an arbitrary vectorized pdf.

    First derivatives use central differences with step 1e-4 * scale;
    higher orders widen the step to keep cancellation noise in check.
    """
    scale = float(scale)

    def _shift(x, j, h):
        x = np.array(x, dtype=float, copy=True)
        x[..., j] = x[..., j] + h
        return x

    def _d1(x, j, h):
        return (pdf(_shift(x, j, h)) - pdf(_shift(x, j, -h))) / (2 * h)

    def _d2(x, j, h):
        return (pdf(_shift(x, j, h)) - 2 * pdf(x) + pdf(_shift(x, j, -h))) / h**2

    def grad(x):
        h = 1e-4 * scale
        return np.stack([_d1(x, j, h) for j in range(dim)], axis=-1)

    def hess_diag(x):
        h = 1e-3 * scale
        return np.stack([_d2(x, j, h) for j in range(dim)], axis=-1)

    def third(x, j, i):
        h = 1e-2 * scale
        if i == j:
            return (
                pdf(_shift(x, j, 2 * h))
                - 2 * pdf(_shift(x, j, h))
                + 2 * pdf(_shift(x, j, -h))
                - pdf(_shift(x, j, -2 * h))
            ) / (2 * h**3)
        return (_d2(_shift(x, i, h), j, h) - _d2(_shift(x, i, -h), j, h)) / (2 * h)

    def mixed(x, a, j):
        h = 1e-3 * scale
        if a == j:
            return _d2(x, j, h)
        return (_d1(_shift(x, a, h), j, h) - _d1(_shift(x, a, -h), j, h)) / (2 * h)

    return DensityModel(dim, pdf, grad, hess_diag, third, mixed,
                        quantile=quantile, probe=probe)
