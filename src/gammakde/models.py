"""Analytic reference densities with partial derivatives up to third order.

The bias/variance expansions and the reference bandwidth rules need the
density together with its gradient, pure second and third partials, and
mixed seconds. Product models (exponential, gamma marginals) provide
these analytically; arbitrary densities get a finite-difference wrapper.

All model callables accept points of shape (..., d) and evaluate
vectorized over the leading axes.
"""

import numpy as np
from scipy.special import (
    gammainc,
    gammaincc,
    gammainccinv,
    gammaincinv,
    gammaln,
    ndtr,
)

__all__ = [
    "DensityModel",
    "GammaMarginal",
    "product_gamma",
    "product_exponential",
    "from_pdf",
]

# latent-normal table of GammaMarginal.from_normal: nodes z in
# [-_Z_TABLE, _Z_TABLE] with step 1 / _Z_STEPS
_Z_TABLE = 8.5
_Z_STEPS = 16
# at x <= 1.1 scipy evaluates gammaincc by a series that costs 1-5 us per
# value for shape < 1.5; there the upper tail is not small, so from_normal
# solves z > 0 on gammainc(k, x) = ndtr(z) too
_X_UPPER_SERIES = 1.1


def _normal_table(k):
    """(z_lo, coef): cubic Hermite pieces of log x(z) for Gamma(k, 1).

    x(z) solves F(x) = Phi(z). Row i holds the coefficients in
    t = (z - z_i) * _Z_STEPS of the piece starting at z_i = -_Z_TABLE + i /
    _Z_STEPS. Node slopes are the exact d log x / dz = phi(z) / (x g(x)).
    The table is used for z in [z_lo, _Z_TABLE); z_lo rises above
    -_Z_TABLE only for shapes so small that low nodes underflow.
    """
    z = np.linspace(-_Z_TABLE, _Z_TABLE, int(2 * _Z_TABLE * _Z_STEPS) + 1)
    s = ndtr(-np.abs(z))
    x = np.where(z < 0, gammaincinv(k, s), gammainccinv(k, s))
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(x)
        m = np.exp(-0.5 * z * z - 0.5 * np.log(2.0 * np.pi)
                   - (k * y - x - gammaln(k))) / _Z_STEPS
        dy = np.diff(y)
        coef = np.stack([y[:-1], m[:-1], 3.0 * dy - 2.0 * m[:-1] - m[1:],
                         m[:-1] + m[1:] - 2.0 * dy], axis=1)
    # x rises with z, so the nodes that underflow are a prefix
    first = np.count_nonzero(x < np.finfo(float).tiny)
    return z[min(first, z.size - 1)], coef


class GammaMarginal:
    """Gamma(shape k, scale theta) marginal with derivatives up to order 3.

    With u(x) = (k-1)/x - 1/theta the derivatives of the pdf g are
    g' = g u, g'' = g (u^2 + u'), g''' = g (u^3 + 3 u u' + u'').
    """

    def __init__(self, shape, scale=1.0):
        shape, scale = float(shape), float(scale)
        if not (np.isfinite(shape) and np.isfinite(scale)
                and shape > 0 and scale > 0):
            raise ValueError("gamma shape and scale must be finite and "
                             "positive")
        self.shape = shape
        self.scale = scale
        self._table = None  # built by the first from_normal call

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

    def from_normal(self, z):
        """The x with F(x) = Phi(z), for latent standard normal z.

        Equals quantile(ndtr(z)) but never rounds Phi(z) near 1: it is
        solved on the smaller tail, gammainc(k, x) = ndtr(z) for z <= 0
        and gammaincc(k, x) = ndtr(-z) above (at x > 1.1, see
        _X_UPPER_SERIES), to about 1e-14 relative.
        A cached cubic Hermite table of log x in z gives a start within
        1e-8 relative for k >= 0.5, and one Halley step finishes it. For
        |z| >= 8.5 it is gammaincinv(k, ndtr(z)) or gammainccinv(k,
        ndtr(-z)) directly.
        """
        k = self.shape
        if self._table is None:
            # racing threads build equal tables; one assignment publishes it
            self._table = _normal_table(k)
        z_lo, coef = self._table
        z = np.asarray(z, dtype=float)
        out_shape = z.shape
        z = z.ravel()
        far = ~((z >= z_lo) & (z < _Z_TABLE))
        u = (np.where(far, 0.0, z) + _Z_TABLE) * _Z_STEPS
        i = np.minimum(u.astype(np.intp), coef.shape[0] - 1)
        t = u - i
        c = coef.take(i, axis=0)
        y = ((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t + c[:, 0]
        x = np.exp(y)
        # one Halley step on e(x) = P(k, x) - Phi(z), written where the
        # upper tail is read directly as e = Phi(-z) - Q(k, x); e' = g and
        # g'/g = (k - 1)/x - 1, so with r = e / (x g) the step is relative.
        # Integer take/put: boolean indexing costs ~5x more here, and
        # gammainc(..., where=mask) crashed the interpreter (scipy 1.17.1).
        upper = (z > 0) & (x > _X_UPPER_SERIES)
        lo, up = np.flatnonzero(~upper), np.flatnonzero(upper)
        e = np.empty_like(x)
        e[lo] = gammainc(k, x.take(lo)) - ndtr(z.take(lo))
        e[up] = ndtr(-z.take(up)) - gammaincc(k, x.take(up))
        r = e / np.exp(k * y - x - gammaln(k))
        x = x * (1.0 - r / (1.0 - 0.5 * r * ((k - 1.0) - x)))
        if far.any():
            zf = z[far]
            x[far] = np.where(zf < 0, gammaincinv(k, ndtr(zf)),
                              gammainccinv(k, ndtr(-zf)))
        return self.scale * x.reshape(out_shape)


class DensityModel:
    """Reference density on the nonnegative orthant with analytic partials.

    Parameters are callables over points of shape (..., d):

    pdf(x) -> (...,)
    grad(x) -> (..., d)
    hess_diag(x) -> (..., d)      second pure partials
    third(x, j, i) -> (...,)      d^3 f / dx_j^2 dx_i
    mixed(x, a, j) -> (...,)      d^2 f / dx_a dx_j
    quantile(q) -> (d,) or None   per-axis marginal quantiles

    ``marginals`` lists the per-axis factors of a product density (each
    with ``pdf`` and ``d2`` over arrays), or is None.

    At construction grad is checked against central finite differences
    of pdf on a probe grid, within 1e-4 relative plus 1e-7 absolute; the
    higher derivatives are not checked.
    """

    def __init__(self, dim, pdf, grad, hess_diag, third, mixed,
                 quantile=None, probe=None, marginals=None):
        self.dim = int(dim)
        self.pdf = pdf
        self.grad = grad
        self.hess_diag = hess_diag
        self.third = third
        self.mixed = mixed
        self.quantile = quantile
        self.marginals = marginals
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
                        quantile=quantile, marginals=marginals)


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
