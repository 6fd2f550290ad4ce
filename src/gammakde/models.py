"""Analytic reference densities with partial derivatives up to third order.

The bias/variance expansions and the reference bandwidth rules need the
density together with its gradient, pure second and third partials, and
mixed seconds. Product models (exponential, gamma marginals) provide
these analytically; arbitrary densities get a finite-difference wrapper.

All model callables accept points of shape (..., d) and evaluate
vectorized over the leading axes.
"""

import threading

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
_Z_STEPS = 512
# a table piece further than this (relative) from the inverse at its
# midpoint gets a Halley step: a quarter of from_normal's 1e-13
_TABLE_RTOL = 2.5e-14
# at x <= 1.1 scipy's gammaincc is a slow series and the upper tail is
# not small, so from_normal solves z > 0 on gammainc(k, x) = ndtr(z) too
_X_UPPER_SERIES = 1.1
# from_normal and gen_series work on blocks of this many values: small
# enough that malloc reuses the temporaries, large enough that pool
# threads seldom hand over the interpreter lock (BENCH_copula-blocks.json)
_BLOCK = 1 << 14
# the latent-normal tables, built once per shape per process (about 0.3 MB
# each), kept in insertion order and dropped oldest first past _TABLES_MAX
_TABLES = {}
_TABLES_MAX = 8
_TABLES_LOCK = threading.Lock()


def _tail_inverse(k, z):
    """x with F(x) = Phi(z), solved on the smaller tail of Gamma(k, 1)."""
    s = ndtr(-np.abs(z))
    return np.where(z < 0, gammaincinv(k, s), gammainccinv(k, s))


def _normal_table(k):
    """(z_lo, coef, halley): cubic Hermite pieces of log x(z) for Gamma(k, 1).

    x(z) solves F(x) = Phi(z). Column i of coef, a C-contiguous (4, N)
    array, holds the coefficients in t = (z - z_i) * _Z_STEPS of the piece
    starting at z_i = -_Z_TABLE + i / _Z_STEPS. Node slopes are the exact
    d log x / dz = phi(z) / (x g(x)). The table serves z in
    [z_lo, _Z_TABLE); z_lo rises above -_Z_TABLE only where low nodes
    underflow. halley[i] marks the pieces whose value at t = 1/2, where
    the Hermite error peaks, is further than _TABLE_RTOL from the tail
    inverse: none for k from 0.6 to 1e4.
    """
    z = np.linspace(-_Z_TABLE, _Z_TABLE, int(2 * _Z_TABLE * _Z_STEPS) + 1)
    x = _tail_inverse(k, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(x)
        m = np.exp(-0.5 * z * z - 0.5 * np.log(2.0 * np.pi)
                   - (k * y - x - gammaln(k))) / _Z_STEPS
        dy = np.diff(y)
        coef = np.stack([y[:-1], m[:-1], 3.0 * dy - 2.0 * m[:-1] - m[1:],
                         m[:-1] + m[1:] - 2.0 * dy])
        # from_normal's Horner form at t = 1/2
        mid = np.exp(((0.5 * coef[3] + coef[2]) * 0.5 + coef[1]) * 0.5
                     + coef[0])
        # pieces with an underflowed node give nan and are marked; z_lo
        # keeps them out of use
        halley = ~(np.abs(mid / _tail_inverse(k, z[:-1] + 0.5 / _Z_STEPS)
                          - 1.0) <= _TABLE_RTOL)
    # x rises with z, so the nodes that underflow are a prefix
    first = np.count_nonzero(x < np.finfo(float).tiny)
    return z[min(first, z.size - 1)], coef, halley


def _shape_table(k):
    """_normal_table(k), read-only, built once per shape per process.

    The lock is held while a table is built, so threads racing on the
    first call for a shape build it once.
    """
    with _TABLES_LOCK:
        table = _TABLES.get(k)
        if table is None:
            table = _normal_table(k)
            for a in table[1:]:
                a.flags.writeable = False
            if len(_TABLES) >= _TABLES_MAX:
                del _TABLES[next(iter(_TABLES))]
            _TABLES[k] = table
        return table


def _halley_step(k, z, x, y):
    """x after one Halley step on e(x) = P(k, x) - Phi(z); y = log x.

    The upper tail is read directly as e = Phi(-z) - Q(k, x); e' = g and
    g'/g = (k - 1)/x - 1, so with r = e / (x g) the step is relative.
    Integer take/put: boolean indexing costs ~5x more here, and
    gammainc(..., where=mask) crashed the interpreter (scipy 1.17.1).
    """
    upper = (z > 0) & (x > _X_UPPER_SERIES)
    lo, up = np.flatnonzero(~upper), np.flatnonzero(upper)
    e = np.empty_like(x)
    e[lo] = gammainc(k, x.take(lo)) - ndtr(z.take(lo))
    e[up] = ndtr(-z.take(up)) - gammaincc(k, x.take(up))
    r = e / np.exp(k * y - x - gammaln(k))
    return x * (1.0 - r / (1.0 - 0.5 * r * ((k - 1.0) - x)))


def _from_normal_block(k, table, z, x):
    """Writes Gamma(k, 1)'s x(z) into x, for z of one block."""
    z_lo, coef, halley = table
    far = ~((z >= z_lo) & (z < _Z_TABLE))
    u = (np.where(far, 0.0, z) + _Z_TABLE) * _Z_STEPS
    i = np.minimum(u.astype(np.intp), coef.shape[1] - 1)
    t = u - i
    # Horner's rule gathers one row of coef at a time, so every temporary
    # is one block of floats, which malloc reuses
    y = coef[3].take(i)
    for c in coef[2::-1]:
        y *= t
        y += c.take(i)
    np.exp(y, out=x)
    step = np.flatnonzero(halley.take(i) & ~far)
    if step.size:
        x[step] = _halley_step(k, z.take(step), x.take(step), y.take(step))
    if far.any():
        x[far] = _tail_inverse(k, z[far])


class GammaMarginal:
    """Gamma(shape k, scale theta) marginal with derivatives up to order 3.

    With u(x) = (k-1)/x - 1/theta the derivatives of the pdf g are
    g' = g u, g'' = g (u^2 + u'), g''' = g (u^3 + 3 u u' + u'').

    Near the float range a power of x or u overflows; pdf, d1-d3,
    quantile and from_normal ignore that on whichever thread they run
    (numpy's error state is per thread), and their callers check for
    non-finite results.
    """

    def __init__(self, shape, scale=1.0):
        shape, scale = float(shape), float(scale)
        if not (np.isfinite(shape) and np.isfinite(scale)
                and shape > 0 and scale > 0):
            raise ValueError("gamma shape and scale must be finite and "
                             "positive")
        self.shape = shape
        self.scale = scale

    @np.errstate(all="ignore")
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        k, th = self.shape, self.scale
        logg = (k - 1.0) * np.log(x) - x / th - gammaln(k) - k * np.log(th)
        # at x = 0 the log is -inf for k > 1 and +inf for k < 1, whose
        # exp is the limit; at k = 1 it is 0 * (-inf), which is nan
        out = np.exp(logg)
        if k == 1.0:
            out = np.where(x == 0.0, 1.0 / th, out)
        return out

    def _u(self, x, order):
        k, th = self.shape, self.scale
        if order == 0:
            return (k - 1.0) / x - 1.0 / th
        if order == 1:
            return -(k - 1.0) / x**2
        return 2.0 * (k - 1.0) / x**3

    @np.errstate(all="ignore")
    def d1(self, x):
        x = np.asarray(x, dtype=float)
        return self.pdf(x) * self._u(x, 0)

    @np.errstate(all="ignore")
    def d2(self, x):
        x = np.asarray(x, dtype=float)
        u = self._u(x, 0)
        return self.pdf(x) * (u * u + self._u(x, 1))

    @np.errstate(all="ignore")
    def d3(self, x):
        x = np.asarray(x, dtype=float)
        u, u1, u2 = self._u(x, 0), self._u(x, 1), self._u(x, 2)
        return self.pdf(x) * (u**3 + 3.0 * u * u1 + u2)

    def cdf(self, x):
        return gammainc(self.shape, np.asarray(x, dtype=float) / self.scale)

    @np.errstate(over="ignore")
    def quantile(self, q):
        return self.scale * gammaincinv(self.shape, q)

    @np.errstate(all="ignore")
    def from_normal(self, z):
        """The x with F(x) = Phi(z), for latent standard normal z.

        Equals quantile(ndtr(z)) but never rounds Phi(z) near 1: it is
        solved on the smaller tail, gammainc(k, x) = ndtr(z) for z <= 0
        and gammaincc(k, x) = ndtr(-z) above (at x > 1.1), within 1e-13
        relative for k >= 0.5 and 1e-12 below. It reads a cubic Hermite
        table of log x in z (_normal_table, one per shape per process),
        with a Halley step on the pieces it marks, and the tail inverse at
        |z| >= 8.5; every step is elementwise, so _BLOCK changes no bit.
        """
        table = _shape_table(self.shape)
        z = np.asarray(z, dtype=float)
        out = np.empty(z.shape)
        flat_z, flat_out = z.ravel(), out.reshape(-1)
        for s in range(0, flat_z.size, _BLOCK):
            _from_normal_block(self.shape, table, flat_z[s:s + _BLOCK],
                               flat_out[s:s + _BLOCK])
        out *= self.scale
        return out[()]


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
    of pdf on a probe grid, with a step and tolerance scaled to the
    probes, so the check does not depend on the data's units. The higher
    derivatives are not checked.
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

    # near the float range a difference is inf or nan; a comparison with
    # nan is false, so such a probe passes, and the rules built on the
    # model refuse what is not finite
    @np.errstate(all="ignore")
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
        f = np.abs(np.asarray(self.pdf(probe)))
        for j in range(d):
            # a step relative to the coordinate, at most the probes'
            # spread, stays inside a narrow density; at 0 it is 1e-4
            x = np.abs(probe[:, j])
            spread = np.ptp(probe[:, j])
            s = np.minimum(x, spread) if spread > 0.0 else x
            s = np.where(s > 0.0, s, 1.0)
            h = 1e-4 * s
            hi, lo = probe.copy(), probe.copy()
            hi[:, j] += h
            lo[:, j] -= h
            fd = (np.asarray(self.pdf(hi)) - np.asarray(self.pdf(lo))) / (2 * h)
            # floor in the gradient's units: at a critical point the
            # finite difference is rounding noise of pdf over 2h
            floor = 1e-5 * np.max(f / s, where=np.isfinite(f), initial=0.0)
            tol = 1e-4 * np.abs(fd) + floor
            if np.any(np.abs(fd - g[..., j]) > tol):
                raise ValueError(
                    f"gradient inconsistent with pdf finite differences "
                    f"on axis {j}"
                )


def _product_model(marginals):
    marginals = list(marginals)
    d = len(marginals)

    @np.errstate(all="ignore")
    def rule(x, *axes):
        """The partial of f in ``axes``: the product over j of marginal
        j's derivative of the order in which axis j appears in ``axes``,
        multiplied from axis 0 up."""
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for j, m in enumerate(marginals):
            fn = (m.pdf, m.d1, m.d2, m.d3)[axes.count(j)]
            out = out * fn(x[..., j])
        return out

    def pdf(x):
        return rule(x)

    def grad(x):
        return np.stack([rule(x, j) for j in range(d)], axis=-1)

    def hess_diag(x):
        return np.stack([rule(x, j, j) for j in range(d)], axis=-1)

    def third(x, j, i):
        return rule(x, j, j, i)

    def mixed(x, a, j):
        return rule(x, a, j)

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
