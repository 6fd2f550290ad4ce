"""Closed-form leading-term expansions for the gamma-kernel estimators.

Bias, variance, covariance bounds, and two-term MISE for the density and
its partial derivative (always along the last coordinate), evaluated
against an analytic :class:`~gammakde.models.DensityModel` m of
(tau+1)-point lag fragments; every function reads tau = m.dim - 1 from m.
These expansions are proven for interior points only (every coordinate
at least 2b); boundary points are rejected rather than extrapolated.
``_mixing_weight``, D(u, x), is shared with the mixing-aware bandwidth rule.
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .quadrature import grid_points, tensor_axes, trapezoid_nd

__all__ = [
    "ExpansionReport",
    "MixingProfile",
    "OutOfValidityError",
    "bias_density",
    "var_density",
    "cov_bound_density",
    "cov_split_density",
    "bias_derivative",
    "var_derivative",
    "cov_bound_derivative",
    "mise_leading",
]

_TWO_SQRT_PI = 2.0 * np.sqrt(np.pi)


class OutOfValidityError(ValueError):
    """Raised when an expansion is requested outside its proven region."""


@dataclass
class ExpansionReport:
    """A leading-term expansion value together with its named addends."""

    value: float
    order: str
    components: dict = field(default_factory=dict)

    def serialize(self):
        lines = [f"value={self.value:.16e}", f"order={self.order}"]
        lines += [f"{k}={v:.16e}" for k, v in self.components.items()]
        return "\n".join(lines)


@dataclass
class MixingProfile:
    """Strong-mixing inputs for the covariance bounds.

    upsilon : exponent of the mixing-coefficient integral, in (0, 1)
    alpha_integral : value of int_1^inf alpha(t)^upsilon dt
    kappa : split exponent for the two-part covariance bound, in (0, 1/2)
    alpha_sum : sum over t >= 2 of t * alpha(t)^(2 kappa)
    M : uniform bound on |f_t(x, y) - f(x) f(y)| (None if not supplied)
    """

    upsilon: float
    alpha_integral: float
    kappa: float = 0.25
    alpha_sum: float = 0.0
    M: float = None

    def __post_init__(self):
        if not 0.0 < self.upsilon < 1.0:
            raise ValueError("upsilon must lie strictly inside (0, 1)")
        if not 0.0 < self.kappa < 0.5:
            raise ValueError("kappa must lie strictly inside (0, 1/2)")
        given = [("alpha_integral", self.alpha_integral),
                 ("alpha_sum", self.alpha_sum)]
        if self.M is not None:
            given.append(("M", self.M))
        for name, value in given:
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value}")


def _check_bandwidth(b):
    b = float(b)
    if not (np.isfinite(b) and b > 0.0):
        raise ValueError(f"bandwidth must be finite and positive, got {b}")
    return b


def _check_interior(x, b, dim):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"point must have dimension {dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point must be finite, got {x.tolist()}")
    b = _check_bandwidth(b)
    if np.any(x < 2.0 * b):
        raise OutOfValidityError(
            f"expansions hold for interior points only (all x_j >= 2b = {2*b})"
        )
    return x, b


def _partials(m, x):
    """(f, grad f, diag Hessian of f) of model m at the point x."""
    return float(m.pdf(x)), np.asarray(m.grad(x)), np.asarray(m.hess_diag(x))


def _curvature_sum(m, x):
    """sum_j x_j * d^2 f / dx_j^2, vectorized over (..., d) points."""
    return np.sum(x * np.asarray(m.hess_diag(x)), axis=-1)


def _variance_prefactor(x, b, n, tau):
    """b^(-(tau+1)/2) / n * prod_j x_j^(-1/2) / (2 sqrt(pi))."""
    prod = np.prod(x ** -0.5 / _TWO_SQRT_PI, axis=-1)
    return b ** (-(tau + 1) / 2.0) / n * prod


def bias_density(m, x, b):
    """Leading bias of the density estimate: (b/2) sum_j x_j f_jj."""
    x, b = _check_interior(x, b, m.dim)
    value = 0.5 * b * float(_curvature_sum(m, x))
    return ExpansionReport(value=value, order="b",
                           components={"leading": value})


def _v1(m, x):
    _f, g, h = _partials(m, x)
    return float(np.sum(-0.5 * g + 0.25 * x * h))


def _v2(m, x):
    d = m.dim
    total = 0.0
    for j in range(d):
        for i in range(d):
            total -= x[j] / 8.0 * float(m.third(x, j, i))
    return total


def var_density(m, x, b, n):
    """Variance expansion of the density estimate through order b^2."""
    x, b = _check_interior(x, b, m.dim)
    f = float(m.pdf(x))
    pref = float(_variance_prefactor(x, b, n, m.dim - 1))
    v1 = _v1(m, x)
    v2 = _v2(m, x)
    mean = f + 0.5 * b * float(_curvature_sum(m, x))
    components = {
        "leading": pref * f,
        "v1_term": pref * b * v1,
        "v2_term": pref * b * b * v2,
        "mean_sq": -mean * mean / n,
    }
    return ExpansionReport(value=sum(components.values()), order="1/(n b^((tau+1)/2))",
                           components=components)


def _mixing_weight(x, u):
    """D(u, x) = 2 (2 pi)^(-(tau(u+1)+u-1)/2) prod_j x_j^(-(u+1)/2).

    x is a point or an open grid, one coordinate array per axis, and
    tau = len(x) - 1.
    """
    expo = -((len(x) - 1) * (u + 1.0) + u - 1.0) / 2.0
    return 2.0 * (2.0 * np.pi) ** expo * reduce(
        np.multiply, [xj ** (-(u + 1.0) / 2.0) for xj in x])


def _mixing_core(m, x, b, u):
    """D(u, x) |b S(u, x) + f (3u-1)/(2(u-1))|^(1-u) at an interior point.

    S(u, x) = sum_j [(u+1)/((u-1)^2 x_j) f + (u+1)/(u-1) f_j + x_j f_jj/2].
    The base is taken in absolute value: the bound controls a magnitude
    and the leading f-term changes sign at u = 1/3.
    """
    f, g, h = _partials(m, x)
    s = np.sum((u + 1.0) / ((u - 1.0) ** 2 * x) * f
               + (u + 1.0) / (u - 1.0) * g + 0.5 * x * h)
    base = b * float(s) + f * (3.0 * u - 1.0) / (2.0 * (u - 1.0))
    return float(_mixing_weight(x, u)) * abs(base) ** (1.0 - u)


def cov_bound_density(m, x, b, n, mp):
    """Strong-mixing covariance bound for the density estimate:
    b^(-(tau+1)(u+1)/2)/n * alpha_integral * D(u, x) |b S(u, x) + ...|^(1-u).
    """
    tau = m.dim - 1
    x, b = _check_interior(x, b, m.dim)
    u = mp.upsilon
    return (_mixing_core(m, x, b, u) * b ** (-(tau + 1) * (u + 1.0) / 2.0)
            / n * mp.alpha_integral)


def cov_split_density(m, x, b, n, mp):
    """Two-part covariance bound (near/far lags) for the density estimate.

    Uses the lag cutoff c(n) = b^(-(tau+1)/8) with kappa from the mixing
    profile (default 1/4). Returns (I1, I2); I2 is the covariance core
    at u = 2 kappa. The combined order n^-1 b^(-(tau+1)/8) is strictly
    weaker than the variance order n^-1 b^(-(tau+1)/2), so the covariance
    is asymptotically negligible.
    """
    tau = m.dim - 1
    x, b = _check_interior(x, b, m.dim)
    if mp.M is None:
        raise ValueError("mixing profile must set the joint-density bound M")
    i1 = 2.0 * mp.M / (n * b ** ((tau + 1) / 8.0))
    i2 = (_mixing_core(m, x, b, 2.0 * mp.kappa)
          / (n * b ** ((tau + 1) / 16.0)) * mp.alpha_sum)
    return float(i1), float(i2)


def _b1(m, x):
    """O(b) bias coefficient of the derivative estimate.

    The estimator is the exact x_n-partial of the density estimate, so
    B1 = (1/2) d/dx_n sum_j x_j f_jj = (1/2)(f_nn + sum_j x_j f_jjn).
    """
    d = x.shape[-1]
    h = np.asarray(m.hess_diag(x))
    third_sum = sum(
        x[..., j] * np.asarray(m.third(x, j, d - 1)) for j in range(d)
    )
    return 0.5 * (h[..., -1] + third_sum)


def _b2(m, x):
    return _curvature_sum(m, x) / (24.0 * x[..., -1] ** 2)


def bias_derivative(m, x, b):
    """Leading bias of the derivative estimate: b B1 + b^2 B2."""
    x, b = _check_interior(x, b, m.dim)
    b1 = float(_b1(m, x))
    b2 = float(_b2(m, x))
    return ExpansionReport(
        value=b * b1 + b * b * b2,
        order="b",
        components={"B1": b1, "B2": b2,
                    "B1_term": b * b1, "B2_term": b * b * b2},
    )


def var_derivative(m, x, b, n):
    """Variance expansion of the derivative estimate.

    Leading order is (1/(n b^((tau+3)/2))) prod_j (x_j^(-1/2)/(2 sqrt(pi)))
    * f/(2 x_n), carried by the V3 component.
    """
    x, b = _check_interior(x, b, m.dim)
    xn = x[-1]
    f, g, h = _partials(m, x)
    fn = float(g[-1])

    v1 = (
        -fn / (24.0 * xn**2)
        + float(np.sum(h / (8.0 * xn) - g / (8.0 * xn**2)))
        + 7.0 * f / (48.0 * xn**3)
    )
    mixed_sum = sum(float(m.mixed(x, m.dim - 1, j)) for j in range(m.dim))
    v2 = (
        7.0 * f / (576.0 * xn**4)
        + float(np.sum(h / (16.0 * xn**2) - 7.0 * g / (96.0 * xn**3)))
        + mixed_sum / (48.0 * xn**2)
    )
    v3 = f / (2.0 * xn)
    v4 = f / (4.0 * xn**2) - float(np.sum(g)) / (4.0 * xn)

    pref = float(_variance_prefactor(x, b, n, m.dim - 1))
    b1 = float(_b1(m, x))
    b2 = float(_b2(m, x))
    mean_sq = (b * b * b1 * b1 + fn * fn
               + 2.0 * fn * (b * b1 + b * b * b2)) / n
    components = {
        "V1_term": pref * b * v1,
        "V2_term": pref * b * b * v2,
        "V3_term": pref * v3 / b,
        "V4_term": pref * v4,
        "mean_sq": -mean_sq,
    }
    return ExpansionReport(value=sum(components.values()),
                           order="1/(n b^((tau+3)/2))",
                           components=components)


def cov_bound_derivative(m, x, b, n, mp):
    """Strong-mixing covariance bound for the derivative estimate."""
    tau = m.dim - 1
    x, b = _check_interior(x, b, m.dim)
    u = mp.upsilon
    xn = x[-1]
    f, g, h = _partials(m, x)
    fn = float(g[-1])

    v_sum = 0.0
    w_sum = 0.0
    l_sum = 0.0
    for i in range(m.dim):
        xi = x[i]
        fi = float(g[i])
        fii = float(h[i])
        v_sum += (
            ((u + 1.0) * (3.0 * u - 1.0) / (72.0 * (u - 1.0) ** 3 * xn**2)
             + (u + 1.0) / ((u - 1.0) ** 2 * xi)
             - u * (u + 1.0) / (9.0 * (u - 1.0) ** 4 * xn**3)) * f
            + (u + 1.0) / (u - 1.0) * fi
            - u * (u + 1.0) / (9.0 * (u - 1.0) ** 3 * xn**2) * fn
            + 0.5 * xi * fii
        )
        w_sum += (
            ((3.0 * u - 1.0) / (4.0 * (u - 1.0) * xn)
             + (u + 1.0) / ((u - 1.0) ** 2 * xi)
             + 2.0 * xi * (u + 1.0) / (3.0 * (u - 1.0) ** 3 * xn**2)) * f
            + (u + 1.0) / (u - 1.0) * fi
            + 2.0 * (u + 1.0) * xi / (3.0 * (u - 1.0) ** 2 * xn) * fn
            + 0.5 * xi * fii
        )
        l_sum += (
            f * (3.0 * u - 1.0) / (2.0 * (u - 1.0))
            + xi * (-4.0 / (u - 1.0) * fn
                    - 4.0 / ((u - 1.0) ** 2 * xn) * f)
        )

    # (2 pi)^(-(tau+1)(u-1)/2 - tau) prod_j x_j^(-(u+1)/2) / (2 x_n^2),
    # which is D(u, x) / (4 x_n^2)
    r = float(_mixing_weight(x, u)) / (4.0 * xn**2)
    base = b * b * v_sum + b * w_sum + l_sum
    return float(r / (n * b ** ((tau + 1) * (u + 1.0) / 2.0))
                 * abs(base) ** (1.0 - u) * mp.alpha_integral)


def mise_leading(m, b, n, which, domain, nodes=200):
    """Two-term (bias^2 + leading variance) MISE over an interior box.

    which : "density" or "derivative"
    domain : m.dim per-axis (lo, hi) pairs inside the interior region
    """
    if which not in ("density", "derivative"):
        raise ValueError("which must be 'density' or 'derivative'")
    b = _check_bandwidth(b)
    if len(domain) != m.dim:
        raise ValueError(f"domain needs {m.dim} intervals, got {len(domain)}")
    for lo, _hi in domain:
        if lo < 2.0 * b:
            raise OutOfValidityError(
                f"integration box must start at or above 2b = {2*b}"
            )
    axes = tensor_axes(domain, nodes)
    pts = grid_points(axes)
    var = _variance_prefactor(pts, b, n, m.dim - 1) * np.asarray(m.pdf(pts))
    if which == "density":
        bias2 = (0.5 * b * _curvature_sum(m, pts)) ** 2
    else:
        bias2 = (b * _b1(m, pts)) ** 2
        # var_derivative's leading V3 term: f / (2 x_n) at one more 1/b
        var = var / (2.0 * pts[..., -1] * b)
    integrand = bias2 + var
    if not np.all(np.isfinite(integrand)):
        raise FloatingPointError("non-finite MISE integrand on the grid")
    return trapezoid_nd(integrand, axes)
