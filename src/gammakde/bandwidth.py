"""MISE-optimal bandwidth rules: b(n) = C * n^(-e).

Closed-form reference rules for the density (e = 2/(5+tau)) and the
derivative (e = 2/(tau+7)) estimators, a mixing-aware variant built on
the covariance bound, and a data-driven plug-in with a moment-matched
gamma reference and an optional pilot stage.

The rule constants are ratios of density functionals over the orthant.
The integrals carry per-axis x^(-1/2) weights, so each axis is
integrated under the substitution x = u^2 (or a higher power for the
mixing rule), which removes the origin singularity exactly for
integrable references and exposes genuinely divergent ones.
"""

from dataclasses import dataclass, field

import numpy as np

from . import estimator
from .models import product_gamma
from .quadrature import grid_points, trapezoid_nd

__all__ = [
    "BandwidthRule",
    "DivergentIntegralError",
    "density_bandwidth",
    "derivative_bandwidth",
    "mixing_bandwidth",
    "plug_in_bandwidth",
]

_TWO_SQRT_PI = 2.0 * np.sqrt(np.pi)


class DivergentIntegralError(ValueError):
    """A reference-rule integral diverges near the origin."""


@dataclass
class BandwidthRule:
    """Power-law bandwidth b(n) = C * n^(-e)."""

    kind: str
    C: float
    e: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.C) and self.C > 0.0):
            raise ValueError("rule constant C must be finite and positive")
        if not (np.isfinite(self.e) and self.e > 0.0):
            raise ValueError("rule exponent e must be finite and positive")

    def bandwidth(self, n):
        return self.C * float(n) ** (-self.e)

    def serialize(self, n=None):
        lines = [f"kind={self.kind}", f"C={self.C:.16e}", f"e={self.e:.16e}"]
        if n is not None:
            lines.append(f"b({n})={self.bandwidth(n):.16e}")
        lines += [f"{k}={v}" for k, v in self.metadata.items()]
        return "\n".join(lines)


def _default_box(m, domain):
    """(lower, upper) per-axis integration bounds for the rule integrals.

    With no explicit domain the box runs from the origin (under the
    power substitution, with a divergence check) to the per-axis
    quantile capturing all but 1e-7 of the reference mass; an explicit
    domain is used verbatim and skips the divergence check.
    """
    if domain is not None:
        lo = np.asarray([l for (l, _hi) in domain], dtype=float)
        hi = np.asarray([h for (_lo, h) in domain], dtype=float)
        return lo, hi
    if m.quantile is None:
        raise ValueError(
            "model has no quantile function; pass an explicit domain"
        )
    hi = np.asarray(m.quantile(1.0 - 1e-7), dtype=float)
    return None, hi


def _default_nodes(d):
    return {1: 4001, 2: 801}.get(d, 301)


def _power_sub_integral(g, upper, p, nodes, name, lower=None):
    """Integral of g over an orthant box after the substitution x_j = u_j^p.

    g receives points x of shape (..., d); the p u^(p-1) Jacobian is
    applied here. With ``lower=None`` the box starts at a tiny cutoff and
    a cutoff-sensitivity check flags origin divergence; with an explicit
    per-axis ``lower`` the box starts there and no check is performed.
    """
    u_hi = np.asarray(upper, dtype=float) ** (1.0 / p)

    def _eval(u_lo):
        axes = [np.linspace(lo, uh, nodes) for lo, uh in zip(u_lo, u_hi)]
        u = grid_points(axes)
        x = u**p
        jac = np.prod(p * u ** (p - 1.0), axis=-1)
        vals = g(x) * jac
        if not np.all(np.isfinite(vals)):
            raise DivergentIntegralError(
                f"{name}: non-finite integrand near the origin"
            )
        return trapezoid_nd(vals, axes)

    if lower is not None:
        return _eval(np.asarray(lower, dtype=float) ** (1.0 / p))

    # Origin-divergence test: near the origin face the integrand behaves
    # like a per-axis power u_j^a; the integral diverges iff a <= -1 on
    # some axis. Estimate a from function values at a halved cutoff,
    # holding the other axes at mid-domain.
    cut = 1e-6 * np.min(u_hi)
    d = len(u_hi)
    mid = 0.5 * u_hi

    def _w(j, uj):
        u = mid.copy()
        u[j] = uj
        x = u**p
        jac = np.prod(p * u ** (p - 1.0))
        return float(np.asarray(g(x[None, :])).ravel()[0]) * jac

    for j in range(d):
        w_cut, w_half = _w(j, cut), _w(j, 0.5 * cut)
        if w_cut <= 0.0 or w_half <= 0.0:
            continue
        a = np.log2(w_half / w_cut) / np.log2(0.5)
        if a <= -0.999:
            raise DivergentIntegralError(
                f"{name} diverges near the origin face of the domain "
                "(reference density too heavy at origin; a Gamma(k>=3) "
                "reference keeps it finite)"
            )
    return _eval(np.full(len(u_hi), 0.25 * cut))


def _curvature_sq(m):
    def g(x):
        h = np.asarray(m.hess_diag(x))
        return np.sum(x * h, axis=-1) ** 2
    return g


def density_bandwidth(m, tau, n, domain=None, nodes=None):
    """Reference rule for the density estimate.

    C = [ (tau+1) * int prod_j (x_j^(-1/2)/(2 sqrt(pi))) f dx
          / int (sum_j x_j f_jj)^2 dx ]^(2/(5+tau)),  e = 2/(5+tau).
    """
    tau = int(tau)
    if tau != m.dim - 1:
        raise ValueError(f"tau={tau} inconsistent with model dimension {m.dim}")
    d = m.dim
    lower, upper = _default_box(m, domain)
    nodes = nodes or _default_nodes(d)

    def num_integrand(x):
        # x^(-1/2) weights cancel against the sqrt-substitution Jacobian:
        # fold them analytically by dividing out prod sqrt(x)
        return np.asarray(m.pdf(x)) / _TWO_SQRT_PI**d / np.prod(
            np.sqrt(x), axis=-1
        )

    num = _power_sub_integral(num_integrand, upper, 2.0, nodes,
                              "density-rule numerator", lower=lower)
    den = _power_sub_integral(_curvature_sq(m), upper, 2.0, nodes,
                              "density-rule denominator", lower=lower)
    e = 2.0 / (5.0 + tau)
    C = ((tau + 1.0) * num / den) ** e
    return BandwidthRule(
        kind="DensityRef", C=C, e=e,
        metadata={"numerator": num, "denominator": den, "tau": tau, "n": n},
    )


def derivative_bandwidth(m, tau, n, domain=None, nodes=None):
    """Reference rule for the derivative estimate (last coordinate).

    C = [ (tau+3)/(2^tau pi^((tau+1)/2))
          * int (f/x_n) prod_j x_j^(-1/2) dx
          / int (f/(3 x_n^2) + (1/x_n) sum_i x_i f_ii)^2 dx ]^(2/(tau+7)),
    e = 2/(tau+7). References too heavy at the origin (for example a
    unit exponential) make the numerator diverge and are rejected.
    """
    tau = int(tau)
    if tau != m.dim - 1:
        raise ValueError(f"tau={tau} inconsistent with model dimension {m.dim}")
    d = m.dim
    lower, upper = _default_box(m, domain)
    nodes = nodes or _default_nodes(d)

    def num_integrand(x):
        return (
            np.asarray(m.pdf(x))
            / x[..., -1]
            / np.prod(np.sqrt(x), axis=-1)
        )

    def den_integrand(x):
        xn = x[..., -1]
        h = np.asarray(m.hess_diag(x))
        return (
            np.asarray(m.pdf(x)) / (3.0 * xn**2)
            + np.sum(x * h, axis=-1) / xn
        ) ** 2

    num = _power_sub_integral(num_integrand, upper, 2.0, nodes,
                              "derivative-rule numerator", lower=lower)
    den = _power_sub_integral(den_integrand, upper, 2.0, nodes,
                              "derivative-rule denominator", lower=lower)
    e = 2.0 / (tau + 7.0)
    pref = (tau + 3.0) / (2.0**tau * np.pi ** ((tau + 1.0) / 2.0))
    C = (pref * num / den) ** e
    return BandwidthRule(
        kind="DerivativeRef", C=C, e=e,
        metadata={"numerator": num, "denominator": den, "tau": tau, "n": n},
    )


def mixing_bandwidth(m, tau, n, mp, domain=None, nodes=None):
    """Mixing-aware rule balancing bias^2 against the covariance bound.

    b = [ (tau+1)(upsilon+1) ((3u-1)/(2-2u))^(1-u)
          * int D(u, x) f^(1-u) dx / int (sum_j x_j f_jj)^2 dx
          * int alpha^u / n ]^(2/(tau(u+1)+u+5)).

    The exponent makes the bandwidth shrink with n and is pinned by
    first-order optimality of the bias^2-plus-covariance objective (the
    reciprocal power would make b grow). upsilon <= 1/3 is rejected (the bound's leading factor changes sign
    there and the fractional power leaves the reals).
    """
    tau = int(tau)
    if tau != m.dim - 1:
        raise ValueError(f"tau={tau} inconsistent with model dimension {m.dim}")
    u = mp.upsilon
    if u <= 1.0 / 3.0:
        raise ValueError(
            "mixing rule needs upsilon > 1/3: the (3*upsilon - 1) factor in "
            "the covariance bound changes sign at 1/3 and its fractional "
            "power is complex below it"
        )
    d = m.dim
    lower, upper = _default_box(m, domain)
    nodes = nodes or _default_nodes(d)

    d_coef = 2.0 * (2.0 * np.pi) ** (-(tau * (u + 1.0) + u - 1.0) / 2.0)

    def num_integrand(x):
        w = np.prod(x ** (-(u + 1.0) / 2.0), axis=-1)
        return d_coef * w * np.asarray(m.pdf(x)) ** (1.0 - u)

    # per-axis substitution x = v^p with p = 2/(1-u) flattens the
    # x^(-(u+1)/2) weight exactly
    p = 2.0 / (1.0 - u)
    num = _power_sub_integral(num_integrand, upper, p, nodes,
                              "mixing-rule numerator", lower=lower)
    den = _power_sub_integral(_curvature_sq(m), upper, 2.0, nodes,
                              "mixing-rule denominator", lower=lower)

    e = 2.0 / (tau * (u + 1.0) + u + 5.0)
    bracket = (
        (tau + 1.0)
        * (u + 1.0)
        * ((3.0 * u - 1.0) / (2.0 - 2.0 * u)) ** (1.0 - u)
        * num
        / den
        * mp.alpha_integral
    )
    return BandwidthRule(
        kind="MixingAware", C=bracket**e, e=e,
        metadata={
            "numerator": num, "denominator": den, "tau": tau, "n": n,
            "upsilon": u, "alpha_integral": mp.alpha_integral,
            "exponent_note": (
                "sign fixed by first-order optimality: b must shrink with n"
            ),
        },
    )


def _moment_matched_reference(data, min_shape):
    """Product-gamma reference with per-coordinate moment matching.

    Shapes are floored at the smallest value keeping the rule's
    functionals integrable at the origin, so heavy-at-zero data (for
    example near-exponential) still yields a usable reference instead of
    an integral that blows up.
    """
    mean = data.mean(axis=0)
    var = data.var(axis=0, ddof=1)
    if np.any(var <= 0.0):
        j = int(np.argmax(var <= 0.0))
        raise ValueError(f"degenerate data: column {j} has zero variance")
    shapes = mean**2 / var
    floored = np.maximum(shapes, min_shape)
    # keep the matched mean when the shape is floored
    scales = np.where(shapes < min_shape, mean / floored, var / mean)
    return product_gamma(floored, scales), bool(np.any(shapes < min_shape))


def _pilot_functionals(data, b, which, nodes=None):
    """Rule integrals re-estimated from a pilot gamma-kernel density.

    The pilot estimate is evaluated on an interior tensor grid
    [2b, empirical 0.999 quantile] and its second partials come from
    grid differences; the boundary strip is excluded because the pilot
    and the expansions are both unreliable there.
    """
    n, d = data.shape
    nodes = nodes or {1: 400, 2: 60}.get(d, 25)
    lo = 2.0 * b
    hi = np.quantile(data, 0.999, axis=0)
    if np.any(hi <= lo):
        raise ValueError("pilot grid collapsed: bandwidth too large for data")
    axes = [np.linspace(lo, hi[j], nodes) for j in range(d)]
    fld = estimator.field_on_grid(data, axes, np.full(d, b), kind="density")
    f = fld.values
    pts = grid_points(axes)

    hess = []
    for j in range(d):
        g1 = np.gradient(f, axes[j], axis=j)
        hess.append(np.gradient(g1, axes[j], axis=j))
    curv = sum(pts[..., j] * hess[j] for j in range(d))

    w = np.prod(pts**-0.5, axis=-1)
    if which == "density":
        num = trapezoid_nd(w / _TWO_SQRT_PI**d * f, axes)
        den = trapezoid_nd(curv**2, axes)
    else:
        xn = pts[..., -1]
        num = trapezoid_nd(w * f / xn, axes)
        den = trapezoid_nd((f / (3.0 * xn**2) + curv / xn) ** 2, axes)
    return num, den


def plug_in_bandwidth(sample, tau, which="density", stages=1):
    """Data-driven bandwidth rule.

    Stage 0 moment-matches a product-gamma reference per coordinate
    (shape = mean^2/var, scale = var/mean) and applies the closed-form
    rule. With ``stages=2`` a pilot gamma-kernel estimate built from the
    stage-0 bandwidth re-estimates the rule's integrals.
    """
    data = estimator.as_sample(sample)
    if data.shape[1] == 1 and tau > 0:
        data = estimator.fragment(data[:, 0], tau)
    n, d = data.shape
    if d != tau + 1:
        raise ValueError(f"sample dimension {d} inconsistent with tau={tau}")
    if n < 50:
        raise ValueError("plug-in rule needs at least 50 observations")
    if stages not in (1, 2):
        raise ValueError("stages must be 1 or 2")
    if which not in ("density", "derivative"):
        raise ValueError("which must be 'density' or 'derivative'")

    # smallest gamma shapes with finite rule integrals: the density
    # denominator needs k > 3/2, the derivative denominator k > 5/2
    min_shape = 1.6 if which == "density" else 2.6
    ref, floored = _moment_matched_reference(data, min_shape)
    if which == "density":
        rule = density_bandwidth(ref, tau, n)
        kind = "DensityPlugIn"
    else:
        rule = derivative_bandwidth(ref, tau, n)
        kind = "DerivativePlugIn"
    rule = BandwidthRule(kind=kind, C=rule.C, e=rule.e,
                         metadata=dict(rule.metadata, stage=0,
                                       shape_floored=floored))
    if stages == 1:
        return rule

    b0 = rule.bandwidth(n)
    num, den = _pilot_functionals(data, b0, which)
    if which == "density":
        C = ((tau + 1.0) * num / den) ** rule.e
    else:
        pref = (tau + 3.0) / (2.0**tau * np.pi ** ((tau + 1.0) / 2.0))
        C = (pref * num / den) ** rule.e
    return BandwidthRule(
        kind=kind, C=C, e=rule.e,
        metadata={"numerator": num, "denominator": den, "tau": tau,
                  "stage": 1, "pilot_bandwidth": b0},
    )
