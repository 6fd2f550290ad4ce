"""MISE-optimal bandwidth rules: b(n) = C * n^(-e).

Closed-form reference rules for the density (e = 2/(5+tau)) and the
derivative (e = 2/(tau+7)) estimators, a mixing-aware variant built on
the covariance bound, and a data-driven plug-in with a moment-matched
gamma reference and an optional pilot stage. Every rule reads the lag
width as tau = d - 1: the model rules from the model's dimension, the
plug-in from its sample's.

Each constant is C = [prefactor * int V dx / int B dx]^e: a variance
functional V over a squared-bias functional B on the orthant. Both
integrands are written once, in ``_rule_integrands``, as functions of
the density f and its curvature sum_j x_j f_jj; the reference rules
feed it an analytic model, and the pilot stage a kernel estimate with
its grid second differences. ``_rule_constant`` turns the two integrals
into (C, e) for both.

The reference integrals carry per-axis x^(-1/2) weights, so each axis
is integrated under the substitution x = u^2 (or a higher power for the
mixing numerator), which removes the origin singularity exactly for
integrable references and exposes genuinely divergent ones.

The integrands are formed on an open grid: one coordinate array per
axis, broadcast against the others. A product reference evaluates each
marginal once per axis instead of once per grid node, and any other
model is evaluated on the stacked points; both give the same bits. The
grid is integrated in slabs of axis 0, so memory stays at one slab.
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import estimator
from .models import product_gamma
from .quadrature import trapezoid_nd
from .theory import _TWO_SQRT_PI, _curvature_sum, _mixing_weight

__all__ = [
    "BandwidthRule",
    "DivergentIntegralError",
    "density_bandwidth",
    "derivative_bandwidth",
    "mixing_bandwidth",
    "plug_in_bandwidth",
]


# trapezoid nodes per axis of the reference-rule grids, by dimension
_RULE_NODES = {1: 4001, 2: 801, 3: 301}
# grid nodes integrated at once: a slab of axis 0 holds about this many
_SLAB_ELEMS = 1 << 21


class DivergentIntegralError(ValueError):
    """A reference-rule integral diverges near the origin."""


def _check_n(n):
    if n < 1:
        raise ValueError(f"sample size n must be >= 1, got {n}")


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
        _check_n(n)
        return self.C * float(n) ** (-self.e)

    def serialize(self, n=None):
        lines = [f"kind={self.kind}", f"C={self.C:.16e}", f"e={self.e:.16e}"]
        if n is not None:
            lines.append(f"b({n})={self.bandwidth(n):.16e}")
        lines += [f"{k}={v}" for k, v in self.metadata.items()]
        return "\n".join(lines)


def _power_sub_integrals(m, integrands, p, names):
    """Integrals over model m's box after the substitution x_j = u_j^p.

    ``integrands(x)`` maps an open grid x, one coordinate array per axis
    that broadcasts against the others, to one array per name; the
    p u^(p-1) Jacobian is applied here. The box runs from a tiny cutoff
    to the per-axis quantile leaving out 1e-7 of the mass, and first a
    cutoff-sensitivity check flags each integrand that diverges at the
    origin. The grid is taken in slabs of axis 0 of about _SLAB_ELEMS
    nodes: each slab is integrated over its other axes, then the row
    integrals over axis 0, which is the iterated trapezoid rule of the
    whole grid, bit for bit. The grid has 301 nodes per axis at d = 3, so
    d >= 4 (8e9 nodes) is refused before anything is built.
    """
    if m.dim > 3:
        raise ValueError("rule integrals support at most 3 dimensions "
                         f"(tau <= 2), got d={m.dim}")
    if m.quantile is None:
        raise ValueError("model has no quantile function to bound the "
                         "rule integrals")
    u_hi = np.asarray(m.quantile(1.0 - 1e-7), dtype=float) ** (1.0 / p)
    d = len(u_hi)

    # Origin-divergence test: near the origin face an integrand behaves
    # like a per-axis power u_j^a; its integral diverges iff a <= -1 on
    # some axis. Estimate a from function values at a halved cutoff,
    # holding the other axes at mid-domain.
    cut = 1e-6 * np.min(u_hi)
    mid = 0.5 * u_hi

    def _w(j, uj):
        u = mid.copy()
        u[j] = uj
        jac = np.prod(p * u ** (p - 1.0))
        return [float(np.ravel(v)[0]) * jac
                for v in integrands(list((u ** p)[:, None]))]

    probes = [(_w(j, cut), _w(j, 0.5 * cut)) for j in range(d)]
    for i, name in enumerate(names):
        for w_cut, w_half in probes:
            if w_cut[i] <= 0.0 or w_half[i] <= 0.0:
                continue
            if np.log2(w_half[i] / w_cut[i]) / np.log2(0.5) <= -0.999:
                raise DivergentIntegralError(
                    f"{name} diverges near the origin face of the domain "
                    "(reference density too heavy at origin; a Gamma(k>=3) "
                    "reference keeps it finite)"
                )

    nodes = _RULE_NODES[d]
    axes = [np.linspace(0.25 * cut, uh, nodes) for uh in u_hi]
    # the Jacobian is an outer product of per-axis factors, and the grid
    # is held neither in u nor in x: only a slab's Jacobian and
    # integrands take memory of the grid's order
    jacs = [p * a ** (p - 1.0) for a in axes]
    xs = [a**p for a in axes]
    rows = max(1, _SLAB_ELEMS // nodes ** (d - 1))
    out = [np.empty(nodes) for _ in names]
    for lo in range(0, nodes, rows):
        slab = slice(lo, lo + rows)
        jac = reduce(np.multiply.outer, [jacs[0][slab]] + jacs[1:])
        values = integrands(np.ix_(xs[0][slab], *xs[1:]))
        for name, vals, acc in zip(names, values, out):
            vals = vals * jac
            if not np.all(np.isfinite(vals)):
                raise DivergentIntegralError(
                    f"{name}: non-finite integrand near the origin"
                )
            for a in reversed(axes[1:]):
                vals = np.trapezoid(vals, a, axis=-1)
            acc[slab] = vals
    return [trapezoid_nd(acc, axes[:1]) for acc in out]


def _density_terms(m, x, curvature=True):
    """(f, sum_j x_j f_jj) of model m on the open grid x.

    A product model evaluates each marginal once on its own axis and
    forms the products by broadcasting, in the order of the stacked
    evaluation (products from axis 0 up, the curvature summed from axis
    0 up), so both give the same bits. Any other model is evaluated on
    the stacked points. The curvature is None unless asked for.
    """
    if m.marginals is None:
        pts = np.stack(np.broadcast_arrays(*x), axis=-1)
        f = np.asarray(m.pdf(pts))
        return f, _curvature_sum(m, pts) if curvature else None
    g = [mg.pdf(xj) for mg, xj in zip(m.marginals, x)]
    f = reduce(np.multiply, g)
    if not curvature:
        return f, None
    g2 = [mg.d2(xj) for mg, xj in zip(m.marginals, x)]
    curv = reduce(np.add, [
        xj * reduce(np.multiply, g[:j] + [g2[j]] + g[j + 1:])
        for j, xj in enumerate(x)
    ])
    return f, curv


def _rule_integrands(which, x, f, curv):
    """Numerator and denominator integrands of the density or derivative
    rule on the open grid x (one broadcastable coordinate array per
    axis), from the density f and curv = sum_j x_j f_jj.

    density:    f prod_j x_j^(-1/2) / (2 sqrt(pi))^d  and  curv^2;
    derivative: f prod_j x_j^(-1/2) / x_n  and  (f/(3 x_n^2) + curv/x_n)^2.
    """
    root = reduce(np.multiply, [np.sqrt(xj) for xj in x])
    if which == "density":
        return f / _TWO_SQRT_PI ** len(x) / root, curv**2
    xn = x[-1]
    return f / xn / root, (f / (3.0 * xn**2) + curv / xn) ** 2


def _check_integrals(*named):
    """Refuse a rule unless each (name, integral) pair is finite and > 0:
    at an extreme scale, or for a pilot on a nearly constant sample, an
    integral can underflow to 0 or overflow.
    """
    for name, value in named:
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} is {value:.6g}; the rule needs a "
                             "finite positive integral")


def _rule_constant(which, tau, num, den):
    """(C, e) of the density or derivative rule from its two integrals."""
    _check_integrals((f"{which}-rule numerator", num),
                     (f"{which}-rule denominator", den))
    if which == "density":
        e = 2.0 / (5.0 + tau)
        pref = tau + 1.0
    else:
        e = 2.0 / (tau + 7.0)
        pref = (tau + 3.0) / (2.0**tau * np.pi ** ((tau + 1.0) / 2.0))
    return (pref * num / den) ** e, e


def _reference_integrals(m, which):
    """(numerator, denominator) of a rule for an analytic model."""
    def integrands(x):
        return _rule_integrands(which, x, *_density_terms(m, x))
    return _power_sub_integrals(
        m, integrands, 2.0,
        [f"{which}-rule numerator", f"{which}-rule denominator"],
    )


def _reference_rule(m, n, which, kind):
    _check_n(n)
    tau = m.dim - 1
    num, den = _reference_integrals(m, which)
    C, e = _rule_constant(which, tau, num, den)
    return BandwidthRule(
        kind=kind, C=C, e=e,
        metadata={"numerator": num, "denominator": den, "tau": tau, "n": n},
    )


def density_bandwidth(m, n):
    """Reference rule for the density estimate.

    C = [ (tau+1) * int prod_j (x_j^(-1/2)/(2 sqrt(pi))) f dx
          / int (sum_j x_j f_jj)^2 dx ]^(2/(5+tau)),  e = 2/(5+tau).
    """
    return _reference_rule(m, n, "density", "DensityRef")


def derivative_bandwidth(m, n):
    """Reference rule for the derivative estimate (last coordinate).

    C = [ (tau+3)/(2^tau pi^((tau+1)/2))
          * int (f/x_n) prod_j x_j^(-1/2) dx
          / int (f/(3 x_n^2) + (1/x_n) sum_i x_i f_ii)^2 dx ]^(2/(tau+7)),
    e = 2/(tau+7). References too heavy at the origin (for example a
    unit exponential) make the numerator diverge and are rejected.
    """
    return _reference_rule(m, n, "derivative", "DerivativeRef")


def mixing_bandwidth(m, n, mp):
    """Mixing-aware rule balancing bias^2 against the covariance bound.

    b = [ (tau+1)(upsilon+1) ((3u-1)/(2-2u))^(1-u)
          * int D(u, x) f^(1-u) dx / int (sum_j x_j f_jj)^2 dx
          * int alpha^u / n ]^(2/(tau(u+1)+u+5)).

    The exponent makes the bandwidth shrink with n and is pinned by
    first-order optimality of the bias^2-plus-covariance objective (the
    reciprocal power would make b grow). upsilon <= 1/3 is rejected (the
    bound's leading factor changes sign there and the fractional power
    leaves the reals). The denominator is the density rule's.
    """
    _check_n(n)
    tau = m.dim - 1
    u = mp.upsilon
    if u <= 1.0 / 3.0:
        raise ValueError(
            "mixing rule needs upsilon > 1/3: the (3*upsilon - 1) factor in "
            "the covariance bound changes sign at 1/3 and its fractional "
            "power is complex below it"
        )

    def integrands(x):
        f, _ = _density_terms(m, x, curvature=False)
        return [_mixing_weight(x, u) * f ** (1.0 - u)]

    # per-axis substitution x = v^p with p = 2/(1-u) flattens the
    # x^(-(u+1)/2) weight exactly
    [num] = _power_sub_integrals(m, integrands, 2.0 / (1.0 - u),
                                 ["mixing-rule numerator"])
    den = _reference_integrals(m, "density")[1]
    _check_integrals(("mixing-rule numerator", num),
                     ("density-rule denominator", den))

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


def _pilot_functionals(data, b, which):
    """Rule integrals re-estimated from a pilot gamma-kernel density.

    The pilot estimate is evaluated on an interior tensor grid
    [2b, empirical 0.999 quantile] and its second partials come from
    grid differences; the boundary strip is excluded because the pilot
    and the expansions are both unreliable there.
    """
    d = data.shape[1]
    nodes = {1: 400, 2: 60}.get(d, 25)
    lo = 2.0 * b
    hi = np.quantile(data, 0.999, axis=0)
    if np.any(hi <= lo):
        raise ValueError("pilot grid collapsed: bandwidth too large for data")
    axes = [np.linspace(lo, hi[j], nodes) for j in range(d)]
    f = estimator.field_on_grid(data, axes, np.full(d, b),
                                kind="density").values
    x = np.ix_(*axes)
    curv = sum(
        x[j] * np.gradient(np.gradient(f, axes[j], axis=j), axes[j], axis=j)
        for j in range(d)
    )
    return [trapezoid_nd(v, axes)
            for v in _rule_integrands(which, x, f, curv)]


def plug_in_bandwidth(sample, which="density", stages=1):
    """Data-driven bandwidth rule for an (n, d) sample, with tau = d - 1.

    Stage 0 moment-matches a product-gamma reference per coordinate
    (shape = mean^2/var, scale = var/mean) and applies the closed-form
    rule. With ``stages=2`` a pilot gamma-kernel estimate built from the
    stage-0 bandwidth re-estimates the rule's integrals. Cut a series
    into lag fragments with ``estimator.fragment`` before the call.
    """
    data = estimator.as_sample(sample)
    n, d = data.shape
    tau = d - 1
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
        rule, kind = density_bandwidth(ref, n), "DensityPlugIn"
    else:
        rule, kind = derivative_bandwidth(ref, n), "DerivativePlugIn"
    rule = BandwidthRule(kind=kind, C=rule.C, e=rule.e,
                         metadata=dict(rule.metadata, stage=0,
                                       shape_floored=floored))
    if stages == 1:
        return rule

    b0 = rule.bandwidth(n)
    num, den = _pilot_functionals(data, b0, which)
    C, e = _rule_constant(which, tau, num, den)
    return BandwidthRule(
        kind=kind, C=C, e=e,
        metadata={"numerator": num, "denominator": den, "tau": tau,
                  "stage": 1, "pilot_bandwidth": b0},
    )
