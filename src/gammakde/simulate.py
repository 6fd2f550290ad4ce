"""Data generation and Monte Carlo validation of the estimator theory.

Dependent nonnegative series come from a Gaussian-copula AR(1): a
latent stationary N(0, 1) AR(1) chain z is mapped to the x with
F(x) = Phi(z) (``GammaMarginal.from_normal``). The marginals are exact,
and the chain is geometrically strong-mixing, so every power of the
mixing coefficient is integrable.

Replicate streams are counter-based (Philox), derived from the
experiment seed, and run on ``workers`` threads
(``estimator._thread_map``); a field or rule inside a replicate stays on
its thread. Results are bit-identical for any worker count.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import estimator
from .bandwidth import BandwidthRule
from .models import _BLOCK, GammaMarginal, from_pdf, product_gamma
from .quadrature import grid_points, tensor_axes, trapezoid_nd

__all__ = [
    "MixingProcessSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "PointStats",
    "gen_series",
    "truth_model",
    "mc_point_stats",
    "mc_mise",
    "rate_fit",
    "export_result",
]


@dataclass
class MixingProcessSpec:
    """Gaussian-copula AR(1) process with a nonnegative marginal.

    phi = 0 gives iid draws from the marginal.
    """

    marginal: GammaMarginal
    phi: float = 0.0

    def __post_init__(self):
        if not -1.0 < self.phi < 1.0:
            raise ValueError("AR(1) coefficient phi must lie in (-1, 1)")


@dataclass
class ExperimentConfig:
    process: MixingProcessSpec
    n_grid: list
    replicates: int
    tau: int
    seed: int
    which: str = "density"  # or "derivative"
    bandwidth: object = None  # float or BandwidthRule
    workers: int = 1

    def __post_init__(self):
        self.n_grid = [int(n) for n in self.n_grid]
        if any(b >= a for a, b in zip(self.n_grid[1:], self.n_grid[:-1])):
            raise ValueError("n_grid must be strictly increasing")
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.workers < 1:
            raise ValueError("need at least 1 worker")
        if self.which not in ("density", "derivative"):
            raise ValueError("which must be 'density' or 'derivative'")
        if self.bandwidth is None:
            raise ValueError("config needs a fixed bandwidth or a rule")

    def bandwidth_at(self, n):
        if isinstance(self.bandwidth, BandwidthRule):
            return self.bandwidth.bandwidth(n)
        return float(self.bandwidth)


@dataclass
class PointStats:
    n: int
    b: float
    mean: float
    truth: float
    bias: float
    variance: float
    se_mean: float
    se_variance: float
    se_unreliable: bool


@dataclass
class ExperimentResult:
    which: str
    records: list = field(default_factory=list)  # (n, replicate, ise)
    summary: list = field(default_factory=list)  # (n, mise, stderr)
    excluded: dict = field(default_factory=dict)  # n -> dropped replicates
    slope: float = None
    slope_se: float = None


def gen_series(spec, m, seed):
    """Length-m stationary series with exact marginals.

    Same seed gives bit-identical output; the latent chain starts in its
    stationary N(0, 1) law. The series is made in blocks of
    ``models._BLOCK`` values, with the same bits as one pass over all m.
    """
    if m < 1:
        raise ValueError("series length must be >= 1")
    # imported here, so that only series generation pays for scipy.signal
    # (BENCH_cold-start.json); imports take a lock, so pool threads are safe
    from scipy.signal import lfilter

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    phi = spec.phi
    innovation = np.sqrt(1.0 - phi * phi)
    out = np.empty(m)
    zi = np.zeros(1)
    for s in range(0, m, _BLOCK):
        eps = rng.standard_normal(min(_BLOCK, m - s))
        w = eps * innovation
        if s == 0:
            w[0] = eps[0]
        z, zi = lfilter([1.0], [1.0, -phi], w, zi=zi)
        out[s:s + _BLOCK] = spec.marginal.from_normal(z)
    return out


def truth_model(spec, tau):
    """DensityModel of the tau+1 dimensional joint law of the fragments.

    For tau = 0 (or phi = 0) this is the product of marginals; otherwise
    the Gaussian-copula joint density of consecutive lags, with numeric
    derivatives. Supported at desk scale for tau + 1 <= 3.
    """
    d = tau + 1
    if d > 3:
        raise ValueError("joint truth supported for fragment width <= 3")
    if spec.phi == 0.0 or tau == 0:
        return product_gamma([spec.marginal.shape] * d,
                             [spec.marginal.scale] * d)

    lags = np.arange(d)
    corr = spec.phi ** np.abs(lags[:, None] - lags[None, :])
    prec_minus_i = np.linalg.inv(corr) - np.eye(d)
    log_det = np.linalg.slogdet(corr)[1]
    marg = spec.marginal

    def pdf(x):
        x = np.asarray(x, dtype=float)
        u = np.clip(marg.cdf(x), 1e-14, 1.0 - 1e-14)
        z = ndtri(u)
        quad = np.einsum("...i,ij,...j->...", z, prec_minus_i, z)
        dens = np.exp(-0.5 * (log_det + quad))
        for j in range(d):
            dens = dens * marg.pdf(x[..., j])
        return dens

    return from_pdf(pdf, d, scale=marg.quantile(0.5),
                    quantile=lambda q: np.full(d, marg.quantile(q)))


def _replicate_seed(seed, global_rep):
    # per-replicate Philox key; XOR collides across seeds (seed 3 replicate
    # 1 is seed 2 replicate 0), a Known defect in ROADMAP.md
    return int(seed) ^ int(global_rep)


def _ise_axes(config):
    # one box for the whole n grid (interior at the widest bandwidth), so
    # per-n MISE values are comparable and the rate fit is meaningful
    d = config.tau + 1
    lo = 2.0 * max(config.bandwidth_at(n) for n in config.n_grid)
    hi = config.process.marginal.quantile(0.999)
    if hi <= lo:
        raise ValueError("evaluation domain collapsed: bandwidth too large")
    return tensor_axes([(lo, hi)] * d, {1: 200, 2: 60}.get(d, 25))


def _run_replicates(config, n_index, task):
    reps = config.replicates
    base = n_index * reps
    seeds = [_replicate_seed(config.seed, base + r) for r in range(reps)]
    return estimator._thread_map(task, seeds, config.workers)


def _true_values(config, axes):
    """The true density or derivative (along the last axis) on a grid."""
    truth = truth_model(config.process, config.tau)
    pts = grid_points(axes)
    if config.which == "density":
        return np.asarray(truth.pdf(pts))
    return np.asarray(truth.grad(pts))[..., -1]


def _replicate_runs(config, axes, reduce):
    """Per n: n, b and ``reduce`` of each replicate's field on ``axes``."""
    for n_index, n in enumerate(config.n_grid):
        b = config.bandwidth_at(n)
        bvec = np.full(config.tau + 1, b)

        def one(seed):
            series = gen_series(config.process, n + config.tau, seed)
            data = estimator.fragment(series, config.tau)
            return reduce(estimator.field_on_grid(
                data, axes, bvec, kind=config.which).values)

        yield n, b, _run_replicates(config, n_index, one)


def mc_point_stats(config, x):
    """Empirical bias and variance of the estimator at a point, per n.

    The point is evaluated as a one-node grid.
    """
    d = config.tau + 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b_max = max(config.bandwidth_at(n) for n in config.n_grid)
    if x.shape != (d,) or not np.all(np.isfinite(x) & (x >= 2.0 * b_max)):
        raise ValueError(f"x must be a finite interior point of dimension "
                         f"{d} (all coords >= 2b = {2 * b_max})")
    axes = [np.array([xj]) for xj in x]
    true_val = _true_values(config, axes).item()

    out = []
    for n, b, vals in _replicate_runs(config, axes, np.ndarray.item):
        vals = np.array(vals)
        r = len(vals)
        mean = float(vals.mean())
        var = float(vals.var(ddof=1))
        out.append(PointStats(
            n=n, b=b, mean=mean, truth=true_val, bias=mean - true_val,
            variance=var,
            se_mean=float(vals.std(ddof=1) / np.sqrt(r)),
            se_variance=float(var * np.sqrt(2.0 / (r - 1))),
            se_unreliable=r < 10,
        ))
    return out


def mc_mise(config):
    """Replicate ISE records and per-n MISE estimates.

    ISE is the tensor-trapezoid integral of (estimate - truth)^2 over the
    interior box [2b, q_0.999]^d. Replicates with non-finite quadrature
    are excluded and counted; an n with fewer than 2 replicates left has
    no standard error and is refused.
    """
    axes = _ise_axes(config)
    true_vals = _true_values(config, axes)

    # an ISE past the float range is excluded below, not warned about
    @np.errstate(all="ignore")
    def ise_of(values):
        return trapezoid_nd((values - true_vals) ** 2, axes)

    result = ExperimentResult(which=config.which)
    for n, _b, ises in _replicate_runs(config, axes, ise_of):
        rows = [(n, r, ise) for r, ise in enumerate(ises) if np.isfinite(ise)]
        result.records += rows
        if len(rows) < len(ises):
            result.excluded[n] = len(ises) - len(rows)
        if len(rows) < 2:
            raise ValueError(f"n={n}: {len(rows)} of {len(ises)} replicates "
                             "have a finite ISE; the MISE needs at least 2")
        kept = np.array([ise for _n, _r, ise in rows])
        result.summary.append((
            n,
            float(kept.mean()),
            float(kept.std(ddof=1) / np.sqrt(len(kept))),
        ))
    return result


def rate_fit(result):
    """OLS slope of log MISE against log n, with its standard error."""
    summary = [(n, m) for n, m, _se in result.summary]
    if len({n for n, _ in summary}) < 3:
        raise ValueError("rate fit needs at least 3 distinct sample sizes")
    for n, m in summary:
        if not (np.isfinite(m) and m > 0.0):
            raise ValueError(f"rate fit needs a finite positive MISE, "
                             f"got {m:.6g} at n={n}")
    logn, logm = np.log(summary).T
    # k >= 3 sizes: polyfit scales the covariance by k - 2 > 0 dof
    coef, cov = np.polyfit(logn, logm, 1, cov=True)
    result.slope, result.slope_se = float(coef[0]), float(np.sqrt(cov[0, 0]))
    return result.slope, result.slope_se


def export_result(result, path):
    """Delimited-text export: records, then summary and fit blocks."""
    with open(path, "w") as fh:
        fh.write("# n,replicate,ise\n")
        for n, r, ise in result.records:
            fh.write(f"{n},{r},{ise:.16e}\n")
        fh.write("# summary: n,mise,stderr\n")
        for n, m, se in result.summary:
            fh.write(f"{n},{m:.16e},{se:.16e}\n")
        for n, dropped in sorted(result.excluded.items()):
            fh.write(f"# excluded: n={n} replicates={dropped}\n")
        if result.slope is not None:
            fh.write("# fit: slope,stderr\n")
            fh.write(f"{result.slope:.16e},{result.slope_se:.16e}\n")
