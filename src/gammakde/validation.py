"""Self-contained validation checks behind the ``validate`` CLI command.

Each check returns (name, passed, detail). The analytic checks are fast;
the Monte Carlo checks are sized for roughly a minute of desk time and
use fixed seeds.
"""

import numpy as np

from . import bandwidth, estimator, kernel, simulate, theory
from .models import GammaMarginal, product_exponential, product_gamma

__all__ = ["analytic_checks", "monte_carlo_checks", "run_all"]


def _check_kernel_normalization():
    # imported here, so that only the validate command loads scipy.integrate
    from scipy.integrate import quad

    worst = 0.0
    for b in (0.01, 0.1, 0.5):
        for x in (0.0, 0.5 * b, b, 2.0 * b, 1.0, 5.0):
            upper = x + 40.0 * b + 40.0 * np.sqrt(max(x, b) * b)
            total = quad(kernel.kernel_eval, 0.0, upper, args=(x, b),
                         limit=200, points=[x] if 0 < x < upper else None)[0]
            worst = max(worst, abs(total - 1.0))
    return ("kernel-normalization", worst < 1e-8,
            f"max |mass-1| = {worst:.2e}")


def _check_gradient_consistency():
    rng = np.random.Generator(np.random.Philox(key=2))
    data = rng.gamma(2.0, size=(150, 1))
    worst = 0.0
    for _ in range(100):
        b = 10.0 ** rng.uniform(-2.0, -0.3)
        x = rng.uniform(2.5 * b, 5.0)
        t = rng.uniform(0.2, 3.0)
        h = 1e-6 * max(x, 1.0)
        fd = (kernel.kernel_eval(t, x + h, b)
              - kernel.kernel_eval(t, x - h, b)) / (2 * h)
        if abs(fd) > 1e-12:
            worst = max(worst,
                        abs(kernel.kernel_grad_x(t, x, b) - fd) / abs(fd))
        fd2 = (estimator.density_at(data, [x + h], b)
               - estimator.density_at(data, [x - h], b)) / (2 * h)
        got = estimator.density_partial_at(data, [x], b, axis=0)
        if abs(fd2) > 1e-12:
            worst = max(worst, abs(got - fd2) / abs(fd2))
    return ("gradient-consistency", worst < 1e-5,
            f"worst relative error {worst:.2e}")


def _check_bandwidth_constants():
    dens = bandwidth.density_bandwidth(product_exponential(1.0, d=1), 1000)
    deriv = bandwidth.derivative_bandwidth(product_gamma([3.0]), 1000)
    err_d = abs(dens.C - 2.0 ** 0.4)
    err_r = abs(deriv.C - (108.0 / 35.0) ** (2.0 / 7.0))
    return ("bandwidth-constants", err_d < 1e-3 and err_r < 1e-3,
            f"|dC|={err_d:.2e}, |rC|={err_r:.2e}")


def _check_covariance_order():
    m = product_exponential(1.0, d=1)
    mp = theory.MixingProfile(upsilon=0.5, alpha_integral=1.0,
                              alpha_sum=1.0, M=1.0)
    ratios = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        b = n ** (-0.4)
        i1, i2 = theory.cov_split_density(m, [1.0], b, n, mp)
        lead = theory.var_density(m, [1.0], b, n).components["leading"]
        ratios.append((i1 + i2) / lead)
    ok = ratios[0] > ratios[1] > ratios[2]
    return ("covariance-order", ok,
            "ratios " + ", ".join(f"{r:.3e}" for r in ratios))


def analytic_checks():
    return [
        _check_kernel_normalization(),
        _check_gradient_consistency(),
        _check_bandwidth_constants(),
        _check_covariance_order(),
    ]


def _check_bias_variance_ratio():
    # the full variance expansion (v1 and v2 included) is the comparator,
    # so a wrong sign anywhere in the expansion shows up in the ratio
    n, b = 5000, 0.1
    spec = simulate.MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.0)
    cfg = simulate.ExperimentConfig(
        process=spec, n_grid=[n], replicates=300, tau=0,
        seed=12345, which="density", bandwidth=b,
    )
    stats = simulate.mc_point_stats(cfg, [1.0])[0]
    m = product_exponential(1.0, d=1)
    bias_th = theory.bias_density(m, [1.0], b).value
    var_th = theory.var_density(m, [1.0], b, n).value
    rb = stats.bias / bias_th
    rv = stats.variance / var_th
    ok = 0.7 <= rb <= 1.3 and 0.75 <= rv <= 1.25
    return ("bias-variance-ratio", ok,
            f"bias ratio {rb:.3f}, variance ratio {rv:.3f}")


def _check_density_slope():
    m = product_exponential(1.0, d=1)
    rule = bandwidth.density_bandwidth(m, 1000)
    spec = simulate.MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.0)
    cfg = simulate.ExperimentConfig(
        process=spec, n_grid=[250, 500, 1000, 2000], replicates=40,
        tau=0, seed=999, which="density", bandwidth=rule,
    )
    res = simulate.mc_mise(cfg)
    slope, _se = simulate.rate_fit(res)
    ok = abs(slope + 0.8) < 0.25
    return ("density-mise-slope", ok, f"slope {slope:.3f} (theory -0.8)")


def monte_carlo_checks():
    return [_check_bias_variance_ratio(), _check_density_slope()]


def run_all(quick=False):
    checks = analytic_checks()
    if not quick:
        checks += monte_carlo_checks()
    return checks
