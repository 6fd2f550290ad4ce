"""End-to-end acceptance criteria.

Each test prints a single machine-greppable line

    ACCEPTANCE <k> <PASS|FAIL> <detail>

with capture disabled, so the full run leaves one line per criterion in
the log regardless of verbosity. The Monte Carlo criteria use fixed
seeds; runtimes are asserted where the criterion includes one.
"""

import itertools
import time

import numpy as np
import pytest

from gammakde import bandwidth, simulate, theory, validation
from gammakde.cli import main as cli_main
from gammakde.estimator import density_at, field_on_grid
from gammakde.kernel import kernel_eval
from gammakde.models import GammaMarginal, product_exponential, product_gamma

MC_SEED = 2024
RATE_SEED = 424242
WORKERS = 4


@pytest.fixture
def report(capsys):
    def _emit(num, ok, detail):
        line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _emit


def _timed(check):
    t0 = time.perf_counter()
    _name, ok, detail = check()
    return ok, detail, time.perf_counter() - t0


def test_01_kernel_normalization(report):
    ok, detail, elapsed = _timed(validation._check_kernel_normalization)
    report(1, ok and elapsed < 1.0, f"{detail}, {elapsed:.2f}s")


def test_02_gradient_consistency(report):
    ok, detail, elapsed = _timed(validation._check_gradient_consistency)
    report(2, ok and elapsed < 1.0, f"{detail}, {elapsed:.2f}s")


def test_03_brute_force_equivalence(report):
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=3))
    worst = 0.0
    for d in (1, 2, 3):
        data = rng.gamma(2.0, size=(200, d))
        b = np.full(d, 0.15)
        for _ in range(5):
            x = rng.uniform(0.1, 3.0, size=d)
            naive = np.mean([
                np.prod([kernel_eval(row[j], x[j], b[j]) for j in range(d)])
                for row in data
            ])
            got = density_at(data, x, b)
            worst = max(worst, abs(got - naive) / max(abs(naive), 1e-300))
        axes = [np.linspace(0.2, 2.0, 3) for _ in range(d)]
        fld = field_on_grid(data, axes, b, kind="density")
        for coords, value in zip(itertools.product(*fld.axes),
                                 fld.values.ravel()):
            naive = np.mean([
                np.prod([kernel_eval(row[j], coords[j], b[j])
                         for j in range(d)])
                for row in data
            ])
            worst = max(worst, abs(value - naive) / max(abs(naive), 1e-300))
    elapsed = time.perf_counter() - t0
    report(3, worst < 1e-12 and elapsed < 5.0,
            f"worst relative deviation {worst:.2e}, {elapsed:.2f}s")


def test_04_bandwidth_constants(report):
    ok, detail, elapsed = _timed(validation._check_bandwidth_constants)
    report(4, ok and elapsed < 5.0, f"{detail}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def density_point_run():
    spec = simulate.MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.0)
    cfg = simulate.ExperimentConfig(
        process=spec, n_grid=[100_000], replicates=200, tau=0,
        seed=MC_SEED, which="density", bandwidth=0.05, workers=WORKERS,
    )
    return simulate.mc_point_stats(cfg, [1.0])[0]


def test_05_density_bias_law(density_point_run, report):
    s = density_point_run
    # (b/2) x e^{-x} at x = 1, b = 0.05
    ratio = s.bias / (0.025 * np.exp(-1.0))
    report(5, 0.7 <= ratio <= 1.3,
            f"bias ratio {ratio:.3f} (empirical {s.bias:.3e})")


def test_06_density_variance_law(density_point_run, report):
    s = density_point_run
    m = product_exponential(1.0, d=1)
    var_th = theory.var_density(m, [1.0], s.b, s.n).value
    ratio = s.variance / var_th
    report(6, 0.85 <= ratio <= 1.15,
            f"variance ratio {ratio:.3f} (empirical {s.variance:.3e})")


def test_07_derivative_laws(report):
    spec = simulate.MixingProcessSpec(GammaMarginal(3.0, 1.0), phi=0.0)
    cfg = simulate.ExperimentConfig(
        process=spec, n_grid=[100_000], replicates=200, tau=0,
        seed=MC_SEED, which="derivative", bandwidth=0.1, workers=WORKERS,
    )
    s = simulate.mc_point_stats(cfg, [1.0])[0]
    m = product_gamma([3.0])
    bias_th = theory.bias_derivative(m, [1.0], 0.1).value
    var_th = theory.var_derivative(m, [1.0], 0.1, s.n).value
    rb = s.bias / bias_th
    rv = s.variance / var_th
    report(7, 0.7 <= rb <= 1.3 and 0.85 <= rv <= 1.15,
            f"bias ratio {rb:.3f}, variance ratio {rv:.3f}")


RATE_GRID = [250, 500, 1000, 2000, 4000]


def test_08_density_rate(report):
    m = product_exponential(1.0, d=1)
    rule = bandwidth.density_bandwidth(m, RATE_GRID[0])
    spec = simulate.MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.0)
    cfg = simulate.ExperimentConfig(
        process=spec, n_grid=RATE_GRID, replicates=100, tau=0,
        seed=RATE_SEED, which="density", bandwidth=rule, workers=WORKERS,
    )
    slope, se = simulate.rate_fit(simulate.mc_mise(cfg))
    report(8, abs(slope + 0.8) < 0.15,
            f"MISE slope {slope:.3f} (theory -0.8, se {se:.3f})")


def test_09_derivative_rate(report):
    m = product_gamma([3.0])
    rule = bandwidth.derivative_bandwidth(m, RATE_GRID[0])
    spec = simulate.MixingProcessSpec(GammaMarginal(3.0, 1.0), phi=0.0)
    cfg = simulate.ExperimentConfig(
        process=spec, n_grid=RATE_GRID, replicates=100, tau=0,
        seed=RATE_SEED, which="derivative", bandwidth=rule, workers=WORKERS,
    )
    slope, se = simulate.rate_fit(simulate.mc_mise(cfg))
    report(9, abs(slope + 4.0 / 7.0) < 0.15,
            f"MISE slope {slope:.3f} (theory {-4/7:.3f}, se {se:.3f})")


def test_10_mixing_rate(report):
    m = product_exponential(1.0, d=1)
    rule = bandwidth.density_bandwidth(m, RATE_GRID[0])
    spec = simulate.MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.5)
    cfg = simulate.ExperimentConfig(
        process=spec, n_grid=RATE_GRID, replicates=100, tau=0,
        seed=RATE_SEED, which="density", bandwidth=rule, workers=WORKERS,
    )
    slope, se = simulate.rate_fit(simulate.mc_mise(cfg))
    report(10, abs(slope + 0.8) < 0.2,
            f"mixing MISE slope {slope:.3f} (theory -0.8, se {se:.3f})")


def test_11_covariance_order(report):
    _name, ok, detail = validation._check_covariance_order()
    report(11, ok, detail)


def test_12_determinism(tmp_path, report):
    t0 = time.perf_counter()
    outputs = []
    for w in (1, 2, 8):
        out = tmp_path / f"sim_w{w}.csv"
        rc = cli_main([
            "simulate", "--seed", "99", "--n-grid", "100,200,400",
            "--replicates", "10", "--b", "0.15",
            "--workers", str(w), "--output", str(out),
        ])
        assert rc == 0
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] == outputs[2] and elapsed < 60.0
    report(12, ok, f"byte-identical across 1/2/8 workers, {elapsed:.1f}s")
