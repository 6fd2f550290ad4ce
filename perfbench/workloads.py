"""The benchmark's workloads: inputs from the seed, one job, and its gate.

Every input is generated here from the workload seed with numpy's Philox
and scipy, never with ``gammakde.simulate``, so a change to the program
cannot change the inputs. Each job runs the commands a user would run,
through ``gammakde.cli.main`` (and the library's Monte Carlo API for
``mc-study``), and each gate checks the outputs against references this
file computes independently of the program.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
from scipy import integrate, special, stats
from scipy.signal import lfilter

from gammakde import cli, simulate
from gammakde.models import GammaMarginal

GAMMA_SHAPE = 3.0
PHI = 0.5
SAMPLED_NODES = 8

# The repo's own tolerances: 1e-12 relative for estimates against a brute
# force (tests/test_estimator.py, tests/test_cli.py), 1e-10 absolute for
# its hand-rolled digamma (gammakde.special.digamma, tests/test_special.py),
# which enters every derivative term through L = ln t - ln b - psi(rho).
REL_TOL = 1e-12
DIGAMMA_ABS_TOL = 1e-10
RULE_REL_TOL = 1e-6


class JobError(RuntimeError):
    """A command of a job returned a nonzero status."""


def _rng(seed, stream):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, stream])))


def _write_column(path, values):
    text = "".join(f"{v!r}\n" for v in values.tolist())
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _ar1_gamma_series(rng, m):
    """Gaussian-copula AR(1) series with a Gamma(3) marginal."""
    eps = rng.standard_normal(m)
    w = eps * np.sqrt(1.0 - PHI * PHI)
    w[0] = eps[0]
    z = lfilter([1.0], [1.0, -PHI], w)
    return stats.gamma.ppf(special.ndtr(z), GAMMA_SHAPE)


def _cli(argv):
    """Run one gammakde command and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise JobError(f"gammakde {argv[0]} exited with {status}")
    return buf.getvalue()


def _printed(text, key):
    for line in text.splitlines():
        for item in line.split():
            name, _, value = item.partition("=")
            if name == key:
                return float(value)
    raise ValueError(f"output has no '{key}='")


def _grid(spec):
    return [np.linspace(float(lo), float(hi), int(num))
            for lo, hi, num in (part.split(":") for part in spec.split(";"))]


def _fragments(series, tau):
    m = series.size - tau
    return np.column_stack([series[k:k + m] for k in range(tau + 1)])


# -- brute-force references ---------------------------------------------------

def _shape(x, b):
    return x / b if x >= 2.0 * b else (x / (2.0 * b)) ** 2 + 1.0


def _kernel_terms(data, x, b):
    logk = sum(stats.gamma.logpdf(data[:, j], _shape(x[j], b), scale=b)
               for j in range(data.shape[1]))
    return np.exp(logk)


def reference_density(data, x, b):
    """Brute-force density estimate and its absolute tolerance."""
    ref = _kernel_terms(data, x, b).mean()
    return ref, REL_TOL * ref


def reference_derivative(data, x, b, axis):
    """Brute-force partial derivative along ``axis`` and its tolerance.

    The terms have both signs, so the relative tolerance applies to their
    mean absolute value; the program's digamma error bound adds
    DIGAMMA_ABS_TOL times the weight of each term.
    """
    k = _kernel_terms(data, x, b)
    xa = x[axis]
    pref = 1.0 / b if xa >= 2.0 * b else xa / (2.0 * b * b)
    terms = pref * (np.log(data[:, axis]) - np.log(b)
                    - special.digamma(_shape(xa, b))) * k
    tol = REL_TOL * np.abs(terms).mean() + DIGAMMA_ABS_TOL * pref * k.mean()
    return terms.mean(), tol


def reference_density_rule_C(shape, d, tau):
    """Density reference-rule constant for a product Gamma(shape, 1) model.

    The rule integrals of a product model are products of 1-d integrals of
    the marginal g, evaluated here with adaptive quadrature on [0, inf):
    numerator (int g/(2 sqrt(pi x)))^d and denominator
    d A B^(d-1) + d (d-1) D^2 B^(d-2), with A = int x^2 g''^2,
    B = int g^2 and D = int x g g''.
    """
    def g(x):
        return stats.gamma.pdf(x, shape)

    def g2(x):
        u = (shape - 1.0) / x - 1.0
        return g(x) * (u * u - (shape - 1.0) / (x * x))

    def quad(f):
        return integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                              limit=400)[0]

    num = quad(lambda x: g(x) / (2.0 * np.sqrt(np.pi * x))) ** d
    A = quad(lambda x: (x * g2(x)) ** 2)
    B = quad(lambda x: g(x) ** 2)
    D = quad(lambda x: x * g(x) * g2(x))
    den = d * A * B ** (d - 1) + d * (d - 1) * D * D * B ** (d - 2)
    return ((tau + 1.0) * num / den) ** (2.0 / (5.0 + tau))


def check_field(path, data, b, grid, rng, which="density", axis=None):
    """Compare sampled nodes of a written field with the brute force."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    shape = tuple(a.size for a in grid)
    if len(lines) != int(np.prod(shape)):
        return [f"{path}: {len(lines)} lines, expected {np.prod(shape)}"]
    picks = {0, len(lines) - 1}
    picks.update(rng.choice(len(lines), SAMPLED_NODES - 2, replace=False)
                 .tolist())
    errors = []
    for i in sorted(picks):
        cells = [float(c) for c in lines[i].split(",")]
        idx = np.unravel_index(i, shape)
        x = np.array([grid[j][idx[j]] for j in range(len(grid))])
        if not np.array_equal(cells[:-1], x):
            errors.append(f"{path}:{i + 1}: node {cells[:-1]} is not {x}")
            continue
        if which == "density":
            ref, tol = reference_density(data, x, b)
        else:
            ref, tol = reference_derivative(data, x, b, axis)
        if not abs(cells[-1] - ref) <= tol:
            errors.append(f"{path}:{i + 1}: {cells[-1]!r} vs brute force "
                          f"{float(ref)!r}")
    return errors


# -- workloads ----------------------------------------------------------------

class Workload:
    """Inputs in ``work``; ``job()`` runs once, ``check()`` gates its result."""

    THREADS = 1  # threads that share a job's work

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.inputs = {}

    def path(self, name):
        return os.path.join(self.work, name)

    def job(self):
        raise NotImplementedError

    def check(self, outcome):
        raise NotImplementedError

    def gate_rng(self):
        return _rng(self.seed, 99)


class EstimateFile1d(Workload):
    """One estimate on a large iid file: load and a tall kernel matrix."""

    N = 250_000
    B = 0.1
    GRID = "0:12:200"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.data = _rng(seed, 1).gamma(GAMMA_SHAPE, size=self.N)
        self.inputs["iid_gamma3.txt"] = _write_column(
            self.path("iid_gamma3.txt"), self.data)
        self.data = self.data[:, None]

    def job(self):
        out = self.path("field_1d.csv")
        _cli(["estimate", "--input", self.path("iid_gamma3.txt"),
              "--output", out, "--b", str(self.B), "--grid", self.GRID])
        return [out]

    def check(self, outcome):
        return check_field(outcome[0], self.data, self.B, _grid(self.GRID),
                           self.gate_rng())


class LagSeries(Workload):
    """Bandwidth, a 2-d plug-in derivative and a 3-d density on one series."""

    M = 3002
    GRID_2D = "0:10:120;0:10:120"
    GRID_3D = ";".join(["0.2:8:25"] * 3)
    B_3D = 0.4

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.series = _ar1_gamma_series(_rng(seed, 2), self.M)
        self.inputs["ar1_gamma3.txt"] = _write_column(
            self.path("ar1_gamma3.txt"), self.series)
        self.rule_C = reference_density_rule_C(GAMMA_SHAPE, 2, 1)

    def job(self):
        series = self.path("ar1_gamma3.txt")
        rule = _cli(["bandwidth", "--which", "density", "--tau", "1",
                     "--n", "3000", "--model", "gamma:3.0,1.0"])
        out2 = self.path("deriv_2d.csv")
        est2 = _cli(["estimate", "--input", series, "--output", out2,
                     "--tau", "1", "--which", "derivative", "--rule",
                     "plugin", "--stages", "2", "--grid", self.GRID_2D])
        out3 = self.path("density_3d.csv")
        _cli(["estimate", "--input", series, "--output", out3, "--tau", "2",
              "--which", "density", "--b", str(self.B_3D),
              "--grid", self.GRID_3D])
        return [rule, est2, out2, out3]

    def check(self, outcome):
        rule, est2, out2, out3 = outcome
        errors = []
        C = _printed(rule, "C")
        if not abs(C - self.rule_C) <= RULE_REL_TOL * self.rule_C:
            errors.append(
                f"bandwidth C={C!r}, separable quad {float(self.rule_C)!r}")
        b = _printed(est2, "bandwidth")
        if not (np.isfinite(b) and b > 0.0):
            errors.append(f"plug-in bandwidth {b!r}")
            return errors
        rng = self.gate_rng()
        errors += check_field(out2, _fragments(self.series, 1), b,
                              _grid(self.GRID_2D), rng, "derivative", 1)
        errors += check_field(out3, _fragments(self.series, 2), self.B_3D,
                              _grid(self.GRID_3D), rng)
        return errors


class McStudy(Workload):
    """A rate-grid Monte Carlo run plus pointwise stats at a large n."""

    N_GRID = [250, 500, 1000, 2000, 4000]
    REPLICATES = 40
    POINT_N = 100_000
    POINT_X = 3.0
    POINT_B = 0.1
    WORKERS = 2
    THREADS = WORKERS

    def __init__(self, seed, work):
        super().__init__(seed, work)
        # Mixed through SeedSequence: the program's replicate streams are
        # seed ^ replicate, so nearby raw seeds would share replicate sets.
        words = np.random.SeedSequence([seed, 3]).generate_state(4, np.uint32)
        self.sim_seed = int(words[0]) << 31 | int(words[1]) >> 1
        self.point_seed = int(words[2]) << 31 | int(words[3]) >> 1

    def job(self):
        out = self.path("mc_rates.csv")
        _cli(["simulate", "--seed", str(self.sim_seed), "--output", out,
              "--n-grid", ",".join(map(str, self.N_GRID)),
              "--replicates", str(self.REPLICATES),
              "--marginal", "gamma:3.0,1.0", "--which", "derivative",
              "--phi", str(PHI), "--workers", str(self.WORKERS)])
        cfg = simulate.ExperimentConfig(
            process=simulate.MixingProcessSpec(
                GammaMarginal(GAMMA_SHAPE, 1.0), phi=PHI),
            n_grid=[self.POINT_N], replicates=self.REPLICATES, tau=0,
            seed=self.point_seed, which="density", bandwidth=self.POINT_B,
            workers=self.WORKERS)
        return [out, simulate.mc_point_stats(cfg, [self.POINT_X])]

    def check(self, outcome):
        out, point = outcome
        errors = []
        with open(out) as fh:
            lines = fh.read().splitlines()
        if any(line.startswith("# excluded") for line in lines):
            errors.append("excluded replicates reported")
        start = lines.index("# n,replicate,ise") + 1
        stop = lines.index("# summary: n,mise,stderr")
        records = [[float(c) for c in line.split(",")]
                   for line in lines[start:stop]]
        want = self.REPLICATES * len(self.N_GRID)
        if len(records) != want:
            errors.append(f"{len(records)} records, expected {want}")
        if not np.all(np.isfinite(records)):
            errors.append("non-finite ISE record")
        summary = [[float(c) for c in line.split(",")]
                   for line in lines[stop + 1:stop + 1 + len(self.N_GRID)]]
        if [int(row[0]) for row in summary] != self.N_GRID:
            errors.append("summary rows do not match the n grid")
        # MISE must fall with n: a negative fitted log-log slope, and no
        # step up larger than 3 standard errors. A strict step-by-step
        # decrease fails on correct code: 40 replicates give each MISE a
        # 6-12% standard error, and seed 305 rises 0.6 sigma at n = 2000.
        slope = float(lines[lines.index("# fit: slope,stderr") + 1]
                      .split(",")[0])
        if not slope < 0.0:
            errors.append(f"MISE rate slope {slope} is not negative")
        for (n0, m0, se0), (n1, m1, se1) in zip(summary, summary[1:]):
            if not m1 < m0 + 3.0 * np.hypot(se0, se1):
                errors.append(f"MISE rises from n={n0:g} to n={n1:g}: "
                              f"{m0!r} -> {m1!r}")

        truth = stats.gamma.pdf(self.POINT_X, GAMMA_SHAPE)
        if len(point) != 1:
            errors.append(f"{len(point)} point-stat rows, expected 1")
            return errors
        p = point[0]
        fields = [p.mean, p.truth, p.bias, p.variance, p.se_mean,
                  p.se_variance]
        if not np.all(np.isfinite(fields)):
            errors.append(f"non-finite point stats {p}")
        if not abs(p.truth - truth) <= REL_TOL * truth:
            errors.append(f"point truth {p.truth!r}, scipy {truth!r}")
        if (p.n, p.b) != (self.POINT_N, self.POINT_B) or not p.variance > 0:
            errors.append(f"unexpected point stats {p}")
        return errors


WORKLOADS = {
    "estimate-file-1d": EstimateFile1d,
    "lag-series": LagSeries,
    "mc-study": McStudy,
}
