"""Simulation-harness tests: marginal exactness, dependence structure,
determinism across worker counts, and rate-fit recovery."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import gammainccinv, gammaincinv, ndtr, ndtri
from scipy.stats import kstest, pearsonr

from gammakde import estimator, simulate
from gammakde.models import _BLOCK, GammaMarginal
from gammakde.quadrature import trapezoid_nd
from gammakde.simulate import (
    ExperimentConfig,
    ExperimentResult,
    MixingProcessSpec,
    export_result,
    gen_series,
    mc_mise,
    mc_point_stats,
    rate_fit,
    truth_model,
)

EXP_SPEC = MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.0)
AR_SPEC = MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.5)

# `gammakde simulate` for a tau=1 density and a tau=2 derivative study at
# 1, 2 and 8 workers; argv[1] is the output directory
SIMULATE_LAGS = """
import sys
from gammakde.cli import main
for name, extra in (
        ("tau1-density", ["--tau", "1"]),
        ("tau2-derivative", ["--tau", "2", "--which", "derivative",
                             "--marginal", "gamma:3.0,1.0"])):
    for w in (1, 2, 8):
        out = f"{sys.argv[1]}/{name}-w{w}.csv"
        assert main(["simulate", "--seed", "21", "--n-grid", "100,200,400",
                     "--replicates", "4", "--b", "0.3", "--phi", "0.5",
                     "--workers", str(w), "--output", out] + extra) == 0
"""


class TestGenSeries:
    def test_deterministic(self):
        a = gen_series(AR_SPEC, 500, seed=42)
        b = gen_series(AR_SPEC, 500, seed=42)
        np.testing.assert_array_equal(a, b)
        c = gen_series(AR_SPEC, 500, seed=43)
        assert not np.array_equal(a, c)

    def test_matches_tail_inverse_of_latent_chain(self):
        # the same latent AR(1) as gen_series, mapped through the inverse
        # CDF solved on the smaller tail
        phi = 0.5
        spec = MixingProcessSpec(GammaMarginal(3.0, 1.0), phi=phi)
        eps = np.random.Generator(np.random.Philox(key=17)).standard_normal(
            20_000)
        w = eps * np.sqrt(1.0 - phi * phi)
        w[0] = eps[0]
        z = lfilter([1.0], [1.0, -phi], w)
        ref = np.where(z <= 0, gammaincinv(3.0, ndtr(z)),
                       gammainccinv(3.0, ndtr(-z)))
        np.testing.assert_allclose(gen_series(spec, 20_000, seed=17), ref,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("phi", [0.0, 0.5])
    @pytest.mark.parametrize("m", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 5])
    def test_blocks_match_one_pass(self, phi, m):
        # one Philox draw of all m normals, one lfilter pass and one
        # from_normal call (pinned to its one-pass values in test_models)
        spec = MixingProcessSpec(GammaMarginal(3.0, 1.0), phi=phi)
        eps = np.random.Generator(np.random.Philox(key=29)).standard_normal(m)
        w = eps * np.sqrt(1.0 - phi * phi)
        w[0] = eps[0]
        z = lfilter([1.0], [1.0, -phi], w)
        np.testing.assert_array_equal(gen_series(spec, m, seed=29),
                                      spec.marginal.from_normal(z))

    def test_iid_marginal_is_exact(self):
        x = gen_series(EXP_SPEC, 20_000, seed=7)
        stat = kstest(x, "expon").pvalue
        assert stat > 0.01

    def test_dependent_marginal_is_exact(self):
        # the copula construction leaves the marginal untouched
        x = gen_series(AR_SPEC, 20_000, seed=7)
        assert kstest(x, "expon").pvalue > 0.01

    def test_gamma_marginal(self):
        spec = MixingProcessSpec(GammaMarginal(3.0, 2.0), phi=0.3)
        x = gen_series(spec, 20_000, seed=11)
        assert kstest(x, "gamma", args=(3.0, 0.0, 2.0)).pvalue > 0.01

    def test_latent_autocorrelation(self):
        # mapping back through the marginal recovers the latent AR(1),
        # whose lag-1 autocorrelation is phi
        x = gen_series(AR_SPEC, 50_000, seed=3)
        z = ndtri(1.0 - np.exp(-x))  # Exp(1) CDF then normal quantile
        r = pearsonr(z[:-1], z[1:]).statistic
        assert abs(r - 0.5) < 0.03

    def test_iid_has_no_autocorrelation(self):
        x = gen_series(EXP_SPEC, 50_000, seed=3)
        z = ndtri(1.0 - np.exp(-x))
        assert abs(pearsonr(z[:-1], z[1:]).statistic) < 0.03

    def test_nonnegative(self):
        assert np.all(gen_series(AR_SPEC, 1000, seed=1) >= 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gen_series(AR_SPEC, 0, seed=1)
        with pytest.raises(ValueError):
            MixingProcessSpec(GammaMarginal(1.0), phi=1.0)


class TestTruthModel:
    def test_iid_is_product(self):
        m = truth_model(EXP_SPEC, tau=1)
        assert m.pdf(np.array([[1.0, 2.0]]))[0] == pytest.approx(
            np.exp(-3.0), rel=1e-12)

    def test_copula_joint_integrates_to_marginal(self):
        # integrating the lag-1 joint over the second coordinate must
        # return the first marginal
        m = truth_model(AR_SPEC, tau=1)
        y = np.linspace(1e-4, 30.0, 4001)
        for x0 in (0.5, 1.0, 2.0):
            pts = np.column_stack([np.full_like(y, x0), y])
            marg = np.trapezoid(m.pdf(pts), y)
            assert marg == pytest.approx(np.exp(-x0), rel=1e-3)

    def test_copula_mass_is_one(self):
        # substitute x = u^2 per axis: the joint concentrates near the
        # origin corner and an even grid misses mass there
        m = truth_model(AR_SPEC, tau=1)
        u = np.linspace(1e-4, 5.0, 1501)
        x = u**2
        vals = m.pdf(np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1))
        jac = np.outer(2.0 * u, 2.0 * u)
        total = np.trapezoid(np.trapezoid(vals * jac, u, axis=1), u)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_rejects_wide_fragments(self):
        with pytest.raises(ValueError):
            truth_model(AR_SPEC, tau=3)


class TestMcPointStats:
    def test_bias_and_variance_track_sample_size(self):
        cfg = ExperimentConfig(
            process=EXP_SPEC, n_grid=[200, 2000], replicates=100,
            tau=0, seed=101, which="density", bandwidth=0.1,
        )
        s_small, s_large = mc_point_stats(cfg, [1.0])
        assert s_large.variance < s_small.variance
        assert s_small.truth == pytest.approx(np.exp(-1.0))
        # bias at fixed b does not shrink with n
        assert abs(s_large.bias) == pytest.approx(abs(s_small.bias),
                                                  abs=3 * s_small.se_mean)

    def test_rejects_boundary_point(self, monkeypatch):
        cfg = ExperimentConfig(
            process=EXP_SPEC, n_grid=[100], replicates=5, tau=0,
            seed=1, bandwidth=0.3,
        )

        def no_replicate(*_args):
            raise AssertionError("a replicate ran")

        # the point is refused before any replicate runs
        monkeypatch.setattr(simulate, "gen_series", no_replicate)
        for x in ([0.1], [-1.0], [np.nan], [np.inf], [1.0, 1.0], []):
            with pytest.raises(ValueError, match="interior"):
                mc_point_stats(cfg, x)


class TestMcMise:
    @staticmethod
    def _config(**kw):
        base = dict(process=EXP_SPEC, n_grid=[100, 200, 400], replicates=8,
                    tau=0, seed=77, which="density", bandwidth=0.15)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_identical_across_worker_counts(self):
        results = [mc_mise(self._config(workers=w)) for w in (1, 2, 8)]
        for other in results[1:]:
            assert other.records == results[0].records
            assert other.summary == results[0].summary

    def test_lag_outputs_identical_across_workers_and_blas_threads(
            self, tmp_path):
        # the d >= 2 contraction must not depend on the BLAS thread count
        src = str(Path(__file__).resolve().parents[1] / "src")
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / threads
            out.mkdir()
            subprocess.run([sys.executable, "-c", SIMULATE_LAGS, str(out)],
                           env=env, check=True, capture_output=True)
        for name in ("tau1-density", "tau2-derivative"):
            runs = sorted(tmp_path.glob(f"*/{name}-w*.csv"))
            assert len(runs) == 6
            first = runs[0].read_bytes()
            assert b"# excluded" not in first
            assert all(run.read_bytes() == first for run in runs[1:])

    def test_replicates_share_the_estimator_pool(self, pool_sizes):
        # one pool of `workers` threads per n; the fields in it stay on
        # their worker, and at one worker the replicates open no pool
        mc_mise(self._config(workers=3))
        assert pool_sizes == [3, 3, 3]
        pool_sizes.clear()
        mc_mise(self._config(workers=1))
        assert pool_sizes == []

    def test_node_blocks_at_one_worker_keep_the_bytes(self, monkeypatch,
                                                      pool_sizes, tmp_path):
        # at one worker the replicates run on the main thread, where every
        # 1-d field is cut into 2 node blocks; at 2 workers none is
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(estimator, "_SPLIT_ELEMS", 0)
        written = []
        for workers in (1, 2):
            res = mc_mise(self._config(
                process=AR_SPEC, n_grid=[60, 80, 120], replicates=3, tau=0,
                bandwidth=0.3, workers=workers))
            rate_fit(res)
            export_result(res, tmp_path / "out.csv")
            written.append((tmp_path / "out.csv").read_bytes())
        assert pool_sizes == [2] * 9 + [2] * 3
        assert written[0] == written[1]

    def test_mise_decreases_with_n(self):
        cfg = self._config(n_grid=[100, 400, 1600], replicates=12)
        res = mc_mise(cfg)
        mises = [m for _n, m, _se in res.summary]
        assert mises[0] > mises[2]

    def test_non_finite_ise_excluded_and_counted(self, monkeypatch,
                                                 tmp_path):
        # every third quadrature fails: replicates 0,3,6 | 1,4,7 | 2,5
        calls = itertools.count()
        real = simulate.trapezoid_nd
        monkeypatch.setattr(
            simulate, "trapezoid_nd",
            lambda v, a: np.nan if next(calls) % 3 == 0 else real(v, a))
        res = mc_mise(self._config())
        assert res.excluded == {100: 3, 200: 3, 400: 2}
        assert [r for n, r, _ise in res.records if n == 100] == [1, 2, 4, 5, 7]
        assert len(res.records) == 16
        for n, mise, _se in res.summary:
            kept = [ise for m, _r, ise in res.records if m == n]
            assert np.all(np.isfinite(kept))
            assert mise == np.mean(kept)
        # the export counts them after the summary block, by sample size
        p = tmp_path / "out.csv"
        export_result(res, p)
        lines = p.read_text().splitlines()
        end = lines.index("# summary: n,mise,stderr") + 1 + len(res.summary)
        assert lines[end:] == ["# excluded: n=100 replicates=3",
                               "# excluded: n=200 replicates=3",
                               "# excluded: n=400 replicates=2"]

    def test_export_round_trip(self, tmp_path):
        res = mc_mise(self._config())
        rate_fit(res)
        p = tmp_path / "out.csv"
        export_result(res, p)
        text = p.read_text()
        assert text.startswith("# n,replicate,ise\n")
        assert "# summary: n,mise,stderr\n" in text
        assert "# fit: slope,stderr\n" in text
        n_records = sum(1 for line in text.splitlines()
                        if line and not line.startswith("#"))
        # records + summary rows + fit row
        assert n_records == len(res.records) + len(res.summary) + 1


class TestReplicateGrids:
    """Each sample size's grid is checked and its node terms built once,
    on the calling thread, for all of its replicates."""

    @staticmethod
    def _config(**kw):
        base = dict(process=AR_SPEC, n_grid=[60, 90, 150], replicates=8,
                    tau=0, seed=4321, which="density", bandwidth=0.4,
                    workers=2)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_node_terms_once_per_sample_size(self, monkeypatch):
        built = []
        node_terms = estimator.node_terms

        def counted(x, *args):
            built.append(x.size)
            return node_terms(x, *args)

        monkeypatch.setattr(estimator, "node_terms", counted)
        cfg = self._config(tau=1, which="derivative")
        mc_mise(cfg)
        assert built == [60, 60] * 3
        built.clear()
        mc_point_stats(cfg, [1.5, 1.5])
        assert built == [1, 1] * 3

    @pytest.mark.parametrize("tau", [0, 1])
    @pytest.mark.parametrize("which", ["density", "derivative"])
    def test_replicates_are_the_public_steps(self, tau, which):
        # every ISE record and the point statistics, bit for bit, from
        # replicates rebuilt with the public functions
        cfg = self._config(tau=tau, which=which, replicates=4)
        reps, b = cfg.replicates, np.full(tau + 1, cfg.bandwidth)

        def fields(axes):
            for n_index, n in enumerate(cfg.n_grid):
                for r in range(reps):
                    series = gen_series(cfg.process, n + tau,
                                        cfg.seed ^ (n_index * reps + r))
                    yield n, r, estimator.field_on_grid(
                        estimator.fragment(series, tau), axes, b,
                        kind=which).values

        axes = simulate._ise_axes(cfg)
        truth = simulate._true_values(cfg, axes)
        with np.errstate(all="ignore"):
            want = [(n, r, trapezoid_nd((f - truth) ** 2, axes))
                    for n, r, f in fields(axes)]
        got = mc_mise(cfg).records
        assert len(got) == len(want) == 3 * reps
        assert [(n, r, float(ise).hex()) for n, r, ise in got] == [
            (n, r, float(ise).hex()) for n, r, ise in want]

        x = [1.5] * (tau + 1)
        values = np.array([f.item() for _n, _r, f in
                            fields([np.array([xj]) for xj in x])])
        for stats, vals in zip(mc_point_stats(cfg, x),
                               values.reshape(3, reps)):
            assert stats.mean.hex() == float(vals.mean()).hex()
            assert stats.variance.hex() == float(vals.var(ddof=1)).hex()

    def test_refused_grid_generates_no_series(self, monkeypatch):
        # x/b overflows at the nodes past 1.8e8, which node_terms refuses
        def no_series(*_args):
            raise AssertionError("a series was generated")

        monkeypatch.setattr(simulate, "gen_series", no_series)
        cfg = self._config(
            process=MixingProcessSpec(GammaMarginal(3.0, 1e8)),
            bandwidth=1e-300)
        with pytest.raises(ValueError, match="x/b overflows"):
            mc_mise(cfg)
        with pytest.raises(ValueError, match="x/b overflows"):
            mc_point_stats(cfg, [1e9])


class TestRateFit:
    def test_recovers_exact_power_law(self):
        res = ExperimentResult(which="density")
        for n in (100, 1000, 10_000, 100_000):
            res.summary.append((n, 3.0 * n ** (-0.8), 0.0))
        slope, se = rate_fit(res)
        assert slope == pytest.approx(-0.8, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-10)
        assert res.slope == slope

    def test_matches_textbook_least_squares(self):
        # slope sxy/sxx and se sqrt(s2/sxx), s2 on k - 2 degrees of freedom
        res = ExperimentResult(which="density")
        ns = np.array([100, 200, 400, 800, 1600])
        mise = 3.0 * ns ** (-0.8) * np.exp([0.05, -0.02, 0.04, -0.06, 0.01])
        res.summary = [(n, m, 0.0) for n, m in zip(ns, mise)]
        x, y = np.log(ns), np.log(mise)
        sxx = np.sum((x - x.mean()) ** 2)
        slope = np.sum((x - x.mean()) * (y - y.mean())) / sxx
        resid = y - y.mean() - slope * (x - x.mean())
        se = np.sqrt(resid @ resid / (len(ns) - 2) / sxx)
        got = rate_fit(res)
        assert got == pytest.approx((slope, se), rel=1e-12)

    def test_needs_three_sizes(self):
        res = ExperimentResult(which="density")
        res.summary = [(100, 1.0, 0.0), (200, 0.5, 0.0)]
        with pytest.raises(ValueError, match="3 distinct"):
            rate_fit(res)


class TestConfigValidation:
    def test_n_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentConfig(process=EXP_SPEC, n_grid=[200, 100],
                             replicates=5, tau=0, seed=1, bandwidth=0.1)

    def test_needs_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            ExperimentConfig(process=EXP_SPEC, n_grid=[100], replicates=5,
                             tau=0, seed=1)

    def test_needs_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentConfig(process=EXP_SPEC, n_grid=[100], replicates=1,
                             tau=0, seed=1, bandwidth=0.1)

    def test_needs_a_worker(self):
        with pytest.raises(ValueError, match="1 worker"):
            ExperimentConfig(process=EXP_SPEC, n_grid=[100], replicates=2,
                             tau=0, seed=1, bandwidth=0.2, workers=0)

    def test_needs_known_which(self):
        with pytest.raises(ValueError, match="which must be 'density' or "
                           "'derivative'"):
            ExperimentConfig(process=EXP_SPEC, n_grid=[100], replicates=2,
                             tau=0, seed=1, bandwidth=0.2, which="mixing")

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**200])
    def test_seed_is_a_philox_key(self, seed):
        # refused here, not by numpy inside the first replicate
        with pytest.raises(ValueError, match=r"seed must be >= 0 and "
                           rf"< 2\*\*128, got {seed}$"):
            ExperimentConfig(process=EXP_SPEC, n_grid=[100], replicates=2,
                             tau=0, seed=seed, bandwidth=0.2)

    def test_largest_seed_runs(self):
        cfg = ExperimentConfig(process=EXP_SPEC, n_grid=[20], replicates=2,
                               tau=0, seed=2**128 - 1, bandwidth=0.2)
        assert np.isfinite(mc_point_stats(cfg, [1.0])[0].mean)

    def test_rule_bandwidth_resolves_per_n(self):
        from gammakde.bandwidth import BandwidthRule
        rule = BandwidthRule(kind="X", C=1.0, e=0.4)
        cfg = ExperimentConfig(process=EXP_SPEC, n_grid=[100], replicates=5,
                               tau=0, seed=1, bandwidth=rule)
        assert cfg.bandwidth_at(100) == pytest.approx(100 ** -0.4)
        assert cfg.bandwidth_at(10_000) == pytest.approx(10_000 ** -0.4)
