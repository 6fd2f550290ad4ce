"""Command-line interface tests.

The estimate command is pinned to a committed golden file whose values
are independently re-derived here with a literal double loop over the
committed sample, so the pin guards the whole pipeline and not just
reproducibility.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gammakde import bandwidth, estimator, theory
from gammakde.cli import main
from gammakde.kernel import kernel_eval

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
MINI = DATA / "exp100.csv"
GOLDEN = DATA / "exp100_density_golden.csv"


def _lag_pairs(tmp_path):
    """The lag-1 fragments of ``MINI`` as a two-column file."""
    path = tmp_path / "pairs.csv"
    np.savetxt(path, estimator.fragment(np.loadtxt(MINI), 1), fmt="%.17g",
               delimiter=",")
    return path


class TestEstimate:
    def test_golden_file_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        rc = main([
            "estimate", "--input", str(MINI), "--output", str(out),
            "--b", "0.3", "--grid", "0.2:2.0:7",
        ])
        assert rc == 0
        assert out.read_bytes() == GOLDEN.read_bytes()
        text = capsys.readouterr().out
        assert "provenance=fixed" in text
        assert "wrote 7 nodes" in text

    def test_golden_file_byte_identical_with_node_blocks(self, tmp_path,
                                                         monkeypatch):
        # the 7 nodes cut into blocks of 2, 2 and 3, one thread each
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(estimator, "_SPLIT_ELEMS", 0)
        out = tmp_path / "field.csv"
        rc = main([
            "estimate", "--input", str(MINI), "--output", str(out),
            "--b", "0.3", "--grid", "0.2:2.0:7",
        ])
        assert rc == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_golden_values_match_brute_force(self):
        sample = np.loadtxt(MINI)
        rows = np.loadtxt(GOLDEN, delimiter=",")
        for x, value in rows:
            want = np.mean([kernel_eval(t, x, 0.3) for t in sample])
            assert value == pytest.approx(want, rel=1e-12)

    def test_derivative_output(self, tmp_path):
        out = tmp_path / "deriv.csv"
        rc = main([
            "estimate", "--input", str(MINI), "--output", str(out),
            "--which", "derivative", "--b", "0.3", "--grid", "0.5:1.5:3",
        ])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",")
        assert rows.shape == (3, 2)
        # the density is decreasing here, so the derivative is negative
        assert np.all(rows[:, 1] < 0.0)

    @pytest.mark.parametrize("which", ["density", "derivative"])
    def test_output_bytes_independent_of_chunk_size(self, tmp_path,
                                                    monkeypatch, which):
        rng = np.random.Generator(np.random.Philox(key=11))
        sample = tmp_path / "s.txt"
        np.savetxt(sample, rng.gamma(3.0, 1.0, size=5000), fmt="%.17g")
        argv = ["estimate", "--input", str(sample), "--which", which,
                "--b", "0.2", "--grid", "0:10:40"]
        one, many = tmp_path / "one.csv", tmp_path / "many.csv"
        assert main(argv + ["--output", str(one)]) == 0
        monkeypatch.setattr(estimator, "_CHUNK_ELEMS", 1)
        assert main(argv + ["--output", str(many)]) == 0
        assert one.read_bytes() == many.read_bytes()

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(tmp_path / "absent.csv"),
                  "--output", str(tmp_path / "f.csv"), "--b", "0.3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "gammakde estimate: error:" in err
        assert "absent.csv" in err
        assert "Traceback" not in err

    def test_negative_input_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "neg.csv"
        bad.write_text("1.0\n0.5\n-2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(bad),
                  "--output", str(tmp_path / "f.csv"), "--b", "0.3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "gammakde estimate: error:" in err
        assert "neg.csv:3: negative value in column 0" in err
        assert not (tmp_path / "f.csv").exists()

    def test_plugin_rule_resolves(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        rc = main([
            "estimate", "--input", str(MINI), "--output", str(out),
            "--rule", "plugin", "--grid", "0.2:2.0:5",
        ])
        assert rc == 0
        assert "rule DensityPlugIn" in capsys.readouterr().out

    def test_plugin_rule_on_lag_columns(self, tmp_path, capsys):
        # a two-column file at the default --tau 0 gets the rule and the
        # field that --tau 1 gets from the series its rows were cut from
        runs = []
        for source in (["--input", str(_lag_pairs(tmp_path))],
                       ["--input", str(MINI), "--tau", "1"]):
            out = tmp_path / f"field{len(runs)}.csv"
            assert main(["estimate", *source, "--output", str(out),
                         "--rule", "plugin",
                         "--grid", "0.2:2.0:3;0.2:2.0:3"]) == 0
            printed = capsys.readouterr().out.splitlines()[0]
            runs.append((printed, out.read_bytes()))
        assert "rule DensityPlugIn" in runs[0][0]
        assert runs[0] == runs[1]

    def test_plugin_rule_at_tau_3(self, tmp_path, capsys):
        # lag fragments of width 4 get a rule, and a field on a 3^4 grid
        out = tmp_path / "field.csv"
        assert main(["estimate", "--input", str(MINI), "--output", str(out),
                     "--rule", "plugin", "--tau", "3",
                     "--grid", ";".join(["0.5:2.0:3"] * 4)]) == 0
        assert "rule DensityPlugIn" in capsys.readouterr().out
        rows = np.loadtxt(out, delimiter=",", ndmin=2)
        assert rows.shape == (81, 5)
        assert np.all(np.isfinite(rows)) and np.all(rows[:, -1] > 0.0)

    def test_missing_bandwidth_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["estimate", "--input", str(MINI),
                  "--output", str(tmp_path / "x.csv")])

    def test_grid_dimension_mismatch_exits(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(MINI),
                  "--output", str(tmp_path / "x.csv"), "--b", "0.3",
                  "--grid", "0:1:5;0:1:5"])
        assert exc.value.code == 2
        assert "grid has 2 axes, data has dimension 1" in \
            capsys.readouterr().err


EST = "estimate --input {mini} --output {out}"
SIM = "simulate --output {out} --seed 1 --b 0.15"
BAD_INPUT = {
    "grid-missing-count": f"{EST} --b 0.3 --grid 0:1",
    "grid-decreasing": f"{EST} --b 0.3 --grid 1:0:5",
    "plugin-too-few-rows": "estimate --input {short} --output {out} "
                           "--rule plugin",
    # the grid is checked before the rule runs, which would refuse the
    # 3-row sample
    "plugin-grid-missing-count": "estimate --input {short} --output {out} "
                                 "--rule plugin --grid 0:1",
    "plugin-grid-axes": "estimate --input {short} --output {out} --tau 1 "
                        "--rule plugin --stages 2 --grid 0:10:120",
    "tau-too-long": "estimate --input {short} --output {out} --b 0.3 "
                    "--tau 5",
    "axis-out-of-range": f"{EST} --b 0.3 --which derivative --axis 3",
    "negative-bandwidth": f"{EST} --b -1",
    "divergent-rule": "bandwidth --which derivative --n 100 --model exp:1",
    "zero-rate-model": "bandwidth --which density --n 100 --model exp:0",
    "n-grid-decreasing": f"{SIM} --n-grid 100,50",
    "n-grid-zero": f"{SIM} --n-grid 0,100",
    # refused before the bandwidth rule would run
    "n-grid-decreasing-rule": "simulate --output {out} --seed 1 --tau 2 "
                              "--n-grid 100,50",
    "one-replicate": f"{SIM} --n-grid 100,200 --replicates 1",
    # refused before the bandwidth rule would run
    "one-replicate-rule": "simulate --output {out} --seed 1 --tau 2 "
                          "--n-grid 100,200 --replicates 1",
    # flags that would have no effect
    "tau-vs-columns": "estimate --input {pair} --output {out} --b 0.2 "
                      "--tau 3",
    "axis-without-derivative": f"{EST} --b 0.3 --axis 0",
    "stages-without-plugin": f"{EST} --b 0.3 --stages 2",
    "b-with-plugin": f"{EST} --b 0.3 --rule plugin",
    "stages-with-model": "bandwidth --which density --n 100 "
                         "--model gamma:3 --stages 2",
    "upsilon-with-data": "bandwidth --which density --n 100 "
                         "--model data:{mini} --upsilon 0.5 "
                         "--alpha-integral 2",
    "alpha-without-upsilon": "bandwidth --which density --n 100 "
                             "--model gamma:3 --alpha-integral 2",
    # the joint truth of lag fragments of width 4
    "simulate-rule-tau-3": "simulate --output {out} --seed 1 --tau 3 "
                           "--n-grid 100,200 --marginal gamma:3.0,1.0",
    # a pilot grid of 25^4 nodes
    "plugin-stages-2-tau-3": f"{EST} --rule plugin --stages 2 --tau 3",
    # a rule box past the float range: the quantile is 1e308 times 21.7
    "bandwidth-quantile-inf": "bandwidth --which density --n 1000 "
                              "--model gamma:3,1e308",
    # integer flags below their lower bound
    "n-zero": "bandwidth --which density --n 0 --model gamma:3",
    "n-negative": "bandwidth --which density --n -5 --model gamma:3",
    "estimate-negative-tau": f"{EST} --b 0.3 --tau -1",
    "bandwidth-negative-tau": "bandwidth --which density --tau -1 --n 100 "
                              "--model gamma:3",
    "simulate-negative-tau": f"{SIM} --n-grid 100,200 --tau -1",
    "workers-zero": f"{SIM} --n-grid 100,200 --workers 0",
    "workers-negative": f"{SIM} --n-grid 100,200 --workers -3",
    # past the 128-bit Philox key
    "seed-too-large": "simulate --output {out} --b 0.15 --n-grid 100,200 "
                      "--seed 340282366920938463463374607431768211456",
    # non-finite marginal parameters
    "simulate-gamma-nan": f"{SIM} --n-grid 100,200 --marginal gamma:nan,1",
    "simulate-exp-nan": f"{SIM} --n-grid 100,200 --marginal exp:nan",
    "bandwidth-gamma-inf": "bandwidth --which density --n 100 "
                           "--model gamma:3,inf",
    # a value past the scale
    "bandwidth-gamma-extra": "bandwidth --which density --n 1000 "
                             "--model gamma:3.0,1.0,7",
    "simulate-gamma-extra": f"{SIM} --n-grid 100,200 "
                            "--marginal gamma:3.0,1.0,7",
    # bandwidths that are not finite positive floats
    "simulate-b-nan": "simulate --output {out} --seed 1 --n-grid 100,200 "
                      "--b nan",
    "estimate-b-inf": f"{EST} --b inf",
    # x/b past the largest float at the nodes 5e307 and 1e308
    "shape-overflow": "estimate --input {short} --output {out} --b 0.1 "
                      "--grid 0:1e308:3",
    # x/b = 1e306 is finite, but its log kernel is inf - inf
    "estimate-not-finite": "estimate --input {short} --output {out} "
                           "--b 1e-300 --grid 1e6:1e6:1",
    "grid-overflow": f"{EST} --b 0.3 --grid=-1e308:1e308:3",
    # loadtxt reads inf as a float, so the line parser must name the line
    "input-inf": "estimate --input {inf} --output {out} --b 0.3",
    # a 1e15-node field (7.11 PiB): past any address space, so the
    # allocation is refused at once and no memory is touched
    "field-too-large": "estimate --input {short} --output {out} --tau 2 "
                       "--b 0.5 --grid 0:1:100000;0:1:100000;0:1:100000",
    # a rule integral that underflows to 0 at an extreme reference scale
    "derivative-rule-zero": "bandwidth --which derivative --n 1 "
                            "--model gamma:3,1e100",
    "density-rule-zero": "bandwidth --which density --n 1 "
                         "--model gamma:3,1e200",
    "mixing-rule-zero": "bandwidth --which density --n 1 "
                        "--model gamma:3,1e300 --upsilon 0.5 "
                        "--alpha-integral 1",
    "simulate-rule-zero": "simulate --output {out} --seed 1 "
                          "--n-grid 5,10,20 --replicates 2 "
                          "--marginal gamma:3,1e300",
    # a rule integrand that overflows over the whole box, not only near
    # the origin
    "derivative-rule-inf": "bandwidth --which derivative --tau 1 --n 1000 "
                           "--model gamma:3,1e-300",
    "mixing-rule-nan": "bandwidth --which density --tau 0 --n 1000 "
                       "--model gamma:3,1e-300 --upsilon 0.5 "
                       "--alpha-integral 2.0",
    # the pilot integrals of a sample with almost no spread are 0
    "plugin-pilot-zero": "estimate --input {flat} --output {out} "
                         "--rule plugin --stages 2",
    "bandwidth-pilot-zero": "bandwidth --which density --n 60 "
                            "--model data:{flat} --stages 2",
    # b0 from the moment-matched scale of a sample with one far outlier
    # exceeds half its 0.999 quantile, at either stage
    "plugin-pilot-collapsed": "estimate --input {spike} --output {out} "
                              "--rule plugin --stages 2",
    "bandwidth-pilot-collapsed": "bandwidth --which density --n 1000 "
                                 "--model data:{spike} --stages 2",
    "plugin-reference-too-wide": "estimate --input {spike} --output {out} "
                                 "--rule plugin",
    "bandwidth-reference-too-wide": "bandwidth --which density --n 1000 "
                                    "--model data:{spike}",
    # mixing integrals that are not finite, or 0
    "alpha-integral-inf": "bandwidth --which density --n 1000 "
                          "--model gamma:3.0,1.0 --upsilon 0.5 "
                          "--alpha-integral inf",
    "alpha-integral-nan": "bandwidth --which density --n 1000 "
                          "--model gamma:3.0,1.0 --upsilon 0.5 "
                          "--alpha-integral nan",
    "alpha-integral-zero": "bandwidth --which density --n 1000 "
                           "--model gamma:3.0,1.0 --upsilon 0.5 "
                           "--alpha-integral 0",
    # every ISE underflows to 0, so log MISE is -inf
    "simulate-ise-zero": "simulate --output {out} --seed 1 "
                         "--n-grid 5,10,20 --replicates 2 --b 1.9 "
                         "--marginal gamma:49,6e299",
    # every ISE is non-finite and excluded, so no MISE is left
    "simulate-ise-not-finite": "simulate --output {out} --seed 1 "
                               "--n-grid 5,10,20 --replicates 2 "
                               "--b 1e-300 --marginal gamma:0.05,1e-300",
}

_TOO_WIDE = ("column 0: the reference bandwidth b(10000) = 1.02799 is at "
             "least half the column's 0.999 quantile, 0.99905")

# integer lower bounds, sample-size grids, bandwidths and marginal
# parameters are checked while the arguments are parsed, so the error names
# the flag or the parameter rule, not whatever a rule, an integral or a
# reshape raises later
BAD_INPUT_MESSAGE = {
    "n-zero": "argument --n: must be >= 1, got 0",
    "n-negative": "argument --n: must be >= 1, got -5",
    "estimate-negative-tau": "argument --tau: must be >= 0, got -1",
    "bandwidth-negative-tau": "argument --tau: must be >= 0, got -1",
    "simulate-negative-tau": "argument --tau: must be >= 0, got -1",
    "workers-zero": "argument --workers: must be >= 1, got 0",
    "workers-negative": "argument --workers: must be >= 1, got -3",
    "seed-too-large": "seed must be >= 0 and < 2**128, got "
                      "340282366920938463463374607431768211456",
    "one-replicate": "argument --replicates: must be >= 2, got 1",
    "n-grid-decreasing": "argument --n-grid: sample sizes must be strictly "
                         "increasing, got 100,50",
    "n-grid-decreasing-rule": "argument --n-grid: sample sizes must be "
                              "strictly increasing, got 100,50",
    "n-grid-zero": "argument --n-grid: sample sizes must be >= 1, got 0,100",
    "one-replicate-rule": "argument --replicates: must be >= 2, got 1",
    "simulate-gamma-nan": "gamma shape and scale must be finite and positive",
    "simulate-exp-nan": "gamma shape and scale must be finite and positive",
    "bandwidth-gamma-inf": "gamma shape and scale must be finite and "
                           "positive",
    "bandwidth-gamma-extra": "bad marginal spec 'gamma:3.0,1.0,7': could "
                             "not convert string to float: '1.0,7'",
    "simulate-gamma-extra": "argument --marginal: bad marginal spec "
                            "'gamma:3.0,1.0,7': could not convert string to "
                            "float: '1.0,7'",
    "field-too-large": "Unable to allocate",
    "plugin-grid-missing-count": "bad --grid axis '0:1': expected lo:hi:num",
    "plugin-grid-axes": "grid has 1 axes, data has dimension 2",
    "simulate-b-nan": "argument --b: must be finite and > 0, got nan",
    "estimate-b-inf": "argument --b: must be finite and > 0, got inf",
    "shape-overflow": "x/b overflows",
    "estimate-not-finite": "the estimate is not finite at 1 of 1 nodes",
    "grid-overflow": "bad --grid axis '-1e308:1e308:3': nodes are not "
                     "finite",
    "input-inf": "inf.csv:3: non-finite value in column 0",
    "derivative-rule-zero": "derivative-rule denominator is 0",
    "density-rule-zero": "density-rule denominator is 0",
    "mixing-rule-zero": "mixing-rule numerator is 0",
    "simulate-rule-zero": "the rule needs a finite positive integral",
    "derivative-rule-inf": "derivative-rule numerator is inf",
    "mixing-rule-nan": "mixing-rule numerator is nan",
    "plugin-pilot-zero": "the rule needs a finite positive integral",
    "bandwidth-pilot-zero": "the rule needs a finite positive integral",
    "plugin-pilot-collapsed": _TOO_WIDE,
    "bandwidth-pilot-collapsed": _TOO_WIDE,
    "plugin-reference-too-wide": _TOO_WIDE,
    "bandwidth-reference-too-wide": _TOO_WIDE,
    "alpha-integral-inf": "alpha_integral must be finite and >= 0, got inf",
    "alpha-integral-nan": "alpha_integral must be finite and >= 0, got nan",
    "alpha-integral-zero": "mixing rule needs alpha_integral > 0",
    "simulate-ise-zero": "rate fit needs a finite positive MISE, got 0",
    "simulate-ise-not-finite": "n=5: 0 of 2 replicates have a finite ISE",
    "simulate-rule-tau-3": "joint truth supported for fragment width <= 3",
    "plugin-stages-2-tau-3": "the two-stage plug-in rule supports at most "
                             "3 dimensions (tau <= 2), got d=4",
    "bandwidth-quantile-inf": "the model's 1 - 1e-7 quantile on axis 0 is "
                              "inf; the rule integrals need a finite box",
}


@pytest.mark.parametrize("key", BAD_INPUT)
def test_bad_input_is_usage_error(tmp_path, capsys, key):
    _assert_usage_error(tmp_path, capsys, key)


@pytest.mark.parametrize("key", ["shape-overflow", "field-too-large"])
def test_bad_input_with_node_blocks(tmp_path, capsys, monkeypatch, key):
    # raised in a worker thread of the split 1-d field, and on the
    # calling thread of the 3-d one, which is not split
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(estimator, "_SPLIT_ELEMS", 0)
    err = _assert_usage_error(tmp_path, capsys, key)
    assert err.count("error:") == 1


@pytest.mark.parametrize("key", ["derivative-rule-zero", "density-rule-zero",
                                 "mixing-rule-zero", "simulate-rule-zero"])
def test_bad_input_with_slab_threads(tmp_path, capsys, monkeypatch, key):
    # every rule grid cut into slabs of 6 rows, the last one short, on
    # the calling thread
    monkeypatch.setattr(bandwidth, "_SLAB_ELEMS", 6)
    err = _assert_usage_error(tmp_path, capsys, key)
    assert err.count("error:") == 1


def _assert_usage_error(tmp_path, capsys, key):
    short = tmp_path / "short.csv"
    short.write_text("1.0\n2.0\n0.5\n")
    pair = tmp_path / "pair.csv"
    pair.write_text("1.0,2.0\n2.0,1.0\n0.5,0.7\n")
    flat = tmp_path / "flat.csv"
    flat.write_text("1.0\n" * 59 + "1.000000000000001\n")
    spike = tmp_path / "spike.csv"
    spike.write_text("".join(f"{(i + 0.5) / 9999!r}\n" for i in range(9999))
                     + "1000000.0\n")
    inf = tmp_path / "inf.csv"
    inf.write_text("1.0\n2.0\ninf\n")
    out = tmp_path / "out.csv"
    argv = [a.format(mini=MINI, short=short, pair=pair, flat=flat,
                     spike=spike, inf=inf, out=out)
            for a in BAD_INPUT[key].split()]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gammakde {argv[0]}: error:" in err
    assert BAD_INPUT_MESSAGE.get(key, "") in err
    assert "Traceback" not in err
    assert not out.exists()
    return err


# `gammakde bandwidth` runs whose concatenated output is pinned, byte for
# byte, by tests/data/bandwidth_golden.txt
RULE_GOLDEN = DATA / "bandwidth_golden.txt"
RULE_RUNS = [
    "--which density --tau 0 --n 1000 --model exp:1.0",
    "--which density --tau 0 --n 1000 --model gamma:3.0,1.0",
    "--which density --tau 1 --n 1000 --model gamma:3.0,1.0",
    "--which derivative --tau 0 --n 1000 --model gamma:3.0,1.0",
    "--which derivative --tau 1 --n 1000 --model gamma:3.0,1.0",
    "--which density --tau 0 --n 1000 --model gamma:3.0,1.0 "
    "--upsilon 0.5 --alpha-integral 2.0",
    "--which density --n 100 --model data:{mini} --stages 1",
    "--which density --n 100 --model data:{mini} --stages 2",
    "--which derivative --n 100 --model data:{mini} --stages 1",
    "--which derivative --n 100 --model data:{mini} --stages 2",
]


class TestBandwidth:
    def test_rule_output_golden(self, capsys):
        text = []
        for spec in RULE_RUNS:
            assert main(["bandwidth"] + spec.format(mini=MINI).split()) == 0
            text.append(capsys.readouterr().out)
        assert "".join(text).encode() == RULE_GOLDEN.read_bytes()

    def test_rule_output_golden_with_slab_threads(self, capsys,
                                                  monkeypatch):
        # the 4001-node grids in 5 slabs, the last of 1 row, and the
        # 801^2 grids in 1-row slabs, on the calling thread
        monkeypatch.setattr(bandwidth, "_SLAB_ELEMS", 1000)
        self.test_rule_output_golden(capsys)

    def test_density_model_rule(self, capsys):
        rc = main(["bandwidth", "--which", "density", "--tau", "0",
                   "--n", "1000", "--model", "exp:1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kind=DensityRef" in out
        c = float(next(l for l in out.splitlines()
                       if l.startswith("C=")).split("=")[1])
        assert c == pytest.approx(2.0**0.4, abs=1e-3)
        b = float(next(l for l in out.splitlines()
                       if l.startswith("b(1000)=")).split("=")[1])
        assert b == pytest.approx(c * 1000 ** -0.4, rel=1e-12)

    def test_derivative_model_rule(self, capsys):
        rc = main(["bandwidth", "--which", "derivative", "--tau", "0",
                   "--n", "1000", "--model", "gamma:3.0,1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kind=DerivativeRef" in out
        c = float(next(l for l in out.splitlines()
                       if l.startswith("C=")).split("=")[1])
        assert c == pytest.approx((108.0 / 35.0) ** (2.0 / 7.0), abs=1e-3)

    def test_model_rule_past_tau_2(self, capsys):
        # product models are integrated axis by axis at any tau
        for tau in (3, 4, 5):
            for which, kind, e in (("density", "DensityRef", 5),
                                   ("derivative", "DerivativeRef", 7)):
                assert main(["bandwidth", "--which", which, "--tau",
                             str(tau), "--n", "1000",
                             "--model", "gamma:3.0,1.0"]) == 0
                out = capsys.readouterr().out
                assert f"kind={kind}" in out
                assert f"e={2.0 / (e + tau):.16e}" in out
                assert f"tau={tau}" in out

    def test_narrow_model_rule(self, capsys):
        # Gamma(1e6, 1e-6): a narrow but valid reference, sd 1e-3 around 1
        assert main(["bandwidth", "--which", "density", "--n", "100",
                     "--model", "gamma:1e6,1e-6"]) == 0
        out = capsys.readouterr().out
        assert "kind=DensityRef" in out
        c = float(next(l for l in out.splitlines()
                       if l.startswith("C=")).split("=")[1])
        assert np.isfinite(c) and c > 0.0

    def test_data_rule(self, capsys):
        rc = main(["bandwidth", "--which", "density", "--tau", "0",
                   "--n", "100", "--model", f"data:{MINI}"])
        assert rc == 0
        assert "kind=DensityPlugIn" in capsys.readouterr().out

    def test_data_rule_on_lag_columns(self, tmp_path, capsys):
        # as in estimate: the pairs at --tau 0, their series at --tau 1
        outs = []
        for tau, path in (("0", _lag_pairs(tmp_path)), ("1", MINI)):
            assert main(["bandwidth", "--which", "density", "--tau", tau,
                         "--n", "100", "--model", f"data:{path}"]) == 0
            outs.append(capsys.readouterr().out)
        assert "kind=DensityPlugIn" in outs[0]
        assert "e=3.3333333333333331e-01" in outs[0]
        assert outs[0] == outs[1]

    def test_mixing_rule(self, capsys):
        rc = main(["bandwidth", "--which", "density", "--tau", "0",
                   "--n", "1000", "--model", "gamma:3.0,1.0",
                   "--upsilon", "0.5", "--alpha-integral", "2.0"])
        assert rc == 0
        assert "kind=MixingAware" in capsys.readouterr().out

    def test_upsilon_needs_alpha_integral(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bandwidth", "--which", "density", "--tau", "0",
                  "--n", "1000", "--model", "gamma:3.0,1.0",
                  "--upsilon", "0.5"])
        assert exc.value.code == 2
        assert "--alpha-integral" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["weibull:2", "gamma:x"])
    def test_bad_model_is_usage_error(self, capsys, spec):
        with pytest.raises(SystemExit) as exc:
            main(["bandwidth", "--which", "density", "--n", "100",
                  "--model", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "gammakde bandwidth: error:" in err
        assert spec in err

    def test_bad_data_model_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "neg.csv"
        bad.write_text("1.0\n-0.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["bandwidth", "--which", "density", "--n", "100",
                  "--model", f"data:{bad}"])
        assert exc.value.code == 2
        assert "neg.csv:2: negative value" in capsys.readouterr().err

    def test_mixing_rule_rejects_derivative(self):
        with pytest.raises(SystemExit):
            main(["bandwidth", "--which", "derivative", "--tau", "0",
                  "--n", "1000", "--model", "gamma:3.0,1.0",
                  "--upsilon", "0.5", "--alpha-integral", "2.0"])


class TestSimulate:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--seed", "5", "--n-grid", "100,200,400",
                "--replicates", "6", "--b", "0.15"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b), "--workers", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "slope=" in capsys.readouterr().out

    def test_rejects_negative_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "-1", "--n-grid", "100,200,400",
                  "--b", "0.15", "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_requires_seed(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--output", str(tmp_path / "x.csv"),
                  "--n-grid", "100,200"])


class TestValidate:
    def test_quick_passes(self, capsys):
        rc = main(["validate", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) >= 4
        assert all(" PASS " in l or l.rstrip().endswith("PASS")
                   or " PASS" in l for l in lines)
        assert "FAIL" not in out

    def test_fault_injection_detected(self, capsys, monkeypatch):
        # flipping a variance-expansion sign must turn the Monte Carlo
        # bias/variance check into a FAIL and a nonzero exit code
        orig = theory._v1
        monkeypatch.setattr(theory, "_v1", lambda m, x: -orig(m, x))
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 1
        line = next(l for l in out.splitlines()
                    if l.startswith("bias-variance-ratio"))
        assert "FAIL" in line


# scipy subpackages that only some commands use; importing one costs
# about 1 s of start-up (scipy.signal alone pulls in the other four)
HEAVY_SCIPY = ["scipy.signal", "scipy.integrate", "scipy.stats",
               "scipy.interpolate", "scipy.optimize"]


def test_cli_import_leaves_heavy_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, gammakde.cli; "
             f"print(*[m for m in {HEAVY_SCIPY!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          check=True, capture_output=True, text=True)
    assert proc.stdout.split() == []
