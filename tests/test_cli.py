"""Command-line interface tests.

The estimate command is pinned to a committed golden file whose values
are independently re-derived here with a literal double loop over the
committed sample, so the pin guards the whole pipeline and not just
reproducibility.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from gammakde import theory
from gammakde.cli import main
from gammakde.kernel import kernel_eval

DATA = Path(__file__).parent / "data"
MINI = DATA / "exp100.csv"
GOLDEN = DATA / "exp100_density_golden.csv"


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

    def test_plugin_rule_resolves(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        rc = main([
            "estimate", "--input", str(MINI), "--output", str(out),
            "--rule", "plugin", "--grid", "0.2:2.0:5",
        ])
        assert rc == 0
        assert "rule DensityPlugIn" in capsys.readouterr().out

    def test_missing_bandwidth_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["estimate", "--input", str(MINI),
                  "--output", str(tmp_path / "x.csv")])

    def test_grid_dimension_mismatch_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["estimate", "--input", str(MINI),
                  "--output", str(tmp_path / "x.csv"), "--b", "0.3",
                  "--grid", "0:1:5;0:1:5"])


class TestBandwidth:
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

    def test_data_rule(self, capsys):
        rc = main(["bandwidth", "--which", "density", "--tau", "0",
                   "--n", "100", "--model", f"data:{MINI}"])
        assert rc == 0
        assert "kind=DensityPlugIn" in capsys.readouterr().out

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
        monkeypatch.setenv("GAMMAKDE_THREADS", "4")
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 1
        line = next(l for l in out.splitlines()
                    if l.startswith("bias-variance-ratio"))
        assert "FAIL" in line
