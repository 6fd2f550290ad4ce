"""Oracle tests for the digamma function.

Reference values come from mpmath at 50 digits, frozen here, plus the
classical recurrence and limit identities that must hold for all
positive arguments.
"""

import numpy as np
import pytest

from gammakde.special import digamma

# mpmath.mp.dps = 50 oracle values
DIGAMMA_ORACLE = [
    (0.001, -1000.5755719318102796547567106572251873637118091313),
    (0.1, -10.423754940411076232620032001936213958876226735675),
    (0.5, -1.9635100260214234794409763329987555671931596046604),
    (1.0, -0.57721566490153286060651209008240243104215933593992),
    (2.0, 0.42278433509846713939348790991759756895784066406008),
    (10.0, 2.2517525890667211076474561638858515372650028368497),
    (1e6, 13.815510057964190770774615403106185245602640677804),
]


class TestDigamma:
    @pytest.mark.parametrize("z,expected", DIGAMMA_ORACLE)
    def test_oracle_values(self, z, expected):
        assert digamma(z) == pytest.approx(expected, abs=1e-10)

    def test_recurrence_identity(self):
        # Psi(z+1) - Psi(z) = 1/z
        z = np.geomspace(0.1, 1e4, 60)
        np.testing.assert_allclose(
            digamma(z + 1.0) - digamma(z), 1.0 / z, rtol=0, atol=1e-10
        )

    def test_series_oracle(self):
        # Psi(z) = -gamma + sum_k (1/k - 1/(k+z-1)) for z > 0
        euler_gamma = 0.57721566490153286060651209008240243104215933593992
        for z in (0.3, 1.7, 4.2):
            k = np.arange(1.0, 2_000_001.0)
            series = -euler_gamma + np.sum(1.0 / k - 1.0 / (k + z - 1.0))
            series += (z - 1.0) / k[-1]  # analytic tail of the sum
            assert digamma(z) == pytest.approx(series, abs=1e-9)

    def test_log_limit(self):
        # Psi(z) - ln z -> 0 from below
        z = np.geomspace(1e2, 1e8, 7)
        diff = digamma(z) - np.log(z)
        assert np.all(diff < 0.0)
        assert abs(diff[-1]) < 1e-8

    def test_array_matches_scalar(self):
        z = np.array([0.05, 0.9, 3.0, 42.0])
        np.testing.assert_allclose(
            digamma(z), [digamma(float(v)) for v in z], rtol=1e-14
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(-0.5)
