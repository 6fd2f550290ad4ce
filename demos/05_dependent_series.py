"""Estimation from a dependent series.

Generates a Gaussian-copula AR(1) series with an exact Exp(1) marginal,
builds lag fragments, and estimates the bivariate joint density of
consecutive observations (tau = 1), comparing it with the analytic
copula joint along the diagonal.
"""

import numpy as np

from gammakde import (
    GammaMarginal,
    MixingProcessSpec,
    field_on_grid,
    fragment,
    gen_series,
    truth_model,
)

spec = MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.5)
series = gen_series(spec, 30_000, seed=7)
print(f"series: mean {series.mean():.3f} (Exp(1) has mean 1), "
      f"lag-1 sample corr {np.corrcoef(series[:-1], series[1:])[0, 1]:.3f}")

tau = 1
data = fragment(series, tau)
b = 0.15
diag = np.linspace(0.3, 2.4, 8)
field = field_on_grid(data, [diag, diag], b, kind="density")

joint = truth_model(spec, tau)
print(f"\njoint density on the diagonal, bandwidth {b}:")
print(f"{'x':>5} {'estimate':>9} {'truth':>9}")
for i, x in enumerate(diag):
    truth = joint.pdf(np.array([[x, x]])).item()
    print(f"{x:5.2f} {field.values[i, i]:9.4f} {truth:9.4f}")
