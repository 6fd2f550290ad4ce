"""Derivative estimation and the bias/variance expansions.

Estimates the derivative of a Gamma(3,1) density at a point, repeats
over independent samples, and compares the empirical bias and variance
with the closed-form leading terms.
"""

import numpy as np

from gammakde import (
    GammaMarginal,
    bias_derivative,
    density_partial_at,
    product_gamma,
    var_derivative,
)

model = product_gamma([3.0])
marginal = GammaMarginal(3.0)
x, b, n, reps = 1.0, 0.1, 20_000, 300

rng = np.random.Generator(np.random.Philox(key=2))
estimates = np.array([
    density_partial_at(rng.gamma(3.0, size=(n, 1)), [x], b, axis=0)
    for _ in range(reps)
])

truth = marginal.d1(x)
bias_th = bias_derivative(model, [x], b)
var_th = var_derivative(model, [x], b, n)

print(f"f'({x}) = {truth:.5f}")
print(f"empirical mean      {estimates.mean():.5f}")
print(f"empirical bias      {estimates.mean() - truth:+.5f}")
print(f"theory bias         {bias_th.value:+.5f}  "
      f"(B1 term {bias_th.components['B1_term']:+.5f})")
print(f"empirical variance  {estimates.var(ddof=1):.3e}")
print(f"theory variance     {var_th.value:.3e}  "
      f"(leading V3 {var_th.components['V3_term']:.3e})")
