"""Density estimation near the origin.

A symmetric kernel leaks mass onto the negative axis and underestimates
an Exp(1) density near 0. The gamma kernel adapts its shape instead:
this script estimates on a grid reaching all the way to x = 0 and
prints the relative error profile.
"""

import numpy as np

from gammakde import field_on_grid

rng = np.random.Generator(np.random.Philox(key=1))
n = 5000
data = rng.exponential(size=n)

b = 2.0 ** 0.4 * n ** -0.4  # closed-form Exp(1) reference rule
grid = np.linspace(0.0, 3.0, 16)
field = field_on_grid(data, [grid], b, kind="density")

print(f"n = {n}, bandwidth = {b:.4f}")
print(f"{'x':>6} {'estimate':>10} {'truth':>10} {'rel err':>9}")
for x, fhat in zip(field.axes[0], field.values):
    f = np.exp(-x)
    print(f"{x:6.2f} {fhat:10.4f} {f:10.4f} {fhat / f - 1.0:9.1%}")
