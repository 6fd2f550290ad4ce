"""Bandwidth selection three ways.

1. Closed-form reference rules for known models (the Exp(1) density
   constant is exactly 2^{2/5}; the Gamma(3,1) derivative constant is
   (108/35)^{2/7}).
2. Data-driven plug-in with a moment-matched gamma reference, with an
   optional pilot refinement stage.
3. The mixing-aware rule for dependent data, given a mixing profile.
"""

import numpy as np

from gammakde import (
    MixingProfile,
    density_bandwidth,
    derivative_bandwidth,
    mixing_bandwidth,
    plug_in_bandwidth,
    product_exponential,
    product_gamma,
)

n = 10_000

rule = density_bandwidth(product_exponential(1.0, d=1), n=n)
print("density rule, Exp(1):")
print(f"  C = {rule.C:.6f} (closed form {2 ** 0.4:.6f}),"
      f" b({n}) = {rule.bandwidth(n):.5f}")

rule = derivative_bandwidth(product_gamma([3.0]), n=n)
print("derivative rule, Gamma(3,1):")
print(f"  C = {rule.C:.6f} (closed form {(108 / 35) ** (2 / 7):.6f}),"
      f" b({n}) = {rule.bandwidth(n):.5f}")

rng = np.random.Generator(np.random.Philox(key=3))
data = rng.gamma(3.0, size=n)
for stages in (1, 2):
    rule = plug_in_bandwidth(data, which="density", stages=stages)
    print(f"plug-in on Gamma(3,1) data, stage {rule.metadata['stage']}:"
          f" C = {rule.C:.4f}, b({n}) = {rule.bandwidth(n):.5f}")

mp = MixingProfile(upsilon=0.5, alpha_integral=2.0)
rule = mixing_bandwidth(product_gamma([3.0]), n=n, mp=mp)
print(f"mixing-aware rule: C = {rule.C:.4f}, e = {rule.e:.4f},"
      f" b({n}) = {rule.bandwidth(n):.5f}")
