"""Monte Carlo MISE convergence rates.

Runs a small experiment grid for the density estimator under the
reference bandwidth rule and fits the log-log MISE slope; the theory
says n^{-4/5} for iid data at tau = 0. Results are exported as
delimited text and are byte-identical for any worker count.
"""

from gammakde import (
    ExperimentConfig,
    GammaMarginal,
    MixingProcessSpec,
    density_bandwidth,
    export_result,
    mc_mise,
    product_exponential,
    rate_fit,
)

rule = density_bandwidth(product_exponential(1.0, d=1), n=250)
config = ExperimentConfig(
    process=MixingProcessSpec(GammaMarginal(1.0, 1.0), phi=0.0),
    n_grid=[250, 500, 1000, 2000],
    replicates=60,
    tau=0,
    seed=12345,
    which="density",
    bandwidth=rule,
    workers=4,
)

result = mc_mise(config)
slope, se = rate_fit(result)

print(f"{'n':>6} {'MISE':>12} {'stderr':>10}")
for n, mise, stderr in result.summary:
    print(f"{n:6d} {mise:12.3e} {stderr:10.1e}")
print(f"fitted slope {slope:.3f} +/- {se:.3f} (theory -0.8)")

export_result(result, "density_rates.csv")
print("wrote density_rates.csv")
