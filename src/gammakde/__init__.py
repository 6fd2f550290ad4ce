"""Gamma product-kernel density and derivative estimation on [0, inf)^d.

The kernel adapts its shape near the boundary, so there is no boundary
bias correction to bolt on afterwards. Submodules:

- ``kernel``: the univariate asymmetric kernel and its x-gradient
- ``estimator``: product-kernel density / partial-derivative estimators
- ``theory``: bias, variance, and covariance expansions
- ``bandwidth``: MISE-optimal and plug-in bandwidth rules
- ``simulate``: data generation and Monte Carlo validation
- ``cli``: the ``gammakde`` command-line front end
"""

from . import bandwidth, estimator, kernel, models, simulate, theory
from .bandwidth import (
    BandwidthRule,
    DivergentIntegralError,
    density_bandwidth,
    derivative_bandwidth,
    mixing_bandwidth,
    plug_in_bandwidth,
)
from .estimator import (
    FieldOnGrid,
    density_at,
    density_partial_at,
    field_on_grid,
    fragment,
    load_sample,
    log_density_derivative_at,
    save_field,
)
from .models import (
    DensityModel,
    GammaMarginal,
    from_pdf,
    product_exponential,
    product_gamma,
)
from .simulate import (
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
from .theory import (
    ExpansionReport,
    MixingProfile,
    OutOfValidityError,
    bias_density,
    bias_derivative,
    cov_bound_density,
    cov_bound_derivative,
    cov_split_density,
    mise_leading,
    var_density,
    var_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "bandwidth", "estimator", "kernel", "models", "simulate", "theory",
    "BandwidthRule", "DivergentIntegralError", "density_bandwidth",
    "derivative_bandwidth", "mixing_bandwidth", "plug_in_bandwidth",
    "FieldOnGrid", "density_at", "density_partial_at", "field_on_grid",
    "fragment", "load_sample", "log_density_derivative_at", "save_field",
    "DensityModel", "GammaMarginal", "from_pdf", "product_exponential",
    "product_gamma",
    "ExperimentConfig", "ExperimentResult", "MixingProcessSpec",
    "export_result", "gen_series", "mc_mise", "mc_point_stats", "rate_fit",
    "truth_model",
    "ExpansionReport", "MixingProfile", "OutOfValidityError",
    "bias_density", "bias_derivative", "cov_bound_density",
    "cov_bound_derivative", "cov_split_density", "mise_leading",
    "var_density", "var_derivative",
]
