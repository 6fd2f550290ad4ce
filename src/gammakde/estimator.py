"""Multivariate gamma-kernel estimators of a density and its partial derivative.

The estimators average d-fold products of gamma kernels over the sample:

    fhat(x)     = (1/n) sum_i prod_j K_{rho(x_j,b_j),b_j}(X_ij)
    dfhat/dx_a  = (1/n) sum_i c_i(x_a) prod_j K_{rho(x_j,b_j),b_j}(X_ij)

with c_i = L(X_ia, x_a, b_a)/b_a on the interior branch and
x_a/(2 b_a^2) * L on the boundary branch. Both are one contraction over
the sample of per-axis (node x sample) kernel matrices; the derivative
multiplies the matrix of axis a by c_i first. Pointwise estimates are
one-node grids. An observation X_ia = 0 contributes c_i K = 0, the exact
limit: K L ~ t^(rho-1) ln t -> 0 for x_a > 0, and c_i = 0 at x_a = 0.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import grad_prefactor, l_term, log_kernel_eval

__all__ = [
    "FieldOnGrid",
    "LogDerivativeResult",
    "as_sample",
    "fragment",
    "density_at",
    "density_partial_at",
    "log_density_derivative_at",
    "field_on_grid",
    "load_sample",
    "save_field",
]

DENSITY_FLOOR = 1e-12


@dataclass
class FieldOnGrid:
    """Values of an estimated field on a tensor grid over the positive orthant.

    axes : list of strictly increasing 1-d coordinate arrays, one per dimension
    values : array of shape (len(axes[0]), ..., len(axes[-1]))
    kind : "density" or "derivative"
    """

    axes: list
    values: np.ndarray
    kind: str

    def nodes(self):
        """Iterate (coordinate-tuple, value) over all grid nodes."""
        for idx in np.ndindex(self.values.shape):
            coords = tuple(self.axes[j][idx[j]] for j in range(len(self.axes)))
            yield coords, self.values[idx]


@dataclass
class LogDerivativeResult:
    """Ratio estimate of d(ln f)/dx_a with a denominator-truncation marker."""

    value: float
    truncated: bool
    density: float
    derivative: float


def as_sample(data):
    """Validate and return an (n, d) float array of nonnegative observations."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError("sample must be a nonempty n x d matrix")
    if not np.all(np.isfinite(data)):
        raise ValueError("sample contains non-finite entries")
    if np.any(data < 0.0):
        i, j = np.argwhere(data < 0.0)[0]
        raise ValueError(f"negative observation at row {i}, column {j}")
    return data


def _as_bandwidth(b, d):
    b = np.asarray(b, dtype=float)
    if b.ndim == 0:
        b = np.full(d, float(b))
    if b.shape != (d,):
        raise ValueError(f"bandwidth must be scalar or length-{d}")
    if np.any(b <= 0.0) or np.any(~np.isfinite(b)):
        raise ValueError("bandwidth entries must be finite and > 0")
    return b


def _as_point(x, d):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise ValueError(f"evaluation point must have dimension {d}")
    if np.any(x < 0.0) or np.any(~np.isfinite(x)):
        raise ValueError("evaluation point entries must be finite and >= 0")
    return x


def fragment(series, tau):
    """Slide a window of width tau+1 over a univariate series.

    Returns the (m - tau) x (tau + 1) sample whose row k is
    (series[k], ..., series[k + tau]).
    """
    series = np.asarray(series, dtype=float).ravel()
    tau = int(tau)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if series.size <= tau:
        raise ValueError(
            f"series of length {series.size} too short for tau={tau}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(series, tau + 1)
    return as_sample(np.array(windows))


def _check_axis(axis, d):
    axis = int(axis)
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for d={d}")
    return axis


def _field(data, axes, b, axis=None):
    """Estimate on the tensor grid ``axes``; the derivative along ``axis``."""
    mats = []
    for j, nodes in enumerate(axes):
        col = data[:, j]
        mat = log_kernel_eval(col[None, :], nodes[:, None], b[j])
        np.exp(mat, out=mat)
        if j == axis:
            pos = col > 0.0
            c = l_term(np.where(pos, col, 1.0)[None, :], nodes[:, None], b[j])
            c *= grad_prefactor(nodes, b[j])[:, None]
            mat *= np.where((nodes > 0.0)[:, None] & pos, c, 0.0)
        mats.append(mat)
    if len(mats) == 1:
        return mats[0].mean(axis=1)
    # einsum without BLAS: the summation order, and so every output byte,
    # does not depend on the thread count
    letters = "abcdefghijklmnopqrstuvwxy"[: len(mats)]
    spec = ",".join(a + "z" for a in letters) + "->" + letters
    return np.einsum(spec, *mats) / data.shape[0]


def density_at(sample, x, b):
    """Gamma product-kernel density estimate at a single point."""
    data = as_sample(sample)
    d = data.shape[1]
    x = _as_point(x, d)
    return _field(data, x[:, None], _as_bandwidth(b, d)).item()


def density_partial_at(sample, x, b, axis):
    """Estimate of the partial derivative of the density along one axis."""
    data = as_sample(sample)
    d = data.shape[1]
    x = _as_point(x, d)
    b = _as_bandwidth(b, d)
    return _field(data, x[:, None], b, _check_axis(axis, d)).item()


def log_density_derivative_at(sample, x, b_f, b_df, axis, floor=DENSITY_FLOOR):
    """Ratio estimate of the logarithmic density derivative.

    The numerator and denominator use separate bandwidths: the derivative
    needs a different smoothing order than the density. The denominator
    is floored at ``floor`` and the result flags when the floor was hit.
    """
    den = density_at(sample, x, b_f)
    num = density_partial_at(sample, x, b_df, axis)
    truncated = den < floor
    return LogDerivativeResult(
        value=num / max(den, floor),
        truncated=truncated,
        density=den,
        derivative=num,
    )


def field_on_grid(sample, axes, b, kind="density", axis=None):
    """Evaluate the density or derivative estimate on a tensor grid.

    One pass over the per-axis kernel matrices; a pointwise call is the
    same computation on a one-node grid.
    """
    data = as_sample(sample)
    d = data.shape[1]
    if len(axes) != d:
        raise ValueError(f"need {d} coordinate axes, got {len(axes)}")
    axes = [np.asarray(a, dtype=float).ravel() for a in axes]
    for j, a in enumerate(axes):
        if a.size == 0 or np.any(a < 0.0) or np.any(np.diff(a) <= 0.0):
            raise ValueError(
                f"axis {j} must be nonempty, nonnegative, strictly increasing"
            )
    b = _as_bandwidth(b, d)
    if kind not in ("density", "derivative"):
        raise ValueError("kind must be 'density' or 'derivative'")
    if kind == "density":
        axis = None
    else:
        axis = _check_axis(d - 1 if axis is None else axis, d)
    return FieldOnGrid(axes=axes, values=_field(data, axes, b, axis),
                       kind=kind)


def load_sample(path):
    """Read a sample from delimited text: one observation per line.

    Accepts comma- or whitespace-separated columns and an optional single
    header line. Parse and sign errors are reported with line numbers.
    """
    rows = []
    d = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",") if "," in line else line.split()
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header
                raise ValueError(f"{path}:{lineno}: cannot parse '{line}'")
            if d is None:
                d = len(vals)
            elif len(vals) != d:
                raise ValueError(
                    f"{path}:{lineno}: expected {d} columns, got {len(vals)}"
                )
            for col, v in enumerate(vals):
                if v < 0.0:
                    raise ValueError(
                        f"{path}:{lineno}: negative value in column {col}"
                    )
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return as_sample(np.array(rows))


def save_field(field, path):
    """Write a FieldOnGrid as delimited text: coordinates then value per line."""
    with open(path, "w") as fh:
        for coords, value in field.nodes():
            cells = [f"{c:.16e}" for c in coords] + [f"{value:.16e}"]
            fh.write(",".join(cells) + "\n")
