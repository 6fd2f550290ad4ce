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

The sum over the sample is taken in chunks of at most
cols = max(128, 2^20 // sum_j m_j) rows, for m_j nodes on axis j, so the
kernel matrices of one chunk hold about 2^20 floats (8 MB). They live in
one workspace, allocated once per call and reused by every chunk, plus
one more matrix for the derivative weights. The rows are split as
numpy's pairwise sum splits a row (half = n // 2, rounded down to a
multiple of 8, recursively), the two halves' sums are added, and the
total is divided by n once. Memory is O(cols * sum_j m_j) for the
workspace plus one partial field of prod_j m_j values per level of the
split, log2(n / cols) levels. For d = 1 each chunk is a subtree of the
pairwise sum over all n terms, so the estimate is bitwise the one-pass
``mean``. For d >= 2 it is bitwise the one-pass ``einsum`` while
n <= cols; beyond, it stays deterministic and differs from the one-pass
sum only in the last bits.
"""

import itertools
import re
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

# float64 elements in the kernel matrices of one chunk, all axes (8 MB)
_CHUNK_ELEMS = 1 << 20
# numpy sums a block of up to 128 terms in one pass, without splitting it,
# so no chunk is made smaller (and under 16 rows half would round to 0)
_PAIRWISE_BLOCK = 128


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
    n = data.shape[0]
    cols = max(_PAIRWISE_BLOCK, _CHUNK_ELEMS // sum(a.size for a in axes))
    # every chunk writes its kernel matrices into these, one per axis and
    # a last one for the derivative weights; they belong to this call
    # alone, so concurrent calls share no memory
    k = min(cols, n)
    work = [np.empty(a.size * k) for a in axes]
    if axis is not None:
        work.append(np.empty(axes[axis].size * k))
    # past the float range a log kernel runs to -inf, a kernel of 0, and
    # the terms to inf or nan, which only a non-finite total shows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = _sum_terms(data, axes, b, axis, cols, work) / n
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"the estimate is not finite at {bad} of "
                         f"{values.size} nodes: x/b or 1/b leaves the "
                         "floating-point range")
    return values


def _sum_terms(data, axes, b, axis, cols, work):
    """Sum the per-observation terms over the rows of ``data``.

    Rows are split as numpy's pairwise sum splits a row, so for d = 1
    every split is one that ``sum`` over all rows would make itself.
    """
    n = data.shape[0]
    if n > cols:
        half = n // 2
        half -= half % 8
        return (_sum_terms(data[:half], axes, b, axis, cols, work)
                + _sum_terms(data[half:], axes, b, axis, cols, work))
    mats = []
    for j, nodes in enumerate(axes):
        col = data[:, j]
        mat = work[j][: nodes.size * n].reshape(nodes.size, n)
        log_kernel_eval(col[None, :], nodes[:, None], b[j], out=mat)
        np.exp(mat, out=mat)
        if j == axis:
            c = work[-1][: mat.size].reshape(mat.shape)
            pos = col > 0.0
            l_term(np.where(pos, col, 1.0)[None, :], nodes[:, None], b[j],
                   out=c)
            c *= grad_prefactor(nodes, b[j])[:, None]
            # c K = 0 where the observation or the node is 0
            c[:, ~pos] = 0.0
            c[nodes == 0.0] = 0.0
            mat *= c
        mats.append(mat)
    if len(mats) == 1:
        return mats[0].sum(axis=1)
    # einsum without BLAS: the summation order, and so every output byte,
    # does not depend on the thread count
    letters = "abcdefghijklmnopqrstuvwxy"[: len(mats)]
    spec = ",".join(a + "z" for a in letters) + "->" + letters
    return np.einsum(spec, *mats)


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


def log_density_derivative_at(sample, x, b_f, b_df, axis):
    """Ratio estimate of the logarithmic density derivative.

    The numerator and denominator use separate bandwidths: the derivative
    needs a different smoothing order than the density. The denominator
    is floored at ``DENSITY_FLOOR`` and the result flags a floor hit.
    """
    den = density_at(sample, x, b_f)
    num = density_partial_at(sample, x, b_df, axis)
    truncated = den < DENSITY_FLOOR
    return LogDerivativeResult(
        value=num / max(den, DENSITY_FLOOR),
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

    Accepts comma- or whitespace-separated columns, blank lines, lines
    starting with '#', and an optional single header line. Parse and sign
    errors are reported with line numbers.
    """
    with open(path) as fh:
        data = _load_fast(path, fh)
        if data is not None and np.all(data >= 0.0):
            return as_sample(data)
        fh.seek(0)
        return _load_lines(path, fh)


def _data_rows(path, fh):
    """Yield ``(lineno, line, values)`` for each data line of ``fh``.

    Skips blank lines, lines starting with '#' and an unparseable line 1,
    the header; any other unparseable line is an error.
    """
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",") if "," in line else line.split()
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            if lineno == 1:
                continue  # header
            raise ValueError(f"{path}:{lineno}: cannot parse '{line}'")
        yield lineno, line, vals


def _load_fast(path, fh):
    """``np.loadtxt`` on a file that ``_load_lines`` would read the same way.

    Returns None where loadtxt fails or could read the file otherwise:
    a '#' after the start of a line, or no data rows (loadtxt warns).
    ``_load_lines`` then names the line at fault.
    """
    try:
        first = next(_data_rows(path, fh), None)
    except ValueError:
        return None
    if first is None:
        return None
    lineno, line, _ = first
    fh.seek(0)
    text = fh.read()
    if "#" in text and _INLINE_COMMENT.search(text):
        return None
    del text
    fh.seek(0)
    try:
        # the lines before the first data line are blank, comment or header
        return np.loadtxt(fh, dtype=float, comments="#",
                          delimiter="," if "," in line else None,
                          skiprows=lineno - 1, ndmin=2)
    except ValueError:
        return None


# a '#' after the first non-blank character of its line
_INLINE_COMMENT = re.compile(r"^[^\S\n]*[^#\s][^\n]*#", re.M)


def _load_lines(path, fh):
    rows = []
    for lineno, _, vals in _data_rows(path, fh):
        if rows and len(vals) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} "
                             f"columns, got {len(vals)}")
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
    """Write a FieldOnGrid as delimited text: coordinates then value per line.

    Nodes run in C order (last axis fastest); each coordinate and each
    value is formatted once.
    """
    coords = [[f"{c:.16e}," for c in np.asarray(a).tolist()]
              for a in field.axes]
    values = field.values.ravel().tolist()
    with open(path, "w") as fh:
        fh.writelines("".join(cells) + f"{v:.16e}\n"
                      for cells, v in zip(itertools.product(*coords), values))
