"""Multivariate gamma-kernel estimators of a density and its partial derivative.

The estimators average d-fold products of gamma kernels over the sample:

    fhat(x)     = (1/n) sum_i prod_j K_{rho(x_j,b_j),b_j}(X_ij)
    dfhat/dx_a  = (1/n) sum_i c_i(x_a) prod_j K_{rho(x_j,b_j),b_j}(X_ij)

with c_i = L(X_ia, x_a, b_a)/b_a on the interior branch and
x_a/(2 b_a^2) * L on the boundary branch: one contraction over the
sample of per-axis (node x sample) kernel matrices, the matrix of axis a
times c_i for the derivative. A pointwise estimate is a one-node grid.
An observation X_ia = 0 contributes c_i K = 0, the exact limit:
K L ~ t^(rho-1) ln t -> 0 for x_a > 0, and c_i = 0 at x_a = 0.

The sample is summed in chunks of at most
cols = max(128, min(2^17, 2^20 // sum m_j)) rows, for m_j nodes on axis
j, split as numpy's pairwise sum splits a row, and divided by n once.
The terms of the kernel that depend on a node alone
(``kernel.node_terms``) are computed once per grid and axis (``_grid``,
which reads no sample), those that depend on an observation alone
(``kernel.obs_terms``) once per chunk and axis. In each chunk,
``_matrix`` writes the kernel matrix of a range of nodes of one axis,
cutting the range into tiles of
max(1, 2^17 // min(cols, n)) nodes (``_TILE_ELEMS``: 1 MB or less,
since a node's row is) as it goes. Each tile is weighted on the
derivative axis as it is written, so a tile and its weights stay in L2.
A tile is cut nowhere else. The matrices of axes >= 1 are whole axes.
A node block is a range of axis-0 nodes, walked a group at a time: a
tile at d = 1 (row sums) and at d >= 3 (one axis-0 node at a time), and
at d = 2 a GEMM block of 2^17 // cols nodes (``_GEMM_ELEMS``), written
tile by tile and multiplied with the axis-1 matrix at once. Workspaces
are made once per call: memory is O(cols * sum_{j>=1} m_j) plus one
workspace per node block, which holds the axis-0 group and the weight
tile, and a partial field per level of the split.

The last two axes of a d >= 2 field are contracted by one BLAS GEMM
(``np.matmul``) on numpy's bundled OpenBLAS, held at one thread while any
d >= 2 field runs (``_BLAS``), so the bytes do not depend on the BLAS
thread count. GEMM bits depend on the row count of the left matrix, so
the d = 2 blocks are sized from the grid alone; at d >= 3 the left matrix
is a whole axis. The hold is process-wide: meanwhile every numpy BLAS
call, on any thread, runs on one thread, and the BLAS thread count must
not be changed from another thread. Without the bundled library, or
without its thread-count symbols, the last two axes take one ``einsum``
without BLAS.

Every kernel value takes the same float operations in any tile, and
each row of a tile is summed whole, so the tile size changes no bit.
d = 1 is bitwise the one-pass ``mean``; d >= 2 matches the one-pass
``einsum`` to rounding, not bitwise.

A 1-d field of at least 2^20 kernel values (n * m_0) computed on the
main thread is cut into p = min(usable CPUs, m_0) contiguous blocks of
its nodes, one thread each (``_workers``); ``cols`` comes from the
full grid, so the bytes do not depend on the CPU count. Other fields
and the bandwidth rules stay on the calling thread
(``BENCH_axes-once.json``).
"""

import codecs
import contextlib
import ctypes
import functools
import math
import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._spell import spell
from .kernel import kernel_into, node_terms, obs_terms

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
# rows of a chunk at most: a node's row of kernel values (1 MB), so that a
# tile, its weight tile and a GEMM block each take a MB or less on any grid
_MAX_COLS = 1 << 17
# numpy sums a block of up to 128 terms in one pass, without splitting it,
# so no chunk is made smaller (and under 16 rows half would round to 0)
_PAIRWISE_BLOCK = 128
# kernel values of a 1-d field (n times the node count) from which its
# nodes are split over threads
_SPLIT_ELEMS = 1 << 20
# float64 elements of a kernel tile (1 MB): a tile and its weight tile
# are written, weighted and contracted while they sit in a 2 MiB L2.
# Smaller tiles cost more ufunc calls, which two threads pay for in GIL
# hand-offs (BENCH_kernel-tiles.json)
_TILE_ELEMS = 1 << 17
# float64 elements of a d = 2 GEMM block (1 MB at n >= cols): its rows
# are _GEMM_ELEMS // cols >= 1 axis-0 nodes. GEMM bits depend on the row
# count of the left matrix, so it comes from the grid alone, never from
# the tile size, n or the CPU count
_GEMM_ELEMS = 1 << 17
# lines of text that save_field formats and writes at once
_WRITE_LINES = 1 << 12


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
    rows = series.size - tau
    return as_sample(np.column_stack([series[j: j + rows]
                                      for j in range(tau + 1)]))


def _usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(tasks, elems):
    """Threads for ``tasks`` independent pieces of work on ``elems``
    values in all: 1 below ``_SPLIT_ELEMS`` values, and 1 on any thread
    but the main one, which is already one of several workers (as in
    the Monte Carlo pool); otherwise min(usable CPUs, tasks)."""
    if (elems < _SPLIT_ELEMS
            or threading.current_thread() is not threading.main_thread()):
        return 1
    return min(_usable_cpus(), tasks)


class _BlasHold:
    """Holds a BLAS at one thread while d >= 2 fields run, through its
    ``get`` and ``set`` thread-count functions: the first field in saves
    the count and sets 1, the last one out restores it, also when a field
    raises. The thread count is process state, so there is one hold per
    process (``_BLAS``); a count changed from another thread while a field
    runs is overwritten when the last field leaves."""

    def __init__(self, get_threads, set_threads):
        self.get, self.set = get_threads, set_threads
        self._lock = threading.Lock()
        self._fields = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if not self._fields:
                self._saved = self.get()
                self.set(1)
            self._fields += 1

    def __exit__(self, *exc):
        with self._lock:
            self._fields -= 1
            if not self._fields:
                self.set(self._saved)


def _bundled_openblas():
    """A ``_BlasHold`` on the OpenBLAS that numpy's ``matmul`` calls: the
    ``libscipy_openblas64_`` of the numpy wheels, found through numpy's
    own extension module. None for any other BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return _BlasHold(get_threads, set_threads)


_BLAS = _bundled_openblas()


def _thread_map(fn, tasks, p):
    """``[fn(t) for t in tasks]`` on ``p`` threads. The first exception,
    in task order, is raised, and the tasks not yet started are dropped.
    """
    if p <= 1:
        return [fn(t) for t in tasks]
    pool = ThreadPoolExecutor(max_workers=p)
    try:
        return list(pool.map(fn, tasks))
    finally:
        pool.shutdown(cancel_futures=True)


_Grid = namedtuple("_Grid", "axes b axis terms")


def _grid(d, axes, b, kind, axis):
    """The grid step of ``field_on_grid``: check the ``d`` axes, the
    bandwidth, ``kind`` and ``axis``, and build each axis's ``NodeTerms``.
    It reads no sample, so one ``_Grid`` serves every sample estimated
    on it (``simulate`` builds one per sample size)."""
    if len(axes) != d:
        raise ValueError(f"need {d} coordinate axes, got {len(axes)}")
    axes = [np.asarray(a, dtype=float).ravel() for a in axes]
    for j, a in enumerate(axes):
        if (a.size == 0 or not np.all(np.isfinite(a)) or np.any(a < 0.0)
                or np.any(np.diff(a) <= 0.0)):
            raise ValueError(f"axis {j} must be nonempty, finite, "
                             "nonnegative, strictly increasing")
    b = _as_bandwidth(b, d)
    if kind not in ("density", "derivative"):
        raise ValueError("kind must be 'density' or 'derivative'")
    if kind == "density":
        axis = None
    else:
        axis = int(d - 1 if axis is None else axis)
        if not 0 <= axis < d:
            raise ValueError(f"axis {axis} out of range for d={d}")
    # Past the float range a log kernel runs to -inf, a kernel of 0, and
    # the terms to inf or nan, which only a non-finite total shows. A
    # shape x/b that overflows is refused here, before any pool starts
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = [node_terms(a[:, None], bj, j == axis)
                 for j, (a, bj) in enumerate(zip(axes, b))]
    return _Grid(axes, b, axis, terms)


def _field(data, grid):
    """The sample step of ``field_on_grid``: the values of the estimate
    on ``grid`` (``_grid``) of ``data``, an (n, d) sample already checked
    by ``as_sample``."""
    if data.ndim != 2 or data.shape[1] != len(grid.axes):
        raise ValueError(f"sample of shape {data.shape} on a grid of "
                         f"{len(grid.axes)} axes")
    n = data.shape[0]
    b, axis, terms = grid.b, grid.axis, grid.terms
    shape = [a.size for a in grid.axes]
    cols = max(_PAIRWISE_BLOCK, min(_MAX_COLS, _CHUNK_ELEMS // sum(shape)))
    # chunks of at most k rows, tiles of `step` nodes; each kernel value
    # takes the same operations in any tile and rows are summed whole,
    # so neither size changes a bit of the field. Axis 0 is contracted
    # `rows` nodes at a time: a tile, or at d = 2 a GEMM block
    k = min(cols, n)
    step = max(1, _TILE_ELEMS // k)
    rows = _GEMM_ELEMS // cols if len(shape) == 2 else step
    p = _workers(shape[0], n * shape[0]) if len(shape) == 1 else 1
    # each block is a range of axis-0 nodes and its workspaces: one for
    # its axis-0 group and the derivative weight tile, a matrix per axis
    # >= 1 and at d >= 3 a product buffer per axis 1 to d - 2. All are
    # made here, in the calling thread, which keeps the pool threads'
    # heaps small (BENCH_node-blocks.json). The group and the weight tile
    # share one array of 2 MB or less, under the 4 MiB from which numpy
    # asks for huge pages (BENCH_steady-rss.json); as one array glibc
    # does not trim it off the heap after every call. The p ranges are
    # those of np.array_split, the longer ones first
    q, r = divmod(shape[0], p)
    starts = [i * q + min(i, r) for i in range(p + 1)]
    blocks = []
    for lo, hi in zip(starts, starts[1:]):
        sizes = [hi - lo] + shape[1:]
        group = min(rows, hi - lo) * k
        tile = 0 if axis is None else min(step, sizes[axis]) * k
        shared = np.empty(group + tile)
        work = [shared[:group]] + [np.empty(m * k) for m in shape[1:]]
        weights = None if axis is None else shared[group:]
        prods = [np.empty(m * k) for m in shape[1:-1]]
        blocks.append((lo, hi, work, weights, prods))
    hold = (_BLAS if len(shape) > 1 and _BLAS is not None
            else contextlib.nullcontext())
    with hold:
        values = np.concatenate(_thread_map(
            functools.partial(_sum_terms, data, b, terms, cols, step, rows),
            blocks, p)) / n
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"the estimate is not finite at {bad} of "
                         f"{values.size} nodes: x/b or 1/b leaves the "
                         "floating-point range")
    return values


# numpy's error state does not carry into pool threads, so each block
# sets its own: past the float range a kernel is 0 and a term inf or nan
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sum_terms(data, b, terms, cols, step, rows, block):
    """Sum the per-observation terms over the rows of ``data``, at the
    axis-0 nodes ``lo`` to ``hi`` - 1 of ``block`` and every node of the
    axes >= 1, ``rows`` axis-0 nodes at a time. Rows are split where
    numpy's pairwise ``sum`` over all of them would split."""
    n = data.shape[0]
    if n > cols:
        half = n // 2
        half -= half % 8
        args = (b, terms, cols, step, rows, block)
        return _sum_terms(data[:half], *args) + _sum_terms(data[half:], *args)
    lo, hi, work, weights, prods = block
    obs = [obs_terms(data[None, :, j], b[j], t.psi is not None)
           for j, t in enumerate(terms)]
    mats = [_matrix(t, 0, t.r1.size, step, o, w, weights)
            for t, o, w in zip(terms[1:], obs[1:], work[1:])]
    return np.concatenate([
        _contract(_matrix(terms[0], a, min(a + rows, hi), step, obs[0],
                          work[0], weights), mats, prods)
        for a in range(lo, hi, rows)])


def _matrix(terms, lo, hi, step, obs, work, weights):
    """The (node x row) kernel matrix of nodes ``lo`` to ``hi`` - 1 of
    one axis, written into ``work`` ``step`` nodes a tile at a time; on
    the derivative axis each tile is weighted as it is written, its
    weights in ``weights``."""
    out = work[: (hi - lo) * obs.logt.size].reshape(hi - lo, -1)
    for a in range(lo, hi, step):
        kernel_into(terms.rows(a, min(a + step, hi)), obs,
                    out[a - lo: a - lo + step], weights)
    return out


def _contract(first, mats, prods, out=None):
    """Sum over the rows the products of the axis-0 matrix ``first`` and
    the matrices ``mats`` of the axes >= 1, at every node, into ``out`` if
    given. Past two axes, P = A[i] * B (in ``prods[0]``) replaces A and B
    one axis-0 node i at a time. The last two axes take one GEMM,
    ``first @ mats[0].T``, on numpy's bundled OpenBLAS, which ``_field``
    holds at one thread, so the bytes do not depend on the BLAS thread
    count; they match the one-pass ``einsum`` to rounding. Without that
    library (``_BLAS`` None) they take one einsum without BLAS.
    """
    if not mats:
        return first.sum(axis=1)
    if len(mats) == 1:
        if _BLAS is None:
            return np.einsum("az,bz->ab", first, mats[0], out=out)
        return np.matmul(first, mats[0].T, out=out)
    if out is None:
        out = np.empty((first.shape[0],) + tuple(m.shape[0] for m in mats))
    p = prods[0][: mats[0].size].reshape(mats[0].shape)
    for row, part in zip(first, out):
        np.multiply(row, mats[0], out=p)
        _contract(p, mats[1:], prods[1:], part)
    return out


def density_at(sample, x, b):
    """Gamma product-kernel density estimate at a single point."""
    return field_on_grid(sample, np.reshape(x, (-1, 1)), b).values.item()


def density_partial_at(sample, x, b, axis):
    """Estimate of the partial derivative of the density along one axis."""
    return field_on_grid(sample, np.reshape(x, (-1, 1)), b, "derivative",
                         axis).values.item()


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

    One pass over the per-axis kernel matrices; ``density_at`` and
    ``density_partial_at`` call it on a one-node grid. The derivative is
    taken along ``axis``, the last one by default.
    """
    data = as_sample(sample)
    grid = _grid(data.shape[1], axes, b, kind, axis)
    return FieldOnGrid(axes=grid.axes, values=_field(data, grid), kind=kind)


def load_sample(path):
    """Read a sample from delimited text: one observation per line.

    Accepts comma- or whitespace-separated columns, blank lines, lines
    starting with '#', an optional single header line and a UTF-8
    byte-order mark. A value that does not parse, is negative or is not
    finite is reported with its line number.
    """
    with open(path) as fh:
        data = _load_fast(path, fh)
        # one pass over the values; the line parser names a bad one
        if data is not None and np.all((data >= 0.0) & np.isfinite(data)):
            return data
        fh.seek(0)
        return _load_lines(path, fh)


def _data_rows(path, fh):
    """Yield ``(lineno, line, values)`` for each data line of ``fh``.

    Skips blank lines, lines starting with '#' and an unparseable line 1,
    the header; any other unparseable line is an error.
    """
    for lineno, line in enumerate(fh, start=1):
        # a UTF-8 byte-order mark is not part of line 1
        line = (line.removeprefix("\ufeff") if lineno == 1 else line).strip()
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

    Returns None where loadtxt fails (a '#' after the first data line, or
    no data rows), and ``_load_lines`` then names the line at fault.
    """
    try:
        first = next(_data_rows(path, fh), None)
    except ValueError:
        return None
    if first is None:
        return None
    lineno, line, _ = first
    try:
        # the lines before the first data line are blank, comment or
        # header; with comments=None a later '#' is a parse error.
        # loadtxt reads a path faster than a text handle, in the
        # handle's encoding; utf-8-sig drops a byte-order mark as
        # _data_rows does
        utf8 = codecs.lookup(fh.encoding).name == "utf-8"
        return np.loadtxt(path, dtype=float, comments=None,
                          delimiter="," if "," in line else None,
                          skiprows=lineno - 1, ndmin=2,
                          encoding="utf-8-sig" if utf8 else fh.encoding)
    except ValueError:
        return None


def _load_lines(path, fh):
    rows = []
    for lineno, _, vals in _data_rows(path, fh):
        if rows and len(vals) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} "
                             f"columns, got {len(vals)}")
        for col, v in enumerate(vals):
            if not (math.isfinite(v) and v >= 0.0):
                what = "negative" if math.isfinite(v) else "non-finite"
                raise ValueError(f"{path}:{lineno}: {what} value in "
                                 f"column {col}")
        rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def save_field(field, path):
    """Write a FieldOnGrid as delimited text: coordinates then value per line.

    Nodes run in C order (last axis fastest). A line is a record: one
    cell per axis, then the value's cell. Every cell holds the bytes of
    Python's ``'%.16e'`` and ends in ',' or, after the value, in a
    newline. The cells are spelled in numpy (``_spell.spell``), those of
    the coordinates once per axis node. A block is a range of at most
    2^12 lines (``_WRITE_LINES``) in C order: its axis cells are
    gathered by node, its values spelled, and its uint8 array, a byte
    column per character with NUL pads in the cells that are short, is
    written with the pads dropped. Memory is about 60 bytes per axis
    node (the joined axes and their cells, with and without pad columns)
    plus one block, and a float64 copy of values in another dtype or
    order.

    The fast path scales |v| by 10^(16 - E) in double-double arithmetic
    (``_spell.decimal17``) to within about 1e-14 of the 17-digit integer
    it rounds. Python's ``'%.16e'`` formats, into its own line, each
    value that this cannot decide: a non-finite value, zero or any other
    value outside [1e-270, 1e270] (subnormals among them), one whose
    scaled value lies within 1e-9 of a rounding tie (exact ties such as
    2^-25 among them), and one whose exponent one correction does not
    find. So the bytes do not depend on the fast path's error.
    """
    axes = [np.asarray(a, dtype=float).ravel() for a in field.axes]
    shape = tuple(a.size for a in axes)
    values = np.asarray(field.values)
    if values.shape != shape:
        raise ValueError(f"field values have shape {values.shape}, "
                         f"but its axes make a grid of shape {shape}")
    values = values.astype(float, copy=False).ravel()
    # the cells of the axis nodes, spelled a block at a time, end in ',';
    # columns that are a pad in every cell of an axis are dropped
    nodes = np.concatenate(axes)
    cell = np.empty((nodes.size, 25), np.uint8)
    for i in range(0, nodes.size, _WRITE_LINES):
        cell[i: i + _WRITE_LINES] = spell(nodes[i: i + _WRITE_LINES])
    cell[:, -1] = ord(",")
    cells = [c.compress(c.any(axis=0), axis=1)
             for c in np.split(cell, np.cumsum(shape)[:-1])]
    with open(path, "w") as fh:
        for start in range(0, values.size, _WRITE_LINES):
            block = values[start: start + _WRITE_LINES]
            index = np.unravel_index(np.arange(start, start + block.size),
                                     shape)
            text = np.concatenate([c.take(i, axis=0)
                                   for c, i in zip(cells, index)]
                                  + [spell(block)], axis=1)
            fh.write(text.tobytes().replace(b"\0", b"").decode("ascii"))
