"""Estimator tests against a naive double-loop oracle.

The oracle evaluates the kernel products literally, one sample point and
one coordinate at a time, without log-space accumulation or shared
kernel matrices. Agreement is required to near machine precision.
"""

import itertools
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammakde import estimator
from gammakde.estimator import (
    FieldOnGrid,
    as_sample,
    density_at,
    density_partial_at,
    field_on_grid,
    fragment,
    load_sample,
    log_density_derivative_at,
    save_field,
)
from gammakde.kernel import (
    kernel_eval,
    l_term,
    log_kernel_eval,
    node_terms,
)


def _naive_density(data, x, b):
    total = 0.0
    for row in data:
        prod = 1.0
        for j in range(data.shape[1]):
            prod *= kernel_eval(row[j], x[j], b[j])
        total += prod
    return total / data.shape[0]


def _naive_partial_terms(data, x, b, axis):
    terms = []
    for row in data:
        prod = 1.0
        for j in range(data.shape[1]):
            prod *= kernel_eval(row[j], x[j], b[j])
        slope = node_terms(x[axis], b[axis], grad=True).slope
        terms.append(slope * l_term(row[axis], x[axis], b[axis]) * prod)
    return np.array(terms)


def _naive_partial(data, x, b, axis):
    return _naive_partial_terms(data, x, b, axis).sum() / data.shape[0]


def _nodes(field):
    """(coordinates, value) of each grid node, last axis fastest."""
    return zip(itertools.product(*field.axes), field.values.ravel())


def _sample(d, n=200, seed=31):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.gamma(shape=2.0, scale=1.0, size=(n, d))


class TestDensityAt:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force(self, d):
        data = _sample(d)
        b = np.linspace(0.1, 0.2, d)
        rng = np.random.Generator(np.random.Philox(key=77))
        for _ in range(10):
            x = rng.uniform(0.0, 4.0, size=d)
            got = density_at(data, x, b)
            want = _naive_density(data, x, b)
            assert got == pytest.approx(want, rel=1e-12)

    def test_scalar_bandwidth_broadcast(self):
        data = _sample(2)
        x = [1.0, 2.0]
        assert density_at(data, x, 0.15) == density_at(data, x, [0.15, 0.15])

    def test_single_observation(self):
        # n = 1: the estimate is the kernel product itself
        got = density_at([[1.5]], [1.0], [0.2])
        assert got == pytest.approx(kernel_eval(1.5, 1.0, 0.2), rel=1e-14)

    def test_nonnegative_everywhere(self):
        data = _sample(2, n=50)
        rng = np.random.Generator(np.random.Philox(key=3))
        for _ in range(20):
            x = rng.uniform(0.0, 6.0, size=2)
            assert density_at(data, x, 0.1) >= 0.0

    def test_rejects_negative_data(self):
        with pytest.raises(ValueError, match="row 1, column 0"):
            density_at([[1.0], [-0.5]], [1.0], 0.1)

    def test_rejects_wrong_point_dimension(self):
        for x in ([1.0], [1.0, 1.0, 1.0], 1.0):
            with pytest.raises(ValueError, match="coordinate axes"):
                density_at(_sample(2), x, 0.1)
        # and a point with a negative or non-finite coordinate
        for coord in (-0.5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="axis 1 must be"):
                density_at(_sample(2), [1.0, coord], 0.1)
            with pytest.raises(ValueError, match="axis 1 must be"):
                density_partial_at(_sample(2), [1.0, coord], 0.1, axis=0)

    def test_rejects_bad_bandwidth(self):
        for b in (0.0, -0.1, np.nan, [0.1, np.nan], np.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                density_at(_sample(2), [1.0, 1.0], b)
            with pytest.raises(ValueError, match="finite and > 0"):
                density_partial_at(_sample(2), [1.0, 1.0], b, axis=1)
        with pytest.raises(ValueError, match="length-1"):
            density_at(_sample(1), [1.0], [0.1, 0.2])


class TestDensityPartialAt:
    @pytest.mark.parametrize("d,axis", [(1, 0), (2, 0), (2, 1), (3, 2)])
    def test_matches_brute_force(self, d, axis):
        data = _sample(d)
        b = np.linspace(0.1, 0.2, d)
        rng = np.random.Generator(np.random.Philox(key=55))
        for _ in range(10):
            x = rng.uniform(0.05, 4.0, size=d)
            got = density_partial_at(data, x, b, axis)
            want = _naive_partial(data, x, b, axis)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_at_origin_coordinate(self):
        data = _sample(2)
        assert density_partial_at(data, [0.0, 1.0], 0.1, axis=0) == 0.0

    def test_matches_finite_difference_of_density(self):
        # the derivative estimator is the exact x-partial of density_at
        data = _sample(1, n=100)
        x, b, h = np.array([1.3]), [0.2], 1e-6
        fd = (density_at(data, x + h, b) - density_at(data, x - h, b)) / (2 * h)
        got = density_partial_at(data, x, b, axis=0)
        assert got == pytest.approx(fd, rel=1e-6)

    def test_zero_data_on_axis_takes_exact_limit(self):
        # K L ~ t^(rho-1) ln t -> 0 as t -> 0 (rho > 1 for x > 0), so a
        # zero on the derivative axis adds nothing but still counts in n
        data = np.array([[1.0, 0.5], [2.0, 0.0]])
        pos = data[data[:, 1] > 0.0]
        b = np.array([0.1, 0.1])
        # boundary and interior branch; at 1e-9 the boundary shape
        # rounds to 1, so K(0) = 1/b and only the weight gives 0
        for xa in (1e-9, 0.15, 1.0):
            want = (_naive_partial(pos, [1.0, xa], b, 1) * len(pos)
                    / len(data))
            got = density_partial_at(data, [1.0, xa], b, axis=1)
            assert got == pytest.approx(want, rel=1e-12)
            assert got != 0.0
        axes = [np.array([1.0]), np.array([0.0, 0.15, 1.0])]
        field = field_on_grid(data, axes, b, kind="derivative", axis=1)
        assert np.all(np.isfinite(field.values))
        for coords, value in _nodes(field):
            assert value == pytest.approx(
                density_partial_at(data, list(coords), b, 1), rel=1e-12)
        # zero on the other axis is an ordinary kernel argument
        assert np.isfinite(density_partial_at(data, [1.0, 1.0], b, axis=0))

    def test_rejects_bad_axis(self):
        for axis in (2, -1, 5):
            with pytest.raises(ValueError, match="out of range"):
                density_partial_at(_sample(2), [1.0, 1.0], 0.1, axis=axis)


class TestLogDensityDerivative:
    def test_is_ratio_of_parts(self):
        data = _sample(1)
        res = log_density_derivative_at(data, [1.0], [0.15], [0.25], axis=0)
        assert not res.truncated
        assert res.value == pytest.approx(res.derivative / res.density)
        assert res.density == pytest.approx(density_at(data, [1.0], [0.15]))
        assert res.derivative == pytest.approx(
            density_partial_at(data, [1.0], [0.25], axis=0))

    def test_truncation_far_from_data(self):
        res = log_density_derivative_at(
            [[0.5]], [400.0], [0.05], [0.05], axis=0)
        assert res.truncated
        assert np.isfinite(res.value)


class TestFragment:
    def test_windows(self):
        out = fragment([1.0, 2.0, 3.0, 4.0], tau=2)
        np.testing.assert_array_equal(out, [[1, 2, 3], [2, 3, 4]])

    def test_tau_zero_is_column(self):
        out = fragment([3.0, 1.0], tau=0)
        np.testing.assert_array_equal(out, [[3.0], [1.0]])

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            fragment([1.0, 2.0], tau=2)

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            fragment([1.0, 2.0], tau=-1)


class TestFieldOnGrid:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_pointwise_density(self, d):
        data = _sample(d, n=60)
        axes = [np.linspace(0.0, 3.0, 4 + j) for j in range(d)]
        b = 0.15
        field = field_on_grid(data, axes, b, kind="density")
        for coords, value in _nodes(field):
            assert value == pytest.approx(
                density_at(data, list(coords), b), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("d,axis", [(1, 0), (2, 1), (3, 0)])
    def test_matches_pointwise_derivative(self, d, axis):
        data = _sample(d, n=60)
        axes = [np.linspace(0.0, 3.0, 4) for _ in range(d)]
        field = field_on_grid(data, axes, 0.15, kind="derivative", axis=axis)
        for coords, value in _nodes(field):
            assert value == pytest.approx(
                density_partial_at(data, list(coords), 0.15, axis),
                rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("kind,d,axis", [
        ("density", 2, None), ("density", 3, None),
        ("derivative", 2, 0), ("derivative", 2, 1), ("derivative", 3, 1),
    ])
    def test_matches_brute_force(self, kind, d, axis):
        # the grid contraction against the literal per-observation terms,
        # within 1e-12 of the mean |term| (signed sums cancel)
        data = _sample(d, n=40)
        axes = [np.linspace(0.0, 3.0, 3 + j) for j in range(d)]
        b = np.linspace(0.1, 0.2, d)
        field = field_on_grid(data, axes, b, kind=kind, axis=axis)
        for coords, value in _nodes(field):
            if kind == "density":
                terms = np.array([_naive_density(row[None, :], coords, b)
                                  for row in data])
            else:
                terms = _naive_partial_terms(data, coords, b, axis)
            tol = 1e-12 * np.mean(np.abs(terms))
            assert abs(value - terms.mean()) <= tol

    def test_default_derivative_axis_is_last(self):
        data = _sample(2, n=40)
        axes = [np.array([0.5, 1.0]), np.array([0.5, 1.5])]
        a = field_on_grid(data, axes, 0.2, kind="derivative")
        b = field_on_grid(data, axes, 0.2, kind="derivative", axis=1)
        np.testing.assert_array_equal(a.values, b.values)

    def test_sample_permutation_invariance(self):
        data = _sample(2, n=80)
        axes = [np.linspace(0.1, 2.0, 5)] * 2
        rng = np.random.Generator(np.random.Philox(key=9))
        shuffled = data[rng.permutation(len(data))]
        a = field_on_grid(data, axes, 0.1).values
        b = field_on_grid(shuffled, axes, 0.1).values
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_rejects_decreasing_axis(self):
        for nodes in ([1.0, 0.5], [0.5, np.nan], [0.5, np.inf], []):
            with pytest.raises(ValueError, match="axis 0"):
                field_on_grid(_sample(1), [np.array(nodes)], 0.1)

    def test_rejects_axis_count_mismatch(self):
        with pytest.raises(ValueError):
            field_on_grid(_sample(2), [np.array([1.0])], 0.1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be 'density' or "
                           "'derivative'"):
            field_on_grid(_sample(1), [np.linspace(0.1, 1.0, 5)], 0.1,
                          kind="log")


def _one_pass_mats(data, axes, b, axis):
    """Per-axis (node x sample) matrices over the whole sample at once."""
    mats = []
    for j, nodes in enumerate(axes):
        col = data[:, j]
        mat = np.exp(log_kernel_eval(col[None, :], nodes[:, None], b[j]))
        if j == axis:
            pos = col > 0.0
            c = node_terms(nodes, b[j], grad=True).slope[:, None] * l_term(
                np.where(pos, col, 1.0)[None, :], nodes[:, None], b[j])
            mat *= np.where((nodes > 0.0)[:, None] & pos, c, 0.0)
        mats.append(mat)
    return mats


def _one_pass(data, axes, b, axis):
    """The unchunked field and, per node, the mean |term| of its sum."""
    mats = _one_pass_mats(data, axes, b, axis)
    if len(mats) == 1:
        return mats[0].mean(axis=1), np.abs(mats[0]).mean(axis=1)
    letters = "abcd"[: len(mats)]
    spec = ",".join(a + "z" for a in letters) + "->" + letters
    n = data.shape[0]
    return (np.einsum(spec, *mats) / n,
            np.einsum(spec, *[np.abs(m) for m in mats]) / n)


def _field_peak(kind):
    """tracemalloc peak of a field whose whole kernel matrix is 320 MB."""
    data = _sample(1, n=200_000)
    data[::5] = 0.0
    axes = [np.linspace(0.0, 12.0, 200)]
    tracemalloc.start()
    try:
        field_on_grid(data, axes, 0.1, kind=kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _force_blocks(monkeypatch, cpus):
    """Split every field run on the main thread over ``cpus`` threads."""
    monkeypatch.setattr(estimator, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(estimator, "_SPLIT_ELEMS", 0)


class TestChunkedEngine:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 129, 1000, 4097])
    @pytest.mark.parametrize("kind", ["density", "derivative"])
    def test_d1_identical_to_one_pass_mean(self, monkeypatch, kind, n):
        data = _sample(1, n=n, seed=n)
        data[::5] = 0.0  # exact zeros on the derivative axis
        axes = [np.linspace(0.0, 6.0, 40)]
        axis = 0 if kind == "derivative" else None
        want, _ = _one_pass(data, axes, np.array([0.2]), axis)
        # the smallest chunks the engine takes: 128 rows
        monkeypatch.setattr(estimator, "_CHUNK_ELEMS", 1)
        got = field_on_grid(data, axes, 0.2, kind=kind).values
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [127, 128, 129, 255, 256, 257, 1025])
    @pytest.mark.parametrize("kind", ["density", "derivative"])
    def test_d1_identical_to_one_pass_mean_at_shipped_chunks(self, kind, n):
        # 8192 nodes set cols = 2^20 // 8192 = 128 with the shipped
        # constants, so these n sit on both sides of the sizes at which
        # the rows split into 2 and then 3 chunks, and one n far beyond
        axes = [np.linspace(0.0, 6.0, 8192)]
        assert max(estimator._PAIRWISE_BLOCK,
                   estimator._CHUNK_ELEMS // axes[0].size) == 128
        data = _sample(1, n=n, seed=n)
        data[::5] = 0.0
        axis = 0 if kind == "derivative" else None
        b = np.array([0.2])
        # the one-pass reference a slice of nodes at a time, to bound its
        # memory; each row's mean does not depend on the other rows
        want = np.concatenate([
            _one_pass_mats(data, [nodes], b, axis)[0].mean(axis=1)
            for nodes in np.split(axes[0], 16)])
        got = field_on_grid(data, axes, b, kind=kind).values
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind,d,axis", [
        ("density", 2, None), ("density", 3, None), ("density", 4, None),
        ("derivative", 2, 0), ("derivative", 3, 2), ("derivative", 4, 0),
        ("derivative", 4, 3),
    ])
    def test_multivariate_matches_one_pass(self, monkeypatch, kind, d, axis):
        data = _sample(d, n=1500)
        data[::7, d - 1] = 0.0
        axes = [np.linspace(0.0, 4.0, 9 - j) for j in range(d)]
        b = np.linspace(0.15, 0.25, d)
        want, scale = _one_pass(data, axes, b, axis)
        monkeypatch.setattr(estimator, "_CHUNK_ELEMS", 1)
        got = field_on_grid(data, axes, b, kind=kind, axis=axis).values
        if kind == "density":
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        else:
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("kind", ["density", "derivative"])
    def test_memory_bounded_by_chunk(self, kind):
        assert _field_peak(kind) < 32e6

    @pytest.mark.parametrize("kind", ["density", "derivative"])
    def test_memory_bounded_by_chunk_with_node_blocks(self, monkeypatch,
                                                      pool_sizes, kind):
        _force_blocks(monkeypatch, 4)
        assert _field_peak(kind) < 32e6
        assert pool_sizes == [4]

    def test_threads_share_no_workspace(self, monkeypatch):
        # 33 chunks per call, each written into the workspace of its call;
        # a workspace shared between calls would mix the threads' chunks
        data = _sample(1, n=4097, seed=3)
        data[::5] = 0.0
        axes = [np.linspace(0.0, 6.0, 40)]
        monkeypatch.setattr(estimator, "_CHUNK_ELEMS", 1)
        want = field_on_grid(data, axes, 0.2, kind="derivative").values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(field_on_grid, data, axes, 0.2,
                                       kind="derivative")
                           for _ in range(32)]
                got = [f.result(timeout=60).values for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for values in got:
            assert values.tobytes() == want.tobytes()


class TestNodeBlocks:
    """1-d fields cut into blocks of nodes, one thread per block; fields
    of d >= 2 stay on the calling thread."""

    @pytest.mark.parametrize("chunk", [None, 1], ids=["default", "smallest"])
    @pytest.mark.parametrize("m0", [1, 2, 3, 7])
    @pytest.mark.parametrize("d,axis", [
        (1, None), (1, 0), (2, None), (2, 0), (2, 1),
        (3, None), (3, 0), (3, 2),
    ])
    def test_bytes_equal_one_block(self, monkeypatch, pool_sizes, d, axis,
                                   m0, chunk):
        data = _sample(d, n=1500, seed=m0)
        data[::7, 0] = 0.0
        data[::5, d - 1] = 0.0
        first = np.linspace(0.0, 4.0, m0) if m0 > 1 else np.array([0.7])
        axes = [first] + [np.linspace(0.0, 4.0, 6 - j) for j in range(1, d)]
        b = np.linspace(0.15, 0.25, d)
        kind = "density" if axis is None else "derivative"
        if chunk is not None:
            # chunks of at most 128 rows, four levels down the split
            monkeypatch.setattr(estimator, "_CHUNK_ELEMS", chunk)
        _force_blocks(monkeypatch, 1)
        want = field_on_grid(data, axes, b, kind=kind, axis=axis).values
        for cpus in (2, 3, 4):
            _force_blocks(monkeypatch, cpus)
            pool_sizes.clear()
            got = field_on_grid(data, axes, b, kind=kind, axis=axis).values
            assert got.tobytes() == want.tobytes()
            assert pool_sizes == ([min(cpus, m0)] if d == 1 and m0 > 1
                                  else [])

    def test_blocks_under_frequent_switches(self, monkeypatch):
        # 8 blocks on more threads than cores, switching every microsecond,
        # each writing its own workspace chunk after chunk; a workspace
        # shared between blocks would mix the nodes
        data = _sample(1, n=4097, seed=3)
        data[::5] = 0.0
        axes = [np.linspace(0.0, 6.0, 40)]
        monkeypatch.setattr(estimator, "_CHUNK_ELEMS", 1)
        _force_blocks(monkeypatch, 1)
        want = field_on_grid(data, axes, 0.2, kind="derivative", axis=0)
        _force_blocks(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [field_on_grid(data, axes, 0.2, kind="derivative", axis=0)
                   for _ in range(4)]
        finally:
            sys.setswitchinterval(interval)
        for field in got:
            assert field.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("run", [1, 2, 5])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("d,axis", [
        (1, None), (1, 0), (2, 0), (2, 1), (3, None), (3, 2), (4, None),
        (4, 1),
    ])
    def test_runs_bytes_equal_one_run(self, monkeypatch, pool_sizes, d,
                                      axis, cpus, run):
        data = _sample(d, n=300, seed=d)
        data[::7, 0] = 0.0
        axes = [np.linspace(0.0, 4.0, 11)] + [np.linspace(0.0, 4.0, 6 - j)
                                              for j in range(1, d)]
        kind = "density" if axis is None else "derivative"
        # chunks of 128 rows, so the tiles also meet the row split; one
        # tile holds a whole axis
        monkeypatch.setattr(estimator, "_CHUNK_ELEMS", 1)
        _force_blocks(monkeypatch, cpus)
        want = field_on_grid(data, axes, 0.2, kind=kind, axis=axis).values
        pool_sizes.clear()
        # tiles of `run` nodes of 128 columns, on every axis
        monkeypatch.setattr(estimator, "_TILE_ELEMS", 128 * run)
        got = field_on_grid(data, axes, 0.2, kind=kind, axis=axis).values
        assert got.tobytes() == want.tobytes()
        # the tiles of a block stay on its thread
        assert pool_sizes == ([cpus] if d == 1 and cpus > 1 else [])

    def test_axis0_matrices_stay_under_huge_page_size(self, monkeypatch):
        # the largest Monte Carlo field: 200 nodes by 4000 observations,
        # whose 6.4 MB matrices numpy would back with huge pages, in
        # tiles of 32 nodes: one workspace holds the kernel tile and the
        # weight tile
        data = _sample(1, n=4000)
        data[::5] = 0.0
        axes = [np.linspace(0.0, 8.0, 200)]
        sizes = []
        empty = np.empty

        def recording_empty(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recording_empty)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(field_on_grid, data, axes, 0.2, kind="derivative",
                        axis=0).result()
        assert sizes == [2 * 32 * 4000]
        assert 32 * 4000 <= estimator._TILE_ELEMS
        assert 2 * 32 * 4000 <= (1 << 19) - 1
        # nor does any temporary exceed a tile: the field's peak is the
        # two tiles and the per-row and per-node terms
        tracemalloc.start()
        try:
            field_on_grid(data, axes, 0.2, kind="derivative", axis=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * estimator._TILE_ELEMS

    @pytest.mark.parametrize("chunk", [None, 1], ids=["default", "smallest"])
    @pytest.mark.parametrize("d,axis", [
        (2, None), (2, 0), (2, 1), (3, None), (3, 0), (3, 2), (4, None),
        (4, 3),
    ])
    def test_each_axis_evaluated_once_per_chunk(self, monkeypatch,
                                                pool_sizes, d, axis, chunk):
        # n * sum_j m_j kernel values per field, and the weights along
        # the derivative axis only, whatever the chunk count; the node
        # terms once per field, the row terms once per chunk and axis;
        # the field stays on this thread with four usable CPUs
        n = 1500
        data = _sample(d, n=n, seed=d)
        data[::5, d - 1] = 0.0
        axes = [np.linspace(0.0, 4.0, 7)] + [np.linspace(0.0, 4.0, 6 - j)
                                             for j in range(1, d)]
        evaluated = {"kernel": 0, "weights": 0, "nodes": 0, "rows": 0}
        kernel_into = estimator.kernel_into
        node_terms = estimator.node_terms
        obs_terms = estimator.obs_terms

        def count_kernel(nodes, obs, out, work=None):
            evaluated["kernel"] += out.size
            evaluated["weights"] += 0 if nodes.psi is None else out.size
            return kernel_into(nodes, obs, out, work)

        def count_nodes(x, *args):
            evaluated["nodes"] += x.size
            return node_terms(x, *args)

        def count_rows(t, *args):
            evaluated["rows"] += t.size
            return obs_terms(t, *args)

        monkeypatch.setattr(estimator, "kernel_into", count_kernel)
        monkeypatch.setattr(estimator, "node_terms", count_nodes)
        monkeypatch.setattr(estimator, "obs_terms", count_rows)
        if chunk is not None:
            monkeypatch.setattr(estimator, "_CHUNK_ELEMS", chunk)
        # tiles of at most 2 nodes
        monkeypatch.setattr(estimator, "_TILE_ELEMS", 256)
        _force_blocks(monkeypatch, 4)
        kind = "density" if axis is None else "derivative"
        field_on_grid(data, axes, 0.2, kind=kind, axis=axis)
        assert evaluated["kernel"] == n * sum(a.size for a in axes)
        assert evaluated["weights"] == (0 if axis is None
                                        else n * axes[axis].size)
        assert evaluated["nodes"] == sum(a.size for a in axes)
        assert evaluated["rows"] == n * d
        assert pool_sizes == []

    def test_product_slab_stays_under_huge_page_size(self, monkeypatch):
        # the 25^3 lag-series grid over 3000 rows: the product of all
        # axis-0 nodes with the axis-1 matrix would take 15 MB, that of
        # one node 600 kB; the axis-0 tile and the weight tile share one
        # workspace of 1.2 MB
        data = _sample(3, n=3000)
        axes = [np.linspace(0.2, 8.0, 25)] * 3
        # floats under 4 MiB, from which numpy asks for huge pages
        assert 25 * 25 * 3000 > (1 << 19) - 1
        sizes = []
        empty = np.empty

        def recording_empty(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recording_empty)
        _force_blocks(monkeypatch, 2)
        field_on_grid(data, axes, 0.4, kind="derivative", axis=0)
        assert max(sizes) == 2 * 25 * 3000 <= (1 << 19) - 1

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_node_workspaces_stay_under_huge_page_size(self, monkeypatch,
                                                           d):
        # a one-node grid puts the whole chunk in one node's row; over
        # 600,000 rows a row alone would reach 2^19 floats
        data = _sample(d, n=600_000)
        sizes = []
        empty = np.empty

        def recording_empty(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recording_empty)
        density_partial_at(data, [3.0] * d, 0.2, d - 1)
        assert sizes and max(sizes) <= (1 << 19) - 1

    def test_multivariate_non_finite_field_raises_without_warning(
            self, monkeypatch, pool_sizes):
        # as the 1-d field on node blocks below, on the calling thread
        _force_blocks(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="not finite at 4 of 4 nodes"):
                field_on_grid([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]],
                              [np.array([1e6, 2e6])] * 2, 1e-300)
        assert pool_sizes == []

    def test_small_fields_stay_serial(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 4)
        # 1500 x 35 kernel values, below the 2^20 threshold
        data = _sample(2, n=1500)
        field_on_grid(data[:, :1], [np.linspace(0.0, 4.0, 35)], 0.2)
        assert pool_sizes == []
        field_on_grid(data[:, :1], [np.linspace(0.0, 4.0, 700)], 0.2)
        assert pool_sizes == [4]
        # above it, but d = 2
        field_on_grid(data, [np.linspace(0.0, 4.0, 700),
                             np.linspace(0.0, 4.0, 5)], 0.2)
        assert pool_sizes == [4]

    def test_fields_off_the_main_thread_stay_serial(self, monkeypatch,
                                                    pool_sizes):
        _force_blocks(monkeypatch, 4)
        data = _sample(1, n=300)
        axes = [np.linspace(0.0, 4.0, 7)]
        with ThreadPoolExecutor(max_workers=1) as pool:
            got = pool.submit(field_on_grid, data, axes, 0.2).result()
        assert pool_sizes == []
        want = field_on_grid(data, axes, 0.2)
        assert pool_sizes == [4]
        assert got.values.tobytes() == want.values.tobytes()

    def test_non_finite_field_raises_without_warning(self, monkeypatch,
                                                     pool_sizes):
        # x/b = 1e306 and 2e306 are finite, but r ln b overflows and the
        # log kernel is inf - inf at both nodes
        _force_blocks(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="not finite at 2 of 2 nodes"):
                field_on_grid([[1.0], [2.0], [0.5]],
                              [np.array([1e6, 2e6])], 1e-300)
        assert pool_sizes == [2]


class TestBlasHold:
    """d >= 2 contractions end in a GEMM on numpy's bundled OpenBLAS, held
    at one thread while a field runs, or in an einsum without it."""

    @pytest.fixture
    def blas(self):
        """The hold, with BLAS at 2 threads so that the hold shows."""
        blas = estimator._BLAS
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS was not found")
        old = blas.get()
        blas.set(2)
        try:
            yield blas
        finally:
            blas.set(old)

    @staticmethod
    def _record(monkeypatch, seen):
        """Record the left matrix and the BLAS thread count of every
        contraction."""
        contract = estimator._contract

        def recording(first, *args, **kwargs):
            blas = estimator._BLAS
            seen.append((first.shape, None if blas is None else blas.get()))
            return contract(first, *args, **kwargs)

        monkeypatch.setattr(estimator, "_contract", recording)

    @pytest.mark.parametrize("kind,d,axis", [
        ("density", 2, None), ("density", 3, None), ("derivative", 2, 0),
        ("derivative", 3, 2),
    ])
    def test_einsum_without_the_library(self, monkeypatch, kind, d, axis):
        data = _sample(d, n=1500)
        data[::7, d - 1] = 0.0
        axes = [np.linspace(0.0, 4.0, 9 - j) for j in range(d)]
        b = np.linspace(0.15, 0.25, d)
        want, scale = _one_pass(data, axes, b, axis)
        calls = {"einsum": 0}
        einsum = np.einsum

        def counting_einsum(*args, **kwargs):
            calls["einsum"] += 1
            return einsum(*args, **kwargs)

        def no_matmul(*args, **kwargs):
            raise AssertionError("matmul called without the library")

        monkeypatch.setattr(estimator, "_BLAS", None)
        monkeypatch.setattr(np, "einsum", counting_einsum)
        monkeypatch.setattr(np, "matmul", no_matmul)
        monkeypatch.setattr(estimator, "_CHUNK_ELEMS", 1)
        got = field_on_grid(data, axes, b, kind=kind, axis=axis).values
        assert calls["einsum"] > 0
        if kind == "density":
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        else:
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_one_thread_while_a_field_runs(self, monkeypatch, blas):
        data = _sample(2, n=300)
        axes = [np.linspace(0.0, 4.0, 9), np.linspace(0.0, 4.0, 7)]
        seen = []
        self._record(monkeypatch, seen)
        field_on_grid(data, axes, 0.2, kind="derivative")
        assert seen and {threads for _, threads in seen} == {1}
        assert blas.get() == 2
        # a 1-d field leaves BLAS alone
        seen.clear()
        field_on_grid(data[:, :1], axes[:1], 0.2)
        assert seen and {threads for _, threads in seen} == {2}

    def test_count_restored_after_a_field_raises(self, monkeypatch, blas):
        with pytest.raises(ValueError, match="not finite at 4 of 4 nodes"):
            field_on_grid([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]],
                          [np.array([1e6, 2e6])] * 2, 1e-300)
        assert blas.get() == 2

        def failing(*args, **kwargs):
            assert blas.get() == 1
            raise RuntimeError("contraction failed")

        monkeypatch.setattr(estimator, "_contract", failing)
        with pytest.raises(RuntimeError, match="contraction failed"):
            field_on_grid(_sample(2, n=50), [np.linspace(0.1, 4.0, 5)] * 2,
                          0.2)
        assert blas.get() == 2

    def test_count_restored_after_concurrent_fields(self, monkeypatch, blas):
        # 32 fields on 8 threads, switching every microsecond, enter and
        # leave the hold in every order; each of their GEMM blocks (5 of
        # 8 nodes, cols = 2^20 // 70) sees one BLAS thread
        data = _sample(2, n=400, seed=5)
        axes = [np.linspace(0.0, 4.0, 40), np.linspace(0.0, 4.0, 30)]
        want = field_on_grid(data, axes, 0.2, kind="derivative").values
        seen = []
        self._record(monkeypatch, seen)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = estimator._thread_map(
                lambda _: field_on_grid(data, axes, 0.2,
                                        kind="derivative").values,
                range(32), 8)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 32 * 5
        assert {threads for _, threads in seen} == {1}
        assert blas.get() == 2
        for values in got:
            assert values.tobytes() == want.tobytes()

    def test_gemm_blocks_from_the_grid_alone(self, monkeypatch):
        # 120 axis-0 nodes, cols = 2^20 // 240 = 4369: four GEMM blocks of
        # 30 nodes over 300 rows, whatever the tile size or the CPU count
        data = _sample(2, n=300)
        axes = [np.linspace(0.0, 4.0, 120), np.linspace(0.0, 4.0, 120)]
        seen = []
        self._record(monkeypatch, seen)
        want = field_on_grid(data, axes, 0.2, kind="derivative", axis=0)
        assert [shape for shape, _ in seen] == [(30, 300)] * 4
        for tile, cpus in [(300 * 7, 1), (300, 4), (1 << 20, 4)]:
            monkeypatch.setattr(estimator, "_TILE_ELEMS", tile)
            _force_blocks(monkeypatch, cpus)
            seen.clear()
            got = field_on_grid(data, axes, 0.2, kind="derivative", axis=0)
            assert [shape for shape, _ in seen] == [(30, 300)] * 4
            assert got.values.tobytes() == want.values.tobytes()


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _both_loaders(path):
    with open(path) as fh:
        fast = estimator._load_fast(path, fh)
    with open(path) as fh:
        slow = estimator._load_lines(path, fh)
    return fast, slow


class TestIO:
    def test_round_trip_sample(self, tmp_path):
        data = _sample(2, n=25)
        p = tmp_path / "s.csv"
        np.savetxt(p, data, delimiter=",", fmt="%.16e")
        np.testing.assert_array_equal(load_sample(p), data)

    def test_header_and_whitespace(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("a b\n1.0 2.0\n3.0 4.0\n")
        np.testing.assert_array_equal(load_sample(p), [[1, 2], [3, 4]])

    def test_parse_error_has_line_number(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n2.0\noops\n")
        with pytest.raises(ValueError, match=":3:"):
            load_sample(p)

    def test_negative_error_has_location(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,2.0\n1.0,-2.0\n")
        with pytest.raises(ValueError, match=":2:.*column 1"):
            load_sample(p)

    @pytest.mark.parametrize("text,where", [
        ("1.0\n2.0\nnan\n", ":3: non-finite value in column 0"),
        ("1.0,2.0\n3.0,4.0\n5.0,inf\n", ":3: non-finite value in column 1"),
        ("x\n1.0\n-inf\n", ":3: non-finite value in column 0"),
    ], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_error_has_location(self, tmp_path, text, where):
        p = _write(tmp_path / "s.csv", text)
        with pytest.raises(ValueError, match=where):
            load_sample(p)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="expected 2 columns"):
            load_sample(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# just a comment\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_sample(p)

    @pytest.mark.parametrize("text", [
        "1.5,2.0\n3.0,4.25\n",
        "1.5 2.0\n  3.0   4.25  \n",
        "1.5\t2.0\n3.0\t\t4.25\n",
        "1.5,2.0\r\n3.0,4.25\r\n",
        "x,y\n1.5,2.0\n3.0,4.25\n",
        "a b\n\n1.5 2.0\n\n3.0 4.25\n\n",
        "# comment\n\n# more\n1.5,2.0\n3.0, 4.25\n",
        "1.0,2.0 # note\n3.0,4.0\n",
        "0.0\n1e-3\n2.5E+2\n",
    ], ids=["commas", "spaces", "tabs", "crlf", "header", "blank-lines",
            "leading-comments", "inline-comment", "one-column"])
    def test_fast_loader_matches_line_parser(self, tmp_path, text):
        p = _write(tmp_path / "s.txt", text)
        fast, slow = _both_loaders(p)
        assert fast is not None
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()
        np.testing.assert_array_equal(load_sample(p), slow)

    def test_non_ascii_header_skipped_by_loadtxt(self, tmp_path):
        # written in the encoding that open() reads with, as a user's
        # editor would; loadtxt reads the path in that encoding too
        p = tmp_path / "s.csv"
        try:
            with open(p, "w", newline="") as fh:
                fh.write("température (°C),durée\n1.5,2.0\n3.0,4.25\n")
        except UnicodeEncodeError:
            pytest.skip("the locale's encoding has no 'é' or '°'")
        fast, slow = _both_loaders(p)
        assert fast is not None
        assert fast.tobytes() == slow.tobytes()
        np.testing.assert_array_equal(load_sample(p), [[1.5, 2.0],
                                                       [3.0, 4.25]])

    @pytest.mark.parametrize("text,want", [
        ("# comment\n1.5,2.0\n#\n3.0, 4.25\n# end\n",
         [[1.5, 2.0], [3.0, 4.25]]),
        ("1.0,2.0\n3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1.0,2.0\n   \n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1_000\n2\n", [[1000.0], [2.0]]),
    ], ids=["comment-lines", "mixed-delimiters", "blank-with-spaces",
            "underscores"])
    def test_line_parser_decides_where_loadtxt_differs(self, tmp_path,
                                                        text, want):
        p = _write(tmp_path / "s.txt", text)
        fast, slow = _both_loaders(p)
        assert fast is None
        np.testing.assert_array_equal(slow, want)
        np.testing.assert_array_equal(load_sample(p), want)

    @pytest.mark.parametrize("text", ["", "# just a comment\n", "x,y\n"],
                             ids=["empty", "comment-only", "header-only"])
    def test_no_rows_rejected_without_warning(self, tmp_path, text):
        p = _write(tmp_path / "s.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_sample(p)

    def test_save_field_round_trip(self, tmp_path):
        data = _sample(2, n=30)
        axes = [np.linspace(0.2, 1.0, 3), np.linspace(0.2, 1.0, 4)]
        field = field_on_grid(data, axes, 0.2)
        p = tmp_path / "f.csv"
        save_field(field, p)
        rows = np.loadtxt(p, delimiter=",")
        assert rows.shape == (12, 3)
        for row, (coords, value) in zip(rows, _nodes(field)):
            np.testing.assert_allclose(row[:2], coords, rtol=1e-15)
            assert row[2] == pytest.approx(value, rel=1e-15)

    @staticmethod
    def _literal_bytes(field):
        # one line per node, formatted where it is visited
        lines = []
        for idx in np.ndindex(field.values.shape):
            cells = [f"{field.axes[j][i]:.16e}" for j, i in enumerate(idx)]
            cells.append(f"{field.values[idx]:.16e}")
            lines.append(",".join(cells) + "\n")
        return "".join(lines).encode()

    @pytest.mark.parametrize("case", ["derivative-2d", "density-3d", "tail"])
    def test_save_field_bytes(self, tmp_path, case):
        if case == "derivative-2d":
            # negative values, and exact zeros on the x = 0 row of axis 1
            axes = [np.linspace(0.0, 3.0, 7), np.linspace(0.0, 3.0, 9)]
            field = field_on_grid(_sample(2, n=50), axes, 0.2,
                                  kind="derivative")
            assert np.all(field.values[:, 0] == 0.0)
            assert np.any(field.values < 0.0)
        elif case == "density-3d":
            axes = [np.linspace(0.1, 3.0, 4 + j) for j in range(3)]
            field = field_on_grid(_sample(3, n=50), axes, 0.3)
        else:
            field = FieldOnGrid([np.array([0.0, 1.0, 700.0])],
                                np.array([0.0, 1.5, 5.5e-319]), "density")
        p = tmp_path / "f.csv"
        save_field(field, p)
        assert p.read_bytes() == self._literal_bytes(field)


def _old_writer_bytes(field):
    # '%.16e' cells joined as the per-row writer before the numpy one did
    *lead, last = [[f"{c:.16e}," for c in np.asarray(a).tolist()]
                   for a in field.axes]
    cells = [""] + [c + "%.16e\n" for c in last]
    rows = np.asarray(field.values).reshape(-1, len(last))
    return "".join(
        head.join(cells) % tuple(row.tolist())
        for head, row in zip(map("".join, itertools.product(*lead)), rows)
    ).encode()


def _directed_doubles():
    """Powers of two and their neighbours (exact ties among them), powers
    of ten and theirs, 9.99...95e+-k carries and the extremes."""
    vals = [5e-324, 1.7976931348623157e308, 0.0]
    for k in range(-1074, 1024):
        two = 2.0**k
        vals += [two, np.nextafter(two, 0.0), np.nextafter(two, np.inf)]
    for k in range(-323, 309):
        ten = float(f"1e{k}")
        vals += [ten, np.nextafter(ten, 0.0), np.nextafter(ten, np.inf),
                 float(f"9.99999999999999995e{k}")]
    vals = np.array(vals)
    return np.concatenate([vals, -vals])


class TestSaveField:
    """``save_field`` writes the bytes of Python's '%.16e' for every cell."""

    @staticmethod
    def _check(tmp_path, field):
        p = tmp_path / "f.csv"
        save_field(field, p)
        assert p.read_bytes() == _old_writer_bytes(field)

    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40))
    def test_any_finite_double(self, tmp_path_factory, vals):
        # +-0 and subnormals included; the values are the coordinates too
        self._check(tmp_path_factory.mktemp("f"),
                    FieldOnGrid([vals], np.array(vals), "density"))

    def test_random_bit_patterns(self, tmp_path):
        # 10^6 doubles of uniform random bits, nan and inf among them, in
        # fields of 10^5 lines
        rng = np.random.default_rng(7)
        nodes = [np.arange(250.0), np.arange(400.0)]
        for _ in range(10):
            bits = rng.integers(0, 2**64, (250, 400), dtype=np.uint64,
                                endpoint=False)
            self._check(tmp_path, FieldOnGrid(nodes, bits.view(np.float64),
                                              "density"))

    def test_directed_doubles(self, tmp_path):
        vals = _directed_doubles()
        self._check(tmp_path, FieldOnGrid([vals], vals, "density"))

    def test_list_axes_float32_and_non_finite(self, tmp_path):
        rng = np.random.default_rng(8)
        self._check(tmp_path, FieldOnGrid(
            [[0, 0.5, 2], [1, 3.25]], rng.normal(size=(3, 2)), "density"))
        self._check(tmp_path, FieldOnGrid(
            [np.linspace(0.0, 1.0, 5)],
            rng.gamma(3.0, size=5).astype(np.float32), "density"))
        self._check(tmp_path, FieldOnGrid(
            [np.arange(2.0), np.arange(3.0)],
            np.array([[np.nan, np.inf, -np.inf], [1.0, -np.nan, 0.0]]),
            "derivative"))

    @pytest.mark.parametrize("lines", [1, 7, 40, 1 << 12, 1 << 20])
    def test_bytes_do_not_depend_on_block_size(self, tmp_path, monkeypatch,
                                               lines):
        # 2 x 30 x 50 = 3,000 lines: whole rows of 50 lines, or parts of
        # a row where a block is shorter than one
        rng = np.random.default_rng(9)
        axes = [np.array([0.0, 1e-300]), np.linspace(0.1, 5.0, 30),
                np.geomspace(1e-120, 1e120, 50)]
        values = rng.normal(size=(2, 30, 50)) * 10.0 ** rng.integers(
            -300, 300, (2, 30, 50))
        monkeypatch.setattr(estimator, "_WRITE_LINES", lines)
        self._check(tmp_path, FieldOnGrid(axes, values, "derivative"))

    def test_shape_must_match_axes(self, tmp_path):
        # (4, 3) values on axes of 3 and 4 nodes would reshape silently
        field = FieldOnGrid([np.arange(3.0), np.arange(4.0)],
                            np.zeros((4, 3)), "density")
        p = tmp_path / "f.csv"
        with pytest.raises(ValueError, match=r"\(4, 3\).*\(3, 4\)"):
            save_field(field, p)
        assert not p.exists()


class TestAsSample:
    def test_promotes_1d(self):
        assert as_sample([1.0, 2.0]).shape == (2, 1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_sample([[np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_sample(np.empty((0, 2)))
