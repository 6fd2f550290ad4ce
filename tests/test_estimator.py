"""Estimator tests against a naive double-loop oracle.

The oracle evaluates the kernel products literally, one sample point and
one coordinate at a time, without log-space accumulation or shared
kernel matrices. Agreement is required to near machine precision.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from gammakde import estimator
from gammakde.estimator import (
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
    grad_prefactor,
    kernel_eval,
    l_term,
    log_kernel_eval,
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
        terms.append(grad_prefactor(x[axis], b[axis]) * l_term(
            row[axis], x[axis], b[axis]) * prod)
    return np.array(terms)


def _naive_partial(data, x, b, axis):
    return _naive_partial_terms(data, x, b, axis).sum() / data.shape[0]


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
        with pytest.raises(ValueError):
            density_at(_sample(2), [1.0], 0.1)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            density_at(_sample(1), [1.0], 0.0)
        with pytest.raises(ValueError):
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
        for xa in (0.15, 1.0):  # boundary and interior branch
            want = (_naive_partial(pos, [1.0, xa], b, 1) * len(pos)
                    / len(data))
            got = density_partial_at(data, [1.0, xa], b, axis=1)
            assert got == pytest.approx(want, rel=1e-12)
            assert got != 0.0
        axes = [np.array([1.0]), np.array([0.0, 0.15, 1.0])]
        field = field_on_grid(data, axes, b, kind="derivative", axis=1)
        assert np.all(np.isfinite(field.values))
        for coords, value in field.nodes():
            assert value == pytest.approx(
                density_partial_at(data, list(coords), b, 1), rel=1e-12)
        # zero on the other axis is an ordinary kernel argument
        assert np.isfinite(density_partial_at(data, [1.0, 1.0], b, axis=0))

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            density_partial_at(_sample(2), [1.0, 1.0], 0.1, axis=2)


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
        for coords, value in field.nodes():
            assert value == pytest.approx(
                density_at(data, list(coords), b), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("d,axis", [(1, 0), (2, 1), (3, 0)])
    def test_matches_pointwise_derivative(self, d, axis):
        data = _sample(d, n=60)
        axes = [np.linspace(0.0, 3.0, 4) for _ in range(d)]
        field = field_on_grid(data, axes, 0.15, kind="derivative", axis=axis)
        for coords, value in field.nodes():
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
        for coords, value in field.nodes():
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
        with pytest.raises(ValueError, match="axis 0"):
            field_on_grid(_sample(1), [np.array([1.0, 0.5])], 0.1)

    def test_rejects_axis_count_mismatch(self):
        with pytest.raises(ValueError):
            field_on_grid(_sample(2), [np.array([1.0])], 0.1)


def _one_pass_mats(data, axes, b, axis):
    """Per-axis (node x sample) matrices over the whole sample at once."""
    mats = []
    for j, nodes in enumerate(axes):
        col = data[:, j]
        mat = np.exp(log_kernel_eval(col[None, :], nodes[:, None], b[j]))
        if j == axis:
            pos = col > 0.0
            c = grad_prefactor(nodes, b[j])[:, None] * l_term(
                np.where(pos, col, 1.0)[None, :], nodes[:, None], b[j])
            mat *= np.where((nodes > 0.0)[:, None] & pos, c, 0.0)
        mats.append(mat)
    return mats


def _one_pass(data, axes, b, axis):
    """The unchunked field and, per node, the mean |term| of its sum."""
    mats = _one_pass_mats(data, axes, b, axis)
    if len(mats) == 1:
        return mats[0].mean(axis=1), np.abs(mats[0]).mean(axis=1)
    letters = "abc"[: len(mats)]
    spec = ",".join(a + "z" for a in letters) + "->" + letters
    n = data.shape[0]
    return (np.einsum(spec, *mats) / n,
            np.einsum(spec, *[np.abs(m) for m in mats]) / n)


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

    @pytest.mark.parametrize("kind,d,axis", [
        ("density", 2, None), ("density", 3, None),
        ("derivative", 2, 0), ("derivative", 3, 2),
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

    def test_memory_bounded_by_chunk(self):
        # the full 200 x 2e5 kernel matrix alone would take 320 MB
        data = _sample(1, n=200_000)
        axes = [np.linspace(0.0, 12.0, 200)]
        tracemalloc.start()
        try:
            field_on_grid(data, axes, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


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
        "# comment\n1.5,2.0\n#\n3.0, 4.25\n# end\n",
        "0.0\n1e-3\n2.5E+2\n",
    ], ids=["commas", "spaces", "tabs", "crlf", "header", "blank-lines",
            "comment-lines", "one-column"])
    def test_fast_loader_matches_line_parser(self, tmp_path, text):
        p = _write(tmp_path / "s.txt", text)
        fast, slow = _both_loaders(p)
        assert fast is not None
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()
        np.testing.assert_array_equal(load_sample(p), slow)

    @pytest.mark.parametrize("text,want", [
        ("1.0,2.0 # note\n3.0,4.0\n", [[3.0, 4.0]]),  # line 1: header
        ("1.0,2.0\n3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1.0,2.0\n   \n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1_000\n2\n", [[1000.0], [2.0]]),
    ], ids=["inline-comment", "mixed-delimiters", "blank-with-spaces",
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
        flat = list(field.nodes())
        for row, (coords, value) in zip(rows, flat):
            np.testing.assert_allclose(row[:2], coords, rtol=1e-15)
            assert row[2] == pytest.approx(value, rel=1e-15)


class TestAsSample:
    def test_promotes_1d(self):
        assert as_sample([1.0, 2.0]).shape == (2, 1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_sample([[np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_sample(np.empty((0, 2)))
