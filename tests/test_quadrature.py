"""Tensor-trapezoid tests against the iterated ``np.trapezoid``."""

import numpy as np

from gammakde.quadrature import tensor_axes, trapezoid_nd


def _values(axes):
    x = np.ix_(*axes)
    return np.exp(-sum(xj for xj in x)) * np.cos(sum(xj**2 for xj in x))


def test_trailing_axes_bitwise_iterated_trapezoid():
    axes = tensor_axes([(0.0, 1.0), (0.5, 2.0), (0.0, 3.0)], 7)
    values = _values(axes)
    for k in range(3):
        want = values
        for a in reversed(axes[3 - k:]):
            want = np.trapezoid(want, a, axis=-1)
        got = trapezoid_nd(values, axes[3 - k:])
        assert isinstance(got, np.ndarray)
        assert got.shape == values.shape[:3 - k]
        assert got.tobytes() == want.tobytes()


def test_all_axes_give_a_float():
    axes = tensor_axes([(0.0, 1.0), (0.5, 2.0)], 9)
    values = _values(axes)
    got = trapezoid_nd(values, axes)
    assert type(got) is float
    want = np.trapezoid(np.trapezoid(values, axes[1], axis=-1), axes[0])
    assert got == float(want)
    assert got == trapezoid_nd(trapezoid_nd(values, axes[1:]), axes[:1])
