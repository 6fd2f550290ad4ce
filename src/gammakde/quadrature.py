"""Tensor-product trapezoid quadrature over boxes in the positive orthant."""

import numpy as np

__all__ = ["tensor_axes", "grid_points", "trapezoid_nd"]


def tensor_axes(domain, nodes):
    """Per-axis ``nodes``-point linspaces for a box [(lo, hi), ...]."""
    axes = []
    for lo, hi in domain:
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise ValueError(f"bad integration interval ({lo}, {hi})")
        axes.append(np.linspace(lo, hi, nodes))
    return axes


def grid_points(axes):
    """Stack a tensor grid into an array of shape (m1, ..., md, d)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def trapezoid_nd(values, axes):
    """Iterated trapezoid rule of a values tensor over its last
    ``len(axes)`` axes, the last one first: a float when no axis is
    left, else the array of the leading axes."""
    out = np.asarray(values, dtype=float)
    for a in reversed(axes):
        out = np.trapezoid(out, a, axis=-1)
    return float(out) if out.ndim == 0 else out
