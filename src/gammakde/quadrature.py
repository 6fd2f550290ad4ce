"""Tensor-product trapezoid quadrature over boxes in the positive orthant."""

import numpy as np

__all__ = ["tensor_axes", "grid_points", "trapezoid_nd"]


def tensor_axes(domain, nodes=200):
    """Per-axis linspace arrays for a box given as [(lo, hi), ...]."""
    nodes = np.broadcast_to(np.asarray(nodes, dtype=int), (len(domain),))
    axes = []
    for (lo, hi), m in zip(domain, nodes):
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise ValueError(f"bad integration interval ({lo}, {hi})")
        axes.append(np.linspace(lo, hi, int(m)))
    return axes


def grid_points(axes):
    """Stack a tensor grid into an array of shape (m1, ..., md, d)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def trapezoid_nd(values, axes):
    """Iterated trapezoid rule of a values tensor over its axes."""
    out = np.asarray(values, dtype=float)
    for a in reversed(axes):
        out = np.trapezoid(out, a, axis=-1)
    return float(out)
