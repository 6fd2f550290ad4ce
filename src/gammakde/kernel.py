"""The two-branch gamma kernel and its derivative in the evaluation point.

As a function of the data coordinate t, the kernel is a gamma density
with scale b and shape

    rho(x, b) = x/b               if x >= 2b   (interior branch)
    rho(x, b) = (x/(2b))^2 + 1    if x in [0, 2b)  (boundary branch)

so it integrates to one over [0, inf) and puts no weight on the negative
axis. The two branches agree at x = 2b where both give shape 2.

Fields and every public function below build the same node and
observation terms once per call and write through ``kernel_into``. Each
public function checks t, x and b once, t first; a field's nodes and
bandwidths are checked by ``estimator.field_on_grid``.
"""

from collections import namedtuple

import numpy as np
from scipy.special import digamma, gammaln

__all__ = ["rho", "kernel_eval", "log_kernel_eval", "l_term", "kernel_grad_x"]


def _checked(x, b):
    """x and b as float arrays, refused unless finite, x >= 0 and b > 0."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("evaluation coordinate x must be finite and >= 0")
    if np.any(~np.isfinite(b)) or np.any(b <= 0.0):
        raise ValueError("bandwidth b must be finite and > 0")
    return x, b


def _shape(x, b):
    """``(rho, interior)`` at the checked x and b; refuses a shape that
    is not finite (x/b overflows)."""
    # both branches are computed everywhere: the unused one may overflow
    with np.errstate(over="ignore"):
        two_b = 2.0 * b
        interior = x >= two_b
        r = np.where(interior, x / b, (x / two_b) ** 2 + 1.0)
    if not np.all(np.isfinite(r)):
        raise ValueError("x/b overflows: the kernel shape is not finite "
                         "at every evaluation point")
    return r, interior


def rho(x, b):
    """Shape parameter of the kernel and the branch it was taken from.

    Returns ``(rho, interior)`` where ``interior`` is True on the
    x >= 2b branch. Works elementwise on arrays.
    """
    r, interior = _shape(*_checked(x, b))
    if r.ndim == 0:
        return float(r), bool(interior)
    return r, interior


# Terms that depend on the node x alone and on the point t alone, shared
# by fields and every public function: m nodes and k points take O(m + k)
# logs, lgammas and digammas; the m * k products go through kernel_into.
class NodeTerms(namedtuple("NodeTerms",
                           "r1 rlogb lgam at_zero psi slope x_zero")):
    """Per-node terms: rho - 1, rho ln b, lgamma(rho) and the log kernel
    at t = 0 (-ln b at shape 1, -inf above it); on the derivative axis
    also psi(rho), d(rho)/dx and the x = 0 mask. The last three are None
    off the derivative axis, and the mask is None where no x is 0."""

    __slots__ = ()

    def rows(self, lo, hi):
        """The terms of nodes ``lo`` to ``hi`` - 1."""
        return self._make(None if a is None else a[lo:hi] for a in self)


class ObsTerms(namedtuple("ObsTerms", "logt tb t_zero lt")):
    """Per-observation terms: ln t, t/b and the t = 0 mask (None where no
    t is 0); on the derivative axis also ln t - ln b (None off it). At
    t = 0 both logs are -inf: the mask writes the log kernel's limit
    there, and c = 0 in ``kernel_into``; ``l_term`` refuses t = 0."""

    __slots__ = ()


def node_terms(x, b, grad=False):
    """The ``NodeTerms`` at the nodes ``x``, the derivative's three with
    ``grad``. x and b are float arrays already checked by the caller
    (``_checked``, or ``field_on_grid``); only a shape x/b that
    overflows is refused here."""
    r, interior = _shape(x, b)
    logb = np.log(b)
    psi = slope = x_zero = None
    if grad:
        psi = digamma(r)
        slope = np.where(interior, 1.0 / b, x / (2.0 * b**2))
        x_zero = _mask(x == 0.0)
    return NodeTerms(r - 1.0, r * logb, gammaln(r),
                     np.where(r == 1.0, -logb, -np.inf), psi, slope, x_zero)


def obs_terms(t, b, grad=False):
    """The ``ObsTerms`` of the data points ``t`` (not validated); ln t
    - ln b with ``grad``. Both logs are -inf at t = 0, where
    ``_log_kernel`` and ``kernel_into`` write the limits through the
    t = 0 mask."""
    logt = np.log(t)
    lt = logt - np.log(b) if grad else None
    return ObsTerms(logt, t / b, _mask(t == 0.0), lt)


def _mask(m):
    """The boolean array ``m``, or None where it has no True entry."""
    return m if np.any(m) else None


def _log_kernel(nodes, obs, out):
    """Write the log kernel into ``out``: (rho - 1) ln t - t/b - rho ln b
    - lgamma(rho), then its limit at t = 0, where (rho - 1) ln 0 is -inf
    for rho > 1 but nan for rho = 1."""
    np.multiply(nodes.r1, obs.logt, out=out)
    np.subtract(out, obs.tb, out=out)
    np.subtract(out, nodes.rlogb, out=out)
    np.subtract(out, nodes.lgam, out=out)
    if obs.t_zero is not None:
        np.copyto(out, nodes.at_zero, where=obs.t_zero)
    return out


def _l(nodes, obs, out):
    """Write L = (ln t - ln b) - psi(rho) into ``out``."""
    return np.subtract(obs.lt, nodes.psi, out=out)


def kernel_into(nodes, obs, out, work=None):
    """Write the kernel matrix of ``nodes`` by ``obs`` into ``out``. On
    the derivative axis (``nodes.psi`` set) it is K c, with
    c = L d(rho)/dx, and c = 0 where t or x is 0 (the exact limit of
    c K); c takes ``out.size`` floats of the flat ``work``."""
    np.exp(_log_kernel(nodes, obs, out), out=out)
    if nodes.psi is not None:
        c = _l(nodes, obs, work[: out.size].reshape(out.shape))
        c *= nodes.slope
        if obs.t_zero is not None:
            np.copyto(c, 0.0, where=obs.t_zero)
        if nodes.x_zero is not None:
            np.copyto(c, 0.0, where=nodes.x_zero)
        out *= c
    return out


def _terms(t, x, b, grad=False):
    """Check t, then x and b, once, and return the ``NodeTerms`` of x,
    the ``ObsTerms`` of t and an empty array of their broadcast shape."""
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t < 0.0):
        raise ValueError("kernel argument t must be finite and >= 0")
    x, b = _checked(x, b)
    nodes = node_terms(x, b, grad)
    obs = obs_terms(t, b, grad)
    shape = np.broadcast_shapes(t.shape, nodes.r1.shape, obs.tb.shape)
    return nodes, obs, np.empty(shape)


def _scalar(out):
    """``out`` as a float where it is 0-d."""
    return float(out) if np.ndim(out) == 0 else out


def log_kernel_eval(t, x, b):
    """Log of the kernel, with the t = 0 limit handled explicitly.

    At t = 0 the kernel is 0 for shape > 1 and 1/b for shape = 1 (which
    occurs only at x = 0); the log is -inf and -ln b respectively.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _scalar(_log_kernel(*_terms(t, x, b)))


def kernel_eval(t, x, b):
    """K_{rho(x,b),b}(t) = t^(rho-1) exp(-t/b) / (b^rho Gamma(rho)).

    Computed in log space; t = 0 returns the exact limit.
    """
    return _scalar(np.exp(log_kernel_eval(t, x, b)))


def l_term(t, x, b):
    """L(t, x, b) = ln t - ln b - Psi(rho(x, b)).

    The factor turning the kernel into its own x-derivative. Requires
    t > 0 (log singularity at 0).
    """
    # the terms L does not use may leave the float range
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nodes, obs, out = _terms(t, x, b, grad=True)
    if obs.t_zero is not None:
        raise ValueError("l_term requires t > 0")
    return _scalar(_l(nodes, obs, out))


def kernel_grad_x(t, x, b):
    """Partial derivative of the kernel in the evaluation coordinate x:
    K L d(rho)/dx, written as the fields' derivative tiles are by
    ``kernel_into``, so 0 at t = 0 and at x = 0, the exact limits."""
    with np.errstate(divide="ignore", invalid="ignore"):
        nodes, obs, out = _terms(t, x, b, grad=True)
        return _scalar(kernel_into(nodes, obs, out, np.empty(out.size)))
