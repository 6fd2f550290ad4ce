"""The two-branch gamma kernel and its derivative in the evaluation point.

As a function of the data coordinate t, the kernel is a gamma density
with scale b and shape

    rho(x, b) = x/b               if x >= 2b   (interior branch)
    rho(x, b) = (x/(2b))^2 + 1    if x in [0, 2b)  (boundary branch)

so it integrates to one over [0, inf) and puts no weight on the negative
axis. The two branches agree at x = 2b where both give shape 2.
"""

import numpy as np
from scipy.special import digamma, gammaln

__all__ = ["rho", "kernel_eval", "log_kernel_eval", "l_term", "kernel_grad_x"]


def _shape(x, b):
    """Validate (x, b) and return ``(x, b, rho, interior)`` as arrays."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("evaluation coordinate x must be finite and >= 0")
    if np.any(~np.isfinite(b)) or np.any(b <= 0.0):
        raise ValueError("bandwidth b must be finite and > 0")
    # both branches are computed everywhere: the unused one may overflow
    with np.errstate(over="ignore"):
        two_b = 2.0 * b
        interior = x >= two_b
        r = np.where(interior, x / b, (x / two_b) ** 2 + 1.0)
    if not np.all(np.isfinite(r)):
        raise ValueError("x/b overflows: the kernel shape is not finite "
                         "at every evaluation point")
    return x, b, r, interior


def rho(x, b):
    """Shape parameter of the kernel and the branch it was taken from.

    Returns ``(rho, interior)`` where ``interior`` is True on the
    x >= 2b branch. Works elementwise on arrays.
    """
    _, _, r, interior = _shape(x, b)
    if r.ndim == 0:
        return float(r), bool(interior)
    return r, interior


def log_kernel_eval(t, x, b, out=None):
    """Log of the kernel, with the t = 0 limit handled explicitly.

    At t = 0 the kernel is 0 for shape > 1 and 1/b for shape = 1 (which
    occurs only at x = 0); the log is -inf and -ln b respectively.
    ``out``, as for a numpy ufunc, is an array of the broadcast shape to
    write the result into; it is returned.
    """
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t < 0.0):
        raise ValueError("kernel argument t must be finite and >= 0")
    _, b, r, _ = _shape(x, b)
    res = out
    if res is None:
        res = np.empty(np.broadcast_shapes(t.shape, r.shape))

    with np.errstate(divide="ignore", invalid="ignore"):
        logt = np.log(t)
        np.multiply(r - 1.0, logt, out=res)
        np.subtract(res, t / b, out=res)
        np.subtract(res, r * np.log(b), out=res)
        np.subtract(res, gammaln(r), out=res)
    # t == 0: (r-1)*log(0) is -inf for r > 1 but nan for r == 1
    zero_t = t == 0.0
    if np.any(zero_t):
        np.copyto(res, -np.log(b), where=zero_t & (r == 1.0))
        np.copyto(res, -np.inf, where=zero_t & (r > 1.0))
    return float(res) if out is None and res.ndim == 0 else res


def kernel_eval(t, x, b):
    """K_{rho(x,b),b}(t) = t^(rho-1) exp(-t/b) / (b^rho Gamma(rho)).

    Computed in log space; t = 0 returns the exact limit.
    """
    out = np.exp(log_kernel_eval(t, x, b))
    return float(out) if np.ndim(out) == 0 else out


def l_term(t, x, b, out=None):
    """L(t, x, b) = ln t - ln b - Psi(rho(x, b)).

    The factor turning the kernel into its own x-derivative. Requires
    t > 0 (log singularity at 0). ``out`` is a destination array, as
    for a numpy ufunc.
    """
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t <= 0.0):
        raise ValueError("l_term requires t > 0")
    _, b, r, _ = _shape(x, b)
    res = np.subtract(np.log(t) - np.log(b), digamma(r), out=out)
    return float(res) if out is None and np.ndim(res) == 0 else res


def grad_prefactor(x, b):
    """d(rho)/dx over the two branches: 1/b interior, x/(2 b^2) boundary."""
    x, b, _, interior = _shape(x, b)
    out = np.where(interior, 1.0 / b, x / (2.0 * b**2))
    return float(out) if out.ndim == 0 else out


def kernel_grad_x(t, x, b):
    """Partial derivative of the kernel in the evaluation coordinate x.

    Interior branch: (1/b) K L; boundary branch: (x/(2 b^2)) K L with the
    boundary shape and L. Requires t > 0.
    """
    out = grad_prefactor(x, b) * kernel_eval(t, x, b) * l_term(t, x, b)
    return float(out) if np.ndim(out) == 0 else out
