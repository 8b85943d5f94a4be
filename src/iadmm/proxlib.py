"""Smooth and proximable terms with the standard closed-form prox maps.

Each block objective is ``f_i + h_i`` with ``f_i`` convex and smooth
(gradient Lipschitz with constant ``zeta``) and ``h_i`` convex, possibly
nonsmooth, but with a cheap exact proximal map.  The containers below
bundle the callables with the metadata the solver needs (Lipschitz
bound, strong-convexity modulus, and, for quadratics, the Hessian used
by the desk-scale oracles).  A smooth term is given by two callables,
its value and its fused value and gradient; its gradient alone is read
from the fused one, so each term computes it in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blockspace import LinearMap
from .errors import ConfigError, StructuralError, check_count


@dataclass
class SmoothTerm:
    """Convex smooth term: value, fused value and gradient, and curvature metadata.

    ``lipschitz`` is a bound on the gradient's Lipschitz constant
    (``0.0`` identifies the zero function, ``None`` means unknown).
    ``modulus`` is a strong-convexity modulus (``0`` if merely convex).
    ``hessian`` and ``linear`` are set for quadratics so oracles can use
    direct solves.

    A hand-built term supplies ``value`` and ``value_grad``.
    ``value_grad(x)`` returns ``(value(x), gradient at x)`` from one fused
    evaluation that shares the work of the two, such as ``H x`` of a
    quadratic or the residual ``F u - f`` of a least-squares term; the
    inner loop calls it once per trial.  Its value must be bitwise that of
    ``value``, which the descent test calls alone.
    """

    value: Callable[[np.ndarray], float]
    value_grad: Callable[[np.ndarray], tuple]
    lipschitz: Optional[float] = None
    modulus: float = 0.0
    hessian: Optional[np.ndarray] = None
    linear: Optional[np.ndarray] = None

    @property
    def is_zero(self):
        return self.lipschitz == 0.0

    def grad(self, x):
        """The gradient at ``x``: the second entry of ``value_grad(x)``."""
        return self.value_grad(x)[1]


@dataclass
class ProxTerm:
    """Convex term accessed through its proximal map.

    ``prox(y, tau)`` returns ``argmin_u h(u) + ||u - y||^2 / (2 tau)``.
    """

    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]
    modulus: float = 0.0
    is_zero: bool = False


def group_shrink(y, t, size):
    """Blockwise shrinkage toward zero by ``t`` of consecutive ``size``-entry groups of ``y``.

    Each group ``g`` is mapped to ``max(1 - t / ||y_g||, 0) * y_g`` (zero
    groups stay zero), the prox of ``t`` times the sum of group Euclidean
    norms.
    """
    if t < 0:
        raise ConfigError("threshold must be nonnegative")
    y = np.asarray(y, dtype=np.float64)
    if size < 1 or y.size % size:
        raise StructuralError("size-%d vector does not split into groups of %d" % (y.size, size))
    g = y.reshape(-1, size)
    norms = np.sqrt(np.sum(g * g, axis=1))
    scale = np.zeros_like(norms)
    nz = norms > 0.0
    scale[nz] = np.maximum(1.0 - t / norms[nz], 0.0)
    return (g * scale[:, None]).reshape(-1)


def zero_smooth():
    """The identically-zero smooth term."""
    return SmoothTerm(
        value=lambda x: 0.0,
        value_grad=lambda x: (0.0, np.zeros_like(x)),
        lipschitz=0.0,
        modulus=0.0,
    )


def quadratic(H, c, modulus=0.0):
    """Quadratic ``0.5 x^T H x + c^T x`` with an explicit dense Hessian.

    The Lipschitz bound is the largest eigenvalue of the symmetrized
    ``H``.  ``modulus`` is caller-supplied metadata; it is not inferred.
    """
    H = np.array(H, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] != c.size:
        raise StructuralError("quadratic needs square H matching c")
    H = 0.5 * (H + H.T)
    lip = float(np.max(np.abs(np.linalg.eigvalsh(H)))) if H.size else 0.0

    # scalar arithmetic on Python floats: cheaper than on numpy scalars, same
    # bits; the fresh product ``H x`` takes ``c`` in place
    def value(x):
        return 0.5 * float(H.dot(x).dot(x)) + float(c.dot(x))

    def value_grad(x):
        g = H.dot(x)
        val = 0.5 * float(g.dot(x)) + float(c.dot(x))
        g += c
        return val, g

    return SmoothTerm(value=value, value_grad=value_grad, lipschitz=lip,
                      modulus=float(modulus), hessian=H, linear=c.copy())


def quadratic_smooth(F: LinearMap, f, lipschitz=None, modulus=None):
    """Least-squares term ``0.5 ||F u - f||^2`` for a linear operator ``F``.

    Unless supplied, the Lipschitz bound is the largest eigenvalue of
    ``F^T F`` and the modulus its smallest eigenvalue (clipped at zero
    for rank-deficient ``F``); both come from a dense eigendecomposition,
    which is fine at desk scale.
    """
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if f.size != F.rows:
        raise StructuralError("data vector does not match operator rows")
    FtF = None
    if lipschitz is None or modulus is None:
        G = F.to_dense()
        FtF = G.T @ G
        ev = np.linalg.eigvalsh(FtF)
        if lipschitz is None:
            lipschitz = float(max(ev[-1], 0.0))
        if modulus is None:
            modulus = float(max(ev[0], 0.0))

    # ``F.apply`` returns a fresh array, so the residual is formed in place
    def residual(u):
        r = F.apply(u)
        r -= f
        return r

    def value(u):
        r = residual(u)
        return float(0.5 * r.dot(r))

    def value_grad(u):
        r = residual(u)
        return float(0.5 * r.dot(r)), F.adjoint(r)

    return SmoothTerm(value=value, value_grad=value_grad, lipschitz=float(lipschitz),
                      modulus=float(modulus), hessian=FtF,
                      linear=None if FtF is None else -F.adjoint(f))


def zero_prox():
    """The identically-zero nonsmooth term (prox is the identity, returning its input uncopied)."""
    return ProxTerm(
        value=lambda y: 0.0,
        prox=lambda y, tau: np.asarray(y, dtype=np.float64),
        is_zero=True,
    )


def l1_prox(weight):
    """``weight * ||.||_1`` with soft-thresholding prox."""
    weight = float(weight)
    if not 0.0 <= weight < np.inf:
        raise ConfigError("l1 weight must be finite and nonnegative, got %r" % weight)
    return ProxTerm(
        value=lambda y: weight * float(np.abs(y).sum()),
        prox=lambda y, tau: np.sign(y) * np.maximum(np.abs(y) - weight * tau, 0.0),
    )


def group_l2_prox(weight, size):
    """``weight`` times the summed norms of consecutive ``size``-entry groups; prox by shrinkage."""
    weight = float(weight)
    if not 0.0 <= weight < np.inf:
        raise ConfigError("group weight must be finite and nonnegative, got %r" % weight)
    check_count("group size", size)

    def value(y):
        g = np.asarray(y, dtype=np.float64).reshape(-1, size)
        return weight * float(np.sum(np.sqrt(np.sum(g * g, axis=1))))

    return ProxTerm(
        value=value,
        prox=lambda y, tau: group_shrink(y, weight * tau, size),
    )
