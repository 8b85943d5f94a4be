"""Smooth and proximable terms with the standard closed-form prox maps.

Each block objective is ``f_i + h_i`` with ``f_i`` convex and smooth
(gradient Lipschitz with constant ``zeta``) and ``h_i`` convex, possibly
nonsmooth, but with a cheap exact proximal map.  The containers below
bundle the callables with the metadata the solver needs (Lipschitz
bound, strong-convexity modulus, and, for quadratics, the Hessian used
by the desk-scale oracles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blockspace import LinearMap
from .errors import ConfigError, StructuralError


@dataclass
class SmoothTerm:
    """Convex smooth term: value, gradient, and curvature metadata.

    ``lipschitz`` is a bound on the gradient's Lipschitz constant
    (``0.0`` identifies the zero function, ``None`` means unknown).
    ``modulus`` is a strong-convexity modulus (``0`` if merely convex).
    ``hessian`` and ``linear`` are set for quadratics so oracles can use
    direct solves.

    ``value_grad(x)`` returns ``(value(x), grad(x))`` from one fused
    evaluation that shares the work of the two, such as ``H x`` of a
    quadratic or the residual ``F u - f`` of a least-squares term; the
    inner loop calls it once per trial.  Its results must be bitwise
    those of ``value`` and ``grad``.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    value_grad: Callable[[np.ndarray], tuple]
    lipschitz: Optional[float] = None
    modulus: float = 0.0
    hessian: Optional[np.ndarray] = None
    linear: Optional[np.ndarray] = None

    @property
    def is_zero(self):
        return self.lipschitz == 0.0


@dataclass
class ProxTerm:
    """Convex term accessed through its proximal map.

    ``prox(y, tau)`` returns ``argmin_u h(u) + ||u - y||^2 / (2 tau)``.
    """

    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]
    modulus: float = 0.0
    is_zero: bool = False


def soft_threshold(y, t):
    """Shrink each entry of ``y`` toward zero by ``t`` (prox of ``t * l1``)."""
    if t < 0:
        raise ConfigError("threshold must be nonnegative")
    y = np.asarray(y, dtype=np.float64)
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


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
        grad=np.zeros_like,
        lipschitz=0.0,
        modulus=0.0,
        value_grad=lambda x: (0.0, np.zeros_like(x)),
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

    def value(x):
        return float(0.5 * H.dot(x).dot(x) + c.dot(x))

    def grad(x):
        return H.dot(x) + c

    def value_grad(x):
        Hx = H.dot(x)
        return float(0.5 * Hx.dot(x) + c.dot(x)), Hx + c

    return SmoothTerm(value=value, grad=grad, lipschitz=lip,
                      modulus=float(modulus), hessian=H, linear=c.copy(),
                      value_grad=value_grad)


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

    def value(u):
        r = F.apply(u) - f
        return float(0.5 * r.dot(r))

    def grad(u):
        return F.adjoint(F.apply(u) - f)

    def value_grad(u):
        r = F.apply(u) - f
        return float(0.5 * r.dot(r)), F.adjoint(r)

    return SmoothTerm(value=value, grad=grad, lipschitz=float(lipschitz),
                      modulus=float(modulus), hessian=FtF,
                      linear=None if FtF is None else -F.adjoint(f),
                      value_grad=value_grad)


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
    if weight < 0:
        raise ConfigError("l1 weight must be nonnegative")
    return ProxTerm(
        value=lambda y: weight * float(np.sum(np.abs(y))),
        prox=lambda y, tau: soft_threshold(y, weight * tau),
    )


def group_l2_prox(weight, size):
    """``weight`` times the summed norms of consecutive ``size``-entry groups; prox by shrinkage."""
    weight = float(weight)
    if weight < 0:
        raise ConfigError("group weight must be nonnegative")

    def value(y):
        g = np.asarray(y, dtype=np.float64).reshape(-1, size)
        return weight * float(np.sum(np.sqrt(np.sum(g * g, axis=1))))

    return ProxTerm(
        value=value,
        prox=lambda y, tau: group_shrink(y, weight * tau, size),
    )
