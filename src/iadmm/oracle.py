"""Independent reference solvers used to certify solutions and subproblems.

Everything here is deliberately simple and dense: direct KKT solves for
equality-constrained quadratic programs and, for block subproblems, one
dense system ``lhs u = rhs`` of a quadratic block, solved directly when
the block has no nonsmooth term and otherwise iterated by a plain
(non-accelerated) proximal-gradient loop with the step ``2 / (L + mu)``
of an ``L``-smooth, ``mu``-strongly convex objective.  These paths share
no iteration logic with the solver modules, so agreement between the two
is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np

from .blockspace import BlockVector
from .diagnostics import ReferencePair
from .errors import ConfigError, NumericError
from .problem import Block, ProblemSpec


def solve_qp_kkt(problem: ProblemSpec):
    """Solve an equality-constrained QP by one dense pivoted KKT solve.

    Every block must have a quadratic smooth term (explicit Hessian) and
    a zero nonsmooth term.  Returns a certified :class:`ReferencePair`;
    a singular KKT matrix raises ``numpy.linalg.LinAlgError``.
    """
    dims = problem.dims
    n, N = problem.n, problem.rhs_dim
    H = np.zeros((n, n))
    c = np.zeros(n)
    A = np.zeros((N, n))
    k = 0
    for blk, d in zip(problem.blocks, dims):
        if blk.smooth.hessian is None or blk.smooth.linear is None:
            raise ConfigError("KKT solve needs explicit quadratic smooth terms")
        if not blk.nonsmooth.is_zero:
            raise ConfigError("KKT solve only handles smooth problems")
        H[k:k + d, k:k + d] = blk.smooth.hessian
        c[k:k + d] = blk.smooth.linear
        A[:, k:k + d] = blk.op.to_dense()
        k += d
    kkt = np.zeros((n + N, n + N))
    kkt[:n, :n] = H
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    rhs = np.concatenate([-c, problem.b])
    sol = np.linalg.solve(kkt, rhs)
    x = BlockVector.from_flat(sol[:n], dims)
    lam = sol[n:].copy()
    return ReferencePair(problem, x, lam, source="kkt-solve")


def lipschitz_bound(smooth):
    """Bound on the gradient's Lipschitz constant that the subproblem oracle steps by.

    ``smooth.lipschitz`` when set, else the spectral radius of the
    explicit Hessian.  A smooth term with neither raises
    :class:`ConfigError`: the oracle has no step it could trust.
    """
    if smooth.lipschitz is not None:
        return smooth.lipschitz
    if smooth.hessian is None:
        raise ConfigError("subproblem oracle needs a curvature bound: the smooth term "
                          "has no Lipschitz bound (lipschitz=None) and no Hessian")
    return float(np.max(np.abs(np.linalg.eigvalsh(smooth.hessian))))


def subproblem_minimizer(block: Block, y_i, lam, b_i, rho, gamma_i, tol=1e-12):
    """High-accuracy minimizer of one block's exact subproblem.

    The subproblem is ``f(u) + h(u) + (rho/2) ||A u - b_i + lam/rho||^2
    + (rho/2) (u - y_i)^T (gamma_i I - A^T A) (u - y_i)``.  The two
    penalty terms have combined Hessian exactly ``rg I`` with
    ``rg = rho * gamma_i``, so their gradient is ``rw + rg (u - y_i)``
    with the constant ``rw = rho * w_pen``.  A block with an explicit
    Hessian ``H`` and linear term ``c`` builds the smooth part's gradient
    once as ``lhs u - rhs`` with ``lhs = H + rg I`` and
    ``rhs = rg y_i - c - rw``; without a nonsmooth term it returns
    ``np.linalg.solve(lhs, rhs)``.  Everything else runs plain proximal
    gradient with step ``2 / (zeta + mu + 2 rg)`` (``zeta`` from
    :func:`lipschitz_bound`, ``mu`` the smooth term's modulus; ``1 / rg``
    for a zero smooth term) until the unit-step prox residual falls
    below ``tol`` (within a million steps).
    """
    smooth, nonsmooth, op = block.smooth, block.nonsmooth, block.op
    y_i = np.asarray(y_i, dtype=np.float64).reshape(-1)
    rg = rho * gamma_i
    rw = rho * op.adjoint(op.apply(y_i) - b_i + lam / rho)

    dense = smooth.hessian is not None and smooth.linear is not None
    if dense:
        lhs = smooth.hessian + rg * np.eye(y_i.size)
        rhs = rg * y_i - smooth.linear - rw
        if nonsmooth.is_zero:
            return np.linalg.solve(lhs, rhs)

    tau = 2.0 / (lipschitz_bound(smooth) + smooth.modulus + 2.0 * rg)
    prox = nonsmooth.prox
    u = y_i.copy()
    for _ in range(10 ** 6):
        g = lhs.dot(u) - rhs if dense else smooth.grad(u) + rw + rg * (u - y_i)
        d = u - prox(u - g, 1.0)
        res = math.sqrt(d.dot(d))
        if res <= tol:
            return u
        # a non-finite entry of ``u`` makes ``res`` non-finite, so the
        # array test only runs on that cold path
        if not math.isfinite(res) and not np.isfinite(u).all():
            raise NumericError("subproblem oracle produced non-finite values",
                               context={"routine": "subproblem_minimizer"})
        u = prox(u - tau * g, tau)
    raise NumericError(
        "subproblem oracle did not reach tolerance %.1e" % tol,
        context={"routine": "subproblem_minimizer"},
        best=u,
    )
