"""Independent reference solvers used to certify solutions and subproblems.

Everything here is deliberately simple and dense: direct KKT solves for
equality-constrained quadratic programs and a plain (non-accelerated)
proximal-gradient loop for block subproblems.  These paths share no
iteration logic with the solver modules, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

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


def subproblem_minimizer(block: Block, y_i, lam, b_i, rho, gamma_i, tol=1e-12):
    """High-accuracy minimizer of one block's exact subproblem.

    The subproblem is ``f(u) + h(u) + (rho/2) ||A u - b_i + lam/rho||^2
    + (rho/2) (u - y_i)^T (gamma_i I - A^T A) (u - y_i)``.  The two
    penalty terms have combined Hessian exactly ``rho * gamma_i * I``, so
    their gradient is ``rho * w_pen + rho * gamma_i * (u - y_i)`` with a
    constant ``w_pen``; smooth problems with explicit Hessians use a
    dense solve, everything else runs plain proximal gradient until the
    unit-step prox residual falls below ``tol`` (within a million steps).
    """
    smooth, nonsmooth, op = block.smooth, block.nonsmooth, block.op
    y_i = np.asarray(y_i, dtype=np.float64).reshape(-1)
    w_pen = op.adjoint(op.apply(y_i) - b_i + lam / rho)

    if nonsmooth.is_zero and smooth.hessian is not None and smooth.linear is not None:
        n = y_i.size
        lhs = smooth.hessian + rho * gamma_i * np.eye(n)
        rhs = rho * gamma_i * y_i - smooth.linear - rho * w_pen
        return np.linalg.solve(lhs, rhs)

    zeta = smooth.lipschitz
    if zeta is None:
        zeta = float(np.max(np.abs(np.linalg.eigvalsh(smooth.hessian)))) if smooth.hessian is not None else 0.0
    L = zeta + rho * gamma_i
    tau = 1.0 / L

    def grad_g(u):
        return smooth.grad(u) + rho * w_pen + rho * gamma_i * (u - y_i)

    u = y_i.copy()
    for _ in range(10 ** 6):
        g = grad_g(u)
        res = float(np.linalg.norm(u - nonsmooth.prox(u - g, 1.0)))
        if res <= tol:
            return u
        u = nonsmooth.prox(u - tau * g, tau)
        if not np.all(np.isfinite(u)):
            raise NumericError("subproblem oracle produced non-finite values",
                               context={"routine": "subproblem_minimizer"})
    raise NumericError(
        "subproblem oracle did not reach tolerance %.1e" % tol,
        context={"routine": "subproblem_minimizer"},
        best=u,
    )

