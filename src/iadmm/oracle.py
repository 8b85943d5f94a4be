"""Independent reference solvers used to certify solutions and subproblems.

Everything here is deliberately simple and dense: direct KKT solves for
equality-constrained quadratic programs and, for block subproblems, a
closed-form prox when the smooth term has a zero Lipschitz bound, one
dense system ``lhs u = rhs`` of a quadratic block, solved directly when
the block has no nonsmooth term, and otherwise a (non-accelerated)
proximal-gradient loop with the step ``2 / (L + mu)`` of an
``L``-smooth, ``mu``-strongly convex objective and one prox call per
step.  On the dense system that loop also tries one direct solve on the
face the steps have settled on.  Every answer of the loop carries a
bound on its unit-step prox residual.  These paths share no iteration
logic with the solver modules, so agreement between the two is
meaningful evidence.

:func:`face_solve` turns a coarse solution of a quadratic-plus-prox
problem into a reference: it guesses the active face from the coarse
point's nonzeros and solves the KKT system on that face once (the
solution polishing of OSQP, Stellato et al., *Math. Prog. Comp.* 2020,
section 5.2).  The coarse point only names the face and the prox's
offset on it; the answer is certified on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .blockspace import BlockVector
from .diagnostics import ReferencePair
from .errors import ConfigError, NumericError
from .problem import Block, ProblemSpec


def _stacked(problem: ProblemSpec):
    """Block-diagonal Hessian ``H``, linear term ``c`` and dense constraint matrix ``A``.

    Every block's smooth term must be zero or a quadratic with explicit
    Hessian and linear term; anything else raises :class:`ConfigError`.
    """
    n = problem.n
    H = np.zeros((n, n))
    c = np.zeros(n)
    A = np.zeros((problem.rhs_dim, n))
    k = 0
    for blk, d in zip(problem.blocks, problem.dims):
        smooth = blk.smooth
        if not smooth.is_zero:
            if smooth.hessian is None or smooth.linear is None:
                raise ConfigError("dense KKT solves need zero or explicit quadratic smooth terms")
            H[k:k + d, k:k + d] = smooth.hessian
            c[k:k + d] = smooth.linear
        A[:, k:k + d] = blk.op.to_dense()
        k += d
    return H, c, A


def solve_qp_kkt(problem: ProblemSpec):
    """Solve an equality-constrained QP by one dense pivoted KKT solve.

    Every block must have a zero or quadratic smooth term (explicit
    Hessian) and a zero nonsmooth term.  Returns a certified
    :class:`ReferencePair`; a singular KKT matrix raises
    ``numpy.linalg.LinAlgError``.
    """
    if not all(blk.nonsmooth.is_zero for blk in problem.blocks):
        raise ConfigError("KKT solve only handles smooth problems")
    H, c, A = _stacked(problem)
    n, N = problem.n, problem.rhs_dim
    kkt = np.zeros((n + N, n + N))
    kkt[:n, :n] = H
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    rhs = np.concatenate([-c, problem.b])
    sol = np.linalg.solve(kkt, rhs)
    x = BlockVector.from_flat(sol[:n], problem.dims)
    lam = sol[n:].copy()
    return ReferencePair(problem, x, lam, source="kkt-solve")


def face_solve(z, lam, problem):
    """Reference pair from one KKT solve on the face of a coarse pair ``(z, lam)``.

    Every block's smooth term must be zero or a quadratic with explicit
    Hessian ``H_i`` and linear term ``c_i``.  The face ``S`` is the set of
    coordinates with ``|z_j| > 1e-8 max |z|``.  The subgradient offset
    is read from the prox's own translation, as :func:`_polish` does: with
    ``v_i = z_i - grad f_i(z_i) - A_i^T lam`` it is ``s_i = v_i -
    prox_i(v_i, 1)``, which the prox holds fixed on its face.  One dense
    least-squares solve of

        [[H_SS, A_S^T], [A_S, 0]] [x_S; lam] = [-c_S - s_S; b]

    gives ``x`` (zero off ``S``) and ``lam``.  Returns a
    :class:`ReferencePair` with source ``"face-solve"``; a wrong face fails
    its certificate with :class:`CertificationError`.
    """
    H, c, A = _stacked(problem)
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    s = []
    for blk, zi in zip(problem.blocks, z.blocks):
        v = zi - (blk.smooth.grad(zi) + blk.op.adjoint(lam))
        s.append(v - blk.nonsmooth.prox(v, 1.0))
    s = np.concatenate(s)
    flat = np.abs(z.to_flat())
    S = np.flatnonzero(flat > 1e-8 * flat.max())
    f = S.size
    kkt = np.zeros((f + problem.rhs_dim,) * 2)
    kkt[:f, :f] = H[np.ix_(S, S)]
    kkt[:f, f:] = A[:, S].T
    kkt[f:, :f] = A[:, S]
    rhs = np.concatenate([-c[S] - s[S], problem.b])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    x = np.zeros(problem.n)
    x[S] = sol[:f]
    return ReferencePair(problem, BlockVector.from_flat(x, problem.dims), sol[f:],
                         source="face-solve")


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


def subproblem_minimizer(block: Block, y_i, lam, b_i, rho, gamma_i, tol=1e-12, ay_i=None):
    """High-accuracy minimizer of one block's exact subproblem.

    The subproblem is ``f(u) + h(u) + (rho/2) ||A u - b_i + lam/rho||^2
    + (rho/2) (u - y_i)^T (gamma_i I - A^T A) (u - y_i)``.  The two
    penalty terms have combined Hessian exactly ``rg I`` with
    ``rg = rho * gamma_i``, so their gradient is ``rw + rg (u - y_i)``
    with the constant ``rw = rho A^T (A y_i - b_i + lam/rho)``; a caller
    that already holds ``A y_i`` (the operator's own ``apply(y_i)``)
    passes it as ``ay_i``.

    - A smooth term with a zero Lipschitz bound is affine with constant
      gradient ``c0``, and the minimizer is the closed form
      ``prox(y_i - (rw + c0) / rg, 1 / rg)``.
    - A block with an explicit Hessian ``H`` and linear term ``c`` builds
      the smooth part's gradient once as ``lhs u - rhs`` with
      ``lhs = H + rg I`` and ``rhs = rg y_i - c - rw``; without a
      nonsmooth term it returns ``np.linalg.solve(lhs, rhs)``.
    - Everything else runs proximal gradient with step
      ``tau = 2 / (zeta + mu + 2 rg)`` (``zeta`` from
      :func:`lipschitz_bound`, ``mu`` the smooth term's modulus), one
      prox call ``u_new = prox(u - tau g, tau)`` per step.  It returns
      ``u`` once ``||u - u_new|| / min(tau, 1) <= tol``, which bounds the
      unit-step prox residual ``||u - prox(u - g, 1)||`` because the
      prox-gradient map is monotone in its step (Beck, *First-Order
      Methods in Optimization*, Thm 10.9).
    - On the dense path, once two consecutive steps leave the same
      zero pattern, :func:`_polish` solves the system on the nonzero
      face once; its point is returned if its own certified residual is
      within ``tol``, else the steps go on, and the polish is not tried
      again until the pattern changes.

    A step whose output is not finite raises :class:`NumericError`, as
    does a loop that has not reached ``tol`` within a million steps.
    """
    smooth, nonsmooth, op = block.smooth, block.nonsmooth, block.op
    y_i = np.asarray(y_i, dtype=np.float64).reshape(-1)
    rg = rho * gamma_i
    rw = rho * op.adjoint((op.apply(y_i) if ay_i is None else ay_i) - b_i + lam / rho)
    prox = nonsmooth.prox

    if smooth.is_zero:
        u = prox(y_i - (rw + smooth.grad(y_i)) / rg, 1.0 / rg)
        if not math.isfinite(u.dot(u)) and not np.isfinite(u).all():
            raise _non_finite()
        return u

    dense = smooth.hessian is not None and smooth.linear is not None
    if dense:
        lhs = smooth.hessian + rg * np.eye(y_i.size)
        rhs = rg * y_i - smooth.linear - rw
        if nonsmooth.is_zero:
            return np.linalg.solve(lhs, rhs)

    tau = 2.0 / (lipschitz_bound(smooth) + smooth.modulus + 2.0 * rg)
    scale = min(tau, 1.0)
    u = y_i.copy()
    pattern = tried = None
    for _ in range(10 ** 6):
        g = lhs.dot(u) - rhs if dense else smooth.grad(u) + rw + rg * (u - y_i)
        v = u - tau * g
        u_new = prox(v, tau)
        d = u - u_new
        res = math.sqrt(d.dot(d)) / scale
        if res <= tol:
            return u
        # a non-finite entry of ``u`` or of the prox output makes ``d`` and
        # ``res`` non-finite, so the array test only runs on that cold path;
        # a finite ``d`` whose square overflows passes, as in ``run_inner``
        if not math.isfinite(res) and not np.isfinite(d).all():
            raise _non_finite()
        if dense:
            last, pattern = pattern, (u_new != 0.0).tobytes()
            if pattern == last and pattern != tried:
                tried = pattern
                p = _polish(lhs, rhs, tau, v, u_new)
                d = p - prox(p - tau * (lhs.dot(p) - rhs), tau)
                if math.sqrt(d.dot(d)) / scale <= tol:
                    return p
        u = u_new
    raise NumericError(
        "subproblem oracle did not reach tolerance %.1e" % tol,
        context={"routine": "subproblem_minimizer"},
        best=u,
    )


def _non_finite():
    return NumericError("subproblem oracle produced non-finite values",
                        context={"routine": "subproblem_minimizer"})


def _polish(lhs, rhs, tau, v, u_new):
    """Candidate minimizer on the face of ``u_new = prox(v, tau)``.

    Holds the prox offset ``s = (v - u_new) / tau`` fixed on the nonzero
    coordinates ``F`` of ``u_new`` and solves ``lhs[F, F] p_F = rhs[F] -
    s[F]`` with ``p`` zero off ``F``.  For a prox that acts on its face as
    a translation (soft thresholding) and a correct face, ``p`` is the
    exact minimizer; the caller certifies it either way.
    """
    F = np.flatnonzero(u_new)
    p = np.zeros(u_new.size)
    p[F] = np.linalg.solve(lhs[F][:, F], rhs[F] - (v[F] - u_new[F]) / tau)
    return p
