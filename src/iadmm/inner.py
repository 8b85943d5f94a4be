"""Accelerated proximal inner loop for one block subproblem.

Each outer sweep asks block ``i`` to approximately minimize

    f_i(u) + h_i(u) + (rho/2) ||A_i u - b_i + lam/rho||^2
                    + (rho/2) (u - y_i)^T (gamma_i I - A_i^T A_i) (u - y_i)

starting from the current ``x_i``.  The loop is an accelerated gradient
method on the smooth part with an exact prox step on ``h_i``: iterate
``l`` picks a proximal weight ``delta_l`` and a mixing weight
``alpha_l``, linearizes ``f_i`` at the interpolated point
``a_bar = (1 - alpha) a_prev + alpha u_prev``, and solves

    u_l = argmin_u <grad, u> + (delta/2) ||u - u_prev||^2
              + (rho/2) ||A_i u - b_i + lam/rho||^2
              + (rho/2) (u - y_i)^T (gamma_i I - A_i^T A_i) (u - y_i)
              + h_i(u).

Because the two quadratic penalty terms have combined Hessian exactly
``rho * gamma_i * I``, this subproblem is a single prox evaluation with
step ``1 / (delta + rho * gamma_i)``.

Two parameter rules are supported.  The constant rule uses
``delta_l = 2 zeta / ((1 - sigma) l)`` and ``alpha_l = 2 / (l + 1)``,
which needs a Lipschitz bound ``zeta`` for ``grad f_i`` and satisfies
the descent test automatically.  The adaptive rule backtracks a ratio
``delta / alpha`` until the descent test holds and derives
``(delta, alpha)`` from the accumulator ``Lambda = sum_l 1 / delta_l``.
Both rules keep the product ``delta_l * alpha_l * gamma_l`` equal to one,
where ``gamma_1 = 1 / delta_1`` and ``gamma_l = gamma_{l-1} / (1 - alpha_l)``;
that invariant is what the outer-loop guarantees rest on.

A block whose smooth term is zero pins ``delta_l`` at ``delta_min``
and takes ``alpha_l`` from the same accumulator, whatever the rule.

All three cases run through one loop.  The rule picks
``(delta, alpha)``; one trial then evaluates ``f_i`` and its gradient at
``a_bar`` in a single fused call (``SmoothTerm.value_grad``), takes the
prox step with the penalty vectors ``rho gamma_i y_i`` and
``rho A_i^T (A_i y_i - b_i + lam/rho)`` computed once per loop, and
forms ``a = (1 - alpha) a_prev + alpha u``.  Only the adaptive rule
runs the descent test, which costs one more ``f_i`` value at ``a``; its
backtracking driver :func:`params_adaptive` retries the trial with a
larger ``delta / alpha`` until the test passes.

Each trial also takes the squared step ``||u - u_prev||^2`` once, for
the accumulated ``r`` and the trace, and the finiteness check runs on
that scalar: a nan or infinite entry of ``u`` always makes it
non-finite, so the test of every entry of ``u`` runs only on that cold
path and a bad prox step still fails at the trial that made it.  A
finite step whose square overflows to ``inf`` is not an error.

The loop stops once ``gamma_l`` has caught up with the previous sweep's
accuracy weight and the scaled step ``||a_l - x_i|| / sqrt(gamma_l)``
falls below the forcing threshold derived from the previous outer
residual.  Numeric failures (a non-finite prox step, an exhausted
backtrack, the iteration cap) raise :class:`NumericError` with the
inner iteration, and the sweep and block when the caller passes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, check_count
from .problem import Block

# relative slack for the descent test so exact ties are accepted in floats
_LS_SLACK = 1e-12


@dataclass
class InnerConfig:
    """Parameters of the inner loop shared across blocks.

    A caller sets the step-size ``rule``, the descent slack ``sigma`` and
    the iteration cap ``max_iters``.  The rest are fixed class constants:
    the proximal-weight bounds ``delta_min``/``delta_max`` (the zero-smooth
    case pins ``delta_l`` at ``delta_min``), the backtracking factor
    ``eta`` and the backtrack cap ``max_backtracks`` of the adaptive rule.
    """

    rule: str = "adaptive"
    sigma: float = 0.99
    max_iters: int = 10_000

    delta_min = 1e-6
    delta_max = 1e6
    eta = 2.0
    max_backtracks = 60

    def __post_init__(self):
        if self.rule not in ("constant", "adaptive"):
            raise ConfigError("unknown inner rule %r" % (self.rule,))
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError("sigma must lie strictly between 0 and 1")
        check_count("max_iters", self.max_iters)


@dataclass
class InnerResult:
    """Outcome of one inner loop: new iterate, lookahead point, weights."""

    x_next: np.ndarray
    z: np.ndarray
    Gamma: float
    r: float
    iters: int


@dataclass
class InnerTrace:
    """Per-iteration record used by invariant checks and diagnostics."""

    deltas: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    xis: list = field(default_factory=list)
    us: list = field(default_factory=list)
    a_s: list = field(default_factory=list)
    step_sq: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)


def params_constant(l, zeta, sigma):
    """Constant-rule pair ``(delta_l, alpha_l)`` for iteration ``l >= 1``.

    Requires a positive Lipschitz bound ``zeta``; with it the descent
    test holds without backtracking and
    ``gamma_l = (1 - sigma) l (l + 1) / (4 zeta)``.
    """
    if l < 1:
        raise ConfigError("inner iteration index starts at 1")
    if zeta is None or zeta <= 0.0:
        raise ConfigError("constant rule needs a positive Lipschitz bound")
    if not 0.0 < sigma < 1.0:
        raise ConfigError("sigma must lie strictly between 0 and 1")
    delta = 2.0 * zeta / ((1.0 - sigma) * l)
    alpha = 2.0 / (l + 1.0)
    return delta, alpha


def line_search_accept(smooth, a_bar, a, delta, alpha, sigma, f_bar, grad_bar):
    """Descent test comparing ``f`` at ``a`` with its model around ``a_bar``.

    Accepts when
    ``f(a_bar) + <grad f(a_bar), a - a_bar> + (1 - sigma) delta / (2 alpha)
    * ||a - a_bar||^2 >= f(a)`` up to a tiny relative slack, given
    ``f_bar = f(a_bar)`` and ``grad_bar = grad f(a_bar)``.
    """
    f_a = smooth.value(a)
    d = a - a_bar
    lhs = f_bar + float(d.dot(grad_bar)) + (1.0 - sigma) * delta / (2.0 * alpha) * float(d.dot(d))
    return lhs >= f_a - _LS_SLACK * (1.0 + abs(f_a))


def params_adaptive(Lambda_prev, delta0, eta, accept, max_backtracks=60):
    """Backtracking rule: grow ``delta / alpha`` until ``accept`` passes.

    For trial ``j`` the candidate pair is derived from
    ``theta = 1 / (delta0 * eta**j)`` via
    ``delta = 2 / (theta + sqrt(theta^2 + 4 theta Lambda_prev))`` and
    ``alpha = 1 / (1 + delta * Lambda_prev)``; the pair always satisfies
    ``delta / alpha = delta0 * eta**j``.  ``accept(delta, alpha)`` must
    return ``(ok, payload)``; the payload of the first accepted trial is
    returned along with ``(delta, alpha, j)``.
    """
    for j in range(max_backtracks + 1):
        theta = 1.0 / (delta0 * eta ** j)
        delta = 2.0 / (theta + math.sqrt(theta * theta + 4.0 * theta * Lambda_prev))
        alpha = 1.0 / (1.0 + delta * Lambda_prev)
        ok, payload = accept(delta, alpha)
        if ok:
            return delta, alpha, j, payload
    raise NumericError(
        "descent test failed after %d backtracks" % max_backtracks,
        context={"routine": "params_adaptive", "delta0": delta0},
    )


def run_inner(block: Block, x_i, y_i, lam, b_i, rho, gamma_i, cfg: InnerConfig,
              Gamma_prev, psi_eps, gamma_floor=None, force_iters=None,
              trace=False, ctx=None):
    """Run the inner loop for one block and one outer sweep.

    Parameters
    ----------
    block : Block
        The block's smooth term, prox term, and constraint operator.
    x_i, y_i : ndarray
        Current iterate and corrected point for this block.
    lam : ndarray
        Current multiplier estimate.
    b_i : ndarray
        Effective right-hand side for this block (``b`` minus the other
        blocks' contributions in sweep order).
    rho, gamma_i : float
        Penalty parameter and the block's diagonal weight in ``M``.
    Gamma_prev : float
        Accuracy weight reached in the previous outer sweep.
    psi_eps : float
        Forcing threshold ``psi(eps_prev)``; ``inf`` on the first sweep.
    gamma_floor : float, optional
        Stronger lower bound on ``gamma_l`` than ``Gamma_prev`` (used by
        the growing-penalty mode to keep ``k / Gamma_k`` nonincreasing).
    force_iters : int, optional
        Run exactly this many iterations (at least one) and skip the
        stopping test (used by invariant checks and the single-step
        benchmark mode).
    trace : bool
        Also return an :class:`InnerTrace` with per-iteration records.
    ctx : tuple, optional
        ``(outer_iteration, block_index)`` attached to numeric errors.

    Returns
    -------
    (InnerResult, InnerTrace or None)
    """
    smooth, op, prox = block.smooth, block.op, block.nonsmooth.prox
    zeta = smooth.lipschitz
    zero_f = (zeta == 0.0)
    if not zero_f and cfg.rule == "constant" and (zeta is None or zeta <= 0.0):
        raise ConfigError("constant rule needs a positive Lipschitz bound for nonzero smooth terms")
    if force_iters is not None and force_iters < 1:
        raise ConfigError("force_iters must be at least 1")
    adaptive = cfg.rule == "adaptive" and not zero_f
    value_grad, sigma = smooth.value_grad, cfg.sigma

    x_i = np.asarray(x_i, dtype=np.float64)
    # the two penalty terms of the prox step are fixed for the whole loop
    rg = rho * gamma_i
    ry = rho * gamma_i * y_i
    rw = rho * op.adjoint(op.apply(y_i) - b_i + lam / rho)
    floor = Gamma_prev if gamma_floor is None else gamma_floor
    delta0 = min(max(1.0, cfg.delta_min), cfg.delta_max)
    u_prev = a_prev = x_i
    gamma = Lambda = sum_sq = 0.0
    backtracks = l = 0
    tr = InnerTrace() if trace else None
    if tr is not None:
        tr.us.append(x_i.copy())

    def trial(delta, alpha):
        # prox step of the linearized subproblem at ``a_bar``; only the
        # adaptive rule needs the descent test
        a_bar = (1.0 - alpha) * a_prev + alpha * u_prev
        f_bar, g = value_grad(a_bar)
        scale = delta + rg
        u = prox((delta * u_prev + ry - g - rw) / scale, 1.0 / scale)
        d = u - u_prev
        dsq = float(d.dot(d))
        # a non-finite entry of ``u`` makes ``dsq`` non-finite, so the
        # array test only runs on that cold path
        if not math.isfinite(dsq) and not np.isfinite(u).all():
            raise NumericError("prox step produced non-finite values",
                               context={"routine": "run_inner"})
        a = (1.0 - alpha) * a_prev + alpha * u
        ok = not adaptive or line_search_accept(smooth, a_bar, a, delta, alpha, sigma, f_bar, g)
        return ok, (u, a, dsq)

    stop = force_iters is None
    try:
        for l in range(1, (cfg.max_iters if stop else force_iters) + 1):
            if adaptive:
                delta, alpha, backtracks, (u, a, dsq) = params_adaptive(
                    Lambda, delta0, cfg.eta, trial, cfg.max_backtracks)
                delta0 = min(max((delta / alpha) / cfg.eta, cfg.delta_min), cfg.delta_max)
            else:
                if zero_f:
                    # pinned proximal weight; the mixing weight keeps the
                    # delta * alpha * gamma product at one for any delta sequence
                    delta = cfg.delta_min
                    alpha = 1.0 if l == 1 else 1.0 / (1.0 + delta * Lambda)
                else:
                    delta, alpha = params_constant(l, zeta, sigma)
                u, a, dsq = trial(delta, alpha)[1]

            gamma = 1.0 / delta if l == 1 else gamma / (1.0 - alpha)
            sum_sq += dsq
            Lambda += 1.0 / delta

            if tr is not None:
                tr.deltas.append(delta)
                tr.alphas.append(alpha)
                tr.gammas.append(gamma)
                tr.xis.append(delta * alpha * gamma)
                tr.us.append(u.copy())
                tr.a_s.append(a.copy())
                tr.step_sq.append(dsq)
                tr.backtracks.append(backtracks)

            if stop and gamma >= floor:
                d = a - x_i
                if math.sqrt(float(d.dot(d))) <= psi_eps * math.sqrt(gamma):
                    break
            u_prev, a_prev = u, a
        else:
            if stop:
                raise NumericError(
                    "inner loop hit its iteration cap (%d)" % cfg.max_iters,
                    best=InnerResult(u, a, gamma, sum_sq / gamma, l))
    except NumericError as err:
        # every numeric failure names the sweep, block and inner iteration
        err.context.update(_ctx(ctx, l))
        raise
    return InnerResult(x_next=u, z=a, Gamma=gamma, r=sum_sq / gamma, iters=l), tr


def _ctx(ctx, l):
    out = {"inner_iteration": l}
    if ctx is not None:
        out["outer_iteration"], out["block"] = ctx[0], ctx[1]
    return out
