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

Two parameter rules are supported; :func:`run_inner` takes the solve's
own :class:`~iadmm.outer.SolverParams` and reads only its step-size
``rule``, descent slack ``sigma``, solve ``mode`` and tolerance ``tol``
(the penalty ``rho`` it is handed separately is the sweep's ``rho_k``,
not ``params.rho``).  The constant rule uses
``delta_l = 2 zeta / ((1 - sigma) l)`` and ``alpha_l = 2 / (l + 1)``,
which needs a Lipschitz bound ``zeta`` for ``grad f_i`` and satisfies
the descent test automatically.  The adaptive
rule backtracks a ratio ``delta / alpha`` until the descent test holds and
derives ``(delta, alpha)`` from the accumulator
``Lambda = sum_l 1 / delta_l``.
Both rules keep the product ``delta_l * alpha_l * gamma_l`` equal to one,
where ``gamma_1 = 1 / delta_1`` and ``gamma_l = gamma_{l-1} / (1 - alpha_l)``;
that invariant is what the outer-loop guarantees rest on.

A block whose smooth term is zero pins ``delta_l`` at ``DELTA_MIN``
and takes ``alpha_l`` from the same accumulator, whatever the rule.

The loop's fixed bounds are module constants, not settings: the
proximal-weight range ``DELTA_MIN``/``DELTA_MAX``, the adaptive rule's
backtracking factor ``ETA`` and backtrack cap ``MAX_BACKTRACKS``, the
iteration cap ``MAX_ITERS`` of a loop that stops by its own test, the
hold's rounding scale ``HOLD_ULPS`` and its tolerance gate ``HOLD_GAP``.

All three cases run through one loop.  The rule picks
``(delta, alpha)``; one trial then evaluates ``f_i`` and its gradient at
``a_bar`` in a single fused call (``SmoothTerm.value_grad``), takes the
prox step with the penalty vectors ``rho gamma_i y_i`` and
``rho A_i^T (A_i y_i - b_i + lam/rho)`` computed once per loop (from
the caller's ``A_i y_i`` when it passes one), and forms
``a = (1 - alpha) a_prev + alpha u``.  Only the adaptive rule runs the
descent test, which costs one more ``f_i`` value at ``a``; its
backtracking driver :func:`params_adaptive` retries the trial with a
larger ``delta / alpha`` until the test passes.

Iteration 1 searches warm.  There ``Lambda = 0``, so every trial has
``alpha = 1`` and ``delta = delta0 eta^j`` with the fixed ``delta0 = 1``,
and the search's answer is the smallest exponent ``j`` whose trial
passes.  The caller passes the exponent that the block's iteration 1
accepted in the previous sweep as ``start`` (``0`` on the first sweep),
and gets this call's own back as ``InnerResult.start``.  The search
tries ``start`` first: when it fails it goes up as the cold search
would, and when it passes it walks down while the next smaller exponent
passes too, never below ``0``.  Each trial's ``(delta, alpha)`` comes
from its exponent by the same formula either way, so whenever the
descent test passes for every exponent from the smallest passing one up,
the warm search accepts the cold search's trial bit for bit; below that
exponent the test fails by definition, so a guess that is too small
never changes the answer.  Iterations 2 on start at the previous
iteration's accepted ratio over ``ETA``, as before.  The trace's
``backtracks`` counts each iteration's trials minus one: the accepted
exponent in a cold search, and fewer in a warm one that starts near it.

Within one iteration ``a_prev`` and ``u_prev`` are fixed, so a retried
trial whose ``alpha`` equals the last trial's has the same ``a_bar``:
it reuses that trial's ``a_bar``, ``f_i`` value and gradient instead of
evaluating them again.  This covers every backtrack of iteration 1,
where ``Lambda = 0`` makes ``alpha = 1``.  The reuse ends with the
iteration; the prox step and the descent test's ``f_i`` value at ``a``
still run once per trial.

Each trial also takes the squared step ``||u - u_prev||^2`` once, for
the accumulated ``r`` and the trace, and the finiteness check runs on
that scalar: a nan or infinite entry of ``u`` always makes it
non-finite, so the test of every entry of ``u`` runs only on that cold
path and a bad prox step still fails at the trial that made it.  A
finite step whose square overflows to ``inf`` is not an error.

The loop stops once ``gamma_l`` has reached its floor (the previous
sweep's accuracy weight, raised in the growing-penalty mode) and the
scaled step ``||a_l - x_i|| / sqrt(gamma_l)`` falls below the forcing
threshold derived from the previous outer residual.  Numeric failures
(a non-finite prox step, an exhausted backtrack, the iteration cap)
raise :class:`NumericError` with the inner iteration, and the sweep and
block when the caller passes them.

Most iterations of a late call run after the step has fallen to
rounding, only to lift ``gamma_l`` to its floor: with a fixed penalty
the forcing test passes long before ``gamma_l`` reaches the last sweep's
weight, and in the growing-penalty (``strong``) mode the floor rises with
every sweep.  A loop that stops by its own test (with a positive forcing
threshold) therefore holds the pair ``(u, a)`` after the first iteration
whose accepted step has ``||u - u_prev||^2``, ``||a - a_prev||^2`` and
``||u - a||^2`` all at most ``tau2 = (HOLD_ULPS eps)^2 ||x_i||^2``, taken
once per call; each is tested only when the ones before it pass.  The
first two say that the step moved neither point by more than rounding,
the third that the lookahead ``a`` has caught up with ``u``, so that the
next ``a_bar`` would be ``u`` too: the held pair is then within rounding
of a fixed point of the inner map.  Without the third, a small ``alpha``
could freeze an ``a`` that still trails ``u``.

In the fixed-penalty modes a call with ``0 < tol`` may hold only when
``tol`` exceeds ``HOLD_GAP sqrt(tau2)``, a gate taken on the block's own
``||x_i||``.  Such a solve stops by its tolerance long before it reaches
its rounding floor.  At that floor bitwise repeats decide the outer
loop's ``stalled`` cause, so a solve below the gate keeps every bit of a
loop that never holds.  A fixed-horizon solve (``tol = 0``, a rate
study) never ends as ``stalled``: its bitwise repeats feed only the
``prev`` hand-back, a speed-up and no stop rule, so it holds without a
gate.  Strong mode, whose penalty moves every sweep, has neither the
``stalled`` cause nor the hand-back and holds without a gate too.

Held is a state of the same loop, not a second loop: each later
iteration is an iteration like any other, on scalars.  It takes the
rule's ``(delta, alpha)`` (the adaptive rule takes its first trial's
pair, of ratio ``delta0``, with no search) and runs the same
``gamma``/``Lambda`` recurrences and stop test, with a zero step and the
held pair's distance from ``x_i``, taken once at the hold.  No prox,
smooth or operator call is made; a traced call records each held
iteration's scalars beside the held pair, which it does not copy again.
Held iterations skip the hold test and do not count against
``MAX_ITERS``; ``gamma_l`` grows without bound, so the loop always
reaches its finite floor and forcing threshold.  ``iters`` still counts
every iteration, and ``start`` is set in iteration 1, before any hold.

A caller that passes the block's previous result as ``prev`` gets that
result back unrun, with ``iters = 0``.  The loop compares nothing: the
outer solve passes ``prev`` only after it has found that the whole sweep
repeats its inputs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, check_count
from .problem import Block

# relative slack for the descent test so exact ties are accepted in floats
_LS_SLACK = 1e-12
# fixed bounds of the loop: the proximal-weight range (a zero smooth term
# pins delta at DELTA_MIN), the adaptive rule's backtracking factor and
# backtrack cap, and the iteration cap of a loop that stops by its test
DELTA_MIN = 1e-6
DELTA_MAX = 1e6
ETA = 2.0
MAX_BACKTRACKS = 60
MAX_ITERS = 10_000
# a loop holds its pair once an accepted step moves neither ``u`` nor ``a``
# by more than this many units of rounding of ``||x_i||``, and ``a`` lies
# that close to ``u``; in a fixed-penalty mode only when the solve's ``tol``
# is 0 or exceeds that rounding scale ``HOLD_GAP`` times
HOLD_ULPS = 4
HOLD_GAP = 1e3
_EPS = math.ulp(1.0)


@dataclass
class InnerResult:
    """Outcome of one inner loop: new iterate, lookahead point, weights.

    ``iters`` counts the inner iterations run; from :func:`run_inner` it
    is ``0`` only when the result was handed back from ``prev``, and then
    the other fields are ``prev``'s own values (the arrays are shared).
    ``start`` is the exponent that the adaptive rule accepted in
    iteration 1, which the next sweep passes back as this block's
    ``start``; the other rules return the ``start`` they were given.
    """

    x_next: np.ndarray
    z: np.ndarray
    Gamma: float
    r: float
    iters: int
    start: int = 0


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

    def record(self, delta, alpha, gamma, u, a, step_sq, backtracks):
        """Append one iteration; ``u`` and ``a`` are kept as given, not copied."""
        self.deltas.append(delta)
        self.alphas.append(alpha)
        self.gammas.append(gamma)
        self.xis.append(delta * alpha * gamma)
        self.us.append(u)
        self.a_s.append(a)
        self.step_sq.append(step_sq)
        self.backtracks.append(backtracks)


def _adaptive_pair(ratio, Lambda_prev):
    """The adaptive rule's ``(delta, alpha)`` whose ratio ``delta / alpha`` is ``ratio``."""
    theta = 1.0 / ratio
    delta = 2.0 / (theta + math.sqrt(theta * theta + 4.0 * theta * Lambda_prev))
    return delta, 1.0 / (1.0 + delta * Lambda_prev)


def params_adaptive(Lambda_prev, delta0, eta, accept, max_backtracks=MAX_BACKTRACKS, start=0):
    """Backtracking rule: grow ``delta / alpha`` until ``accept`` passes.

    For the trial of exponent ``j`` the candidate pair is derived from
    ``theta = 1 / (delta0 * eta**j)`` via
    ``delta = 2 / (theta + sqrt(theta^2 + 4 theta Lambda_prev))`` and
    ``alpha = 1 / (1 + delta * Lambda_prev)``; the pair always satisfies
    ``delta / alpha = delta0 * eta**j``.  ``accept(delta, alpha)`` must
    return ``(ok, payload)``.

    The exponents ``start, start + 1, ..., max_backtracks`` are tried in
    turn and the first that passes is accepted.  If that is ``start`` itself
    and ``start > 0``, the search walks down instead: it tries
    ``start - 1, start - 2, ...`` while they pass, never below ``0``, and
    accepts the smallest exponent of that passing run.  With ``start = 0``
    this is the plain search from ``delta0``.  Returns
    ``(delta, alpha, n, payload)`` of the accepted trial, where ``n`` is the
    number of trials run minus one (the accepted exponent when
    ``start = 0``).
    """
    for j in range(start, max_backtracks + 1):
        delta, alpha = _adaptive_pair(delta0 * eta ** j, Lambda_prev)
        ok, payload = accept(delta, alpha)
        if ok:
            if j > start or j == 0:
                return delta, alpha, j - start, payload
            # the guess passed at once: walk down while the next smaller
            # exponent passes too, each trial by the same formula
            for i in range(start - 1, -1, -1):
                d, a = _adaptive_pair(delta0 * eta ** i, Lambda_prev)
                ok, p = accept(d, a)
                if not ok:
                    return delta, alpha, start - i, payload
                delta, alpha, payload = d, a, p
            return delta, alpha, start, payload
    raise NumericError(
        "descent test failed after %d backtracks" % max_backtracks,
        context={"routine": "params_adaptive", "delta0": delta0},
    )


def run_inner(block: Block, x_i, y_i, lam, b_i, rho, gamma_i, params,
              Gamma_prev, psi_eps, force_iters=None, trace=False, ctx=None, prev=None,
              ay_i=None, start=0):
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
        The sweep's penalty ``rho_k`` (which in strong mode differs from
        ``params.rho``) and the block's diagonal weight in ``M``.
    params : SolverParams
        The solve's parameters; only the step-size ``rule``, the descent
        slack ``sigma``, the ``mode`` and the tolerance ``tol`` are read.
        A loop without ``force_iters`` and with a positive ``psi_eps``
        holds its pair once a step is rounding and ``a`` has caught up
        with ``u``; in a fixed-penalty mode only when ``tol`` is ``0`` or
        exceeds ``HOLD_GAP`` times the rounding scale
        ``HOLD_ULPS eps ||x_i||``.
        Its later iterations are iterations of the same loop, on scalars
        (see the module docstring).  The loop's other bounds are the
        module constants ``DELTA_MIN``, ``DELTA_MAX``, ``ETA``,
        ``MAX_BACKTRACKS`` and ``MAX_ITERS``, which counts only iterations
        that do vector work, so held iterations may run past it.
    Gamma_prev : float
        Floor that ``gamma_l`` must reach before the loop may stop.  With
        a fixed penalty it is the accuracy weight ``Gamma_i^{k-1}`` reached
        in the previous outer sweep (``0`` on the first); the
        growing-penalty mode raises it to ``Gamma_i^{k-1} k / (k - 1)``
        from sweep 2 on, which keeps ``k / Gamma_i^k`` nonincreasing.
    psi_eps : float
        Forcing threshold ``psi(eps_prev)``; ``inf`` on the first sweep.
    force_iters : int, optional
        Run exactly this many iterations (at least one) and skip the
        stopping test (used by invariant checks).
    trace : bool
        Also return an :class:`InnerTrace` with per-iteration records.
    ctx : tuple, optional
        ``(outer_iteration, block_index)`` attached to numeric errors.
    prev : InnerResult, optional
        A result of an earlier call whose inputs the caller knows were
        these, bit for bit.  No iteration runs and ``prev``'s values come
        back with ``iters = 0`` and no trace; nothing is compared.
    ay_i : ndarray, optional
        ``A_i y_i``, when the caller has it already; it must be the
        block operator's own ``apply(y_i)``, which is then not run again.
    start : int
        Exponent at which the adaptive rule's iteration 1 starts its search
        (see :func:`params_adaptive`): the previous sweep's
        ``InnerResult.start`` for this block, or ``0`` for the cold search.
        Whenever the descent test passes for every exponent from the
        smallest passing one up, the result is bitwise that of ``0``.  The
        trace's ``backtracks`` and the search's third value count the
        trials run minus one, which for ``start = 0`` is the accepted
        exponent.

    Returns
    -------
    (InnerResult, InnerTrace or None)
    """
    smooth, op, prox = block.smooth, block.op, block.nonsmooth.prox
    zeta = smooth.lipschitz
    zero_f = (zeta == 0.0)
    if not zero_f and params.rule == "constant" and (zeta is None or zeta <= 0.0):
        raise ConfigError("constant rule needs a positive Lipschitz bound for nonzero smooth terms")
    if force_iters is not None:
        check_count("force_iters", force_iters)
    check_count("start", start, least=0)
    if start > MAX_BACKTRACKS:
        raise ConfigError("start must lie between 0 and %d, got %r" % (MAX_BACKTRACKS, start))
    if prev is not None:
        return InnerResult(prev.x_next, prev.z, prev.Gamma, prev.r, 0, prev.start), None
    stop = force_iters is None
    limit = MAX_ITERS if stop else force_iters
    adaptive = params.rule == "adaptive" and not zero_f
    value_grad, sigma = smooth.value_grad, params.sigma

    x_i = np.asarray(x_i, dtype=np.float64)
    # the two penalty terms of the prox step are fixed for the whole loop
    rg = rho * gamma_i
    ry = rho * gamma_i * y_i
    rw = rho * op.adjoint((op.apply(y_i) if ay_i is None else ay_i) - b_i + lam / rho)
    delta0 = min(max(1.0, DELTA_MIN), DELTA_MAX)
    # squared rounding scale of the hold; a negative one never holds
    tau2 = -1.0
    if stop and psi_eps > 0.0:
        scale_sq = (HOLD_ULPS * _EPS) ** 2 * float(x_i.dot(x_i))
        if (params.mode == "strong" or params.tol == 0.0
                or params.tol > HOLD_GAP * math.sqrt(scale_sq)):
            tau2 = scale_sq
    u_prev = a_prev = x_i
    gamma = Lambda = sum_sq = 0.0
    backtracks = l = 0
    held = False
    tr = InnerTrace() if trace else None
    if tr is not None:
        tr.us.append(x_i.copy())

    # ``(alpha, a_keep, a_bar, f_bar, g)`` of this iteration's last trial
    memo = None

    def trial(delta, alpha):
        # prox step of the linearized subproblem at ``a_bar``; only the
        # adaptive rule runs the descent test, which accepts when ``f_i(a)``
        # is at most its model ``f_bar + <g, a - a_bar> + (1 - sigma) delta
        # / (2 alpha) ||a - a_bar||^2`` up to a tiny relative slack.  Scalar
        # products are written array-first, which dispatches faster and is
        # bitwise the same, and each fresh temporary takes the next term in
        # place (addition commutes exactly): ``a_bar = a_keep + u_prev alpha``,
        # ``v = (u_prev delta + ry - g - rw) / scale``, ``a = a_keep + u alpha``.
        nonlocal memo
        if memo is not None and memo[0] == alpha:
            a_keep, a_bar, f_bar, g = memo[1:]
        else:
            a_keep = a_prev * (1.0 - alpha)
            a_bar = u_prev * alpha
            a_bar += a_keep
            f_bar, g = value_grad(a_bar)
            memo = (alpha, a_keep, a_bar, f_bar, g)
        scale = delta + rg
        v = u_prev * delta
        v += ry
        v -= g
        v -= rw
        v /= scale
        u = prox(v, 1.0 / scale)
        d = u - u_prev
        dsq = float(d.dot(d))
        # a non-finite entry of ``u`` makes ``dsq`` non-finite, so the
        # array test only runs on that cold path
        if not math.isfinite(dsq) and not np.isfinite(u).all():
            raise NumericError("prox step produced non-finite values",
                               context={"routine": "run_inner"})
        a = u * alpha
        a += a_keep
        if not adaptive:
            return True, (u, a, dsq)
        f_a = smooth.value(a)
        d = a - a_bar
        lhs = f_bar + float(d.dot(g)) + (1.0 - sigma) * delta / (2.0 * alpha) * float(d.dot(d))
        return lhs >= f_a - _LS_SLACK * (1.0 + abs(f_a)), (u, a, dsq)

    def fixed_pair():
        # the pair of the rules that do not backtrack, at iteration ``l``
        if zero_f:
            # pinned proximal weight; the mixing weight keeps the
            # delta * alpha * gamma product at one for any delta sequence
            # (at l = 1, Lambda = 0 makes alpha exactly 1)
            return DELTA_MIN, 1.0 / (1.0 + DELTA_MIN * Lambda)
        # constant rule: with zeta the descent test needs no check, and
        # gamma_l = (1 - sigma) l (l + 1) / (4 zeta)
        return 2.0 * zeta / ((1.0 - sigma) * l), 2.0 / (l + 1.0)

    try:
        while True:
            l += 1
            if held:
                # the rule's pair on scalars; the adaptive rule takes its
                # first trial's pair, of ratio delta0
                delta, alpha = _adaptive_pair(delta0, Lambda) if adaptive else fixed_pair()
            elif adaptive:
                delta, alpha, backtracks, (u, a, dsq) = params_adaptive(
                    Lambda, delta0, ETA, trial, MAX_BACKTRACKS, start=start if l == 1 else 0)
                if l == 1:
                    # at Lambda = 0 the accepted ratio is delta0 * ETA**j
                    start = round(math.log(delta / alpha / delta0, ETA))
            else:
                delta, alpha = fixed_pair()
                u, a, dsq = trial(delta, alpha)[1]
            if adaptive:
                delta0 = min(max((delta / alpha) / ETA, DELTA_MIN), DELTA_MAX)

            gamma = 1.0 / delta if l == 1 else gamma / (1.0 - alpha)
            sum_sq += dsq
            Lambda += 1.0 / delta

            if tr is not None:
                # a held iteration records the kept pair, not a copy of it
                kept = (tr.us[-1], tr.a_s[-1]) if held else (u.copy(), a.copy())
                tr.record(delta, alpha, gamma, *kept, dsq, backtracks)

            if stop and gamma >= Gamma_prev:
                if (dist if held else math.sqrt(_sq(a - x_i))) <= psi_eps * math.sqrt(gamma):
                    break
            if held:
                # held iterations do not count against MAX_ITERS; gamma grows
                # without bound, so the stop test always passes in the end
                continue
            # the pair is held once the step moves neither ``u`` nor ``a``
            # by more than rounding and ``a`` has caught up with ``u``, so
            # that ``a_bar`` would be ``u`` too: within rounding a fixed point
            if dsq <= tau2 and _sq(a - a_prev) <= tau2 and _sq(u - a) <= tau2:
                # held iterations take a zero step
                held, dist, dsq, backtracks = True, math.sqrt(_sq(a - x_i)), 0.0, 0
                continue
            u_prev, a_prev, memo = u, a, None
            if l == limit:
                if stop:
                    raise NumericError(
                        "inner loop hit its iteration cap (%d)" % MAX_ITERS,
                        best=InnerResult(u, a, gamma, sum_sq / gamma, l, start))
                break
    except NumericError as err:
        # every numeric failure names the sweep, block and inner iteration
        err.context.update(_ctx(ctx, l))
        raise

    return InnerResult(x_next=u, z=a, Gamma=gamma, r=sum_sq / gamma, iters=l, start=start), tr


def _sq(v):
    return float(v.dot(v))


def _ctx(ctx, l):
    out = {"inner_iteration": l}
    if ctx is not None:
        out["outer_iteration"], out["block"] = ctx[0], ctx[1]
    return out
