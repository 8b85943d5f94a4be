"""Reference inner loop: the earlier three-branch implementation, kept frozen.

``run_inner_reference`` is the loop ``iadmm.inner.run_inner`` had before
its branches were collapsed into one: a pinned branch for zero smooth
terms, a constant-rule branch and an adaptive branch that builds an
``accept`` closure per iteration, evaluates ``value`` and ``grad``
separately and keeps its state in an ``InnerState`` object.  The tests
compare the current loop against it bitwise, so its arithmetic must not
be edited.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from iadmm import inner
from iadmm.errors import ConfigError, NumericError
from iadmm.inner import InnerResult, InnerTrace

_LS_SLACK = 1e-12


@dataclass
class InnerState:
    u_prev: np.ndarray
    a_prev: np.ndarray
    u: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    a_bar: Optional[np.ndarray] = None
    delta: float = 0.0
    alpha: float = 0.0
    gamma: float = 0.0
    Lambda: float = 0.0
    l: int = 0
    sum_sq: float = 0.0


def params_constant(l, zeta, sigma):
    delta = 2.0 * zeta / ((1.0 - sigma) * l)
    alpha = 2.0 / (l + 1.0)
    return delta, alpha


def line_search_accept(smooth, a_bar, a, delta, alpha, sigma,
                       f_bar=None, grad_bar=None, f_a=None):
    if f_bar is None:
        f_bar = smooth.value(a_bar)
    if grad_bar is None:
        grad_bar = smooth.grad(a_bar)
    if f_a is None:
        f_a = smooth.value(a)
    d = a - a_bar
    lhs = f_bar + float(grad_bar @ d) + (1.0 - sigma) * delta / (2.0 * alpha) * float(d @ d)
    return lhs >= f_a - _LS_SLACK * (1.0 + abs(f_a))


def params_adaptive(Lambda_prev, delta0, eta, accept, max_backtracks=60):
    for j in range(max_backtracks + 1):
        theta = 1.0 / (delta0 * eta ** j)
        delta = 2.0 / (theta + np.sqrt(theta * theta + 4.0 * theta * Lambda_prev))
        alpha = 1.0 / (1.0 + delta * Lambda_prev)
        ok, payload = accept(delta, alpha)
        if ok:
            return delta, alpha, j, payload
    raise NumericError(
        "descent test failed after %d backtracks" % max_backtracks,
        context={"routine": "params_adaptive", "delta0": delta0},
    )


def _prox_step(grad, u_prev, y_i, w_pen, delta, rho, gamma_i, nonsmooth):
    scale = delta + rho * gamma_i
    v = (delta * u_prev + rho * gamma_i * y_i - grad - rho * w_pen) / scale
    u = nonsmooth.prox(v, 1.0 / scale)
    if not np.all(np.isfinite(u)):
        raise NumericError("prox step produced non-finite values",
                           context={"routine": "inner_prox_step"})
    return u


def run_inner_reference(block, x_i, y_i, lam, b_i, rho, gamma_i, cfg,
                        Gamma_prev, psi_eps, force_iters=None, trace=False,
                        ctx=None):
    smooth, nonsmooth, op = block.smooth, block.nonsmooth, block.op
    zeta = smooth.lipschitz
    zero_f = (zeta == 0.0)
    if not zero_f and cfg.rule == "constant" and (zeta is None or zeta <= 0.0):
        raise ConfigError("constant rule needs a positive Lipschitz bound for nonzero smooth terms")

    x_i = np.asarray(x_i, dtype=np.float64)
    st = InnerState(u_prev=x_i.copy(), a_prev=x_i.copy())
    w_pen = op.adjoint(op.apply(y_i) - b_i + lam / rho)
    delta0 = min(max(1.0, inner.DELTA_MIN), inner.DELTA_MAX)
    tr = InnerTrace() if trace else None
    if tr is not None:
        tr.us.append(st.u_prev.copy())

    max_l = force_iters if force_iters is not None else inner.MAX_ITERS
    stopped = False
    for l in range(1, max_l + 1):
        st.l = l
        backtracks = 0
        if zero_f:
            delta = inner.DELTA_MIN
            alpha = 1.0 if l == 1 else 1.0 / (1.0 + delta * st.Lambda)
            a_bar = (1.0 - alpha) * st.a_prev + alpha * st.u_prev
            grad = smooth.grad(a_bar)
            u = _prox_step(grad, st.u_prev, y_i, w_pen, delta, rho, gamma_i, nonsmooth)
            a = (1.0 - alpha) * st.a_prev + alpha * u
        elif cfg.rule == "constant":
            delta, alpha = params_constant(l, zeta, cfg.sigma)
            a_bar = (1.0 - alpha) * st.a_prev + alpha * st.u_prev
            grad = smooth.grad(a_bar)
            u = _prox_step(grad, st.u_prev, y_i, w_pen, delta, rho, gamma_i, nonsmooth)
            a = (1.0 - alpha) * st.a_prev + alpha * u
        else:
            def accept(dl, al):
                a_bar = (1.0 - al) * st.a_prev + al * st.u_prev
                f_bar = smooth.value(a_bar)
                g_bar = smooth.grad(a_bar)
                u = _prox_step(g_bar, st.u_prev, y_i, w_pen, dl, rho, gamma_i, nonsmooth)
                a = (1.0 - al) * st.a_prev + al * u
                ok = line_search_accept(smooth, a_bar, a, dl, al, cfg.sigma,
                                        f_bar=f_bar, grad_bar=g_bar)
                return ok, (a_bar, u, a)

            try:
                delta, alpha, backtracks, payload = params_adaptive(
                    st.Lambda, delta0, inner.ETA, accept, inner.MAX_BACKTRACKS)
            except NumericError as err:
                err.context.update(_ctx(ctx, l))
                raise
            a_bar, u, a = payload
            delta0 = min(max((delta / alpha) / inner.ETA, inner.DELTA_MIN), inner.DELTA_MAX)

        st.delta, st.alpha, st.a_bar = delta, alpha, a_bar
        st.gamma = 1.0 / delta if l == 1 else st.gamma / (1.0 - alpha)
        step = u - st.u_prev
        dsq = float(step @ step)
        st.sum_sq += dsq
        st.Lambda += 1.0 / delta
        st.u, st.a = u, a

        if tr is not None:
            tr.deltas.append(delta)
            tr.alphas.append(alpha)
            tr.gammas.append(st.gamma)
            tr.xis.append(delta * alpha * st.gamma)
            tr.us.append(u.copy())
            tr.a_s.append(a.copy())
            tr.step_sq.append(dsq)
            tr.backtracks.append(backtracks)

        if force_iters is None:
            if st.gamma >= Gamma_prev and float(np.linalg.norm(a - x_i)) <= psi_eps * np.sqrt(st.gamma):
                stopped = True
                break
        elif l == max_l:
            stopped = True
            break
        st.u_prev, st.a_prev = u, a

    if not stopped:
        raise NumericError(
            "inner loop hit its iteration cap (%d)" % inner.MAX_ITERS,
            context=_ctx(ctx, st.l),
            best=InnerResult(st.u, st.a, st.gamma, st.sum_sq / st.gamma, st.l),
        )
    res = InnerResult(x_next=st.u, z=st.a, Gamma=st.gamma,
                      r=st.sum_sq / st.gamma, iters=st.l)
    return res, tr


def _ctx(ctx, l):
    out = {"inner_iteration": l}
    if ctx is not None:
        out["outer_iteration"], out["block"] = ctx[0], ctx[1]
    return out
