"""Inner accelerated loop: step sizes, prox steps, stopping, estimates."""

import collections
import copy
import dataclasses
import math
import struct
import types

import numpy as np
import pytest

import iadmm.inner
from iadmm.blockspace import DenseMap
from iadmm.errors import ConfigError, NumericError
from iadmm.inner import params_adaptive, run_inner
from iadmm.oracle import subproblem_minimizer
from iadmm.outer import SolverParams
from iadmm.problem import Block
from iadmm.proxlib import ProxTerm, l1_prox, quadratic, zero_prox, zero_smooth
from reference_inner import params_adaptive as frozen
from reference_inner import run_inner_reference
from test_inner_reference import _assert_same


def _block(seed, dim=6, mu=0.5, weight=0.1):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    H = G.T @ G + mu * np.eye(dim)
    c = rng.standard_normal(dim)
    A = DenseMap(rng.standard_normal((dim + 2, dim)) / np.sqrt(dim))
    nonsmooth = l1_prox(weight) if weight else zero_prox()
    return Block(quadratic(H, c, modulus=mu), nonsmooth, A)


def _inner_inputs(seed, blk):
    rng = np.random.default_rng(seed + 1000)
    dim = blk.dim
    y_i = rng.standard_normal(dim)
    x_i = y_i + rng.standard_normal(dim)
    lam = rng.standard_normal(blk.op.rows)
    b_i = rng.standard_normal(blk.op.rows)
    return x_i, y_i, lam, b_i


def _scalar_block(L):
    """One-dimensional block ``f = 0.5 L x^2`` (Lipschitz bound exactly ``L``)."""
    return Block(quadratic(np.array([[L]]), np.zeros(1)), zero_prox(),
                 DenseMap(np.array([[1.0], [0.5]])))


def _scalar_trace(L, rule, sigma, iters):
    blk = _scalar_block(L)
    _, tr = run_inner(blk, np.array([1.0]), np.zeros(1), np.zeros(2), np.ones(2), 1.0, 2.0,
                      SolverParams(rule=rule, sigma=sigma), Gamma_prev=0.0,
                      psi_eps=np.inf, force_iters=iters, trace=True)
    return tr


def test_constant_rule_pair_examples():
    # l=1, zeta=2, sigma=1/2: delta = 2*zeta/((1-sigma)*1) = 8, alpha = 2/(1+1) = 1
    tr = _scalar_trace(2.0, "constant", 0.5, 1)
    assert tr.deltas[0] == pytest.approx(8.0)
    assert tr.alphas[0] == pytest.approx(1.0)
    # l=3, zeta=1, sigma=1/2: delta = 4/3, alpha = 1/2, and with
    # gamma^3 = (1-sigma)*3*4/(4*zeta) = 3/2 the product is exactly 1
    tr = _scalar_trace(1.0, "constant", 0.5, 3)
    assert tr.deltas[2] == pytest.approx(4.0 / 3.0)
    assert tr.alphas[2] == pytest.approx(0.5)
    assert tr.gammas[2] == pytest.approx(1.5)
    assert tr.deltas[2] * tr.alphas[2] * tr.gammas[2] == pytest.approx(1.0)
    assert tr.backtracks == [0, 0, 0]


def test_constant_rule_gamma_closed_form():
    # delta^l = 2 zeta / ((1-sigma) l), alpha^l = 2 / (l+1) and
    # gamma^l = (1-sigma) l (l+1) / (4 zeta) along a forced constant-rule run
    zeta, sigma = 1.5, 0.25
    tr = _scalar_trace(zeta, "constant", sigma, 11)
    for l in range(1, 12):
        assert tr.deltas[l - 1] == pytest.approx(2.0 * zeta / ((1.0 - sigma) * l), rel=1e-15)
        assert tr.alphas[l - 1] == pytest.approx(2.0 / (l + 1.0), rel=1e-15)
        closed = (1.0 - sigma) * l * (l + 1) / (4.0 * zeta)
        assert tr.gammas[l - 1] == pytest.approx(closed, rel=1e-12)


def test_adaptive_descent_test_on_a_scalar_quadratic():
    # f = 0.5 L x^2 at sigma = 1/2: the descent test holds iff
    # delta/alpha >= L/(1-sigma).  With L = 4 iteration 1 tries delta/alpha
    # = 1, 2, 4, 8 and accepts the tie at 8; every later iteration starts at
    # 8/eta = 4, fails it and accepts 8 again.  With L = 4.05 the bound is
    # 8.1, so 8 fails too and every iteration accepts one doubling later
    for L, ratio, backtracks in ((4.0, 8.0, [3, 1, 1, 1, 1]), (4.05, 16.0, [4, 1, 1, 1, 1])):
        tr = _scalar_trace(L, "adaptive", 0.5, 5)
        assert tr.backtracks == backtracks
        assert [d / a for d, a in zip(tr.deltas, tr.alphas)] == pytest.approx([ratio] * 5,
                                                                              rel=1e-15)


def test_params_adaptive_first_step_alpha_one():
    term = quadratic(np.array([[2.0]]), np.zeros(1))

    def accept(delta, alpha):
        return True, None

    delta, alpha, j, payload = params_adaptive(Lambda_prev=0.0, delta0=1.0,
                                               eta=2.0, accept=accept)
    assert alpha == pytest.approx(1.0)
    # Lambda = 1/delta at l=1 makes alpha = 1/(1+delta*Lambda) ... = 1/2 only
    # for l>=2; the driver seeds Lambda_prev=0 so alpha must be 1 here
    assert j == 0
    assert delta > 0.0


def test_params_adaptive_backtracks_until_accept():
    calls = []

    def accept(delta, alpha):
        calls.append(delta / alpha)
        return len(calls) >= 3, None

    delta, alpha, j, payload = params_adaptive(Lambda_prev=0.0, delta0=1.0,
                                               eta=2.0, accept=accept)
    assert j == 2
    # each backtrack doubles the effective curvature guess delta/alpha
    assert calls[1] / calls[0] == pytest.approx(2.0)
    assert calls[2] / calls[1] == pytest.approx(2.0)


def test_params_adaptive_exhaustion_raises():
    def accept(delta, alpha):
        return False, None

    with pytest.raises(NumericError):
        params_adaptive(Lambda_prev=0.0, delta0=1.0, eta=2.0, accept=accept,
                        max_backtracks=5)


def _scripted(passes):
    """``accept`` passing exactly the exponents in ``passes``, recording each one tried.

    At ``Lambda_prev = 0``, ``delta0 = 1`` and ``eta = 2`` a trial's ratio
    ``delta / alpha`` is ``2**j`` exactly; the payload is the exponent.
    """
    tried = []

    def accept(delta, alpha):
        j = round(math.log2(delta / alpha))
        tried.append(j)
        return j in passes, j

    return accept, tried


@pytest.mark.parametrize("start,passes,tried", [
    # the guess passes, and the walk down stops at the first failure even
    # though a smaller exponent would pass again
    (6, {1} | set(range(3, 61)), [6, 5, 4, 3, 2]),
    # the guess fails, and the search goes up as the cold search would
    (2, set(range(5, 61)), [2, 3, 4, 5]),
    # every exponent passes: the walk ends at the cold start, never below it
    (3, set(range(61)), [3, 2, 1, 0]),
    # a guess at the cold start never walks
    (0, set(range(61)), [0]),
])
def test_params_adaptive_warm_start(start, passes, tried):
    accept, seen = _scripted(passes)
    delta, alpha, n, j = params_adaptive(0.0, 1.0, 2.0, accept, start=start)
    assert seen == tried
    # the accepted trial is the last passing one, whose pair is returned
    assert j == [t for t in tried if t in passes][-1]
    assert (delta, alpha) == (2.0 ** j, 1.0)
    # the third value counts the trials run, minus one
    assert n == len(tried) - 1


@pytest.mark.parametrize("Lambda_prev", [0.0, 0.7])
@pytest.mark.parametrize("first", [0, 1, 4, 60])
def test_params_adaptive_cold_start_is_unchanged(Lambda_prev, first):
    # start = 0 (the default) is the frozen search, value for value
    runs = []
    for fn, kw in ((params_adaptive, {}), (params_adaptive, {"start": 0}), (frozen, {})):
        trials = []

        def accept(delta, alpha):
            trials.append((delta, alpha))
            return len(trials) > first, len(trials)

        runs.append((fn(Lambda_prev, 0.3, 2.0, accept, **kw), trials))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0][2] == first


def _cold_pair(Lambda_prev, delta0, j):
    # the pair the cold search accepts when exponent ``j`` is the first to pass
    trials = []

    def accept(delta, alpha):
        trials.append((delta, alpha))
        return len(trials) > j, None

    return params_adaptive(Lambda_prev, delta0, 2.0, accept)[:2]


def test_params_adaptive_walk_keeps_the_trial_formula():
    # with Lambda_prev > 0 each trial of the walk down is bit for bit the
    # cold search's pair for its exponent
    seen = []

    def accept(delta, alpha):
        seen.append((delta, alpha))
        return True, None

    delta, alpha, n, _ = params_adaptive(0.7, 0.3, 2.0, accept, start=3)
    assert n == 3 and (delta, alpha) == seen[-1]
    assert seen == [_cold_pair(0.7, 0.3, j) for j in (3, 2, 1, 0)]


def test_params_adaptive_warm_exhaustion_raises():
    accept, tried = _scripted(set())
    with pytest.raises(NumericError, match="^descent test failed after 5 backtracks$"):
        params_adaptive(0.0, 1.0, 2.0, accept, max_backtracks=5, start=2)
    assert tried == [2, 3, 4, 5]


def test_prox_step_stationarity_and_l1_formula():
    # every iterate must satisfy the prox optimality condition of its
    # linearized subproblem; for l1 it is plain soft thresholding of the
    # linearized point, rebuilt here from the trace
    blk = _block(7, dim=5, weight=0.3)
    x_i, y_i, lam, b_i = _inner_inputs(7, blk)
    rho, gamma_i = 0.9, 2.0
    w_pen = blk.op.adjoint(blk.op.apply(y_i) - b_i + lam / rho)
    L = 6
    for rule in ("constant", "adaptive"):
        _, tr = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i,
                          SolverParams(rule=rule, sigma=0.9), Gamma_prev=0.0,
                          psi_eps=np.inf, force_iters=L, trace=True)
        a_prev = x_i
        for l in range(L):
            delta, alpha, u_prev = tr.deltas[l], tr.alphas[l], tr.us[l]
            grad = blk.smooth.grad((1.0 - alpha) * a_prev + alpha * u_prev)
            scale = delta + rho * gamma_i
            v = (delta * u_prev + rho * gamma_i * y_i - grad - rho * w_pen) / scale
            shrunk = np.sign(v) * np.maximum(np.abs(v) - 0.3 / scale, 0.0)
            assert np.allclose(tr.us[l + 1], shrunk, atol=1e-12)
            a_prev = tr.a_s[l]


def test_step1b_check_arithmetic():
    # the loop stops at the first l with gamma_l >= floor and
    # ||a_l - x_i|| <= psi_eps * sqrt(gamma_l); a forced run of the same
    # loop gives the trace to recompute that index from
    blk = _block(35)
    x_i, y_i, lam, b_i = _inner_inputs(35, blk)
    params = SolverParams(rule="adaptive", sigma=0.9)
    _, tr = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, params,
                      Gamma_prev=0.0, psi_eps=np.inf, force_iters=200, trace=True)
    gammas = np.asarray(tr.gammas)
    gaps = np.array([np.linalg.norm(a - x_i) for a in tr.a_s])

    def first(floor, psi):
        ok = (gammas >= floor) & (gaps <= psi * np.sqrt(gammas))
        return int(np.argmax(ok)) + 1

    psi = gaps[29] / np.sqrt(gammas[29]) * (1.0 + 1e-9)
    cases = [
        (0.0, np.inf, 1),        # infinite tolerance: stop at once
        (gammas[9], np.inf, 10),  # the floor is met exactly at l = 10
        (0.0, psi, None),         # only the scaled step binds
        (gammas[39], psi, 40),    # the floor binds after the step
    ]
    for floor, psi_eps, expect in cases:
        want = first(floor, psi_eps)
        if expect is not None:
            assert want == expect
        else:
            assert 1 < want <= 30
        res, _ = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, params,
                           Gamma_prev=floor, psi_eps=psi_eps)
        assert res.iters == want
        assert res.Gamma == tr.gammas[want - 1]
        assert np.array_equal(res.z, tr.a_s[want - 1])


def test_run_inner_fixed_point_stops_immediately():
    # start at the subproblem solution with a consistent state: one pass
    # leaves u unchanged and r = 0 (the zero-sweep fixed point)
    blk = _block(3, weight=0.0)
    y_i = np.zeros(blk.dim)
    lam = np.zeros(blk.op.rows)
    rho, gamma_i = 1.0, 2.0
    b_i = blk.op.apply(y_i)
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
    # make y the minimizer as well so the penalty is centered there
    y_i = xbar
    b_i = blk.op.apply(xbar)
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
    params = SolverParams(rule="adaptive")
    res, _ = run_inner(blk, xbar, y_i, lam, b_i, rho, gamma_i, params,
                       Gamma_prev=0.0, psi_eps=np.inf, force_iters=1,
                       trace=False)
    assert np.linalg.norm(res.x_next - xbar) <= 1e-9
    assert res.r <= 1e-18


def test_run_inner_hands_back_prev_unrun():
    # the caller vouches that the inputs repeat: nothing is compared, no
    # iteration runs, and prev's own arrays come back
    blk = _block(5)
    args = _inner_inputs(5, blk) + (1.0, 2.0)
    params = SolverParams(sigma=0.9)
    kw = dict(Gamma_prev=0.0, psi_eps=2.0)
    first, _ = run_inner(blk, *args, params, **kw)
    assert first.iters > 0
    again, tr = run_inner(blk, *(v * 2.0 for v in args), params, **kw, trace=True, prev=first)
    assert tr is None
    _assert_same((again, None), (dataclasses.replace(first, iters=0), None))
    assert again.x_next is first.x_next and again.z is first.z


def test_run_inner_warm_start_keeps_every_bit():
    # iteration 1 of _block(7) backtracks; a search started at, above or
    # below its accepted exponent accepts the same trial, and only the
    # iteration-1 trial count moves
    blk = _block(7)
    args = _inner_inputs(7, blk) + (1.0, 2.0, SolverParams(sigma=0.9))
    kw = dict(Gamma_prev=0.0, psi_eps=np.inf, force_iters=6, trace=True)
    cold, cold_tr = run_inner(blk, *args, **kw)
    j = cold.start
    assert j >= 2 and cold_tr.backtracks[0] == j
    # trials: the guess and the failing exponent below it; the walk down
    # from j + 3; the climb from j - 1
    for start, trials in ((j, 2), (j + 3, 5), (j - 1, 2)):
        warm, warm_tr = run_inner(blk, *args, **kw, start=start)
        assert warm.start == j
        assert warm_tr.backtracks == [trials - 1] + cold_tr.backtracks[1:]
        warm_tr.backtracks = cold_tr.backtracks
        _assert_same((warm, warm_tr), (cold, cold_tr))
    # a replayed result keeps its start
    again, _ = run_inner(blk, *args, Gamma_prev=0.0, psi_eps=np.inf, prev=cold)
    assert again.start == j


@pytest.mark.parametrize("start", [-1, iadmm.inner.MAX_BACKTRACKS + 1, 1.5, True, "1", None])
def test_run_inner_start_must_be_an_exponent(start):
    blk = _block(7)
    with pytest.raises(ConfigError, match="start"):
        run_inner(blk, *_inner_inputs(7, blk), 1.0, 2.0, SolverParams(), Gamma_prev=0.0,
                  psi_eps=np.inf, start=start)


def _trial_alphas(monkeypatch):
    """Record the ``alpha`` of every adaptive trial, one list per inner iteration."""
    iters = []
    real = iadmm.inner.params_adaptive

    def recording(Lambda_prev, delta0, eta, accept, max_backtracks, start=0):
        alphas = []
        iters.append(alphas)

        def accept_recorded(delta, alpha):
            alphas.append(alpha)
            return accept(delta, alpha)

        return real(Lambda_prev, delta0, eta, accept_recorded, max_backtracks, start=start)

    monkeypatch.setattr(iadmm.inner, "params_adaptive", recording)
    return iters


@pytest.mark.parametrize("case", ["backtracks", "boundary"])
def test_trials_at_a_repeated_alpha_reuse_the_gradient(case, monkeypatch):
    # at Lambda = 0 every trial of iteration 1 has alpha = 1 and linearizes
    # at the same a_bar, so f_i and its gradient there are evaluated once.
    # In the boundary case a huge ETA and a tiny DELTA_MIN make iteration 2
    # start at alpha = 1 too, from a new point: a reuse that outlived its
    # iteration would skip that evaluation
    blk = _block(7)
    params = SolverParams(sigma=0.9)
    if case == "boundary":
        blk = dataclasses.replace(blk, smooth=quadratic(0.01 * blk.smooth.hessian,
                                                        blk.smooth.linear))
        monkeypatch.setattr(iadmm.inner, "ETA", 1e20)
        monkeypatch.setattr(iadmm.inner, "DELTA_MIN", 1e-30)
    calls = []

    def counted(x, value_grad=blk.smooth.value_grad):
        calls.append(1)
        return value_grad(x)

    counting = dataclasses.replace(blk, smooth=dataclasses.replace(blk.smooth,
                                                                   value_grad=counted))
    args = _inner_inputs(7, blk) + (1.0, 2.0, params)
    kw = dict(Gamma_prev=0.0, psi_eps=np.inf, force_iters=6, trace=True)
    alphas = _trial_alphas(monkeypatch)
    new = run_inner(counting, *args, **kw)

    backtracks = new[1].backtracks
    trials = len(backtracks) + sum(backtracks)
    assert [len(a) for a in alphas] == [1 + b for b in backtracks]
    if case == "backtracks":
        assert backtracks[0] >= 2
    else:
        assert backtracks[0] == 0 and alphas[1][0] == alphas[0][-1] == 1.0
    assert len(calls) == trials - backtracks[0]
    _assert_same(new, run_inner_reference(blk, *args, **kw))


@pytest.mark.parametrize("rule", ["constant", "adaptive"])
def test_xi_coupling_invariant(rule):
    # delta^l * alpha^l * gamma^l = 1 at every inner iteration
    blk = _block(5)
    x_i, y_i, lam, b_i = _inner_inputs(5, blk)
    params = SolverParams(rule=rule, sigma=0.9)
    res, tr = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, params,
                        Gamma_prev=0.0, psi_eps=np.inf, force_iters=60,
                        trace=True)
    xis = np.asarray(tr.xis)
    assert np.max(np.abs(xis - 1.0)) <= 1e-9


@pytest.mark.parametrize("rule", ["constant", "adaptive"])
def test_gamma_is_increasing(rule):
    blk = _block(9)
    x_i, y_i, lam, b_i = _inner_inputs(9, blk)
    params = SolverParams(rule=rule, sigma=0.9)
    res, tr = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, params,
                        Gamma_prev=0.0, psi_eps=np.inf, force_iters=40,
                        trace=True)
    g = np.asarray(tr.gammas)
    assert np.all(np.diff(g) > 0.0)
    assert res.Gamma == pytest.approx(g[-1])


@pytest.mark.parametrize("rule", ["constant", "adaptive"])
def test_averaged_point_is_weighted_combination(rule):
    # a^L = (1/gamma^L) sum_l gamma^l alpha^l u^l holds for both rules
    blk = _block(13)
    x_i, y_i, lam, b_i = _inner_inputs(13, blk)
    params = SolverParams(rule=rule, sigma=0.9)
    L = 25
    res, tr = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, params,
                        Gamma_prev=0.0, psi_eps=np.inf, force_iters=L,
                        trace=True)
    acc = np.zeros(blk.dim)
    for l in range(L):
        acc += tr.gammas[l] * tr.alphas[l] * tr.us[l + 1]
    recon = acc / tr.gammas[-1]
    assert np.linalg.norm(recon - res.z) <= 1e-10 * (1 + np.linalg.norm(res.z))


@pytest.mark.parametrize("rule", ["constant", "adaptive"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inner_estimate_against_oracle(rule, seed):
    # the per-block convergence estimate, with the independent minimizer
    # on the right-hand side, holds at every prefix length
    blk = _block(20 + seed)
    x_i, y_i, lam, b_i = _inner_inputs(20 + seed, blk)
    rho, gamma_i = 1.0, 2.0
    params = SolverParams(rule=rule, sigma=0.9)
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
    start_sq = float((x_i - xbar) @ (x_i - xbar))
    mu_h = blk.nonsmooth.modulus
    for L in range(1, 41):
        res, tr = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i, params,
                            Gamma_prev=0.0, psi_eps=np.inf, force_iters=L,
                            trace=True)
        acc = sum(x * float((tr.us[j + 1] - tr.us[j]) @ (tr.us[j + 1] - tr.us[j]))
                  for j, x in enumerate(tr.xis))
        a_gap = float((res.z - xbar) @ (res.z - xbar))
        lhs = (rho * gamma_i + 0.5 * mu_h * L) * a_gap + params.sigma / res.Gamma * acc
        assert lhs <= start_sq / res.Gamma + 1e-8


def test_run_inner_stops_by_criterion_near_solution():
    # with x already close to the solution, the loop should stop early
    # once the floor is reached, and later restarts inherit the floor
    blk = _block(31, weight=0.0)
    x_i, y_i, lam, b_i = _inner_inputs(31, blk)
    params = SolverParams(rule="adaptive", sigma=0.9)
    res1, _ = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, params,
                        Gamma_prev=0.0, psi_eps=np.inf, trace=False)
    assert res1.iters == 1  # infinite tolerance stops at the first chance
    res2, _ = run_inner(blk, res1.x_next, y_i, lam, b_i, 1.0, 2.0, params,
                        Gamma_prev=res1.Gamma, psi_eps=1e-3, trace=False)
    assert res2.Gamma > res1.Gamma  # the floor forces strict growth


def test_run_inner_cap_raises_with_context(monkeypatch):
    blk = _block(33)
    x_i, y_i, lam, b_i = _inner_inputs(33, blk)
    monkeypatch.setattr(iadmm.inner, "MAX_ITERS", 3)
    with pytest.raises(NumericError, match=r"iteration cap \(3\)") as info:
        run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, SolverParams(rule="adaptive", sigma=0.9),
                  Gamma_prev=0.0, psi_eps=0.0, ctx=(4, 1))
    assert info.value.context["outer_iteration"] == 4
    assert info.value.context["block"] == 1
    assert info.value.best is not None


def _counted(blk):
    """``blk`` with its prox, smooth and operator callables counting their calls."""
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    smooth = dataclasses.replace(blk.smooth, value=counting("value", blk.smooth.value),
                                 value_grad=counting("value_grad", blk.smooth.value_grad))
    nonsmooth = dataclasses.replace(blk.nonsmooth, prox=counting("prox", blk.nonsmooth.prox))
    op = copy.copy(blk.op)
    op.apply, op.adjoint = counting("apply", blk.op.apply), counting("adjoint", blk.op.adjoint)
    return Block(smooth, nonsmooth, op), calls


def _minimizer_start(seed, weight, pinned=False):
    # a block started at its own subproblem's minimizer: iteration 1's
    # step is rounding, far below the forcing test's needs
    blk = _block(seed, weight=weight)
    if pinned:
        blk = Block(zero_smooth(), blk.nonsmooth, blk.op)
    _, y_i, lam, b_i = _inner_inputs(seed, blk)
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, 1.0, 2.0)
    return blk, (xbar, y_i, lam, b_i, 1.0, 2.0)


def _assert_holds_after_one(blk, args, params, kw):
    # from iteration 2 on the loop holds (u, a): the rest of the call has a
    # zero step and evaluates nothing, while the (delta, alpha, gamma)
    # recurrences run as in the frozen loop; returns the frozen loop's steps
    counted, calls = _counted(blk)
    run_inner(counted, *args, params, Gamma_prev=0.0, psi_eps=np.inf, force_iters=1)
    first = dict(calls)
    calls.clear()
    res, tr = run_inner(counted, *args, params, **kw, trace=True)
    ref, ref_tr = run_inner_reference(blk, *args, params, **kw, trace=True)
    assert res.iters == ref.iters > 10
    assert tr.step_sq[0] > 0.0 and tr.step_sq[1:] == [0.0] * (res.iters - 1)
    for name in ("deltas", "alphas", "gammas"):
        got, want = getattr(tr, name), getattr(ref_tr, name)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want], name
    # only iteration 1 made prox, smooth and operator calls
    assert calls == first
    # a traced and an untraced call return the same bits
    _assert_same((run_inner(blk, *args, params, **kw)[0], None), (res, None))
    return ref_tr.step_sq


@pytest.mark.parametrize("weight", [0.0, 0.1])
def test_strong_loop_holds_its_pair_once_the_step_is_rounding(weight):
    blk, args = _minimizer_start(3, weight)
    kw = dict(Gamma_prev=1e4, psi_eps=1e-3)
    _assert_holds_after_one(blk, args, SolverParams(mode="strong", sigma=0.9), kw)
    # the fixed-penalty loop keeps every bit of the frozen one at tol = 0,
    # and holds as the strong one does at the default tol, above the gate
    convex = SolverParams(mode="convex", sigma=0.9, tol=0.0)
    _assert_same(run_inner(blk, *args, convex, **kw, trace=True),
                 run_inner_reference(blk, *args, convex, **kw, trace=True))
    _assert_holds_after_one(blk, args, SolverParams(mode="convex", sigma=0.9), kw)


@pytest.mark.parametrize("case", ["adaptive", "constant", "pinned"])
def test_fixed_penalty_hold_is_gated_by_tol(case):
    # a fixed-penalty call may hold only when tol exceeds HOLD_GAP times the
    # rounding scale HOLD_ULPS eps ||x_i||; at that gate and below it the
    # loop keeps every bit of the frozen one
    blk, args = _minimizer_start(3, 0.1, pinned=case == "pinned")
    rule = "constant" if case == "constant" else "adaptive"
    x_i = args[0]
    eps = np.finfo(np.float64).eps
    gate = iadmm.inner.HOLD_GAP * math.sqrt((iadmm.inner.HOLD_ULPS * eps) ** 2
                                            * float(x_i.dot(x_i)))
    # a zero smooth term starts at gamma = 1 / DELTA_MIN = 1e6
    kw = dict(Gamma_prev=1e8 if case == "pinned" else 1e4, psi_eps=1e-3)
    for tol in (float(np.nextafter(gate, 0.0)), gate):
        params = SolverParams(rule=rule, sigma=0.9, tol=tol)
        _assert_same(run_inner(blk, *args, params, **kw, trace=True),
                     run_inner_reference(blk, *args, params, **kw, trace=True))
    above = SolverParams(rule=rule, sigma=0.9, tol=float(np.nextafter(gate, np.inf)))
    frozen_steps = _assert_holds_after_one(blk, args, above, kw)
    # the frozen loop goes on stepping at rounding, so a hold below the gate
    # would show; the pinned one reaches its fixed point exactly
    assert any(s > 0.0 for s in frozen_steps[1:]) == (case != "pinned")


def test_held_strong_loop_finishes_past_the_cap(monkeypatch):
    # only iterations that do vector work count against MAX_ITERS; a held
    # tail runs its scalar recurrences until gamma reaches its floor
    blk, args = _minimizer_start(3, 0.1)
    monkeypatch.setattr(iadmm.inner, "MAX_ITERS", 3)
    res, tr = run_inner(blk, *args, SolverParams(mode="strong", sigma=0.9),
                        Gamma_prev=1e4, psi_eps=1e-3, trace=True)
    assert res.iters > 3 and res.Gamma >= 1e4
    assert sum(s > 0.0 for s in tr.step_sq) == 1


def test_unheld_strong_loop_raises_at_the_cap(monkeypatch):
    # a strong loop far from its minimizer does not hold within the cap
    blk = _block(33)
    x_i, y_i, lam, b_i = _inner_inputs(33, blk)
    monkeypatch.setattr(iadmm.inner, "MAX_ITERS", 3)
    with pytest.raises(NumericError, match=r"iteration cap \(3\)") as info:
        run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, SolverParams(mode="strong", sigma=0.9),
                  Gamma_prev=1e4, psi_eps=1e-12, ctx=(4, 1))
    assert info.value.context == {"inner_iteration": 3, "outer_iteration": 4, "block": 1}
    assert info.value.best.iters == 3


def test_run_inner_force_iters_must_be_positive():
    # a fractional count once never returned, and a string or bool was no count
    blk = _block(33)
    x_i, y_i, lam, b_i = _inner_inputs(33, blk)
    for bad in (0, -2, 2.5, "3", True):
        with pytest.raises(ConfigError, match="force_iters"):
            run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, SolverParams(),
                      Gamma_prev=0.0, psi_eps=np.inf, force_iters=bad)


@pytest.mark.parametrize("rule", ["constant", "adaptive"])
@pytest.mark.parametrize("zero_f", [False, True])
def test_non_finite_prox_step_raises_with_context(rule, zero_f):
    blk = _block(37)
    if zero_f:
        blk = Block(zero_smooth(), blk.nonsmooth, blk.op)
    calls = []

    def bad_prox(v, tau):
        calls.append(1)
        return np.full_like(v, np.nan) if len(calls) == 3 else v

    blk = Block(blk.smooth, ProxTerm(value=lambda y: 0.0, prox=bad_prox), blk.op)
    x_i, y_i, lam, b_i = _inner_inputs(37, blk)
    with pytest.raises(NumericError, match="non-finite") as info:
        run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, SolverParams(rule=rule),
                  Gamma_prev=0.0, psi_eps=np.inf, force_iters=10, ctx=(7, 2))
    ctx = info.value.context
    assert (ctx["outer_iteration"], ctx["block"]) == (7, 2)
    assert 1 <= ctx["inner_iteration"] <= 3


def _prox_spoiling_call(n, index, value):
    """Identity prox that writes ``value`` into entry ``index`` on its ``n``-th call."""
    calls = []

    def prox(v, tau):
        calls.append(1)
        if len(calls) == n:
            v = v.copy()
            v[index] = value
        return v

    return ProxTerm(value=lambda y: 0.0, prox=prox), calls


def _inner_case(case, seed):
    # ``pinned`` is the zero-smooth block, which pins delta whatever the rule
    blk = _block(seed)
    if case == "pinned":
        blk = Block(zero_smooth(), blk.nonsmooth, blk.op)
    return blk, SolverParams(rule="adaptive" if case == "pinned" else case)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", ["adaptive", "constant", "pinned"])
def test_one_non_finite_prox_entry_raises_at_its_trial(case, bad):
    # the scalar test on the step's squared norm catches a single bad
    # entry and hands it to the array test, at the trial that made it
    spoiled_call = 4
    blk, params = _inner_case(case, 41)
    x_i, y_i, lam, b_i = _inner_inputs(41, blk)
    _, tr = run_inner(Block(blk.smooth, zero_prox(), blk.op), x_i, y_i, lam, b_i, 1.0, 2.0, params,
                      Gamma_prev=0.0, psi_eps=np.inf, force_iters=10, trace=True)
    trials = np.cumsum(np.asarray(tr.backtracks) + 1)
    expected_l = int(np.searchsorted(trials, spoiled_call)) + 1

    spoiled, calls = _prox_spoiling_call(spoiled_call, 2, bad)
    with pytest.raises(NumericError, match="prox step produced non-finite values") as info:
        run_inner(Block(blk.smooth, spoiled, blk.op), x_i, y_i, lam, b_i, 1.0, 2.0, params,
                  Gamma_prev=0.0, psi_eps=np.inf, force_iters=10, ctx=(5, 1))
    assert len(calls) == spoiled_call
    assert info.value.context == {"routine": "run_inner", "inner_iteration": expected_l,
                                  "outer_iteration": 5, "block": 1}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["constant", "pinned"])
def test_overflowing_finite_step_is_not_an_error(case):
    # a finite step whose squared norm overflows to inf passes the scalar
    # test's cold path, and the loop still matches its frozen reference
    blk, params = _inner_case(case, 43)
    x_i, y_i, lam, b_i = _inner_inputs(43, blk)
    spoiled, _ = _prox_spoiling_call(2, 0, 1e200)
    blk = Block(blk.smooth, spoiled, blk.op)
    kw = dict(Gamma_prev=0.0, psi_eps=np.inf, force_iters=4, trace=True)
    new = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, params, **kw)
    spoiled_ref, _ = _prox_spoiling_call(2, 0, 1e200)
    ref = run_inner_reference(Block(blk.smooth, spoiled_ref, blk.op),
                              x_i, y_i, lam, b_i, 1.0, 2.0, params, **kw)
    _assert_same(new, ref)
    res, tr = new
    assert tr.step_sq[1] == np.inf
    assert np.isfinite(res.x_next).all() and res.r == np.inf


def test_inner_loop_bounds_are_module_constants():
    # the loop's bounds are fixed constants, not settings, and run_inner
    # reads only the rule, sigma, mode and tol of the parameters it is handed
    assert (iadmm.inner.DELTA_MIN, iadmm.inner.DELTA_MAX, iadmm.inner.ETA,
            iadmm.inner.MAX_BACKTRACKS, iadmm.inner.MAX_ITERS, iadmm.inner.HOLD_ULPS,
            iadmm.inner.HOLD_GAP) == (1e-6, 1e6, 2.0, 60, 10_000, 4, 1e3)
    blk = _block(45)
    args = _inner_inputs(45, blk) + (1.0, 2.0)
    for kw in (dict(Gamma_prev=0.0, psi_eps=np.inf, force_iters=8, trace=True),
               dict(Gamma_prev=5.0, psi_eps=0.1, trace=True)):
        for rule in ("constant", "adaptive"):
            for mode in ("convex", "strong"):
                bare = types.SimpleNamespace(rule=rule, sigma=0.9, mode=mode, tol=1e-8)
                full = SolverParams(rule=rule, sigma=0.9, mode=mode)
                _assert_same(run_inner(blk, *args, bare, **kw), run_inner(blk, *args, full, **kw))
