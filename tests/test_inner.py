"""Inner accelerated loop: step sizes, prox steps, stopping, estimates."""

import dataclasses

import numpy as np
import pytest

from iadmm.blockspace import DenseMap
from iadmm.errors import ConfigError, NumericError
from iadmm.inner import (
    InnerConfig,
    line_search_accept,
    params_adaptive,
    params_constant,
    run_inner,
)
from iadmm.oracle import subproblem_minimizer
from iadmm.problem import Block
from iadmm.proxlib import (ProxTerm, l1_prox, quadratic, soft_threshold, zero_prox,
                           zero_smooth)
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


def test_params_constant_examples():
    # l=1: delta = 2*zeta/((1-sigma)*1), alpha = 2/(1+1) = 1
    delta, alpha = params_constant(1, zeta=2.0, sigma=0.5)
    assert delta == pytest.approx(8.0)
    assert alpha == pytest.approx(1.0)
    # l=3, zeta=1, sigma=1/2: delta = 4/3, alpha = 1/2, and with
    # gamma^3 = (1-sigma)*3*4/(4*zeta) = 3/2 the product is exactly 1
    delta, alpha = params_constant(3, zeta=1.0, sigma=0.5)
    assert delta == pytest.approx(4.0 / 3.0)
    assert alpha == pytest.approx(0.5)
    assert delta * alpha * 1.5 == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        params_constant(3, zeta=1.0, sigma=0.0)


def test_constant_rule_gamma_closed_form():
    # gamma^l = (1-sigma) l (l+1) / (4 zeta)
    zeta, sigma = 1.5, 0.25
    gamma = None
    for l in range(1, 12):
        delta, alpha = params_constant(l, zeta, sigma)
        gamma = 1.0 / delta if l == 1 else gamma / (1.0 - alpha)
        closed = (1.0 - sigma) * l * (l + 1) / (4.0 * zeta)
        assert gamma == pytest.approx(closed, rel=1e-12)


def test_line_search_accept_quadratic():
    # f = 0.5 L x^2: the descent test holds iff delta/alpha >= L (sigma=0)
    L = 4.0
    term = quadratic(np.array([[L]]), np.zeros(1))
    a_bar = np.array([1.0])
    a = np.array([0.0])
    f_bar, grad_bar = term.value_grad(a_bar)

    def accept(delta, sigma):
        return line_search_accept(term, a_bar, a, delta, 1.0, sigma, f_bar, grad_bar)

    assert accept(4.0, 0.0)
    assert not accept(3.9, 0.0)
    # positive sigma tightens the requirement to delta/alpha >= L/(1-sigma)
    assert accept(8.0, 0.5)
    assert not accept(7.9, 0.5)


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
                          InnerConfig(rule=rule, sigma=0.9), Gamma_prev=0.0,
                          psi_eps=np.inf, force_iters=L, trace=True)
        a_prev = x_i
        for l in range(L):
            delta, alpha, u_prev = tr.deltas[l], tr.alphas[l], tr.us[l]
            grad = blk.smooth.grad((1.0 - alpha) * a_prev + alpha * u_prev)
            scale = delta + rho * gamma_i
            v = (delta * u_prev + rho * gamma_i * y_i - grad - rho * w_pen) / scale
            assert np.allclose(tr.us[l + 1], soft_threshold(v, 0.3 / scale), atol=1e-12)
            a_prev = tr.a_s[l]


def test_step1b_check_arithmetic():
    # the loop stops at the first l with gamma_l >= floor and
    # ||a_l - x_i|| <= psi_eps * sqrt(gamma_l); a forced run of the same
    # loop gives the trace to recompute that index from
    blk = _block(35)
    x_i, y_i, lam, b_i = _inner_inputs(35, blk)
    cfg = InnerConfig(rule="adaptive", sigma=0.9)
    _, tr = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
                      Gamma_prev=0.0, psi_eps=np.inf, force_iters=200, trace=True)
    gammas = np.asarray(tr.gammas)
    gaps = np.array([np.linalg.norm(a - x_i) for a in tr.a_s])

    def first(floor, psi):
        ok = (gammas >= floor) & (gaps <= psi * np.sqrt(gammas))
        return int(np.argmax(ok)) + 1

    psi = gaps[29] / np.sqrt(gammas[29]) * (1.0 + 1e-9)
    cases = [
        (0.0, None, np.inf, 1),        # infinite tolerance: stop at once
        (gammas[9], None, np.inf, 10),  # the floor is met exactly at l = 10
        (0.0, gammas[14], np.inf, 15),  # gamma_floor overrides Gamma_prev
        (0.0, None, psi, None),         # only the scaled step binds
        (gammas[39], None, psi, 40),    # the floor binds after the step
    ]
    for Gamma_prev, gamma_floor, psi_eps, expect in cases:
        floor = Gamma_prev if gamma_floor is None else gamma_floor
        want = first(floor, psi_eps)
        if expect is not None:
            assert want == expect
        else:
            assert 1 < want <= 30
        res, _ = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
                           Gamma_prev=Gamma_prev, gamma_floor=gamma_floor,
                           psi_eps=psi_eps)
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
    cfg = InnerConfig(rule="adaptive")
    res, _ = run_inner(blk, xbar, y_i, lam, b_i, rho, gamma_i, cfg,
                       Gamma_prev=0.0, psi_eps=np.inf, force_iters=1,
                       trace=False)
    assert np.linalg.norm(res.x_next - xbar) <= 1e-9
    assert res.r <= 1e-18


@pytest.mark.parametrize("rule", ["constant", "adaptive"])
def test_xi_coupling_invariant(rule):
    # delta^l * alpha^l * gamma^l = 1 at every inner iteration
    blk = _block(5)
    x_i, y_i, lam, b_i = _inner_inputs(5, blk)
    cfg = InnerConfig(rule=rule, sigma=0.9)
    res, tr = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
                        Gamma_prev=0.0, psi_eps=np.inf, force_iters=60,
                        trace=True)
    xis = np.asarray(tr.xis)
    assert np.max(np.abs(xis - 1.0)) <= 1e-9


@pytest.mark.parametrize("rule", ["constant", "adaptive"])
def test_gamma_is_increasing(rule):
    blk = _block(9)
    x_i, y_i, lam, b_i = _inner_inputs(9, blk)
    cfg = InnerConfig(rule=rule, sigma=0.9)
    res, tr = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
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
    cfg = InnerConfig(rule=rule, sigma=0.9)
    L = 25
    res, tr = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
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
    cfg = InnerConfig(rule=rule, sigma=0.9)
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
    start_sq = float((x_i - xbar) @ (x_i - xbar))
    mu_h = blk.nonsmooth.modulus
    for L in range(1, 41):
        res, tr = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i, cfg,
                            Gamma_prev=0.0, psi_eps=np.inf, force_iters=L,
                            trace=True)
        acc = sum(x * float((tr.us[j + 1] - tr.us[j]) @ (tr.us[j + 1] - tr.us[j]))
                  for j, x in enumerate(tr.xis))
        a_gap = float((res.z - xbar) @ (res.z - xbar))
        lhs = (rho * gamma_i + 0.5 * mu_h * L) * a_gap + cfg.sigma / res.Gamma * acc
        assert lhs <= start_sq / res.Gamma + 1e-8


def test_run_inner_stops_by_criterion_near_solution():
    # with x already close to the solution, the loop should stop early
    # once the floor is reached, and later restarts inherit the floor
    blk = _block(31, weight=0.0)
    x_i, y_i, lam, b_i = _inner_inputs(31, blk)
    cfg = InnerConfig(rule="adaptive", sigma=0.9)
    res1, _ = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
                        Gamma_prev=0.0, psi_eps=np.inf, trace=False)
    assert res1.iters == 1  # infinite tolerance stops at the first chance
    res2, _ = run_inner(blk, res1.x_next, y_i, lam, b_i, 1.0, 2.0, cfg,
                        Gamma_prev=res1.Gamma, psi_eps=1e-3, trace=False)
    assert res2.Gamma > res1.Gamma  # the floor forces strict growth


def test_run_inner_cap_raises_with_context():
    blk = _block(33)
    x_i, y_i, lam, b_i = _inner_inputs(33, blk)
    cfg = InnerConfig(rule="adaptive", sigma=0.9, max_iters=3)
    with pytest.raises(NumericError) as info:
        run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
                  Gamma_prev=0.0, psi_eps=0.0, ctx=(4, 1))
    assert info.value.context["outer_iteration"] == 4
    assert info.value.context["block"] == 1
    assert info.value.best is not None


def test_run_inner_force_iters_must_be_positive():
    blk = _block(33)
    x_i, y_i, lam, b_i = _inner_inputs(33, blk)
    with pytest.raises(ConfigError, match="force_iters"):
        run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, InnerConfig(),
                  Gamma_prev=0.0, psi_eps=np.inf, force_iters=0)


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
        run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, InnerConfig(rule=rule),
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
    return blk, InnerConfig(rule="adaptive" if case == "pinned" else case)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", ["adaptive", "constant", "pinned"])
def test_one_non_finite_prox_entry_raises_at_its_trial(case, bad):
    # the scalar test on the step's squared norm catches a single bad
    # entry and hands it to the array test, at the trial that made it
    spoiled_call = 4
    blk, cfg = _inner_case(case, 41)
    x_i, y_i, lam, b_i = _inner_inputs(41, blk)
    _, tr = run_inner(Block(blk.smooth, zero_prox(), blk.op), x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
                      Gamma_prev=0.0, psi_eps=np.inf, force_iters=10, trace=True)
    trials = np.cumsum(np.asarray(tr.backtracks) + 1)
    expected_l = int(np.searchsorted(trials, spoiled_call)) + 1

    spoiled, calls = _prox_spoiling_call(spoiled_call, 2, bad)
    with pytest.raises(NumericError, match="prox step produced non-finite values") as info:
        run_inner(Block(blk.smooth, spoiled, blk.op), x_i, y_i, lam, b_i, 1.0, 2.0, cfg,
                  Gamma_prev=0.0, psi_eps=np.inf, force_iters=10, ctx=(5, 1))
    assert len(calls) == spoiled_call
    assert info.value.context == {"routine": "run_inner", "inner_iteration": expected_l,
                                  "outer_iteration": 5, "block": 1}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["constant", "pinned"])
def test_overflowing_finite_step_is_not_an_error(case):
    # a finite step whose squared norm overflows to inf passes the scalar
    # test's cold path, and the loop still matches its frozen reference
    blk, cfg = _inner_case(case, 43)
    x_i, y_i, lam, b_i = _inner_inputs(43, blk)
    spoiled, _ = _prox_spoiling_call(2, 0, 1e200)
    blk = Block(blk.smooth, spoiled, blk.op)
    kw = dict(Gamma_prev=0.0, psi_eps=np.inf, force_iters=4, trace=True)
    new = run_inner(blk, x_i, y_i, lam, b_i, 1.0, 2.0, cfg, **kw)
    spoiled_ref, _ = _prox_spoiling_call(2, 0, 1e200)
    ref = run_inner_reference(Block(blk.smooth, spoiled_ref, blk.op),
                              x_i, y_i, lam, b_i, 1.0, 2.0, cfg, **kw)
    _assert_same(new, ref)
    res, tr = new
    assert tr.step_sq[1] == np.inf
    assert np.isfinite(res.x_next).all() and res.r == np.inf


@pytest.mark.parametrize("field", ["max_iters"])
def test_inner_config_rejects_bad_counts(field):
    with pytest.raises(ConfigError, match=field):
        InnerConfig(**{field: 0})


@pytest.mark.parametrize("value", [2.5, True])
def test_inner_config_rejects_non_integer_max_iters(value):
    # a float cap used to fail later inside run_inner, a bool one capped at 1
    with pytest.raises(ConfigError, match="max_iters"):
        InnerConfig(max_iters=value)


def test_inner_config_validation():
    with pytest.raises(ConfigError):
        InnerConfig(rule="newton")
    with pytest.raises(ConfigError):
        InnerConfig(sigma=1.0)


def test_inner_config_fields_and_constants():
    # the step bounds and backtracking knobs are class constants, not fields
    assert [f.name for f in dataclasses.fields(InnerConfig)] == ["rule", "sigma", "max_iters"]
    cfg = InnerConfig()
    assert (cfg.delta_min, cfg.delta_max, cfg.eta, cfg.max_backtracks) == (1e-6, 1e6, 2.0, 60)
    with pytest.raises(TypeError):
        InnerConfig(eta=3.0)
