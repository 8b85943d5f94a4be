"""The inner loop against its frozen three-branch reference, bit for bit."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iadmm.inner
import iadmm.outer
from iadmm.blockspace import DenseMap
from iadmm.errors import NumericError
from iadmm.inner import run_inner
from iadmm.outer import SolverParams, solve
from iadmm.problem import Block
from iadmm.problems import from_id, gen_lasso, gen_qp
from iadmm.proxlib import (group_l2_prox, l1_prox, quadratic, quadratic_smooth,
                           zero_prox, zero_smooth)
from reference_inner import run_inner_reference

DIM = 6
PROXES = {
    "l1": lambda: l1_prox(0.2),
    "group": lambda: group_l2_prox(0.2, 2),
    "zero": zero_prox,
}


def _smooth(kind, rng):
    if kind == "zero":
        return zero_smooth()
    G = rng.standard_normal((DIM + 3, DIM))
    if kind == "quadratic":
        # curvature well above the first trial's delta/alpha = 1, so the
        # adaptive rule backtracks
        return quadratic(4.0 * G.T @ G + 0.1 * np.eye(DIM), rng.standard_normal(DIM))
    return quadratic_smooth(DenseMap(2.0 * G), rng.standard_normal(DIM + 3))


def _setup(smooth_kind, prox_kind, seed):
    rng = np.random.default_rng([seed, len(smooth_kind), len(prox_kind)])
    A = DenseMap(rng.standard_normal((DIM + 2, DIM)) / np.sqrt(DIM))
    blk = Block(_smooth(smooth_kind, rng), PROXES[prox_kind](), A)
    y_i = rng.standard_normal(DIM)
    x_i = y_i + rng.standard_normal(DIM)
    lam = rng.standard_normal(A.rows)
    b_i = rng.standard_normal(A.rows)
    return blk, (x_i, y_i, lam, b_i, 1.3, 2.0)


def _bits(v):
    # exact bit pattern: tells -0.0 from 0.0 and compares nan payloads
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    return struct.pack("<d", float(v))


def _assert_same(new, ref):
    (res, tr), (res_ref, tr_ref) = new, ref
    for name in ("x_next", "z", "Gamma", "r", "iters"):
        assert _bits(getattr(res, name)) == _bits(getattr(res_ref, name)), name
    assert (tr is None) == (tr_ref is None)
    if tr is not None:
        for name in ("deltas", "alphas", "gammas", "xis", "us", "a_s", "step_sq",
                     "backtracks"):
            got, want = getattr(tr, name), getattr(tr_ref, name)
            assert [_bits(v) for v in got] == [_bits(v) for v in want], name


CASES = [(s, p, r) for s in ("quadratic", "least-squares", "zero")
         for p in PROXES for r in ("constant", "adaptive")]


@pytest.mark.parametrize("smooth_kind,prox_kind,rule", CASES)
def test_forced_run_matches_reference(smooth_kind, prox_kind, rule):
    blk, args = _setup(smooth_kind, prox_kind, 1)
    params = SolverParams(rule=rule, sigma=0.9)
    kw = dict(Gamma_prev=0.0, psi_eps=np.inf, force_iters=40, trace=True)
    new = run_inner(blk, *args, params, **kw)
    _assert_same(new, run_inner_reference(blk, *args, params, **kw))
    if rule == "adaptive" and smooth_kind != "zero":
        assert sum(new[1].backtracks) > 0


@pytest.mark.parametrize("smooth_kind,prox_kind,rule", CASES)
def test_stopped_run_matches_reference(smooth_kind, prox_kind, rule):
    blk, args = _setup(smooth_kind, prox_kind, 2)
    params = SolverParams(rule=rule, sigma=0.9)
    # a zero smooth term starts at gamma = 1 / DELTA_MIN = 1e6, so its
    # floors and thresholds are scaled to still need several iterations
    g, p = (2e7, 1e-3) if smooth_kind == "zero" else (1.0, 1.0)
    for trace in (False, True):
        for Gamma_prev, psi_eps in ((0.0, np.inf), (0.5, 2.0), (3.0, 0.5)):
            kw = dict(Gamma_prev=g * Gamma_prev, psi_eps=p * psi_eps, trace=trace)
            _assert_same(run_inner(blk, *args, params, **kw),
                         run_inner_reference(blk, *args, params, **kw))


@pytest.mark.parametrize("rule", ["constant", "adaptive"])
def test_cap_error_matches_reference(rule, monkeypatch):
    blk, args = _setup("quadratic", "l1", 3)
    params = SolverParams(rule=rule, sigma=0.9)
    monkeypatch.setattr(iadmm.inner, "MAX_ITERS", 5)
    errs = []
    for fn in (run_inner, run_inner_reference):
        with pytest.raises(NumericError) as info:
            fn(blk, *args, params, Gamma_prev=0.0, psi_eps=0.0, ctx=(3, 1))
        errs.append(info.value)
    assert str(errs[0]) == str(errs[1])
    assert errs[0].context == errs[1].context
    _assert_same((errs[0].best, None), (errs[1].best, None))


HISTORY_FIELDS = ("k", "eps", "feas", "yz_gap", "R", "obj", "rho", "gamma1", "kkt",
                  "q_gap_sq", "erg_obj", "E", "delta_gap", "erg_gap", "w_gap", "y_err_sq")


def _history_bits(h):
    out = {}
    for name in HISTORY_FIELDS:
        arr = getattr(h, name)
        out[name] = None if arr is None else _bits(np.asarray(arr))
    out["Gammas"] = [tuple(_bits(g) for g in row) for row in h.Gammas]
    return out


@pytest.fixture(scope="module", params=["qp-1-m2", "lasso-1"])
def entry(request):
    return from_id(request.param)


def _solve_bits(entry, **params):
    rep = solve(entry.problem, SolverParams(**params), ref=entry.reference)
    return (_history_bits(rep.history), _bits(rep.z.to_flat()), _bits(rep.lam),
            _bits(rep.x.to_flat()), _bits(rep.y.to_flat()), repr(rep.events),
            rep.cause, rep.iterations)


def test_solve_is_bitwise_repeatable(entry):
    assert _solve_bits(entry) == _solve_bits(entry)


def _reference_without_reuse(*args, prev=None, ay_i=None, start=0, **kw):
    # the frozen loop knows no ``prev``, no ``ay_i`` and no warm ``start``:
    # it re-runs every solve, applies ``A_i`` to ``y_i`` itself and starts
    # every first step search cold
    return run_inner_reference(*args, **kw)


# qp-2-m2 at alpha 0.5 reaches a bitwise fixed point at sweep 770, so
# from there on every sweep hands back its blocks' previous inner results
FIXED_POINT = dict(alpha=0.5, tol=0.0, max_outer=900)
# three structured blocks, two with zero smooth terms; the safeguard grows
# block 0's weight once (sweep 320 of 817)
SAFEGUARD = dict(alpha=0.9, gamma_mode="safeguard", tol=1e-3)
# the growing penalty of the bench's strong job, on a shorter horizon,
# checked call by call
STRONG = dict(mode="strong", alpha=0.5, tol=0.0, max_outer=200)
# lasso-1 at the default tol, far above the hold's gate, checked call by
# call; and the same problem with tol = 0 over the 340 sweeps that solve
# takes, below the gate, bit for bit
LASSO_HELD = dict(tol=1e-8)
LASSO_BELOW_GATE = dict(tol=0.0, max_outer=340)


# Strong mode, and a fixed-penalty solve whose tol lies above the gate,
# hold each inner pair once an accepted step is rounding, and the frozen
# loop goes on stepping, so such a solve drifts from the frozen one at
# rounding.  Each of its calls is therefore rerun through the frozen loop
# on its own inputs: ``iters``, ``Gamma`` and ``start`` must
# agree bit for bit, and held iterations may only drop the frozen loop's
# later steps, each at rounding of ``||x_i||`` (``HOLD_ULPS eps ||x_i||``):
# - ``x_next`` and ``z`` agree within HELD_REL of the frozen result.  Over
#   all 5,850 strong calls of criterion 5's five fixtures the dropped steps
#   moved them by at most 1.0e-14 relative, a tenth of the bound.
# - ``r`` is the steps' summed squares over ``Gamma``, and the hold drops
#   fewer than ``iters`` of them: it agrees within ``iters (2 HOLD_ULPS eps
#   ||x_i||)^2 / Gamma``.  The same calls used at most 0.18 of that.
HELD_REL = 1e-13


def _assert_held_call(res, args, kw):
    ref, ref_tr = _reference_without_reuse(*args, trace=True, **kw)
    assert (res.iters, _bits(res.Gamma), res.start) == (
        ref.iters, _bits(ref.Gamma), ref_tr.backtracks[0]), kw["ctx"]
    for name in ("x_next", "z"):
        got, want = getattr(res, name), getattr(ref, name)
        assert np.linalg.norm(got - want) <= HELD_REL * np.linalg.norm(want), (kw["ctx"], name)
    x_i = args[1]
    rounding = 2 * iadmm.inner.HOLD_ULPS * np.finfo(np.float64).eps
    assert abs(res.r - ref.r) <= res.iters * rounding ** 2 * float(x_i.dot(x_i)) / res.Gamma
    return _bits(res.x_next) != _bits(ref.x_next)


# The criterion-5 call whose held pair lay farthest from the frozen loop's
# result while the hold tested only the step: qp-4-m2-mu0.5 (criterion 5's
# strong solve, alpha 0.5), sweep 304, block 0, where ``x_next`` and ``z``
# were 1.0e-14 and 7.0e-15 away relative, as a small ``alpha`` froze an
# ``a`` that still trailed ``u``.  A hold that waits for ``a`` to catch up
# with ``u`` keeps the call within rounding of the frozen loop.
LAGGING_CALL = ("qp-4-m2-mu0.5", 304, 0)


def test_hold_waits_for_the_lookahead_to_catch_up(monkeypatch):
    ident, sweep, block = LAGGING_CALL
    real = iadmm.outer.run_inner
    seen = []

    def recording(*args, **kw):
        res, tr = real(*args, **kw)
        if kw["ctx"] == (sweep, block):
            seen.append((args, kw, res))
        return res, tr

    monkeypatch.setattr(iadmm.outer, "run_inner", recording)
    solve(from_id(ident).problem, SolverParams(mode="strong", rule="adaptive", rho=1.0,
                                               alpha=0.5, tol=0.0, max_outer=sweep))
    [(args, kw, res)] = seen
    _assert_held_call(res, args, kw)
    ref, _ = _reference_without_reuse(*args, **kw)
    for name in ("x_next", "z"):
        got, want = getattr(res, name), getattr(ref, name)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want), name


def _check_against_reference(entry, params, mp, held=False):
    """Solve with the loop and check it against the frozen cold loop.

    A strong solve, or one whose pairs may be ``held``, is checked call by
    call as above; any other is run again through the frozen loop and must
    agree bit for bit.
    """
    calls = []
    real = iadmm.outer.run_inner
    per_call = held or params.get("mode") == "strong"
    moved = []

    def counting(*args, **kw):
        res, tr = real(*args, **kw)
        if per_call:
            moved.append(_assert_held_call(res, args, kw))
        calls.append((kw["ctx"], kw["start"], res))
        return res, tr

    mp.setattr(iadmm.outer, "run_inner", counting)
    new = _solve_bits(entry, **params)
    # each block's first step search starts where its last sweep's was
    # accepted, cold on sweep 1, and warm somewhere
    last = {}
    for (_, i), start, res in calls:
        assert start == last.get(i, 0)
        last[i] = res.start
    assert any(start > 0 for _, start, _ in calls)
    if not per_call:
        mp.setattr(iadmm.outer, "run_inner", _reference_without_reuse)
        assert _solve_bits(entry, **params) == new
    return new, [res.iters for _, _, res in calls], moved


@pytest.mark.parametrize("entry,params", [
    ("qp-1-m2", {}), ("lasso-1", LASSO_HELD), ("lasso-1", LASSO_BELOW_GATE),
    ("qp-2-m2", FIXED_POINT), ("img-0-s16", SAFEGUARD), ("qp-2-m2-mu0.5", STRONG),
], ids=["qp-1-m2", "lasso-1", "lasso-1-below-gate", "qp-2-m2-fixed-point",
        "img-0-s16-safeguard", "qp-2-m2-mu0.5-strong"], indirect=["entry"])
def test_solve_matches_reference_loop(entry, params, monkeypatch):
    new, iters, moved = _check_against_reference(entry, params, monkeypatch,
                                                 held=params is LASSO_HELD)
    if params is FIXED_POINT:
        assert 0 in iters
    if params is SAFEGUARD:
        assert "gamma-safeguard" in new[5]
    if params is STRONG or params is LASSO_HELD:
        # the strong hold first engages at sweep 95
        assert any(moved)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(kind=st.sampled_from(["convex", "strong", "lasso"]), seed=st.integers(0, 10 ** 6),
       m=st.integers(2, 4), alpha=st.floats(0.05, 0.95), rho=st.floats(0.1, 10.0))
def test_solve_matches_reference_loop_on_draws(kind, seed, m, alpha, rho):
    # the warm first step search against the frozen cold one beyond the
    # fixtures: random QPs in both penalty modes and random lasso problems
    if kind == "lasso":
        entry = gen_lasso(seed)
    else:
        entry = gen_qp(seed, m=m, mu=0.5 if kind == "strong" else 0.0)
    params = dict(mode="strong" if kind == "strong" else "convex", alpha=alpha, rho=rho,
                  tol=0.0, max_outer=60)
    with pytest.MonkeyPatch.context() as mp:
        _check_against_reference(entry, params, mp)
