"""Outer sweep: step arithmetic, schedules, termination, safeguards."""

import copy
import dataclasses
import logging
import math
import struct

import numpy as np
import pytest

import iadmm.outer
from iadmm.blockspace import BlockTriangular, BlockVector, DenseMap
from iadmm.diagnostics import kkt_error, lagrangian_gap
from iadmm.errors import ConfigError, NumericError, StructuralError
from iadmm.oracle import solve_qp_kkt, subproblem_minimizer
from iadmm.outer import SolverParams, gamma_compatible, solve, step3_update
from iadmm.problem import Block, ProblemSpec
from iadmm.problems import from_id, gen_qp
from iadmm.proxlib import ProxTerm, l1_prox, quadratic, zero_prox


def _hand_qp():
    # min 0.5||x1||^2 + 0.5||x2||^2 s.t. x1 + x2 = 2 (scalars);
    # solution x = (1, 1), multiplier lambda = -1
    blocks = [
        Block(quadratic(np.eye(1), np.zeros(1)), zero_prox(),
              DenseMap(np.eye(1))),
        Block(quadratic(np.eye(1), np.zeros(1)), zero_prox(),
              DenseMap(np.eye(1))),
    ]
    return ProblemSpec(blocks, np.array([2.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_problem_spec_rejects_non_finite_b(bad):
    blocks = _hand_qp().blocks
    with pytest.raises(StructuralError, match="non-finite"):
        ProblemSpec(blocks, np.array([bad]))


def test_step2_epsilon_arithmetic():
    # eps_k is the plain sum ||z - y|| + ||A z - b|| + sqrt(R_k), bitwise
    entry = from_id("qp-1-m2")
    h = solve(entry.problem, SolverParams(tol=0.0, max_outer=50)).history
    assert np.all(h.R >= 0.0)
    assert np.array_equal(h.eps, h.yz_gap + h.feas + np.sqrt(h.R))


def test_step3_update_worked_example():
    # single scalar block: M = gamma, the correction reduces to
    # y+ = y + (alpha/gamma)*gamma*(z-y) = y + alpha (z - y)
    tri = BlockTriangular([2.0], [DenseMap(np.array([[1.0]]))])
    y = BlockVector.from_flat(np.array([1.0]), (1,))
    z = BlockVector.from_flat(np.array([3.0]), (1,))
    lam = np.array([0.5])
    resid = np.array([4.0])
    y_new, lam_new = step3_update(tri, y, z, lam, rho=2.0, alpha=0.5,
                                  residual=resid)
    assert y_new.to_flat() == pytest.approx([2.0])
    assert lam_new == pytest.approx([0.5 + 0.5 * 2.0 * 4.0])


def test_step3_update_solves_triangular_system():
    rng = np.random.default_rng(0x53)
    mats = [rng.standard_normal((4, d)) for d in (3, 2)]
    gammas = [1.3, 2.1]
    tri = BlockTriangular(gammas, [DenseMap(m) for m in mats])
    y = BlockVector.from_flat(rng.standard_normal(5), (3, 2))
    z = BlockVector.from_flat(rng.standard_normal(5), (3, 2))
    lam = rng.standard_normal(4)
    alpha = 0.7
    y_new, _ = step3_update(tri, y, z, lam, 1.0, alpha, np.zeros(4))
    d = y_new - y
    rhs = (z - y) * alpha
    for i, g in enumerate(gammas):
        rhs.blocks[i] = g * rhs.blocks[i]
    assert (tri.apply_mt(d) - rhs).norm() <= 1e-10 * (1.0 + rhs.norm())


def test_rho_strong_schedule():
    # the growing penalty is rho_k = (k0 + k) * theta, bitwise, with theta
    # and k0 fixed once per solve by the power-iteration weights
    entry = from_id("qp-2-m2-mu0.5")
    params = SolverParams(mode="strong", alpha=0.5, tol=0.0, max_outer=30)
    report = solve(entry.problem, params)
    h = report.history
    assert report.theta > 0.0 and report.k0 >= 0.0
    assert np.array_equal(h.rho, (report.k0 + h.k) * report.theta)


def test_gamma_compatible_matches_definition():
    rng = np.random.default_rng(0x6A)
    A = DenseMap(rng.standard_normal((5, 3)))
    z = rng.standard_normal(3)
    y = rng.standard_normal(3)
    d = z - y
    need = float(np.linalg.norm(A.apply(d)) ** 2)
    have = float(d @ d)
    assert gamma_compatible(A, need / have + 1e-9, z, y)
    assert not gamma_compatible(A, need / have - 1e-9, z, y)
    # the zero step never triggers a bump
    assert gamma_compatible(A, 1e-12, y, y)


def test_gamma_compatible_takes_a_pass_on_the_given_image():
    # ``ad`` stands for A (z - y): a pass on it is taken as is, and a
    # failure is tested again on A (z - y), which then decides
    rng = np.random.default_rng(0x6B)
    A = DenseMap(rng.standard_normal((5, 3)))
    z = rng.standard_normal(3)
    y = rng.standard_normal(3)
    d = z - y
    ratio = float(np.linalg.norm(A.apply(d)) ** 2) / float(d @ d)
    ad = A.apply(z) - A.apply(y)
    for gamma in (ratio * (1.0 + 1e-9), ratio * (1.0 - 1e-9)):
        assert gamma_compatible(A, gamma, z, y, ad) == gamma_compatible(A, gamma, z, y)
    huge = np.full(5, 1e3)
    assert gamma_compatible(A, ratio * (1.0 + 1e-9), z, y, huge)
    assert not gamma_compatible(A, ratio * (1.0 - 1e-9), z, y, huge)
    assert gamma_compatible(A, ratio * (1.0 - 1e-9), z, y, np.zeros(5))


def test_exact_block_step_matches_dense_solve():
    # one exact-mode sweep from zero: each block is the dense subproblem
    # solution against the newest point of the block before it, the
    # lookahead equals the new iterate and the inexactness term vanishes
    problem = _hand_qp()
    report = solve(problem, SolverParams(mode="exact", tol=0.0, max_outer=1))
    rho, lam = 1.0, np.zeros(1)
    gammas = problem.gammas_power()
    b_0 = problem.b - problem.blocks[1].op.apply(np.zeros(1))
    z_0 = subproblem_minimizer(problem.blocks[0], np.zeros(1), lam, b_0, rho, gammas[0])
    b_1 = problem.b - problem.blocks[0].op.apply(z_0)
    z_1 = subproblem_minimizer(problem.blocks[1], np.zeros(1), lam, b_1, rho, gammas[1])
    assert np.allclose(report.z.to_flat(), np.concatenate([z_0, z_1]), atol=1e-12)
    assert np.array_equal(report.x.to_flat(), report.z.to_flat())
    assert report.history.R.tolist() == [0.0]
    assert report.history.Gammas == [(0.0, 0.0)]


def test_solver_params_compare_starts_by_value():
    assert SolverParams(lam0=[1.0, 2.0]) == SolverParams(lam0=[1.0, 2.0])
    assert SolverParams(lam0=[1.0, 2.0]) != SolverParams(lam0=[1.0, 3.0])
    assert SolverParams(lam0=[1.0, 2.0]) != SolverParams(lam0=[1.0, 2.0, 0.0])
    assert SolverParams(lam0=[1.0, 2.0]) != SolverParams()
    assert SolverParams() != SolverParams(lam0=[1.0, 2.0])
    x0 = BlockVector([np.ones(2), np.zeros(1)])
    assert SolverParams(x0=x0, lam0=[1.0]) == SolverParams(x0=x0.copy(), lam0=[1.0])
    assert SolverParams(x0=x0) != SolverParams(x0=BlockVector([np.ones(3)]))
    assert SolverParams(x0=x0) != SolverParams(x0=BlockVector([np.ones(2), np.ones(1)]))
    assert SolverParams(x0=x0) != SolverParams()
    assert SolverParams() == SolverParams()
    assert SolverParams(rho=2.0) != SolverParams()
    assert SolverParams() != "convex"


def test_solver_params_validation():
    with pytest.raises(ConfigError):
        SolverParams(alpha=1.0)
    with pytest.raises(ConfigError):
        SolverParams(alpha=0.0)
    with pytest.raises(ConfigError):
        SolverParams(sigma=1.5)
    with pytest.raises(ConfigError):
        SolverParams(mode="fast")
    with pytest.raises(ConfigError):
        SolverParams(rule="newton")
    with pytest.raises(ConfigError):
        SolverParams(rho=0.0)
    with pytest.raises(ConfigError):
        SolverParams(tol=-1.0)
    # an infinite tolerance is legal: the solve stops after one sweep
    report = solve(_hand_qp(), SolverParams(tol=float("inf")))
    assert (report.cause, report.iterations) == ("tolerance", 1)


def test_solver_params_fields():
    # only the 11 knobs that a caller outside the tests sets, or that a paper
    # criterion needs (x0 and lam0 for the oracle start), are fields; the
    # rest are module constants such as GAMMA_INIT
    assert [f.name for f in dataclasses.fields(SolverParams)] == [
        "mode", "rule", "rho", "alpha", "sigma", "tol", "max_outer",
        "gamma_mode", "exact_tol", "x0", "lam0"]


@pytest.mark.parametrize("field,bad", [
    ("tol", float("nan")),
    ("rho", float("nan")),
    ("alpha", float("nan")),
    ("sigma", float("nan")),
    ("exact_tol", float("nan")),
    ("rho", float("inf")),
    ("exact_tol", float("inf")),
    ("sigma", "0.5"),
    ("rho", None),
    ("rho", True),
    ("tol", "1e-8"),
    ("alpha", [0.5]),
    ("exact_tol", 1j),
    pytest.param("rho", np.array([1.0, 2.0]), id="rho-array"),
    pytest.param("mode", np.array(["convex", "exact"]), id="mode-array"),
    pytest.param("rule", np.array(["adaptive"] * 2), id="rule-array"),
    pytest.param("gamma_mode", np.array(["power"] * 2), id="gamma_mode-array"),
    ("max_outer", 0),
    ("max_outer", 2.5),
    ("max_outer", True),
    ("rule", "newton"),
    ("sigma", 0.0),
    ("sigma", 1.0),
    pytest.param("x0", np.zeros(3), id="x0-array"),
    pytest.param("x0", BlockVector.from_flat(np.array([0.0, np.nan, 0.0]), (2, 1)),
                 id="x0-nan"),
    pytest.param("x0", BlockVector.from_flat(np.array([0.0, 0.0, np.inf]), (2, 1)),
                 id="x0-inf"),
    pytest.param("lam0", np.array([1.0, np.nan]), id="lam0-nan"),
    pytest.param("lam0", [np.inf], id="lam0-inf"),
    pytest.param("lam0", "ab", id="lam0-str"),
    pytest.param("lam0", [[1.0, 2.0]], id="lam0-2d"),
    pytest.param("lam0", 1.0, id="lam0-scalar"),
    pytest.param("lam0", [object()], id="lam0-object"),
])
def test_solver_params_rejects_bad_field(field, bad):
    # each bad value is refused when the parameters are built, with the
    # field named, instead of failing (or silently running on) in a solve
    with pytest.raises(ConfigError, match=field):
        SolverParams(**{field: bad})


def test_solve_raises_on_non_finite_residual(monkeypatch):
    # a non-finite subproblem solution makes eps_k nan; the solve stops at
    # once instead of running every sweep on a nan residual
    entry = gen_qp(1, m=2)
    monkeypatch.setattr(iadmm.outer, "subproblem_minimizer",
                        lambda block, y_i, *args, **kw: np.full(y_i.size, np.nan))
    with pytest.raises(NumericError, match="not finite") as info:
        solve(entry.problem, SolverParams(mode="exact", max_outer=200))
    assert info.value.context["outer_iteration"] == 1


def _spoiled_exact_problem(first_bad_call, last_bad_call=np.inf, bad=np.nan):
    """Two-block problem whose block-1 l1 prox returns ``bad``.

    The calls spoiled are ``first_bad_call`` through ``last_bad_call``.
    """
    entry = gen_qp(3, m=2)
    l1 = l1_prox(0.2)
    calls = []

    def prox(y, tau):
        calls.append(1)
        out = l1.prox(y, tau)
        return np.full_like(out, bad) if first_bad_call <= len(calls) <= last_bad_call else out

    blk = entry.problem.blocks[1]
    blocks = [entry.problem.blocks[0], Block(blk.smooth, ProxTerm(l1.value, prox), blk.op)]
    return ProblemSpec(blocks, entry.problem.b), calls


def test_exact_mode_numeric_error_names_sweep_and_block():
    # the oracle calls of sweep 1 pass; from the third call of sweep 2 on
    # the prox returns nan, and the oracle's error names the sweep and the
    # block that made it
    problem, calls = _spoiled_exact_problem(np.inf)
    solve(problem, SolverParams(mode="exact", tol=0.0, max_outer=1))
    problem, _ = _spoiled_exact_problem(len(calls) + 3)
    with pytest.raises(NumericError, match="subproblem oracle produced non-finite values") as info:
        solve(problem, SolverParams(mode="exact", tol=0.0, max_outer=5))
    assert info.value.context == {"routine": "subproblem_minimizer",
                                  "outer_iteration": 2, "block": 1}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_exact_mode_nan_residual_raises_and_overflow_passes():
    # the first prox call of sweep 2's block-1 oracle is its first step,
    # whose output forms the residual; a nan there fails the solve before
    # it reaches an iterate, while a finite residual whose square
    # overflows does not
    problem, calls = _spoiled_exact_problem(np.inf)
    solve(problem, SolverParams(mode="exact", tol=0.0, max_outer=1))
    first = len(calls) + 1
    params = SolverParams(mode="exact", tol=1e-10, max_outer=5000)
    problem, _ = _spoiled_exact_problem(first, first)
    with pytest.raises(NumericError, match="subproblem oracle produced non-finite values") as info:
        solve(problem, params)
    assert info.value.context == {"routine": "subproblem_minimizer",
                                  "outer_iteration": 2, "block": 1}
    problem, _ = _spoiled_exact_problem(first, first, bad=1e200)
    assert solve(problem, params).cause == "tolerance"


def test_exact_zero_termination_on_integer_fixture():
    # starting at the solution, every quantity in the combined residual
    # is exactly zero in floating point, which trips the bitwise test
    problem = _hand_qp()
    ref = solve_qp_kkt(problem)
    params = SolverParams(mode="convex", rule="adaptive", rho=1.0, alpha=0.5,
                          tol=1e-8,
                          x0=ref.x_star.copy(), lam0=ref.lam_star.copy())
    report = solve(problem, params)
    assert report.cause == "exact-zero-eps"
    assert report.iterations == 1
    assert report.eps == 0.0
    assert report.certificate["kkt"] == 0.0
    assert report.certificate["state_gap"] == 0.0


def test_oracle_start_random_corpus_terminates_immediately():
    entry = gen_qp(41, m=2)
    ref = entry.reference
    params = SolverParams(mode="convex", rule="adaptive", rho=1.0, alpha=0.5,
                          tol=1e-8, x0=ref.x_star.copy(),
                          lam0=ref.lam_star.copy())
    report = solve(entry.problem, params)
    assert report.iterations == 1
    assert report.cause in ("tolerance", "exact-zero-eps")
    scale = 1.0 + float(np.linalg.norm(ref.x_star.to_flat()))
    assert report.eps <= 1e-12 * scale


def test_max_iterations_cause_and_exit_state():
    entry = gen_qp(42, m=2)
    params = SolverParams(tol=1e-16, max_outer=5)
    report = solve(entry.problem, params)
    assert report.cause == "max-iterations"
    assert report.iterations == 5
    assert report.history.k.size == 5


def test_tolerance_termination_and_residual_consistency():
    entry = gen_qp(43, m=2)
    params = SolverParams(tol=1e-6, max_outer=50000)
    report = solve(entry.problem, params)
    assert report.cause == "tolerance"
    assert report.eps <= 1e-6
    h = report.history
    # the recorded residual parts recombine into the stopping quantity
    recomb = (np.asarray(h.yz_gap) + np.asarray(h.feas)
              + np.sqrt(np.maximum(np.asarray(h.R), 0.0)))
    assert np.allclose(recomb, np.asarray(h.eps), rtol=1e-12, atol=1e-15)
    # the final feasibility gap is dominated by the tolerance
    assert h.feas[-1] <= 1e-6


def _history_arrays(h, rows):
    return {f.name: getattr(h, f.name)[:rows].tobytes() for f in dataclasses.fields(h)
            if isinstance(getattr(h, f.name), np.ndarray)}


def test_stalled_history_is_the_fixed_horizon_prefix():
    # qp-2-m2 at alpha 0.5 repeats its whole state bit for bit from sweep
    # 770 on; a tolerance it cannot reach ends the solve after sweep 769
    entry = from_id("qp-2-m2")
    stalled = solve(entry.problem, SolverParams(alpha=0.5, tol=1e-16), ref=entry.reference)
    assert stalled.cause == "stalled" and stalled.iterations == 769
    assert stalled.eps == pytest.approx(3.72e-16, rel=1e-2)
    fixed = solve(entry.problem, SolverParams(alpha=0.5, tol=0.0, max_outer=800),
                  ref=entry.reference)
    assert fixed.cause == "max-iterations"
    assert _history_arrays(stalled.history, 769) == _history_arrays(fixed.history, 769)
    assert stalled.history.Gammas == fixed.history.Gammas[:769]
    # from the fixed point on, every later sweep ends in the same state
    for name in ("x", "y", "z"):
        assert (getattr(stalled, name).to_flat().tobytes()
                == getattr(fixed, name).to_flat().tobytes()), name
    assert stalled.lam.tobytes() == fixed.lam.tobytes()


# lasso-1 at alpha 0.8 repeats its whole state bit for bit from sweep
# 1212 on, at eps 1.3e-19, with exact zeros in y
LASSO_STALL = 1211
LASSO_STALL_PARAMS = SolverParams(alpha=0.8, tol=1e-300, max_outer=LASSO_STALL + 1)


@pytest.fixture(scope="module")
def lasso_stall():
    entry = from_id("lasso-1")
    return entry, solve(entry.problem, LASSO_STALL_PARAMS)


@pytest.mark.parametrize("edit", ["zero-sign", "one-ulp"])
def test_solve_stalls_only_on_a_bitwise_repeat(lasso_stall, edit, monkeypatch):
    # the fixed point ends the solve, through arrays that are equal in bits
    # but not the same objects; -0.0 for 0.0 in y, or one ulp more in lam,
    # at that sweep's corrective step is equal in value only, and the solve
    # runs on with every earlier row unchanged
    entry, base = lasso_stall
    assert base.cause == "stalled" and base.iterations == LASSO_STALL
    real, calls = iadmm.outer.step3_update, []

    def step3(*args):
        y_new, lam_new = real(*args)
        calls.append(None)
        if len(calls) == LASSO_STALL and edit == "zero-sign":
            zeros = [b == 0.0 for b in y_new.blocks]
            assert any(z.any() for z in zeros)
            for b, z in zip(y_new.blocks, zeros):
                b[z] = -b[z]
        elif len(calls) == LASSO_STALL:
            lam_new[1] = np.nextafter(lam_new[1], np.inf)
        return y_new, lam_new

    monkeypatch.setattr(iadmm.outer, "step3_update", step3)
    rep = solve(entry.problem, LASSO_STALL_PARAMS)
    assert rep.iterations == LASSO_STALL + 1
    assert (_history_arrays(rep.history, LASSO_STALL)
            == _history_arrays(base.history, LASSO_STALL))


@pytest.mark.parametrize("ident", ["qp-1-m2", "lasso-1"])
def test_first_rows_diagnostics_match_the_public_functions(ident, caplog):
    # the sweep forms objective(z), objective(zbar) and residual(z) once and
    # shares them between columns; the rows must still read, bit for bit,
    # what the public functions compute from scratch.  A one-sweep solve
    # (tol=inf) stops before the corrective step, so it returns sweep 1's
    # lam; a one-sweep solve at tol=0 returns the lam that sweep 2 reads
    entry = from_id(ident)
    problem, ref = entry.problem, entry.reference
    one = solve(problem, SolverParams(tol=np.inf), ref=ref)
    lams = [one.lam, solve(problem, SolverParams(tol=0.0, max_outer=1), ref=ref).lam]
    two = solve(problem, SolverParams(tol=0.0, max_outer=2), ref=ref)
    assert one.cause == "tolerance" and one.iterations == 1
    h = two.history
    zbar_sum = BlockVector.zeros(problem.dims)
    for k, (z, lam) in enumerate(zip((one.z, two.z), lams), start=1):
        zbar_sum = zbar_sum + z
        zbar = zbar_sum * (1.0 / k)
        got = (h.kkt[k - 1], h.delta_gap[k - 1], h.erg_gap[k - 1], h.obj[k - 1],
               h.erg_obj[k - 1])
        want = (kkt_error(z, lam, problem), lagrangian_gap(z, ref, problem),
                lagrangian_gap(zbar, ref, problem), problem.objective(z),
                problem.objective(zbar))
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]

    # a reference objective above both gaps' Lagrangians makes both negative,
    # and each still logs its warning
    bad = copy.copy(ref)
    bad.objective = ref.objective + abs(h.delta_gap[0]) + abs(h.erg_gap[0]) + 1.0
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="iadmm.diagnostics"):
        solve(problem, SolverParams(tol=np.inf), ref=bad)
    assert sum("is negative beyond noise" in r.getMessage() for r in caplog.records) == 2


def test_strong_mode_gamma_floor_keeps_ratio_monotone():
    entry = gen_qp(3, m=2, mu=0.5)
    params = SolverParams(mode="strong", alpha=0.5, tol=0.0, max_outer=60)
    report = solve(entry.problem, params, ref=entry.reference)
    G = np.array(report.history.Gammas)  # (iters, m)
    ks = np.arange(1, G.shape[0] + 1, dtype=float)
    ratio = ks[:, None] / G
    assert np.all(np.diff(ratio, axis=0) <= 1e-12 * (1 + np.abs(ratio[:-1])))


def test_strong_mode_requires_strong_convexity():
    entry = gen_qp(44, m=2)  # mu = 0
    with pytest.raises(ConfigError):
        solve(entry.problem, SolverParams(mode="strong"))


def test_exact_mode_matches_inexact_closely():
    entry = gen_qp(45, m=2, mu=0.5)
    base = dict(rho=1.0, alpha=0.5, tol=1e-10, max_outer=20000)
    rep_in = solve(entry.problem, SolverParams(mode="convex", **base))
    rep_ex = solve(entry.problem, SolverParams(mode="exact", **base))
    gap = (rep_in.z - rep_ex.z).norm()
    assert gap <= 1e-6
    assert np.all(np.asarray(rep_ex.history.R) == 0.0)


def test_safeguard_mode_recovers_from_tiny_gamma(monkeypatch):
    # start the penalty weights far below ||A_i||^2; the compatibility
    # test must bump them and the solve still reaches tolerance
    monkeypatch.setattr(iadmm.outer, "GAMMA_INIT", 1e-3)
    entry = gen_qp(46, m=2)
    params = SolverParams(gamma_mode="safeguard", tol=1e-7, max_outer=30000)
    report = solve(entry.problem, params)
    assert report.cause == "tolerance"
    bumps = [e for e in report.events if e["event"] == "gamma-safeguard"]
    assert bumps, "expected at least one safeguard activation"
    assert all(report.gammas[i] >= 1e-3 for i in range(2))


def test_strong_schedule_uses_the_exact_metric_norms():
    # theta = alpha mu / (8 ||P||) and k0 = 4 ||Q^{-1/2} P Q^{-1/2}|| / (alpha (1 - alpha))
    # with the true norms of P = M Q^{-1} M^T, taken here from a dense M built
    # block by block; a power-iteration estimate reads about 1e-8 low
    entry = from_id("qp-2-m2-mu0.5")
    problem, alpha = entry.problem, 0.5
    report = solve(problem, SolverParams(mode="strong", alpha=alpha, tol=0.0, max_outer=5))
    mats = [op.mat for op in problem.ops()]
    offs = np.cumsum([0] + [A.shape[1] for A in mats])
    Md = np.zeros((offs[-1], offs[-1]))
    for i, Ai in enumerate(mats):
        Md[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = report.gammas[i] * np.eye(Ai.shape[1])
        for j in range(i):
            Md[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = Ai.T @ mats[j]
    qinv = np.repeat(1.0 / np.array(report.gammas), np.diff(offs))
    P = Md @ np.diag(qinv) @ Md.T
    Qih = np.diag(np.sqrt(qinv))
    p_norm = np.linalg.eigvalsh(P)[-1]
    scaled = np.linalg.eigvalsh(Qih @ P @ Qih)[-1]
    assert report.theta == pytest.approx(alpha * problem.mu_total() / (8.0 * p_norm), rel=1e-12)
    assert report.k0 == pytest.approx(4.0 * scaled / (alpha * (1.0 - alpha)), rel=1e-12)


@pytest.mark.parametrize("gamma_mode", ["safeguard", "bogus"])
def test_strong_mode_refuses_the_safeguard(gamma_mode):
    # the accelerated rate assumes a fixed metric P, so the weights in
    # strong mode stay the power-mode ones and the schedule is set once
    with pytest.raises(ConfigError, match="gamma_mode"):
        SolverParams(mode="strong", gamma_mode=gamma_mode)


def test_safeguard_bumps_a_weight_until_compatible(monkeypatch):
    # a single bump can leave a tiny weight far below ||A_i^T A_i||; each
    # weight grows until it is compatible, several times in one sweep
    monkeypatch.setattr(iadmm.outer, "GAMMA_INIT", 1e-3)
    entry = from_id("qp-2-m2")
    params = SolverParams(gamma_mode="safeguard", alpha=0.9, tol=0.0, max_outer=60)
    report = solve(entry.problem, params)
    assert report.cause == "max-iterations" and report.iterations == 60
    first = [e["block"] for e in report.events if e["event"] == "gamma-safeguard" and e["k"] == 1]
    assert (first.count(0), first.count(1)) == (8, 7)


def _safeguard_run(monkeypatch, spoil=None):
    """qp-2-m2 from tiny weights, with ``spoil`` replacing each image the solve hands the test."""
    monkeypatch.setattr(iadmm.outer, "GAMMA_INIT", 1e-3)
    real = iadmm.outer.gamma_compatible
    calls = []

    def recorded(op, gamma, z_i, y_i, ad=None):
        if ad is not None and spoil is not None:
            ad = spoil(op, gamma, z_i, y_i, ad)
        ok = real(op, gamma, z_i, y_i, ad)
        calls.append((ad is not None, ok))
        return ok

    monkeypatch.setattr(iadmm.outer, "gamma_compatible", recorded)
    entry = from_id("qp-2-m2")
    params = SolverParams(gamma_mode="safeguard", alpha=0.9, tol=0.0, max_outer=60)
    rep = solve(entry.problem, params)
    return (rep.events, rep.z.to_flat().tobytes(), rep.lam.tobytes()), calls


def test_safeguard_tests_each_block_once_per_sweep_and_once_per_bump(monkeypatch):
    (events, _, _), calls = _safeguard_run(monkeypatch)
    assert len(events) >= 15
    assert sum(not ok for _, ok in calls) == len(events)
    assert len(calls) == 60 * 2 + len(events)
    # the first test of each block reads the sweep's images, no retest does
    assert sum(given for given, _ in calls) == 60 * 2


def test_safeguard_image_that_passes_wrongly_cannot_stop_the_bumps(monkeypatch):
    # each image fails where the exact test fails, at the weight it is first
    # tested at, and passes at any larger weight: were it tested again after
    # a bump, the 8 and 7 bumps of sweep 1 would stop after one
    kept = {}

    def spoil(op, gamma, z_i, y_i, ad):
        if id(ad) not in kept:
            d = z_i - y_i
            exact = op.apply(d)
            wrong = d * math.sqrt(gamma * (1.0 + 1e-6))
            kept[id(ad)] = (ad, wrong if gamma * float(d @ d) < float(exact @ exact) else ad)
        return kept[id(ad)][1]

    spoiled, _ = _safeguard_run(monkeypatch, spoil)
    monkeypatch.undo()
    plain, _ = _safeguard_run(monkeypatch)
    first = [e["block"] for e in spoiled[0] if e["k"] == 1]
    assert (first.count(0), first.count(1)) == (8, 7)
    assert spoiled == plain


def test_safeguard_image_that_fails_wrongly_causes_no_bump(monkeypatch):
    # an image that fails at every weight leaves each decision to the exact test
    spoiled, calls = _safeguard_run(monkeypatch, lambda op, g, z_i, y_i, ad: np.full_like(ad, 1e100))
    monkeypatch.undo()
    plain, _ = _safeguard_run(monkeypatch)
    assert spoiled == plain
    assert sum(given and ok for given, ok in calls) > 0


def test_safeguard_raises_when_a_weight_overflows(monkeypatch):
    # a weight that never becomes compatible grows until it overflows, and
    # that is a numeric failure with its sweep and block, not a hang
    monkeypatch.setattr(iadmm.outer, "gamma_compatible", lambda *a: False)
    entry = from_id("qp-1-m2")
    with pytest.raises(NumericError, match="float range") as info:
        solve(entry.problem, SolverParams(gamma_mode="safeguard", max_outer=5))
    assert info.value.context == {"routine": "solve", "outer_iteration": 1, "block": 0}


def test_history_csv_schema(tmp_path):
    entry = gen_qp(47, m=2)
    report = solve(entry.problem, SolverParams(tol=1e-6),
                   ref=entry.reference)
    out = tmp_path / "h.csv"
    report.history.save_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,eps,feas,yz_gap,R,obj,E,kkt,rho,gamma1"
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert all(field != "" for field in first)  # reference run fills E and kkt


def test_history_csv_blank_columns_without_reference(tmp_path):
    entry = gen_qp(47, m=2)
    report = solve(entry.problem, SolverParams(tol=1e-6))
    out = tmp_path / "h.csv"
    report.history.save_csv(out)
    first = out.read_text().strip().splitlines()[1].split(",")
    assert first[6] == "" and first[7] == ""  # E and kkt stay empty


def test_solve_rejects_mismatched_start():
    entry = gen_qp(48, m=2)
    bad = BlockVector.zeros((3, 3))
    with pytest.raises(ConfigError):
        solve(entry.problem, SolverParams(x0=bad))
