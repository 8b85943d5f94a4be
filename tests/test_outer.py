"""Outer sweep: step arithmetic, schedules, termination, safeguards."""

import dataclasses

import numpy as np
import pytest

import iadmm.outer
from iadmm.blockspace import BlockTriangular, BlockVector, DenseMap
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
    # and k0 fixed by the power-iteration weights
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
    # only the knobs a caller sets are fields; the rest are fixed constants
    assert [f.name for f in dataclasses.fields(SolverParams)] == [
        "mode", "rule", "rho", "alpha", "sigma", "tol", "max_outer",
        "gamma_mode", "gamma_init", "exact_tol", "x0", "lam0"]


@pytest.mark.parametrize("field,bad", [
    ("tol", float("nan")),
    ("rho", float("nan")),
    ("alpha", float("nan")),
    ("sigma", float("nan")),
    ("gamma_init", float("nan")),
    ("exact_tol", float("nan")),
    ("rho", float("inf")),
    ("gamma_init", float("inf")),
    ("exact_tol", float("inf")),
    ("max_outer", 0),
    ("max_outer", 2.5),
    ("max_outer", True),
    ("rule", "newton"),
    pytest.param("x0", np.zeros(3), id="x0-array"),
    pytest.param("x0", BlockVector.from_flat(np.array([0.0, np.nan, 0.0]), (2, 1)),
                 id="x0-nan"),
    pytest.param("x0", BlockVector.from_flat(np.array([0.0, 0.0, np.inf]), (2, 1)),
                 id="x0-inf"),
    pytest.param("lam0", np.array([1.0, np.nan]), id="lam0-nan"),
    pytest.param("lam0", [np.inf], id="lam0-inf"),
])
def test_solver_params_rejects_bad_field(field, bad):
    # each bad value is refused when the parameters are built, with the
    # field named, instead of failing (or silently running on) in a solve
    with pytest.raises(ConfigError, match=field):
        SolverParams(gamma_mode="safeguard", **{field: bad})


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
    # the prox returns nan, the next update carries it into the iterate,
    # and the oracle's error names the sweep and the block that made it
    problem, calls = _spoiled_exact_problem(np.inf)
    solve(problem, SolverParams(mode="exact", tol=0.0, max_outer=1))
    problem, _ = _spoiled_exact_problem(len(calls) + 3)
    with pytest.raises(NumericError, match="subproblem oracle produced non-finite values") as info:
        solve(problem, SolverParams(mode="exact", tol=0.0, max_outer=5))
    assert info.value.context == {"routine": "subproblem_minimizer",
                                  "outer_iteration": 2, "block": 1}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_exact_mode_nan_residual_raises_and_overflow_passes():
    # the first prox call of sweep 2's block-1 oracle forms the residual
    # only; a nan there never reaches the iterate but still fails the
    # solve, while a finite residual whose square overflows does not
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


def test_safeguard_mode_recovers_from_tiny_gamma():
    # start the penalty weights far below ||A_i||^2; the compatibility
    # test must bump them and the solve still reaches tolerance
    entry = gen_qp(46, m=2)
    params = SolverParams(gamma_mode="safeguard", gamma_init=1e-3,
                          tol=1e-7, max_outer=30000)
    report = solve(entry.problem, params)
    assert report.cause == "tolerance"
    bumps = [e for e in report.events if e["event"] == "gamma-safeguard"]
    assert bumps, "expected at least one safeguard activation"
    assert all(report.gammas[i] >= 1e-3 for i in range(2))


def test_strong_schedule_updates_match_formulas():
    # every safeguard bump in strong mode recomputes theta and k0 from the
    # bumped weights; rebuild the weights from the events and recompute
    # (the 17 events of this run fall in sweeps 1 and 5)
    entry = from_id("qp-2-m2-mu0.5")
    problem, alpha, g0 = entry.problem, 0.5, 1e-3
    params = SolverParams(mode="strong", alpha=alpha, gamma_mode="safeguard",
                          gamma_init=g0, tol=0.0, max_outer=20)
    report = solve(problem, params)
    updates = [e for e in report.events if e["event"] == "strong-schedule-update"]
    assert len(report.events) == 17 and len(updates) == 2
    mu = problem.mu_total()
    gammas = [g0] * problem.m
    for e in report.events:
        if e["event"] == "gamma-safeguard":
            assert e["old"] == gammas[e["block"]] and e["new"] == 3.0 * e["old"]
            gammas[e["block"]] = e["new"]
            continue
        M = BlockTriangular(list(gammas), problem.ops())
        assert e["theta"] == alpha * mu / (8.0 * M.p_norm())
        assert e["k0"] == 4.0 * M.scaled_p_norm() / (alpha * (1.0 - alpha))
    assert gammas == report.gammas
    assert (report.theta, report.k0) == (updates[-1]["theta"], updates[-1]["k0"])


def test_strong_safeguard_from_tiny_gamma_runs_at_alpha_0_9():
    # one bump per sweep left the weights ~300x below ||A_i^T A_i|| after
    # sweep 1 and the next sweep's inner loop hit its cap; growing each
    # weight until it is compatible runs the whole horizon
    entry = from_id("qp-2-m2-mu0.5")
    params = SolverParams(mode="strong", gamma_mode="safeguard", gamma_init=1e-3,
                          tol=0.0, max_outer=60, alpha=0.9)
    report = solve(entry.problem, params)
    assert report.cause == "max-iterations" and report.iterations == 60
    bumps = [e for e in report.events if e["event"] == "gamma-safeguard"]
    assert sum(e["k"] == 1 for e in bumps) == 14


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
