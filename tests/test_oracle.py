"""Independent reference solvers used to certify and cross-check runs."""

import dataclasses
import warnings

import numpy as np
import pytest

import iadmm.oracle
import iadmm.outer
from iadmm.blockspace import BlockVector, DenseMap
from iadmm.diagnostics import ReferencePair
from iadmm.errors import CertificationError, ConfigError, NumericError
from iadmm.inner import run_inner
from iadmm.oracle import face_solve, solve_qp_kkt, subproblem_minimizer
from iadmm.outer import SolverParams
from iadmm.problem import Block, ProblemSpec
from iadmm.problems import gen_lasso, gen_qp
from iadmm.proxlib import (ProxTerm, SmoothTerm, group_l2_prox, l1_prox, quadratic,
                           zero_prox, zero_smooth)


def _hand_qp():
    # min 0.5 x1^2 + 0.5 x2^2 s.t. x1 + x2 = 2 -> x = (1,1), lambda = -1
    blocks = [
        Block(quadratic(np.eye(1), np.zeros(1)), zero_prox(),
              DenseMap(np.eye(1))),
        Block(quadratic(np.eye(1), np.zeros(1)), zero_prox(),
              DenseMap(np.eye(1))),
    ]
    return ProblemSpec(blocks, np.array([2.0]))


def test_kkt_solver_hand_example():
    problem = _hand_qp()
    ref = solve_qp_kkt(problem)
    assert ref.x_star.to_flat() == pytest.approx([1.0, 1.0], abs=1e-12)
    assert ref.lam_star == pytest.approx([-1.0], abs=1e-12)
    assert ref.kkt <= 1e-12


def test_kkt_solver_residuals_on_random_problems():
    for seed in (60, 61, 62):
        entry = gen_qp(seed, m=2 + seed % 2)
        problem, ref = entry.problem, entry.reference
        # stationarity: H x* + c + A^T lam* = 0 blockwise
        for i, blk in enumerate(problem.blocks):
            g = blk.smooth.grad(ref.x_star.blocks[i])
            g = g + blk.op.adjoint(ref.lam_star)
            assert np.linalg.norm(g) <= 1e-8
        assert np.linalg.norm(problem.residual(ref.x_star)) <= 1e-8


def test_kkt_solver_block_permutation_invariance():
    # permuting the blocks permutes the solution and keeps the multiplier
    entry = gen_qp(63, m=2)
    problem = entry.problem
    swapped = ProblemSpec([problem.blocks[1], problem.blocks[0]], problem.b)
    ref = solve_qp_kkt(problem)
    ref_swapped = solve_qp_kkt(swapped)
    assert np.allclose(ref_swapped.x_star.blocks[0],
                       ref.x_star.blocks[1], atol=1e-9)
    assert np.allclose(ref_swapped.x_star.blocks[1],
                       ref.x_star.blocks[0], atol=1e-9)
    assert np.allclose(ref_swapped.lam_star, ref.lam_star, atol=1e-9)


def test_kkt_solver_rejects_nonsmooth_blocks():
    blocks = [Block(quadratic(np.eye(2), np.zeros(2)), l1_prox(0.1),
                    DenseMap(np.ones((1, 2))))]
    problem = ProblemSpec(blocks, np.array([1.0]))
    with pytest.raises(ConfigError):
        solve_qp_kkt(problem)


def _subproblem_inputs(seed, weight=0.2, group=False):
    # ``group`` swaps the l1 term for group norms of pairs, on 6 entries
    rng = np.random.default_rng(seed)
    dim = 6 if group else 5
    G = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    H = G.T @ G + 0.4 * np.eye(dim)
    if group:
        prox = group_l2_prox(weight, 2)
    else:
        prox = l1_prox(weight) if weight else zero_prox()
    blk = Block(quadratic(H, rng.standard_normal(dim), modulus=0.4), prox,
                DenseMap(rng.standard_normal((dim + 1, dim)) / np.sqrt(dim)))
    y_i = rng.standard_normal(dim)
    lam = rng.standard_normal(dim + 1)
    b_i = rng.standard_normal(dim + 1)
    return blk, y_i, lam, b_i


def _blind(blk):
    """The block with its Hessian hidden, which forces the oracle onto the operator path.

    A zero Lipschitz bound is raised to 1, still a valid bound, so a zero
    smooth term also takes the stepping loop instead of its closed form.
    """
    lip = blk.smooth.lipschitz if blk.smooth.lipschitz != 0.0 else 1.0
    return Block(dataclasses.replace(blk.smooth, hessian=None, linear=None, lipschitz=lip),
                 blk.nonsmooth, blk.op)


def _unit_step_residual(blk, xbar, y_i, lam, b_i, rho, gamma_i):
    """``||u - prox(u - grad, 1)||`` of the subproblem at ``xbar``, from the operators."""
    w_pen = blk.op.adjoint(blk.op.apply(y_i) - b_i + lam / rho)
    grad = blk.smooth.grad(xbar) + rho * w_pen + rho * gamma_i * (xbar - y_i)
    return np.linalg.norm(xbar - blk.nonsmooth.prox(xbar - grad, 1.0))


def test_subproblem_minimizer_direct_vs_iterative():
    # with a zero nonsmooth term the dense path must agree with the
    # proximal-gradient path to tight accuracy
    blk, y_i, lam, b_i = _subproblem_inputs(70, weight=0.0)
    rho, gamma_i = 1.2, 2.5
    direct = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
    iterative = subproblem_minimizer(_blind(blk), y_i, lam, b_i, rho, gamma_i,
                                     tol=1e-12)
    assert np.linalg.norm(direct - iterative) <= 1e-8


def test_zero_prox_branch_is_the_dense_solve_bitwise():
    blk, y_i, lam, b_i = _subproblem_inputs(75, weight=0.0)
    rho, gamma_i = 1.2, 2.5
    rg = rho * gamma_i
    rw = rho * blk.op.adjoint(blk.op.apply(y_i) - b_i + lam / rho)
    want = np.linalg.solve(blk.smooth.hessian + rg * np.eye(y_i.size),
                           rg * y_i - blk.smooth.linear - rw)
    got = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("group", [False, True])
@pytest.mark.parametrize("seed", [76, 77, 78])
def test_dense_path_matches_operator_path(seed, group):
    # the explicit-Hessian system and the hidden-Hessian operator calls
    # reach the same minimizer, each to the unit-step residual it was asked for
    blk, y_i, lam, b_i = _subproblem_inputs(seed, weight=0.3, group=group)
    rho, gamma_i = 1.3, 2.2
    dense = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=1e-13)
    blind = subproblem_minimizer(_blind(blk), y_i, lam, b_i, rho, gamma_i, tol=1e-13)
    assert np.linalg.norm(dense - blind) <= 1e-12
    for u in (dense, blind):
        assert _unit_step_residual(blk, u, y_i, lam, b_i, rho, gamma_i) <= 1e-13


def _recording_polish(monkeypatch):
    """Record every point ``_polish`` proposes."""
    proposed = []
    real = iadmm.oracle._polish

    def polish(*args):
        proposed.append(real(*args))
        return proposed[-1]

    monkeypatch.setattr(iadmm.oracle, "_polish", polish)
    return proposed


def test_zero_smooth_block_is_closed_form():
    # one prox call, and the same point the stepping loop reaches
    _, y_i, lam, b_i = _subproblem_inputs(79)
    rng = np.random.default_rng(79)
    calls = []

    def prox(y, tau):
        calls.append(1)
        return l1_prox(1.0).prox(y, tau)

    blk = Block(zero_smooth(), ProxTerm(l1_prox(1.0).value, prox),
                DenseMap(rng.standard_normal((6, 5)) / np.sqrt(5)))
    rho, gamma_i, tol = 1.3, 2.2, 1e-13
    closed = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=tol)
    assert len(calls) == 1
    stepped = subproblem_minimizer(_blind(blk), y_i, lam, b_i, rho, gamma_i, tol=tol)
    assert len(calls) > 2
    assert np.linalg.norm(closed - stepped) <= 1e-12
    assert 0 < np.count_nonzero(closed) < closed.size
    assert _unit_step_residual(blk, closed, y_i, lam, b_i, rho, gamma_i) <= tol


def test_zero_smooth_closed_form_rejects_a_non_finite_prox():
    _, y_i, lam, b_i = _subproblem_inputs(79)
    blk = Block(zero_smooth(), ProxTerm(l1_prox(1.0).value, lambda y, tau: y * np.nan),
                DenseMap(np.ones((6, 5))))
    with pytest.raises(NumericError, match="non-finite values"):
        subproblem_minimizer(blk, y_i, lam, b_i, 1.3, 2.2)


def test_dense_l1_block_returns_the_polished_point(monkeypatch):
    # seed 78's minimizer has a zero entry, so the face is a proper one
    proposed = _recording_polish(monkeypatch)
    blk, y_i, lam, b_i = _subproblem_inputs(78, weight=0.3)
    rho, gamma_i, tol = 1.3, 2.2, 1e-13
    got = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=tol)
    assert len(proposed) == 1 and got is proposed[0]
    assert 0 < np.count_nonzero(got) < got.size
    blind = subproblem_minimizer(_blind(blk), y_i, lam, b_i, rho, gamma_i, tol=tol)
    assert np.linalg.norm(got - blind) <= 1e-12
    assert _unit_step_residual(blk, got, y_i, lam, b_i, rho, gamma_i) <= tol


def test_dense_group_block_whose_polish_fails_still_certifies(monkeypatch):
    # group shrinkage is no translation on its face, so the one polish
    # misses tol; the steps go on to a certified point without a retry
    proposed = _recording_polish(monkeypatch)
    blk, y_i, lam, b_i = _subproblem_inputs(76, weight=0.3, group=True)
    rho, gamma_i, tol = 1.3, 2.2, 1e-13
    got = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=tol)
    assert len(proposed) == 1
    assert _unit_step_residual(blk, proposed[0], y_i, lam, b_i, rho, gamma_i) > tol
    assert _unit_step_residual(blk, got, y_i, lam, b_i, rho, gamma_i) <= tol
    blind = subproblem_minimizer(_blind(blk), y_i, lam, b_i, rho, gamma_i, tol=tol)
    assert np.linalg.norm(got - blind) <= 1e-12


def _no_bound_block():
    # 0.5 u^T (3 I) u + 2 * 1^T u with its curvature withheld
    quad = quadratic(3.0 * np.eye(3), 2.0 * np.ones(3))
    smooth = SmoothTerm(value=quad.value, value_grad=quad.value_grad)
    return Block(smooth, l1_prox(0.1), DenseMap(np.eye(3)))


def test_subproblem_minimizer_rejects_a_block_without_curvature_bound():
    blk = _no_bound_block()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="Lipschitz bound"):
            subproblem_minimizer(blk, np.zeros(3), np.zeros(3), np.ones(3), 1.0, 1.0)


def test_exact_solve_rejects_a_block_without_curvature_bound_before_sweep_1(monkeypatch):
    # a well-posed block 0 comes first, so only a check ahead of the sweep
    # keeps the oracle from being called at all
    good = Block(quadratic(np.eye(3), np.zeros(3)), l1_prox(0.1), DenseMap(np.eye(3)))
    problem = ProblemSpec([good, _no_bound_block()], np.ones(3))
    oracle_calls = []
    monkeypatch.setattr(iadmm.outer, "subproblem_minimizer",
                        lambda *a, **kw: oracle_calls.append(1) or subproblem_minimizer(*a, **kw))
    with pytest.raises(ConfigError, match="Lipschitz bound"):
        iadmm.outer.solve(problem, iadmm.outer.SolverParams(mode="exact"))
    assert oracle_calls == []


# block-0 prox calls of gen_lasso(1)'s coarse exact-mode run (166 sweeps
# to LASSO_FACE_TOL = 1e-4, before its one face solve): about three per
# subproblem, two steps and the certificate of the face polish.  The full
# run to 1e-12 that built the reference before took 1,582 (527 sweeps);
# two prox calls per step without the polish took 15,552 (528 sweeps), and
# 24,730 with the 1 / L step.
LASSO_1_BLOCK_0_PROX_CALLS = 502


def test_lasso_reference_run_oracle_work_is_pinned(monkeypatch):
    # a count, not a clock: a slower step shows up as more prox calls
    real_solve = iadmm.outer.solve
    counts = []

    def counting_solve(problem, params=None, ref=None):
        blk = problem.blocks[0]
        calls = []

        def prox(y, tau):
            calls.append(1)
            return blk.nonsmooth.prox(y, tau)

        counted = Block(blk.smooth, dataclasses.replace(blk.nonsmooth, prox=prox), blk.op)
        report = real_solve(ProblemSpec([counted] + problem.blocks[1:], problem.b), params, ref)
        counts.append((params.mode, report.iterations, len(calls)))
        return report

    monkeypatch.setattr(iadmm.outer, "solve", counting_solve)
    gen_lasso(1)
    assert counts == [("exact", 166, LASSO_1_BLOCK_0_PROX_CALLS)]


def test_face_solve_certifies_the_face_it_is_given():
    entry = gen_lasso(1)
    problem, ref = entry.problem, entry.reference
    # the reference's own face gives it back to rounding
    again = face_solve(ref.x_star, ref.lam_star, problem)
    assert again.source == "face-solve" and again.kkt <= 1e-13
    assert np.max(np.abs(again.x_star.to_flat() - ref.x_star.to_flat())) <= 1e-12
    # dropping the largest coordinate from the face leaves no saddle point on it
    flat = ref.x_star.to_flat()
    flat[np.argmax(np.abs(flat))] = 0.0
    with pytest.raises(CertificationError, match="face-solve"):
        face_solve(BlockVector.from_flat(flat, problem.dims), ref.lam_star, problem)
    # a smooth term without its Hessian gives no system to solve
    blind = ProblemSpec([_blind(problem.blocks[0])] + problem.blocks[1:], problem.b)
    with pytest.raises(ConfigError, match="explicit quadratic"):
        face_solve(ref.x_star, ref.lam_star, blind)


def test_subproblem_minimizer_stationarity_with_l1():
    blk, y_i, lam, b_i = _subproblem_inputs(71, weight=0.3)
    rho, gamma_i = 1.0, 2.0
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=1e-13)
    # fixed point of the unit-step prox-gradient map of the subproblem
    w_pen = blk.op.adjoint(blk.op.apply(y_i) - b_i + lam / rho)
    grad = blk.smooth.grad(xbar) + rho * w_pen + rho * gamma_i * (xbar - y_i)
    v = xbar - grad
    back = np.sign(v) * np.maximum(np.abs(v) - 0.3, 0.0)
    assert np.linalg.norm(xbar - back) <= 1e-10


def test_subproblem_fixed_point_is_inner_fixed_point():
    # the oracle minimizer is a fixed point of one exact inner pass
    blk, y_i, lam, b_i = _subproblem_inputs(72, weight=0.2)
    rho, gamma_i = 1.0, 2.0
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=1e-13)
    params = SolverParams(rule="adaptive", sigma=0.9)
    res, _ = run_inner(blk, xbar, y_i, lam, b_i, rho, gamma_i, params,
                       Gamma_prev=0.0, psi_eps=np.inf, force_iters=1)
    assert np.linalg.norm(res.x_next - xbar) <= 1e-9


def test_inner_loop_limit_matches_oracle():
    # driving the inner tolerance to zero reproduces the oracle point
    blk, y_i, lam, b_i = _subproblem_inputs(73, weight=0.25)
    rho, gamma_i = 1.0, 2.0
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=1e-13)
    params = SolverParams(rule="adaptive", sigma=0.9)
    rng = np.random.default_rng(99)
    x_i = y_i + rng.standard_normal(blk.dim)
    res, _ = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i, params,
                       Gamma_prev=0.0, psi_eps=np.inf, force_iters=400)
    assert np.linalg.norm(res.z - xbar) <= 1e-6
    assert np.linalg.norm(res.x_next - xbar) <= 1e-6


def test_certify_reference_accepts_and_rejects():
    entry = gen_qp(74, m=2)
    problem, ref = entry.problem, entry.reference
    ok = ReferencePair(problem, ref.x_star, ref.lam_star, source="round")
    assert ok.kkt <= 1e-9
    bad = ref.x_star + BlockVector.from_flat(
        np.full(problem.n, 0.1), problem.dims)
    with pytest.raises(CertificationError):
        ReferencePair(problem, bad, ref.lam_star)
