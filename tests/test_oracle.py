"""Independent reference solvers used to certify and cross-check runs."""

import dataclasses
import warnings

import numpy as np
import pytest

import iadmm.outer
from iadmm.blockspace import BlockVector, DenseMap
from iadmm.diagnostics import ReferencePair
from iadmm.errors import CertificationError, ConfigError
from iadmm.inner import InnerConfig, run_inner
from iadmm.oracle import solve_qp_kkt, subproblem_minimizer
from iadmm.problem import Block, ProblemSpec
from iadmm.problems import gen_lasso, gen_qp
from iadmm.proxlib import (SmoothTerm, group_l2_prox, l1_prox, quadratic, soft_threshold,
                           zero_prox)


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
    """The block with its Hessian hidden, which forces the oracle onto the operator path."""
    return Block(dataclasses.replace(blk.smooth, hessian=None, linear=None),
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


def _no_bound_block():
    # 0.5 u^T (3 I) u + 2 * 1^T u with its curvature withheld
    quad = quadratic(3.0 * np.eye(3), 2.0 * np.ones(3))
    smooth = SmoothTerm(value=quad.value, grad=quad.grad, value_grad=quad.value_grad)
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


# block-0 prox calls of gen_lasso(1)'s exact-mode reference run (528
# sweeps) with the oracle's 2 / (L + mu) step; the 1 / L step took 24,730
LASSO_1_BLOCK_0_PROX_CALLS = 15_552


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
    assert counts == [("exact", 528, LASSO_1_BLOCK_0_PROX_CALLS)]


def test_subproblem_minimizer_stationarity_with_l1():
    blk, y_i, lam, b_i = _subproblem_inputs(71, weight=0.3)
    rho, gamma_i = 1.0, 2.0
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=1e-13)
    # fixed point of the unit-step prox-gradient map of the subproblem
    w_pen = blk.op.adjoint(blk.op.apply(y_i) - b_i + lam / rho)
    grad = blk.smooth.grad(xbar) + rho * w_pen + rho * gamma_i * (xbar - y_i)
    back = soft_threshold(xbar - grad, 0.3)
    assert np.linalg.norm(xbar - back) <= 1e-10


def test_subproblem_fixed_point_is_inner_fixed_point():
    # the oracle minimizer is a fixed point of one exact inner pass
    blk, y_i, lam, b_i = _subproblem_inputs(72, weight=0.2)
    rho, gamma_i = 1.0, 2.0
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=1e-13)
    cfg = InnerConfig(rule="adaptive", sigma=0.9)
    res, _ = run_inner(blk, xbar, y_i, lam, b_i, rho, gamma_i, cfg,
                       Gamma_prev=0.0, psi_eps=np.inf, force_iters=1)
    assert np.linalg.norm(res.x_next - xbar) <= 1e-9


def test_inner_loop_limit_matches_oracle():
    # driving the inner tolerance to zero reproduces the oracle point
    blk, y_i, lam, b_i = _subproblem_inputs(73, weight=0.25)
    rho, gamma_i = 1.0, 2.0
    xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i, tol=1e-13)
    cfg = InnerConfig(rule="adaptive", sigma=0.9)
    rng = np.random.default_rng(99)
    x_i = y_i + rng.standard_normal(blk.dim)
    res, _ = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i, cfg,
                       Gamma_prev=0.0, psi_eps=np.inf, force_iters=400)
    assert np.linalg.norm(res.z - xbar) <= 1e-6
    assert np.linalg.norm(res.x_next - xbar) <= 1e-6


def test_certify_reference_accepts_and_rejects():
    entry = gen_qp(74, m=2)
    problem, ref = entry.problem, entry.reference
    ok = ReferencePair(problem, ref.x_star, ref.lam_star, source="round")
    assert ok.source == "round"
    assert ok.kkt <= 1e-9
    bad = ref.x_star + BlockVector.from_flat(
        np.full(problem.n, 0.1), problem.dims)
    with pytest.raises(CertificationError):
        ReferencePair(problem, bad, ref.lam_star)
