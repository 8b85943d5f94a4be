"""Independent reference solvers used to certify and cross-check runs."""

import numpy as np
import pytest

from iadmm.blockspace import BlockVector, DenseMap
from iadmm.diagnostics import ReferencePair
from iadmm.errors import CertificationError, ConfigError
from iadmm.inner import InnerConfig, run_inner
from iadmm.oracle import solve_qp_kkt, subproblem_minimizer
from iadmm.problem import Block, ProblemSpec
from iadmm.problems import gen_qp
from iadmm.proxlib import l1_prox, quadratic, soft_threshold, zero_prox


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


def _subproblem_inputs(seed, weight=0.2):
    rng = np.random.default_rng(seed)
    dim = 5
    G = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    H = G.T @ G + 0.4 * np.eye(dim)
    blk = Block(quadratic(H, rng.standard_normal(dim), modulus=0.4),
                l1_prox(weight) if weight else zero_prox(),
                DenseMap(rng.standard_normal((dim + 1, dim)) / np.sqrt(dim)))
    y_i = rng.standard_normal(dim)
    lam = rng.standard_normal(dim + 1)
    b_i = rng.standard_normal(dim + 1)
    return blk, y_i, lam, b_i


def test_subproblem_minimizer_direct_vs_iterative():
    # with a zero nonsmooth term the dense path must agree with the
    # proximal-gradient path to tight accuracy
    blk, y_i, lam, b_i = _subproblem_inputs(70, weight=0.0)
    rho, gamma_i = 1.2, 2.5
    direct = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
    # force the iterative branch by hiding the Hessian
    blind = Block(
        type(blk.smooth)(value=blk.smooth.value, grad=blk.smooth.grad,
                         value_grad=blk.smooth.value_grad,
                         lipschitz=blk.smooth.lipschitz,
                         modulus=blk.smooth.modulus),
        blk.nonsmooth, blk.op)
    iterative = subproblem_minimizer(blind, y_i, lam, b_i, rho, gamma_i,
                                     tol=1e-12)
    assert np.linalg.norm(direct - iterative) <= 1e-8


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
