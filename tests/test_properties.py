"""Property tests: prox maps, operator adjoints, back substitution, the metric
norms of ``M``, the inner loop's step coupling, the subproblem oracle's two
paths, the paper's certificates on generated QPs, repeatable solves.

Hypothesis draws the shapes and entries; ``derandomize=True`` fixes the
examples it draws, so every run checks the same cases.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import iadmm.outer
from iadmm.blockspace import (BlockTriangular, BlockVector, DenseMap, Grad2D, HaarMap,
                              ScaledIdentity, VStack, ZeroMap)
from iadmm.diagnostics import decay_rows, ergodic_rows, strong_rows
from iadmm.errors import ConfigError
from iadmm.inner import run_inner
from iadmm.oracle import subproblem_minimizer
from iadmm.outer import SolverParams, solve
from iadmm.problem import Block
from iadmm.problems import SeparableBlur, from_id, gen_qp
from iadmm.proxlib import group_l2_prox, l1_prox, quadratic, quadratic_smooth, zero_prox
from iadmm.suites import XI_TOL, _random_subproblem

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)

ENTRY = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
POSITIVE = st.floats(0.05, 5.0)


def _vector(n):
    return hnp.arrays(np.float64, n, elements=ENTRY)


def _matrix(rows, cols):
    return hnp.arrays(np.float64, (rows, cols),
                      elements=st.floats(-2.0, 2.0, allow_subnormal=False))


def _prox_and_dual_projection(kind, weight):
    """A prox term and the projection onto the ``tau * weight`` ball of its dual norm."""
    if kind == "l1":
        return l1_prox(weight), lambda y, tau: np.clip(y, -tau * weight, tau * weight)
    if kind == "group":
        def project(y, tau):
            g = y.reshape(-1, 2)
            norms = np.sqrt(np.sum(g * g, axis=1))
            scale = np.minimum(1.0, tau * weight / np.maximum(norms, 1e-300))
            return (g * scale[:, None]).reshape(-1)

        return group_l2_prox(weight, 2), project
    # the zero function is the support function of {0}
    return zero_prox(), lambda y, tau: np.zeros_like(y)


PROX_KINDS = st.sampled_from(["l1", "group", "zero"])


@SETTINGS
@given(kind=PROX_KINDS, weight=POSITIVE, tau=POSITIVE, data=st.data())
def test_prox_is_firmly_nonexpansive_property(kind, weight, tau, data):
    n_pairs = data.draw(st.integers(1, 4))
    y1 = data.draw(_vector(2 * n_pairs))
    y2 = data.draw(_vector(2 * n_pairs))
    term, _ = _prox_and_dual_projection(kind, weight)
    p1, p2 = term.prox(y1, tau), term.prox(y2, tau)
    dp = p1 - p2
    dy = y1 - y2
    assert float(dp @ dp) <= float(dp @ dy) + 1e-12 * (1.0 + float(dy @ dy))


@SETTINGS
@given(kind=PROX_KINDS, weight=POSITIVE, tau=POSITIVE, data=st.data())
def test_moreau_decomposition_property(kind, weight, tau, data):
    # y - prox_{tau h}(y) is the projection of y onto the tau * weight
    # ball of the dual norm (l_inf for l1, per-group l2 for the group norm)
    n_pairs = data.draw(st.integers(1, 4))
    y = data.draw(_vector(2 * n_pairs))
    term, project = _prox_and_dual_projection(kind, weight)
    residual = y - term.prox(y, tau)
    assert np.allclose(residual, project(y, tau), rtol=0.0, atol=1e-12 * (1.0 + np.abs(y).max()))


@st.composite
def _vstacks(draw):
    cols = draw(st.integers(1, 5))
    parts = []
    kinds = st.lists(st.sampled_from(["dense", "identity", "zero"]), min_size=1, max_size=4)
    for kind in draw(kinds):
        if kind == "dense":
            parts.append(DenseMap(draw(_matrix(draw(st.integers(1, 5)), cols))))
        elif kind == "identity":
            parts.append(ScaledIdentity(cols, draw(st.floats(-3.0, 3.0))))
        else:
            parts.append(ZeroMap(draw(st.integers(1, 5)), cols))
    return VStack(parts)


@SETTINGS
@given(op=_vstacks(), data=st.data())
def test_vstack_adjoint_identity_property(op, data):
    u = data.draw(_vector(op.cols))
    v = data.draw(_vector(op.rows))
    lhs = float(v @ op.apply(u))
    rhs = float(op.adjoint(v) @ u)
    # |v^T A u| is at most ||v|| ||A||_F ||u||
    scale = 1.0 + float(np.linalg.norm(v) * np.linalg.norm(op.to_dense()) * np.linalg.norm(u))
    assert abs(lhs - rhs) <= 1e-12 * scale
    assert np.allclose(op.apply(u), op.to_dense() @ u, rtol=0.0, atol=1e-12 * scale)


@st.composite
def _haar_maps(draw):
    power = draw(st.integers(1, 6))
    return HaarMap(2 ** power, levels=draw(st.integers(1, power)))


@st.composite
def _blurs(draw):
    # odd symmetric kernel: the drawn half ends at the centre tap
    half = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)))
    return SeparableBlur(draw(st.integers(1, 12)), np.concatenate([half, half[-2::-1]]))


IMAGING_MAPS = st.one_of(_haar_maps(), _blurs(), st.integers(2, 12).map(Grad2D))


def _dense_pair(op, seed):
    # image-sized vectors drawn whole from a seeded generator, so every
    # entry is random rather than mostly one fill value
    rng = np.random.default_rng(seed)
    return rng.uniform(-10.0, 10.0, op.cols), rng.uniform(-10.0, 10.0, op.rows)


@SETTINGS
@given(op=IMAGING_MAPS, seed=st.integers(0, 2 ** 32 - 1))
def test_imaging_map_adjoint_identity_property(op, seed):
    u, v = _dense_pair(op, seed)
    lhs = float(v @ op.apply(u))
    rhs = float(op.adjoint(v) @ u)
    # spectral-norm bounds: (sum |kernel|)^2 for the blur, 2 sqrt(2) < 3
    # for the gradient, 1 for the Haar transform
    bound = (float(np.sum(np.abs(op.kernel))) ** 2 if isinstance(op, SeparableBlur)
             else 3.0)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + bound * np.linalg.norm(u) * np.linalg.norm(v))


@SETTINGS
@given(power=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_haar_synthesis_inverts_analysis_property(power, seed):
    for levels in range(1, power + 1):
        op = HaarMap(2 ** power, levels=levels)
        x, _ = _dense_pair(op, seed)
        assert np.max(np.abs(op.adjoint(op.apply(x)) - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))


@SETTINGS
@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=4), rows=st.integers(1, 6),
       alpha=st.floats(0.05, 0.95), data=st.data())
def test_back_substitution_residual_property(dims, rows, alpha, data):
    # y_new solves M^T (y_new - y) = alpha Q (z - y) for any block shapes
    mats = [data.draw(_matrix(rows, d)) for d in dims]
    gammas = [data.draw(st.floats(0.1, 10.0)) for _ in dims]
    tri = BlockTriangular(gammas, [DenseMap(a) for a in mats])
    y = BlockVector.from_flat(data.draw(_vector(sum(dims))), dims)
    z = BlockVector.from_flat(data.draw(_vector(sum(dims))), dims)
    d = tri.back_substitute(y, z, alpha) - y
    target = BlockVector([alpha * g * (zi - yi) for g, zi, yi in zip(gammas, z.blocks, y.blocks)])
    resid = (tri.apply_mt(d) - target).norm()
    # rounding grows with the size of the terms that cancel in M^T d
    scale = 1.0 + target.norm() + BlockVector([g * di for g, di in zip(gammas, d.blocks)]).norm()
    assert resid <= 1e-12 * scale


@SETTINGS
@given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=4), rows=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_metric_norms_match_dense_eigenvalues_property(dims, rows, seed, data):
    # ||P|| and ||Q^{-1/2} P Q^{-1/2}|| are the top eigenvalues of the dense
    # metric, not the one-sided Rayleigh quotient of a power iteration
    rng = np.random.default_rng(seed)
    gammas = [10.0 ** data.draw(st.floats(-3.0, 2.0)) for _ in dims]
    tri = BlockTriangular(gammas, [DenseMap(rng.standard_normal((rows, d))) for d in dims])
    Md = tri.to_dense()
    qinv = np.concatenate([np.full(d, 1.0 / g) for d, g in zip(dims, gammas)])
    P = (Md * qinv) @ Md.T
    rq = np.sqrt(qinv)
    for got, want in ((tri.p_norm(), np.linalg.eigvalsh(P)[-1]),
                      (tri.scaled_p_norm(), np.linalg.eigvalsh(rq[:, None] * P * rq)[-1])):
        assert got == pytest.approx(want, rel=1e-12)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), rule=st.sampled_from(["constant", "adaptive"]),
       rho=st.floats(0.1, 10.0), gamma_i=st.floats(0.1, 10.0))
def test_step_size_coupling_property(seed, rule, rho, gamma_i):
    # criterion 1 off its fixtures: delta^l alpha^l gamma^l = 1 at every step
    rng = np.random.default_rng(seed)
    blk = _random_subproblem(rng)
    y_i = rng.standard_normal(blk.dim)
    x_i = y_i + rng.standard_normal(blk.dim)
    lam, b_i = rng.standard_normal(blk.op.rows), rng.standard_normal(blk.op.rows)
    _, tr = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i, SolverParams(rule=rule, sigma=0.9),
                      Gamma_prev=0.0, psi_eps=np.inf, force_iters=30, trace=True)
    assert np.max(np.abs(np.asarray(tr.xis) - 1.0)) <= XI_TOL


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@st.composite
def _dense_matrices(draw, side):
    # non-square shapes up to ``side`` and Fortran-ordered (transposed) storage
    rows, cols = draw(st.integers(1, side)), draw(st.integers(1, side))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return rng.standard_normal((cols, rows)).T, rng
    return rng.standard_normal((rows, cols)), rng


@SETTINGS
@given(drawn=_dense_matrices(300))
def test_dense_map_products_match_matmul_bitwise_property(drawn):
    mat, rng = drawn
    op = DenseMap(mat)
    x, w = rng.standard_normal(op.cols), rng.standard_normal(op.rows)
    assert _same_bits(op.apply(x), mat @ x)
    assert _same_bits(op.adjoint(w), mat.T @ w)


@SETTINGS
@given(drawn=_dense_matrices(96))
def test_smooth_terms_match_matmul_bitwise_property(drawn):
    mat, rng = drawn
    # the quadratic symmetrizes its Hessian (and takes an eigendecomposition,
    # hence the smaller sizes); the expressions below are the ``@`` forms
    # its value and gradient were first written in
    n = mat.shape[1]
    term = quadratic(mat.T @ mat, rng.standard_normal(n))
    H, c = term.hessian, term.linear
    x = rng.standard_normal(n)
    value, grad = float(0.5 * (x @ (H @ x)) + c @ x), H @ x + c
    assert _same_bits(term.value(x), value)
    assert _same_bits(term.value(x.tolist()), value)
    assert _same_bits(term.grad(x), grad)
    fused = term.value_grad(x)
    assert _same_bits(fused[0], value) and _same_bits(fused[1], grad)

    f = rng.standard_normal(mat.shape[0])
    term = quadratic_smooth(DenseMap(mat), f, lipschitz=1.0, modulus=0.0)
    r = mat @ x - f
    value, grad = float(0.5 * (r @ r)), mat.T @ r
    assert _same_bits(term.value(x), value)
    assert _same_bits(term.grad(x), grad)
    fused = term.value_grad(x)
    assert _same_bits(fused[0], value) and _same_bits(fused[1], grad)


@SETTINGS
@given(kind=PROX_KINDS, weight=POSITIVE, mu=st.floats(0.1, 1.0), rho=st.floats(0.5, 2.0),
       gamma_i=st.floats(0.5, 4.0), pairs=st.integers(1, 3), data=st.data())
def test_oracle_dense_path_matches_operator_path_property(kind, weight, mu, rho, gamma_i,
                                                          pairs, data):
    # the explicit-Hessian system (a direct solve for the zero prox) and the
    # hidden-Hessian operator path reach the same unit-step fixed point
    dim = 2 * pairs
    G = data.draw(_matrix(dim, dim)) / np.sqrt(dim)
    A = data.draw(_matrix(dim + 1, dim))
    c, y_i = data.draw(_vector(dim)), data.draw(_vector(dim))
    lam, b_i = data.draw(_vector(dim + 1)), data.draw(_vector(dim + 1))
    prox, _ = _prox_and_dual_projection(kind, weight)
    blk = Block(quadratic(G.T @ G + mu * np.eye(dim), c, modulus=mu), prox, DenseMap(A))
    blind = Block(dataclasses.replace(blk.smooth, hessian=None, linear=None), prox, blk.op)
    dense = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
    iterative = subproblem_minimizer(blind, y_i, lam, b_i, rho, gamma_i)
    scale = 1.0 + np.linalg.norm(dense)
    assert np.linalg.norm(dense - iterative) <= 1e-9 * scale
    w_pen = A.T @ (A @ y_i - b_i + lam / rho)
    for u in (dense, iterative):
        grad = blk.smooth.grad(u) + rho * w_pen + rho * gamma_i * (u - y_i)
        assert np.linalg.norm(u - prox.prox(u - grad, 1.0)) <= 1e-9 * scale


# the certificates are asserted row by row on a few dozen tracked sweeps of
# each draw; a failing row is a defect in the solver or in the bound
CERTIFICATE_SWEEPS = 40
ALPHA = st.floats(0.05, 0.95)
RHO = st.floats(0.1, 10.0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4), alpha=ALPHA, rho=RHO,
       rule=st.sampled_from(["adaptive", "constant"]))
def test_energy_decay_and_averaged_gap_certificates_property(seed, m, alpha, rho, rule):
    entry = gen_qp(seed, m=m)
    params = SolverParams(alpha=alpha, rho=rho, rule=rule, tol=0.0,
                          max_outer=CERTIFICATE_SWEEPS)
    rep = solve(entry.problem, params, ref=entry.reference)
    rows = decay_rows(rep) + ergodic_rows(rep)
    assert len(rows) == 2 * CERTIFICATE_SWEEPS - 1
    assert [r for r in rows if not r.passed] == []


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4), mu=st.floats(0.1, 2.0),
       alpha=ALPHA, rho=RHO)
def test_accelerated_rate_certificates_property(seed, m, mu, alpha, rho):
    # with mu > 0, gen_qp floors the metric P as ``from_id`` ids get it
    entry = gen_qp(seed, m=m, mu=mu)
    problem = entry.problem
    params = SolverParams(mode="strong", alpha=alpha, rho=rho, tol=0.0,
                          max_outer=CERTIFICATE_SWEEPS)
    rep = solve(problem, params, ref=entry.reference)
    rows = strong_rows(rep)
    assert rows
    assert [r for r in rows if not r.passed] == []
    # at this horizon the rows would pass with a wrong theta or step length,
    # so the schedule and the multiplier step they rest on are pinned too:
    # rho_k = (k0 + k) theta with the paper's theta and k0 for the weights
    # of M, and one sweep from lam = 0 ends at lam = alpha rho_1 (A z_1 - b)
    M = BlockTriangular(rep.gammas, problem.ops())
    theta = alpha * problem.mu_total() / (8.0 * M.p_norm())
    k0 = 4.0 * M.scaled_p_norm() / (alpha * (1.0 - alpha))
    assert np.array_equal(rep.history.rho, (k0 + np.arange(1, CERTIFICATE_SWEEPS + 1)) * theta)
    one = solve(problem, dataclasses.replace(params, max_outer=1))
    step = alpha * one.history.rho[0] * problem.residual(one.z)
    assert np.allclose(one.lam, step, rtol=1e-9, atol=1e-12 * np.abs(step).max())


def _solve_bytes(problem, params, ref):
    """Every ``History`` array, ``Gammas``, the events and ``z``/``lam`` of one solve, as bytes."""
    rep = solve(problem, params, ref=ref)
    out = {f.name: pickle.dumps(getattr(rep.history, f.name))
           for f in dataclasses.fields(rep.history)}
    out["events"] = pickle.dumps(rep.events)
    out["z"], out["lam"] = rep.z.to_flat().tobytes(), rep.lam.tobytes()
    return out


@pytest.mark.parametrize("strong", [False, True])
@pytest.mark.parametrize("safeguard", [False, True])
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 3))
def test_qp_solve_is_bitwise_repeatable_property(seed, m, strong, safeguard):
    kw = dict(mode="strong" if strong else "convex", tol=0.0, max_outer=20,
              gamma_mode="safeguard" if safeguard else "power")
    if strong and safeguard:
        # strong mode runs on fixed weights
        with pytest.raises(ConfigError, match="gamma_mode"):
            SolverParams(**kw)
        return
    entry = gen_qp(seed, m=m, mu=0.5 if strong else 0.0)
    # a small starting weight makes the safeguard log events
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iadmm.outer, "GAMMA_INIT", 0.5)
        params = SolverParams(**kw)
        first = _solve_bytes(entry.problem, params, entry.reference)
        assert _solve_bytes(entry.problem, params, entry.reference) == first


def test_lasso_solve_is_bitwise_repeatable():
    entry = from_id("lasso-2")
    params = SolverParams(alpha=0.8, tol=0.0, max_outer=60)
    first = _solve_bytes(entry.problem, params, entry.reference)
    assert _solve_bytes(entry.problem, params, entry.reference) == first

