"""Problem corpus: generators, ids, caching, and the imaging model."""

import dataclasses
import hashlib

import numpy as np
import pytest

import iadmm.outer
import iadmm.problems
from iadmm.blockspace import Grad2D, HaarMap
from iadmm.errors import ConfigError
from iadmm.outer import SolverParams, solve
from iadmm.problems import (
    SeparableBlur,
    from_id,
    gaussian_kernel,
    gen_imaging,
    gen_lasso,
    gen_qp,
)


def _fingerprint(entry):
    """SHA-256 over an entry's raw generated arrays (regeneration-stable)."""
    h = hashlib.sha256()
    for key in sorted(entry.data):
        h.update(key.encode())
        h.update(np.ascontiguousarray(entry.data[key], dtype=np.float64).tobytes())
    return h.hexdigest()


def test_qp_feasible_rhs_and_tags():
    for seed, m in ((80, 2), (81, 3)):
        entry = gen_qp(seed, m=m)
        assert entry.problem.m == m
        assert "qp" in entry.tags and "convex" in entry.tags
        # b was built from a feasible point, so the reference must satisfy it
        assert np.linalg.norm(
            entry.problem.residual(entry.reference.x_star)) <= 1e-8


def test_qp_determinism_and_id():
    a = gen_qp(82, m=2)
    b = gen_qp(82, m=2)
    assert _fingerprint(a) == _fingerprint(b)
    assert a.id == "qp-82-m2"
    c = gen_qp(83, m=2)
    assert _fingerprint(c) != _fingerprint(a)


def test_qp_strong_variant_moduli_and_scaling():
    entry = gen_qp(84, m=2, mu=0.5)
    assert entry.id == "qp-84-m2-mu0.5"
    assert "strongly-convex" in entry.tags
    assert entry.problem.mu_total() == pytest.approx(0.5)
    # every block carries the requested modulus on its smooth part
    for blk in entry.problem.blocks:
        H = blk.smooth.hessian
        assert np.linalg.eigvalsh(H)[0] >= 0.5 - 1e-10


def test_strong_qp_ids_apply_the_p_floor():
    # gen_qp rescales strongly convex QPs so that P has smallest eigenvalue
    # at least P_FLOOR = 1.25; qp-1 needs it, qp-2 already meets it, and a
    # convex draw is never rescaled
    assert from_id("qp-1-m2-mu0.5").extras["scale"] == 1.1185679454985609
    assert from_id("qp-2-m2-mu0.5").extras["scale"] == 1.0
    assert from_id("qp-1-m2").extras["scale"] == 1.0


@pytest.mark.parametrize("mu", [-1.0, float("inf"), float("nan")])
def test_gen_qp_rejects_bad_mu(mu):
    # G^T G + mu I is only a valid Hessian with modulus mu for finite mu >= 0
    with pytest.raises(ConfigError, match="mu"):
        gen_qp(1, m=2, mu=mu)


def test_qp_reference_certified():
    entry = gen_qp(85, m=3)
    assert entry.reference.kkt <= 1e-9


def test_lasso_generator_and_reference():
    entry = gen_lasso(1)
    assert entry.id == "lasso-1"
    assert "polyhedral" in entry.tags
    # first block carries the data term, the rest are pure l1
    assert entry.problem.blocks[0].smooth.lipschitz > 0.0
    for blk in entry.problem.blocks[1:]:
        assert blk.smooth.is_zero
    assert entry.reference.kkt <= 1e-9


@pytest.mark.parametrize("cause", ["stalled", "max-iterations"])
def test_lasso_refuses_an_unconverged_reference(cause, monkeypatch):
    real = iadmm.outer.solve

    def short_solve(problem, params):
        rep = real(problem, dataclasses.replace(params, max_outer=3))
        return dataclasses.replace(rep, cause=cause)

    monkeypatch.setattr(iadmm.outer, "solve", short_solve)
    with pytest.raises(ConfigError, match="lasso-1 stopped as %s$" % cause):
        gen_lasso(1)


def _exact_run(entry):
    # the run that built every lasso reference before the face solve
    params = SolverParams(mode="exact", rho=1.0, alpha=0.9, tol=1e-12,
                          max_outer=200_000, exact_tol=1e-13)
    return solve(entry.problem, params)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_lasso_reference_is_a_face_solve_near_the_exact_run(seed):
    entry = gen_lasso(seed)
    ref = entry.reference
    assert ref.source == "face-solve"
    assert ref.kkt <= 1e-13
    report = _exact_run(entry)
    assert report.cause == "tolerance"
    assert np.max(np.abs(ref.x_star.to_flat() - report.z.to_flat())) <= 1e-10
    assert np.max(np.abs(ref.lam_star - report.lam)) <= 1e-10


def test_lasso_reference_falls_back_to_the_exact_run(monkeypatch):
    # at 1e-3 the coarse run guesses lasso-2's face wrong (KKT about 1.7e-3),
    # so the reference is the cold exact-mode run, bit for bit
    monkeypatch.setattr(iadmm.problems, "LASSO_FACE_TOL", 1e-3)
    entry = gen_lasso(2)
    ref = entry.reference
    assert ref.source == "exact-mode-run"
    assert ref.kkt <= 1e-9
    report = _exact_run(entry)
    assert ref.x_star.to_flat().tobytes() == report.z.to_flat().tobytes()
    assert ref.lam_star.tobytes() == np.asarray(report.lam, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", [-1, 1.5, "1", True])
@pytest.mark.parametrize("gen", [gen_qp, gen_lasso, lambda seed: gen_imaging(seed, side=16)],
                         ids=["qp", "lasso", "imaging"])
def test_generators_refuse_a_seed_that_is_no_count(gen, seed):
    # -1 used to raise numpy's bare ValueError; the rest built seed 1's data
    with pytest.raises(ConfigError, match="seed"):
        gen(seed)


@pytest.mark.parametrize("m", [0, 1.5, "2", True])
def test_gen_qp_refuses_a_block_count_that_is_no_count(m):
    # 1.5 used to build one block, "2" two
    with pytest.raises(ConfigError, match="m must be"):
        gen_qp(1, m=m)


@pytest.mark.parametrize("side", [16.0, "16", True])
def test_gen_imaging_refuses_a_side_that_is_no_count(side):
    with pytest.raises(ConfigError, match="side"):
        gen_imaging(0, side=side)


def test_imaging_structure():
    entry = gen_imaging(0, side=16)
    problem = entry.problem
    n = 16 * 16
    assert problem.m == 3
    assert problem.dims == (n, 2 * n, n)
    assert problem.rhs_dim == 3 * n
    assert np.all(problem.b == 0.0)
    assert "imaging" in entry.tags and "three-block" in entry.tags


def test_imaging_feasibility_of_lifted_point():
    # (u, Bu, Psi^T u) satisfies the coupling constraints by construction
    entry = gen_imaging(1, side=16)
    problem = entry.problem
    u = entry.data["u_true"].ravel()
    B = Grad2D(16)
    Psi = HaarMap(16)
    from iadmm.blockspace import BlockVector

    x = BlockVector([u, B.apply(u), Psi.apply(u)])
    assert np.linalg.norm(problem.residual(x)) <= 1e-12


def test_imaging_objective_at_truth():
    entry = gen_imaging(2, side=16, tv_weight=1e-2, l1_weight=1e-3)
    problem = entry.problem
    u = entry.data["u_true"].ravel()
    F = SeparableBlur(16, entry.data["kernel"])
    f = entry.data["f"]
    B = Grad2D(16)
    Psi = HaarMap(16)
    from iadmm.blockspace import BlockVector

    x = BlockVector([u, B.apply(u), Psi.apply(u)])
    r = F.apply(u) - f
    g = B.apply(u).reshape(-1, 2)
    expected = (0.5 * float(r @ r)
                + 1e-2 * float(np.linalg.norm(g, axis=1).sum())
                + 1e-3 * float(np.abs(Psi.apply(u)).sum()))
    assert problem.objective(x) == pytest.approx(expected, rel=1e-12)


def test_imaging_zero_weights_reduce_to_least_squares():
    # with both regularizers off, the solve must reproduce the dense
    # normal-equations deblur (narrow kernel keeps this well conditioned)
    entry = gen_imaging(5, side=16, tv_weight=0.0, l1_weight=0.0,
                        blur_sigma=0.5, blur_radius=1)
    F = SeparableBlur(16, entry.data["kernel"])
    f = entry.data["f"]
    Fd = F.to_dense()
    u_star = np.linalg.solve(Fd.T @ Fd, Fd.T @ f)
    params = SolverParams(mode="convex", rule="adaptive", rho=1.0, alpha=0.9,
                          tol=1e-8, max_outer=60000)
    report = solve(entry.problem, params)
    assert report.cause == "tolerance"
    assert np.linalg.norm(report.z.blocks[0] - u_star) <= 1e-6


def test_imaging_side_validation():
    with pytest.raises(ConfigError):
        gen_imaging(0, side=12)
    with pytest.raises(ConfigError):
        gen_imaging(0, side=8)


def test_separable_blur_matches_kron_toeplitz():
    kern = gaussian_kernel(0.8, 2)
    side, r = 8, 2
    blur = SeparableBlur(side, kern)
    rng = np.random.default_rng(0xB1)
    T = blur.T
    for i in range(side):
        for j in range(side):
            assert T[i, j] == (kern[j - i + r] if abs(j - i) <= r else 0.0)
    D = blur.to_dense()
    assert np.allclose(D, np.kron(T, T), atol=1e-14)
    for _ in range(10):
        u = rng.standard_normal(side * side)
        assert np.allclose(blur.apply(u), D @ u, atol=1e-12)
        # zero-padded 1-d convolution along each axis, independent of T
        U = u.reshape(side, side)
        rows = np.array([np.convolve(row, kern, mode="same") for row in U])
        both = np.array([np.convolve(col, kern, mode="same") for col in rows.T]).T
        assert np.allclose(blur.apply(u), both.reshape(-1), atol=1e-12)
    # self-adjoint by symmetry of the kernel
    v = rng.standard_normal(64)
    u = rng.standard_normal(64)
    assert float(v @ blur.apply(u)) == pytest.approx(
        float(blur.adjoint(v) @ u), rel=1e-12)


def test_gaussian_kernel_properties():
    k = gaussian_kernel(0.8, 2)
    assert k.size == 5
    assert k.sum() == pytest.approx(1.0)
    assert np.all(k == k[::-1])
    with pytest.raises(ConfigError):
        SeparableBlur(8, np.array([0.5, 0.5]))  # even length


@pytest.mark.parametrize("kernel, match", [
    # off by 1e-9 the factor ``T`` is no longer symmetric, so ``adjoint``
    # would not be the exact adjoint of ``apply``
    ([0.25, 0.5, 0.25 + 1e-9], "symmetric"),
    ([0.25, np.nan, 0.25], "finite"),
    ([np.inf, 0.5, np.inf], "finite"),
])
def test_separable_blur_rejects_inexact_or_nonfinite_kernels(kernel, match):
    with pytest.raises(ConfigError, match=match):
        SeparableBlur(8, np.array(kernel))


def test_gaussian_kernel_rejects_nan_sigma():
    with pytest.raises(ConfigError, match="sigma"):
        gaussian_kernel(np.nan, 2)


@pytest.mark.parametrize("side", [-3, 0, 2.5, True])
def test_separable_blur_rejects_bad_side(side):
    # these used to fail inside ``np.eye``, build an empty map, or truncate
    with pytest.raises(ConfigError, match="side"):
        SeparableBlur(side, gaussian_kernel())


def test_from_id_parses_and_rejects():
    assert from_id("qp-7-m3").id == "qp-7-m3"
    assert from_id("qp-7-m2-mu0.5").id == "qp-7-m2-mu0.5"
    assert from_id("lasso-3").id == "lasso-3"
    assert from_id("img-0-s16").id == "img-0-s16"
    for bad in ("qp-7", "qp-x-m2", "img-0-s12", "nope-1", ""):
        with pytest.raises(ConfigError):
            from_id(bad)


def test_from_id_matches_direct_generation():
    a = from_id("qp-9-m2")
    b = gen_qp(9, m=2)
    assert _fingerprint(a) == _fingerprint(b)
