"""Linear-operator layer: block vectors, adjoints, the triangular factor."""

import re

import numpy as np
import pytest

import iadmm.blockspace
from iadmm.blockspace import (
    BlockTriangular,
    BlockVector,
    DenseMap,
    Grad2D,
    HaarMap,
    ScaledIdentity,
    VStack,
    ZeroMap,
    spectral_norm,
)
from iadmm.errors import ConfigError, NumericError, StructuralError
from iadmm.problems import SeparableBlur, gaussian_kernel

RNG = np.random.default_rng(0xB10C)


def _adjoint_gap(op, rng, pairs=100):
    worst = 0.0
    for _ in range(pairs):
        u = rng.standard_normal(op.cols)
        v = rng.standard_normal(op.rows)
        lhs = float(v @ op.apply(u))
        rhs = float(op.adjoint(v) @ u)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return worst


def test_block_vector_algebra():
    x = BlockVector.from_flat(np.arange(5.0), (2, 3))
    y = BlockVector.from_flat(np.ones(5), (2, 3))
    assert x.dims == (2, 3)
    assert np.allclose((x + y).to_flat(), np.arange(5.0) + 1)
    assert np.allclose((x - y).to_flat(), np.arange(5.0) - 1)
    assert np.allclose((x * 2.0).to_flat(), 2 * np.arange(5.0))
    assert x.norm_sq() == pytest.approx(np.sum(np.arange(5.0) ** 2))
    z = x.copy()
    z.blocks[0][0] = 99.0
    assert x.blocks[0][0] == 0.0


def test_block_vector_zeros_and_len():
    z = BlockVector.zeros((4, 1, 3))
    assert z.dims == (4, 1, 3) and z.norm() == 0.0


@pytest.mark.parametrize("op", [
    DenseMap(RNG.standard_normal((7, 5))),
    ScaledIdentity(6, 1.0),
    ScaledIdentity(6, -1.0),
    ScaledIdentity(6, 0.37),
    ZeroMap(4, 9),
    Grad2D(8),
    HaarMap(16),
    VStack([Grad2D(8), HaarMap(8, levels=3)]),
])
def test_adjoint_identity(op):
    rng = np.random.default_rng(0xAD01)
    assert _adjoint_gap(op, rng) <= 1e-10


@pytest.mark.parametrize("op", [
    DenseMap(RNG.standard_normal((7, 5))),
    Grad2D(4),
    HaarMap(8, levels=2),
    VStack([ScaledIdentity(6, -1.0), ZeroMap(3, 6)]),
])
def test_to_dense_matches_apply(op):
    rng = np.random.default_rng(3)
    D = op.to_dense()
    for _ in range(10):
        u = rng.standard_normal(op.cols)
        assert np.allclose(op.apply(u), D @ u, atol=1e-12)
        v = rng.standard_normal(op.rows)
        assert np.allclose(op.adjoint(v), D.T @ v, atol=1e-12)


def test_haar_orthonormal():
    op = HaarMap(16)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(op.cols)
    w = rng.standard_normal(op.rows)
    assert np.linalg.norm(op.adjoint(op.apply(x)) - x) <= 1e-12
    assert np.linalg.norm(op.apply(op.adjoint(w)) - w) <= 1e-12
    # analysis preserves the norm exactly up to rounding
    assert np.linalg.norm(op.apply(x)) == pytest.approx(np.linalg.norm(x))


def test_haar_coefficient_layout():
    # the coarse average sits top left; each level's detail bands fill the
    # right half, bottom half and bottom-right quarter of its corner
    assert np.allclose(HaarMap(2, 1).apply(np.array([1.0, 2.0, 3.0, 4.0])),
                       [5.0, -1.0, -2.0, 0.0], rtol=0.0, atol=1e-12)
    expected = [[30.0, -4.0, -1.0, -1.0],
                [-16.0, 0.0, -1.0, -1.0],
                [-4.0, -4.0, 0.0, 0.0],
                [-4.0, -4.0, 0.0, 0.0]]
    assert np.allclose(HaarMap(4, 2).apply(np.arange(16.0)).reshape(4, 4), expected,
                       rtol=0.0, atol=1e-12)


def test_haar_constant_image_collapses():
    side, levels = 16, 4
    op = HaarMap(side, levels=levels)
    w = op.apply(np.ones(side * side))
    # one nonzero coefficient: the coarsest average, value side (= sqrt(n))
    nz = np.nonzero(np.abs(w) > 1e-12)[0]
    assert nz.size == 1
    assert w[nz[0]] == pytest.approx(float(side))


def test_grad2d_shapes_and_kernel():
    side = 4
    op = Grad2D(side)
    assert op.rows == 2 * side * side and op.cols == side * side
    # constant images are in the kernel
    assert np.linalg.norm(op.apply(np.ones(side * side))) == 0.0
    # a single horizontal step produces one horizontal difference per row
    img = np.zeros((side, side))
    img[:, 2:] = 1.0
    g = op.apply(img.ravel()).reshape(side * side, 2)
    assert np.count_nonzero(g[:, 0]) == side
    assert np.count_nonzero(g[:, 1]) == 0


def test_dimension_checks():
    op = DenseMap(np.ones((3, 2)))
    with pytest.raises(StructuralError):
        op.apply(np.ones(3))
    with pytest.raises(StructuralError):
        op.adjoint(np.ones(2))
    with pytest.raises(ConfigError):
        HaarMap(12)
    with pytest.raises(ConfigError):
        VStack([DenseMap(np.ones((2, 3))), DenseMap(np.ones((2, 4)))])


class _Subclass(np.ndarray):
    pass


def _every_kind():
    return {
        "dense": DenseMap(RNG.standard_normal((7, 5))),
        "identity": ScaledIdentity(6, 1.0),
        "negated-identity": ScaledIdentity(6, -1.0),
        "scaled-identity": ScaledIdentity(6, 0.37),
        "zero": ZeroMap(4, 9),
        "finite-difference-2d": Grad2D(4),
        "orthonormal-wavelet": HaarMap(8, levels=2),
        "vertical-stack": VStack([Grad2D(4), HaarMap(4, levels=1)]),
        "separable-blur": SeparableBlur(4, gaussian_kernel()),
    }


KINDS = _every_kind()


def _methods(op):
    return ((op.apply, op.cols), (op.adjoint, op.rows))


@pytest.mark.parametrize("op", KINDS.values(), ids=KINDS.keys())
def test_results_are_fresh_arrays(op):
    # the contract callers rely on when they overwrite a result in place
    rng = np.random.default_rng(5)
    for method, n in _methods(op):
        x = rng.standard_normal(n)
        keep = x.copy()
        first, second = method(x), method(x)
        assert not np.shares_memory(first, x)
        assert not np.shares_memory(first, second)
        first[:] = np.nan
        assert np.array_equal(x, keep) and np.array_equal(method(x), second)


@pytest.mark.parametrize("op", KINDS.values(), ids=KINDS.keys())
def test_inputs_off_the_fast_path_convert_or_raise(op):
    # only a C-contiguous 1-d float64 ndarray of the right size skips the
    # input checks; every other input is converted to float64 or refused as before
    for (method, n), what in zip(_methods(op), ("input", "adjoint input")):
        x = np.arange(n, dtype=np.float64) - 1.5
        want = method(x).tobytes()
        for other in (x.tolist(), x.astype(np.float32), x.astype(">f8"), x.view(_Subclass)):
            assert method(other).tobytes() == want
        ints = np.arange(n) - 2
        assert method(ints).tobytes() == method(ints.astype(np.float64)).tobytes()
        with pytest.raises(StructuralError,
                           match=re.escape("expected a 1-d vector, got shape (1, %d)" % n)):
            method(x[None, :])
        with pytest.raises(StructuralError, match="^%s: %s has size %d, expected %d$"
                           % (re.escape(op.kind), what, n + 1, n)):
            method(np.zeros(n + 1))


@pytest.mark.parametrize("op", KINDS.values(), ids=KINDS.keys())
def test_strided_views_give_the_bits_of_a_contiguous_copy(op):
    # only a C-contiguous array skips the copy, so no result depends on
    # memory layout (BLAS takes another path for a strided operand)
    rng = np.random.default_rng(9)
    for method, n in _methods(op):
        x = np.repeat(rng.standard_normal(n), 2)[::2]
        assert not x.flags.c_contiguous
        assert method(x).tobytes() == method(x.copy()).tobytes()


def test_spectral_norm_against_dense():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rng.standard_normal((20, 20))
        truth = np.linalg.norm(A, 2)
        est = spectral_norm(DenseMap(A))
        assert est == pytest.approx(truth, rel=1e-6)


def test_spectral_norm_cap_raises_with_best(monkeypatch):
    monkeypatch.setattr(iadmm.blockspace, "POWER_TOL", 0.0)
    monkeypatch.setattr(iadmm.blockspace, "POWER_MAX_ITERS", 3)
    A = np.diag([1.0, 0.999999])
    with pytest.raises(NumericError, match="within 3 sweeps") as info:
        spectral_norm(DenseMap(A))
    assert info.value.best is not None


def _dense_m(gammas, mats):
    dims = [m.shape[1] for m in mats]
    offs = np.cumsum([0] + dims)
    n = offs[-1]
    M = np.zeros((n, n))
    for i in range(len(mats)):
        M[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = gammas[i] * np.eye(dims[i])
        for j in range(i):
            M[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = mats[i].T @ mats[j]
    return M


def test_triangular_apply_matches_dense():
    rng = np.random.default_rng(23)
    mats = [rng.standard_normal((6, d)) for d in (3, 4, 2)]
    gammas = [2.0, 1.5, 3.0]
    tri = BlockTriangular(gammas, [DenseMap(m) for m in mats])
    Md = _dense_m(gammas, mats)
    assert np.array_equal(tri.to_dense(), Md)
    for _ in range(20):
        w = rng.standard_normal(9)
        wb = BlockVector.from_flat(w, (3, 4, 2))
        assert np.allclose(tri.apply_mt(wb).to_flat(), Md.T @ w, atol=1e-12)


def test_back_substitution_solves_triangular_system():
    rng = np.random.default_rng(29)
    mats = [rng.standard_normal((5, d)) for d in (4, 3)]
    gammas = [1.7, 2.4]
    tri = BlockTriangular(gammas, [DenseMap(m) for m in mats])
    alpha = 0.6
    for _ in range(25):
        y = BlockVector.from_flat(rng.standard_normal(7), (4, 3))
        z = BlockVector.from_flat(rng.standard_normal(7), (4, 3))
        d = tri.back_substitute(y, z, alpha) - y
        target = (z - y) * alpha
        for i, g in enumerate(gammas):
            target.blocks[i] = g * target.blocks[i]
        resid = (tri.apply_mt(d) - target).norm()
        assert resid <= 1e-10 * (1.0 + target.norm())


def test_back_substitution_worked_example():
    # two scalar blocks, A1 = A2 = [1], gammas = 2, alpha = 1/2,
    # z - y = (2, 2): bottom row gives d2 = 1, then
    # 2 d1 + (A1^T A2) d2 = alpha*2*2 = 2 so d1 = 1/2.
    tri = BlockTriangular([2.0, 2.0],
                          [DenseMap(np.array([[1.0]])), DenseMap(np.array([[1.0]]))])
    y = BlockVector.from_flat(np.zeros(2), (1, 1))
    z = BlockVector.from_flat(np.array([2.0, 2.0]), (1, 1))
    y_new = tri.back_substitute(y, z, 0.5)
    assert y_new.to_flat() == pytest.approx([0.5, 1.0])


def test_p_norm_matches_dense_oracle():
    rng = np.random.default_rng(31)
    mats = [rng.standard_normal((6, d)) for d in (3, 4, 2)]
    gammas = [2.0, 1.5, 3.0]
    tri = BlockTriangular(gammas, [DenseMap(m) for m in mats])
    Md = _dense_m(gammas, mats)
    Pd = Md @ np.diag(np.repeat(1.0 / np.array(gammas), [3, 4, 2])) @ Md.T
    for _ in range(20):
        w = rng.standard_normal(9)
        wb = BlockVector.from_flat(w, (3, 4, 2))
        truth = float(w @ (Pd @ w))
        assert tri.p_norm_sq(wb) == pytest.approx(truth, abs=1e-10 * (1 + truth))
    assert tri.p_norm() == pytest.approx(np.linalg.norm(Pd, 2), rel=1e-12)
    Qih = np.diag(np.repeat(1.0 / np.sqrt(np.array(gammas)), [3, 4, 2]))
    assert tri.scaled_p_norm() == pytest.approx(
        np.linalg.norm(Qih @ Pd @ Qih, 2), rel=1e-12)


def test_triangular_rejects_bad_gammas():
    with pytest.raises(ConfigError):
        BlockTriangular([1.0, 0.0], [DenseMap(np.ones((2, 1)))] * 2)
    with pytest.raises(ConfigError):
        BlockTriangular([1.0, -2.0], [DenseMap(np.ones((2, 1)))] * 2)

