"""Smooth/nonsmooth term constructors and their proximal maps."""

import numpy as np
import pytest

from iadmm.blockspace import DenseMap
from iadmm.proxlib import (
    group_l2_prox,
    group_shrink,
    l1_prox,
    pair_groups,
    quadratic,
    quadratic_smooth,
    soft_threshold,
    zero_prox,
    zero_smooth,
)


def test_soft_threshold_grid():
    y = np.array([2.0, -2.0, 0.5, -0.5, 0.0])
    out = soft_threshold(y, 1.0)
    assert out == pytest.approx([1.0, -1.0, 0.0, 0.0, 0.0])
    assert soft_threshold(np.array([3.0]), 0.0) == pytest.approx([3.0])


def test_group_shrink_grid():
    groups = pair_groups(2)
    # first pair has norm 5 and shrinks to zero at t=5; second scales by 1/2
    y = np.array([3.0, 4.0, 6.0, 8.0])
    out = group_shrink(y, 5.0, groups)
    assert out == pytest.approx([0.0, 0.0, 3.0, 4.0])


def test_pair_groups_layout():
    g = pair_groups(3)
    assert g.shape == (3, 2)
    assert g.ravel().tolist() == [0, 1, 2, 3, 4, 5]


def _prox_cases():
    rng = np.random.default_rng(0x9E0)
    groups = pair_groups(3)
    return [
        (zero_prox(), lambda w: 0.0, 6),
        (l1_prox(0.7), lambda w: 0.7 * np.abs(w).sum(), 6),
        (group_l2_prox(0.4, groups),
         lambda w: 0.4 * sum(np.linalg.norm(w[g]) for g in groups), 6),
    ]


@pytest.mark.parametrize("term,value,dim", _prox_cases())
def test_prox_is_firmly_nonexpansive(term, value, dim):
    rng = np.random.default_rng(0xF1A)
    tau = 0.8
    for _ in range(100):
        y1 = 3.0 * rng.standard_normal(dim)
        y2 = 3.0 * rng.standard_normal(dim)
        p1 = term.prox(y1, tau)
        p2 = term.prox(y2, tau)
        gap = float((p1 - p2) @ (p1 - p2))
        assert gap <= float((p1 - p2) @ (y1 - y2)) + 1e-12


@pytest.mark.parametrize("term,value,dim", _prox_cases())
def test_prox_satisfies_subgradient_characterization(term, value, dim):
    # p = prox(y) iff h(w) >= h(p) + <(y-p)/tau, w-p> for all w
    rng = np.random.default_rng(0x5B6)
    tau = 0.6
    for _ in range(10):
        y = 2.0 * rng.standard_normal(dim)
        p = term.prox(y, tau)
        hp = value(p)
        assert np.isfinite(hp)
        for _ in range(50):
            w = 2.0 * rng.standard_normal(dim)
            hw = value(w)
            if not np.isfinite(hw):
                continue
            lhs = hw - hp - float((y - p) @ (w - p)) / tau
            assert lhs >= -1e-9 * (1.0 + abs(hw) + abs(hp))


def test_prox_values_match_term_value():
    groups = pair_groups(2)
    term = group_l2_prox(0.4, groups)
    w = np.array([3.0, 4.0, 0.0, 0.0])
    assert term.value(w) == pytest.approx(0.4 * 5.0)
    l1 = l1_prox(2.0)
    assert l1.value(np.array([1.0, -2.0])) == pytest.approx(6.0)
    assert zero_prox().is_zero


def _fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_quadratic_gradient_matches_finite_differences():
    rng = np.random.default_rng(0x0D1F)
    G = rng.standard_normal((5, 5))
    H = G.T @ G + 0.1 * np.eye(5)
    c = rng.standard_normal(5)
    term = quadratic(H, c, modulus=0.1)
    for _ in range(5):
        x = rng.standard_normal(5)
        g = term.grad(x)
        fd = _fd_grad(term.value, x)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


def test_quadratic_constants():
    H = np.diag([4.0, 1.0])
    term = quadratic(H, np.zeros(2), modulus=1.0)
    assert term.lipschitz == pytest.approx(4.0)
    assert term.modulus == 1.0
    assert term.hessian is not None and term.linear is not None


def test_quadratic_smooth_least_squares():
    rng = np.random.default_rng(0x15)
    F = rng.standard_normal((7, 4))
    f = rng.standard_normal(7)
    term = quadratic_smooth(DenseMap(F), f)
    x = rng.standard_normal(4)
    r = F @ x - f
    assert term.value(x) == pytest.approx(0.5 * float(r @ r))
    assert np.allclose(term.grad(x), F.T @ r, atol=1e-12)
    evs = np.linalg.eigvalsh(F.T @ F)
    assert term.lipschitz == pytest.approx(evs[-1], rel=1e-10)
    assert term.modulus == pytest.approx(max(evs[0], 0.0), abs=1e-10)


def test_quadratic_smooth_supplied_constants_skip_dense_work():
    rng = np.random.default_rng(0x16)
    F = rng.standard_normal((6, 3))
    f = rng.standard_normal(6)
    term = quadratic_smooth(DenseMap(F), f, lipschitz=10.0, modulus=0.5)
    assert term.lipschitz == 10.0 and term.modulus == 0.5
    assert term.hessian is None


def test_zero_smooth_is_flagged():
    term = zero_smooth()
    assert term.is_zero
    x = np.ones(4)
    assert term.value(x) == 0.0
    assert np.array_equal(term.grad(x), np.zeros(4))


def test_value_grad_is_bitwise_value_and_grad():
    # the fused evaluation must reproduce the separate calls exactly
    rng = np.random.default_rng(0xF5)
    G = rng.standard_normal((7, 5))
    terms = [
        quadratic(G.T @ G, rng.standard_normal(5)),
        quadratic_smooth(DenseMap(G), rng.standard_normal(7)),
        zero_smooth(),
    ]
    for term in terms:
        for _ in range(5):
            x = rng.standard_normal(5)
            f, g = term.value_grad(x)
            assert np.float64(f).tobytes() == np.float64(term.value(x)).tobytes()
            assert g.tobytes() == term.grad(x).tobytes()
