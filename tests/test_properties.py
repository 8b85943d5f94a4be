"""Property tests: prox maps, operator adjoints and back substitution.

Hypothesis draws the shapes and entries; ``derandomize=True`` fixes the
examples it draws, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iadmm.blockspace import (BlockTriangular, BlockVector, DenseMap, ScaledIdentity, VStack,
                              ZeroMap)
from iadmm.proxlib import group_l2_prox, l1_prox, pair_groups, zero_prox

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)

ENTRY = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
POSITIVE = st.floats(0.05, 5.0)


def _vector(n):
    return hnp.arrays(np.float64, n, elements=ENTRY)


def _matrix(rows, cols):
    return hnp.arrays(np.float64, (rows, cols),
                      elements=st.floats(-2.0, 2.0, allow_subnormal=False))


def _prox_and_dual_projection(kind, weight, n_pairs):
    """A prox term and the projection onto the ``tau * weight`` ball of its dual norm."""
    if kind == "l1":
        return l1_prox(weight), lambda y, tau: np.clip(y, -tau * weight, tau * weight)
    if kind == "group":
        groups = pair_groups(n_pairs)

        def project(y, tau):
            g = y.reshape(-1, 2)
            norms = np.sqrt(np.sum(g * g, axis=1))
            scale = np.minimum(1.0, tau * weight / np.maximum(norms, 1e-300))
            return (g * scale[:, None]).reshape(-1)

        return group_l2_prox(weight, groups), project
    # the zero function is the support function of {0}
    return zero_prox(), lambda y, tau: np.zeros_like(y)


PROX_KINDS = st.sampled_from(["l1", "group", "zero"])


@SETTINGS
@given(kind=PROX_KINDS, weight=POSITIVE, tau=POSITIVE, data=st.data())
def test_prox_is_firmly_nonexpansive_property(kind, weight, tau, data):
    n_pairs = data.draw(st.integers(1, 4))
    y1 = data.draw(_vector(2 * n_pairs))
    y2 = data.draw(_vector(2 * n_pairs))
    term, _ = _prox_and_dual_projection(kind, weight, n_pairs)
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
    term, project = _prox_and_dual_projection(kind, weight, n_pairs)
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
