"""Block vectors, structured linear operators, and the triangular step system.

The solver splits the variable into ``m`` blocks coupled only through the
linear constraint ``sum_i A_i x_i = b``.  This module provides the
block-vector container, a small zoo of matrix-free linear operators with
exact adjoints, the block lower-triangular matrix ``M`` used by the
corrective back-substitution step, and deterministic power-iteration
spectral-norm estimation.

``M`` has diagonal blocks ``gamma_i * I`` and subdiagonal blocks
``A_i^T A_j`` (j < i).  The solver never forms it densely: products with
``M`` and ``M^T``, the solve against ``M^T``, and norms in the induced
metric ``P = M Q^{-1} M^T`` (with ``Q = diag(gamma_i I)``) are all
evaluated block by block with ``O(m)`` operator applications.  Its one
dense assembly, ``BlockTriangular.to_dense``, serves desk-scale
generators and checks.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError, StructuralError

POWER_SEED = 0x5EED


def _vec(v):
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise StructuralError("expected a 1-d vector, got shape %s" % (a.shape,))
    return a


class BlockVector:
    """A real vector partitioned into ``m`` dense blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = [np.array(b, dtype=np.float64).reshape(-1) for b in blocks]

    @classmethod
    def _wrap(cls, blocks):
        # internal constructor that trusts and does not copy its inputs
        bv = object.__new__(cls)
        bv.blocks = list(blocks)
        return bv

    @classmethod
    def zeros(cls, dims):
        return cls._wrap([np.zeros(int(d)) for d in dims])

    @classmethod
    def from_flat(cls, flat, dims):
        flat = _vec(flat)
        dims = [int(d) for d in dims]
        if flat.size != sum(dims):
            raise StructuralError("flat vector of size %d cannot be split into %s" % (flat.size, dims))
        out, k = [], 0
        for d in dims:
            out.append(flat[k:k + d].copy())
            k += d
        return cls._wrap(out)

    @property
    def dims(self):
        return tuple(b.size for b in self.blocks)

    def copy(self):
        return BlockVector._wrap([b.copy() for b in self.blocks])

    def to_flat(self):
        return np.concatenate(self.blocks) if self.blocks else np.zeros(0)

    def norm_sq(self):
        return float(sum(float(b @ b) for b in self.blocks))

    def norm(self):
        return float(np.sqrt(self.norm_sq()))

    def _check_like(self, other):
        if not isinstance(other, BlockVector) or other.dims != self.dims:
            raise StructuralError("block structure mismatch")

    def __add__(self, other):
        self._check_like(other)
        return BlockVector._wrap([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check_like(other)
        return BlockVector._wrap([a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, c):
        c = float(c)
        return BlockVector._wrap([c * b for b in self.blocks])

    __rmul__ = __mul__

    def __repr__(self):
        return "BlockVector(dims=%s)" % (self.dims,)


class LinearMap:
    """Abstract linear operator with an exact adjoint.

    Subclasses set ``rows``/``cols`` and implement ``apply`` (forward
    product) and ``adjoint`` (transpose product).  ``to_dense`` is a
    generic fallback used by desk-scale oracles and tests.
    """

    kind = "abstract"
    rows = 0
    cols = 0

    def apply(self, x):
        raise NotImplementedError

    def adjoint(self, w):
        raise NotImplementedError

    def to_dense(self):
        out = np.empty((self.rows, self.cols))
        e = np.zeros(self.cols)
        for j in range(self.cols):
            e[j] = 1.0
            out[:, j] = self.apply(e)
            e[j] = 0.0
        return out

    def _check_in(self, x):
        x = _vec(x)
        if x.size != self.cols:
            raise StructuralError("%s: input has size %d, expected %d" % (self.kind, x.size, self.cols))
        return x

    def _check_out(self, w):
        w = _vec(w)
        if w.size != self.rows:
            raise StructuralError("%s: adjoint input has size %d, expected %d" % (self.kind, w.size, self.rows))
        return w

    def __repr__(self):
        return "%s(%d x %d, kind=%s)" % (type(self).__name__, self.rows, self.cols, self.kind)


class DenseMap(LinearMap):
    """Operator backed by an explicit dense matrix."""

    kind = "dense"

    def __init__(self, mat):
        mat = np.array(mat, dtype=np.float64)
        if mat.ndim != 2:
            raise StructuralError("dense operator needs a 2-d matrix")
        self.mat = mat
        self.rows, self.cols = mat.shape

    def apply(self, x):
        return self.mat.dot(self._check_in(x))

    def adjoint(self, w):
        return self.mat.T.dot(self._check_out(w))

    def to_dense(self):
        return self.mat.copy()


class ScaledIdentity(LinearMap):
    """``c * I`` on R^n; covers the identity and negated-identity blocks."""

    def __init__(self, n, scale=1.0):
        n = int(n)
        if n <= 0:
            raise ConfigError("identity dimension must be positive")
        self.rows = self.cols = n
        self.scale = float(scale)
        if self.scale == 1.0:
            self.kind = "identity"
        elif self.scale == -1.0:
            self.kind = "negated-identity"
        else:
            self.kind = "scaled-identity"

    def apply(self, x):
        return self.scale * self._check_in(x)

    def adjoint(self, w):
        return self.scale * self._check_out(w)

    def to_dense(self):
        return self.scale * np.eye(self.rows)


class ZeroMap(LinearMap):
    """The all-zero operator."""

    kind = "zero"

    def __init__(self, rows, cols):
        self.rows, self.cols = int(rows), int(cols)
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigError("zero operator needs positive dimensions")

    def apply(self, x):
        self._check_in(x)
        return np.zeros(self.rows)

    def adjoint(self, w):
        self._check_out(w)
        return np.zeros(self.cols)

    def to_dense(self):
        return np.zeros((self.rows, self.cols))


class Grad2D(LinearMap):
    """Forward-difference gradient of a square image with zero boundary rows.

    Input is a flattened ``side x side`` image (row-major).  Output
    interleaves the two difference directions per pixel: entry ``2p`` is
    the horizontal difference at pixel ``p`` and entry ``2p + 1`` the
    vertical one.  Differences that would leave the grid are fixed to
    zero, so constant images (and only those) are in the kernel.
    """

    kind = "finite-difference-2d"

    def __init__(self, side):
        side = int(side)
        if side < 2:
            raise ConfigError("image side must be at least 2")
        self.side = side
        self.cols = side * side
        self.rows = 2 * self.cols

    def apply(self, x):
        s = self.side
        u = self._check_in(x).reshape(s, s)
        dh = np.zeros((s, s))
        dv = np.zeros((s, s))
        dh[:, :-1] = u[:, 1:] - u[:, :-1]
        dv[:-1, :] = u[1:, :] - u[:-1, :]
        out = np.empty((s, s, 2))
        out[:, :, 0] = dh
        out[:, :, 1] = dv
        return out.reshape(-1)

    def adjoint(self, w):
        s = self.side
        w = self._check_out(w).reshape(s, s, 2)
        dh = w[:, :, 0]
        dv = w[:, :, 1]
        out = np.zeros((s, s))
        # horizontal differences: u[i, j] gets -dh[i, j] and +dh[i, j-1]
        out[:, :-1] -= dh[:, :-1]
        out[:, 1:] += dh[:, :-1]
        # vertical differences: u[i, j] gets -dv[i, j] and +dv[i-1, j]
        out[:-1, :] -= dv[:-1, :]
        out[1:, :] += dv[:-1, :]
        return out.reshape(-1)


class HaarMap(LinearMap):
    """Orthonormal multi-level 2-d Haar analysis transform.

    ``apply`` maps a flattened square image to its wavelet coefficients:
    level by level toward the coarse end, the low-pass corner ``C`` of
    side ``k`` becomes ``W C W^T`` for that level's orthonormal ``k x k``
    factor ``W``.  ``adjoint``, the synthesis transform, undoes the levels
    in reverse order with ``W^T C W``.  The transform is orthogonal,
    so ``apply(adjoint(w)) == w`` and ``adjoint(apply(u)) == u`` up to
    rounding.  The image side must be a power of two with at least
    ``2**levels`` pixels per side.
    """

    kind = "orthonormal-wavelet"

    def __init__(self, side, levels=4):
        side = int(side)
        levels = int(levels)
        if side < 2 or side & (side - 1):
            raise ConfigError("wavelet transform needs a power-of-two side, got %d" % side)
        if levels < 1 or side >> levels < 1:
            raise ConfigError("cannot run %d levels on side %d" % (levels, side))
        self.side = side
        self.rows = self.cols = side * side
        # the factors, finest first: pair sums over sqrt(2) on top, pair
        # differences over sqrt(2) below
        self.factors = []
        for k in (side >> lev for lev in range(levels)):
            lift = np.kron(np.eye(k // 2), [[1.0, 1.0], [1.0, -1.0]])
            self.factors.append(np.vstack([lift[0::2], lift[1::2]]) / np.sqrt(2.0))

    def apply(self, x):
        X = self._check_in(x).reshape(self.side, self.side).copy()
        for W in self.factors:
            k = W.shape[0]
            X[:k, :k] = W @ X[:k, :k] @ W.T
        return X.reshape(-1)

    def adjoint(self, w):
        X = self._check_out(w).reshape(self.side, self.side).copy()
        for W in reversed(self.factors):
            k = W.shape[0]
            X[:k, :k] = W.T @ X[:k, :k] @ W
        return X.reshape(-1)


class VStack(LinearMap):
    """Vertical stack ``[F_1; F_2; ...]`` of operators sharing a domain."""

    kind = "vertical-stack"

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ConfigError("vertical stack needs at least one part")
        cols = parts[0].cols
        if any(p.cols != cols for p in parts):
            raise ConfigError("vertical stack parts must share their column count")
        self.parts = parts
        self.cols = cols
        self.rows = sum(p.rows for p in parts)

    def apply(self, x):
        x = self._check_in(x)
        return np.concatenate([p.apply(x) for p in self.parts])

    def adjoint(self, w):
        w = self._check_out(w)
        out = np.zeros(self.cols)
        k = 0
        for p in self.parts:
            out += p.adjoint(w[k:k + p.rows])
            k += p.rows
        return out


class _SymmetricCallable(LinearMap):
    """Wrap a self-adjoint callable on R^n as a LinearMap (for norms)."""

    kind = "symmetric-callable"

    def __init__(self, fn, n):
        self.fn = fn
        self.rows = self.cols = int(n)

    def apply(self, x):
        return self.fn(self._check_in(x))

    adjoint = apply


def spectral_norm(op, tol=1e-8, max_iters=10000):
    """Largest singular value of ``op`` by power iteration on ``op^T op``.

    Deterministic: the starting vector comes from a fixed-seed generator.
    Stops when the Rayleigh quotient changes by at most
    ``tol * (1 + value)`` between sweeps; hitting ``max_iters`` first
    raises :class:`NumericError` carrying the best estimate.
    """

    if op.cols == 0:
        return 0.0
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(op.cols)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    lam = 0.0
    for it in range(max_iters):
        w = op.adjoint(op.apply(v))
        lam_new = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if it >= 1 and abs(lam_new - lam) <= tol * (1.0 + abs(lam_new)):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    raise NumericError(
        "power iteration did not settle within %d sweeps" % max_iters,
        context={"routine": "spectral_norm"},
        best=float(np.sqrt(max(lam, 0.0))),
    )


class BlockTriangular:
    """The block lower-triangular matrix of the corrective step.

    Built from per-block scalars ``gamma_i > 0`` and the constraint
    operators ``A_i``.  Diagonal blocks are ``gamma_i * I``; block
    ``(i, j)`` with ``j < i`` is ``A_i^T A_j``; blocks above the diagonal
    vanish.  ``Q`` denotes ``diag(gamma_i I)``.
    """

    def __init__(self, gammas, ops):
        gammas = [float(g) for g in gammas]
        ops = list(ops)
        if len(gammas) != len(ops):
            raise StructuralError("need one gamma per block operator")
        if any(not np.isfinite(g) or g <= 0.0 for g in gammas):
            raise ConfigError("all gamma_i must be positive and finite")
        rows = {op.rows for op in ops}
        if len(rows) > 1:
            raise StructuralError("block operators must share their row count")
        self.gammas = gammas
        self.ops = ops
        self.dims = tuple(op.cols for op in ops)
        self.rhs_dim = ops[0].rows if ops else 0
        self._p_norm = None
        self._scaled_p_norm = None

    @property
    def m(self):
        return len(self.ops)

    def _check(self, x):
        if x.dims != self.dims:
            raise StructuralError("block vector does not match the triangular system")

    def to_dense(self):
        """Dense ``M``, assembled from each operator's ``to_dense``."""
        mats = [op.to_dense() for op in self.ops]
        offs = np.cumsum((0,) + self.dims)
        out = np.zeros((offs[-1], offs[-1]))
        for i, Ai in enumerate(mats):
            out[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = self.gammas[i] * np.eye(self.dims[i])
            for j in range(i):
                out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = Ai.T @ mats[j]
        return out

    def apply_mt(self, d):
        """Product ``M^T d`` (block upper triangular)."""
        self._check(d)
        out = [None] * self.m
        suffix = np.zeros(self.rhs_dim)
        for i in range(self.m - 1, -1, -1):
            op, di = self.ops[i], d.blocks[i]
            out[i] = self.gammas[i] * di + op.adjoint(suffix)
            suffix = suffix + op.apply(di)
        return BlockVector._wrap(out)

    def apply_m(self, d):
        """Product ``M d`` (block lower triangular)."""
        self._check(d)
        out = [None] * self.m
        prefix = np.zeros(self.rhs_dim)
        for i in range(self.m):
            op, di = self.ops[i], d.blocks[i]
            out[i] = self.gammas[i] * di + op.adjoint(prefix)
            prefix = prefix + op.apply(di)
        return BlockVector._wrap(out)

    def back_substitute(self, y, z, alpha):
        """Solve ``M^T (y_new - y) = alpha Q (z - y)`` for ``y_new``.

        The system is block upper triangular, so the correction is
        computed from the last block down with one ``A_i``/``A_i^T``
        application pair per block.
        """
        self._check(y)
        self._check(z)
        alpha = float(alpha)
        d = [None] * self.m
        suffix = np.zeros(self.rhs_dim)
        for i in range(self.m - 1, -1, -1):
            op = self.ops[i]
            di = alpha * (z.blocks[i] - y.blocks[i]) - op.adjoint(suffix) / self.gammas[i]
            d[i] = di
            suffix = suffix + op.apply(di)
        return BlockVector._wrap([yi + di for yi, di in zip(y.blocks, d)])

    def p_norm_sq(self, x):
        """Squared norm ``x^T P x`` with ``P = M Q^{-1} M^T``."""
        t = self.apply_mt(x)
        return float(sum((b @ b) / g for b, g in zip(t.blocks, self.gammas)))

    def q_norm_sq(self, x):
        """Squared norm ``x^T Q x``."""
        self._check(x)
        return float(sum(g * (b @ b) for g, b in zip(self.gammas, x.blocks)))

    def apply_p(self, x):
        """Product ``P x = M Q^{-1} M^T x``."""
        t = self.apply_mt(x)
        t = BlockVector._wrap([b / g for b, g in zip(t.blocks, self.gammas)])
        return self.apply_m(t)

    def apply_scaled_p(self, x):
        """Product ``Q^{-1/2} P Q^{-1/2} x``."""
        self._check(x)
        rg = [np.sqrt(g) for g in self.gammas]
        t = BlockVector._wrap([b / r for b, r in zip(x.blocks, rg)])
        t = self.apply_p(t)
        return BlockVector._wrap([b / r for b, r in zip(t.blocks, rg)])

    def _flat_sym_norm(self, block_fn):
        dims = self.dims

        def fn(flat):
            return block_fn(BlockVector.from_flat(flat, dims)).to_flat()

        return spectral_norm(_SymmetricCallable(fn, sum(dims)))

    def p_norm(self):
        """Spectral norm of ``P`` (cached)."""
        if self._p_norm is None:
            self._p_norm = self._flat_sym_norm(self.apply_p)
        return self._p_norm

    def scaled_p_norm(self):
        """Spectral norm of ``Q^{-1/2} P Q^{-1/2}`` (cached)."""
        if self._scaled_p_norm is None:
            self._scaled_p_norm = self._flat_sym_norm(self.apply_scaled_p)
        return self._scaled_p_norm
