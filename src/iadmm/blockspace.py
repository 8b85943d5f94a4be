"""Block vectors, structured linear operators, and the triangular step system.

The solver splits the variable into ``m`` blocks coupled only through the
linear constraint ``sum_i A_i x_i = b``.  This module provides the
block-vector container, a small zoo of matrix-free linear operators with
exact adjoints, the block lower-triangular matrix ``M`` used by the
corrective back-substitution step, and deterministic power-iteration
spectral-norm estimation.

``M`` has diagonal blocks ``gamma_i * I`` and subdiagonal blocks
``A_i^T A_j`` (j < i).  The solver never forms it densely in a sweep:
products with ``M^T`` and the solve against ``M^T`` take ``O(m)`` operator
applications.  Its one dense assembly, ``BlockTriangular.to_dense``, serves
desk-scale generators and checks, and gives the dense induced metric
``P = M Q^{-1} M^T`` (``Q = diag(gamma_i I)``) of ``BlockTriangular.p_dense``.
The strong-mode schedule takes ``||P||`` and ``||Q^{-1/2} P Q^{-1/2}||`` as
exact top eigenvalues of that dense ``P``, assembled once per solve (strong
mode runs on fixed weights); strong mode needs every block strongly
convex, which in the corpus only the desk-scale ``gen_qp`` problems with
``mu > 0`` are.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError, StructuralError

# power iteration: fixed start, stop test and sweep cap
POWER_SEED = 0x5EED
POWER_TOL = 1e-8
POWER_MAX_ITERS = 10000
_F64 = np.dtype(np.float64)


def _vec(v):
    # C order, so a strided view is copied and no product depends on memory layout
    a = np.asarray(v, dtype=np.float64, order="C")
    if a.ndim != 1:
        raise StructuralError("expected a 1-d vector, got shape %s" % (a.shape,))
    return a


class BlockVector:
    """A real vector partitioned into ``m`` dense blocks; ``dims`` is fixed when built."""

    __slots__ = ("blocks", "dims")

    def __init__(self, blocks):
        self.blocks = [np.array(b, dtype=np.float64).reshape(-1) for b in blocks]
        self.dims = tuple(b.size for b in self.blocks)

    @classmethod
    def _wrap(cls, blocks, dims):
        # internal constructor that trusts and does not copy its inputs
        bv = object.__new__(cls)
        bv.blocks = list(blocks)
        bv.dims = dims
        return bv

    @classmethod
    def zeros(cls, dims):
        dims = tuple(int(d) for d in dims)
        return cls._wrap([np.zeros(d) for d in dims], dims)

    @classmethod
    def from_flat(cls, flat, dims):
        flat = _vec(flat)
        dims = tuple(int(d) for d in dims)
        if flat.size != sum(dims):
            raise StructuralError("flat vector of size %d cannot be split into %s" % (flat.size, dims))
        out, k = [], 0
        for d in dims:
            out.append(flat[k:k + d].copy())
            k += d
        return cls._wrap(out, dims)

    def copy(self):
        return BlockVector._wrap([b.copy() for b in self.blocks], self.dims)

    def to_flat(self):
        return np.concatenate(self.blocks) if self.blocks else np.zeros(0)

    def norm_sq(self):
        return float(sum(float(b @ b) for b in self.blocks))

    def norm(self):
        return math.sqrt(self.norm_sq())

    def _check_like(self, other):
        if not isinstance(other, BlockVector) or other.dims != self.dims:
            raise StructuralError("block structure mismatch")

    def __add__(self, other):
        self._check_like(other)
        return BlockVector._wrap([a + b for a, b in zip(self.blocks, other.blocks)], self.dims)

    def __sub__(self, other):
        self._check_like(other)
        return BlockVector._wrap([a - b for a, b in zip(self.blocks, other.blocks)], self.dims)

    def __mul__(self, c):
        c = float(c)
        return BlockVector._wrap([c * b for b in self.blocks], self.dims)

    __rmul__ = __mul__

    def __repr__(self):
        return "BlockVector(dims=%s)" % (self.dims,)


class LinearMap:
    """Abstract linear operator with an exact adjoint.

    Subclasses set ``rows``/``cols`` and implement ``apply`` (forward
    product) and ``adjoint`` (transpose product).  Both return a fresh
    array that shares no memory with their input or with an earlier
    result, so the caller may overwrite it.  ``to_dense`` assembles the
    matrix one ``apply`` per column, for desk-scale oracles, generators
    and checks; only ``DenseMap`` overrides it, with a copy of its matrix.
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
        # a C-contiguous 1-d float64 array of the right size is returned as
        # it is, as the checks below would return it; they run for everything else
        if (type(x) is np.ndarray and x.dtype is _F64 and x.shape == (self.cols,)
                and x.flags.c_contiguous):
            return x
        x = _vec(x)
        if x.size != self.cols:
            raise StructuralError("%s: input has size %d, expected %d" % (self.kind, x.size, self.cols))
        return x

    def _check_out(self, w):
        if (type(w) is np.ndarray and w.dtype is _F64 and w.shape == (self.rows,)
                and w.flags.c_contiguous):
            return w
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
        self._mat_t = mat.T
        self.rows, self.cols = mat.shape

    def apply(self, x):
        return self.mat.dot(self._check_in(x))

    def adjoint(self, w):
        return self._mat_t.dot(self._check_out(w))

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
        out = np.zeros((s, s, 2))
        out[:, :-1, 0] = u[:, 1:] - u[:, :-1]
        out[:-1, :, 1] = u[1:, :] - u[:-1, :]
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


def spectral_norm(op):
    """Largest singular value of ``op`` by power iteration on ``op^T op``.

    Deterministic: the starting vector comes from a generator seeded with
    ``POWER_SEED``.  Stops when the Rayleigh quotient changes by at most
    ``POWER_TOL * (1 + value)`` between sweeps; hitting ``POWER_MAX_ITERS``
    first raises :class:`NumericError` carrying the best estimate.
    """

    if op.cols == 0:
        return 0.0
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(op.cols)
    v /= np.linalg.norm(v)
    lam = 0.0
    for it in range(POWER_MAX_ITERS):
        w = op.adjoint(op.apply(v))
        lam_new = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if it >= 1 and abs(lam_new - lam) <= POWER_TOL * (1.0 + abs(lam_new)):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    raise NumericError(
        "power iteration did not settle within %d sweeps" % POWER_MAX_ITERS,
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
        return BlockVector._wrap(out, self.dims)

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
            if i:
                # block 0's contribution to the suffix would never be read
                suffix = suffix + op.apply(di)
        return BlockVector._wrap([yi + di for yi, di in zip(y.blocks, d)], self.dims)

    def p_norm_sq(self, x):
        """Squared norm ``x^T P x`` with ``P = M Q^{-1} M^T``."""
        t = self.apply_mt(x)
        return float(sum((b @ b) / g for b, g in zip(t.blocks, self.gammas)))

    def q_norm_sq(self, x):
        """Squared norm ``x^T Q x``."""
        self._check(x)
        return float(sum(g * (b @ b) for g, b in zip(self.gammas, x.blocks)))

    def _q_inv(self):
        return np.concatenate([np.full(d, 1.0 / g) for d, g in zip(self.dims, self.gammas)])

    def p_dense(self):
        """Dense ``P = M Q^{-1} M^T``, from the dense ``M`` of :meth:`to_dense`."""
        Md = self.to_dense()
        return (Md * self._q_inv()) @ Md.T

    def p_norm(self):
        """Spectral norm of ``P``: the top eigenvalue of :meth:`p_dense`."""
        return float(np.linalg.eigvalsh(self.p_dense())[-1])

    def scaled_p_norm(self):
        """Spectral norm of ``Q^{-1/2} P Q^{-1/2}``: its top eigenvalue, from :meth:`p_dense`."""
        r = np.sqrt(self._q_inv())
        return float(np.linalg.eigvalsh(r[:, None] * self.p_dense() * r)[-1])
