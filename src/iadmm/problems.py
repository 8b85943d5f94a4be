"""Deterministic desk-scale problem generators and the named corpus.

Three families are provided.  ``gen_qp`` builds equality-constrained
quadratic programs with a dense-KKT reference; ``gen_lasso`` builds
quadratic-plus-l1 problems whose reference comes from one KKT solve on
the face of a coarse exact-mode run (certified afterwards); ``gen_imaging`` builds the
three-block deblurring model

    min 0.5 ||F u - f||^2 + tv_weight ||w||_{1,2} + l1_weight ||v||_1
    s.t. B u = w,  Psi^T u = v

with a separable truncated-Gaussian blur ``F``, forward differences
``B``, and an orthonormal multi-level Haar transform ``Psi^T``.

All generators are pure functions of their seed: regenerating an entry
is bit-identical.  Entries are addressable by id strings
(``qp-<seed>-m<m>[-mu<value>]``, ``lasso-<seed>``, ``img-<seed>-s<side>``).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blockspace import (BlockTriangular, DenseMap, Grad2D, HaarMap, LinearMap,
                         ScaledIdentity, VStack, ZeroMap)
from .diagnostics import ReferencePair
from .errors import CertificationError, ConfigError, check_count
from .oracle import face_solve, solve_qp_kkt
from .problem import Block, ProblemSpec
from .proxlib import (group_l2_prox, l1_prox, quadratic, quadratic_smooth,
                      zero_prox, zero_smooth)

log = logging.getLogger(__name__)
# smallest eigenvalue of the step metric P that gen_qp gives a strongly convex draw
P_FLOOR = 1.25
# residual at which gen_lasso's coarse exact-mode run stops and its face is read
LASSO_FACE_TOL = 1e-4


@dataclass
class CorpusEntry:
    """A generated problem with its provenance and optional reference."""

    id: str
    problem: ProblemSpec
    seed: int
    reference: Optional[ReferencePair] = None
    tags: frozenset = frozenset()
    data: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


class SeparableBlur(LinearMap):
    """Self-adjoint 2-d blur: the same 1-d symmetric kernel along each axis.

    Zero padding outside the image (the kernel is truncated at the
    boundary, not renormalized), so the operator maps an image ``X`` to
    ``T X T`` for the banded symmetric Toeplitz factor ``T``, built once
    and kept as the attribute ``T``.
    """

    kind = "separable-blur"

    def __init__(self, side, kernel):
        kernel = np.asarray(kernel, dtype=np.float64).reshape(-1)
        if kernel.size % 2 == 0:
            raise ConfigError("blur kernel must have odd length")
        if not np.all(np.isfinite(kernel)):
            raise ConfigError("blur kernel taps must be finite")
        # exact symmetry makes ``T`` exactly symmetric, so ``adjoint`` is the
        # exact adjoint of ``apply``
        if not np.array_equal(kernel, kernel[::-1]):
            raise ConfigError("blur kernel must be symmetric")
        check_count("side", side)
        self.side = int(side)
        self.kernel = kernel
        self.rows = self.cols = self.side * self.side
        # one product per entry: T[i, i + o] = kernel[o + r] inside the band
        r = kernel.size // 2
        self.T = sum(kernel[o + r] * np.eye(self.side, k=o) for o in range(-r, r + 1))

    def apply(self, x):
        return (self.T @ self._check_in(x).reshape(self.side, self.side) @ self.T).reshape(-1)

    def adjoint(self, w):
        # symmetric kernel with zero padding makes the operator self-adjoint
        return (self.T @ self._check_out(w).reshape(self.side, self.side) @ self.T).reshape(-1)


def _rng(seed, attempt=0):
    return np.random.default_rng([int(seed), int(attempt), 0x1ADA])


def gen_qp(seed, m=2, mu=0.0):
    """Random feasible equality-constrained QP with a dense-KKT reference.

    Every block has dimension 6 and the constraint ``2 m + 2`` rows.
    Block Hessians are ``G_i^T G_i + mu I`` (so ``mu``, which must be
    finite and nonnegative, is a valid strong-convexity modulus),
    constraints are dense Gaussian with a feasible right-hand side.
    With ``mu > 0`` the constraint is rescaled so the step metric ``P``
    has smallest eigenvalue at least ``P_FLOOR``; this normalization
    makes plain Euclidean error bounds comparable to ``P``-metric ones in
    the growing-penalty mode.
    Degenerate draws are retried with a sub-seed (logged).
    """
    check_count("seed", seed, least=0)
    check_count("m", m)
    dims = (6,) * m
    n_rhs = 2 * m + 2
    mu = float(mu)
    if not 0.0 <= mu < np.inf:
        raise ConfigError("mu must be finite and nonnegative, got %r" % mu)

    for attempt in range(10):
        rng = _rng(seed, attempt)
        Hs, cs, As = [], [], []
        for d in dims:
            G = rng.standard_normal((d, d)) / np.sqrt(d)
            Hs.append(G.T @ G + mu * np.eye(d))
            cs.append(rng.standard_normal(d))
            As.append(rng.standard_normal((n_rhs, d)) / np.sqrt(n_rhs))
        x_feas = rng.standard_normal(sum(dims))
        A_full = np.concatenate(As, axis=1)
        if np.linalg.matrix_rank(A_full) < n_rhs:
            log.info("qp seed %s attempt %d: rank-deficient constraints, retrying", seed, attempt)
            continue
        b = A_full @ x_feas

        scale = 1.0
        if mu > 0.0:
            gammas = [float(np.linalg.norm(Ai.T @ Ai, 2)) for Ai in As]
            P = BlockTriangular(gammas, [DenseMap(Ai) for Ai in As]).p_dense()
            pmin = float(np.linalg.eigvalsh(P)[0])
            if pmin < P_FLOOR:
                scale = float(np.sqrt(P_FLOOR / pmin))
                As = [scale * Ai for Ai in As]
                b = scale * b

        blocks = [Block(quadratic(H, c, modulus=mu), zero_prox(), DenseMap(A))
                  for H, c, A in zip(Hs, cs, As)]
        problem = ProblemSpec(blocks, b)
        try:
            ref = solve_qp_kkt(problem)
        except (np.linalg.LinAlgError, CertificationError) as err:
            log.info("qp seed %s attempt %d: reference failed (%s), retrying", seed, attempt, err)
            continue
        ident = "qp-%s-m%d" % (seed, m) + ("-mu%g" % mu if mu else "")
        data = {"b": b, "x_feas": x_feas}
        for i, (H, c, A) in enumerate(zip(Hs, cs, As)):
            data["H%d" % i], data["c%d" % i], data["A%d" % i] = H, c, A
        tags = {"qp"} | ({"strongly-convex"} if mu > 0 else {"convex"})
        return CorpusEntry(
            id=ident, problem=problem, seed=int(seed), reference=ref,
            tags=frozenset(tags), data=data,
            extras={"scale": scale},
        )
    raise ConfigError("could not generate a certifiable QP for seed %s" % seed)


def gen_lasso(seed):
    """Quadratic-plus-l1 problem; reference from a certified face solve.

    Two blocks of dimensions 8 and 6 share 6 constraint rows.  Block 1
    carries a least-squares term, the blocks carry l1 terms weighted
    0.15 and 0.1, and the constraint has a feasible right-hand side from a
    sparse draw.  The reference pair comes from running the solver in
    exact mode to the coarse residual ``LASSO_FACE_TOL`` and solving the
    KKT system once on the face of its result
    (:func:`iadmm.oracle.face_solve`).  If that pair fails its
    certificate, the face was guessed wrong, and the reference is a cold
    exact-mode run to ``tol=1e-12`` instead, certified in turn.  A run
    that stops short of its tolerance raises :class:`ConfigError`.
    """
    # imported here so that ``solve`` is looked up on ``outer`` at call time:
    # tests and the bench tracer replace ``iadmm.outer.solve`` and rely on it
    from .outer import SolverParams, solve

    check_count("seed", seed, least=0)
    dims, n_rhs, weights = (8, 6), 6, (0.15, 0.1)
    rng = _rng(seed)
    blocks = []
    data = {}
    for i, d in enumerate(dims):
        if i == 0:
            G = rng.standard_normal((d, d)) / np.sqrt(d)
            target = rng.standard_normal(d)
            smooth = quadratic_smooth(DenseMap(G), target)
            data["G"], data["target"] = G, target
        else:
            smooth = zero_smooth()
        A = rng.standard_normal((n_rhs, d)) / np.sqrt(n_rhs)
        data["A%d" % i] = A
        blocks.append(Block(smooth, l1_prox(weights[i]), DenseMap(A)))
    mask = rng.random(sum(dims)) < 0.6
    x_feas = rng.standard_normal(sum(dims)) * mask
    b = np.concatenate([blk.op.to_dense() for blk in blocks], axis=1) @ x_feas
    data["b"], data["weights"] = b, np.asarray(weights)
    problem = ProblemSpec(blocks, b)

    ident = "lasso-%s" % seed

    def exact_run(tol):
        params = SolverParams(mode="exact", rho=1.0, alpha=0.9, tol=tol,
                              max_outer=200_000, exact_tol=1e-13)
        report = solve(problem, params)
        if report.cause not in ("tolerance", "exact-zero-eps"):
            raise ConfigError("exact-mode reference run for %s stopped as %s"
                              % (ident, report.cause))
        return report

    coarse = exact_run(LASSO_FACE_TOL)
    try:
        ref = face_solve(coarse.z, coarse.lam, problem)
    except (np.linalg.LinAlgError, CertificationError) as err:
        log.info("lasso seed %s: face solve failed (%s), running exact mode to 1e-12",
                 seed, err)
        report = exact_run(1e-12)
        ref = ReferencePair(problem, report.z, report.lam, source="exact-mode-run")
    return CorpusEntry(
        id=ident, problem=problem, seed=int(seed), reference=ref,
        tags=frozenset({"lasso", "polyhedral"}), data=data,
    )


def _piecewise_constant_image(rng, side, n_rects=6):
    img = np.zeros((side, side))
    for _ in range(n_rects):
        r0, c0 = rng.integers(0, side - 2, size=2)
        r1 = int(rng.integers(r0 + 1, side))
        c1 = int(rng.integers(c0 + 1, side))
        img[r0:r1, c0:c1] += rng.uniform(-0.6, 0.9)
    return np.clip(img, 0.0, 1.0)


def gaussian_kernel(sigma=0.8, radius=2):
    """Truncated, normalized 1-d Gaussian kernel."""
    if not sigma > 0 or radius < 1:
        raise ConfigError("blur kernel needs sigma > 0 and radius >= 1")
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-t * t / (2.0 * sigma * sigma))
    return g / g.sum()


def gen_imaging(seed, side=32, tv_weight=1e-2, l1_weight=1e-3,
                blur_sigma=0.8, blur_radius=2):
    """Three-block deblurring model on a synthetic piecewise-constant image.

    Variables are the image ``u``, its gradient field ``w`` (two
    interleaved components per pixel), and its 4-level wavelet
    coefficients ``v``; the constraints ``B u = w`` and ``Psi^T u = v``
    are stacked into one system with right-hand side zero.  The data is
    the blurred image plus Gaussian noise of standard deviation ``1e-3``.
    No closed-form reference exists; use exact-mode runs for cross-checks.
    """
    check_count("seed", seed, least=0)
    check_count("side", side)
    if side < 16 or side & (side - 1):
        raise ConfigError("image side must be a power of two, at least 16")
    rng = _rng(seed)
    n = side * side
    u_true = _piecewise_constant_image(rng, side)
    kernel = gaussian_kernel(blur_sigma, blur_radius)
    F = SeparableBlur(side, kernel)
    f_data = F.apply(u_true.reshape(-1)) + 1e-3 * rng.standard_normal(n)

    # exact curvature bounds from the 1-d Toeplitz spectrum
    ev = np.linalg.eigvalsh(F.T)
    lip = float(np.max(np.abs(ev)) ** 4)
    mod = float(np.min(np.abs(ev)) ** 4)
    smooth1 = quadratic_smooth(F, f_data, lipschitz=lip, modulus=mod)

    B = Grad2D(side)
    W = HaarMap(side, levels=4)
    A1 = VStack([B, W])
    A2 = VStack([ScaledIdentity(2 * n, -1.0), ZeroMap(n, 2 * n)])
    A3 = VStack([ZeroMap(2 * n, n), ScaledIdentity(n, -1.0)])
    blocks = [
        Block(smooth1, zero_prox(), A1),
        Block(zero_smooth(), group_l2_prox(tv_weight, 2), A2),
        Block(zero_smooth(), l1_prox(l1_weight), A3),
    ]
    problem = ProblemSpec(blocks, np.zeros(3 * n))
    ident = "img-%s-s%d" % (seed, side)
    return CorpusEntry(
        id=ident, problem=problem, seed=int(seed),
        tags=frozenset({"imaging", "three-block"}),
        data={"u_true": u_true, "f": f_data, "kernel": kernel},
        extras={"tv_weight": tv_weight, "l1_weight": l1_weight},
    )


_QP_RE = re.compile(r"^qp-(\d+)-m(\d+)(?:-mu([0-9.eE+-]+))?$")
_LASSO_RE = re.compile(r"^lasso-(\d+)$")
_IMG_RE = re.compile(r"^img-(\d+)-s(\d+)$")


def from_id(ident):
    """Generate the corpus entry named by an id string."""
    m = _QP_RE.match(ident)
    if m:
        seed, nblocks, mu = int(m.group(1)), int(m.group(2)), m.group(3)
        try:
            mu = float(mu) if mu else 0.0
        except ValueError:
            raise ConfigError("unknown problem id %r" % (ident,)) from None
        return gen_qp(seed, m=nblocks, mu=mu)
    m = _LASSO_RE.match(ident)
    if m:
        return gen_lasso(int(m.group(1)))
    m = _IMG_RE.match(ident)
    if m:
        return gen_imaging(int(m.group(1)), side=int(m.group(2)))
    raise ConfigError("unknown problem id %r" % (ident,))
