"""Outer loop: sequential block sweeps, residual test, corrective step.

One outer iteration runs the inner loop over the blocks in order (each
block sees the newest lookahead points ``z_j`` of earlier blocks and the
corrected points ``y_j`` of later ones), forms the residual

    eps_k = ||z - y|| + ||A z - b|| + sqrt(R_k),

and, unless ``eps_k`` is small enough to stop, applies the corrective
step: solve ``M^T (y_new - y) = alpha Q (z - y)`` by back substitution
and update ``lam`` by ``alpha * rho * (A z - b)``.

Three modes are supported.  ``convex`` runs a fixed penalty ``rho``.
``strong`` grows the penalty as ``rho_k = (k0 + k) * theta`` using the
problem's strong-convexity modulus, and additionally forces the
per-block accuracy weights to grow so that ``k / Gamma_i^k`` never
increases.  ``exact`` replaces the inner loop with a high-accuracy
subproblem oracle (useful for references and cross-checks).
"""

from __future__ import annotations

import collections
import csv
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blockspace import BlockTriangular, BlockVector
from .diagnostics import energy, kkt_error, lagrangian_gap
from .errors import ConfigError, NumericError, check_count
from .inner import InnerConfig, InnerResult, run_inner
from .oracle import lipschitz_bound, subproblem_minimizer
from .problem import ProblemSpec

HISTORY_COLUMNS = ("k", "eps", "feas", "yz_gap", "R", "obj", "E", "kkt", "rho", "gamma1")
# factor by which the safeguard grows a diagonal weight that a sweep outran
GAMMA_FACTOR = 3.0


@dataclass
class SolverParams:
    """The knobs a caller sets for the outer and inner loops.

    ``mode`` is ``convex`` (fixed penalty ``rho``), ``strong`` (growing
    penalty from the problem's strong-convexity modulus
    ``problem.mu_total()``, which must be positive), or ``exact`` (oracle
    subproblem solves to ``exact_tol``).  ``rule`` and ``sigma`` pick the
    inner step-size rule.  The residual is
    ``eps_k = ||z - y|| + ||A z - b|| + sqrt(R_k)`` and the forcing
    threshold is ``psi(eps) = eps``: the paper's weights ``theta_1..3`` and
    ``c_psi`` are fixed at 1.  ``gamma_mode`` chooses between
    power-iteration initialization of the diagonal weights and the
    safeguarded variant that starts every weight at ``gamma_init`` and,
    after each sweep, multiplies it by ``GAMMA_FACTOR`` while
    ``gamma_i ||z_i - y_i||^2 < ||A_i (z_i - y_i)||^2``.
    ``x0`` (a :class:`BlockVector`) and ``lam0`` are an optional finite
    starting point.
    """

    mode: str = "convex"
    rule: str = "adaptive"
    rho: float = 1.0
    alpha: float = 0.9
    sigma: float = 0.99
    tol: float = 1e-8
    max_outer: int = 100_000
    gamma_mode: str = "power"
    gamma_init: float = 4.0
    exact_tol: float = 1e-12
    x0: Optional[BlockVector] = None
    lam0: Optional[np.ndarray] = None

    def __post_init__(self):
        # every bound is written as ``not x > bound`` so that nan is rejected too
        if self.mode not in ("convex", "strong", "exact"):
            raise ConfigError("unknown mode %r" % (self.mode,))
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly between 0 and 1")
        for name in ("rho", "gamma_init", "exact_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError("%s must be positive and finite" % name)
        # tol=inf is legal: the solve stops after one sweep
        if not self.tol >= 0.0:
            raise ConfigError("tol must be nonnegative")
        if self.gamma_mode not in ("power", "safeguard"):
            raise ConfigError("unknown gamma_mode %r" % (self.gamma_mode,))
        check_count("max_outer", self.max_outer)
        if self.x0 is not None:
            if not isinstance(self.x0, BlockVector):
                raise ConfigError("x0 must be a BlockVector")
            if not np.isfinite(self.x0.to_flat()).all():
                raise ConfigError("x0 has non-finite entries")
        if self.lam0 is not None and not np.isfinite(self.lam0).all():
            raise ConfigError("lam0 has non-finite entries")
        # rule and sigma are checked by InnerConfig
        self.inner_config()

    def inner_config(self):
        return InnerConfig(rule=self.rule, sigma=self.sigma)


@dataclass
class History:
    """Per-iteration records of a solve (numpy arrays, one entry per sweep).

    ``E``, ``delta_gap``, ``erg_gap``, ``w_gap``, and ``y_err_sq`` are
    only populated when the solve tracked a reference pair (``w_gap`` and
    ``y_err_sq`` only in the growing-penalty mode); absent values are
    ``nan``.  ``Gammas`` holds the per-block accuracy weights as tuples.
    """

    k: np.ndarray
    eps: np.ndarray
    feas: np.ndarray
    yz_gap: np.ndarray
    R: np.ndarray
    obj: np.ndarray
    rho: np.ndarray
    gamma1: np.ndarray
    kkt: np.ndarray
    q_gap_sq: np.ndarray
    erg_obj: np.ndarray
    E: Optional[np.ndarray] = None
    delta_gap: Optional[np.ndarray] = None
    erg_gap: Optional[np.ndarray] = None
    w_gap: Optional[np.ndarray] = None
    y_err_sq: Optional[np.ndarray] = None
    Gammas: list = field(default_factory=list)

    def save_csv(self, path):
        """Write the standard history table (one row per sweep)."""
        E = self.E if self.E is not None else np.full(self.k.size, np.nan)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(HISTORY_COLUMNS)
            for i in range(self.k.size):
                w.writerow([
                    int(self.k[i]),
                    "%.17g" % self.eps[i],
                    "%.17g" % self.feas[i],
                    "%.17g" % self.yz_gap[i],
                    "%.17g" % self.R[i],
                    "%.17g" % self.obj[i],
                    "" if not np.isfinite(E[i]) else "%.17g" % E[i],
                    "" if not np.isfinite(self.kkt[i]) else "%.17g" % self.kkt[i],
                    "%.17g" % self.rho[i],
                    "%.17g" % self.gamma1[i],
                ])


@dataclass
class SolveReport:
    """Everything a solve produced.

    ``cause`` is one of ``tolerance``, ``exact-zero-eps``,
    ``max-iterations`` (numeric failures raise instead, carrying
    context).  ``x`` is the newest iterate ``x_{k+1}``, ``z``/``y``/
    ``lam`` the final lookahead, corrected point, and multiplier.
    """

    cause: str
    iterations: int
    eps: float
    x: BlockVector
    y: BlockVector
    z: BlockVector
    lam: np.ndarray
    gammas: list
    history: History
    events: list
    params: SolverParams
    seconds: float
    theta: Optional[float] = None
    k0: Optional[float] = None
    cbar: Optional[float] = None
    certificate: Optional[dict] = None


def step3_update(M: BlockTriangular, y, z, lam, rho, alpha, residual):
    """Corrective step: back-substituted ``y`` update and multiplier ascent."""
    y_new = M.back_substitute(y, z, alpha)
    lam_new = lam + alpha * rho * residual
    return y_new, lam_new


def _strong_schedule(M: BlockTriangular, mu, alpha):
    """Strong-mode ``(theta, k0)`` for the current weights of ``M``."""
    theta = alpha * mu / (8.0 * M.p_norm())
    k0 = 4.0 * M.scaled_p_norm() / (alpha * (1.0 - alpha))
    return theta, k0


def gamma_compatible(op, gamma, z_i, y_i):
    """Safeguard test: ``gamma ||z_i - y_i||^2 >= ||A_i (z_i - y_i)||^2``."""
    d = z_i - y_i
    ad = op.apply(d)
    return gamma * float(d @ d) >= float(ad @ ad)


def solve(problem: ProblemSpec, params: SolverParams = None, ref=None):
    """Run the solver on ``problem``; optionally track a reference pair.

    When ``ref`` (a certified primal-dual pair) is given, the history
    additionally records the merit energy, the Lagrangian gap of the
    lookahead point and of its running average, and, in the
    growing-penalty mode, the weighted-average gap and the corrected
    point's squared error.

    Returns a :class:`SolveReport`.  Numeric failures raise
    :class:`NumericError` with the sweep, block, and inner iteration in
    ``context``.
    """
    if params is None:
        params = SolverParams()
    t_start = time.perf_counter()
    m, dims, N = problem.m, problem.dims, problem.rhs_dim
    ops = problem.ops()

    x = params.x0.copy() if params.x0 is not None else BlockVector.zeros(dims)
    if x.dims != dims:
        raise ConfigError("x0 does not match the problem's block structure")
    lam = (np.array(params.lam0, dtype=np.float64).reshape(-1)
           if params.lam0 is not None else np.zeros(N))
    if lam.size != N:
        raise ConfigError("lam0 does not match the constraint dimension")
    y = x.copy()

    if params.gamma_mode == "power":
        gammas = problem.gammas_power()
    else:
        gammas = [params.gamma_init] * m
    M = BlockTriangular(gammas, ops)

    strong = params.mode == "strong"
    exact = params.mode == "exact"
    if exact:
        # the oracle steps by each block's curvature bound: a block without
        # one fails here, before sweep 1
        for blk in problem.blocks:
            lipschitz_bound(blk.smooth)
    theta = k0 = None
    if strong:
        mu = problem.mu_total()
        if not mu > 0.0:
            raise ConfigError("strong mode needs a positive strong-convexity modulus")
        theta, k0 = _strong_schedule(M, mu, params.alpha)

    cfg = params.inner_config()
    # one list per history column; rows are not kept, as a dict per sweep
    # would double the history's memory on long solves
    cols = collections.defaultdict(list)
    Gammas = []
    events = []
    Gamma = [0.0] * m
    eps_prev = float("inf")
    zbar_sum = BlockVector.zeros(dims)
    ztilde_sum = BlockVector.zeros(dims) if strong else None
    wsum = 0.0
    cause = "max-iterations"
    certificate = None
    cbar = None
    eps_k = float("nan")
    z = x.copy()

    for k in range(1, params.max_outer + 1):
        rho_k = (k0 + k) * theta if strong else params.rho

        # --- step 1: sequential block sweep -------------------------------
        ay = [op.apply(yi) for op, yi in zip(ops, y.blocks)]
        c_full = np.sum(ay, axis=0) if m > 1 else ay[0].copy()
        z_blocks = [None] * m
        x_blocks = [None] * m
        Gamma_new = [0.0] * m
        r_vals = [0.0] * m
        for i in range(m):
            b_i = problem.b - c_full + ay[i]
            if exact:
                # oracle solve: the lookahead and the new iterate coincide, the
                # inexactness term vanishes and the accuracy weight carries over
                try:
                    xbar = subproblem_minimizer(problem.blocks[i], y.blocks[i], lam, b_i,
                                                rho_k, gammas[i], tol=params.exact_tol)
                except NumericError as err:
                    err.context.update(outer_iteration=k, block=i)
                    raise
                res = InnerResult(x_next=xbar, z=xbar.copy(), Gamma=Gamma[i], r=0.0, iters=0)
            else:
                floor = Gamma[i]
                if strong and k >= 2:
                    floor = Gamma[i] * k / (k - 1.0)
                res, _ = run_inner(
                    problem.blocks[i], x.blocks[i], y.blocks[i], lam, b_i,
                    rho_k, gammas[i], cfg, Gamma_prev=Gamma[i], psi_eps=eps_prev,
                    gamma_floor=floor, ctx=(k, i))
            x_blocks[i] = res.x_next
            z_blocks[i] = res.z
            Gamma_new[i] = res.Gamma
            r_vals[i] = res.r
            c_full = c_full - ay[i] + ops[i].apply(res.z)

        z = BlockVector._wrap(z_blocks)
        x_next = BlockVector._wrap(x_blocks)
        Gamma = Gamma_new
        residual = c_full - problem.b
        feas = float(np.linalg.norm(residual))
        yz = (y - z).norm()
        R = max(sum(r_vals), 0.0)
        eps_k = float(yz + feas + np.sqrt(R))
        if not math.isfinite(eps_k):
            raise NumericError("residual eps_k is not finite",
                               context={"routine": "solve", "outer_iteration": k})

        # --- safeguard: grow diagonal weights that the sweep outran -------
        # bump until compatible, one event per bump: a single bump can leave
        # a tiny weight far below ||A_i^T A_i||, and the corrective step then
        # throws y and lam so far that the next sweep's inner loop cannot finish
        if params.gamma_mode == "safeguard":
            changed = False
            for i in range(m):
                while not gamma_compatible(ops[i], gammas[i], z.blocks[i], y.blocks[i]):
                    old = gammas[i]
                    gammas[i] *= GAMMA_FACTOR
                    if not math.isfinite(gammas[i]):
                        raise NumericError(
                            "safeguard grew a diagonal weight past the float range",
                            context={"routine": "solve", "outer_iteration": k, "block": i})
                    events.append({"k": k, "event": "gamma-safeguard", "block": i,
                                   "old": old, "new": gammas[i]})
                    changed = True
            if changed:
                M = BlockTriangular(gammas, ops)
                if strong:
                    theta, k0 = _strong_schedule(M, mu, params.alpha)
                    events.append({"k": k, "event": "strong-schedule-update",
                                   "theta": theta, "k0": k0})

        # --- per-sweep records ---------------------------------------------
        obj = problem.objective(z)
        zbar_sum = zbar_sum + z
        zbar = zbar_sum * (1.0 / k)
        row = {
            "k": k, "eps": eps_k, "feas": feas, "yz_gap": yz, "R": R,
            "obj": obj, "rho": rho_k, "gamma1": gammas[0],
            "kkt": kkt_error(z, lam, problem) if ref is not None else float("nan"),
            "q_gap_sq": M.q_norm_sq(y - z),
            "erg_obj": problem.objective(zbar),
        }
        if ref is not None:
            row["E"] = (energy(x, y, lam, ref, Gamma, rho_k, params.alpha, M)
                        if min(Gamma) > 0.0 else float("nan"))
            row["delta_gap"] = lagrangian_gap(z, ref, problem)
            row["erg_gap"] = lagrangian_gap(zbar, ref, problem)
            if strong:
                wsum += k0 + k
                ztilde_sum = ztilde_sum + z * (k0 + k)
                row["w_gap"] = lagrangian_gap(ztilde_sum * (1.0 / wsum), ref, problem)
                row["y_err_sq"] = float("nan")  # patched after the corrective step
        for name, val in row.items():
            cols[name].append(val)
        Gammas.append(tuple(Gamma))

        if k == 1:
            if strong and ref is not None and min(Gamma) > 0.0:
                cbar = (float((lam - ref.lam_star) @ (lam - ref.lam_star)) / theta
                        + params.alpha * (k0 + 1.0) * sum(
                            float((xi - si) @ (xi - si)) / g
                            for xi, si, g in zip(x.blocks, ref.x_star.blocks, Gamma))
                        + k0 * k0 * theta * M.p_norm_sq(y - ref.x_star))

        # --- step 2: termination -------------------------------------------
        if eps_k == 0.0:
            cause = "exact-zero-eps"
            state_gap = max((x_next - x).norm(), (z - x).norm(), (y - x).norm())
            certificate = {"kkt": kkt_error(x, lam, problem), "state_gap": state_gap}
            x = x_next
            break
        if eps_k <= params.tol:
            cause = "tolerance"
            x = x_next
            break

        # --- step 3: corrective step ----------------------------------------
        y_new, lam = step3_update(M, y, z, lam, rho_k, params.alpha, residual)
        if strong and ref is not None:
            cols["y_err_sq"][-1] = (y_new - ref.x_star).norm_sq()
        x, y = x_next, y_new
        eps_prev = eps_k

    history = History(Gammas=Gammas, **{
        name: np.array(vals, dtype=np.float64) for name, vals in cols.items()})
    return SolveReport(
        cause=cause, iterations=int(history.k.size), eps=float(eps_k),
        x=x, y=y, z=z, lam=lam, gammas=list(gammas), history=history,
        events=events, params=params, seconds=time.perf_counter() - t_start,
        theta=theta, k0=k0, cbar=cbar, certificate=certificate,
    )
