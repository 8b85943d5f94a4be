"""Outer loop: sequential block sweeps, residual test, corrective step.

One outer iteration runs the inner loop over the blocks in order (each
block sees the newest lookahead points ``z_j`` of earlier blocks and the
corrected points ``y_j`` of later ones), forms the residual

    eps_k = ||z - y|| + ||A z - b|| + sqrt(R_k),

and, unless ``eps_k`` is small enough to stop, applies the corrective
step: solve ``M^T (y_new - y) = alpha Q (z - y)`` by back substitution
and update ``lam`` by ``alpha * rho * (A z - b)``.

Each sweep computes a value once and hands it to every reader: the
products ``A_i y_i`` that form the blocks' right-hand sides also go to
the inner loop or the exact oracle, ``y - z`` serves both ``||z - y||``
and ``||y - z||_Q^2``, and with a reference pair the objectives at
``z`` and at the running average and the residual at ``z`` serve the
history's objective, KKT and gap columns.  Every shared value is the
one its reader would have computed, so the records are bitwise those
of separate evaluations.

After the corrective step, ``solve`` tests once whether the next sweep
would read exactly this sweep's inputs: the same ``eps_k`` (the next
forcing threshold), the same accuracy weights ``Gamma_i``, no safeguard
bump, a fixed penalty, and ``x``, ``y`` and ``lam`` equal bit for bit
(``-0.0`` and ``0.0`` differ).  The cheap scalar tests run first, so a
solve that never repeats pays one float comparison per sweep.  Every
later sweep would then repeat this one, and ``eps_k`` can fall no
further, so with ``tol > 0`` the solve ends with cause ``stalled``.
With ``tol = 0`` (a fixed-horizon run) it goes on to ``max_outer``, and
from then on each block's inner loop hands back its previous result
unrun (the exact-mode oracle runs again).

Three modes are supported.  ``convex`` runs a fixed penalty ``rho``.
``strong`` grows the penalty as ``rho_k = (k0 + k) * theta`` using the
problem's strong-convexity modulus, with ``theta`` and ``k0`` fixed once
per solve from the power-mode weights, and additionally forces the
per-block accuracy weights to grow so that ``k / Gamma_i^k`` never
increases.  ``exact`` replaces the inner loop with a high-accuracy
subproblem oracle (useful for references and cross-checks).
"""

from __future__ import annotations

import collections
import csv
import math
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .blockspace import BlockTriangular, BlockVector
from .diagnostics import energy, kkt_error, lagrangian_gap
from .errors import ConfigError, NumericError, check_count, check_real
from .inner import InnerResult, run_inner
from .oracle import lipschitz_bound, subproblem_minimizer
from .problem import ProblemSpec

HISTORY_COLUMNS = ("k", "eps", "feas", "yz_gap", "R", "obj", "E", "kkt", "rho", "gamma1")
# the safeguard's starting diagonal weight, and the factor by which it grows
# a weight that a sweep outran
GAMMA_INIT = 4.0
GAMMA_FACTOR = 3.0


@dataclass
class SolverParams:
    """The knobs a caller sets for the outer and inner loops.

    ``mode`` is ``convex`` (fixed penalty ``rho``), ``strong`` (growing
    penalty from the problem's strong-convexity modulus
    ``problem.mu_total()``, which must be positive), or ``exact`` (oracle
    subproblem solves to ``exact_tol``).  ``rule`` (``adaptive`` or
    ``constant``) and the descent slack ``sigma`` set the inner loop: each
    sweep hands these parameters to :func:`~iadmm.inner.run_inner`, which
    reads those two fields, ``mode`` and ``tol`` (whether, and in a
    fixed-penalty mode above which tolerance, a call may hold its pair
    once its step is rounding), and takes the sweep's penalty ``rho_k``
    (equal to ``rho`` only in the fixed-penalty modes) as a separate
    argument.  The inner loop's other bounds are constants of
    :mod:`iadmm.inner`.
    The residual is
    ``eps_k = ||z - y|| + ||A z - b|| + sqrt(R_k)`` and the forcing
    threshold is ``psi(eps) = eps``: the paper's weights ``theta_1..3`` and
    ``c_psi`` are fixed at 1.  ``gamma_mode`` chooses between
    power-iteration initialization of the diagonal weights and the
    safeguarded variant that starts every weight at ``GAMMA_INIT`` and,
    after each sweep, multiplies it by ``GAMMA_FACTOR`` while
    ``gamma_i ||z_i - y_i||^2 < ||A_i (z_i - y_i)||^2``.  Strong mode
    needs fixed weights and refuses the safeguard.
    ``x0`` (a :class:`BlockVector`) and ``lam0`` (anything that converts
    to a 1-d float array; kept as that array) are an optional finite
    starting point; ``==`` compares them by value.  Every real field must
    be a real scalar, not a bool.
    """

    mode: str = "convex"
    rule: str = "adaptive"
    rho: float = 1.0
    alpha: float = 0.9
    sigma: float = 0.99
    tol: float = 1e-8
    max_outer: int = 100_000
    gamma_mode: str = "power"
    exact_tol: float = 1e-12
    x0: Optional[BlockVector] = None
    lam0: Optional[np.ndarray] = None

    def __post_init__(self):
        # every bound is written as ``not x > bound`` so that nan is rejected too
        if not isinstance(self.mode, str) or self.mode not in ("convex", "strong", "exact"):
            raise ConfigError("unknown mode %r" % (self.mode,))
        if not isinstance(self.rule, str) or self.rule not in ("constant", "adaptive"):
            raise ConfigError("unknown inner rule %r" % (self.rule,))
        for name in ("rho", "alpha", "sigma", "tol", "exact_tol"):
            check_real(name, getattr(self, name))
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError("sigma must lie strictly between 0 and 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly between 0 and 1")
        for name in ("rho", "exact_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError("%s must be positive and finite" % name)
        # tol=inf is legal: the solve stops after one sweep
        if not self.tol >= 0.0:
            raise ConfigError("tol must be nonnegative")
        if not isinstance(self.gamma_mode, str) or self.gamma_mode not in ("power", "safeguard"):
            raise ConfigError("unknown gamma_mode %r" % (self.gamma_mode,))
        if self.mode == "strong" and self.gamma_mode != "power":
            raise ConfigError("strong mode needs fixed weights: gamma_mode must be 'power'")
        check_count("max_outer", self.max_outer)
        if self.x0 is not None:
            if not isinstance(self.x0, BlockVector):
                raise ConfigError("x0 must be a BlockVector")
            if not np.isfinite(self.x0.to_flat()).all():
                raise ConfigError("x0 has non-finite entries")
        if self.lam0 is not None:
            try:
                self.lam0 = np.array(self.lam0, dtype=np.float64)
            except (TypeError, ValueError):
                raise ConfigError("lam0 must convert to a float array") from None
            if self.lam0.ndim != 1 or not np.isfinite(self.lam0).all():
                raise ConfigError("lam0 must be a finite 1-d array")

    def __eq__(self, other):
        # the generated ``==`` compares field tuples, which asks an array
        # for its truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same_value(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def _same_value(a, b):
    if isinstance(a, BlockVector):
        return (isinstance(b, BlockVector) and a.dims == b.dims
                and all(map(np.array_equal, a.blocks, b.blocks)))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is not None and b is not None and np.array_equal(a, b)
    return a == b


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

    ``cause`` is one of ``tolerance``, ``exact-zero-eps``, ``stalled``
    (with ``tol > 0``, the next sweep would repeat the last one bit for
    bit, so ``eps`` can fall no further) or ``max-iterations`` (numeric
    failures raise instead, carrying context).  ``x`` is the newest
    iterate ``x_{k+1}``, ``z``/``y``/``lam`` the final lookahead,
    corrected point, and multiplier.
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


def gamma_compatible(op, gamma, z_i, y_i, ad=None):
    """Safeguard test: ``gamma ||z_i - y_i||^2 >= ||A_i (z_i - y_i)||^2``.

    ``ad``, when given, is ``A_i z_i - A_i y_i`` from images the caller
    already holds; it equals ``A_i (z_i - y_i)`` up to rounding.  A pass on
    ``ad`` is taken as a pass without applying ``A_i``; a failure is tested
    again on ``A_i (z_i - y_i)``, so a ``False`` result always comes from
    the exact test.
    """
    d = z_i - y_i
    dd = gamma * float(d @ d)
    if ad is None or not dd >= float(ad @ ad):
        ad = op.apply(d)
    return dd >= float(ad @ ad)


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
    lam = params.lam0.copy() if params.lam0 is not None else np.zeros(N)
    if lam.size != N:
        raise ConfigError("lam0 does not match the constraint dimension")
    y = x.copy()

    gammas = problem.gammas_power() if params.gamma_mode == "power" else [GAMMA_INIT] * m
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
        # the paper's schedule, from the dense P = M Q^{-1} M^T of these fixed weights
        theta = params.alpha * mu / (8.0 * M.p_norm())
        k0 = 4.0 * M.scaled_p_norm() / (params.alpha * (1.0 - params.alpha))

    # one list per history column; rows are not kept, as a dict per sweep
    # would double the history's memory on long solves
    cols = collections.defaultdict(list)
    Gammas = []
    events = []
    Gamma = [0.0] * m
    # this sweep's result per block, overwritten in place block by block:
    # run_inner hands a block's entry back unrun once the sweep is known to
    # repeat the last one's inputs bit for bit, and starts each block's
    # first step search at the exponent its last result accepted
    results = [None] * m
    az = [None] * m
    repeat = False
    eps_prev = float("inf")
    zbar_sum = BlockVector.zeros(dims)
    ztilde_sum = BlockVector.zeros(dims) if strong else None
    wsum = 0.0
    cause = "max-iterations"
    certificate = None
    cbar = None

    for k in range(1, params.max_outer + 1):
        rho_k = (k0 + k) * theta if strong else params.rho

        # --- step 1: sequential block sweep -------------------------------
        ay = [op.apply(yi) for op, yi in zip(ops, y.blocks)]
        # the blocks' images summed in order, as a fresh array
        c_full = ay[0] + ay[1] if m > 1 else ay[0].copy()
        for a in ay[2:]:
            c_full += a
        for i in range(m):
            b_i = problem.b - c_full + ay[i]
            if exact:
                # oracle solve: the lookahead and the new iterate coincide, the
                # inexactness term vanishes and the accuracy weight carries over
                try:
                    xbar = subproblem_minimizer(problem.blocks[i], y.blocks[i], lam, b_i,
                                                rho_k, gammas[i], tol=params.exact_tol,
                                                ay_i=ay[i])
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
                    rho_k, gammas[i], params, Gamma_prev=floor, psi_eps=eps_prev,
                    ctx=(k, i), prev=results[i] if repeat else None, ay_i=ay[i],
                    start=0 if results[i] is None else results[i].start)
            results[i] = res
            # c_full is this sweep's own array, so it is updated in place
            c_full -= ay[i]
            az[i] = ops[i].apply(res.z)
            c_full += az[i]

        z = BlockVector._wrap([res.z for res in results], dims)
        x_next = BlockVector._wrap([res.x_next for res in results], dims)
        Gamma = [res.Gamma for res in results]
        residual = c_full - problem.b
        feas = math.sqrt(residual.dot(residual))
        yz_diff = y - z
        yz = yz_diff.norm()
        R = max(sum(res.r for res in results), 0.0)
        eps_k = yz + feas + math.sqrt(R)
        if not math.isfinite(eps_k):
            raise NumericError("residual eps_k is not finite",
                               context={"routine": "solve", "outer_iteration": k})

        # --- safeguard: grow diagonal weights that the sweep outran -------
        # bump until compatible, one event per bump: a single bump can leave
        # a tiny weight far below ||A_i^T A_i||, and the corrective step then
        # throws y and lam so far that the next sweep's inner loop cannot finish.
        # A block's first test reads the images the sweep holds, A_i z_i - A_i y_i;
        # a retest after a bump applies A_i to z_i - y_i
        changed = False
        if params.gamma_mode == "safeguard":
            for i in range(m):
                ad = az[i] - ay[i]
                while not gamma_compatible(ops[i], gammas[i], z.blocks[i], y.blocks[i], ad):
                    ad = None
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

        # --- per-sweep records ---------------------------------------------
        obj = problem.objective(z)
        zbar_sum = zbar_sum + z
        zbar = zbar_sum * (1.0 / k)
        erg_obj = problem.objective(zbar)
        row = {
            "k": k, "eps": eps_k, "feas": feas, "yz_gap": yz, "R": R,
            "obj": obj, "rho": rho_k, "gamma1": gammas[0], "kkt": float("nan"),
            "q_gap_sq": M.q_norm_sq(yz_diff), "erg_obj": erg_obj,
        }
        if ref is not None:
            res_z = problem.residual(z)
            row["kkt"] = kkt_error(z, lam, problem, residual=res_z)
            row["E"] = (energy(x, y, lam, ref, Gamma, rho_k, params.alpha, M)
                        if min(Gamma) > 0.0 else float("nan"))
            row["delta_gap"] = lagrangian_gap(z, ref, problem, objective=obj, residual=res_z)
            row["erg_gap"] = lagrangian_gap(zbar, ref, problem, objective=erg_obj)
            if strong:
                wsum += k0 + k
                ztilde_sum = ztilde_sum + z * (k0 + k)
                row["w_gap"] = lagrangian_gap(ztilde_sum * (1.0 / wsum), ref, problem)
                row["y_err_sq"] = float("nan")  # patched after the corrective step
        for name, val in row.items():
            cols[name].append(val)
        Gammas.append(tuple(Gamma))

        if k == 1 and strong and ref is not None and min(Gamma) > 0.0:
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
        y_new, lam_new = step3_update(M, y, z, lam, rho_k, params.alpha, residual)
        if strong and ref is not None:
            cols["y_err_sq"][-1] = (y_new - ref.x_star).norm_sq()
        # does sweep k+1 read sweep k's inputs bit for bit (-0.0 and 0.0
        # differ)?  Cheapest tests first; solve writes none of these arrays
        # in place, so the ones it holds are compared and no copy is kept
        repeat = (eps_k == eps_prev and Gammas[-1] == Gammas[-2] and not changed
                  and not strong and all(a.tobytes() == b.tobytes() for a, b in zip(
                      x_next.blocks + y_new.blocks + [lam_new], x.blocks + y.blocks + [lam])))
        x, y, lam = x_next, y_new, lam_new
        eps_prev = eps_k
        if repeat and params.tol > 0.0:
            # no later sweep can lower eps_k
            cause = "stalled"
            break

    history = History(Gammas=Gammas, **{
        name: np.array(vals, dtype=np.float64) for name, vals in cols.items()})
    return SolveReport(
        cause=cause, iterations=int(history.k.size), eps=float(eps_k),
        x=x, y=y, z=z, lam=lam, gammas=list(gammas), history=history,
        events=events, params=params, seconds=time.perf_counter() - t_start,
        theta=theta, k0=k0, cbar=cbar, certificate=certificate,
    )
