"""Optimality measures, merit energies, rate fits, and check rows.

This module turns solver output into verifiable statements: a
first-order (KKT) error for any candidate pair, the Lyapunov-type energy
whose per-sweep decay certifies convergence, the Lagrangian gap (the
solver evaluates it at its running averages), log-log rate fits, and
two-step contraction ratios for the locally linear regime.  Check
builders emit uniform rows (name, index, lhs, rhs, slack, pass) that
can be written to CSV by the command-line verifier.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .blockspace import BlockVector, BlockTriangular
from .errors import CertificationError, ConfigError, StructuralError

log = logging.getLogger(__name__)

# slack of the energy-decay, ergodic-gap and accelerated-rate checks
BOUND_SLACK = 1e-8


def kkt_error(x, lam, problem, residual=None):
    """First-order optimality error of a primal-dual candidate.

    Sum of the constraint residual norm and, per block, the prox-residual
    ``||x_i - prox_{h_i}(x_i - grad f_i(x_i) - A_i^T lam)||`` with unit
    prox step.  Zero exactly at saddle points.  A caller that holds
    ``problem.residual(x)`` already passes it as ``residual``.
    """
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    r = problem.residual(x) if residual is None else residual
    total = math.sqrt(r.dot(r))
    for blk, xi in zip(problem.blocks, x.blocks):
        step = xi - (blk.smooth.grad(xi) + blk.op.adjoint(lam))
        d = xi - blk.nonsmooth.prox(step, 1.0)
        total += math.sqrt(d.dot(d))
    return total


class ReferencePair:
    """A primal-dual solution pair certified at construction.

    Construction fails with :class:`CertificationError`, naming the
    candidate's ``source``, unless the KKT error is at most ``1e-9``.
    The pair keeps ``source`` and its measured error ``kkt``.
    """

    def __init__(self, problem, x_star, lam_star, source="unknown"):
        if not isinstance(x_star, BlockVector):
            x_star = BlockVector(x_star)
        lam_star = np.asarray(lam_star, dtype=np.float64).reshape(-1)
        err = kkt_error(x_star, lam_star, problem)
        if not err <= 1e-9:
            raise CertificationError(
                "candidate pair from %r has KKT error %.3e > 1.0e-09" % (source, err),
                measured=err,
            )
        self.x_star = x_star.copy()
        self.lam_star = lam_star.copy()
        self.source = source
        self.kkt = err
        self.objective = problem.objective(self.x_star)


def energy(x, y, lam, ref, Gammas, rho, alpha, M: BlockTriangular):
    """Merit energy of the current state against a reference pair.

    ``rho ||y - x*||_P^2 + (1/rho) ||lam - lam*||^2
    + alpha * sum_i ||x_i - x_i*||^2 / Gamma_i``.
    """
    Gammas = [float(g) for g in Gammas]
    if any(g <= 0.0 for g in Gammas):
        raise StructuralError("energy needs positive accuracy weights")
    dy = y - ref.x_star
    dl = np.asarray(lam, dtype=np.float64) - ref.lam_star
    val = rho * M.p_norm_sq(dy) + float(dl @ dl) / rho
    for xi, xsi, g in zip(x.blocks, ref.x_star.blocks, Gammas):
        d = xi - xsi
        val += alpha * float(d @ d) / g
    return float(val)


def lagrangian_gap(z, ref, problem, objective=None, residual=None):
    """Gap ``L(z, lam*) - objective(x*)``; nonnegative for true references.

    A value below ``-1e-9 * (1 + |objective(x*)|)`` indicates a bad
    reference pair and is logged as a warning.  A caller that holds
    ``problem.objective(z)`` or ``problem.residual(z)`` already passes it
    as ``objective`` or ``residual``.
    """
    gap = problem.lagrangian(z, ref.lam_star, objective, residual) - ref.objective
    if gap < -1e-9 * (1.0 + abs(ref.objective)):
        log.warning("lagrangian gap %.3e is negative beyond noise; suspect reference", gap)
    return float(gap)


@dataclass
class RateFit:
    """Least-squares fit of ``log(value) = slope * log(k) + intercept``."""

    slope: float
    intercept: float
    residual: float
    window: tuple
    count: int


def rate_fit(ks, values, window):
    """Fit a power law to ``values`` over the index window ``[lo, hi]``.

    Raises :class:`ConfigError` when the window selects fewer than two
    points or any selected value is not strictly positive.
    """
    ks = np.asarray(ks, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    lo, hi = window
    mask = (ks >= lo) & (ks <= hi)
    if mask.sum() < 2:
        raise ConfigError("rate window [%s, %s] selects fewer than two points" % (lo, hi))
    kk, vv = ks[mask], values[mask]
    if np.any(~np.isfinite(vv)) or np.any(vv <= 0.0):
        raise ConfigError("rate fit needs strictly positive finite values in the window")
    X = np.column_stack([np.log(kk), np.ones(kk.size)])
    coef, res, _, _ = np.linalg.lstsq(X, np.log(vv), rcond=None)
    resid = float(np.sqrt(res[0] / kk.size)) if res.size else 0.0
    return RateFit(slope=float(coef[0]), intercept=float(coef[1]),
                   residual=resid, window=(float(lo), float(hi)), count=int(mask.sum()))


def two_step_ratio(series, rel_floor=None):
    """Elementwise ratios ``s[k+2] / s[k]`` and their max over the last 50.

    The series is truncated at the first entry below ``1e-300`` so that
    ratios never divide by numerically dead values; ``rel_floor``
    expresses the cut relative to the largest entry, which is the right
    scale when a geometric tail bottoms out in rounding noise.  Returns
    ``(ratios, tail_max)``; both are ``None`` when fewer than three
    usable entries remain.
    """
    s = np.asarray(series, dtype=np.float64)
    floor = 1e-300
    if rel_floor is not None and s.size and np.isfinite(s).any():
        floor = max(floor, float(np.nanmax(s)) * rel_floor)
    alive = np.nonzero(s < floor)[0]
    if alive.size:
        s = s[: alive[0]]
    if s.size < 3:
        return None, None
    ratios = s[2:] / s[:-2]
    return ratios, float(np.max(ratios[-50:]))


@dataclass
class CheckRow:
    """One verified inequality: ``lhs <= rhs + slack`` (or custom sense)."""

    name: str
    index: int
    lhs: float
    rhs: float
    slack: float
    passed: bool


def write_check_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "k", "lhs", "rhs", "slack", "pass"])
        for r in rows:
            w.writerow([r.name, r.index, "%.17g" % r.lhs, "%.17g" % r.rhs,
                        "%.17g" % r.slack, "true" if r.passed else "false"])


def all_passed(rows):
    return all(r.passed for r in rows)


def _require_fixed_weights(report, check):
    """Refuse a run outside the fixed-``rho``, fixed-``M`` hypotheses of the convex bounds.

    Strong mode grows the penalty every sweep and each ``gamma-safeguard``
    event grows a diagonal weight of ``M``; either changes the norms that
    the energy is measured in, so the bounds do not apply.
    """
    if report.params.mode == "strong":
        raise ConfigError("%s check needs a fixed-penalty run, not strong mode" % check)
    if any(ev["event"] == "gamma-safeguard" for ev in report.events):
        raise ConfigError("%s check needs fixed weights, but the gamma safeguard "
                          "changed them" % check)


def decay_rows(report):
    """Per-sweep energy decay rows for a run with a recorded reference.

    Checks ``E_k - E_{k+1} >= alpha (2 D_k + sigma R_k
    + rho (1 - alpha) (||y - z||_Q^2 + ||A z - b||^2))`` with slack
    ``BOUND_SLACK * (1 + E_k)`` for every recorded ``k`` except the last.
    A strong-mode run or one with a ``gamma-safeguard`` event raises
    :class:`ConfigError`: the bound needs a fixed penalty and fixed weights.
    """
    _require_fixed_weights(report, "decay")
    h = report.history
    E = h.E
    if E is None or np.any(~np.isfinite(E)):
        raise ConfigError("decay check needs a reference-tracked run")
    alpha, sigma = report.params.alpha, report.params.sigma
    rows = []
    for k in range(len(E) - 1):
        rho = h.rho[k]
        drop = E[k] - E[k + 1]
        need = alpha * (2.0 * h.delta_gap[k] + sigma * h.R[k]
                        + rho * (1.0 - alpha) * (h.q_gap_sq[k] + h.feas[k] ** 2))
        eps_slack = BOUND_SLACK * (1.0 + E[k])
        rows.append(CheckRow("energy-decay", k + 1, drop, need, eps_slack,
                             drop >= need - eps_slack))
    return rows


def ergodic_rows(report):
    """Averaged-gap rows: ``gap(zbar_t) <= E_1 / (2 alpha t) + BOUND_SLACK``.

    Like :func:`decay_rows`, refuses strong-mode and safeguarded runs.
    """
    _require_fixed_weights(report, "ergodic")
    h = report.history
    if h.erg_gap is None or h.E is None:
        raise ConfigError("ergodic check needs a reference-tracked run")
    E1 = h.E[0]
    alpha = report.params.alpha
    rows = []
    for t in range(1, len(h.erg_gap) + 1):
        lhs = h.erg_gap[t - 1]
        rhs = E1 / (2.0 * alpha * t)
        rows.append(CheckRow("ergodic-gap", t, lhs, rhs, BOUND_SLACK,
                             lhs <= rhs + BOUND_SLACK))
    return rows


def strong_rows(report):
    """Accelerated-rate rows for growing-penalty runs.

    Checks the weighted-average gap against
    ``2 cbar / (alpha (t (t + 1) + 2 k0 t))`` and the corrected-point
    error ``||y_{t+1} - x*||^2`` against ``cbar / ((t + k0)^2 theta)``,
    both with slack ``BOUND_SLACK * (1 + cbar)``, plus monotonicity of
    ``k / Gamma_i^k``.  ``cbar``, ``theta`` and ``k0`` need fixed weights,
    which every strong-mode run has: :class:`~iadmm.outer.SolverParams`
    refuses the gamma safeguard there.
    """
    h = report.history
    if h.w_gap is None or report.cbar is None:
        raise ConfigError("accelerated-rate check needs a growing-penalty run with a reference")
    alpha = report.params.alpha
    k0, theta, cbar = report.k0, report.theta, report.cbar
    eps = BOUND_SLACK * (1.0 + cbar)
    rows = []
    T = len(h.w_gap)
    for t in range(1, T + 1):
        lhs = h.w_gap[t - 1]
        rhs = 2.0 * cbar / (alpha * (t * (t + 1.0) + 2.0 * k0 * t))
        rows.append(CheckRow("weighted-gap", t, lhs, rhs, eps, lhs <= rhs + eps))
    for t in range(1, T + 1):
        lhs = h.y_err_sq[t - 1]
        if not np.isfinite(lhs):
            continue
        rhs = cbar / ((t + k0) ** 2 * theta)
        rows.append(CheckRow("y-error", t, lhs, rhs, eps, lhs <= rhs + eps))
    for i in range(len(h.Gammas[0])):
        for k in range(1, len(h.Gammas)):
            lhs = (k + 1) / h.Gammas[k][i]
            rhs = k / h.Gammas[k - 1][i]
            rows.append(CheckRow("gamma-growth-block%d" % (i + 1), k + 1,
                                 lhs, rhs, 1e-12 * (1.0 + rhs), lhs <= rhs + 1e-12 * (1.0 + rhs)))
    return rows
