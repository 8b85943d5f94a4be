"""Named verification suites.

Each suite runs a small, fixed study and returns ``CheckRow`` records,
one per verified inequality or identity.  The command line front end
writes them to CSV and folds the pass flags into its exit code; tests
call them directly.  Instances are deliberately small so every suite
finishes in seconds.
"""

import logging

import numpy as np

from .blockspace import BlockTriangular, BlockVector
from .diagnostics import (
    CheckRow,
    decay_rows,
    ergodic_rows,
    rate_fit,
    strong_rows,
    two_step_ratio,
)
from .errors import ConfigError
from .inner import InnerConfig, run_inner
from .oracle import subproblem_minimizer
from .outer import SolverParams, solve
from .problems import from_id
from .proxlib import l1_prox, quadratic, zero_prox

log = logging.getLogger(__name__)

SUITES = ("inner", "decay", "ergodic", "strong", "linear", "operators")

# thresholds shared with the test suite
ADJOINT_TOL = 1e-10
ORTHO_TOL = 1e-12
BACKSUB_TOL = 1e-10
PNORM_TOL = 1e-10
XI_TOL = 1e-9
LEMMA_SLACK = 1e-8
ERGODIC_SLOPE = -1.0 + 0.15
STRONG_SLOPE = -2.0 + 0.2
DENSE_ORACLE_MAX_DIM = 400


def _row(name, index, lhs, rhs, slack=0.0):
    return CheckRow(name, int(index), float(lhs), float(rhs), float(slack),
                    bool(lhs <= rhs + slack))


def operator_rows(entry, rng=None):
    """Adjoint, orthonormality, back-substitution and P-norm checks.

    Works on any corpus entry; each adjoint check takes the worst of 20
    random pairs.  The dense P-norm oracle is skipped for
    problems whose total dimension makes assembling M unreasonable.
    """
    rng = np.random.default_rng(0x0B5E) if rng is None else rng
    problem = entry.problem
    rows = []
    for i, blk in enumerate(problem.blocks):
        op = blk.op
        worst = 0.0
        for _ in range(20):
            u = rng.standard_normal(op.cols)
            v = rng.standard_normal(op.rows)
            lhs = float(v @ op.apply(u))
            rhs = float(op.adjoint(v) @ u)
            scale = 1.0 + abs(lhs) + abs(rhs)
            worst = max(worst, abs(lhs - rhs) / scale)
        rows.append(_row("adjoint-block%d" % i, 0, worst, ADJOINT_TOL))
        # orthonormal parts expose an inverse pair through these identities
        parts = op.parts if op.kind == "vertical-stack" else [op]
        for part in parts:
            if part.kind != "orthonormal-wavelet":
                continue
            x = rng.standard_normal(part.cols)
            w = rng.standard_normal(part.rows)
            syn = np.linalg.norm(part.apply(part.adjoint(w)) - w)
            ana = np.linalg.norm(part.adjoint(part.apply(x)) - x)
            rows.append(_row("orthonormal-block%d" % i, 0, max(syn, ana),
                             ORTHO_TOL))

    gammas = entry.problem.gammas_power()
    M = BlockTriangular(gammas, list(problem.ops()))
    y = BlockVector.from_flat(rng.standard_normal(problem.n), problem.dims)
    z = BlockVector.from_flat(rng.standard_normal(problem.n), problem.dims)
    alpha = 0.7
    d = M.back_substitute(y, z, alpha) - y
    target = (z - y) * alpha
    for i in range(problem.m):
        target.blocks[i] = gammas[i] * target.blocks[i]
    resid = (M.apply_mt(d) - target).norm()
    rows.append(_row("back-substitution", 0, resid,
                     BACKSUB_TOL * (1.0 + target.norm())))

    if problem.n <= DENSE_ORACLE_MAX_DIM:
        dense_M = M.to_dense()
        dense_P = dense_M @ np.diag(np.repeat(1.0 / np.asarray(gammas),
                                              problem.dims)) @ dense_M.T
        w = rng.standard_normal(problem.n)
        wb = BlockVector.from_flat(w, problem.dims)
        lhs = M.p_norm_sq(wb)
        rhs = float(w @ (dense_P @ w))
        rows.append(_row("p-norm-dense", 0, abs(lhs - rhs),
                         PNORM_TOL * (1.0 + abs(rhs))))
    return rows


def _random_subproblem(rng, dim=6):
    """One strongly convex block: quadratic f plus an l1 term."""
    G = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    H = G.T @ G + 0.5 * np.eye(dim)
    c = rng.standard_normal(dim)
    from .blockspace import DenseMap
    from .problem import Block

    A = DenseMap(rng.standard_normal((dim + 2, dim)) / np.sqrt(dim))
    weight = 0.1 if rng.random() < 0.5 else 0.0
    nonsmooth = l1_prox(weight) if weight else zero_prox()
    return Block(quadratic(H, c, modulus=0.5), nonsmooth, A)


def inner_rows(seed=0):
    """Step-size coupling and the per-block convergence estimate.

    For each of 6 random strongly convex subproblems per rule one forced,
    traced 40-iteration run gives every prefix L = 1..40; the estimate
    ``(rho*gamma_i + L*mu_h/2)*||a - xbar||^2 + (sigma/gamma)*sum xi*||du||^2``
    must stay below ``||x - xbar||^2 / gamma`` (plus slack) for every L,
    with xbar supplied by an independent minimizer.
    """
    subproblems, max_len = 6, 40
    rng = np.random.default_rng([seed, 0x1A11])
    rows = []
    for rule in ("constant", "adaptive"):
        worst_xi = 0.0
        for s in range(subproblems):
            blk = _random_subproblem(rng)
            dim = blk.dim
            y_i = rng.standard_normal(dim)
            x_i = y_i + rng.standard_normal(dim)
            lam = rng.standard_normal(blk.op.rows)
            b_i = rng.standard_normal(blk.op.rows)
            rho, gamma_i = 1.0, 2.0
            cfg = InnerConfig(rule=rule, sigma=0.9)
            xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
            mu_h = blk.nonsmooth.modulus
            start_sq = float((x_i - xbar) @ (x_i - xbar))
            _, tr = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i,
                              cfg, Gamma_prev=0.0, psi_eps=np.inf,
                              force_iters=max_len, trace=True)
            worst_xi = max(worst_xi, float(np.max(np.abs(np.asarray(tr.xis) - 1.0))))
            worst_gap, acc = -np.inf, 0.0
            for L in range(1, max_len + 1):
                du = tr.us[L] - tr.us[L - 1]
                acc += tr.xis[L - 1] * float(du @ du)
                a_gap = tr.a_s[L - 1] - xbar
                lhs = ((rho * gamma_i + 0.5 * mu_h * L) * float(a_gap @ a_gap)
                       + cfg.sigma / tr.gammas[L - 1] * acc)
                rhs = start_sq / tr.gammas[L - 1]
                worst_gap = max(worst_gap, lhs - rhs)
            rows.append(_row("inner-estimate-%s-%d" % (rule, s), max_len,
                             worst_gap, 0.0, LEMMA_SLACK))
        rows.append(_row("xi-coupling-%s" % rule, subproblems, worst_xi,
                         XI_TOL))
    return rows


def _tracked_solve(problem_id, **params):
    """Solve a corpus entry with its certified reference tracked."""
    entry = from_id(problem_id)
    if entry.reference is None:
        raise ConfigError("suite needs a certified reference: %s" % problem_id)
    return solve(entry.problem, SolverParams(**params), ref=entry.reference)


def decay_suite_rows(problem_id="qp-2-m2"):
    """Per-sweep energy decrease on a reference-tracked quadratic run."""
    return decay_rows(_tracked_solve(problem_id, alpha=0.5, tol=0.0, max_outer=400))


def ergodic_suite_rows(problem_id="qp-3-m2"):
    """Averaged-iterate gap bound plus its fitted decay slope."""
    iters = 600
    report = _tracked_solve(problem_id, alpha=0.5, tol=0.0, max_outer=iters)
    rows = ergodic_rows(report)
    fit = rate_fit(report.history.k, report.history.erg_gap, (50, iters))
    rows.append(_row("ergodic-slope", iters, fit.slope, ERGODIC_SLOPE))
    return rows


def _floored_fit(ks, vals, lo, hi, floor):
    vals = np.asarray(vals, dtype=float)
    ks = np.asarray(ks, dtype=float)
    ok = np.isfinite(vals) & (vals > floor)
    if not ok.any():
        raise ConfigError("series vanished before the fit window")
    hi = min(hi, int(np.max(ks[ok])))
    return rate_fit(ks[ok], vals[ok], (lo, hi)), hi


def strong_suite_rows(problem_id="qp-2-m2-mu0.5"):
    """Growing-penalty bounds, schedule monotonicity and slope fits."""
    iters = 300
    report = _tracked_solve(problem_id, mode="strong", alpha=0.5, tol=0.0, max_outer=iters)
    rows = strong_rows(report)
    h = report.history
    fit_w, hi_w = _floored_fit(h.k, h.w_gap, 20, iters, 1e-16)
    rows.append(_row("weighted-gap-slope", hi_w, fit_w.slope, STRONG_SLOPE))
    fit_y, hi_y = _floored_fit(h.k, h.y_err_sq, 20, iters, 1e-18)
    rows.append(_row("y-error-slope", hi_y, fit_y.slope, STRONG_SLOPE))
    return rows


def linear_suite_rows(problem_id="lasso-1"):
    """Geometric tail of the best-case energy on a polyhedral problem."""
    report = _tracked_solve(problem_id, alpha=0.8, tol=1e-9, max_outer=50_000)
    ratios, tail_max = two_step_ratio(report.history.E)
    if tail_max is None:
        raise ConfigError("energy tail too short for the ratio test")
    rows = [_row("two-step-tail-max", report.iterations, tail_max, 1.0)]
    rows.append(_row("terminated", report.iterations,
                     0.0 if report.cause == "tolerance" else 1.0, 0.0))
    return rows


def operators_suite_rows(problem_id=None, seed=0):
    """Operator checks over the default corpus or one named entry."""
    ids = [problem_id] if problem_id else ["qp-1-m2", "lasso-1", "img-0-s32"]
    rng = np.random.default_rng([seed, 0x09E5])
    rows = []
    for ident in ids:
        entry = from_id(ident)
        for r in operator_rows(entry, rng=rng):
            rows.append(CheckRow("%s[%s]" % (r.name, ident), r.index,
                                 r.lhs, r.rhs, r.slack, r.passed))
    return rows


def run_suite(name, problem_id=None, seed=0):
    """Dispatch a named suite; unknown names raise ``ConfigError``."""
    if name == "inner":
        return inner_rows(seed=seed)
    if name == "decay":
        return decay_suite_rows(problem_id or "qp-2-m2")
    if name == "ergodic":
        return ergodic_suite_rows(problem_id or "qp-3-m2")
    if name == "strong":
        return strong_suite_rows(problem_id or "qp-2-m2-mu0.5")
    if name == "linear":
        return linear_suite_rows(problem_id or "lasso-1")
    if name == "operators":
        return operators_suite_rows(problem_id, seed=seed)
    raise ConfigError("unknown suite %r (choices: %s)" % (name, ", ".join(SUITES)))
