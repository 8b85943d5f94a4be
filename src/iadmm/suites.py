"""Named verification suites.

Each suite runs a small, fixed study and returns ``CheckRow`` records,
one per verified inequality or identity.  The command line front end
writes them to CSV and folds the pass flags into its exit code; tests
call them directly.  ``rates`` writes the rows of :func:`rate_rows`, and
the suites check them.  Instances are deliberately small so every suite
finishes in seconds.
"""

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
from .errors import ConfigError, check_count
from .inner import run_inner
from .oracle import subproblem_minimizer
from .outer import SolverParams, solve
from .problems import from_id
from .proxlib import l1_prox, quadratic, zero_prox

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
# check names of the rate-study series that the suites verify
SLOPE_CHECKS = {"ergodic-gap": "ergodic-slope", "weighted-gap": "weighted-gap-slope",
                "y-error-sq": "y-error-slope"}
DENSE_ORACLE_MAX_DIM = 400


def _row(name, index, lhs, rhs, slack=0.0):
    return CheckRow(name, int(index), float(lhs), float(rhs), float(slack),
                    bool(lhs <= rhs + slack))


def operator_rows(entry, rng):
    """Adjoint, orthonormality, back-substitution and P-norm checks.

    Works on any corpus entry; each adjoint check takes the worst of 20
    random pairs drawn from ``rng``.  The dense P-norm oracle is skipped
    for problems whose total dimension makes assembling M unreasonable.
    """
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
        dense_P = M.p_dense()
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
            params = SolverParams(rule=rule, sigma=0.9)
            xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
            mu_h = blk.nonsmooth.modulus
            start_sq = float((x_i - xbar) @ (x_i - xbar))
            _, tr = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i,
                              params, Gamma_prev=0.0, psi_eps=np.inf,
                              force_iters=max_len, trace=True)
            worst_xi = max(worst_xi, float(np.max(np.abs(np.asarray(tr.xis) - 1.0))))
            worst_gap, acc = -np.inf, 0.0
            for L in range(1, max_len + 1):
                du = tr.us[L] - tr.us[L - 1]
                acc += tr.xis[L - 1] * float(du @ du)
                a_gap = tr.a_s[L - 1] - xbar
                lhs = ((rho * gamma_i + 0.5 * mu_h * L) * float(a_gap @ a_gap)
                       + params.sigma / tr.gammas[L - 1] * acc)
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


def _floored_fit(ks, vals, lo, hi, floor):
    vals = np.asarray(vals, dtype=float)
    ks = np.asarray(ks, dtype=float)
    ok = np.isfinite(vals) & (vals > floor)
    if not ok.any():
        raise ConfigError("series vanished before the fit window")
    hi = min(hi, int(np.max(ks[ok])))
    return rate_fit(ks[ok], vals[ok], (lo, hi)), hi


def _fit_row(series, ks, vals, lo, hi, threshold, floor):
    fit, hi = _floored_fit(ks, vals, lo, hi, floor)
    return (series, lo, hi, fit.slope, threshold, fit.slope <= threshold)


def tail_row(E):
    """Two-step energy ratio row, cut before rounding noise; ``None`` if too short.

    Passes only when the largest of the last 50 ratios is below one.
    """
    ratios, tail_max = two_step_ratio(E, rel_floor=1e-22)
    if tail_max is None:
        return None
    # the ratios end where two_step_ratio cut the series
    hi = ratios.size + 2
    return ("two-step-tail-max", max(1, hi - 52), hi, tail_max, 1.0, tail_max < 1.0)


def rate_rows(report, polyhedral=False):
    """Rate study of a tracked run: ``(series, window_lo, window_hi, value, threshold, pass)``.

    Strong mode fits the weighted-average gap and the squared error of
    ``y`` over ``[20, max_outer]``; a fixed penalty fits the ergodic gap
    over ``[50, min(2000, max_outer)]`` and adds :func:`tail_row` on a
    polyhedral problem.  Each window ends at the last value above its floor.
    """
    h, horizon = report.history, report.params.max_outer
    if report.params.mode == "strong":
        return [
            _fit_row("weighted-gap", h.k, h.w_gap, 20, horizon, STRONG_SLOPE, 1e-16),
            _fit_row("y-error-sq", h.k, h.y_err_sq, 20, horizon, STRONG_SLOPE, 1e-18),
        ]
    rows = [_fit_row("ergodic-gap", h.k, h.erg_gap, 50, min(2000, horizon), ERGODIC_SLOPE, 0.0)]
    tail = tail_row(h.E) if polyhedral else None
    return rows + ([tail] if tail else [])


def _check_rows(rows):
    """Rate-study rows as check rows, indexed by the end of their window."""
    return [CheckRow(SLOPE_CHECKS.get(series, series), hi, value, threshold, 0.0, ok)
            for series, _, hi, value, threshold, ok in rows]


def run_suite(name, problem_id=None, seed=None):
    """Run a named suite on its default problems or on ``problem_id``.

    ``seed`` (default 0) seeds the ``inner`` and ``operators`` suites, the
    only ones that draw at random.  An unknown name, a problem id for the
    ``inner`` suite (which draws random subproblems), a seed for any other
    suite, or a seed that is not an integer of at least 0 raises
    ``ConfigError``.
    """
    if seed is not None and name in SUITES and name not in ("inner", "operators"):
        raise ConfigError("suite %r draws nothing at random and takes no seed (got %r)"
                          % (name, seed))
    seed = 0 if seed is None else seed
    check_count("seed", seed, least=0)
    if name == "inner":
        if problem_id is not None:
            raise ConfigError("suite 'inner' takes no problem id (got %r)" % (problem_id,))
        return inner_rows(seed=seed)
    if name == "decay":
        # per-sweep energy decrease
        return decay_rows(_tracked_solve(problem_id or "qp-2-m2", alpha=0.5, tol=0.0,
                                         max_outer=400))
    if name == "ergodic":
        # averaged-iterate gap bound plus its fitted slope
        report = _tracked_solve(problem_id or "qp-3-m2", alpha=0.5, tol=0.0, max_outer=600)
        return ergodic_rows(report) + _check_rows(rate_rows(report))
    if name == "strong":
        # growing-penalty bounds, schedule monotonicity and slope fits
        report = _tracked_solve(problem_id or "qp-2-m2-mu0.5", mode="strong", alpha=0.5,
                                tol=0.0, max_outer=300)
        return strong_rows(report) + _check_rows(rate_rows(report))
    if name == "linear":
        # geometric tail of the energy on a polyhedral problem
        report = _tracked_solve(problem_id or "lasso-1", alpha=0.8, tol=1e-9, max_outer=50_000)
        tail = tail_row(report.history.E)
        if tail is None:
            raise ConfigError("energy tail too short for the ratio test")
        return _check_rows([tail]) + [_row("terminated", report.iterations,
                                           0.0 if report.cause == "tolerance" else 1.0, 0.0)]
    if name == "operators":
        rng = np.random.default_rng([seed, 0x09E5])
        rows = []
        for ident in [problem_id] if problem_id else ["qp-1-m2", "lasso-1", "img-0-s32"]:
            for r in operator_rows(from_id(ident), rng):
                rows.append(CheckRow("%s[%s]" % (r.name, ident), r.index,
                                     r.lhs, r.rhs, r.slack, r.passed))
        return rows
    raise ConfigError("unknown suite %r (choices: %s)" % (name, ", ".join(SUITES)))
