"""Acceptance gate: ten numbered criteria, one printed line each.

Every criterion prints ``[criterion N] PASS/FAIL <detail>`` through the
capture bypass so the line lands in plain test logs, then asserts.
Shared solver runs live in session fixtures: criteria 3 and 4 reuse the
same ten tracked runs, criterion 8 reuses criterion 5's instances.
"""

import time

import numpy as np
import pytest

from iadmm.blockspace import BlockTriangular, BlockVector, DenseMap
from iadmm.diagnostics import (
    decay_rows,
    ergodic_rows,
    kkt_error,
    rate_fit,
    strong_rows,
    two_step_ratio,
)
from iadmm.inner import InnerConfig, run_inner
from iadmm.oracle import solve_qp_kkt, subproblem_minimizer
from iadmm.outer import SolverParams, solve
from iadmm.problem import Block, ProblemSpec
from iadmm.problems import from_id, gen_lasso, gen_qp
from iadmm.proxlib import l1_prox, quadratic, zero_prox
from iadmm.suites import _floored_fit, _random_subproblem

QP_IDS = ["qp-%d-m%d" % (s, 2 + s % 2) for s in range(1, 11)]
STRONG_IDS = ["qp-%d-m%d-mu0.5" % (s, 2 + s % 2) for s in range(1, 6)]
LASSO_IDS = ["lasso-%d" % s for s in range(1, 6)]
CORPUS_IDS = ["qp-1-m2", "qp-2-m3", "qp-3-m2", "lasso-1", "img-0-s32"]


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print("[criterion %2d] %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "[criterion %d] %s" % (num, detail)


@pytest.fixture(scope="session")
def qp_entries():
    return [from_id(i) for i in QP_IDS]


@pytest.fixture(scope="session")
def convex_runs(qp_entries):
    t0 = time.perf_counter()
    reports = []
    for entry in qp_entries:
        params = SolverParams(mode="convex", rule="adaptive", rho=1.0,
                              alpha=0.5, tol=0.0, max_outer=2100)
        reports.append(solve(entry.problem, params, ref=entry.reference))
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def strong_entries():
    return [from_id(i) for i in STRONG_IDS]


@pytest.fixture(scope="session")
def strong_runs(strong_entries):
    t0 = time.perf_counter()
    reports = []
    for entry in strong_entries:
        params = SolverParams(mode="strong", rule="adaptive", rho=1.0,
                              alpha=0.5, tol=0.0, max_outer=450)
        reports.append(solve(entry.problem, params, ref=entry.reference))
    return reports, time.perf_counter() - t0


def test_criterion_01_step_size_coupling(qp_entries, capsys):
    # delta^l alpha^l gamma^l stays 1 to 1e-9 across rules and problems
    t0 = time.perf_counter()
    worst, count = 0.0, 0
    for entry in qp_entries:
        problem = entry.problem
        rng = np.random.default_rng(entry.seed)
        for rule in ("constant", "adaptive"):
            cfg = InnerConfig(rule=rule, sigma=0.99)
            for i, blk in enumerate(problem.blocks):
                x_i = rng.standard_normal(blk.dim)
                y_i = np.zeros(blk.dim)
                lam = np.zeros(problem.rhs_dim)
                _, tr = run_inner(blk, x_i, y_i, lam, problem.b, 1.0,
                                  problem.gammas_power()[i], cfg,
                                  Gamma_prev=0.0, psi_eps=np.inf,
                                  force_iters=50, trace=True)
                xis = np.asarray(tr.xis)
                worst = max(worst, float(np.max(np.abs(xis - 1.0))))
                count += xis.size
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and count >= 1000 and dt < 10.0
    _emit(capsys, 1, ok,
          "step-size coupling: max|xi-1|=%.2e over %d inner iterations (%.1fs)"
          % (worst, count, dt))


def test_criterion_02_inner_estimate(capsys):
    # the per-block convergence estimate holds at every prefix length
    # against an independently computed minimizer
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACC2)
    worst = -np.inf
    checked = 0
    for s in range(20):
        blk = _random_subproblem(rng)
        dim = blk.dim
        y_i = rng.standard_normal(dim)
        x_i = y_i + rng.standard_normal(dim)
        lam = rng.standard_normal(blk.op.rows)
        b_i = rng.standard_normal(blk.op.rows)
        rho, gamma_i = 1.0, 2.0
        xbar = subproblem_minimizer(blk, y_i, lam, b_i, rho, gamma_i)
        start_sq = float((x_i - xbar) @ (x_i - xbar))
        mu_h = blk.nonsmooth.modulus
        for rule in ("constant", "adaptive"):
            cfg = InnerConfig(rule=rule, sigma=0.9)
            _, tr = run_inner(blk, x_i, y_i, lam, b_i, rho, gamma_i, cfg,
                              Gamma_prev=0.0, psi_eps=np.inf,
                              force_iters=60, trace=True)
            acc = 0.0
            for L in range(1, 61):
                du = tr.us[L] - tr.us[L - 1]
                acc += tr.xis[L - 1] * float(du @ du)
                gap_sq = float((tr.a_s[L - 1] - xbar) @ (tr.a_s[L - 1] - xbar))
                lhs = ((rho * gamma_i + 0.5 * mu_h * L) * gap_sq
                       + cfg.sigma / tr.gammas[L - 1] * acc)
                rhs = start_sq / tr.gammas[L - 1]
                worst = max(worst, lhs - rhs)
                checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 30.0
    _emit(capsys, 2, ok,
          "inner estimate: worst lhs-rhs=%.2e over %d prefix checks (%.1fs)"
          % (worst, checked, dt))


def test_criterion_03_energy_decay(convex_runs, capsys):
    reports, dt = convex_runs
    fails, total = 0, 0
    for rep in reports:
        rows = decay_rows(rep)
        total += len(rows)
        fails += sum(not r.passed for r in rows)
    ok = fails == 0 and dt < 60.0
    _emit(capsys, 3, ok,
          "energy decay: %d/%d per-sweep rows pass on %d tracked runs (%.1fs)"
          % (total - fails, total, len(reports), dt))


def test_criterion_04_averaged_gap(convex_runs, capsys):
    reports, _ = convex_runs
    fails, total = 0, 0
    slopes = []
    for rep in reports:
        rows = ergodic_rows(rep)
        total += len(rows)
        fails += sum(not r.passed for r in rows)
        fit = rate_fit(rep.history.k, rep.history.erg_gap, (50, 2000))
        slopes.append(fit.slope)
    worst_slope = max(slopes)
    ok = fails == 0 and worst_slope <= -1.0 + 0.15
    _emit(capsys, 4, ok,
          "averaged gap: %d/%d pointwise rows pass, slopes in [%.2f, %.2f]"
          % (total - fails, total, min(slopes), worst_slope))


def test_criterion_05_accelerated_rate(strong_runs, capsys):
    reports, dt = strong_runs
    fails, total = 0, 0
    worst_w, worst_y = -np.inf, -np.inf
    for rep in reports:
        rows = strong_rows(rep)
        total += len(rows)
        fails += sum(not r.passed for r in rows)
        h = rep.history
        fit_w, _ = _floored_fit(h.k, h.w_gap, 20, 450, 1e-16)
        fit_y, _ = _floored_fit(h.k, h.y_err_sq, 20, 450, 1e-18)
        worst_w = max(worst_w, fit_w.slope)
        worst_y = max(worst_y, fit_y.slope)
    ok = (fails == 0 and worst_w <= -2.0 + 0.2 and worst_y <= -2.0 + 0.2
          and dt < 120.0)
    _emit(capsys, 5, ok,
          "accelerated rate: %d/%d rows pass, gap slope<=%.2f, "
          "y-error slope<=%.2f (%.1fs)"
          % (total - fails, total, worst_w, worst_y, dt))


def test_criterion_06_oracle_start(qp_entries, capsys):
    # warm-starting at a certified pair stops after a single sweep; the
    # combined residual is zero at float scale and the returned point
    # still certifies
    worst_eps_rel, worst_kkt, bad = 0.0, 0.0, 0
    for entry in qp_entries:
        ref = entry.reference
        params = SolverParams(mode="convex", rule="adaptive", rho=1.0,
                              alpha=0.5, tol=1e-8, x0=ref.x_star.copy(),
                              lam0=ref.lam_star.copy())
        rep = solve(entry.problem, params)
        scale = 1.0 + float(np.linalg.norm(ref.x_star.to_flat()))
        kkt = kkt_error(rep.x, rep.lam, entry.problem)
        worst_eps_rel = max(worst_eps_rel, rep.eps / scale)
        worst_kkt = max(worst_kkt, kkt)
        if rep.iterations != 1 or rep.eps > 1e-12 * scale or kkt > 1e-8:
            bad += 1
    # integer-data fixture where every float operation is exact: the
    # residual must vanish bitwise
    blocks = [Block(quadratic(np.eye(1), np.zeros(1)), zero_prox(),
                    DenseMap(np.eye(1))) for _ in range(2)]
    hand = ProblemSpec(blocks, np.array([2.0]))
    ref = solve_qp_kkt(hand)
    rep = solve(hand, SolverParams(mode="convex", rule="adaptive", rho=1.0,
                                   alpha=0.5, tol=1e-8,
                                   x0=ref.x_star.copy(),
                                   lam0=ref.lam_star.copy()))
    exact_zero = (rep.cause == "exact-zero-eps" and rep.eps == 0.0
                  and rep.certificate["kkt"] == 0.0)
    ok = bad == 0 and exact_zero
    _emit(capsys, 6, ok,
          "oracle start: 10/10 stop at k=1 (worst eps/scale=%.1e, "
          "worst kkt=%.1e), integer fixture eps==0.0 bitwise: %s"
          % (worst_eps_rel, worst_kkt, exact_zero))


def test_criterion_07_geometric_tail(capsys):
    # best-case energy on the l1 corpus decays geometrically: the
    # two-step ratio tail stays below 1; full series printed for review
    t0 = time.perf_counter()
    tails = []
    all_ok = True
    with capsys.disabled():
        for ident in LASSO_IDS:
            entry = from_id(ident)
            params = SolverParams(mode="convex", rule="adaptive", rho=1.0,
                                  alpha=0.8, tol=1e-9, max_outer=50_000)
            rep = solve(entry.problem, params, ref=entry.reference)
            ratios, tail_max = two_step_ratio(rep.history.E)
            tails.append(tail_max)
            all_ok = all_ok and tail_max is not None and tail_max < 1.0
            print("  %s: %d sweeps, two-step ratio tail max %.4f, full series:"
                  % (ident, rep.iterations, tail_max))
            for base in range(0, ratios.size, 12):
                chunk = ratios[base:base + 12]
                print("    " + " ".join("%.4f" % v for v in chunk))
    dt = time.perf_counter() - t0
    ok = all_ok
    _emit(capsys, 7, ok,
          "geometric tail: max two-step ratio %.4f over %d problems (%.1fs)"
          % (max(tails), len(tails), dt))


def test_criterion_08_cross_mode_agreement(strong_entries, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for entry in strong_entries:
        base = dict(rho=1.0, alpha=0.5, tol=1e-10, max_outer=50_000)
        rep_in = solve(entry.problem, SolverParams(mode="convex", **base))
        rep_ex = solve(entry.problem, SolverParams(mode="exact", **base))
        worst = max(worst, (rep_in.z - rep_ex.z).norm())
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6
    _emit(capsys, 8, ok,
          "cross-mode agreement: worst point gap %.2e over %d problems (%.1fs)"
          % (worst, len(strong_entries), dt))


def test_criterion_09_imaging_integration(capsys):
    entry = from_id("img-0-s32")
    params = SolverParams(mode="convex", rule="adaptive", rho=1.0, alpha=0.9,
                          gamma_mode="safeguard", tol=1e-6, max_outer=20_000)
    rep = solve(entry.problem, params)
    bumps = [e for e in rep.events if e["event"] == "gamma-safeguard"]
    erg = np.asarray(rep.history.erg_obj)
    noise = 1e-10 * (1.0 + abs(float(erg[0])))
    increases = int(np.sum(np.diff(erg) > noise))
    ok = (rep.cause == "tolerance" and rep.seconds < 60.0
          and len(bumps) <= 10 and increases == 0)
    _emit(capsys, 9, ok,
          "imaging integration: %s in %d sweeps, %.1fs, %d safeguard "
          "activations, %d averaged-objective increases"
          % (rep.cause, rep.iterations, rep.seconds, len(bumps), increases))


def _mt_dense(problem, gammas):
    ops = list(problem.ops())
    dims = list(problem.dims)
    offs = np.cumsum([0] + dims)
    n = problem.n
    Md = np.zeros((n, n))
    dense_ops = [op.to_dense() for op in ops]
    for i in range(problem.m):
        Md[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = (
            gammas[i] * np.eye(dims[i]))
        for j in range(i):
            Md[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = (
                dense_ops[i].T @ dense_ops[j])
    return Md, offs


def test_criterion_10_operator_layer(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACC0)
    worst = {"adjoint": 0.0, "ortho": 0.0, "backsub": 0.0, "pnorm": 0.0}
    for ident in CORPUS_IDS:
        entry = from_id(ident)
        problem = entry.problem
        for blk in problem.blocks:
            op = blk.op
            for _ in range(100):
                u = rng.standard_normal(op.cols)
                v = rng.standard_normal(op.rows)
                lhs = float(v @ op.apply(u))
                rhs = float(op.adjoint(v) @ u)
                worst["adjoint"] = max(
                    worst["adjoint"],
                    abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
            if op.kind == "vertical-stack":
                for part in op.parts:
                    if part.kind == "orthonormal-wavelet":
                        x = rng.standard_normal(part.cols)
                        w = rng.standard_normal(part.rows)
                        worst["ortho"] = max(
                            worst["ortho"],
                            float(np.linalg.norm(part.adjoint(part.apply(x)) - x)),
                            float(np.linalg.norm(part.apply(part.adjoint(w)) - w)))
        gammas = problem.gammas_power()
        M = BlockTriangular(gammas, list(problem.ops()))
        y = BlockVector.from_flat(rng.standard_normal(problem.n), problem.dims)
        z = BlockVector.from_flat(rng.standard_normal(problem.n), problem.dims)
        alpha = 0.7
        d = M.back_substitute(y, z, alpha) - y
        target = (z - y) * alpha
        for i, g in enumerate(gammas):
            target.blocks[i] = g * target.blocks[i]
        resid = (M.apply_mt(d) - target).norm() / (1.0 + target.norm())
        worst["backsub"] = max(worst["backsub"], resid)
        # dense oracle for the weighted norm: the triangular factor is
        # assembled densely, the quadratic form evaluated through it
        Md, offs = _mt_dense(problem, gammas)
        for _ in range(5):
            w = rng.standard_normal(problem.n)
            t = Md.T @ w
            truth = sum(
                float(t[offs[i]:offs[i + 1]] @ t[offs[i]:offs[i + 1]])
                / gammas[i] for i in range(problem.m))
            got = M.p_norm_sq(BlockVector.from_flat(w, problem.dims))
            worst["pnorm"] = max(worst["pnorm"],
                                 abs(got - truth) / (1.0 + abs(truth)))
    dt = time.perf_counter() - t0
    ok = (worst["adjoint"] <= 1e-10 and worst["ortho"] <= 1e-12
          and worst["backsub"] <= 1e-10 and worst["pnorm"] <= 1e-10)
    _emit(capsys, 10, ok,
          "operator layer: adjoint %.1e, orthonormality %.1e, "
          "back-substitution %.1e, weighted-norm %.1e over %d entries (%.1fs)"
          % (worst["adjoint"], worst["ortho"], worst["backsub"],
             worst["pnorm"], len(CORPUS_IDS), dt))
