"""Reference pairs, energies, averages, fits, and check-row plumbing."""

import csv

import numpy as np
import pytest

from iadmm.blockspace import BlockTriangular, BlockVector, DenseMap
from iadmm.diagnostics import (
    CheckRow,
    ReferencePair,
    all_passed,
    decay_rows,
    energy,
    ergodic_rows,
    kkt_error,
    lagrangian_gap,
    rate_fit,
    strong_rows,
    two_step_ratio,
    write_check_csv,
)
from iadmm.errors import CertificationError, ConfigError, StructuralError
from iadmm.oracle import solve_qp_kkt
from iadmm.outer import SolverParams, solve
from iadmm.problem import Block, ProblemSpec
from iadmm.problems import from_id, gen_qp
from iadmm.proxlib import l1_prox, quadratic, zero_prox


def _qp_problem(seed=0, m=2):
    return gen_qp(seed if seed else 50, m=m)


def test_kkt_error_vanishes_at_oracle():
    entry = _qp_problem()
    ref = entry.reference
    assert kkt_error(ref.x_star, ref.lam_star, entry.problem) <= 1e-9


def test_kkt_error_positive_away_from_solution():
    entry = _qp_problem()
    ref = entry.reference
    x = ref.x_star + BlockVector.from_flat(
        np.ones(entry.problem.n), entry.problem.dims)
    assert kkt_error(x, ref.lam_star, entry.problem) > 1e-3


def test_kkt_error_smooth_reduction():
    # with h == 0 the prox is the identity and the stationarity part
    # reduces to the plain gradient of the Lagrangian
    H = np.diag([2.0, 3.0])
    blk = Block(quadratic(H, np.array([1.0, -1.0])), zero_prox(),
                DenseMap(np.array([[1.0, 1.0]])))
    problem = ProblemSpec([blk], np.array([1.0]))
    x = BlockVector.from_flat(np.array([0.2, 0.8]), (2,))
    lam = np.array([0.7])
    grad = H @ x.blocks[0] + np.array([1.0, -1.0]) + np.array([0.7, 0.7])
    feas = abs(0.2 + 0.8 - 1.0)
    expected = feas + np.linalg.norm(grad)
    assert kkt_error(x, lam, problem) == pytest.approx(expected, rel=1e-12)


def test_reference_pair_rejects_bad_candidate():
    entry = _qp_problem()
    ref = entry.reference
    bad = ref.x_star + BlockVector.from_flat(
        np.ones(entry.problem.n), entry.problem.dims)
    with pytest.raises(CertificationError):
        ReferencePair(entry.problem, bad, ref.lam_star, source="test")


def _tri_for(problem, gammas):
    return BlockTriangular(gammas, list(problem.ops()))


def test_energy_zero_at_reference():
    entry = _qp_problem()
    ref = entry.reference
    gammas = entry.problem.gammas_power()
    M = _tri_for(entry.problem, gammas)
    E = energy(ref.x_star, ref.x_star, ref.lam_star, ref, (1.0, 1.0),
               rho=1.0, alpha=0.5, M=M)
    assert E == pytest.approx(0.0, abs=1e-18)


def test_energy_multiplier_offset_term():
    # with x = y = x*, only the multiplier term survives: (1/rho)||v||^2
    entry = _qp_problem()
    ref = entry.reference
    gammas = entry.problem.gammas_power()
    M = _tri_for(entry.problem, gammas)
    v = np.arange(1.0, entry.problem.rhs_dim + 1.0)
    rho = 2.0
    E = energy(ref.x_star, ref.x_star, ref.lam_star + v, ref, (1.0, 1.0),
               rho=rho, alpha=0.5, M=M)
    assert E == pytest.approx(float(v @ v) / rho, rel=1e-12)


def test_energy_matches_dense_oracle():
    rng = np.random.default_rng(0xE4E)
    entry = _qp_problem()
    problem, ref = entry.problem, entry.reference
    gammas = [2.0, 3.0]
    M = _tri_for(problem, gammas)
    dims = problem.dims
    ops = list(problem.ops())
    offs = np.cumsum([0] + list(dims))
    n = problem.n
    Md = np.zeros((n, n))
    for i in range(problem.m):
        Md[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = gammas[i] * np.eye(dims[i])
        for j in range(i):
            Md[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = (
                ops[i].to_dense().T @ ops[j].to_dense())
    Pd = Md @ np.diag(np.repeat(1.0 / np.asarray(gammas), dims)) @ Md.T
    rho, alpha = 1.5, 0.6
    Gammas = (0.7, 1.9)
    for _ in range(5):
        x = BlockVector.from_flat(rng.standard_normal(n), dims)
        y = BlockVector.from_flat(rng.standard_normal(n), dims)
        lam = rng.standard_normal(problem.rhs_dim)
        dy = y.to_flat() - ref.x_star.to_flat()
        dl = lam - ref.lam_star
        expected = rho * float(dy @ (Pd @ dy)) + float(dl @ dl) / rho
        expected += alpha * sum(
            float((x.blocks[i] - ref.x_star.blocks[i])
                  @ (x.blocks[i] - ref.x_star.blocks[i])) / Gammas[i]
            for i in range(2))
        got = energy(x, y, lam, ref, Gammas, rho, alpha, M)
        assert got == pytest.approx(expected, rel=1e-10)


def test_energy_rejects_nonpositive_gamma():
    entry = _qp_problem()
    ref = entry.reference
    M = _tri_for(entry.problem, entry.problem.gammas_power())
    with pytest.raises(StructuralError):
        energy(ref.x_star, ref.x_star, ref.lam_star, ref, (1.0, 0.0),
               1.0, 0.5, M)


def test_lagrangian_gap_at_and_away_from_solution():
    entry = _qp_problem()
    problem, ref = entry.problem, entry.reference
    assert lagrangian_gap(ref.x_star, ref, problem) == pytest.approx(
        0.0, abs=1e-9)
    z = ref.x_star + BlockVector.from_flat(np.ones(problem.n), problem.dims)
    assert lagrangian_gap(z, ref, problem) > 0.0


def ergodic_average(zs, t):
    """Plain average of the first ``t`` iterates (oracle for the running sum)."""
    acc = zs[0].copy()
    for z in zs[1:t]:
        acc = acc + z
    return acc * (1.0 / t)


def weighted_ergodic(zs, t, k0):
    """Average of the first ``t`` iterates with weights proportional to ``k0 + k``."""
    weights = np.array([k0 + k for k in range(1, t + 1)], dtype=np.float64)
    weights /= weights.sum()
    acc = zs[0] * weights[0]
    for wk, z in zip(weights[1:], zs[1:t]):
        acc = acc + z * wk
    return acc


def test_ergodic_average_arithmetic():
    dims = (2,)
    zs = [BlockVector.from_flat(np.array([float(k), 2.0 * k]), dims)
          for k in (1, 2, 3)]
    avg1 = ergodic_average(zs, 1)
    assert avg1.to_flat() == pytest.approx([1.0, 2.0])
    avg3 = ergodic_average(zs, 3)
    assert avg3.to_flat() == pytest.approx([2.0, 4.0])
    # a constant sequence averages to itself
    const = [BlockVector.from_flat(np.array([5.0, -1.0]), dims)] * 4
    assert ergodic_average(const, 4).to_flat() == pytest.approx([5.0, -1.0])


def test_weighted_ergodic_weights():
    # k0 = 0, t = 2: weights proportional to (k0+1, k0+2) = (1, 2)
    dims = (1,)
    zs = [BlockVector.from_flat(np.array([0.0]), dims),
          BlockVector.from_flat(np.array([3.0]), dims)]
    out = weighted_ergodic(zs, 2, k0=0.0)
    assert out.to_flat() == pytest.approx([2.0])
    # k0 = 1, t = 2: weights (2, 3)/5
    out = weighted_ergodic(zs, 2, k0=1.0)
    assert out.to_flat() == pytest.approx([9.0 / 5.0])


def test_running_averages_match_oracles():
    # the solver keeps running sums, not iterates: rebuild each average
    # from the lookahead points z_t of separate solves capped at t sweeps
    T = 8
    for ident, mode in (("qp-1-m2", "convex"), ("qp-2-m2-mu0.5", "strong")):
        entry = from_id(ident)
        problem, ref = entry.problem, entry.reference

        def run(t):
            params = SolverParams(mode=mode, alpha=0.5, tol=0.0, max_outer=t)
            return solve(problem, params, ref=ref)

        zs = [run(t).z for t in range(1, T + 1)]
        report = run(T)
        h = report.history
        for t in range(1, T + 1):
            avg = ergodic_average(zs, t)
            assert h.erg_obj[t - 1] == problem.objective(avg)
            assert h.erg_gap[t - 1] == lagrangian_gap(avg, ref, problem)
            if mode == "strong":
                wavg = weighted_ergodic(zs, t, report.k0)
                assert h.w_gap[t - 1] == pytest.approx(
                    lagrangian_gap(wavg, ref, problem), rel=1e-12)


def test_rate_fit_recovers_exact_power_laws():
    ks = np.arange(1, 501, dtype=float)
    for slope, scale in ((-1.0, 3.0), (-2.0, 0.7), (-0.5, 10.0)):
        vals = scale * ks ** slope
        fit = rate_fit(ks, vals, (10, 400))
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.intercept == pytest.approx(np.log(scale), abs=1e-6)
        assert fit.residual <= 1e-10
        assert fit.count == 391


def test_rate_fit_domain_errors():
    ks = np.arange(1, 50, dtype=float)
    with pytest.raises(ConfigError):
        rate_fit(ks, np.zeros(49), (1, 40))
    with pytest.raises(ConfigError):
        rate_fit(ks, np.ones(49), (45, 45))


def test_two_step_ratio_geometric_series():
    s = 10.0 * (0.5 ** np.arange(60))
    ratios, tail_max = two_step_ratio(s)
    assert tail_max == pytest.approx(0.25, rel=1e-12)
    assert ratios.size == 58


def test_two_step_ratio_truncates_dead_tail():
    s = np.concatenate([10.0 * (0.5 ** np.arange(40)), np.zeros(10)])
    ratios, tail_max = two_step_ratio(s)
    assert tail_max == pytest.approx(0.25, rel=1e-12)
    assert ratios.size == 38  # the zero tail is cut before any ratio
    # relative floor removes stagnating rounding noise as well
    s2 = np.concatenate([10.0 * (0.5 ** np.arange(40)),
                         np.full(10, 1e-13)])
    _, tm2 = two_step_ratio(s2, rel_floor=1e-11)
    assert tm2 == pytest.approx(0.25, rel=1e-12)


def test_two_step_ratio_short_series():
    ratios, tail_max = two_step_ratio([1.0, 0.5])
    assert ratios is None and tail_max is None


def test_check_row_csv_round_trip(tmp_path):
    rows = [CheckRow("alpha", 3, 1.0, 2.0, 0.1, True),
            CheckRow("beta", 7, 5.0, 4.0, 0.0, False)]
    path = tmp_path / "checks.csv"
    write_check_csv(path, rows)
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["check", "k", "lhs", "rhs", "slack", "pass"]
    assert got[1][0] == "alpha" and got[1][5] == "true"
    assert got[2][0] == "beta" and got[2][5] == "false"
    assert not all_passed(rows)
    assert all_passed(rows[:1])


def _tracked_run(mu=0.0, mode="convex", iters=120):
    entry = gen_qp(51, m=2, mu=mu)
    params = SolverParams(mode=mode, alpha=0.5, tol=0.0, max_outer=iters)
    return solve(entry.problem, params, ref=entry.reference)


def test_decay_rows_on_tracked_run():
    report = _tracked_run()
    rows = decay_rows(report)
    assert len(rows) == report.iterations - 1
    assert all(r.passed for r in rows)
    assert rows[0].name == "energy-decay"


def test_ergodic_rows_on_tracked_run():
    report = _tracked_run()
    rows = ergodic_rows(report)
    assert len(rows) == report.iterations
    assert all(r.passed for r in rows)


def test_strong_rows_on_tracked_run():
    report = _tracked_run(mu=0.5, mode="strong")
    rows = strong_rows(report)
    assert all(r.passed for r in rows)
    names = {r.name.split("-block")[0] for r in rows}
    assert {"weighted-gap", "y-error", "gamma-growth"} <= names
