"""Tests of the benchmark's own checks and tracer.

Run from the repository root with ``python3 -m pytest bench``.  Each
output check must pass on a known-good solution and fail once that
solution is perturbed; the independent imaging operators must agree with
the package's model; the tracer's self times must subtract child spans;
the host-speed sampler must scale wall time by the kernel's speed and put
the signal handler back when it stops.
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from iadmm.blockspace import BlockVector  # noqa: E402
from iadmm.problems import from_id  # noqa: E402


def _passes(rows):
    return all(value <= limit for _, value, limit in rows)


@pytest.fixture(scope="module")
def qp():
    return from_id("qp-2-m3")


def test_qp_check_accepts_kkt_solution_and_rejects_perturbations(qp):
    x, lam = checks.qp_kkt_solution(qp.data)
    # the package's certified reference is the same point
    assert np.allclose(x, qp.reference.x_star.to_flat(), atol=1e-10)
    assert _passes(checks.check_qp(qp.data, x, lam))
    assert not _passes(checks.check_qp(qp.data, x + 1e-6, lam))
    assert not _passes(checks.check_qp(qp.data, x, lam - 1e-6))


def test_gap_and_decay_checks_reject_violations():
    h = SimpleNamespace(E=np.array([4.0, 3.0, 2.5]), erg_gap=np.array([1.0, 0.5, 0.3]),
                        w_gap=np.array([1.0, 0.1, 0.01]))
    assert _passes(checks.check_averaged_gap(h, alpha=0.5))  # 0.3 <= 4 / 3
    h.erg_gap[-1] = 1.5
    assert not _passes(checks.check_averaged_gap(h, alpha=0.5))
    assert _passes(checks.check_energy_decay(h.E))
    assert not _passes(checks.check_energy_decay([4.0, 3.0, 3.1]))
    assert _passes(checks.check_weighted_gap(h, alpha=0.5, cbar=1.0, k0=0.0))  # 0.01 <= 1/3
    h.w_gap[-1] = 0.5
    assert not _passes(checks.check_weighted_gap(h, alpha=0.5, cbar=1.0, k0=0.0))


def test_lasso_check_accepts_reference_and_rejects_perturbations():
    entry = from_id("lasso-1")
    ref = entry.reference
    geometric = SimpleNamespace(E=0.9 ** np.arange(100))
    z = [b.copy() for b in ref.x_star.blocks]
    assert _passes(checks.check_lasso(entry.data, z, ref.lam_star, geometric, tol=1e-9))
    z[0] += 1e-6
    assert not _passes(checks.check_lasso(entry.data, z, ref.lam_star, geometric, tol=1e-9))
    z[0] -= 1e-6
    flat_tail = SimpleNamespace(E=np.concatenate([0.9 ** np.arange(60), np.full(40, 0.9 ** 59)]))
    assert not _passes(checks.check_lasso(entry.data, z, ref.lam_star, flat_tail, tol=1e-9))


def test_img_operators_match_the_model_and_check_rejects_perturbations():
    entry = from_id("img-0-s16")
    rng = np.random.default_rng(7)
    u = rng.standard_normal(256)
    side = 16
    dh, dv = checks.forward_differences(u.reshape(side, side))
    w = np.stack([dh, dv], axis=-1).reshape(-1)
    v = checks.haar(u.reshape(side, side), 4).reshape(-1)
    ours = checks.img_objective(entry.data, u, entry.extras["tv_weight"],
                                entry.extras["l1_weight"], 4)
    model = entry.problem.objective(BlockVector([u, w, v]))
    assert abs(ours - model) <= 1e-12 * (1.0 + abs(model))
    assert checks.img_residual(u, w, v, 4) <= 1e-12

    u_true = entry.data["u_true"].reshape(-1)
    dh, dv = checks.forward_differences(entry.data["u_true"])
    good = [u_true, np.stack([dh, dv], axis=-1).reshape(-1),
            checks.haar(entry.data["u_true"], 4).reshape(-1)]
    args = (entry.extras["tv_weight"], entry.extras["l1_weight"], 4)
    assert _passes(checks.check_img(entry.data, good, 1e-3, *args))
    noisy = [good[0] + 0.05 * rng.standard_normal(256)] + good[1:]
    assert not _passes(checks.check_img(entry.data, noisy, 1e-3, *args)[:1])
    off = [good[0], good[1] + 1e-2, good[2]]
    assert not _passes(checks.check_img(entry.data, off, 1e-3, *args)[1:])


def test_tracer_self_time_subtracts_children():
    tr = spans.Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        leaf_traced()
        leaf_traced()

    leaf_traced = tr.wrap(leaf, "blockspace.apply.dense")
    outer_traced = tr.wrap(outer, "outer.solve")
    outer_traced()
    _, run = tr.totals()
    calls, incl, own = run["outer.solve"]
    leaf_calls, leaf_incl, leaf_own = run["blockspace.apply.dense"]
    assert calls == 1 and leaf_calls == 2
    assert leaf_own == pytest.approx(leaf_incl)
    assert own == pytest.approx(incl - leaf_incl, abs=1e-9)
    assert 0.009 <= own < 0.02


def test_nominal_time_scales_by_kernel_speed_and_drops_kernel_time():
    sampler = hostspeed.Sampler()
    mark = sampler.mark()
    # a host at half speed: every kernel run took twice its reference time
    sampler.samples += [2 * hostspeed.KERNEL_REF_S] * hostspeed.MIN_SAMPLES
    sampler.spent += 0.5
    assert sampler.nominal(10.5, mark) == pytest.approx(5.0)
    # the mean is taken over speeds, so one stalled run costs one sample's share
    mark = sampler.mark()
    sampler.samples += [hostspeed.KERNEL_REF_S] * 99 + [1.0]
    assert sampler.nominal(1.0, mark) == pytest.approx(0.99, rel=1e-4)


def test_sampler_samples_on_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(period=0.005)
    sampler.start()
    try:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 10
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "qp-rates",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
