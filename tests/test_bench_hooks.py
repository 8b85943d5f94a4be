"""The benchmark tracer still finds every entry point it patches.

``bench/spans.py`` wraps module attributes, class methods and problem
instances by name from outside the package.  A rename or removal in
``iadmm`` would break ``bench/run.py --trace 1`` without failing any
package test, so this test installs the tracer on a short solve.
"""

import dataclasses
import importlib.util
import os

import numpy as np

import iadmm
from iadmm.outer import SolverParams, solve
from iadmm.problems import from_id
from iadmm.proxlib import SmoothTerm

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _assert_same_history(got_history, want_history):
    for f in dataclasses.fields(want_history):
        got, want = getattr(got_history, f.name), getattr(want_history, f.name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name


def test_tracer_patches_resolve_and_come_off():
    entry = from_id("qp-1-m2")
    tracer = _load_spans().Tracer()
    # a target that no longer exists raises KeyError or AttributeError here
    tracer.patch_modules(iadmm)
    tracer.patch_instances([entry.problem])
    assert all(orig is not None for _, _, orig, _ in tracer._patches)

    sweeps = 20
    tracer.install()
    try:
        report = solve(entry.problem, SolverParams(tol=0.0, max_outer=sweeps))
    finally:
        tracer.uninstall()

    assert report.iterations == sweeps
    labels = [tracer.labels[i] for i in tracer.name]
    assert sum(lab.startswith("inner.run_inner.") for lab in labels) == sweeps * entry.problem.m
    # each trial of the adaptive rule calls the prox once and the smooth
    # value once (descent test), inside the traced ``params_adaptive``; an
    # un-referenced solve makes no other prox call
    notes = tracer.notes
    trials = notes["iters"] + notes["backtracks"]
    assert notes["iters"] > 0 and notes["backtracks"] > 0
    assert sum(lab.startswith("proxlib.prox.") for lab in labels) == trials
    assert sum(lab == "proxlib.smooth.value" and p >= 0 and labels[p] == "inner.params_adaptive"
               for lab, p in zip(labels, tracer.parent)) == trials
    for owner, attr, orig, _ in tracer._patches:
        assert _current(owner, attr) is orig, (owner, attr)


def test_tracer_notes_the_constant_rule():
    # the tracer labels each inner solve and its ``iters.<rule>`` note by
    # the rule of run_inner's eighth positional argument, the solve's
    # parameters; the constant rule runs no backtracking driver
    entry = from_id("qp-1-m2")
    params = SolverParams(rule="constant", tol=0.0, max_outer=20)
    plain = solve(entry.problem, params)
    tracer = _load_spans().Tracer()
    tracer.patch_modules(iadmm)
    tracer.install()
    try:
        traced = solve(entry.problem, params)
    finally:
        tracer.uninstall()

    labels = [tracer.labels[i] for i in tracer.name]
    assert labels.count("inner.run_inner.constant") == 20 * entry.problem.m
    assert not any(lab in ("inner.run_inner.adaptive", "inner.params_adaptive")
                   for lab in labels)
    notes = tracer.notes
    assert notes["iters.constant"] == notes["iters"] > 0
    assert notes["iters.adaptive"] == notes["backtracks"] == 0
    _assert_same_history(traced.history, plain.history)


def test_tracer_counts_every_block_solve_past_a_fixed_point():
    # qp-2-m2 at alpha 0.5 repeats its whole state bit for bit from sweep
    # 770 on; a fixed-horizon solve still calls the inner loop once per
    # block and sweep (the bench checks inner.calls against sweeps x m),
    # each handed-back result counts no iteration, and tracing moves no bit
    entry = from_id("qp-2-m2")
    params = SolverParams(alpha=0.5, tol=0.0, max_outer=800)
    plain = solve(entry.problem, params)
    tracer = _load_spans().Tracer()
    tracer.patch_modules(iadmm)
    tracer.install()
    try:
        traced = solve(entry.problem, params)
    finally:
        tracer.uninstall()

    labels = [tracer.labels[i] for i in tracer.name]
    assert sum(lab.startswith("inner.run_inner.") for lab in labels) == 800 * entry.problem.m
    per_sweep = [tracer.sweep_iters[(0, k)] for k in range(1, 801)]
    assert min(per_sweep[:769]) > 0 and max(per_sweep[769:]) == 0
    _assert_same_history(traced.history, plain.history)


def test_tracer_counts_a_held_strong_solve():
    # strong mode holds a block's inner pair once its step is rounding (on
    # qp-2-m2-mu0.5 first at sweep 95): the loop is still called once per
    # block and sweep (the bench's inner.calls check), tracing moves no bit,
    # and a held trial calls no prox, so prox spans fall below the trials
    entry = from_id("qp-2-m2-mu0.5")
    sweeps = 120
    params = SolverParams(mode="strong", alpha=0.5, tol=0.0, max_outer=sweeps)
    plain = solve(entry.problem, params)
    tracer = _load_spans().Tracer()
    tracer.patch_modules(iadmm)
    tracer.patch_instances([entry.problem])
    tracer.install()
    try:
        traced = solve(entry.problem, params)
    finally:
        tracer.uninstall()

    labels = [tracer.labels[i] for i in tracer.name]
    assert sum(lab.startswith("inner.run_inner.") for lab in labels) == sweeps * entry.problem.m
    _assert_same_history(traced.history, plain.history)
    notes = tracer.notes
    trials = notes["iters"] + notes["backtracks"]
    assert 0 < sum(lab.startswith("proxlib.prox.") for lab in labels) < trials


def test_tracer_times_the_gradients_of_a_tracked_solve():
    # a reference-tracked solve takes one gradient per block and sweep, in
    # ``kkt_error``; the tracer shadows each term's bound ``grad`` method
    # with an instance attribute and puts the bound method back
    entry = from_id("qp-1-m2")
    params = SolverParams(tol=0.0, max_outer=20)
    plain = solve(entry.problem, params, ref=entry.reference)
    tracer = _load_spans().Tracer()
    tracer.patch_modules(iadmm)
    tracer.patch_instances([entry.problem])
    tracer.install()
    try:
        traced = solve(entry.problem, params, ref=entry.reference)
    finally:
        tracer.uninstall()

    labels = [tracer.labels[i] for i in tracer.name]
    parents = [labels[p] for lab, p in zip(labels, tracer.parent)
               if lab == "proxlib.smooth.grad"]
    assert parents == ["diagnostics.kkt_error"] * (20 * entry.problem.m)
    _assert_same_history(traced.history, plain.history)
    grads = [(owner, orig) for owner, attr, orig, _ in tracer._patches if attr == "grad"]
    assert len(grads) == entry.problem.m
    for owner, orig in grads:
        assert owner.grad is orig and orig.__func__ is SmoothTerm.grad and orig.__self__ is owner


def test_tracer_labels_imaging_maps_and_proxes():
    # spans are labelled by operator ``kind`` and by the name of the
    # function that built each prox closure
    entry = from_id("img-0-s16")
    tracer = _load_spans().Tracer()
    tracer.patch_modules(iadmm)
    tracer.patch_instances([entry.problem])
    tracer.install()
    try:
        solve(entry.problem, SolverParams(tol=0.0, max_outer=3))
    finally:
        tracer.uninstall()

    seen = {tracer.labels[i] for i in tracer.name}
    for label in ("blockspace.apply.separable-blur", "blockspace.apply.orthonormal-wavelet",
                  "blockspace.adjoint.orthonormal-wavelet", "proxlib.prox.group",
                  "proxlib.prox.l1"):
        assert label in seen, label


def test_tracer_covers_the_strong_mode_norm_path():
    # the growing-penalty schedule takes ||P|| and the scaled norm from the
    # dense metric P, so power iteration runs only for the power-mode
    # weights, one norm per block through that block's operator
    entry = from_id("qp-2-m2-mu0.5")
    tracer = _load_spans().Tracer()
    tracer.patch_modules(iadmm)
    tracer.patch_instances([entry.problem])
    tracer.install()
    try:
        report = solve(entry.problem, SolverParams(mode="strong", alpha=0.5, tol=0.0,
                                                   max_outer=5))
    finally:
        tracer.uninstall()

    assert report.iterations == 5 and report.theta > 0.0
    labels = [tracer.labels[i] for i in tracer.name]
    kids = {k: set() for k, lab in enumerate(labels) if lab == "blockspace.spectral_norm"}
    for lab, p in zip(labels, tracer.parent):
        if p in kids:
            kids[p].add(lab)
    assert len(kids) == entry.problem.m
    for seen in kids.values():
        assert seen == {"blockspace.apply.dense", "blockspace.adjoint.dense"}, seen
    assert not any("metric-factor" in lab for lab in labels)
    for owner, attr, orig, _ in tracer._patches:
        assert _current(owner, attr) is orig, (owner, attr)


# each benchmark job's problem, mode and weights (``bench/run.py``'s
# ``WORKLOADS``), with its reference tracked where the bench tracks it
BENCH_JOBS = [
    ("qp-2-m2", dict(alpha=0.5), True),
    ("qp-3-m3", dict(alpha=0.5), True),
    ("qp-2-m2-mu0.5", dict(mode="strong", alpha=0.5), True),
    ("qp-2-m2", dict(rule="constant", alpha=0.5), True),
    ("lasso-1", dict(alpha=0.8), True),
    ("img-0-s32", dict(alpha=0.9, gamma_mode="safeguard"), False),
]


def test_every_operator_kind_of_a_bench_job_has_its_metrics():
    # the bench reports blockspace.calls.<kind> only for the kinds in
    # OP_KINDS; an operator of any other kind would run outside every metric
    spans = _load_spans()
    entries = {ident: from_id(ident) for ident, _, _ in BENCH_JOBS}
    tracer = spans.Tracer()
    tracer.patch_modules(iadmm)
    tracer.patch_instances([e.problem for e in entries.values()])
    tracer.install()
    try:
        for ident, fields, track in BENCH_JOBS:
            entry = entries[ident]
            solve(entry.problem, SolverParams(tol=0.0, max_outer=3, **fields),
                  ref=entry.reference if track else None)
    finally:
        tracer.uninstall()

    kinds = {lab.split(".", 2)[2] for lab in tracer.labels
             if lab.startswith(("blockspace.apply.", "blockspace.adjoint."))}
    assert {"dense", "separable-blur", "vertical-stack"} <= kinds
    assert kinds <= set(spans.OP_KINDS), kinds - set(spans.OP_KINDS)
