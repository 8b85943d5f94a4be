"""The benchmark tracer still finds every entry point it patches.

``bench/spans.py`` wraps module attributes, class methods and problem
instances by name from outside the package.  A rename or removal in
``iadmm`` would break ``bench/run.py --trace 1`` without failing any
package test, so this test installs the tracer on a short solve.
"""

import importlib.util
import os

import iadmm
from iadmm.outer import SolverParams, solve
from iadmm.problems import from_id

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


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
