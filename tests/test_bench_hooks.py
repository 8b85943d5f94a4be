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
    inner_spans = sum(tracer.labels[i].startswith("inner.run_inner.") for i in tracer.name)
    assert inner_spans == sweeps * entry.problem.m
    assert tracer.notes["iters"] > 0
    for owner, attr, orig, _ in tracer._patches:
        assert _current(owner, attr) is orig, (owner, attr)
