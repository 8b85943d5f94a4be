"""Print sha256 digests of every benchmark solve, to compare two checkouts bit for bit.

Run from the repository root:

    python3 tests/bench_digests.py                      # the bench jobs
    python3 tests/bench_digests.py --acceptance         # and the acceptance solves
    python3 tests/bench_digests.py --root OTHER_CHECKOUT > other.txt
    python3 tests/bench_digests.py --per-call [--acceptance]

The jobs are read from ``WORKLOADS`` in ``bench/run.py`` of the checkout
named by ``--root`` (default: the one holding this script), and the
package is imported from that checkout's ``src/``.  Each solve prints one
line per item: the final ``z``, ``x``, ``y`` and ``lam``, every ``History``
column, ``Gammas``, the events, the cause and the sweep count.  Each
problem built also prints its reference pair with the pair's source and
KKT error: a dense KKT solve for the QP ids, and for the lasso ids a face
solve from a coarse exact-mode run, or a full exact-mode run where the
face solve fails its certificate, which the source line shows.
``--acceptance`` adds the solves of
``tests/test_acceptance.py`` (criteria 3-9).  The last line digests all the
lines above it, so two checkouts agree bit for bit when their outputs are
equal; ``diff`` names the items that differ.

``--per-call`` prints no digests.  It reruns every inner call of the same
solves through the frozen loop of ``tests/reference_inner.py`` on that
call's own inputs, and prints one line per solve: the calls run (a call
handed back from ``prev`` runs nothing and is not checked), the calls whose
``x_next`` moved from the frozen loop's at all, the calls whose ``iters``,
``Gamma`` or ``start`` differ from it, the largest relative deviation of
``x_next`` and of ``z`` with the ``(sweep, block)`` of the call it came
from, and the largest ``|r - r_ref|`` as a share of the held iterations'
bound ``iters (2 HOLD_ULPS eps ||x_i||)^2 / Gamma``.  A solve whose inner
loop keeps every bit reads ``0 0`` and zeros.

Pytest does not collect this file: it is a script, not a test module.
"""

import argparse
import hashlib
import importlib.util
import os
import struct
import sys

HISTORY_FIELDS = ("k", "eps", "feas", "yz_gap", "R", "obj", "rho", "gamma1", "kkt",
                  "q_gap_sq", "erg_obj", "E", "delta_gap", "erg_gap", "w_gap", "y_err_sq")
QP_IDS = ["qp-%d-m%d" % (s, 2 + s % 2) for s in range(1, 11)]
STRONG_IDS = ["qp-%d-m%d-mu0.5" % (s, 2 + s % 2) for s in range(1, 6)]
LASSO_IDS = ["lasso-%d" % s for s in range(1, 6)]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _floats(values):
    # exact bit patterns: -0.0 and 0.0 differ, and so do nan payloads
    return struct.pack("<%dd" % len(values), *values)


def load_workloads(root):
    """``WORKLOADS`` of ``root/bench/run.py``; importing it changes no file."""
    bench = os.path.join(root, "bench")
    sys.path.insert(0, bench)
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(bench, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def solve_lines(label, rep):
    """One ``label item digest`` line per item of a :class:`SolveReport`."""
    # imported only once ``bench/run.py`` has fixed the BLAS thread count
    import numpy as np

    items = [(name, getattr(rep, name)) for name in ("z", "x", "y")]
    items = [(name, v.to_flat().tobytes()) for name, v in items]
    items.append(("lam", np.asarray(rep.lam, dtype=np.float64).tobytes()))
    h = rep.history
    for name in HISTORY_FIELDS:
        col = getattr(h, name)
        items.append(("history." + name,
                      b"none" if col is None else np.asarray(col, dtype=np.float64).tobytes()))
    items.append(("Gammas", b"".join(_floats(row) for row in h.Gammas)))
    items.append(("events", repr(rep.events).encode()))
    lines = ["%s %s %s" % (label, name, _sha(data)) for name, data in items]
    lines.append("%s cause %s" % (label, rep.cause))
    lines.append("%s sweeps %d" % (label, rep.iterations))
    return lines


def reference_lines(ident, entry):
    ref = entry.reference
    if ref is None:
        return []
    lines = ["%s reference.%s %s" % (ident, name, _sha(data)) for name, data in (
        ("x_star", ref.x_star.to_flat().tobytes()), ("lam_star", ref.lam_star.tobytes()))]
    lines.append("%s reference.source %s kkt %.3e" % (ident, ref.source, ref.kkt))
    return lines


def _rel(got, want):
    import numpy as np

    diff, size = float(np.linalg.norm(got - want)), float(np.linalg.norm(want))
    return diff / size if size else (0.0 if diff == 0.0 else float("inf"))


class CallCheck:
    """Wraps ``run_inner`` so that each call is rerun through the frozen loop."""

    def __init__(self, run_inner, reference, hold_ulps):
        self.run_inner, self.reference, self.hold_ulps = run_inner, reference, hold_ulps
        self.reset()

    def reset(self):
        self.ran = self.moved = self.mismatched = 0
        self.worst = {"x_next": (0.0, None), "z": (0.0, None)}
        self.r_share = 0.0

    def __call__(self, *args, **kw):
        import numpy as np

        res, tr = self.run_inner(*args, **kw)
        if kw.get("prev") is not None:
            return res, tr
        kw = {k: v for k, v in kw.items() if k not in ("prev", "ay_i", "start")}
        ref, ref_tr = self.reference(*args, trace=True, **kw)
        self.ran += 1
        self.moved += res.x_next.tobytes() != ref.x_next.tobytes()
        self.mismatched += (res.iters, _floats([res.Gamma]), res.start) != (
            ref.iters, _floats([ref.Gamma]), ref_tr.backtracks[0])
        for name, (top, _) in self.worst.items():
            dev = _rel(getattr(res, name), getattr(ref, name))
            if dev > top:
                self.worst[name] = (dev, kw["ctx"])
        x_i = args[1]
        bound = res.iters * (2 * self.hold_ulps * np.finfo(np.float64).eps) ** 2 \
            * float(x_i.dot(x_i)) / res.Gamma
        diff = abs(res.r - ref.r)
        share = diff / bound if bound else (0.0 if diff == 0.0 else float("inf"))
        self.r_share = max(self.r_share, share)
        return res, tr

    def line(self, label):
        parts = ["%s calls %d moved %d mismatched %d" % (label, self.ran, self.moved,
                                                         self.mismatched)]
        for name, (dev, ctx) in self.worst.items():
            parts.append("%s %.2e at %s" % (name, dev, "-" if ctx is None else "%d/%d" % ctx))
        parts.append("r_share %.3g" % self.r_share)
        return " ".join(parts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="checkout whose bench jobs and package are run")
    ap.add_argument("--acceptance", action="store_true",
                    help="also digest the acceptance criteria's solves")
    ap.add_argument("--per-call", action="store_true",
                    help="rerun each inner call through the frozen loop instead of digesting")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    # bench/run.py fixes one BLAS thread before numpy is imported
    workloads = load_workloads(root)
    sys.path.insert(0, os.path.join(root, "src"))
    import iadmm.inner
    import iadmm.outer
    from iadmm.outer import SolverParams, solve
    from iadmm.problems import from_id

    check = None
    if args.per_call:
        sys.path.insert(0, os.path.join(root, "tests"))
        from reference_inner import run_inner_reference
        check = CallCheck(iadmm.outer.run_inner, run_inner_reference, iadmm.inner.HOLD_ULPS)
        iadmm.outer.run_inner = check

    entries = {}
    lines = []

    def entry(ident):
        if ident not in entries:
            entries[ident] = from_id(ident)
            lines.extend(reference_lines(ident, entries[ident]))
        return entries[ident]

    def emit(label, ident, params, track=True):
        e = entry(ident)
        if check is not None:
            check.reset()
        rep = solve(e.problem, SolverParams(**params), ref=e.reference if track else None)
        if check is not None:
            print(check.line(label), flush=True)
            return
        out = solve_lines(label, rep)
        lines.extend(out)
        print("\n".join(out), flush=True)

    for name, jobs in workloads.items():
        for job in jobs:
            label = "%s/%s/%s/%s" % (name, job.ident, job.params["mode"], job.params["rule"])
            emit(label, job.ident, job.params, job.track)
    if args.acceptance:
        for ident in QP_IDS:
            emit("criterion-3/" + ident, ident,
                 dict(mode="convex", rule="adaptive", rho=1.0, alpha=0.5, tol=0.0,
                      max_outer=2100))
        for ident in STRONG_IDS:
            emit("criterion-5/" + ident, ident,
                 dict(mode="strong", rule="adaptive", rho=1.0, alpha=0.5, tol=0.0,
                      max_outer=450))
        for ident in QP_IDS:
            ref = entry(ident).reference
            emit("criterion-6/" + ident, ident,
                 dict(mode="convex", rule="adaptive", rho=1.0, alpha=0.5, tol=1e-8,
                      x0=ref.x_star.copy(), lam0=ref.lam_star.copy()), track=False)
        for ident in LASSO_IDS:
            emit("criterion-7/" + ident, ident,
                 dict(mode="convex", rule="adaptive", rho=1.0, alpha=0.8, tol=1e-9,
                      max_outer=50_000))
        for ident in STRONG_IDS:
            for mode in ("convex", "exact"):
                emit("criterion-8/%s/%s" % (ident, mode), ident,
                     dict(mode=mode, rho=1.0, alpha=0.5, tol=1e-10, max_outer=50_000),
                     track=False)
        emit("criterion-9/img-0-s32", "img-0-s32",
             dict(mode="convex", rule="adaptive", rho=1.0, alpha=0.9, gamma_mode="safeguard",
                  tol=1e-6, max_outer=20_000), track=False)
    if check is None:
        print("\n".join(line for line in lines if " reference." in line))
        print("all %s" % _sha("\n".join(sorted(lines)).encode()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
