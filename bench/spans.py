"""Span tracer for the benchmark's traced mode.

The tracer replaces each layer's entry point with a wrapper that records
one span per call: label, start, end and the span that was open when it
began.  Spans live in flat in-memory arrays and are written out once, at
the end of the run.  A span's self time is its duration minus the time
covered by its direct child spans.  Nothing in the package changes: the
wrappers are installed on module attributes, classes and the problem
instances from outside, and removed again for untraced rounds.
"""

import collections
import time
from array import array

import numpy as np

OP_KINDS = ("dense", "separable-blur", "finite-difference-2d", "orthonormal-wavelet",
            "vertical-stack", "negated-identity", "zero")
PROX_KINDS = ("l1", "group", "zero")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _prox_kind(fn):
    # prox maps are closures built by ``l1_prox``, ``group_l2_prox``, ...
    head = getattr(fn, "__qualname__", "").split(".")[0]
    return {"l1_prox": "l1", "group_l2_prox": "group", "zero_prox": "zero"}.get(head, head)


class Tracer:
    """Records spans around patched entry points; see :meth:`install`."""

    def __init__(self):
        self.labels = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []
        self.notes = collections.Counter()
        self.sweep_iters = collections.Counter()
        self.solve_no = 0
        self.setup_end = 0

    def label_id(self, label):
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return nid

    def wrap(self, fn, label, note=None):
        """``fn`` wrapped in a span; ``label`` is a string or a function of the args."""
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        label_id = self.label_id
        fixed = label_id(label) if isinstance(label, str) else None

        def traced(*args, **kw):
            idx = len(name)
            name.append(fixed if fixed is not None else label_id(label(args)))
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if note is not None:
                note(args, kw, out)
            return out

        return traced

    def patch(self, owner, attr, label, note=None):
        """Register a wrapper for ``owner.attr``; installed by :meth:`install`."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, orig, self.wrap(orig, label, note)))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    # --- what to trace ----------------------------------------------------

    def patch_modules(self, iadmm):
        """Register the module- and class-level entry points of every layer."""
        blockspace, inner, outer = iadmm.blockspace, iadmm.inner, iadmm.outer
        problem, problems = iadmm.problem, iadmm.problems
        notes, sweeps = self.notes, self.sweep_iters

        def run_inner_note(args, kw, out):
            res = out[0]
            notes["iters"] += res.iters
            notes["iters." + args[7].rule] += res.iters
            sweeps[(self.solve_no, kw["ctx"][0])] += res.iters

        def adaptive_note(args, kw, out):
            notes["backtracks"] += out[2]

        def safeguard_note(args, kw, out):
            if not out:
                notes["gamma_false"] += 1

        # ``solve`` passes the inner config as the eighth positional argument
        self.patch(outer, "run_inner", lambda a: "inner.run_inner." + a[7].rule, run_inner_note)
        self.patch(inner, "params_adaptive", "inner.params_adaptive", adaptive_note)
        self.patch(outer, "solve", "outer.solve")
        self.patch(outer, "step3_update", "outer.step3_update")
        self.patch(outer, "gamma_compatible", "outer.gamma_compatible", safeguard_note)
        self.patch(outer, "energy", "diagnostics.energy")
        self.patch(outer, "kkt_error", "diagnostics.kkt_error")
        self.patch(outer, "lagrangian_gap", "diagnostics.lagrangian_gap")
        self.patch(outer, "subproblem_minimizer", "oracle.subproblem_minimizer")
        self.patch(problems, "solve_qp_kkt", "oracle.solve_qp_kkt")
        self.patch(problems, "from_id", "problems.from_id")
        self.patch(problem.ProblemSpec, "objective", "problem.objective")
        self.patch(problem, "spectral_norm", "blockspace.spectral_norm")
        self.patch(blockspace, "spectral_norm", "blockspace.spectral_norm")
        self.patch(blockspace.BlockTriangular, "back_substitute", "blockspace.back_substitute")
        for cls in _subclasses(blockspace.LinearMap):
            for meth in ("apply", "adjoint"):
                if meth in cls.__dict__:
                    self.patch(cls, meth, lambda a, m=meth: "blockspace.%s.%s" % (m, a[0].kind))

    def patch_instances(self, problems):
        """Register each block's smooth value/grad and prox on the given problems."""
        for prob in problems:
            for blk in prob.blocks:
                self.patch(blk.smooth, "value", "proxlib.smooth.value")
                self.patch(blk.smooth, "grad", "proxlib.smooth.grad")
                self.patch(blk.nonsmooth, "prox",
                           "proxlib.prox." + _prox_kind(blk.nonsmooth.prox))

    # --- results ----------------------------------------------------------

    def totals(self):
        """Per label ``(calls, inclusive s, self s)`` for the set-up spans and the rest."""
        n = len(self.name)
        nm = np.frombuffer(self.name, dtype=np.int32)[:n]
        par = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = np.frombuffer(self.end)[:n] - np.frombuffer(self.start)[:n]
        has = par >= 0
        own = dur - np.bincount(par[has], weights=dur[has], minlength=n)
        k = len(self.labels)
        tables = []
        for sel in (slice(0, self.setup_end), slice(self.setup_end, n)):
            calls = np.bincount(nm[sel], minlength=k)
            incl = np.bincount(nm[sel], weights=dur[sel], minlength=k)
            selft = np.bincount(nm[sel], weights=own[sel], minlength=k)
            tables.append({lab: (int(calls[i]), float(incl[i]), float(selft[i]))
                           for i, lab in enumerate(self.labels)})
        return tables

    def save(self, path):
        n = len(self.name)
        np.savez(path, labels=np.array(self.labels),
                 name=np.frombuffer(self.name, dtype=np.int32)[:n],
                 parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
                 start=np.frombuffer(self.start)[:n], end=np.frombuffer(self.end)[:n],
                 setup_end=self.setup_end)

    def layer_metrics(self, rounds):
        """The per-layer metrics, per traced round for solve-phase layers."""
        setup, run = self.totals()
        notes = self.notes

        def pick(table, prefix, field):
            return sum(v[field] for lab, v in table.items() if lab.startswith(prefix))

        def calls(prefix, table=run):
            return pick(table, prefix, 0)

        def incl(prefix, table=run):
            return pick(table, prefix, 1)

        def own(prefix, table=run):
            return pick(table, prefix, 2)

        def us_per(prefix, count=None):
            n = calls(prefix) if count is None else count
            return 1e6 * incl(prefix) / n if n else 0.0

        iters = notes["iters"]
        trials = iters + notes["backtracks"]
        out = {
            "inner.calls": (calls("inner.run_inner.") // rounds, "count"),
            "inner.iters": (iters // rounds, "count"),
            "inner.trials": (trials // rounds, "count"),
            "inner.backtracks": (notes["backtracks"] // rounds, "count"),
            "inner.iters_max_sweep": (max(self.sweep_iters.values(), default=0), "count"),
            "inner.accept_ratio": (iters / trials if trials else 0.0, "ratio"),
            "inner.self_s": (
                (own("inner.run_inner.") + own("inner.params_adaptive")) / rounds, "s"),
        }
        for rule in ("adaptive", "constant"):
            out["inner.us_per_iter." + rule] = (
                us_per("inner.run_inner." + rule, notes["iters." + rule]), "us")
        out["proxlib.smooth_evals"] = (calls("proxlib.smooth.") // rounds, "count")
        out["proxlib.prox_calls"] = (calls("proxlib.prox.") // rounds, "count")
        out["proxlib.smooth_self_s"] = (own("proxlib.smooth.") / rounds, "s")
        for kind in PROX_KINDS:
            out["proxlib.prox_us." + kind] = (us_per("proxlib.prox." + kind), "us")
        for kind in OP_KINDS:
            out["blockspace.calls." + kind] = (
                (calls("blockspace.apply." + kind) + calls("blockspace.adjoint." + kind)) // rounds,
                "count")
            out["blockspace.apply_us." + kind] = (us_per("blockspace.apply." + kind), "us")
            out["blockspace.adjoint_us." + kind] = (us_per("blockspace.adjoint." + kind), "us")
            out["blockspace.self_s." + kind] = (
                (own("blockspace.apply." + kind) + own("blockspace.adjoint." + kind)) / rounds, "s")
        out["blockspace.backsub_calls"] = (calls("blockspace.back_substitute") // rounds, "count")
        out["blockspace.backsub_us"] = (us_per("blockspace.back_substitute"), "us")
        out["blockspace.spectral_norm_calls"] = (
            calls("blockspace.spectral_norm") // rounds, "count")
        out["blockspace.spectral_norm_s"] = (incl("blockspace.spectral_norm") / rounds, "s")
        out["outer.self_s"] = (own("outer.") / rounds, "s")
        out["outer.step3_s"] = (incl("outer.step3_update") / rounds, "s")
        out["outer.safeguard_s"] = (incl("outer.gamma_compatible") / rounds, "s")
        out["outer.safeguard_calls"] = (calls("outer.gamma_compatible") // rounds, "count")
        out["outer.safeguard_events"] = (notes["gamma_false"] // rounds, "count")
        out["problem.objective_calls"] = (calls("problem.objective") // rounds, "count")
        out["problem.objective_us"] = (us_per("problem.objective"), "us")
        out["diagnostics.s"] = (incl("diagnostics.") / rounds, "s")
        out["diagnostics.energy_us"] = (us_per("diagnostics.energy"), "us")
        out["diagnostics.kkt_us"] = (us_per("diagnostics.kkt_error"), "us")
        out["diagnostics.gap_us"] = (us_per("diagnostics.lagrangian_gap"), "us")
        out["oracle.subproblem_calls"] = (calls("oracle.subproblem_minimizer", setup), "count")
        out["oracle.subproblem_s"] = (incl("oracle.subproblem_minimizer", setup), "s")
        out["oracle.kkt_solve_s"] = (incl("oracle.solve_qp_kkt", setup), "s")
        out["problems.generate_s"] = (
            incl("problems.from_id", setup) - incl("oracle.", setup), "s")
        return out
