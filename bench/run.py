"""End-to-end and per-layer benchmark of the iadmm solver.

Run from the repository root:

    python3 bench/run.py --workload qp-rates --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: it builds the
workload's problems with ``iadmm.problems.from_id`` (set-up), then runs
rounds of ``iadmm.outer.solve`` calls, one at a time, while the next
round is predicted to fit in ``--seconds``.  Every round solves the
same fixed list; the seed only shuffles the order within each round, so
sweep and inner-iteration counts repeat exactly from run to run.  Every
returned solution is checked against a computation made apart from the
solver (``checks.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with times read at a
nominal host speed: a calibration kernel sampled on a timer scales the
wall time of each solve and of the ``from_id`` calls by the speed seen
during them, and the imports by the run's mean speed (``hostspeed.py``).  ``--trace 1`` alternates untraced and traced rounds,
reports the per-layer metrics of the traced rounds (``spans.py``) and
writes the spans to ``.bench_out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

# One BLAS thread keeps the small dense products steady and the solves
# bitwise repeatable; it must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# A reference cache would make set-up warm on every run after the first.
os.environ.pop("IADMM_CORPUS_DIR", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402


@dataclass(frozen=True)
class Job:
    """One solve of a round: corpus id, ``SolverParams`` fields, reference use."""

    ident: str
    params: dict
    track: bool = True


RATE_CONVEX = dict(mode="convex", rule="adaptive", rho=1.0, alpha=0.5, tol=0.0, max_outer=2100)
RATE_STRONG = dict(RATE_CONVEX, mode="strong", max_outer=450)
RATE_CONSTANT = dict(RATE_CONVEX, rule="constant")
LASSO = dict(mode="convex", rule="adaptive", rho=1.0, alpha=0.8, tol=1e-9, max_outer=50_000)
IMG = dict(mode="convex", rule="adaptive", rho=1.0, alpha=0.9, gamma_mode="safeguard",
           tol=1e-3, max_outer=20_000)
# ``gen_imaging`` builds its wavelet with this many levels
IMG_LEVELS = 4

WORKLOADS = {
    "qp-rates": [
        Job("qp-2-m2", RATE_CONVEX),
        Job("qp-3-m3", RATE_CONVEX),
        Job("qp-2-m2-mu0.5", RATE_STRONG),
        Job("qp-2-m2", RATE_CONSTANT),
    ],
    "lasso-tol": [Job("lasso-%d" % s, LASSO) for s in range(1, 6)],
    "img-deblur": [Job("img-0-s32", IMG, track=False)],
}


def check_solve(job, entry, rep):
    """Rows ``(name, value, limit)`` for one returned solve; pass means ``value <= limit``."""
    p = rep.params
    if p.tol == 0.0:
        expected = rep.cause == "max-iterations" and rep.iterations == p.max_outer
    else:
        expected = rep.cause == "tolerance"
    rows = [("cause_" + rep.cause, 0.0 if expected else 1.0, 0.0)]
    h = rep.history
    if job.ident.startswith("qp-"):
        if p.rule == "constant":
            # the constant rule crawls (one inner step per block and sweep),
            # so it is held to the method's rate and decay properties only
            rows += checks.check_energy_decay(h.E)
        else:
            rows += checks.check_qp(entry.data, rep.z.to_flat(), rep.lam)
        if p.mode == "strong":
            rows += checks.check_weighted_gap(h, p.alpha, rep.cbar, rep.k0)
        else:
            rows += checks.check_averaged_gap(h, p.alpha)
    elif job.ident.startswith("lasso-"):
        rows += checks.check_lasso(entry.data, rep.z.blocks, rep.lam, h, p.tol)
    else:
        rows += checks.check_img(entry.data, rep.z.blocks, p.tol, entry.extras["tv_weight"],
                                 entry.extras["l1_weight"], IMG_LEVELS)
    return rows


class Runner:
    """Runs rounds of a workload's jobs and keeps what the metrics need."""

    def __init__(self, iadmm, jobs, entries, tracer=None, sampler=None):
        self.iadmm = iadmm
        self.jobs = jobs
        self.entries = entries
        self.tracer = tracer
        self.sampler = sampler
        # nominal solve seconds with a sampler, else wall seconds
        self.times = {False: [[] for _ in jobs], True: [[] for _ in jobs]}
        self.wall = [[] for _ in jobs]
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.round_iters = 0
        self.safeguard_events = 0
        self.traced_rounds = 0

    def run_round(self, order, traced=False):
        outer = self.iadmm.outer
        for idx in order:
            job = self.jobs[idx]
            entry = self.entries[job.ident]
            params = outer.SolverParams(**job.params)
            ref = entry.reference if job.track else None
            self.attempted += 1
            if traced:
                self.tracer.solve_no += 1
            mark = self.sampler.mark() if self.sampler else None
            t0 = time.perf_counter()
            try:
                rep = outer.solve(entry.problem, params, ref=ref)
            except self.iadmm.IadmmError as err:
                self.failed += 1
                print("# FAIL %s %s raised %r" % (job.ident, params.rule, err))
                continue
            wall = time.perf_counter() - t0
            if not traced:
                self.wall[idx].append(wall)
            self.times[traced][idx].append(self.sampler.nominal(wall, mark) if mark else wall)
            self._inspect(idx, job, entry, rep, traced)
        if traced:
            self.traced_rounds += 1

    def _inspect(self, idx, job, entry, rep, traced):
        rows = check_solve(job, entry, rep)
        checks_failed = [r for r in rows if not r[1] <= r[2]]
        digest = hashlib.sha256(rep.z.to_flat().tobytes()).hexdigest()
        if idx not in self.first:
            self.first[idx] = (rep.iterations, digest)
            print("# %-14s %-8s %-6s sweeps %5d cause %-14s %s" % (
                job.ident, rep.params.mode, rep.params.rule, rep.iterations, rep.cause,
                " ".join("%s=%.3g<=%.3g" % r for r in rows)))
        elif self.first[idx] != (rep.iterations, digest):
            print("# NONDETERMINISTIC %s: sweeps %d, z digest changed"
                  % (job.ident, rep.iterations))
            self.correct = False
        if checks_failed:
            self.failed += 1
            self.correct = False
            print("# CHECK FAILED %s: %s" % (job.ident, checks_failed))
        if traced:
            self.round_iters += rep.iterations * entry.problem.m
            self.safeguard_events += sum(e["event"] == "gamma-safeguard" for e in rep.events)

    def solve_seconds(self, traced=False):
        """Sum over jobs of the job's median solve time across rounds."""
        return sum(statistics.median(t) for t in self.times[traced] if t)

    def sweeps(self):
        return sum(it for it, _ in self.first.values())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "iadmm", "__init__.py")):
        print("bench: no iadmm package under %s" % SRC, file=sys.stderr)
        return 2
    sampler = None if args.trace else hostspeed.Sampler()
    try:
        return run(args, sampler)
    finally:
        if sampler is not None:
            sampler.stop()


def run(args, sampler):
    sys.path.insert(0, SRC)
    import iadmm
    import iadmm.problems

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.patch_modules(iadmm)
        tracer.install()

    jobs = WORKLOADS[args.workload]
    entries = {}
    if sampler is not None:
        sampler.start()
    t_gen = time.perf_counter()
    mark = sampler.mark() if sampler else None
    for job in jobs:
        if job.ident not in entries:
            entries[job.ident] = iadmm.problems.from_id(job.ident)
    import_wall = t_gen - T_START
    gen_wall = time.perf_counter() - t_gen
    gen_s = sampler.nominal(gen_wall, mark) if mark else gen_wall

    if tracer is not None:
        tracer.setup_end = len(tracer.name)
        tracer.patch_instances(e.problem for e in entries.values())

    print("# host: %d cores, python %s, numpy %s, BLAS threads %s, workload %s, seed %d"
          % (os.cpu_count(), platform.python_version(), np.__version__, BLAS_THREADS,
             args.workload, args.seed))
    runner = Runner(iadmm, jobs, entries, tracer, sampler)
    rng = np.random.default_rng(args.seed)
    t_measure = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            runner.run_round(rng.permutation(len(jobs)))
        else:
            tracer.uninstall()
            runner.run_round(rng.permutation(len(jobs)))
            tracer.install()
            runner.run_round(rng.permutation(len(jobs)), traced=True)
        # start another round only if one as long as the last still fits;
        # only a first round longer than ``--seconds`` overruns it
        last = time.perf_counter() - t0
        if time.perf_counter() - t_measure + last > args.seconds:
            break

    for job, times, wall in zip(jobs, runner.times[False], runner.wall):
        nominal = "%s nominal, " % " ".join("%.3f" % t for t in times) if sampler else ""
        print("# solve seconds %s %s: %s%s wall" % (
            job.ident, job.params["rule"], nominal, " ".join("%.3f" % t for t in wall)))
    if sampler is not None:
        print("# host speed %.3f of nominal over %d kernel samples; set-up %.3f s wall"
              % (sampler.speed(), len(sampler.samples), import_wall + gen_wall))
    if tracer is None:
        # kernel runs between import steps read up to 3x slow, as the imports
        # leave the caches cold, so the imports take the run's mean speed
        metrics = {
            "setup_s": (import_wall * sampler.speed() + gen_s, "s"),
            "solve_s": (runner.solve_seconds(), "s"),
            "sweeps": (runner.sweeps(), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.uninstall()
        metrics = tracer.layer_metrics(runner.traced_rounds)
        base = runner.solve_seconds()
        metrics["trace.overhead_pct"] = (100.0 * (runner.solve_seconds(True) / base - 1.0), "%")
        runner.correct &= cross_check(metrics, runner)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, "spans-%s.npz" % args.workload))

    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def cross_check(metrics, runner):
    """Totals reached by two independent paths must agree."""
    rounds = runner.traced_rounds
    pairs = [("inner.calls", metrics["inner.calls"][0], runner.round_iters // rounds,
              "sum of report.iterations x blocks"),
             ("outer.safeguard_events", metrics["outer.safeguard_events"][0],
              runner.safeguard_events // rounds, "gamma-safeguard entries in report.events")]
    ok = True
    for name, traced, reported, what in pairs:
        agree = traced == reported
        ok &= agree
        print("# cross-check %s: traced %d, %s %d: %s"
              % (name, traced, what, reported, "ok" if agree else "MISMATCH"))
    return ok


if __name__ == "__main__":
    sys.exit(main())
