"""Command line front end: solve runs, verification suites, rate studies.

Exit codes: 0 on success (solve reached tolerance or an exactly-zero
residual; every check in a suite passed; every fitted rate met its
threshold), 2 when a solve stops short of its tolerance (on the
iteration cap, or ``stalled``: the next sweep would repeat the last one
bit for bit), 1 on any error (unknown problem id, unknown suite, missing
reference, numerical failure).
"""

import argparse
import csv
import dataclasses
import json
import logging
import sys

from .diagnostics import all_passed, write_check_csv
from .errors import ConfigError, IadmmError
from .outer import SolverParams, solve
from .problems import from_id
from .suites import SUITES, rate_rows, run_suite

RATE_COLUMNS = ("series", "window_lo", "window_hi", "value", "threshold", "pass")


def _add_solver_flags(p):
    d = SolverParams
    p.add_argument("--problem", required=True, help="corpus id, e.g. qp-1-m2")
    p.add_argument("--mode", default=d.mode,
                   choices=["convex", "strong", "exact"])
    p.add_argument("--rule", default=d.rule,
                   choices=["constant", "adaptive"])
    p.add_argument("--tol", type=float, default=d.tol)
    p.add_argument("--max-outer", type=int, default=None,
                   help="sweep cap (solve: %d; rates: 2100, or 450 in strong mode)" % d.max_outer)
    p.add_argument("--alpha", type=float, default=d.alpha)
    p.add_argument("--sigma", type=float, default=d.sigma)
    p.add_argument("--rho", type=float, default=d.rho)


def _params_from_args(args, **overrides):
    kw = dict(mode=args.mode, rule=args.rule, tol=args.tol,
              max_outer=args.max_outer, alpha=args.alpha,
              sigma=args.sigma, rho=args.rho)
    kw.update(overrides)
    return SolverParams(**kw)


def _manifest(args, params, report, ref):
    return {
        "command": args.command,
        "problem": args.problem,
        "out": args.out,
        # what the history's reference columns (E, gaps) were measured against
        "reference": None if ref is None else {"source": ref.source, "kkt": ref.kkt},
        "params": {f.name: getattr(params, f.name) for f in dataclasses.fields(params)
                   if f.name not in ("x0", "lam0")},
        "result": {
            "cause": report.cause, "iterations": report.iterations,
            "eps": report.eps, "seconds": report.seconds,
            "gammas": list(report.gammas),
            "events": report.events,
        },
    }


def cmd_solve(args):
    entry = from_id(args.problem)
    params = _params_from_args(args)
    report = solve(entry.problem, params, ref=entry.reference)
    report.history.save_csv(args.out)
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(_manifest(args, params, report, entry.reference), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("%s: %s after %d sweeps (eps=%.3e, %.2fs) -> %s"
          % (args.problem, report.cause, report.iterations, report.eps,
             report.seconds, args.out))
    return 2 if report.cause in ("max-iterations", "stalled") else 0


def cmd_verify(args):
    rows = run_suite(args.suite, problem_id=args.problem, seed=args.seed)
    write_check_csv(args.out, rows)
    ok = all_passed(rows)
    n_bad = sum(not r.passed for r in rows)
    print("%s: %d/%d checks passed -> %s"
          % (args.suite, len(rows) - n_bad, len(rows), args.out))
    for r in rows:
        if not r.passed:
            print("  FAIL %s k=%d lhs=%.6e rhs=%.6e" % (r.name, r.index, r.lhs, r.rhs))
    return 0 if ok else 1


def cmd_rates(args):
    mode = args.mode
    if mode == "exact":
        raise ConfigError("rate studies run the inexact solver; use convex or strong")
    entry = from_id(args.problem)
    if entry.reference is None:
        raise ConfigError("problem %s has no certified reference; rate study needs one"
                          % args.problem)
    if mode == "strong" and entry.problem.mu_total() <= 0.0:
        raise ConfigError("problem %s is not strongly convex" % args.problem)
    iters = args.max_outer if args.max_outer is not None else (
        450 if mode == "strong" else 2100)
    params = _params_from_args(args, max_outer=iters)
    report = solve(entry.problem, params, ref=entry.reference)
    rows = rate_rows(report, polyhedral="polyhedral" in entry.tags)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RATE_COLUMNS)
        for r in rows:
            w.writerow([r[0], r[1], r[2], "%.17g" % r[3], "%.17g" % r[4],
                        "true" if r[5] else "false"])
    for r in rows:
        print("%-18s window=[%d,%d] value=%.4f threshold=%.4f %s"
              % (r[0], r[1], r[2], r[3], r[4], "pass" if r[5] else "FAIL"))
    return 0 if all(r[5] for r in rows) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="iadmm",
        description="Multi-block splitting solver with inexact subproblems.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the solver on a corpus problem")
    _add_solver_flags(ps)
    ps.add_argument("--out", default="history.csv", help="history CSV path")
    ps.set_defaults(func=cmd_solve, max_outer=SolverParams.max_outer)

    pv = sub.add_parser("verify", help="run a named check suite")
    pv.add_argument("--suite", required=True,
                    help="one of: %s" % ", ".join(SUITES))
    pv.add_argument("--problem", default=None,
                    help="optional corpus id; the inner suite takes none")
    pv.add_argument("--seed", type=int, default=None,
                    help="seeds the inner and operators suites (default 0); "
                         "the others draw nothing and refuse one")
    pv.add_argument("--out", default="checks.csv", help="check CSV path")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("rates", help="fit decay slopes on a tracked run")
    _add_solver_flags(pr)
    pr.add_argument("--out", default="rates.csv", help="rate CSV path")
    # rate studies run to a fixed horizon with the calmer default step
    pr.set_defaults(func=cmd_rates, tol=0.0, alpha=0.5)
    return p


def main(argv=None):
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IadmmError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
