"""Command line front end: solve runs, verification suites, rate studies.

Exit codes: 0 on success (solve reached tolerance or an exact fixed
point; every check in a suite passed; every fitted rate met its
threshold), 2 when a solve stops on the iteration cap, 1 on any error
(unknown problem id, unknown suite, missing reference, numerical
failure).
"""

import argparse
import csv
import dataclasses
import json
import logging
import sys

import numpy as np

from .diagnostics import all_passed, two_step_ratio, write_check_csv
from .errors import IadmmError
from .outer import SolverParams, solve
from .problems import from_id
from .suites import (
    ERGODIC_SLOPE,
    STRONG_SLOPE,
    SUITES,
    _floored_fit,
    run_suite,
)

log = logging.getLogger(__name__)

RATE_COLUMNS = ("series", "window_lo", "window_hi", "value", "threshold", "pass")


def _add_solver_flags(p):
    p.add_argument("--problem", required=True, help="corpus id, e.g. qp-1-m2")
    p.add_argument("--mode", default="convex",
                   choices=["convex", "strong", "exact"])
    p.add_argument("--rule", default="adaptive",
                   choices=["constant", "adaptive"])
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-outer", type=int, default=None,
                   help="sweep cap (solve: 100000; rates: 2100, or 450 in strong mode)")
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--sigma", type=float, default=0.99)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest; seeds suite randomness")


def _params_from_args(args, **overrides):
    kw = dict(mode=args.mode, rule=args.rule, tol=args.tol,
              max_outer=args.max_outer, alpha=args.alpha,
              sigma=args.sigma, rho=args.rho)
    kw.update(overrides)
    return SolverParams(**kw)


def _manifest(args, params, report):
    return {
        "command": args.command,
        "problem": args.problem,
        "seed": args.seed,
        "out": args.out,
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
        json.dump(_manifest(args, params, report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("%s: %s after %d sweeps (eps=%.3e, %.2fs) -> %s"
          % (args.problem, report.cause, report.iterations, report.eps,
             report.seconds, args.out))
    if report.cause == "max-iterations":
        return 2
    return 0


def cmd_verify(args):
    if args.suite not in SUITES:
        print("unknown suite %r (choices: %s)" % (args.suite, ", ".join(SUITES)),
              file=sys.stderr)
        return 1
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


def _fit_row(name, ks, vals, window, threshold, floor=0.0):
    fit, hi = _floored_fit(ks, vals, window[0], window[1], floor)
    return [name, window[0], hi, fit.slope, threshold, fit.slope <= threshold]


def cmd_rates(args):
    entry = from_id(args.problem)
    if entry.reference is None:
        print("problem %s has no certified reference; rate study needs one"
              % args.problem, file=sys.stderr)
        return 1
    mode = args.mode
    if mode == "exact":
        print("rate studies run the inexact solver; use convex or strong",
              file=sys.stderr)
        return 1
    if mode == "strong" and entry.problem.mu_total() <= 0.0:
        print("problem %s is not strongly convex" % args.problem,
              file=sys.stderr)
        return 1
    iters = args.max_outer if args.max_outer is not None else (
        450 if mode == "strong" else 2100)
    params = _params_from_args(args, max_outer=iters)
    report = solve(entry.problem, params, ref=entry.reference)
    h = report.history
    rows = []
    if mode == "strong":
        rows.append(_fit_row("weighted-gap", h.k, h.w_gap, (20, iters),
                             STRONG_SLOPE, floor=1e-16))
        rows.append(_fit_row("y-error-sq", h.k, h.y_err_sq, (20, iters),
                             STRONG_SLOPE, floor=1e-18))
    else:
        rows.append(_fit_row("ergodic-gap", h.k, h.erg_gap,
                             (50, min(2000, iters)), ERGODIC_SLOPE))
        if "polyhedral" in entry.tags and h.E is not None:
            E = np.asarray(h.E)
            ratios, tail_max = two_step_ratio(E, tail=50, rel_floor=1e-22)
            if tail_max is not None:
                dead = np.nonzero(E < np.nanmax(E) * 1e-22)[0]
                hi = int(dead[0]) if dead.size else E.size
                rows.append(["two-step-tail-max", max(1, hi - 52), hi,
                             tail_max, 1.0, tail_max < 1.0])
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
    ps.set_defaults(func=cmd_solve, max_outer=100_000)

    pv = sub.add_parser("verify", help="run a named check suite")
    pv.add_argument("--suite", required=True,
                    help="one of: %s" % ", ".join(SUITES))
    pv.add_argument("--problem", default=None, help="optional corpus id")
    pv.add_argument("--seed", type=int, default=0)
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
    except IadmmError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
