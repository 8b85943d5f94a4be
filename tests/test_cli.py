"""Command line front end: exit codes, artifacts, schemas."""

import csv
import dataclasses
import json

import pytest

import iadmm.cli
from iadmm.cli import main
from iadmm.errors import NumericError
from iadmm.outer import HISTORY_COLUMNS, SolverParams


@pytest.fixture(autouse=True)
def _cache(tmp_path_factory, monkeypatch):
    # share generated references across the CLI tests in this module
    cache = tmp_path_factory.getbasetemp() / "corpus-cache"
    cache.mkdir(exist_ok=True)
    monkeypatch.setenv("IADMM_CORPUS_DIR", str(cache))


def test_solve_writes_history_and_manifest(tmp_path):
    out = tmp_path / "hist.csv"
    rc = main(["solve", "--problem", "qp-1-m2", "--tol", "1e-8",
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(HISTORY_COLUMNS)
    assert len(rows) > 2
    # eps strictly positive until the final row meets the tolerance
    assert float(rows[-1][1]) <= 1e-8
    manifest = json.loads((tmp_path / "hist.csv.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["problem"] == "qp-1-m2"
    assert manifest["params"]["rule"] == "adaptive"
    # every solver parameter is recorded, except the starting point
    assert set(manifest["params"]) == {
        f.name for f in dataclasses.fields(SolverParams)} - {"x0", "lam0"}
    assert manifest["result"]["cause"] == "tolerance"


def test_solve_manifest_rebuilds_its_params(tmp_path, monkeypatch):
    # the recorded params construct the very SolverParams the run used
    seen = []
    real_solve = iadmm.cli.solve

    def recording_solve(problem, params, ref=None):
        seen.append(params)
        return real_solve(problem, params, ref=ref)

    monkeypatch.setattr(iadmm.cli, "solve", recording_solve)
    out = tmp_path / "m.csv"
    rc = main(["solve", "--problem", "qp-1-m2", "--mode", "exact", "--alpha", "0.7",
               "--tol", "1e-6", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert len(seen) == 1
    assert SolverParams(**manifest["params"]) == seen[0]


def test_solve_corrupt_reference_cache_exits_one(tmp_path, monkeypatch, capsys):
    # an unparsable cached reference is reported as an error, not a traceback
    monkeypatch.setenv("IADMM_CORPUS_DIR", str(tmp_path))
    (tmp_path / "lasso-1.ref.txt").write_text("3 1\n1.0\nabc\n2.0\n")
    rc = main(["solve", "--problem", "lasso-1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lasso-1.ref.txt" in err


def test_solve_iteration_cap_exits_two(tmp_path):
    out = tmp_path / "cap.csv"
    rc = main(["solve", "--problem", "qp-1-m2", "--max-outer", "1",
               "--out", str(out)])
    assert rc == 2
    manifest = json.loads((tmp_path / "cap.csv.manifest.json").read_text())
    assert manifest["result"]["cause"] == "max-iterations"


def test_solve_unknown_problem_exits_one(tmp_path, capsys):
    rc = main(["solve", "--problem", "mystery-9",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "mystery-9" in capsys.readouterr().err


def test_solve_exact_mode(tmp_path):
    out = tmp_path / "exact.csv"
    rc = main(["solve", "--problem", "qp-1-m2", "--mode", "exact",
               "--tol", "1e-9", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    # exact mode reports a zero inexactness term in every row
    assert all(float(r[4]) == 0.0 for r in rows[1:])


def test_verify_operators_suite(tmp_path):
    out = tmp_path / "checks.csv"
    rc = main(["verify", "--suite", "operators", "--problem", "qp-1-m2",
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "k", "lhs", "rhs", "slack", "pass"]
    assert all(r[5] == "true" for r in rows[1:])
    names = {r[0] for r in rows[1:]}
    assert any(n.startswith("adjoint-block") for n in names)
    assert any(n.startswith("back-substitution") for n in names)


def test_verify_unknown_suite_exits_one(tmp_path, capsys):
    rc = main(["verify", "--suite", "everything",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "unknown suite" in capsys.readouterr().err


def test_rates_convex_csv(tmp_path):
    out = tmp_path / "rates.csv"
    rc = main(["rates", "--problem", "qp-2-m2", "--max-outer", "400",
               "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["series", "window_lo", "window_hi", "value",
                       "threshold", "pass"]
    assert rows[1][0] == "ergodic-gap"
    assert float(rows[1][3]) <= -0.85


def test_rates_strong_csv(tmp_path):
    out = tmp_path / "rates.csv"
    rc = main(["rates", "--problem", "qp-2-m2-mu0.5", "--mode", "strong",
               "--max-outer", "300", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
    assert set(rows) == {"weighted-gap", "y-error-sq"}
    assert float(rows["weighted-gap"][3]) <= -1.8
    assert float(rows["y-error-sq"][3]) <= -1.8


def test_rates_missing_reference_exits_one(tmp_path, capsys):
    rc = main(["rates", "--problem", "img-0-s16",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "reference" in capsys.readouterr().err


def test_rates_strong_mode_needs_strong_problem(tmp_path, capsys):
    rc = main(["rates", "--problem", "qp-2-m2", "--mode", "strong",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "not strongly convex" in capsys.readouterr().err


@pytest.mark.parametrize("argv,expect", [
    ([], 2100),
    (["--mode", "strong", "--problem", "qp-2-m2-mu0.5"], 450),
    (["--max-outer", "100000"], 100_000),
    (["--max-outer", "7"], 7),
])
def test_rates_max_outer_default_and_override(tmp_path, monkeypatch, argv, expect):
    # the horizon defaults per mode, and any explicit value is kept
    seen = []

    def fake_solve(problem, params, ref=None):
        seen.append(params.max_outer)
        raise NumericError("stop before solving")

    monkeypatch.setattr(iadmm.cli, "solve", fake_solve)
    problem = [] if "--problem" in argv else ["--problem", "qp-2-m2"]
    rc = main(["rates"] + problem + argv + ["--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert seen == [expect]
