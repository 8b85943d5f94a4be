"""The package's public names."""

import inspect

import iadmm

# A name joins this list only together with a caller outside the tests,
# and CHANGES.md explains every edit to it.
PUBLIC_NAMES = [
    "BlockTriangular", "BlockVector", "Block", "CertificationError", "CheckRow",
    "ConfigError", "CorpusEntry", "DenseMap", "Grad2D", "HaarMap", "History",
    "IadmmError", "InnerResult", "InnerTrace", "LinearMap",
    "NumericError", "ProblemSpec", "ProxTerm", "RateFit", "ReferencePair",
    "SUITES", "ScaledIdentity", "SeparableBlur", "SmoothTerm", "SolveReport",
    "SolverParams", "StructuralError", "VStack", "ZeroMap", "energy", "from_id",
    "gamma_compatible", "gaussian_kernel", "gen_imaging", "gen_lasso", "gen_qp",
    "group_l2_prox", "group_shrink", "kkt_error", "l1_prox", "lagrangian_gap",
    "params_adaptive", "quadratic",
    "quadratic_smooth", "rate_fit", "run_inner", "run_suite", "solve",
    "solve_qp_kkt", "spectral_norm", "step3_update", "subproblem_minimizer",
    "two_step_ratio", "zero_prox", "zero_smooth",
]


def test_public_names_snapshot():
    names = sorted(n for n, v in vars(iadmm).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == sorted(PUBLIC_NAMES)
