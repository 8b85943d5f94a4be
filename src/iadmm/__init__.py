"""Inexact accelerated multi-block ADMM with back substitution.

Solves ``min sum_i f_i(x_i) + h_i(x_i)`` subject to
``sum_i A_i x_i = b`` with smooth convex ``f_i`` and proximable convex
``h_i``, using sequential accelerated inner loops whose accuracy is
driven by the outer residual, and a triangular corrective step that
makes the sweep order harmless.
"""

from .blockspace import (BlockTriangular, BlockVector, DenseMap, Grad2D,
                         HaarMap, LinearMap, ScaledIdentity, VStack, ZeroMap,
                         spectral_norm)
from .diagnostics import (CheckRow, RateFit, ReferencePair, energy, kkt_error,
                          lagrangian_gap, rate_fit, two_step_ratio)
from .errors import (CertificationError, ConfigError, IadmmError,
                     NumericError, StructuralError)
from .inner import (InnerConfig, InnerResult, InnerTrace, line_search_accept,
                    params_adaptive, params_constant, run_inner)
from .oracle import solve_qp_kkt, subproblem_minimizer
from .outer import (History, SolveReport, SolverParams, gamma_compatible,
                    solve, step3_update)
from .problem import Block, ProblemSpec
from .problems import (CorpusEntry, SeparableBlur, from_id, gaussian_kernel,
                       gen_imaging, gen_lasso, gen_qp)
from .proxlib import (ProxTerm, SmoothTerm, group_l2_prox, group_shrink,
                      l1_prox, quadratic, quadratic_smooth, soft_threshold,
                      zero_prox, zero_smooth)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
