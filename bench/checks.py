"""Output checks computed apart from the solver.

Every check rebuilds what it needs from an entry's raw generated arrays
(``entry.data``) with plain numpy: a dense KKT solve for the QPs, a
soft-threshold KKT residual for the lasso problems, and a Toeplitz blur,
forward differences and a Haar transform of its own for the imaging
model.  None of it calls into the solver's operators, prox maps or
diagnostics.  Each function returns a list of ``(name, value, limit)``
rows; a row passes when ``value <= limit``.
"""

import numpy as np

# Relative error allowed against the dense KKT solution after a
# fixed-horizon QP solve (today's solves reach about 1e-14).
QP_REL_TOL = 1e-8
# The averaged-gap and weighted-gap bounds are checked with the same
# absolute slack the solver's own verification suites use.
GAP_SLACK = 1e-8
# A lasso solve stopped at ``tol`` must have a KKT residual within this
# factor of ``tol`` (today's solves read 2.5 to 4.3 times ``tol``).
LASSO_KKT_FACTOR = 20.0
# The imaging constraint residual may exceed the stopping tolerance by
# this factor ("on the order of the tolerance").
IMG_RESIDUAL_FACTOR = 10.0
# Number of trailing two-step energy ratios that must stay below one.
RATIO_TAIL = 50


def _blocks(data, key):
    out, i = [], 0
    while "%s%d" % (key, i) in data:
        out.append(np.asarray(data["%s%d" % (key, i)], dtype=np.float64))
        i += 1
    return out


def qp_kkt_solution(data):
    """Solve the QP's KKT system assembled from ``H<i>``, ``c<i>``, ``A<i>``, ``b``."""
    Hs, cs, As = _blocks(data, "H"), _blocks(data, "c"), _blocks(data, "A")
    b = np.asarray(data["b"], dtype=np.float64)
    n = sum(c.size for c in cs)
    N = b.size
    K = np.zeros((n + N, n + N))
    k = 0
    for H, A in zip(Hs, As):
        d = H.shape[0]
        K[k:k + d, k:k + d] = H
        K[k:k + d, n:] = A.T
        K[n:, k:k + d] = A
        k += d
    sol = np.linalg.solve(K, np.concatenate([-np.concatenate(cs), b]))
    return sol[:n], sol[n:]


def check_qp(data, z, lam):
    """Returned ``z`` and ``lam`` against the dense KKT solution."""
    x_star, lam_star = qp_kkt_solution(data)
    z_err = np.linalg.norm(z - x_star) / (1.0 + np.linalg.norm(x_star))
    lam_err = np.linalg.norm(lam - lam_star) / (1.0 + np.linalg.norm(lam_star))
    return [("z_rel_err", float(z_err), QP_REL_TOL),
            ("lam_rel_err", float(lam_err), QP_REL_TOL)]


def check_averaged_gap(history, alpha):
    """Convex-mode bound ``gap(zbar_T) <= E_1 / (2 alpha T)`` at the horizon."""
    T = len(history.erg_gap)
    bound = history.E[0] / (2.0 * alpha * T)
    return [("averaged_gap", float(history.erg_gap[-1]), float(bound + GAP_SLACK))]


def check_energy_decay(E):
    """Largest relative rise ``(E[k+1] - E[k]) / (1 + E[k])`` of the tracked energy."""
    E = np.asarray(E, dtype=np.float64)
    rise = np.max((E[1:] - E[:-1]) / (1.0 + E[:-1]))
    return [("energy_rise", float(rise), GAP_SLACK)]


def check_weighted_gap(history, alpha, cbar, k0):
    """Strong-mode bound ``gap(ztilde_T) <= 2 cbar / (alpha (T (T + 1) + 2 k0 T))``."""
    T = len(history.w_gap)
    bound = 2.0 * cbar / (alpha * (T * (T + 1.0) + 2.0 * k0 * T))
    return [("weighted_gap", float(history.w_gap[-1]),
             float(bound + GAP_SLACK * (1.0 + cbar)))]


def soft(v, t):
    """Soft-threshold written as ``v - clip(v, -t, t)``."""
    return v - np.clip(v, -t, t)


def lasso_kkt_residual(data, z_blocks, lam):
    """``||sum A_i z_i - b|| + sum_i ||z_i - soft(z_i - grad_i - A_i^T lam, w_i)||``."""
    As = _blocks(data, "A")
    G, target = data["G"], data["target"]
    weights = np.asarray(data["weights"], dtype=np.float64)
    res = sum(A @ zi for A, zi in zip(As, z_blocks)) - data["b"]
    total = float(np.linalg.norm(res))
    for i, (A, zi) in enumerate(zip(As, z_blocks)):
        grad = G.T @ (G @ zi - target) if i == 0 else np.zeros_like(zi)
        step = zi - grad - A.T @ lam
        total += float(np.linalg.norm(zi - soft(step, weights[i])))
    return total


def max_two_step_ratio(E, tail=RATIO_TAIL):
    """Largest ``E[k+2] / E[k]`` over the last ``tail`` ratios of the live series."""
    E = np.asarray(E, dtype=np.float64)
    dead = np.nonzero(~(E > 1e-300))[0]
    if dead.size:
        E = E[:dead[0]]
    if E.size < 3:
        return float("inf")
    return float(np.max((E[2:] / E[:-2])[-tail:]))


def check_lasso(data, z_blocks, lam, history, tol):
    """KKT residual within a factor of ``tol``; two-step energy ratios below 1."""
    return [("kkt_residual", lasso_kkt_residual(data, z_blocks, lam), LASSO_KKT_FACTOR * tol),
            ("two_step_ratio_tail", max_two_step_ratio(history.E), 1.0 - 1e-12)]


def toeplitz_blur(kernel, side):
    """Banded symmetric Toeplitz matrix ``T`` with ``blur(U) = T U T``."""
    kernel = np.asarray(kernel, dtype=np.float64)
    r = kernel.size // 2
    off = np.arange(side)[None, :] - np.arange(side)[:, None]
    return np.where(np.abs(off) <= r, kernel[np.clip(off + r, 0, 2 * r)], 0.0)


def forward_differences(U):
    """Horizontal and vertical forward differences, zero past the last row/column."""
    dh = np.zeros_like(U)
    dv = np.zeros_like(U)
    dh[:, :-1] = np.diff(U, axis=1)
    dv[:-1, :] = np.diff(U, axis=0)
    return dh, dv


def haar_matrix(n):
    """One level of the orthonormal 1-d Haar analysis: pair sums, then pair differences."""
    S = np.zeros((n, n))
    h = n // 2
    k = np.arange(h)
    S[k, 2 * k] = S[k, 2 * k + 1] = S[h + k, 2 * k] = np.sqrt(0.5)
    S[h + k, 2 * k + 1] = -np.sqrt(0.5)
    return S


def haar(U, levels):
    """Multi-level 2-d Haar analysis, each level ``S X S^T`` on the low-pass corner."""
    X = U.copy()
    size = X.shape[0]
    for _ in range(levels):
        S = haar_matrix(size)
        X[:size, :size] = S @ X[:size, :size] @ S.T
        size //= 2
    return X


def img_objective(data, u, tv_weight, l1_weight, levels):
    """``F(u, D u, Psi^T u)``: blur fit plus isotropic TV plus wavelet l1."""
    f = np.asarray(data["f"], dtype=np.float64)
    side = int(round(np.sqrt(f.size)))
    T = toeplitz_blur(data["kernel"], side)
    U = np.asarray(u, dtype=np.float64).reshape(side, side)
    fit = (T @ U @ T).reshape(-1) - f
    dh, dv = forward_differences(U)
    return float(0.5 * (fit @ fit) + tv_weight * np.sum(np.hypot(dh, dv))
                 + l1_weight * np.sum(np.abs(haar(U, levels))))


def img_residual(u, w, v, levels):
    """Norm of ``(D u - w, Psi^T u - v)`` with ``D u`` interleaved per pixel."""
    side = int(round(np.sqrt(u.size)))
    U = u.reshape(side, side)
    dh, dv = forward_differences(U)
    r1 = np.stack([dh, dv], axis=-1).reshape(-1) - w
    r2 = haar(U, levels).reshape(-1) - v
    return float(np.sqrt(r1 @ r1 + r2 @ r2))


def check_img(data, z_blocks, tol, tv_weight, l1_weight, levels):
    """Objective at ``u`` no worse than at the true image; residual near ``tol``."""
    u, w, v = z_blocks
    return [("objective", img_objective(data, u, tv_weight, l1_weight, levels),
             img_objective(data, data["u_true"], tv_weight, l1_weight, levels)),
            ("constraint_residual", img_residual(u, w, v, levels), IMG_RESIDUAL_FACTOR * tol)]
