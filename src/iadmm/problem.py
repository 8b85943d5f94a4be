"""Problem container: block objectives coupled by one linear constraint.

A problem is ``min sum_i f_i(x_i) + h_i(x_i)`` subject to
``sum_i A_i x_i = b``, with every ``f_i`` smooth convex and every
``h_i`` proximable convex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockspace import BlockVector, LinearMap, spectral_norm
from .errors import StructuralError
from .proxlib import ProxTerm, SmoothTerm


@dataclass
class Block:
    """One block: smooth part, proximable part, and constraint operator."""

    smooth: SmoothTerm
    nonsmooth: ProxTerm
    op: LinearMap

    @property
    def dim(self):
        return self.op.cols


class ProblemSpec:
    """A separable convex problem with a single linear coupling constraint."""

    def __init__(self, blocks, b):
        blocks = list(blocks)
        if not blocks:
            raise StructuralError("a problem needs at least one block")
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        rows = {blk.op.rows for blk in blocks}
        if len(rows) > 1 or b.size not in rows:
            raise StructuralError("constraint operators and b must share the row dimension")
        if not np.isfinite(b).all():
            raise StructuralError("b has non-finite entries")
        self.blocks = blocks
        self.b = b
        self.dims = tuple(blk.dim for blk in blocks)

    @property
    def m(self):
        return len(self.blocks)

    @property
    def n(self):
        return sum(self.dims)

    @property
    def rhs_dim(self):
        return self.b.size

    def ops(self):
        return [blk.op for blk in self.blocks]

    def _check(self, x):
        if not isinstance(x, BlockVector) or x.dims != self.dims:
            raise StructuralError("block vector does not match the problem")

    def apply_A(self, x):
        """Constraint image ``sum_i A_i x_i``."""
        self._check(x)
        out = np.zeros(self.rhs_dim)
        for blk, xi in zip(self.blocks, x.blocks):
            out += blk.op.apply(xi)
        return out

    def residual(self, x):
        """Constraint residual ``A x - b``."""
        return self.apply_A(x) - self.b

    def objective(self, x):
        """Total objective ``sum_i f_i(x_i) + h_i(x_i)`` (may be ``inf``)."""
        self._check(x)
        total = 0.0
        for blk, xi in zip(self.blocks, x.blocks):
            total += blk.smooth.value(xi) + blk.nonsmooth.value(xi)
        return float(total)

    def lagrangian(self, x, lam, objective=None, residual=None):
        """Ordinary Lagrangian ``objective + <lam, A x - b>``.

        ``objective`` and ``residual``, when given, are this problem's own
        ``objective(x)`` and ``residual(x)``, which are then not formed again.
        """
        lam = np.asarray(lam, dtype=np.float64).reshape(-1)
        if lam.size != self.rhs_dim:
            raise StructuralError("multiplier length does not match the constraint")
        if objective is None:
            objective = self.objective(x)
        if residual is None:
            residual = self.residual(x)
        return objective + float(lam @ residual)

    def mu_total(self):
        """Combined strong-convexity modulus ``min_i (mu_f_i + 3 mu_h_i)``."""
        return min(blk.smooth.modulus + 3.0 * blk.nonsmooth.modulus for blk in self.blocks)

    def gammas_power(self):
        """Per-block ``||A_i^T A_i||`` from power iteration (1.0 for zero maps)."""
        out = []
        for blk in self.blocks:
            s = spectral_norm(blk.op)
            out.append(s * s if s > 0.0 else 1.0)
        return out
