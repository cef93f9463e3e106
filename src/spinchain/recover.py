"""Discrete configurations approximating a target step function.

These are the constructive halves of the discrete-to-continuum story:
given a step function u, build chain configurations whose energies
approach the limit value, either freely (``recovery_unconstrained``) or
at an exactly prescribed volume (``recovery_constrained``, energy at most
(2*floor(L*n) + 3)/n whatever the volume).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .continuum import PiecewiseConstant, continuum_energy
from .lattice import (
    ColumnProfile,
    SpinConfig,
    check_volume,
    column_heights,
    energy_open,
    full_columns,
    lambda_defect,
    profile_to_config,
)
from .rationals import frac

__all__ = [
    "RecoveryPlan",
    "recovery_unconstrained",
    "recovery_constrained",
    "convergence_evidence",
    "convergence_csv",
    "ConvergenceRow",
]


@dataclass(frozen=True)
class RecoveryPlan:
    """Derived integers of a volume-constrained construction at fineness n.

    k = (floor(L*n) + 1) * a + b with 0 <= b <= floor(L*n), 0 <= a < n;
    when a exceeds the column defect lam, additionally
    a - lam + b = gamma * floor(L*n) + delta with 0 <= delta < floor(L*n).
    """

    n: int
    L: Fraction
    k: int
    a: int
    b: int
    lam: int
    gamma: Optional[int] = None
    delta: Optional[int] = None

    @staticmethod
    def for_volume(n: int, L, k: int) -> "RecoveryPlan":
        L = frac(L)
        check_volume(n, L, k)
        m0 = full_columns(n, L)
        lam = lambda_defect(n, L)
        a, b = divmod(k, m0 + 1)
        gamma = delta = None
        if a > lam:
            gamma, delta = divmod(a - lam + b, m0)
        return RecoveryPlan(n, L, k, a, b, lam, gamma, delta)


def _column_profile(u: PiecewiseConstant, n: int) -> ColumnProfile:
    """Per-column occupation counts floor(n * c) of the snapped target."""
    snapped_cuts = [Fraction(math.floor(n * x), n) for x in u.breakpoints]
    heights = column_heights(n, u.L)
    counts = []
    for j, h in enumerate(heights):
        left = Fraction(j, n)
        m = None
        for idx in range(len(u.values)):
            if snapped_cuts[idx] <= left < snapped_cuts[idx + 1]:
                m = idx
                break
        if m is None:
            m = len(u.values) - 1  # trailing partial column past the last cut
        c = u.values[m]
        count = min(math.floor(n * c), h)
        counts.append(count)
    return ColumnProfile(n, heights, tuple(counts))


def recovery_unconstrained(u: PiecewiseConstant, n: int) -> SpinConfig:
    """Columnwise discretization of u with quantized plateau heights.

    Column j is filled bottom-up with floor(n * c) sites, where c is the
    value of u on the piece containing the column (piece positions snapped
    to the 1/n grid).  Requires n large enough that distinct pieces stay
    distinct after snapping: n > max(#pieces, 1/min piece width).
    """
    pieces = len(u.values)
    min_width = min(b - a for a, b, _ in u.pieces())
    required = max(pieces, math.floor(1 / min_width) + 1)
    if n <= required - 1 or min_width * n <= 1:
        raise ValueError(f"n={n} too coarse for this partition; need n >= {required}")
    return profile_to_config(_column_profile(u, n), u.L)


def recovery_constrained(n: int, L, k: int) -> SpinConfig:
    """A volume-k configuration with energy at most (2*floor(L*n) + 3)/n.

    Spreads the volume almost evenly: every column gets a or a+1 sites
    (plan regime a <= lam), or a+gamma / a+gamma+1 sites (regime a > lam),
    the taller columns forming a single leading block; the final partial
    column is truncated to its lam sites.  The truncation loses nothing:
    the construction places at most min(column count, lam) sites there.
    """
    plan = RecoveryPlan.for_volume(n, frac(L), k)
    m0 = full_columns(n, plan.L)
    lam = plan.lam
    ncols = m0 + 1  # virtual layout before truncation

    if plan.a <= lam:
        per_col = [plan.a + 1 if j <= plan.b else plan.a for j in range(1, ncols + 1)]
    else:
        per_col = [
            plan.a + plan.gamma + 1 if j <= plan.delta else plan.a + plan.gamma
            for j in range(1, ncols + 1)
        ]

    # with lam == 0 the virtual extra column has no sites; zip drops it
    heights = column_heights(n, plan.L)
    counts = tuple(min(a, h) for h, a in zip(heights, per_col))
    cfg = profile_to_config(ColumnProfile(n, heights, counts), plan.L)
    if sum(cfg.values) != k:
        raise AssertionError("construction lost volume")
    return cfg


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    energy: Fraction
    limit: float
    gap: float
    bound: float


def convergence_evidence(u: PiecewiseConstant, n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Energies of the discretizations against the limit value of u.

    One row per fineness: (n, discrete energy, limit, gap, (k+3)/n bound)
    with k the number of pieces of u.
    """
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    limit = continuum_energy(u)
    pieces = len(u.values)
    rows = []
    for n in n_list:
        cfg = recovery_unconstrained(u, n)
        e = energy_open(cfg)
        rows.append(
            ConvergenceRow(
                n=n,
                energy=e,
                limit=float(limit),
                gap=float(e) - float(limit),
                bound=(pieces + 3) / n,
            )
        )
    return rows


def convergence_csv(rows: Sequence[ConvergenceRow]) -> str:
    out = ["n,energy,limit,gap,bound"]
    for r in rows:
        out.append(f"{r.n},{float(r.energy):.12g},{r.limit:.12g},"
                   f"{r.gap:.12g},{r.bound:.12g}")
    return "\n".join(out) + "\n"
