"""Closed-form minimizers of the continuum energies under a mean constraint.

Both constrained problems (open interval, periodic seam) have four
competing minimizer shapes:

  A  constant u = sigma                         (bulk plateau)
  B  characteristic function of a sigma*L slab  (full-height block)
  C  a low block c * chi_[s, s+y], c, y free    (partial block)
  D  the complement of a C-shape                (partial hole)

Which shape wins depends on (L, sigma) and, for the periodic problem, on
the periodicity-defect parameter tau.  All regime comparisons are done on
squared values in exact rational arithmetic; ties at regime boundaries
are reported with every tied shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .continuum import (
    PiecewiseConstant,
    TauParams,
    _as_tau,
    continuum_energy,
    continuum_energy_periodic,
)
from .rationals import frac, sqrt_exact

__all__ = [
    "ProblemParams",
    "MinimizerReport",
    "classify_open",
    "classify_periodic",
    "periodicity_defects",
    "phase_diagram",
]


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of one constrained minimization instance."""

    L: Fraction
    sigma: Fraction
    tau: Optional[Fraction] = None  # None = open problem

    def __post_init__(self):
        object.__setattr__(self, "L", frac(self.L))
        object.__setattr__(self, "sigma", frac(self.sigma))
        if self.tau is not None:
            object.__setattr__(self, "tau", frac(self.tau))
        if self.L <= 0:
            raise ValueError("L must be positive")
        if not 0 <= self.sigma <= 1:
            raise ValueError("sigma must lie in [0, 1]")
        if self.tau is not None and not 0 <= self.tau <= 1:
            raise ValueError("tau must lie in [0, 1]")


@dataclass
class MinimizerReport:
    case: str                 # primary winning shape, "A".."D"
    cases: tuple              # all tied winning shapes
    value: float              # minimal energy
    value_exact: Optional[Fraction]  # exact value when rational
    representatives: list    # PiecewiseConstant minimizers, one+ per tied case
    degenerate: bool
    degeneracy: str
    boundary: str             # "open" | "periodic"
    tau: Optional[Fraction] = None  # the periodic problem's defect parameter; None when open

    def evaluate(self, u: PiecewiseConstant):
        """Energy of u in this report's problem: open, or periodic at ``tau``."""
        if self.boundary == "open":
            return continuum_energy(u)
        return continuum_energy_periodic(u, self._tau_params)

    @cached_property
    def _tau_params(self) -> TauParams:
        """``tau`` validated once per report, not once per evaluation."""
        return TauParams(self.tau)


def _sqrt_value(sq: Fraction):
    """(float value, exact Fraction or None) for sqrt(sq)."""
    r = sqrt_exact(sq)
    if isinstance(r, Fraction):
        return float(r), r
    return r, None


def _check_representatives(report: MinimizerReport):
    for u in report.representatives:
        got = report.evaluate(u)
        if report.value_exact is not None and not isinstance(got, float):
            if got != report.value_exact:
                raise AssertionError((got, report.value_exact))
        elif not abs(float(got) - report.value) <= 1e-12 * max(1.0, report.value):
            raise AssertionError((got, report.value))


def _constant_report(L: Fraction, sigma: Fraction, boundary: str,
                     tau: Optional[Fraction] = None) -> MinimizerReport:
    """sigma in {0, 1}: the constant configuration, zero energy, on either boundary."""
    rep = MinimizerReport("A", ("A",), 0.0, Fraction(0), [PiecewiseConstant.constant(L, sigma)],
                          False, "constant configuration, zero energy", boundary, tau=tau)
    _check_representatives(rep)
    return rep


def classify_open(L, sigma) -> MinimizerReport:
    """Minimize 2|{0<u<1}| + TV(u) over u: (0,L) -> [0,1] with mean sigma.

    Returns the winning shape(s) among the four candidates with exact
    threshold comparisons: values 2L (A), 1 (B), 2*sqrt(2*sigma*L) (C),
    2*sqrt(2*(1-sigma)*L) (D).
    """
    p = ProblemParams(L, sigma)
    L, sigma = p.L, p.sigma

    if sigma == 0 or sigma == 1:
        return _constant_report(L, sigma, "open")

    # squared candidate values; every candidate shape is feasible whenever
    # it is minimal (its best block then fits inside the domain)
    squared = {
        "A": L * L * 4,
        "B": Fraction(1),
        "C": sigma * L * 8,
        "D": (1 - sigma) * L * 8,
    }
    best_sq = min(squared.values())
    winners = tuple(c for c in "ABCD" if squared[c] == best_sq)

    value, value_exact = _sqrt_value(best_sq)
    reps: list[PiecewiseConstant] = []
    notes = []
    for c in winners:
        if c == "A":
            reps.append(PiecewiseConstant.constant(L, sigma))
            notes.append("unique constant")
        elif c == "B":
            reps.append(PiecewiseConstant.indicator(L, 0, sigma * L))
            reps.append(PiecewiseConstant.indicator(L, L - sigma * L, L))
            notes.append("full-height slab at either end")
        elif c == "C":
            h = sqrt_exact(2 * sigma * L)
            w = h / 2
            reps.append(PiecewiseConstant.from_pieces(L, [(w, h), (L, Fraction(0))]))
            reps.append(PiecewiseConstant.from_pieces(L, [(L - w, Fraction(0)), (L, h)]))
            notes.append("partial block at either end")
        elif c == "D":
            h = sqrt_exact(2 * (1 - sigma) * L)
            w = h / 2
            reps.append(PiecewiseConstant.from_pieces(L, [(w, 1 - h), (L, Fraction(1))]))
            reps.append(PiecewiseConstant.from_pieces(L, [(L - w, Fraction(1)), (L, 1 - h)]))
            notes.append("partial hole at either end")
    degenerate = len(winners) > 1 or winners[0] != "A"
    rep = MinimizerReport(winners[0], winners, value, value_exact, reps,
                          degenerate, "; ".join(notes), "open")
    _check_representatives(rep)
    return rep


def _periodic_candidates(L: Fraction, sigma: Fraction, tau_lo: Fraction):
    """Squared candidate values for the periodic problem, None = shape not feasible."""
    rest = 1 - sigma
    block, hole = sigma * L, rest * L
    return {
        "A": (L + min(sigma, rest, tau_lo)) ** 2 * 4,
        "B": Fraction(4),
        "C": block * 16 if (sigma <= L and block <= 1) else None,
        "D": hole * 16 if (rest <= L and hole <= 1) else None,
    }


def classify_periodic(L, sigma, tau) -> MinimizerReport:
    """Minimize the periodic-seam energy at mean sigma and defect parameter tau.

    Candidate values: 2L + 2*min(sigma, 1-sigma, tau_*) (A), 2 (B),
    4*sqrt(sigma*L) (C, needs sigma <= L and sigma*L <= 1),
    4*sqrt((1-sigma)*L) (D, mirror condition).  For sigma >= tau_* > 0 the
    A-minimizer is one member of an infinite monotone family.  tau may be
    given as a TauParams, so that a grid validates it once.
    """
    t = _as_tau(tau)
    p = ProblemParams(L, sigma, t.tau)
    L, sigma = p.L, p.sigma

    if sigma == 0 or sigma == 1:
        return _constant_report(L, sigma, "periodic", p.tau)

    mirrored = sigma > Fraction(1, 2)
    s = 1 - sigma if mirrored else sigma

    squared = _periodic_candidates(L, s, t.lo)
    feasible = {c: v for c, v in squared.items() if v is not None}
    best_sq = min(feasible.values())
    winners = tuple(c for c in "ABCD" if feasible.get(c) == best_sq)
    value, value_exact = _sqrt_value(best_sq)

    reps: list[PiecewiseConstant] = []
    notes = []
    degenerate = False
    for c in winners:
        if c == "A":
            reps.append(PiecewiseConstant.constant(L, s))
            if t.lo > 0 and s >= t.lo:
                # the minimizer family is monotone with an endpoint step of at
                # most tau_*, falling across the seam for tau <= 1/2 and rising
                # for tau > 1/2 (the two are exchanged by reflection)
                degenerate = True
                half_step = t.lo / 2
                c1, c2 = s + half_step, s - half_step
                falling = t.tau <= Fraction(1, 2)
                steps = [(L / 2, c1), (L, c2)] if falling else [(L / 2, c2), (L, c1)]
                reps.append(PiecewiseConstant.from_pieces(L, steps))
                word = "non-increasing" if falling else "non-decreasing"
                notes.append(
                    f"every {word} profile with the same mean and "
                    "endpoint step at most tau_*")
            else:
                notes.append("unique constant")
        elif c == "B":
            degenerate = True
            slab = s * L
            reps.append(PiecewiseConstant.indicator(L, 0, slab))
            lo = (L - slab) / 2
            reps.append(PiecewiseConstant.indicator(L, lo, lo + slab))
            notes.append("all cyclic translations of a full-height slab")
        elif c == "C":
            w = sqrt_exact(s * L)
            if w == L:
                # block family collapses onto the constant (shared with A)
                if "A" not in winners:
                    reps.append(PiecewiseConstant.constant(L, s))
                notes.append("block family degenerates to the constant")
            else:
                degenerate = True
                reps.append(PiecewiseConstant.from_pieces(L, [(w, w), (L, Fraction(0))]))
                mid = (L - w) / 2
                if 0 < mid and mid + w < L:
                    reps.append(PiecewiseConstant.from_pieces(
                        L, [(mid, Fraction(0)), (mid + w, w), (L, Fraction(0))]))
                notes.append("all translations of a square block")
        elif c == "D":
            w = sqrt_exact((1 - s) * L)
            if w == L:
                if "A" not in winners:
                    reps.append(PiecewiseConstant.constant(L, s))
                notes.append("hole family degenerates to the constant")
            else:
                degenerate = True
                reps.append(PiecewiseConstant.from_pieces(L, [(w, 1 - w), (L, Fraction(1))]))
                mid = (L - w) / 2
                if 0 < mid and mid + w < L:
                    reps.append(PiecewiseConstant.from_pieces(
                        L, [(mid, Fraction(1)), (mid + w, 1 - w), (L, Fraction(1))]))
                notes.append("all translations of a square hole")

    if mirrored:
        # u -> 1 - u(L - x) preserves the energy and the monotonicity direction
        reps = [PiecewiseConstant(L, tuple(L - b for b in reversed(u.breakpoints)),
                                  tuple(1 - v for v in reversed(u.values)))
                for u in reps]
        winners = tuple({"C": "D", "D": "C"}.get(c, c) for c in winners)

    rep = MinimizerReport(winners[0], winners, value, value_exact, reps,
                          degenerate, "; ".join(notes), "periodic", tau=p.tau)
    _check_representatives(rep)
    return rep


def periodic_regime_conditions(L, sigma, tau) -> dict:
    """The analytic regime tests for shapes A and B (boundaries inclusive).

    A: (L <= tau_* and L <= sigma <= 1-L) or
       (tau_* <= L <= tau^* and (L+tau_*)^2/(4L) <= sigma <= 1-(L+tau_*)^2/(4L));
    B: L >= tau^* and 1/(4L) <= sigma <= 1 - 1/(4L).
    """
    L, sigma = frac(L), frac(sigma)
    t = TauParams(frac(tau))
    thr = (L + t.lo) ** 2  # compare against 4*L*sigma to avoid division
    cond_a = (L <= t.lo and L <= sigma <= 1 - L) or (
        t.lo <= L <= t.hi and thr <= 4 * L * sigma and thr <= 4 * L * (1 - sigma)
    )
    cond_b = L >= t.hi and 1 <= 4 * L * sigma and 1 <= 4 * L * (1 - sigma)
    return {"A": cond_a, "B": cond_b}


def periodicity_defects(L) -> tuple:
    """All attainable limits of the defect sequence lam_n / n for rational L = p/q.

    Returns {k/q : k = 0..q}; 0 is always attainable.  Irrational L (where
    the limit set would be all of [0,1]) is outside the rational input domain.
    """
    L = frac(L)
    if L <= 0:
        raise ValueError("L must be positive")
    q = L.denominator
    return tuple(Fraction(k, q) for k in range(q + 1))


def phase_diagram(L_grid, sigma_grid, tau=None) -> list:
    """Classify every (L, sigma) cell; returns a row-major list of report rows."""
    if not L_grid or not sigma_grid:
        raise ValueError("grids must be non-empty")
    if tau is None:
        return [[classify_open(L, s) for s in sigma_grid] for L in L_grid]
    t = _as_tau(tau)
    return [[classify_periodic(L, s, t) for s in sigma_grid] for L in L_grid]
