"""Continuum limit functionals on step functions.

The scaled chain energies converge to

    F(u)   = 2 * |{x : 0 < u(x) < 1}| + TV(u)            (open chain)
    F#(u)  = F(u) + boundary_term(tau, u(0+), u(L-))     (periodic chain)

for u: (0, L) -> [0, 1].  Everything here is evaluated on piecewise
constant u in exact arithmetic: every result is a Fraction, or a float
only when an irrational C/D shape (a square-root height or width) enters,
so equalities between the two routes (functional formula vs. geometric
perimeter accounting) can be asserted without tolerances when the data
are rational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .rationals import frac

__all__ = [
    "PiecewiseConstant",
    "TauParams",
    "total_variation",
    "continuum_energy",
    "continuum_energy_periodic",
    "boundary_term",
    "periodic_cell_perimeter",
]


_ZERO, _ONE = Fraction(0), Fraction(1)


def _number(x):
    """x as an exact Fraction; floats (irrational C/D shapes) pass unchanged."""
    return x if type(x) is Fraction or isinstance(x, float) else frac(x)


# --- exact interval sets ---------------------------------------------------
# An interval set is a list of disjoint, sorted (lo, hi) pairs with lo < hi.


def _normalize(segments):
    segs = sorted((lo, hi) for lo, hi in segments if lo < hi)
    out = []
    for lo, hi in segs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _measure(segs):
    total = 0
    for lo, hi in segs:
        total += hi - lo
    return total


def _clip(segs, lo, hi):
    return [(max(a, lo), min(b, hi)) for a, b in segs if max(a, lo) < min(b, hi)]


def _symmetric_difference_measure(a, b, lo, hi):
    """|A ^ B| within [lo, hi] as |A| + |B| - 2 |A & B|, both inputs normalized."""
    a = _clip(a, lo, hi)
    b = _clip(b, lo, hi)
    return _measure(a) + _measure(b) - 2 * _measure(_intersect(a, b))


def _intersect(a, b):
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        lo = max(a[ia][0], b[ib][0])
        hi = min(a[ia][1], b[ib][1])
        if lo < hi:
            out.append((lo, hi))
        if a[ia][1] < b[ib][1]:
            ia += 1
        else:
            ib += 1
    return out


# --- step functions --------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function u: (0, L) -> [0, 1], canonicalized.

    breakpoints = (0 = x0 < x1 < ... < xk = L); values has one entry per
    piece, u = values[m] on (x[m], x[m+1]).  Adjacent equal values are
    merged on construction.
    """

    L: Fraction
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        # validate and merge adjacent equal values in one pass
        L = frac(self.L)
        if L <= 0:
            raise ValueError("L must be positive")
        if len(self.breakpoints) != len(self.values) + 1:
            raise ValueError("need one more breakpoint than values")
        prev = _number(self.breakpoints[0])
        if prev != 0:
            raise ValueError("breakpoints must run from 0 to L")
        mb, mv = [prev], []
        for b, v in zip(self.breakpoints[1:], self.values):
            b, v = _number(b), _number(v)
            if b <= prev:
                raise ValueError("breakpoints must increase strictly")
            if v < 0 or v > 1:
                raise ValueError("values must lie in [0, 1]")
            if mv and v == mv[-1]:
                mb[-1] = b
            else:
                mv.append(v)
                mb.append(b)
            prev = b
        if prev != L:
            raise ValueError("breakpoints must run from 0 to L")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "breakpoints", tuple(mb))
        object.__setattr__(self, "values", tuple(mv))

    @staticmethod
    def constant(L, c) -> "PiecewiseConstant":
        L = frac(L)
        return PiecewiseConstant(L, (0, L), (c,))

    @staticmethod
    def indicator(L, a, b) -> "PiecewiseConstant":
        """Characteristic function of [a, b] inside (0, L)."""
        L, a, b = frac(L), frac(a), frac(b)
        if not 0 <= a < b <= L:
            raise ValueError("need 0 <= a < b <= L")
        bps = [_ZERO]
        vals = []
        if a > 0:
            bps.append(a)
            vals.append(_ZERO)
        bps.append(b)
        vals.append(_ONE)
        if b < L:
            bps.append(L)
            vals.append(_ZERO)
        return PiecewiseConstant(L, tuple(bps), tuple(vals))

    @staticmethod
    def from_pieces(L, pieces: Sequence[tuple]) -> "PiecewiseConstant":
        """pieces = [(to, value), ...] with increasing 'to' ending at L."""
        bps = [_ZERO] + [p[0] for p in pieces]
        vals = [p[1] for p in pieces]
        return PiecewiseConstant(frac(L), tuple(bps), tuple(vals))

    def pieces(self):
        return list(zip(self.breakpoints[:-1], self.breakpoints[1:], self.values))

    def left_value(self):
        """u(0+)."""
        return self.values[0]

    def right_value(self):
        """u(L-)."""
        return self.values[-1]

    def value_at(self, x):
        """Value on the piece whose half-open interval (x_{m-1}, x_m] contains x."""
        for m in range(len(self.values)):
            if self.breakpoints[m] < x <= self.breakpoints[m + 1]:
                return self.values[m]
        if x == 0:
            return self.values[0]
        raise ValueError(f"{x} outside (0, {self.L}]")

    def mean(self):
        total = 0
        for a, b, v in self.pieces():
            total += (b - a) * v
        return total / self.L

    def reflect(self) -> "PiecewiseConstant":
        """x -> u(L - x)."""
        bps = tuple(self.L - b for b in reversed(self.breakpoints))
        return PiecewiseConstant(self.L, bps, tuple(reversed(self.values)))

    def complement(self) -> "PiecewiseConstant":
        return PiecewiseConstant(self.L, self.breakpoints, tuple(1 - v for v in self.values))

    # JSON wire format: {"L": "p/q", "pieces": [{"to": ..., "value": ...}, ...]}
    def to_json(self) -> str:
        def enc(x):
            if isinstance(x, float):
                return x
            x = frac(x)
            return f"{x.numerator}/{x.denominator}"

        return json.dumps(
            {
                "L": enc(self.L),
                "pieces": [
                    {"to": enc(b), "value": enc(v)}
                    for b, v in zip(self.breakpoints[1:], self.values)
                ],
            }
        )

    @staticmethod
    def from_json(text: str) -> "PiecewiseConstant":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("step function must be a JSON object")
        if not (isinstance(doc["pieces"], list)
                and all(isinstance(p, dict) for p in doc["pieces"])):
            raise ValueError("pieces must be a list of {to, value} objects")

        # A number with a decimal part is the decimal it spells, as in the
        # sweep and phase readers; the irrational values to_json writes as
        # floats come back as the rationals of their shortest repr.
        pieces = [(frac(str(p["to"])), frac(str(p["value"]))) for p in doc["pieces"]]
        return PiecewiseConstant.from_pieces(frac(str(doc["L"])), pieces)


@dataclass(frozen=True)
class TauParams:
    """Periodicity-defect parameter tau in [0, 1] with its symmetrized pair."""

    tau: Fraction

    def __post_init__(self):
        t = frac(self.tau)
        if not 0 <= t <= 1:
            raise ValueError("tau must lie in [0, 1]")
        object.__setattr__(self, "tau", t)

    @cached_property
    def lo(self):
        """tau_* = min(tau, 1 - tau) <= 1/2."""
        return min(self.tau, 1 - self.tau)

    @cached_property
    def hi(self):
        """tau^* = max(tau, 1 - tau) >= 1/2."""
        return max(self.tau, 1 - self.tau)


def _as_tau(t) -> TauParams:
    return t if isinstance(t, TauParams) else TauParams(t)


# --- functionals ------------------------------------------------------------


def total_variation(u: PiecewiseConstant):
    """Sum of interior jump magnitudes on (0, L)."""
    return sum(abs(b - a) for a, b in zip(u.values, u.values[1:]))


def continuum_energy(u: PiecewiseConstant):
    """2 * (length where 0 < u < 1) + total variation, no boundary contribution."""
    bps = u.breakpoints
    fractional = sum(b - a for a, b, v in zip(bps, bps[1:], u.values) if 0 < v < 1)
    return 2 * fractional + total_variation(u)


def boundary_term(t, x, y):
    """Mismatch measure between the boundary traces of a periodic extension.

    With A = [0, y] and B = [-tau, x - tau] u [1 - tau, x + 1 - tau],
    returns |[0,1] ^ (B symdiff A)|: on the circle R mod 1, the symmetric
    difference x + y - 2|[0, y] n arc| of [0, y] and the arc of length x
    from s = 1 - tau to end = s + x.  The overlap is max(0, min(end, y) - s)
    if end <= 1, else max(0, y - s) + min(end - 1, y); floats use the same
    formula.  The interval sets serve only periodic_cell_perimeter.
    """
    t = _as_tau(t)
    x, y = _number(x), _number(y)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError("arguments must lie in [0, 1]")
    s = 1 - t.tau
    end = s + x
    if end <= 1:
        overlap = max(0, min(end, y) - s)
    else:
        overlap = max(0, y - s) + min(end - 1, y)
    return x + y - 2 * overlap


def continuum_energy_periodic(u: PiecewiseConstant, t):
    """Open-chain limit energy plus the boundary term at the seam."""
    t = _as_tau(t)
    return continuum_energy(u) + boundary_term(t, u.left_value(), u.right_value())


# --- perimeter accounting ---------------------------------------------------


def _occupancy_column(u: PiecewiseConstant, t: TauParams, x):
    """Vertical occupancy at abscissa x as an interval set inside [0, 1].

    The tiling translates the subgraph of u by (j*L, j*(1-tau) + m) over all
    integers j, m.  For x in (0, L) only j = 0 contributes; past the seam
    (x in (L, 2L)) only j = 1.
    """
    segs = []
    for j in (0, 1, -1):
        pos = x - j * u.L
        if 0 < pos < u.L:
            c = u.value_at(pos)
            if c > 0:
                off = j * (1 - t.tau)
                # stack periods m so that [off + m, off + m + c] can meet [0, 1]
                for m in (-2, -1, 0, 1, 2):
                    segs.append((off + m, off + m + c))
    return _clip(_normalize(segs), 0, 1)


def _occupancy_row(u: PiecewiseConstant, t: TauParams, y):
    """Horizontal occupancy at ordinate y restricted to [0, L]; only the j = 0
    column of translates meets the open strip (0, L)."""
    segs = []
    for m in (-1, 0, 1):
        rel = y - m
        for a, b, c in u.pieces():
            if 0 <= rel <= c:
                segs.append((a, b))
    return _clip(_normalize(segs), 0, u.L)


def periodic_cell_perimeter(u: PiecewiseConstant, t):
    """Boundary length (with axis-aligned normals) of the tiled subgraph in one cell.

    The subgraph of u is repeated under translations (L, 1 - tau) and (0, 1);
    this measures the resulting boundary inside (0, L] x (0, 1] by sweeping
    vertical and horizontal cut lines and measuring occupancy differences.
    Agrees with continuum_energy_periodic.
    """
    t = _as_tau(t)
    L = u.L

    # vertical boundary: interior breakpoints plus the seam at x = L
    xs = sorted(set(list(u.breakpoints[1:-1]) + [L]))
    x_probe = sorted(set([Fraction(0), L] + list(u.breakpoints) + [L + b for b in u.breakpoints]))
    gaps = [b - a for a, b in zip(x_probe, x_probe[1:]) if b > a]
    dx = min(gaps) / 2
    total = 0
    for x0 in xs:
        left = _occupancy_column(u, t, x0 - dx)
        right = _occupancy_column(u, t, x0 + dx)
        total += _symmetric_difference_measure(left, right, 0, 1)

    # horizontal boundary: piece values (and 0) shifted by whole periods
    ys = set()
    for v in list(u.values) + [0]:
        for m in (-1, 0, 1):
            yv = v + m
            if 0 < yv <= 1:
                ys.add(yv)
    y_probe = sorted(set(list(ys) + [Fraction(0), Fraction(1)]))
    gaps = [b - a for a, b in zip(y_probe, y_probe[1:]) if b > a]
    dy = min(gaps) / 2 if gaps else Fraction(1, 4)
    for y0 in sorted(ys):
        below = _occupancy_row(u, t, y0 - dy)
        above = _occupancy_row(u, t, y0 + dy)
        total += _symmetric_difference_measure(below, above, 0, L)
    return total
