"""Small helpers for exact rational arithmetic.

Lengths, volume fractions and defect parameters are kept as
`fractions.Fraction` throughout the package so that floor operations,
threshold comparisons and energy equalities are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac(x) -> Fraction:
    """Coerce ints, Fractions, floats and strings like '3/2' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def sqrt_exact(x: Fraction):
    """Return sqrt(x) as a Fraction when x is a perfect rational square, else a float."""
    if x < 0:
        raise ValueError("negative radicand")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return math.sqrt(num / den)
