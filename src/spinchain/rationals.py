"""Small helpers for exact rational arithmetic.

Lengths, volume fractions and defect parameters are kept as
`fractions.Fraction` throughout the package so that floor operations,
threshold comparisons and energy equalities are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac(x) -> Fraction:
    """Coerce ints, Fractions and strings like '3/2' to Fraction.

    A float is a ``ValueError`` naming it: its binary value is not the
    rational it was written as, and rounding it would be a silent guess.
    A string with a zero denominator, such as '1/0', is a ``ValueError``
    naming it, as a malformed one is.
    """
    if type(x) is int:  # ahead of isinstance(x, Fraction), which asks the numbers ABC
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise ValueError(f"float {x!r} is not an exact rational; give it as a Fraction or "
                         "a string such as '3/2'")
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
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
