"""Exact energies of 0/1 spin chains with nearest and range-n couplings.

A chain of N = floor(L*n^2) sites carries one bit per site (site spacing
1/n^2, domain length L).  Two sites interact when their index distance is
1 or n; the periodic variant additionally couples distances N-1 and N-n.
An energy is the number of mismatched interacting pairs divided by n,
returned as an exact Fraction.

Grouping the chain into columns of n consecutive sites identifies it with
a subset of an n-row grid of cell size 1/n: distance-1 pairs are vertical
neighbours inside a column (or the top of one column against the bottom
of the next, the "wrap" pairs), and distance-n pairs are horizontal
neighbours between adjacent columns.

This module owns that picture for the whole package: the column heights,
the prefix profiles (`ColumnProfile`, each column filled bottom-up), the
pair windows the mismatch counts run over (`pair_windows`), and the
instance check (`check_volume`).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .rationals import frac

__all__ = [
    "SpinConfig",
    "site_count",
    "full_columns",
    "lambda_defect",
    "column_heights",
    "check_shape",
    "check_volume",
    "is_periodic",
    "energy_open",
    "energy_periodic",
    "pair_distances",
    "pair_windows",
    "volume",
    "energy_decomposition",
    "config_to_text",
    "parse_config",
    "ColumnProfile",
    "profile_to_config",
    "config_to_profile",
    "block_rearrange",
]


def site_count(n: int, L) -> int:
    """Number of sites N = floor(L * n^2), computed in exact integer arithmetic.

    Every instance path computes N here, so a chain with more sites than
    an index can count (``sys.maxsize``) is refused here, a ``ValueError``.
    """
    L = frac(L)
    N = L.numerator * n * n // L.denominator
    if N > sys.maxsize:
        raise ValueError(f"too many sites: N = floor(L n^2) has {N.bit_length()} bits, "
                         f"more than sys.maxsize = {sys.maxsize}")
    return N


def full_columns(n: int, L) -> int:
    """Number of height-n columns, floor(L * n)."""
    L = frac(L)
    return L.numerator * n // L.denominator


def lambda_defect(n: int, L) -> int:
    """Sites left over after filling full columns: floor(L n^2) - n floor(L n), in [0, n)."""
    return site_count(n, L) - n * full_columns(n, L)


def column_heights(n: int, L) -> tuple[int, ...]:
    lam = lambda_defect(n, L)
    heights = [n] * full_columns(n, L)
    if lam:
        heights.append(lam)
    return tuple(heights)


def check_shape(n: int, L) -> None:
    """Reject a lattice with n < 1 or L <= 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if L <= 0:
        raise ValueError("L must be positive")


def check_volume(n: int, L, k: int) -> int:
    """Validate an instance (n, L, k) and return its site count N.

    ``check_shape`` first, then 0 <= k <= N.
    """
    check_shape(n, L)
    N = site_count(n, L)
    if not 0 <= k <= N:
        raise ValueError(f"volume {k} outside [0, {N}]")
    return N


def is_periodic(boundary: str) -> bool:
    """Validate a boundary name, "open" or "periodic"; True for "periodic".

    Public functions take the boundary as one of these two strings; the
    kernels behind them take the bool this returns.
    """
    if boundary not in ("open", "periodic"):
        raise ValueError(f"boundary must be open or periodic, got {boundary!r}")
    return boundary == "periodic"


_BITS = frozenset((0, 1))
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


def _digits(values) -> str:
    """0/1 values as a string of "0"/"1" characters."""
    return bytes(values).translate(_TO_ASCII).decode()


@dataclass(frozen=True)
class SpinConfig:
    """A 0/1 configuration on the first floor(L n^2) sites of the 1/n^2 lattice."""

    n: int
    L: Fraction
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "L", frac(self.L))
        object.__setattr__(self, "values", tuple(map(int, self.values)))
        check_shape(self.n, self.L)
        if not _BITS.issuperset(self.values):
            raise ValueError("values must be 0/1")
        self._check_count()

    def _check_count(self) -> None:
        expected = site_count(self.n, self.L)
        if len(self.values) != expected:
            raise ValueError(
                f"expected {expected} sites for n={self.n}, L={self.L}, got {len(self.values)}"
            )

    @classmethod
    def _trusted(cls, n: int, L: Fraction, values: tuple[int, ...]) -> "SpinConfig":
        """A configuration built by this package: ``L`` is a Fraction and
        ``values`` a tuple of 0/1 ints.  The shape and the site count are
        checked, but the sites are not converted and checked again one by
        one, which costs O(N) and dominates building a large configuration."""
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "n", n)
        object.__setattr__(cfg, "L", L)
        object.__setattr__(cfg, "values", values)
        check_shape(n, L)
        cfg._check_count()
        return cfg

    @property
    def N(self) -> int:
        return len(self.values)

    def bitmask(self) -> int:
        """Pack the configuration into an int, site i at bit i-1."""
        return int(_digits(self.values)[::-1] or "0", 2)

    @staticmethod
    def from_bitmask(n: int, L, mask: int) -> "SpinConfig":
        N = site_count(n, L)
        # the low N bits of mask, site 1 first: bin() with a 1 set above
        # them, reversed, up to the leading "0b1"
        low = bin(mask & ((1 << N) - 1) | (1 << N))[:2:-1]
        return SpinConfig._trusted(n, frac(L), tuple(low.encode().translate(_FROM_ASCII)))

    def complement(self) -> "SpinConfig":
        return SpinConfig._trusted(self.n, self.L, tuple(1 - v for v in self.values))

    def columns(self) -> list[tuple[int, ...]]:
        out, pos = [], 0
        for h in column_heights(self.n, self.L):
            out.append(self.values[pos : pos + h])
            pos += h
        return out

    def column_counts(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in self.columns())


def volume(cfg: SpinConfig) -> int:
    """Number of occupied sites."""
    return sum(cfg.values)


def pair_distances(n: int, N: int, periodic: bool) -> tuple[int, ...]:
    """Interacting index distances inside 1..N-1, ascending, each class once.

    Open chains couple distances 1 and n; the periodic closure adds N-1 and
    N-n.  Coincident classes (n = 1, or N <= 2n on a ring) count once.
    """
    classes = (1, N - 1, n, N - n) if periodic else (1, n)
    return tuple(sorted({d for d in classes if 1 <= d <= N - 1}))


def pair_windows(n: int, N: int, periodic: bool) -> tuple[tuple[int, int], ...]:
    """``(d, window)`` per class of ``pair_distances``: bit i of the window is set
    iff the pair (i, i + d) of 0-based sites lies inside the chain.

    With site i at bit i of a mask, the class counts
    ``((mask ^ mask >> d) & window).bit_count()`` mismatched pairs.
    """
    return tuple((d, (1 << (N - d)) - 1) for d in pair_distances(n, N, periodic))


def _pair_mismatches(cfg: SpinConfig, periodic: bool) -> int:
    mask = cfg.bitmask()
    return sum(((mask ^ mask >> d) & w).bit_count()
               for d, w in pair_windows(cfg.n, cfg.N, periodic))


def energy_open(cfg: SpinConfig) -> Fraction:
    """Open-chain energy: (mismatched pairs at distances 1 and n) / n."""
    return Fraction(_pair_mismatches(cfg, False), cfg.n)


def energy_periodic(cfg: SpinConfig) -> Fraction:
    """Ring energy over distances {1, N-1, n, N-n}, each unordered pair counted once."""
    if cfg.N < 2:
        raise ValueError("periodic energy needs at least 2 sites")
    return Fraction(_pair_mismatches(cfg, True), cfg.n)


def energy_decomposition(cfg: SpinConfig) -> tuple[int, int, int]:
    """Split the open mismatch count into (vertical, horizontal, wrap) integers.

    vertical: distance-1 pairs inside a column (smaller index not divisible by n);
    wrap: distance-1 pairs joining the top of a column to the bottom of the next;
    horizontal: distance-n pairs (empty for n == 1, where that class coincides
    with the distance-1 class already counted).

    n * energy_open(cfg) == vertical + horizontal + wrap, exactly.
    """
    n, N, mask = cfg.n, cfg.N, cfg.bitmask()
    windows = dict(pair_windows(n, N, False))
    steps = (mask ^ mask >> 1) & windows.get(1, 0)
    tops = int(("1" + "0" * (n - 1)) * (N // n + 1), 2)  # bits n-1, 2n-1, ...
    wrap = (steps & tops).bit_count()
    horizontal = ((mask ^ mask >> n) & windows[n]).bit_count() if 1 < n < N else 0
    return steps.bit_count() - wrap, horizontal, wrap


# --- prefix profiles ------------------------------------------------------


@dataclass(frozen=True)
class ColumnProfile:
    """Per-column occupation counts of a prefix-form configuration."""

    n: int
    heights: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.heights) != len(self.counts):
            raise ValueError("heights and counts must align")
        for h, a in zip(self.heights, self.counts):
            if not (0 <= a <= h <= self.n):
                raise ValueError(f"count {a} outside column of height {h}")

    def volume(self) -> int:
        return sum(self.counts)


def profile_to_config(profile: ColumnProfile, L=None) -> SpinConfig:
    """Materialize a profile: column j gets ones on its first counts[j] sites.

    ``L`` defaults to N / n^2, the shortest length with the profile's sites.
    """
    values = tuple(b"".join(b"\x01" * a + b"\x00" * (h - a)
                            for h, a in zip(profile.heights, profile.counts)))
    if L is None:
        L = Fraction(len(values), profile.n * profile.n)
    return SpinConfig._trusted(profile.n, frac(L), values)


def config_to_profile(cfg: SpinConfig) -> ColumnProfile:
    """The column heights and per-column counts of a configuration."""
    return ColumnProfile(cfg.n, column_heights(cfg.n, cfg.L), cfg.column_counts())


def block_rearrange(cfg: SpinConfig) -> SpinConfig:
    """Move the ones of every column to that column's bottom prefix.

    Preserves per-column (hence total) volume and is idempotent.  Note:
    this does NOT always decrease the open energy; the wrap pair between
    a column's top site and the next column's bottom site can flip from
    matched to mismatched (e.g. n=2, (0,1,1,1) -> (1,0,1,1)).
    """
    return profile_to_config(config_to_profile(cfg), cfg.L)


# --- text serialization -------------------------------------------------

_RUN_RE = re.compile(r"0+|1+")
_HEADER_RE = re.compile(
    r"^n=(?P<n>\d+)\s+L=(?P<L>\d+(?:/\d+)?)\s+boundary=(?P<b>open|periodic)\s*$"
)


def config_to_text(cfg: SpinConfig, boundary: str = "open", rle: bool = False) -> str:
    """Serialize as a header line plus a 0/1 string (or run-length encoding)."""
    is_periodic(boundary)
    L = frac(cfg.L)
    header = f"n={cfg.n} L={L.numerator}/{L.denominator} boundary={boundary}"
    if not rle:
        return header + "\n" + _digits(cfg.values) + "\n"
    runs = ",".join(f"{len(run)}x{run[0]}" for run in _RUN_RE.findall(_digits(cfg.values)))
    return header + "\n" + runs + "\n"


def parse_config(text: str) -> tuple[SpinConfig, str]:
    """Parse the text format emitted by config_to_text (plain or run-length body).

    Returns the configuration and its header's boundary, "open" or "periodic".
    The empty chain's body is empty, so a header alone is read as that body;
    ``SpinConfig`` refuses it on a shape with sites.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) not in (1, 2):
        raise ValueError("expected a header line and a body line")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ValueError(f"bad header: {lines[0]!r}")
    n = int(m.group("n"))
    L = Fraction(m.group("L"))
    body = lines[1] if len(lines) == 2 else ""
    if "x" in body:
        bits: list[int] = []
        for part in body.split(","):
            count, _, bit = part.partition("x")
            bits.extend([int(bit)] * int(count))
        values = tuple(bits)
    else:
        values = tuple(int(c) for c in body)
    return SpinConfig(n, L, values), m.group("b")
