"""Volume-constrained ground states of the chain energies.

Three routes:

* ``brute_force_min``   exhaustive oracle (full 2^N sweep, or subset
  enumeration when only C(N, k) is small); exact, guarded.
* ``column_dp_min``     open-chain minimum over prefix profiles by dynamic
  programming over per-column occupation counts, each column filled
  bottom-up.
* ``periodic_min``      exact when the brute-force guard allows it,
  otherwise the better of a cyclic column DP and simulated annealing,
  flagged as an upper bound.

Both column DPs share one core (``_column_dp``): each column step takes
the minimum over the previous column's count as an L1 distance transform,
two running minima over the count axis vectorised over the volume axis,
so a solve costs O(ncols n k) rather than O(ncols n^2 k).

The DP searches prefix profiles only: within each column the occupied
sites form a bottom prefix.  Moving every column's sites to the bottom
does not always lower the energy configuration-by-configuration (the
cross-column wrap pair can flip against it), and the minimum over prefix
profiles is not always the open minimum either: at (n, L, k) = (6, 5/4, 39)
it is 7/6, while a volume-39 configuration with zeros at sites 37-39 and
43-45 has energy 1.  Every such case found so far has a partial last column
and N > 28, beyond the brute-force oracle.
"""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .lattice import (
    EdgeKind,
    SpinConfig,
    column_heights,
    config_to_text,
    energy_open,
    energy_periodic,
    lambda_defect,
    site_count,
)
from .rationals import frac

__all__ = [
    "ColumnProfile",
    "SolveResult",
    "SolverGuardError",
    "block_rearrange",
    "brute_force_min",
    "column_dp_min",
    "periodic_min",
    "profile_to_config",
]

FULL_SWEEP_MAX_N = 28
SUBSET_ENUM_MAX = 10**7
MAX_OPTIMA = 10**4
_INF = 1 << 30


class SolverGuardError(ValueError):
    """Instance too large for the requested exact method."""


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
    """Materialize a profile: column j gets ones on its first counts[j] sites."""
    values: list[int] = []
    for h, a in zip(profile.heights, profile.counts):
        values.extend([1] * a + [0] * (h - a))
    if L is None:
        L = Fraction(len(values), profile.n * profile.n)
    return SpinConfig(profile.n, frac(L), tuple(values))


def config_to_profile(cfg: SpinConfig) -> ColumnProfile:
    return ColumnProfile(cfg.n, column_heights(cfg.n, cfg.L), cfg.column_counts())


def block_rearrange(cfg: SpinConfig) -> SpinConfig:
    """Move the ones of every column to that column's bottom prefix.

    Preserves per-column (hence total) volume and is idempotent.  Note:
    this does NOT always decrease the open energy; the wrap pair between
    a column's top site and the next column's bottom site can flip from
    matched to mismatched (e.g. n=2, (0,1,1,1) -> (1,0,1,1)).
    """
    values: list[int] = []
    pos = 0
    for h in column_heights(cfg.n, cfg.L):
        a = sum(cfg.values[pos : pos + h])
        values.extend([1] * a + [0] * (h - a))
        pos += h
    return SpinConfig(cfg.n, cfg.L, tuple(values))


@dataclass
class SolveResult:
    value: Fraction
    config: SpinConfig
    method: str              # "BruteForce" | "ColumnDP" | "LocalSearch"
    exact: bool
    profile: Optional[ColumnProfile] = None
    optima: Optional[list[SpinConfig]] = None  # brute force argmin set
    optima_truncated: bool = False

    def to_json(self) -> str:
        v = self.value
        doc = {
            "value": f"{v.numerator}/{v.denominator}",
            "method": self.method,
            "exact": self.exact,
            "config": config_to_text(self.config, rle=True).splitlines()[1],
            "profile": list(self.profile.counts) if self.profile else None,
        }
        return json.dumps(doc)


# --- brute force ------------------------------------------------------------


def _distance_set(n: int, N: int, periodic: bool) -> list[int]:
    if periodic:
        return sorted({d for d in (1, N - 1, n, N - n) if 1 <= d <= N - 1})
    return sorted({d for d in (1, n) if 1 <= d <= N - 1})


def _chunk_min_by_volume(args):
    lo, hi, N, dists = args
    c = np.arange(lo, hi, dtype=np.uint32)
    e = np.zeros(hi - lo, np.uint8)
    for d in dists:
        window = np.uint32((1 << (N - d)) - 1)
        e += np.bitwise_count((c ^ (c >> np.uint32(d))) & window).astype(np.uint8)
    mins = np.full(N + 1, 255, np.uint8)
    np.minimum.at(mins, np.bitwise_count(c), e)
    return mins


@lru_cache(maxsize=32)
def _sweep_min_table(n: int, L_key: tuple, periodic: bool):
    """Full 2^N sweep; per-volume minimal mismatch counts (numpy int array).

    The enumeration range is partitioned into chunks evaluated on a small
    thread pool (the numpy kernels release the GIL) and reduced by minimum,
    which is order-independent.
    """
    L = Fraction(*L_key)
    N = site_count(n, L)
    dists = tuple(_distance_set(n, N, periodic))
    total = 1 << N
    step = 1 << 22
    chunks = [(lo, min(total, lo + step), N, dists) for lo in range(0, total, step)]
    if len(chunks) == 1:
        return _chunk_min_by_volume(chunks[0])
    with ThreadPoolExecutor(max_workers=min(4, len(chunks))) as pool:
        tables = list(pool.map(_chunk_min_by_volume, chunks))
    return np.minimum.reduce(tables)


def _sweep_argmin(n: int, L: Fraction, k: int, periodic: bool, target: int,
                  cap: int) -> tuple[list[int], bool]:
    """Second pass: collect up to `cap` bitmasks of volume k hitting the target count."""
    N = site_count(n, L)
    dists = _distance_set(n, N, periodic)
    found: list[int] = []
    truncated = False
    total = 1 << N
    step = 1 << 22
    for lo in range(0, total, step):
        hi = min(total, lo + step)
        c = np.arange(lo, hi, dtype=np.uint32)
        e = np.zeros(hi - lo, np.uint8)
        for d in dists:
            window = np.uint32((1 << (N - d)) - 1)
            e += np.bitwise_count((c ^ (c >> np.uint32(d))) & window).astype(np.uint8)
        mask = (np.bitwise_count(c) == k) & (e == target)
        hits = c[mask]
        room = cap - len(found)
        if len(hits) > room:
            found.extend(int(x) for x in hits[:room])
            truncated = True
            break
        found.extend(int(x) for x in hits)
    return found, truncated


def _mismatch_count_int(mask: int, N: int, dists) -> int:
    total = 0
    for d in dists:
        window = (1 << (N - d)) - 1
        total += ((mask ^ (mask >> d)) & window).bit_count()
    return total


def _gosper_min(n: int, N: int, k: int, dists) -> tuple[int, list[int], bool]:
    """Enumerate volume-k bitmasks in increasing order, track the argmin set."""
    if k == 0:
        return 0, [0], False
    best = None
    optima: list[int] = []
    truncated = False
    c = (1 << k) - 1
    limit = 1 << N
    while c < limit:
        e = _mismatch_count_int(c, N, dists)
        if best is None or e < best:
            best, optima, truncated = e, [c], False
        elif e == best:
            if len(optima) < MAX_OPTIMA:
                optima.append(c)
            else:
                truncated = True
        u = c & (-c)
        v = c + u
        c = v | (((v ^ c) // u) >> 2)
    return best, optima, truncated


def brute_force_min(n: int, L, k: int, boundary="open") -> SolveResult:
    """Exhaustive exact minimum over all volume-k configurations.

    Guarded: requires N <= 28 (full sweep) or C(N, k) <= 10^7 (subset
    enumeration); larger instances are refused outright.
    """
    L = frac(L)
    N = site_count(n, L)
    periodic = boundary == "periodic" or (
        isinstance(boundary, EdgeKind) and boundary.periodic
    )
    if not 0 <= k <= N:
        raise ValueError(f"volume {k} outside [0, {N}]")
    if periodic and N < 2:
        raise ValueError("periodic energy needs at least 2 sites")

    if N <= FULL_SWEEP_MAX_N:
        mins = _sweep_min_table(n, (L.numerator, L.denominator), periodic)
        target = int(mins[k])
        masks, truncated = _sweep_argmin(n, L, k, periodic, target, MAX_OPTIMA)
    elif math.comb(N, k) <= SUBSET_ENUM_MAX:
        dists = _distance_set(n, N, periodic)
        target, masks, truncated = _gosper_min(n, N, k, dists)
    else:
        raise SolverGuardError(
            f"instance too large for brute force: N={N}, C(N,k)={math.comb(N, k)}"
        )

    optima = [SpinConfig.from_bitmask(n, L, m) for m in masks]
    cfg = optima[0]
    value = Fraction(target, n)
    check = energy_periodic(cfg) if periodic else energy_open(cfg)
    assert check == value, "sweep bookkeeping must match the energy"
    return SolveResult(
        value=value,
        config=cfg,
        method="BruteForce",
        exact=True,
        profile=None,
        optima=optima,
        optima_truncated=truncated,
    )


# --- column dynamic program ---------------------------------------------------


def _step_terms(h: int, unit: int, wrap: bool) -> tuple[np.ndarray, ...]:
    """Cost columns over a2 = 0..h for ``_column_step`` into a column of height h.

    Returns ``(ramp, up, down, top)`` scaled by ``unit``: ``ramp`` is a2,
    ``up``/``down`` are the wrap and internal terms of the rows a1 < h_prev
    plus/minus a2, and ``top`` is the whole cost of the row a1 == h_prev.
    """
    a2 = np.arange(h + 1)[:, None]
    internal = ((0 < a2) & (a2 < h)).astype(np.int64)
    rest = unit * (int(wrap) * (a2 >= 1) + internal)
    top = unit * (h - a2 + int(wrap) * (a2 == 0) + internal)
    return unit * a2, rest + unit * a2, rest - unit * a2, top


def _column_step(enc: np.ndarray, h_prev: int, terms, big: int) -> np.ndarray:
    """One step of the column DP: a column of height h after one of height h_prev.

    ``enc[a1, c]`` is ``value * unit + a1``, where ``value`` is the least
    mismatch count of a prefix profile whose current column holds a1 ones
    and whose columns so far hold ``lo + c`` ones (``lo`` is the caller's
    window start).  Since unit > n, a minimum over encoded states also
    keeps the smallest a1.  Rows above h_prev are unreachable (>= big).
    Only the last column may be shorter, so h <= h_prev.  ``terms`` is
    ``_step_terms(h, unit, wrap)``.  Returns ``out`` of shape
    (n + 1, C + n) with

        out[a2, c] = min over a1 of enc[a1, c - a2] + unit * cost(a1, a2),
        cost(a1, a2) = |min(a1, h) - a2|              horizontal pairs
                     + [(a1 == h_prev) != (a2 >= 1)]  wrap pair (if ``wrap``)
                     + [0 < a2 < h]                   internal jump,

    whose low bits hold the minimizing a1.  The horizontal term makes the
    minimum over a1 an L1 distance transform (Felzenszwalb & Huttenlocher,
    "Distance Transforms of Sampled Functions", Theory of Computing 8,
    2012): one forward and one backward running minimum over the count
    axis, vectorised over the volume axis, so a step costs O(n C) rather
    than O(n^2 C).  The a1 == h_prev row differs in its wrap term and is
    taken on its own.
    """
    ramp, up, down, top = terms
    h = len(ramp) - 1
    R, C = enc.shape

    # rows a1 < h_prev at position min(a1, h), minus the ramp; on a partial
    # column (h < h_prev) rows h .. h_prev-1 all land on position h
    forward = enc[: h + 1] - ramp
    forward[h] = enc[h:h_prev].min(axis=0) - ramp[h] if h < h_prev else big
    backward = forward + 2 * ramp
    np.minimum.accumulate(forward, axis=0, out=forward)
    np.minimum.accumulate(backward[::-1], axis=0, out=backward[::-1])
    forward += up
    backward += down

    # best[a2] is written into a padded buffer whose rows, read back with
    # a row stride one element shorter, come out shifted right by a2
    padded = np.full((R, C + R), big, np.int64)
    best = padded[: h + 1, R:]
    np.minimum(forward, backward, out=best)
    np.minimum(best, enc[h_prev] + top, out=best)
    return padded.ravel()[R:].reshape(R, C + R - 1)


def _column_dp(n: int, heights: tuple[int, ...], k: int, first_counts,
               seam=None) -> Optional[tuple[int, list[int]]]:
    """Least mismatch count over prefix profiles of volume k, and its counts.

    The first column may hold any count in ``first_counts``; each further
    column is one ``_column_step``.  ``seam = (before, after)`` adds
    ``before[a]`` for the second to last column's count a and ``after[a]``
    for the last column's: the cyclic closure, whose cost splits that way.
    At n = 1 the wrap pair and the horizontal pair are the same pair, so it
    is counted once.  Only volumes that can still reach k are kept: after
    columns 0..ci, holding S sites, the window is [k - (N - S), S] within
    [0, k], so the work is O(ncols n min(k, N - k)).  Ties break toward the
    smaller count, then the smaller column index.  Returns None when no
    profile has volume k.
    """
    N = sum(heights)
    unit = 1 << n.bit_length()
    big = _INF * unit
    rows = np.arange(n + 1)[:, None]
    terms = {h: _step_terms(h, unit, n > 1) for h in set(heights)}
    parent_type = np.min_scalar_type(n)
    ends = np.cumsum(heights)

    def window(ci):
        return max(0, k - (N - int(ends[ci]))), min(k, int(ends[ci]))

    lo, hi = window(0)
    enc = np.full((n + 1, hi - lo + 1), big, np.int64)
    for a in first_counts:
        if lo <= a <= hi:
            enc[a, a - lo] = unit * (0 < a < heights[0]) + a

    parents = [(lo, None)]
    for ci in range(1, len(heights)):
        if seam is not None and ci == len(heights) - 1:
            enc = enc + unit * seam[0][:, None]
        out = _column_step(enc, heights[ci - 1], terms[heights[ci]], big)
        lo_next, hi = window(ci)
        out = out[:, lo_next - lo : hi - lo + 1]
        lo = lo_next
        low = out & (unit - 1)
        parents.append((lo, low.astype(parent_type)))
        enc = out ^ low
        enc |= rows
    if seam is not None:
        enc = enc + unit * seam[1][:, None]

    best = int(enc[:, k - lo].min())  # the last window is [k, k]
    total, a = best // unit, best % unit
    if total >= _INF:
        return None
    counts = [0] * len(heights)
    v = k
    for ci in range(len(heights) - 1, 0, -1):
        counts[ci] = a
        lo, parent = parents[ci]
        a = int(parent[a, v - lo])
        v -= counts[ci]
    counts[0] = a
    return total, counts


def column_dp_min(n: int, L, k: int) -> SolveResult:
    """Least open energy at volume k over prefix profiles, by a DP over columns.

    Prefix profile: within each column the occupied sites form a bottom
    prefix, so a column is described by its count.  State: (column, count,
    volume used); each column step is an L1 distance transform over the
    count axis, vectorised over the volume axis (``_column_step``), so the
    DP costs O(ncols n k) time and backtracking memory, one byte per state
    for n <= 255.  The first column contributes its own internal jump.  Ties
    break toward the smaller count, then the smaller column index, so the
    returned profile is deterministic.

    Prefix profiles do not always contain an open minimizer: at
    (n, L, k) = (6, 5/4, 39) this returns 7/6, while a configuration of
    volume 39 with energy 1 exists.  The ``exact`` flag does not say so yet.
    """
    L = frac(L)
    N = site_count(n, L)
    if not 0 <= k <= N:
        raise ValueError(f"volume {k} outside [0, {N}]")
    heights = column_heights(n, L)
    found = _column_dp(n, heights, k, range(min(heights[0], k) + 1))
    if found is None:
        raise ValueError(f"volume {k} not representable over {len(heights)} columns")
    total, counts = found

    profile = ColumnProfile(n, heights, tuple(counts))
    cfg = profile_to_config(profile, L)
    value = Fraction(total, n)
    assert energy_open(cfg) == value, "DP bookkeeping must match the energy"
    return SolveResult(value, cfg, "ColumnDP", True, profile=profile)


# --- periodic: cyclic DP and annealing ----------------------------------------


def _cyclic_dp(n: int, L: Fraction, k: int) -> Optional[SolveResult]:
    """Best periodic energy over cyclic prefix profiles; upper bound on the minimum.

    Runs the column DP (``_column_dp``) once per pinned first-column count
    and adds the seam: the distance N-1 pair and the n distance N-n pairs
    (shifted by the column defect when the last column is partial).  The
    seam cost splits into a term in the second to last column's count and
    a term in the last column's count, so it enters as two vectors.
    """
    N = site_count(n, L)
    if n < 2 or N <= 2 * n:  # distance classes collide; not worth special-casing
        return None
    heights = column_heights(n, L)
    if len(heights) < 3:
        return None
    lam = lambda_defect(n, L)
    counts = np.arange(n + 1)

    best = None
    for a1 in range(min(heights[0], k) + 1):
        # distance N-n pairs of the first column against the last n sites,
        # which start lam sites up the second to last column when lam != 0
        if lam:
            before = np.abs(min(a1, n - lam) - np.clip(counts - lam, 0, n - lam))
            after = np.abs(max(a1, n - lam) - np.clip(counts + n - lam, n - lam, n))
        else:
            before = np.zeros(n + 1, np.int64)
            after = np.abs(a1 - counts)
        after += (a1 >= 1) != (counts == heights[-1])  # distance N-1 pair
        found = _column_dp(n, heights, k, (a1,), seam=(before, after))
        if found is not None and (best is None or found[0] < best[0]):
            best = found

    if best is None:
        return None
    total, best_counts = best
    profile = ColumnProfile(n, heights, tuple(best_counts))
    cfg = profile_to_config(profile, L)
    value = energy_periodic(cfg)
    assert value == Fraction(total, n), "cyclic DP seam accounting is off"
    return SolveResult(value, cfg, "ColumnDP", False, profile=profile)


def _anneal(n: int, L: Fraction, k: int, seed: int, steps: int,
            t0: float = 1.0, ratio: float = 0.995,
            periodic: bool = True) -> SolveResult:
    """Volume-preserving pair-swap annealing with geometric cooling."""
    N = site_count(n, L)
    rng = random.Random(seed)
    dists = _distance_set(n, N, periodic=periodic)

    sites = list(range(1, N + 1))
    ones = set(rng.sample(sites, k))
    values = [1 if i in ones else 0 for i in sites]

    def pair_mismatches(site: int) -> int:
        total = 0
        for d in dists:
            if site - d >= 1 and values[site - 1] != values[site - d - 1]:
                total += 1
            if site + d <= N and values[site - 1] != values[site + d - 1]:
                total += 1
        return total

    def swap_delta(i: int, j: int) -> int:
        affected = set()
        for s in (i, j):
            for d in dists:
                if s - d >= 1:
                    affected.add((s - d, s))
                if s + d <= N:
                    affected.add((s, s + d))
        before = sum(values[a - 1] != values[b - 1] for a, b in affected)
        values[i - 1], values[j - 1] = values[j - 1], values[i - 1]
        after = sum(values[a - 1] != values[b - 1] for a, b in affected)
        values[i - 1], values[j - 1] = values[j - 1], values[i - 1]
        return after - before

    occupied = [i for i in sites if values[i - 1] == 1]
    empty = [i for i in sites if values[i - 1] == 0]
    current = sum(
        1
        for d in dists
        for i in range(1, N - d + 1)
        if values[i - 1] != values[i + d - 1]
    )
    best = current
    best_values = values[:]
    T = t0
    for _ in range(steps):
        if not occupied or not empty:
            break
        oi = rng.randrange(len(occupied))
        ei = rng.randrange(len(empty))
        i, j = occupied[oi], empty[ei]
        delta = swap_delta(i, j)
        if delta <= 0 or rng.random() < math.exp(-(delta / n) / T):
            values[i - 1], values[j - 1] = 0, 1
            occupied[oi], empty[ei] = j, i
            current += delta
            if current < best:
                best = current
                best_values = values[:]
        T = max(T * ratio, 1e-300)

    cfg = SpinConfig(n, L, tuple(best_values))
    value = energy_periodic(cfg) if periodic else energy_open(cfg)
    assert value == Fraction(best, n)
    return SolveResult(value, cfg, "LocalSearch", False)


def periodic_min(n: int, L, k: int, seed: int = 0, steps: int = 10**5) -> SolveResult:
    """Minimum of the periodic energy at volume k.

    Exact (brute force) whenever the guard allows; otherwise returns the
    better of the cyclic column DP and simulated annealing, flagged
    exact=False - an upper bound on the true minimum.
    """
    L = frac(L)
    N = site_count(n, L)
    if not 0 <= k <= N:
        raise ValueError(f"volume {k} outside [0, {N}]")
    if k in (0, N):
        cfg = SpinConfig(n, L, tuple([1 if k else 0] * N))
        return SolveResult(Fraction(0), cfg, "BruteForce", True, optima=[cfg])
    try:
        return brute_force_min(n, L, k, boundary="periodic")
    except SolverGuardError:
        pass
    candidates = []
    dp = _cyclic_dp(n, L, k)
    if dp is not None:
        candidates.append(dp)
    candidates.append(_anneal(n, L, k, seed, steps))
    return min(candidates, key=lambda r: r.value)
