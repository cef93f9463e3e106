"""Volume-constrained ground states of the chain energies.

``minimize(n, L, k, boundary, method)`` is the one entry point: it picks
the solver and returns its ``SolveResult``.  With ``method="auto"`` an open
chain goes to ``column_dp_min`` and a periodic one to ``periodic_min``;
``"brute"``, ``"dp"`` and ``"anneal"`` force a route.  Three routes:

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
    SpinConfig,
    column_heights,
    config_to_text,
    energy_open,
    energy_periodic,
    is_periodic,
    lambda_defect,
    pair_distances,
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
    "minimize",
    "periodic_min",
    "profile_to_config",
]

FULL_SWEEP_MAX_N = 28
SUBSET_ENUM_MAX = 10**7
MAX_OPTIMA = 10**4
_CHUNK = 1 << 22  # bitmasks per numpy pass of the full sweep
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


def _chunk_energies(lo: int, hi: int, N: int, dists) -> tuple[np.ndarray, np.ndarray]:
    """The bitmasks lo..hi-1 and their mismatch counts over the distance classes."""
    c = np.arange(lo, hi, dtype=np.uint32)
    e = np.zeros(hi - lo, np.uint8)
    for d in dists:
        window = np.uint32((1 << (N - d)) - 1)
        e += np.bitwise_count((c ^ (c >> np.uint32(d))) & window).astype(np.uint8)
    return c, e


def _chunk_min_by_volume(args):
    lo, hi, N, dists = args
    c, e = _chunk_energies(lo, hi, N, dists)
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
    dists = pair_distances(n, N, periodic)
    total = 1 << N
    chunks = [(lo, min(total, lo + _CHUNK), N, dists) for lo in range(0, total, _CHUNK)]
    if len(chunks) == 1:
        return _chunk_min_by_volume(chunks[0])
    with ThreadPoolExecutor(min(4, len(chunks))) as pool:
        tables = list(pool.map(_chunk_min_by_volume, chunks))
    return np.minimum.reduce(tables)


def _sweep_argmin(n: int, L: Fraction, k: int, periodic: bool, target: int,
                  cap: int) -> tuple[list[int], bool]:
    """Second pass: collect up to `cap` bitmasks of volume k hitting the target count."""
    N = site_count(n, L)
    dists = pair_distances(n, N, periodic)
    found: list[int] = []
    truncated = False
    total = 1 << N
    for lo in range(0, total, _CHUNK):
        c, e = _chunk_energies(lo, min(total, lo + _CHUNK), N, dists)
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


def brute_force_min(n: int, L, k: int, boundary: str = "open") -> SolveResult:
    """Exhaustive exact minimum over all volume-k configurations.

    ``boundary`` is "open" or "periodic".  Guarded: requires N <= 28 (full
    sweep) or C(N, k) <= 10^7 (subset enumeration); larger instances are
    refused outright.
    """
    L = frac(L)
    N = site_count(n, L)
    periodic = is_periodic(boundary)
    if not 0 <= k <= N:
        raise ValueError(f"volume {k} outside [0, {N}]")
    if periodic and N < 2:
        raise ValueError("periodic energy needs at least 2 sites")

    if N <= FULL_SWEEP_MAX_N:
        mins = _sweep_min_table(n, (L.numerator, L.denominator), periodic)
        target = int(mins[k])
        masks, truncated = _sweep_argmin(n, L, k, periodic, target, MAX_OPTIMA)
    elif math.comb(N, k) <= SUBSET_ENUM_MAX:
        dists = pair_distances(n, N, periodic)
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
    if not 0 <= k <= N:
        raise ValueError(f"volume {k} outside [0, {N}]")
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
    """Volume-preserving pair-swap annealing with geometric cooling.

    Starts from ``k`` random occupied sites; each of ``steps`` steps
    proposes moving the one at a random occupied site to a random empty
    site, accepted when the mismatch count does not rise, or else with
    probability exp(-(delta / n) / T), where T starts at ``t0`` and shrinks
    by ``ratio`` per step.  Returns the best configuration seen.

    A proposal costs O(1): each site s keeps the field
    f[s] = 2 * (occupied neighbours of s) - deg(s), so moving the one at i
    to the empty site j changes the mismatch count by
    f[i] - f[j] + 2 [i, j adjacent] (the pair {i, j} stays mismatched), and
    an accepted move subtracts 2 from f at each neighbour of i and adds 2
    at each neighbour of j.  The random stream is drawn as by the earlier
    loop that recounted the pairs at i and j for every proposal (two
    ``randrange`` calls per step, ``random()`` only for an uphill move), so
    every input returns the same value and configuration as it did.
    """
    N = site_count(n, L)
    if not 0 <= k <= N:
        raise ValueError(f"volume {k} outside [0, {N}]")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rng = random.Random(seed)
    dists = pair_distances(n, N, periodic)
    adjacent = frozenset(dists)
    neighbours = tuple(
        tuple(s + d for d in dists if s + d < N) + tuple(s - d for d in dists if s - d >= 0)
        for s in range(N)
    )

    values = [0] * N
    for s in rng.sample(range(N), k):
        values[s] = 1
    field = [2 * sum(values[u] for u in nb) - len(nb) for nb in neighbours]
    occupied = [s for s in range(N) if values[s]]
    empty = [s for s in range(N) if not values[s]]
    current = sum(values[s] != values[s + d] for d in dists for s in range(N - d))
    best = current
    best_values = values[:]

    randrange = rng.randrange
    T = t0
    for _ in range(steps if 0 < k < N else 0):
        oi = randrange(k)
        ei = randrange(N - k)
        i, j = occupied[oi], empty[ei]
        delta = field[i] - field[j]
        if abs(i - j) in adjacent:
            delta += 2
        if delta <= 0 or rng.random() < math.exp(-(delta / n) / T):
            values[i], values[j] = 0, 1
            occupied[oi], empty[ei] = j, i
            for u in neighbours[i]:
                field[u] -= 2
            for u in neighbours[j]:
                field[u] += 2
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
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
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


# --- the entry point ---------------------------------------------------------


def minimize(n: int, L, k: int, boundary: str = "open", method: str = "auto",
             seed: int = 0, steps: int = 10**5) -> SolveResult:
    """Least energy at volume k on the "open" or "periodic" chain.

    ``method="auto"`` runs ``column_dp_min`` on an open chain and
    ``periodic_min`` on a periodic one.  ``"brute"`` runs
    ``brute_force_min``; ``"dp"`` the column DP, or on a ring the cyclic DP
    (an upper bound flagged inexact, ``SolverGuardError`` where it does not
    apply: n = 1, N <= 2n, fewer than three columns); ``"anneal"``
    simulated annealing from ``seed`` for ``steps`` steps.  ``seed`` and
    ``steps`` reach only the annealer.  An unknown boundary or method is a
    ``ValueError``.
    """
    periodic = is_periodic(boundary)
    L = frac(L)
    if method == "auto":
        if periodic:
            return periodic_min(n, L, k, seed=seed, steps=steps)
        return column_dp_min(n, L, k)
    if method == "brute":
        return brute_force_min(n, L, k, boundary)
    if method == "dp":
        if not periodic:
            return column_dp_min(n, L, k)
        res = _cyclic_dp(n, L, k)
        if res is None:
            raise SolverGuardError("cyclic DP unavailable for this instance")
        return res
    if method == "anneal":
        return _anneal(n, L, k, seed, steps, periodic=periodic)
    raise ValueError(f"unknown method {method!r}: expected auto, brute, dp or anneal")
