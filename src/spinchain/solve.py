"""Volume-constrained ground states of the chain energies.

``minimize(n, L, k, boundary, method)`` is the one entry point: it picks
the solver and returns its ``SolveResult``.  With ``method="auto"`` an open
chain goes to ``column_dp_min`` and a periodic one to ``periodic_min``;
``"brute"`` and ``"dp"`` force a route.  The solvers:

* ``brute_force_min``   exhaustive oracle, exact and guarded: the trivial
  volumes k in {0, N} are the constant configuration; otherwise a
  split-cut sweep of all 2^N masks, run once per shape and cached, gives
  every volume's minimum and smallest minimizing mask; past N = 28, the
  transfer matrix (``_transfer_min``) while it fits ``TRANSFER_BUDGET``.
* ``column_dp_min``     open-chain minimum over prefix profiles by dynamic
  programming over per-column occupation counts, each column filled
  bottom-up; exact only at k in {0, N}, where one configuration exists,
  and at n = 1, where every configuration is a prefix profile.
* ``periodic_min``      the ring, routed by size: a transfer-matrix search
  over all configurations (``_transfer_min``, exact) while 0 < k < N,
  n >= 2, N > 2n and 4^n N (min(k, N - k) + 1) fits ``TRANSFER_BUDGET``
  (``_transfer_fits``); else brute force for k in {0, N} or N <= 28
  (exact); else the cyclic column DP (``_cyclic_dp``), labelled exact by
  the same rule as the open one.

Every solver checks its instance through ``_instance``: (n, L, k) by
``check_volume``, the boundary by ``is_periodic``, and a ring needs at
least two sites, so every method refuses a one-site ring with the same
``ValueError``.  Every search returns through ``_checked``, which
re-evaluates the configuration it found and raises ``AssertionError``
unless its energy is the value the search counted and its volume is k.

The transfer matrix (``_transfer_pass``) is one search for both
boundaries: the ring pins first windows, each in a run of its own, and adds
the seam, the open chain is one run that starts from every first window.
The ring's energy does not change under rotation, so it pins only the
2^(n-2) + 1 first windows that some rotation of every configuration starts
with (``_transfer_runs``), not all 2^n.  It runs once: the pass keeps each
site's states, and ``_transfer_min`` retraces the best pin from them as
``_backtrack`` retraces the column DPs.  Its states are window-major,
``[window, volume + 1, run]`` over a padding row for volume -1, so a site
is one ``np.add`` of a cost table over a strided view of the previous
states and one ``np.minimum``, each walking contiguous blocks of (volume,
run) states rather than many short rows of one run each.

Both column DPs share one core (``_column_dp``): each column step takes
the minimum over the previous column's count, as one broadcast minimum
over a cost table while numpy's cost per call dominates, else as an L1
distance transform, two running minima over the count axis vectorised over
the volume axis, so a solve costs O(ncols n k) rather than O(ncols n^2 k).
Every state is capped at one above the count of a fill profile the DP
itself searches (``_fill_bound``), which changes no total or retrace, so
states are plain mismatch counts in the narrowest type holding a step's
values (``_state_type``): int8 up to n of about 60.  The cyclic DP runs
its pinned first-column counts through that core as one batch.  Every
state array is ``[count, volume, run]``, run innermost, as the transfer
matrix's are window-major, so each elementwise operation of a step walks
h + 1 contiguous (volume, run) blocks whatever the number of runs.  The
pins go in chunks of about ``_PIN_BATCH`` states kept over the whole pass,
so a ring of n <= 16 and L <= 3/2 runs every pin in one pass.  A run that
would keep more than ``DP_BUDGET`` states (``_run_states``) is refused
with ``SolverGuardError`` before any column is built.  Once a full column
step gives back its input states, the later full columns are views.

The first full columns of both DPs do not depend on L or k: they are the
states over every volume of the DP's runs, cut to the request's window and
clamped at its cap.  ``_column_dp`` takes one run set, as
``_transfer_pass`` takes its ``start``: None, the open DP's one run from
every first count of the window, or a range of consecutive first counts,
one run pinned to each (a chunk of the ring's pins).  One table builder
(``_prefix``) takes the same run set over every first count a = 0..n,
``pinned`` or not, and a chunk of pins reads its run slice.  When no table
entry applies, the first column is set the way ``_prefix`` sets entry 0,
in one assignment over the run set.  Each table is kept per n and state
type for as many columns as fit ``_PREFIX_STATES`` = 2^16 states per run
and ``_PIN_BATCH`` = 2^21 over all its runs (2 MB in int8, 4 MB in
int16), so the ring's table of n + 1 runs is as deep as the open one up to
n = 32 (55 columns at n = 6, 33 at n = 10, 21 at n = 16) and holds none
from n = 128, the open one none from n = 256; the cache keeps 64 tables.
The periodic benchmark's rings build 3.9 MB of pinned tables.  A table is
built only up to the columns a request reads and extended from its last
entry by a later one.  A request views them and steps only the columns
after them.  That is exact: a step at volume v reads volumes v - h to v
only, a window drops only volumes that cannot reach k, and a table clamped
at cap_d >= cap differs only in states >= cap, which neither the total
(<= the fill bound < cap) nor the retrace (state + cost == a value < cap)
can use.  The ring adds its seam after the last full column, past the
table.

Both DPs backtrack the same way (``_backtrack``).  The value pass keeps
each step's input states and the retrace recomputes, column by column, the
smallest count whose state plus ``_column_step``'s cost gives the value
passed back, so the DP runs once and its states are never encoded.  It
scans counts a1 >= a - value only: states are >= 0 and a step to count a
costs at least a - a1, so no smaller a1 can match.  The
kept states are the pass's own arrays, mostly views of its step buffers or
of a table of first full columns.
The open DP keeps every step of its one run; the cyclic DP keeps those of the
chunk of pins with the least total and retraces its winning pin alone.

The DP searches prefix profiles only: within each column the occupied
sites form a bottom prefix.  Moving every column's sites to the bottom
does not always lower the energy configuration-by-configuration (the
cross-column wrap pair can flip against it), and the minimum over prefix
profiles is not always the open minimum either: at (n, L, k) = (6, 5/4, 39)
it is 7/6, while a volume-39 configuration with zeros at sites 37-39 and
43-45 has energy 1.  Every such case found so far has a partial last column
and N > 28, past the split-cut sweep; ``brute_force_min`` finds the true
minimum there by the transfer matrix.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Optional

import numpy as np

from .lattice import (
    ColumnProfile,
    SpinConfig,
    check_volume,
    column_heights,
    config_to_text,
    energy_open,
    energy_periodic,
    is_periodic,
    pair_distances,
    profile_to_config,
    site_count,
    volume,
)
from .rationals import frac

__all__ = [
    "SolveResult",
    "SolverGuardError",
    "brute_force_min",
    "column_dp_min",
    "minimize",
    "periodic_min",
]

FULL_SWEEP_MAX_N = 28
TRANSFER_BUDGET = 1 << 23  # state updates of one transfer-matrix search (``_transfer_fits``)
DP_BUDGET = 1 << 28  # states one column-DP run keeps over its pass (``_run_states``)
_PIN_BATCH = 1 << 21  # states a chunk of cyclic-DP pins keeps over its pass; the most a table holds
_BLOCK = 1 << 20  # masks per broadcast add of the brute-force sweep
_SMALL_STEP = 5 << 15  # charge of a column step taken as one broadcast minimum (``_column_step``)
_PAIR_CHARGE = 24  # candidates a broadcast step is charged per (a1, a2) pair of its cost table
_PREFIX_STATES = 1 << 16  # states a table of first full columns holds per run (``_prefix_table``)


class SolverGuardError(ValueError):
    """Instance too large for the requested exact method."""


@dataclass
class SolveResult:
    value: Fraction
    config: SpinConfig
    method: str              # "BruteForce" | "TransferMatrix" | "ColumnDP"
    exact: bool
    profile: Optional[ColumnProfile] = None  # column DP routes only

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


# --- the instance and the checked result ---------------------------------------


def _instance(n: int, L, k: int, boundary: str = "open") -> tuple[Fraction, int, bool]:
    """The checked instance: ``(L, N, periodic)`` with L a Fraction.

    ``check_volume`` validates (n, L, k) and ``is_periodic`` the boundary;
    a ring needs at least two sites.  Each is a ``ValueError``.
    """
    L = frac(L)
    N = check_volume(n, L, k)
    periodic = is_periodic(boundary)
    if periodic and N < 2:
        raise ValueError("periodic energy needs at least 2 sites")
    return L, N, periodic


def _checked(cfg: SpinConfig, count: int, k: int, periodic: bool, method: str,
             exact: bool, **fields) -> SolveResult:
    """The result of a search that found ``cfg`` with ``count`` mismatches.

    Its value is count / n.  The configuration is re-evaluated: an energy
    other than that value, or a volume other than k, raises
    ``AssertionError`` explicitly, so the check survives ``python -O``.
    """
    value = Fraction(count, cfg.n)
    energy = energy_periodic if periodic else energy_open
    if energy(cfg) != value or volume(cfg) != k:
        raise AssertionError(f"{method} bookkeeping must match the energy and volume")
    return SolveResult(value, cfg, method, exact, **fields)


# --- brute force ------------------------------------------------------------


def _mismatches(masks: np.ndarray, windows) -> np.ndarray:
    """Mismatches of uint32 bitmasks over the pairs (i, i + d), bit i of w set, (d, w) in windows."""
    e = np.zeros(masks.shape, np.uint8)
    for d, w in windows:
        e += np.bitwise_count((masks ^ (masks >> np.uint32(d))) & np.uint32(w)).astype(np.uint8)
    return e


def _deposit(bits: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """All masks over the sites ``bits`` as uint32, by ascending popcount, and
    the index where each popcount 0..len(bits) starts."""
    masks = np.zeros(1, np.uint32)
    for b in bits:
        masks = np.concatenate([masks, masks | np.uint32(1 << b)])
    counts = np.bitwise_count(masks)
    order = np.argsort(counts, kind="stable")
    return masks[order], np.searchsorted(counts[order], np.arange(len(bits) + 1))


def _split_sweep(N: int, dists, m: int):
    """Exact mismatch count of all 2^N masks, cut under site m: ``(mins,
    first)``, per volume the least count and the smallest mask reaching it.

    A mask is (h, t, r): h its sites m..N-1, t its low sites in pairs that
    cross the cut, r its other low sites, each enumerated by popcount.  Its
    count is ``high[h, t] + low[t, r]`` (pairs reaching h, pairs below the
    cut), so a block of rows (h, t) is one broadcast add of uint8 tables,
    reduced to group minima over the popcount segments of r and then over
    the popcounts of t and h.  The groups holding their volume's minimum are
    expanded again, and the least mask of each volume among their hits is
    ``first``.
    """
    inner = [(d, (1 << max(m - d, 0)) - 1) for d in dists]  # bit i: pair (i, i + d)
    cross = [(d, ((1 << (N - d)) - 1) ^ w) for d, w in inner]
    shared = [any(m <= i + d < N for d in dists) for i in range(m)]
    tbits, tstarts = _deposit([i for i in range(m) if shared[i]])
    rbits, starts = _deposit([i for i in range(m) if not shared[i]])
    hs, hstarts = _deposit(list(range(m, N)))
    low = _mismatches(tbits[:, None] | rbits, inner)
    high = _mismatches(hs[:, None] | tbits, cross).ravel()  # row h * T + t
    T, Rn = low.shape
    step = max(1, _BLOCK // Rn)
    width = min(step, T)
    groups = np.empty((len(high), len(starts)), np.uint8)
    for a in range(0, len(high), step):
        e = high[a : a + step].reshape(-1, width, 1) + low[a % T : a % T + width]
        groups[a : a + step] = np.minimum.reduceat(e.reshape(-1, Rn), starts, axis=1)
    by_count = np.minimum.reduceat(groups.reshape(len(hs), T, -1), tstarts, axis=1)
    by_count = np.minimum.reduceat(by_count, hstarts, axis=0)  # [h, t, r popcounts]
    mins = np.full(N + 1, 255, np.uint8)
    np.minimum.at(mins, sum(np.indices(by_count.shape, sparse=True)), by_count)

    vols = ((np.bitwise_count(hs)[:, None] + np.bitwise_count(tbits)).reshape(-1, 1)
            + np.arange(len(starts), dtype=np.uint8))
    rows, ps = np.nonzero(groups == mins[vols])
    lens = np.diff(starts, append=Rn)[ps]
    hit = np.repeat(np.arange(len(rows)), lens)
    r = np.arange(len(hit)) - np.repeat(np.cumsum(lens) - lens - starts[ps], lens)
    row, vol = rows[hit], vols[rows, ps][hit]
    keep = high[row] + low[row % T, r] == mins[vol]
    first = np.full(N + 1, np.iinfo(np.uint32).max, np.uint32)
    np.minimum.at(first, vol[keep], (hs[row // T] | tbits[row % T] | rbits[r])[keep])
    return mins, first


@lru_cache(maxsize=32)
def _sweep_table(n: int, L_key: tuple, periodic: bool):
    """``_split_sweep`` of one shape, at the upper-half cut of least rough work."""
    N = site_count(n, Fraction(*L_key))
    dists = pair_distances(n, N, periodic)

    def work(m):  # rough cost at cut m: the bit kernel over both tables, then the groups
        s = sum(any(m <= i + d < N for d in dists) for i in range(m))
        return len(dists) * ((1 << m) + (1 << (N - m + s))) + (8 * (m - s + 1) << (N - m + s))

    return _split_sweep(N, dists, min(range((N + 1) // 2, N + 1), key=work))


def brute_force_min(n: int, L, k: int, boundary: str = "open") -> SolveResult:
    """Exhaustive exact minimum over all volume-k configurations.

    ``boundary`` is "open" or "periodic"; a ring needs at least two sites.
    An instance past the column DP's own guard (``_run_states``) is refused
    before any configuration is built, so no request holds more sites than
    a column DP may.  k in {0, N} is the constant configuration, with
    energy 0.
    Otherwise, for N <= 28 the split-cut sweep (``_split_sweep``) counts
    every one of the 2^N masks once per shape (n, L, boundary), for all
    volumes, and is cached; ``config`` is the minimizer with the smallest
    bitmask.  Past N = 28 the transfer matrix (``_transfer_min``, method
    "TransferMatrix") searches all configurations while ``_transfer_fits``
    allows; larger instances are refused outright.
    Every result is re-evaluated for its energy and volume (``_checked``).
    """
    L, N, periodic = _instance(n, L, k, boundary)
    _run_states(n, N, k, "brute force past the column DP's guard")
    if k in (0, N):
        cfg = SpinConfig._trusted(n, L, (int(k > 0),) * N)
        return _checked(cfg, 0, k, periodic, "BruteForce", True)
    if N > FULL_SWEEP_MAX_N:
        if not _transfer_fits(n, N, k, periodic):
            raise SolverGuardError(
                f"instance too large for brute force: N={N} > {FULL_SWEEP_MAX_N} and "
                "the transfer matrix does not fit its budget"
            )
        return _transfer_min(n, L, k, periodic)

    mins, first = _sweep_table(n, (L.numerator, L.denominator), periodic)
    return _checked(SpinConfig.from_bitmask(n, L, int(first[k])), int(mins[k]), k, periodic,
                    "BruteForce", True)


# --- column dynamic program ---------------------------------------------------


def _state_type(top: int) -> type:
    """The narrowest of int8, int16 and int32 holding [-top, top], for a
    search whose values are proved to lie in that range.

    ``_column_dp`` passes cap + n + 1.  It clamps its states at cap = ub + 1,
    ``ub`` the count of a profile it searches (``_fill_bound``), after each
    step and seam sum.  Costs are non-negative, so a clamped state is
    exactly min(unclamped state, cap).  The least total is at most ub, so
    states on an optimal path are below cap, while a clamped state plus
    any cost is above every value the retrace compares it with: totals and
    retrace are those of the unclamped DP.  From inputs in [0, cap] a step
    computes values in [-n, cap + n + 1]: it subtracts at most h <= n, adds
    at most a1 <= n plus one wrap unit to a raw backward row and at most
    h + 1 in the top row and the cost table, and after the running minima
    adds at most 2 to the least of a row; a seam adds at most n + 1.  The
    fill profiles cost at most 3n + 4, and 5n + 5 with the ring's seam.
    """
    return np.int8 if top < 1 << 7 else np.int16 if top < 1 << 15 else np.int32


def _fill_bound(n: int, heights: tuple[int, ...], k: int, firsts: range, seam=None) -> int:
    """Least count of two fill profiles that ``_column_dp``'s runs search.

    ``firsts`` is the range of first counts the runs hold, within the first
    window: the open run's every count, or one count per pinned run, the
    seam's row a - firsts[0] for count a.  One profile starts with the
    largest, firsts[-1], and fills the later columns from the left to
    volume k (full ones, one partial, then empty ones), the other with the
    smallest, firsts[0], and fills from the right; each adds its run's
    ``seam``.  Both are profiles the DP searches, so the
    least of their counts bounds its least total (Land & Doig's bound step,
    Econometrica 28, 1960).  Heights do not grow, so a step between two
    full or two empty columns costs nothing, and only the steps into
    column 1, the first column not filled like its left neighbour and the
    one after it are counted.
    """
    ends = list(accumulate(heights))
    N, last = ends[-1], len(heights) - 1
    bounds = []
    for a0, left in ((firsts[-1], True), (firsts[0], False)):
        def count(i):  # column i of the profile; later columns fill in order
            if i == 0:
                return a0
            before = ends[i - 1] - heights[0] if left else N - ends[i]
            return min(max(k - a0 - before, 0), heights[i])

        q = bisect_right(ends, k - a0 + heights[0] if left else N - k + a0)
        total = 0 < a0 < heights[0]
        for i in {1, q, q + 1}:
            if i <= last:
                a1, a2, h = count(i - 1), count(i), heights[i]
                total += (abs(min(a1, h) - a2) + (n > 1 and (a1 == heights[i - 1]) != (a2 >= 1))
                          + (0 < a2 < h))
        if seam is not None:  # a one-column ring adds no seam[0]
            p = a0 - firsts[0]
            total += int(seam[1][p, count(last)]) + (last > 0 and int(seam[0][p, count(last - 1)]))
        bounds.append(total)
    return min(bounds)


@lru_cache(maxsize=512)
def _step_terms(h_prev: int, h: int, wrap: bool, dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """Cost terms for ``_column_step`` from a column of height h_prev to one of h.

    Returns ``(forward, backward, updown, top, cost)`` in ``dtype``, laid
    out to broadcast against ``_column_step``'s count-major arrays:
    ``updown`` as (h + 1, 2, 1, 1) against its buffer, ``cost`` as
    (h_prev + 1, h + 1, 1, 1) against the input rows, the others as
    (h + 1, 1, 1) against rows of states.  ``forward`` and ``backward``
    (the latter in reversed count order) add -a1 and +a1 to the rows
    a1 = 0..h of the previous column before the two running minima.
    ``updown`` holds the wrap and internal terms plus and minus a2, over
    a2 = 0..h, for the two halves, ``top`` is the whole cost of the row
    a1 == h_prev, and ``cost[a1, a2]`` the whole cost table.  The terms
    depend only on the arguments, so they are cached (``dtype`` an
    ``np.dtype``) and returned read-only.

    When h == h_prev, row a1 = h is that top row, so it enters both running
    minima.  Its backward term carries the wrap cost once more, which makes
    its candidate exact at a2 = 0; at every a2 >= 1 its candidates are too
    high, and ``top`` is exact there.
    """
    a = np.arange(h + 1, dtype=dtype)
    w = int(wrap)
    inner = np.ones(h + 1, dtype)  # internal jump, 0 < a < h
    inner[[0, h]] = 0
    rest = inner + w
    rest[0] = 0
    top = h - a + inner
    top[0] += w
    backward = a.copy()
    backward[h] += w
    updown = np.stack([rest + a, (rest - a)[::-1]], axis=1)
    a1 = np.arange(h_prev + 1)[:, None]
    cost = abs(a1.clip(max=h) - a) + w * ((a1 == h_prev) != (a >= 1)) + inner
    column = (-1, 1, 1)
    terms = (-a.reshape(column), backward[::-1].reshape(column),
             updown.reshape(-1, 2, 1, 1), top.reshape(column),
             cost.astype(dtype).reshape(h_prev + 1, h + 1, 1, 1))
    for t in terms:
        t.flags.writeable = False
    return terms


def _column_step(cur: np.ndarray, h_prev: int, terms, cap: int) -> np.ndarray:
    """One step of the column DP: a column of height h after one of height h_prev.

    ``cur[a1, c, p]`` is the least mismatch count of a prefix profile of
    run p whose current column holds a1 ones and whose columns so far hold
    ``lo + c`` ones (``lo`` is the caller's window start).  Rows above
    h_prev are unreachable (>= cap).  Only the last column may be shorter,
    so h <= h_prev.  ``terms`` is ``_step_terms(h_prev, h, wrap,
    cur.dtype)``.  Returns ``out`` of shape (n + 1, C + n, P), cap where
    no a1 contributes, with

        out[a2, c, p] = min over a1 of cur[a1, c - a2, p] + cost(a1, a2),
        cost(a1, a2) = |min(a1, h) - a2|              horizontal pairs
                     + [(a1 == h_prev) != (a2 >= 1)]  wrap pair (if ``wrap``)
                     + [0 < a2 < h]                   internal jump.

    On a partial column (h < n) the rows a2 > h hold cap at c < a2 only
    and are unset beyond: ``_column_dp`` reads that step at volume k alone,
    at c = min(k, h) < a2.

    A step charged at most ``_SMALL_STEP`` is one broadcast sum over the
    cost table and one minimum over a1: at that size numpy's fixed cost per
    call, not the elements, sets its time.  Its charge is its candidates,
    (h_prev + 1)(h + 1) C P, plus ``_PAIR_CHARGE`` per (a1, a2) pair, since
    the broadcast runs one inner loop of C P elements per pair, about 10 ns
    each: at n = 80 and a narrow window that overhead makes it slower than
    the running minima.  A larger one is an L1 distance transform
    (``_distance_transform``).
    """
    top, cost = terms[3:]
    h = len(top) - 1
    R, C, P = cur.shape

    # best[a2] is written into a padded buffer whose rows, read back with a
    # row stride P elements shorter, come out shifted right by a2 volumes
    padded = np.empty((R, C + R, P), cur.dtype)
    padded[:, :R] = cap
    best = padded[: h + 1, R:]
    if cost.size * (C * P + _PAIR_CHARGE) <= _SMALL_STEP:
        np.add(cur[: h_prev + 1, None], cost).min(axis=0, out=best)
    else:
        _distance_transform(cur, h_prev, terms, best)
    return padded.reshape(-1)[R * P :].reshape(R, C + R - 1, P)


def _distance_transform(cur: np.ndarray, h_prev: int, terms, best: np.ndarray) -> None:
    """``_column_step``'s minimum over a1, written into ``best[a2, c, p]``.

    The horizontal term makes it an L1 distance transform (Felzenszwalb &
    Huttenlocher, "Distance Transforms of Sampled Functions", Theory of
    Computing 8, 2012): a forward and a backward running minimum over the
    count axis, so it costs O(n C) per run rather than O(n^2 C).  Both
    minima run in one count-major buffer of shape (h + 1, 2, C, P), the
    backward rows in reversed count order, so one contiguous
    ``np.minimum`` per count advances both, for every run and volume;
    numpy's cumulative minimum costs about ten times as much per element.
    The run axis is innermost, as in ``_transfer_pass``, so every
    elementwise operation walks h + 1 contiguous blocks of (volume, run)
    states.  The a1 == h_prev row differs in its wrap term and is also
    taken on its own.
    """
    forward, backward, updown, top, _ = terms
    h = len(top) - 1
    _, C, P = cur.shape

    # buf[i, 0] holds row a1 = i, buf[i, 1] row a1 = h - i; on a partial
    # column (h < h_prev) rows h .. h_prev-1 all land on position h
    buf = np.empty((h + 1, 2, C, P), cur.dtype)
    np.add(cur[: h + 1], forward, out=buf[:, 0])
    np.add(cur[h::-1], backward, out=buf[:, 1])
    if h < h_prev:
        folded = cur[h:h_prev].min(axis=0)
        np.subtract(folded, h, out=buf[h, 0])
        np.add(folded, h, out=buf[0, 1])
    counts = list(buf)
    for prev, row in zip(counts, counts[1:]):
        np.minimum(prev, row, out=row)
    np.add(buf, updown, out=buf)
    np.minimum(buf[:, 0], buf[::-1, 1], out=best)
    np.add(cur[h_prev], top, out=buf[:, 1])
    np.minimum(best, buf[:, 1], out=best)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two state arrays are equal; their first and last volumes,
    compared first as bytes, settle most unequal pairs cheaply."""
    return (a[:, 0].tobytes() == b[:, 0].tobytes() and a[:, -1].tobytes() == b[:, -1].tobytes()
            and np.array_equal(a, b))


@lru_cache(maxsize=64)
def _prefix_table(n: int, dtype: np.dtype, pinned: bool) -> tuple[int, list]:
    """``(g, entries)``: the cached table of a column DP's states after each
    of its first g full columns of height n, for every volume, and the
    entries built so far (``_prefix`` extends them).  Entry c is
    ``[count, volume, run]`` of shape (n + 1, (c + 1) n + 1, runs).  The run
    set is that of ``_transfer_pass``'s ``start``: open, one run that allows
    every first count; ``pinned``, one run per first count a = 0..n, run a
    holding a alone, as the ring pins its first column.

    States are clamped at cap_d = max(dtype) - n - 1, the largest cap for
    which ``_state_type`` gives ``dtype``, so a request in that type has a
    cap <= cap_d.  g is the most columns whose states fit ``_PREFIX_STATES``
    per run and ``_PIN_BATCH`` over all the runs, the bound a chunk of pins
    keeps: both tables hold the same columns up to n = 32 (47 at n = 7, 21
    at n = 16), the pinned one at most as many from n = 33 and none from
    n = 128, the open one none from n = 256.  No table holds more than 2^21
    states.
    """
    runs = n + 1 if pinned else 1
    budget = min(_PREFIX_STATES, _PIN_BATCH // runs)  # states a run holds
    g, held = 0, (n + 1) ** 2  # states a run holds in entries 0..g
    while held <= budget:
        g += 1
        held += (n + 1) * ((g + 1) * n + 1)
    return g, []


def _prefix(n: int, dtype: np.dtype, pinned: bool, count: int) -> list:
    """The first min(count, g) entries of ``_prefix_table(n, dtype,
    pinned)``.  Entries are built only when a request first reads them,
    each stepped from the last one built and clamped at cap_d, so a cold
    request steps only the columns it views.  They depend on n, the type
    and the run set only, so they are compact read-only arrays shared by
    every later request, not views of padded step buffers.
    """
    g, table = _prefix_table(n, dtype, pinned)
    count = min(count, g)
    if len(table) < count:
        cap = int(np.iinfo(dtype).max) - n - 1
        if not table:
            first = np.arange(n + 1)
            cur = np.full((n + 1, n + 1, len(first) if pinned else 1), cap, dtype)
            cur[first, first, first if pinned else 0] = (0 < first) & (first < n)
            cur.flags.writeable = False
            table.append(cur)
        terms = _step_terms(n, n, n > 1, dtype)
        while len(table) < count:
            cur = np.minimum(_column_step(table[-1], n, terms, cap), cap)
            cur.flags.writeable = False
            table.append(cur)
    return table[:count]


def _column_dp(n: int, heights: tuple[int, ...], k: int, pins: Optional[range] = None,
               seam=None) -> tuple[np.ndarray, list]:
    """Least mismatch counts over prefix profiles of volume k, one per run,
    and the states that ``_backtrack`` retraces them from.

    ``pins`` is the run set, as ``_prefix`` takes ``pinned``: None is the
    open chain's one run, whose first column may hold any count of the
    first window; a range of consecutive counts within that window (a
    chunk of the ring's pins) is one run pinned to each, run p to count
    pins[p].  Every run must reach volume k; the runs go through every
    ``_column_step`` together, one slice each of the innermost state axis:
    every state array is ``[count, volume, run]``.  ``seam = (before,
    after)`` holds one row per run and adds ``before[p, a]`` for the second
    to last column's count a and ``after[p, a]`` for the last column's: the
    cyclic closure, whose cost splits that way.  At n = 1 the wrap pair and
    the horizontal pair are the same pair, so it is counted once.  Only
    volumes that can still reach k are kept: after columns 0..ci, holding S
    sites, the window is [k - (N - S), S] within [0, k], so the work is
    O(ncols n min(k, N - k)) per run.  The states are plain counts clamped
    at cap, one above ``_fill_bound``, in the type ``_state_type`` gives for
    [-n, cap + n + 1].

    Returns ``(totals, states)``: ``totals[p]`` is run p's least count, or
    cap if that is more, so the least over the runs is exact (a least total
    above the fill bound raises ``AssertionError`` explicitly, so the check
    survives ``python -O``), and ``states`` lists ``(lo, kept)`` per
    column: the states after that column, ``kept[a, v - lo, p]`` at count
    a and volume v, as the next step took them (the second to last
    column's include ``seam[0]``) and, last, the final states with
    ``seam[1]``.  Each is in the pass's dtype: an array a step read, or a
    view of a step buffer or of a table; none is copied for keeping.

    Tables: with heights[0] == n, the run set views its first g full
    columns in its table (``_prefix(n, dtype, pins is not None, ...)``),
    each cut to its window and, pinned, to the run slice [pins[0],
    pins[-1] + 1), g as many as the table holds, at most the full columns
    before the seam or the partial column.  The pass steps from the
    clamped copy of column g - 1; with no entry (a first column of height
    below n, or a table that holds none) it starts from the first column
    set as ``_prefix`` sets entry 0.  Views of a table are clamped at
    cap_d >= cap, so they equal the stepped states below cap and are >= cap
    wherever those are cap; totals, retraces and labels are those of
    stepping every column.

    Fixed point: a full step without seam reads volumes v - n .. v for v.
    Once one, with two more ahead, outputs its input aligned by volume
    (both windows end at k) or by empty sites (both start at k - (N - S)),
    each later one reads only the states just found equal, or none on both
    sides, so those columns are views of that array and run no step.  The
    cap makes states that cannot beat the bound equal, so it comes sooner.
    """
    N = sum(heights)
    ends = np.cumsum(heights)

    def window(ci):
        return max(0, k - (N - int(ends[ci]))), min(k, int(ends[ci]))

    lo, hi = window(0)
    firsts = range(lo, hi + 1) if pins is None else pins
    ub = _fill_bound(n, heights, k, firsts, seam)
    cap = ub + 1
    dtype = _state_type(cap + n + 1)
    terms = {(hp, h): _step_terms(hp, h, n > 1, np.dtype(dtype))
             for hp, h in set(zip(heights, heights[1:]))}
    # the clamp's operand: a row of caps as wide as any window (numpy's
    # minimum against a scalar skips its vector loop and is ten times slower)
    caps = np.full((min(k, N - k) + 1, 1 if pins is None else len(pins)), cap, dtype)
    # the last plain full -> full step: no partial column, no seam added
    last = len(heights) - 1 - (seam is not None or heights[-1] < n)

    # the run set takes its first full columns from its table, each cut to
    # its window and run slice; the first stepped one is clamped
    states = []
    if heights[0] == n:
        runs = slice(0, 1) if pins is None else slice(pins[0], pins[-1] + 1)
        for ci, prefix in enumerate(_prefix(n, np.dtype(dtype), pins is not None, last + 1)):
            lo, hi = window(ci)
            states.append((lo, prefix[:, lo : hi + 1, runs]))
    if states:
        lo, cur = states.pop()
        cur = np.minimum(cur, caps[: cur.shape[1]])
    else:
        a = np.array(firsts)
        cur = np.full((n + 1, hi - lo + 1, caps.shape[1]), cap, dtype)
        cur[a, a - lo, 0 if pins is None else a - a[0]] = (0 < a) & (a < heights[0])

    fixed = None
    for ci in range(len(states) + 1, len(heights)):
        if seam is not None and ci == len(heights) - 1:
            cur = cur + seam[0].T[:, None].astype(dtype)
            np.minimum(cur, caps[: cur.shape[1]], out=cur)
        states.append((lo, cur))
        lo_next, hi_next = window(ci)
        if fixed is not None and ci <= last:  # past the fixed point: views, no step
            ref_lo, ref = fixed
            s = 0 if ref_lo is None else lo_next - ref_lo
            cur = ref[:, s : s + hi_next - lo_next + 1]
        else:
            h_prev = heights[ci - 1]
            out = _column_step(cur, h_prev, terms[h_prev, heights[ci]], cap)
            nxt = out[:, lo_next - lo : hi_next - lo + 1]
            np.minimum(nxt, caps[: nxt.shape[1]], out=nxt)
            if ci + 2 <= last:
                if hi == k and _same(nxt, cur[:, lo_next - lo :]):
                    fixed = lo_next, nxt  # volume-aligned
                elif lo_next == lo + n and _same(nxt, cur[:, : nxt.shape[1]]):
                    fixed = None, nxt  # hole-aligned
            cur = nxt
        lo, hi = lo_next, hi_next
    if seam is not None:
        cur = cur + seam[1].T[:, None].astype(dtype)
        np.minimum(cur, caps[: cur.shape[1]], out=cur)
    # the last window is [k, k]
    totals = cur[:, k - lo].min(axis=0)
    if totals.min() > ub:
        raise AssertionError("column DP total must not exceed its fill bound")
    return totals, states + [(lo, cur)]


def _backtrack(n: int, heights: tuple[int, ...], k: int, p: int, states: list,
               seam=None) -> tuple[int, list[int]]:
    """Run p's least total and its profile, traced back through ``states``.

    ``states`` and ``seam`` are those of a pass of ``_column_dp``, each kept
    array read at ``[count, volume - lo, p]``.  The last count is the
    smallest a minimising the final states at volume k; its value, less
    ``seam[1]`` if there is a seam, is the last step's output.  Going back
    one column, from count a2, volume v and value ``value``, the previous
    count is the smallest a1 <= h_prev whose state at volume v - a2 (index
    v - a2 - lo in its window) has

        state[a1, v - a2 - lo, p] + cost(a1, a2) == value,

    ``cost`` as in ``_column_step``, with the wrap term only for n > 1; with
    a seam, the second to last column's states carry ``seam[0]``, which is
    taken off the value passed back.  The scan starts at a1 = max(0, a2 -
    value): every kept state is >= 0 (so are the seam terms), and for
    a1 < a2 <= h the horizontal term alone makes cost(a1, a2) >= a2 - a1, so
    a smaller a1 has state + cost > value.  A step without such an a1 raises
    ``AssertionError`` explicitly, so the check survives ``python -O``.
    """
    lo, final = states[-1]
    last = final[:, k - lo, p].tolist()
    total = min(last)
    a = last.index(total)
    value = total - int(seam[1][p, a]) if seam is not None else total
    counts = [0] * len(heights)
    v = k
    for ci in range(len(heights) - 1, 0, -1):
        counts[ci] = a
        h_prev, h = heights[ci - 1], heights[ci]
        v -= a
        lo, kept = states[ci - 1]
        jump = 0 < a < h
        start = max(0, a - value)
        for a1, s in enumerate(kept[start : h_prev + 1, v - lo, p].tolist(), start):
            wrap = n > 1 and (a1 == h_prev) != (a >= 1)
            if s + abs(min(a1, h) - a) + wrap + jump == value:
                break
        else:
            raise AssertionError("column DP backtrack must retrace its value pass")
        value = s - int(seam[0][p, a1]) if seam is not None and ci == len(heights) - 1 else s
        a = a1
    counts[0] = a
    return total, counts


def _run_states(n: int, N: int, k: int, solver: str = "the column DP") -> int:
    """The states one run of ``_column_dp`` keeps over its pass, about:
    ceil(N / n) columns of n + 1 counts by min(k, N - k) + n + 2 volumes
    (the window and the step's shift).  Past ``DP_BUDGET`` it raises
    ``SolverGuardError`` naming ``solver`` and the count, before anything
    is built."""
    states = -(-N // n) * (n + 1) * (min(k, N - k) + n + 2)
    if states > DP_BUDGET:
        raise SolverGuardError(
            f"instance too large for {solver}: one run keeps about {states} states "
            f"> {DP_BUDGET}"
        )
    return states


def column_dp_min(n: int, L, k: int) -> SolveResult:
    """Least open energy at volume k over prefix profiles, by a DP over columns.

    Prefix profile: within each column the occupied sites form a bottom
    prefix, so a column is described by its count.  State: (column, count,
    volume used); each column step is a minimum over the previous count,
    vectorised over the volume axis (``_column_step``), so the DP costs
    O(ncols n k) time and memory: one value pass that keeps every column's
    states, int8 up to n of about 60, and one retrace of the profile from
    them (``_backtrack``).  The first column contributes its
    own internal jump.  Ties break toward the smaller count, then the
    smaller column index, so the returned profile is deterministic.

    Prefix profiles do not always contain an open minimizer: at
    (n, L, k) = (6, 5/4, 39) this returns 7/6, while a configuration of
    volume 39 with energy 1 exists.  So the result is labelled exact only
    at k in {0, N}, where the constant configuration is the only one, and
    at n = 1, where every column holds one site, so every configuration is
    a prefix profile.

    n < 1 or L <= 0 is a ``ValueError``; a chain without sites (L n^2 < 1)
    has the empty configuration, energy 0.  An instance whose run would keep
    more than ``DP_BUDGET`` states is a ``SolverGuardError``, raised before
    any column is built (``_run_states``).
    """
    L, N, _ = _instance(n, L, k)
    _run_states(n, N, k)
    heights = column_heights(n, L)
    if not heights:  # N = 0: the empty chain
        total, counts = 0, []
    else:
        _, states = _column_dp(n, heights, k)
        total, counts = _backtrack(n, heights, k, 0, states)
    profile = ColumnProfile(n, heights, tuple(counts))
    return _checked(profile_to_config(profile, L), total, k, False, "ColumnDP",
                    n == 1 or k in (0, N), profile=profile)


# --- transfer matrix (both boundaries) and cyclic DP ---------------------------


@lru_cache(maxsize=8)
def _transfer_cost(dtype: np.dtype) -> np.ndarray:
    """``cost[b, x, t]``, shape (2, 2, 2, 1, 1, 1) in ``dtype``: the cost of
    a new site x after a window whose oldest bit (n sites back) is b and
    whose newest bit (one site back) is t, [x != b] + [x != t], laid out to
    broadcast against ``_transfer_pass``'s view ``[b, x, t, w'', volume,
    run]``.  Cached per type and read-only."""
    b, x, t = np.indices((2, 2, 2))
    cost = ((x != b).astype(dtype) + (x != t)).reshape(2, 2, 2, 1, 1, 1)
    cost.flags.writeable = False
    return cost


def _transfer_pass(n: int, N: int, k: int, start: np.ndarray) -> list[np.ndarray]:
    """Transfer-matrix sweep of the chain, one run per row of ``start``.

    ``start[p, w]`` (bool, shape (P, 2^n)) says whether run p may begin with
    the window w on sites 0..n-1 (site j at bit j).  Returns the states
    after sites n-1, n, ..., N-1, one array per step, each ``D[w, v + 1,
    p]``: the least mismatch count over the sites so far at distances 1
    and n, no seam, of a configuration that run p may begin with, whose last
    n sites are the window w (the newest at bit n-1) and whose volume is v.
    Index 0 of the volume axis is a padding row for volume -1, held at inf.
    Each first window starts with its own internal distance-1 pairs; adding
    site i costs [x_i != x_{i-1}] + [x_i != x_{i-n}].  A new window
    (w >> 1) | (x << n-1) has exactly two predecessors, 2w' + b with w' its
    low n-1 bits and b the oldest bit, and x_{i-1} is bit n-2 of w', so a
    step is two calls: one ``np.add`` of the cost table ``_transfer_cost``
    over a strided view ``[b, x, t, w'', v, p]`` of the previous states,
    w' = t 2^(n-2) + w'' (the x = 1 half one volume back, so volume 0 reads
    the padding), and one ``np.minimum`` over b into the new array.  Only
    volumes that can still reach k are written: after site i, [k - (N-1-i),
    i+1] within [0, k], and the rest stay inf.  A step reads the written
    entries, and otherwise only volumes no configuration has (volume -1, or
    i + 1 after i sites), whose inf is their true value.  ``_transfer_min``
    retraces any run from the kept arrays, so none runs twice.

    The layout is window-major: the view strides only the outer axes, so
    each elementwise operation walks 2^(n+1) contiguous blocks of (volume,
    run) states.  Run-major, ``D[p, w, v]``, it would walk P 2^(n+1) blocks
    of at most k + 1 states each, and that per-block cost would dominate the
    ring's P = 2^(n-2) + 1 pinned runs.  Each step's array is allocated on
    its own (at most 64 KB on the rings of n = 6 up to k = 25), not as a
    slice of one block per pass: an array above glibc's 128 KB mmap
    threshold is mapped and page-faulted on every call.  The sums go into
    one buffer per pass.

    The states are plain counts, and unreachable ones start at inf =
    min(5n + 8, 2N + 1), the padding included.  A reachable state is at
    most 5n + 1 (its first window, a block of ones then zeros, and its
    last: at most 2n + 1 distance-1 and 3n distance-n pairs) and 2N, below
    inf.  Every state is at most inf + 2n: follow predecessors whose oldest
    bit is 0 back from it, at most 2 a site; within n sites that reaches a
    first window, an unwritten entry or window 0, and window 0 after window
    0 costs nothing, so each of these is at most inf.  So every value, the
    step's sums included, lies in [0, inf + 2n + 2], the range the pass
    takes its type for: int8 up to n = 16, int16 at every larger n the
    guard admits.
    """
    W, half, quarter = 1 << n, 1 << (n - 1), 1 << (n - 2)
    inf = min(5 * n + 8, 2 * N + 1)
    dtype = np.dtype(_state_type(inf + 2 * n + 2))
    cost = _transfer_cost(dtype)
    vols = np.bitwise_count(np.arange(W))
    p, first = np.nonzero(start & (vols <= k))
    P = len(start)
    shape = (W, k + 2, P)
    D = np.full(shape, inf, dtype)
    D[first, vols[first] + 1, p] = np.bitwise_count((first ^ (first >> 1)) & (half - 1))
    states = [D]
    item = dtype.itemsize
    sv, sw = P * item, (k + 2) * P * item  # strides of one volume and one window
    buf = np.empty((2, 2, 2, quarter, k + 1, P), dtype)
    for i in range(n, N):
        lo, hi = max(0, k - (N - 1 - i)), min(k, i + 1)
        # with w' = t 2^(n-2) + w'', a new window x 2^(n-1) + w' at volume v:
        # sums[b, x, t, w'', v - lo, p] = D[2w' + b, v - x + 1, p] + cost[b, x, t]
        shape6 = (2, 2, 2, quarter, hi - lo + 1, P)
        sums = np.add(np.ndarray(shape6, dtype, D, (lo + 1) * sv,
                                 (sw, -sv, half * sw, 2 * sw, sv, item)),
                      cost, out=buf[..., : hi - lo + 1, :])
        D = np.full(shape, inf, dtype)
        np.minimum(sums[0], sums[1], out=np.ndarray(shape6[1:], dtype, D, (lo + 1) * sv,
                                                     (half * sw, quarter * sw, sw, sv, item)))
        states.append(D)
    return states


def _transfer_fits(n: int, N: int, k: int, periodic: bool) -> bool:
    """Guard of ``_transfer_min``: n >= 2 and N > 2n, where the distance
    classes are distinct, and its work fits ``TRANSFER_BUDGET``."""
    runs = 1 << n if periodic else 1
    return n >= 2 and N > 2 * n and runs * (1 << n) * N * (min(k, N - k) + 1) <= TRANSFER_BUDGET


@lru_cache(maxsize=64)
def _transfer_runs(n: int, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(start, seam)`` of ``_transfer_min``'s runs, cached per (n,
    periodic) and read-only: ``start`` as ``_transfer_pass`` takes it and
    ``seam[p, w]`` the ring's closing cost of run p and last window w (a row
    of zeros on the open chain).

    The ring's pairs {(i, i+1), (i, i+n)} mod N are the same after any
    rotation, and so are the energy and the volume.  At 0 < j < N a
    configuration holds both values, so some site i holds 0 and site i+1
    (mod N) holds 1; rotating a minimizer by -i puts them at sites 0 and 1,
    and its first window w then has w & 3 == 2 (site s at bit s).  At j = 0
    the one configuration starts with window 0.  So the ring pins those
    first windows, one run each, and its seam adds popcount(first ^ last)
    for the distance N-n pairs and [bit 0 of first != bit n-1 of last] for
    the distance N-1 pair.  The open chain is one run from every window.
    """
    windows = np.arange(1 << n)
    if periodic:
        pins = windows[(windows & 3 == 2) | (windows == 0), None]
        start = pins == windows
        seam = np.bitwise_count(pins ^ windows) + ((pins & 1) != (windows >> (n - 1)))
    else:
        start, seam = np.ones((1, len(windows)), bool), np.zeros((1, len(windows)), np.uint8)
    for a in (start, seam):
        a.flags.writeable = False
    return start, seam


def _transfer_min(n: int, L: Fraction, k: int, periodic: bool) -> SolveResult:
    """Exact minimum at volume k by a transfer matrix over all configurations.

    The state is the last n sites and the volume so far (``_transfer_pass``).
    The ring runs each pinned first window as a run of its own and adds the
    seam; only the first windows w with w & 3 == 2, or w = 0, are pinned:
    2^(n-2) + 1 of the 2^n (``_transfer_runs``).  The open chain is one run
    that starts from every first window, with no seam.  Both take the first
    least total over (run, last window), so ties go to the first pin, then
    the first window, and retrace it through the one pass's kept states, as
    ``_backtrack`` retraces the column DPs: going back one site from window
    w, volume v and value ``value``, the oldest bit b of the predecessor
    2w' + b is 0 if that state plus its cost (``_transfer_cost``) is
    ``value``, else 1 if that one is; a tie keeps bit 0, and a site where
    neither matches raises ``AssertionError`` explicitly, so the check
    survives ``python -O``.  The retrace ends at the first window.  Both
    energies count mismatches, so complementing every site keeps the
    energy: a volume k > N/2 is solved at j = N - k and its configuration
    complemented.  Work (2^(n-2) + 1) * 2^n N (j + 1) state updates on a
    ring, 2^n N (j + 1) on the open chain, and as many states kept;
    ``_transfer_fits`` still budgets 4^n N (j + 1) for the ring, so no
    instance changes route (Baxter, "Exactly Solved Models in Statistical
    Mechanics", 1982, for the transfer-matrix method).  The caller checks
    ``_transfer_fits``.
    """
    N = site_count(n, L)
    j = min(k, N - k)
    W = 1 << n
    start, seam = _transfer_runs(n, periodic)
    states = _transfer_pass(n, N, j, start)
    totals = states[-1][:, j + 1].T + seam  # [run, last window]
    p, w = divmod(int(totals.argmin()), W)
    total = int(totals[p, w])
    value = states[-1].item(w, j + 1, p)
    mask, v = 0, j
    for i in range(N - 1, n - 1, -1):
        x, t = w >> (n - 1), (w >> (n - 2)) & 1  # site i; site i - 1, the predecessor's newest
        mask |= x << i
        v -= x
        kept = states[i - n]
        w = (w << 1) & (W - 1)
        s = kept.item(w, v + 1, p)
        if s + x + (x != t) != value:  # oldest bit 0 costs [x != 0] + [x != t]
            w |= 1
            s = kept.item(w, v + 1, p)
            if s + (1 - x) + (x != t) != value:
                raise AssertionError("transfer matrix retrace must retrace its value pass")
        value = s
    mask |= w
    if j < k:
        mask ^= (1 << N) - 1

    return _checked(SpinConfig.from_bitmask(n, L, mask), total, k, periodic, "TransferMatrix",
                    True)


@lru_cache(maxsize=64)
def _ring_seam(n: int, N: int, pins: range) -> tuple[np.ndarray, np.ndarray]:
    """``(before, after)``, the cyclic DP's seam rows of the ring (n, N),
    one row per pinned first-column count a in ``pins``: ``before[p, c]``
    for the second to last column's count c, ``after[p, c]`` for the last
    column's, p = a - pins[0].  They depend on (n, N) and the pins only (the
    column heights are floor(N / n) columns of n and one of N mod n), so
    they are cached, int16 (a seam adds at most n + 1) and read-only; a
    chunk of pins reads its rows.  A middle volume pins every count
    0..n, so rings of one shape share one entry.  Keyed by the pins, an
    entry holds no more rows than the DP has runs, so a ring of large n and
    few pins keeps few."""
    lam = N % n
    last = lam or n  # the last column's height
    a1 = np.array(pins)[:, None]
    counts = np.arange(n + 1)
    before = np.zeros((len(pins), n + 1), int)
    after = np.zeros((len(pins), n + 1), int)
    for d in set(pair_distances(n, N, True)) - {1, n}:  # the classes the columns miss
        if d != N - n:  # the distance N-1 pair
            after += (a1 >= 1) != (counts == last)
        # distance N-n pairs of the first column against the last n sites,
        # which start lam sites up the second to last column when lam != 0
        elif lam:
            before = np.abs(np.minimum(a1, n - lam) - np.clip(counts - lam, 0, n - lam))
            after += np.abs(np.maximum(a1, n - lam) - np.clip(counts + n - lam, n - lam, n))
        else:
            after += np.abs(a1 - counts)
    seam = before.astype(np.int16), after.astype(np.int16)
    for a in seam:
        a.flags.writeable = False
    return seam


def _cyclic_dp(n: int, L, k: int) -> SolveResult:
    """Best periodic energy over cyclic prefix profiles; upper bound on the minimum.

    Pins the first column's count and adds the seam: the ring's pair
    classes (``pair_distances``) that the columns do not count already,
    those other than 1 and n; classes that coincide count once, so at n = 1
    the class N-1 is N-n.  The class N-n adds the n distance N-n pairs
    (shifted by the column defect when the last column is partial), the
    class N-1 the one distance N-1 pair.  The seam cost splits into a term
    in the second to last column's count and a term in the last column's
    count, so it enters as two vectors per pin, rows of the two tables
    ``_ring_seam`` builds once per (n, N) and pin range; a one-column ring
    (N <= n) has only the last.  One value pass runs every pin that can reach
    volume k through ``_column_dp`` as one batch, the pins on the innermost
    state axis, in chunks of at most about ``_PIN_BATCH`` states kept over
    the whole pass (``_run_states`` a pin, at least one pin a chunk), one
    call per chunk.  The pins are a range of consecutive counts, the first
    window, and a chunk is a slice of it, so it views its first full
    columns in the pinned table of first full columns (one run per first
    count, shared by every ring of that n, ``_PREFIX_STATES`` states a run
    and at most ``_PIN_BATCH`` in all, so as deep as the open table up to
    n = 32) and steps only the columns after them, the seam's included.
    The first chunk with a strictly lower least total keeps its states, so
    the smallest pin with the least total wins; ``_backtrack`` retraces that
    pin alone from them.  It applies to every ring of at least two sites; a
    pin past ``DP_BUDGET`` is a ``SolverGuardError``.  The result is exact
    at n = 1, where every configuration is a profile and every first count
    is pinned, and at k in {0, N}, where one configuration exists; else
    exact=False.  The backtrack must retrace the value pass, and the result
    is re-evaluated (``_checked``).
    """
    L, N, _ = _instance(n, L, k, "periodic")
    step = max(1, _PIN_BATCH // _run_states(n, N, k))
    heights = column_heights(n, L)
    pins = range(max(0, k - (N - heights[0])), min(heights[0], k) + 1)
    before, after = _ring_seam(n, N, pins)

    best = None  # (total, run, states, seam) of the first chunk with the least total
    for i in range(0, len(pins), step):
        seam = before[i : i + step], after[i : i + step]
        totals, states = _column_dp(n, heights, k, pins[i : i + step], seam)
        p = int(totals.argmin())
        if best is None or totals[p] < best[0]:
            best = int(totals[p]), p, states, seam
        del states  # hold the best chunk's states and the next chunk's, no more
    _, p, states, seam = best
    total, found = _backtrack(n, heights, k, p, states, seam)
    profile = ColumnProfile(n, heights, tuple(found))
    return _checked(profile_to_config(profile, L), total, k, True, "ColumnDP",
                    n == 1 or k in (0, N), profile=profile)


def periodic_min(n: int, L, k: int) -> SolveResult:
    """Minimum of the periodic energy at volume k.

    A ring with fewer than two sites is a ``ValueError``.  Routes, first
    match: the transfer matrix (``_transfer_min``, method "TransferMatrix",
    exact) while 0 < k < N and ``_transfer_fits``, i.e. n >= 2, N > 2n and
    4^n N (min(k, N - k) + 1) <= ``TRANSFER_BUDGET``; ``brute_force_min``
    (exact) for the trivial volumes k in {0, N} and for the split-cut sweep
    while N <= 28; else the cyclic column DP, an upper bound flagged
    exact=False but at n = 1, where it searches every configuration.  Every
    configuration is re-evaluated for its energy and volume.  The transfer
    matrix pins only 2^(n-2) + 1 first windows, since the ring's energy
    does not change under rotation, so it does about a quarter of the work
    the guard budgets; the guard is kept as it is, so routes do not depend
    on that saving.
    """
    L, N, _ = _instance(n, L, k, "periodic")
    if 0 < k < N and _transfer_fits(n, N, k, True):
        return _transfer_min(n, L, k, True)
    if k in (0, N) or N <= FULL_SWEEP_MAX_N:
        return brute_force_min(n, L, k, boundary="periodic")
    return _cyclic_dp(n, L, k)


# --- the entry point ---------------------------------------------------------


def minimize(n: int, L, k: int, boundary: str = "open", method: str = "auto") -> SolveResult:
    """Least energy at volume k on the "open" or "periodic" chain.

    ``method="auto"`` runs ``column_dp_min`` on an open chain and
    ``periodic_min`` on a periodic one (transfer matrix, split-cut sweep or
    cyclic DP by size).  ``"brute"`` runs ``brute_force_min``; ``"dp"`` the
    column DP, or on a ring the cyclic DP (an upper bound, flagged exact
    only at n = 1 or k in {0, N}; ``SolverGuardError`` past ``DP_BUDGET``).
    An unknown boundary or method, an invalid instance and a ring with fewer
    than two sites are a ``ValueError`` under every method.  Every result
    has been re-evaluated for its energy and volume.
    """
    periodic = is_periodic(boundary)
    if method == "auto":
        return periodic_min(n, L, k) if periodic else column_dp_min(n, L, k)
    if method == "brute":
        return brute_force_min(n, L, k, boundary)
    if method == "dp":
        return _cyclic_dp(n, L, k) if periodic else column_dp_min(n, L, k)
    raise ValueError(f"unknown method {method!r}: expected auto, brute or dp")
