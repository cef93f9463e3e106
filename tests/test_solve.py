"""Solver tests: brute-force oracle, DP equivalence, rearrangement behaviour,
periodic transfer matrix and the cyclic DP's upper bound."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from spinchain import (
    ColumnProfile,
    SolveResult,
    SolverGuardError,
    SpinConfig,
    block_rearrange,
    brute_force_min,
    column_dp_min,
    column_heights,
    energy_open,
    energy_periodic,
    lambda_defect,
    minimize,
    periodic_min,
    profile_to_config,
    site_count,
    volume,
)
from spinchain import solve
from spinchain.lattice import pair_distances, pair_windows
from spinchain.solve import (
    TRANSFER_BUDGET,
    _column_dp,
    _cyclic_dp,
    _split_sweep,
    _sweep_table,
    _transfer_fits,
    _transfer_min,
    _transfer_pass,
)

F = Fraction


def exhaustive_min(n, L, k, periodic=False):
    """Independent oracle: enumerate all volume-k configurations directly."""
    N = site_count(n, L)
    energy = energy_periodic if periodic else energy_open
    best, argmin = None, []
    for ones in combinations(range(N), k):
        values = tuple(1 if i in ones else 0 for i in range(N))
        e = energy(SpinConfig(n, L, values))
        if best is None or e < best:
            best, argmin = e, [values]
        elif e == best:
            argmin.append(values)
    return best, argmin


class TestBruteForce:
    def test_spec_instance(self):
        res = brute_force_min(2, 1, 2)
        assert res.value == F(3, 2)
        _, argmin = exhaustive_min(2, 1, 2)
        assert set(argmin) == {(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)}
        # the minimizer with the smallest bitmask, site i at bit i - 1
        assert res.config.values == (1, 1, 0, 0)
        assert res.exact and res.method == "BruteForce"

    def test_trivial_volumes(self):
        assert brute_force_min(3, 1, 0).value == 0
        assert brute_force_min(3, 1, 9).value == 0
        assert brute_force_min(3, 1, 0).config.values == (0,) * 9
        # N = 40, past the sweep: the constant configuration, on both boundaries
        for k in (0, 40):
            for res in (brute_force_min(20, F(1, 10), k), periodic_min(20, F(1, 10), k),
                        brute_force_min(20, F(1, 10), k, "periodic")):
                assert (res.value, res.exact, res.config.values) == (0, True, (int(k > 0),) * 40)

    @pytest.mark.parametrize("n,L,periodic", [
        (2, F(3, 2), False), (3, 1, False), (3, 1, True), (2, F(5, 4), True),
    ])
    def test_matches_exhaustive(self, n, L, periodic):
        N = site_count(n, L)
        for k in range(N + 1):
            want, want_argmin = exhaustive_min(n, L, k, periodic)
            res = brute_force_min(n, L, k, "periodic" if periodic else "open")
            assert res.value == want
            assert res.config.values in want_argmin
            assert res.config.bitmask() == min(SpinConfig(n, L, v).bitmask() for v in want_argmin)

    def test_guard_refuses_large(self):
        # N = 144: past the sweep, and 2^12 * 144 * 73 state updates
        assert not _transfer_fits(12, 144, 72, False)
        with pytest.raises(SolverGuardError):
            brute_force_min(12, 1, 72)

    def test_transfer_matrix_past_the_sweep(self):
        # N = 30 exceeds the sweep bound
        res = brute_force_min(5, F(6, 5), 2)
        assert (res.method, res.exact) == ("TransferMatrix", True)
        # two adjacent sites in one column: one internal jump + two horizontals
        assert res.value == F(3, 5)
        # N = 64, half filled: the column DP's bottom half is optimal
        res = brute_force_min(8, 1, 32)
        assert res.exact and res.value == column_dp_min(8, 1, 32).value == F(9, 8)

    @pytest.mark.parametrize("n,L,k,value", [
        (6, F(5, 4), 39, F(1)),
        (7, F(3, 2), 65, F(1)), (7, F(3, 2), 66, F(1)), (7, F(3, 2), 67, F(6, 7)),
        (7, F(5, 4), 53, F(1)), (7, F(5, 4), 54, F(1)), (7, F(5, 4), 55, F(6, 7)),
    ])
    def test_open_minimum_below_prefix_profiles(self, n, L, k, value):
        # the open chains where the column DP misses the minimum: every
        # configuration is searched, so the true value comes out
        res = minimize(n, L, k, method="brute")
        assert (res.value, res.exact) == (value, True)
        assert energy_open(res.config) == value and volume(res.config) == k
        assert value < column_dp_min(n, L, k).value

    def test_periodic_rejects_bad_volume(self):
        with pytest.raises(ValueError):
            brute_force_min(2, 1, 5)

    def test_accepts_boundary_string(self):
        assert brute_force_min(2, 1, 2, "periodic").value == F(2)
        assert brute_force_min(2, 1, 2, "open").value == F(3, 2)

    @pytest.mark.parametrize("boundary", ["Periodic", "ring", "", True])
    def test_rejects_unknown_boundary(self, boundary):
        # "Periodic" used to fall through to the open value 3/2
        with pytest.raises(ValueError, match="boundary must be open or periodic"):
            brute_force_min(2, 1, 2, boundary)


# --- split-cut sweep against the plain per-mask sweep ---------------------------
#
# The sweep the split-cut kernel replaced: every bitmask's mismatch count by
# xor/popcount over the distance classes, then per volume the least count and
# the smallest bitmask reaching it.


def reference_sweep(N, dists):
    c = np.arange(1 << N, dtype=np.uint32)
    e = np.zeros(1 << N, np.uint8)
    for d in dists:
        window = np.uint32((1 << (N - d)) - 1)
        e += np.bitwise_count((c ^ (c >> np.uint32(d))) & window).astype(np.uint8)
    volumes = np.bitwise_count(c)
    mins = np.full(N + 1, 255, np.uint8)
    np.minimum.at(mins, volumes, e)
    return mins.tolist(), [int(c[(volumes == k) & (e == mins[k])][0]) for k in range(N + 1)]


# --- the subset enumeration that served N > 28 before the transfer matrix --------
#
# Volume-k bitmasks in increasing order (Gosper's hack), each counted over the
# pair windows; the argmin set as well.  Kept as the reference, without the
# solver's cap on the argmin set, which went with the argmin lists.


def reference_subset_min(N: int, k: int, windows) -> tuple[int, list[int]]:
    """Enumerate volume-k bitmasks in increasing order, track the argmin set.

    ``windows`` are ``lattice.pair_windows``; the count is inlined, as a call
    per subset would cost about as much as the count itself.
    """
    if k == 0:
        return 0, [0]
    best = None
    optima: list[int] = []
    c = (1 << k) - 1
    limit = 1 << N
    while c < limit:
        e = 0
        for d, w in windows:
            e += ((c ^ (c >> d)) & w).bit_count()
        if best is None or e < best:
            best, optima = e, [c]
        elif e == best:
            optima.append(c)
        u = c & (-c)
        v = c + u
        c = v | (((v ^ c) // u) >> 2)
    return best, optima


class TestPastTheSweep:
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n", [5, 6])
    def test_equals_subset_enumeration(self, n, boundary):
        periodic = boundary == "periodic"
        energy = energy_periodic if periodic else energy_open
        for N in range(29, 41):
            L = F(N, n * n)
            for k in (1, 2, 3, N - 3, N - 2, N - 1):
                want, optima = reference_subset_min(N, k, pair_windows(n, N, periodic))
                res = brute_force_min(n, L, k, boundary)
                assert res.value == F(want, n), (N, k)
                assert (res.method, res.exact) == ("TransferMatrix", True)
                assert energy(res.config) == res.value and volume(res.config) == k
                assert res.config.bitmask() in optima


class TestSplitSweep:
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_cut_equals_plain_sweep(self, n, periodic):
        # every N <= 20: rings with N <= 2n, where distance classes coincide,
        # and lattices with a partial last column (N not a multiple of n);
        # every cut _sweep_table may pick, m >= N / 2
        for N in range(2 if periodic else 1, 21):
            dists = pair_distances(n, N, periodic)
            want = reference_sweep(N, dists)
            for m in range((N + 1) // 2, N + 1):
                mins, first = _split_sweep(N, dists, m)
                assert (mins.tolist(), first.tolist()) == want, (N, m)


class TestBlockRearrange:
    def test_moves_ones_down(self):
        assert block_rearrange(SpinConfig(2, 1, (0, 1, 1, 0))).values == (1, 0, 1, 0)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            cfg = SpinConfig(3, 1, tuple(rng.randint(0, 1) for _ in range(9)))
            once = block_rearrange(cfg)
            assert block_rearrange(once) == once

    def test_preserves_column_counts(self):
        rng = random.Random(4)
        for n in (2, 3, 4, 5):
            for _ in range(50):
                cfg = SpinConfig(n, F(5, 4),
                                 tuple(rng.randint(0, 1) for _ in range(site_count(n, F(5, 4)))))
                out = block_rearrange(cfg)
                assert out.column_counts() == cfg.column_counts()
                assert volume(out) == volume(cfg)

    def test_known_energy_drop(self):
        cfg = SpinConfig(2, 1, (0, 1, 1, 0))
        assert energy_open(cfg) == 2
        assert energy_open(block_rearrange(cfg)) == F(3, 2)

    def test_wrap_pair_can_flip_against_it(self):
        # the rearrangement is NOT monotone site-by-site: pushing the lone one
        # of column 1 to the bottom breaks the matched wrap pair {2,3}
        cfg = SpinConfig(2, 1, (0, 1, 1, 1))
        assert energy_open(cfg) == 1
        assert energy_open(block_rearrange(cfg)) == F(3, 2)


def tamper_first_state(monkeypatch, count, delta):
    """Patch ``_column_dp`` to add delta to the kept first-column state of
    ``count`` in the run that may start with it: the open run, or the run
    pinned to it.  The kept array may be a read-only view of a table of
    first full columns, so a tampered copy replaces it."""
    column_dp = solve._column_dp

    def tampered(n, heights, k, pins=None, seam=None):
        totals, states = column_dp(n, heights, k, pins, seam)
        lo, first = states[0]
        first = first.copy()
        if pins is None or count in pins:
            first[count, count - lo, 0 if pins is None else pins.index(count)] += delta
        states[0] = lo, first
        return totals, states

    monkeypatch.setattr(solve, "_column_dp", tampered)


class TestColumnDP:
    def test_spec_instance(self):
        res = column_dp_min(2, 1, 2)
        assert res.value == F(3, 2)
        assert res.profile.counts in ((2, 0), (1, 1), (0, 2))
        assert energy_open(res.config) == res.value

    def test_trivial(self):
        assert column_dp_min(3, 1, 0).value == 0

    def test_sigma_half_oracle(self):
        want, _ = exhaustive_min(4, 1, 8)
        assert column_dp_min(4, 1, 8).value == want

    @pytest.mark.parametrize("n,L", [
        (2, 1), (2, F(3, 2)), (3, 1), (3, F(3, 2)), (4, 1),
        (3, F(5, 4)), (5, F(4, 5)), (4, F(7, 8)),
    ])
    def test_matches_brute_force_everywhere(self, n, L):
        N = site_count(n, L)
        for k in range(N + 1):
            assert column_dp_min(n, L, k).value == brute_force_min(n, L, k).value

    def test_single_row_counts_each_pair_once(self):
        # at n = 1 the wrap pair and the horizontal pair are the same pair
        for L in range(1, 9):
            for k in range(L + 1):
                assert column_dp_min(1, L, k).value == brute_force_min(1, L, k).value

    @pytest.mark.parametrize("boundary,solver", [("open", column_dp_min),
                                                 ("periodic", _cyclic_dp)])
    def test_single_row_is_exact(self, boundary, solver):
        # at n = 1 every column holds one site, so every configuration is a
        # prefix profile and both DPs search them all: exact at every volume
        for N in range(2, 27):
            for k in range(N + 1):
                res = solver(1, N, k)
                want = brute_force_min(1, N, k, boundary).value
                assert (res.value, res.exact) == (want, True), (N, k)

    def test_exact_only_at_the_ends_past_one_row(self):
        # n > 1: prefix profiles miss some configurations, so both DPs are
        # labelled exact only at k in {0, N}, where one configuration exists
        for solver in (column_dp_min, _cyclic_dp):
            labels = [solver(2, F(5, 2), k).exact for k in range(11)]
            assert labels == [True] + [False] * 9 + [True], solver.__name__

    def test_counts_above_255_backtrack(self):
        # counts past 255: the retrace recomputes each count from the kept
        # states, so no count type of its own bounds it
        res = column_dp_min(300, F(1, 100), 800)
        assert res.profile.counts == (267, 267, 266)
        assert res.value == F(6, 300)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_tampered_state_raises(self, delta, monkeypatch):
        # the first column's state on the optimal path off by one: no count
        # retraces the value pass (the -O run is in SELF_CHECKS)
        n, L, k = 9, F(5, 4), 50
        tamper_first_state(monkeypatch, column_dp_min(n, L, k).profile.counts[0], delta)
        with pytest.raises(AssertionError, match="^column DP backtrack must retrace"):
            column_dp_min(n, L, k)

    def test_size_guard_at_the_budget(self, monkeypatch):
        # one run of (9, 5/4, 50), N = 101, keeps 12 columns x 10 counts x
        # (min(k, N - k) + n + 2) volumes by the guard's count: it runs at
        # that budget, open and on the ring, and is refused one state below,
        # before anything is built
        states = 12 * 10 * (50 + 9 + 2)
        monkeypatch.setattr(solve, "DP_BUDGET", states)
        column_dp_min(9, F(5, 4), 50)
        _cyclic_dp(9, F(5, 4), 50)
        monkeypatch.setattr(solve, "DP_BUDGET", states - 1)
        monkeypatch.setattr(solve, "column_heights", None)  # a call would raise TypeError
        message = f"^instance too large for the column DP: one run keeps about {states} states"
        for solver in (column_dp_min, _cyclic_dp):
            with pytest.raises(SolverGuardError, match=message):
                solver(9, F(5, 4), 50)

    def test_profile_reevaluates(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 6)
            L = F(rng.randint(1, 3), rng.randint(1, 2))
            N = site_count(n, L)
            k = rng.randint(0, N)
            res = column_dp_min(n, L, k)
            cfg = profile_to_config(res.profile, L)
            assert energy_open(cfg) == res.value
            assert volume(cfg) == k

    def test_rejects_bad_volume(self):
        with pytest.raises(ValueError):
            column_dp_min(2, 1, 5)

    def test_larger_fineness_value(self):
        # half-full domain: five full columns, one seam: (n + 1)/n^2 scaled
        res = column_dp_min(10, 1, 50)
        assert res.value == F(11, 10)

    @pytest.mark.parametrize("n,L,k,value", [
        (20, 1, 200, F(21, 20)), (40, 1, 800, F(41, 40)), (60, 1, 1800, F(61, 60)),
        (80, 1, 3200, F(81, 80)), (40, 3, 2400, F(41, 40)),
    ])
    def test_bench_anchor_values(self, n, L, k, value):
        # the benchmark's column-DP anchors, at the values the int64 kernel gave
        res = column_dp_min(n, L, k)
        cfg = profile_to_config(res.profile, L)
        assert res.value == value
        assert energy_open(cfg) == value and volume(cfg) == k

    @pytest.mark.parametrize("n,L,message", [
        (0, 1, "n must be >= 1"), (-2, 1, "n must be >= 1"),
        (3, 0, "L must be positive"), (3, F(-1, 2), "L must be positive"),
    ])
    def test_rejects_bad_shape(self, n, L, message):
        for solver in (column_dp_min, brute_force_min, periodic_min):
            with pytest.raises(ValueError, match=message):
                solver(n, L, 0)

    def test_empty_chain_agrees_with_brute_force(self):
        # L n^2 < 1: no site at all
        res, want = column_dp_min(3, F(1, 100), 0), brute_force_min(3, F(1, 100), 0)
        assert (res.value, res.config) == (want.value, want.config) == (0, SpinConfig(3, F(1, 100), ()))
        assert res.profile.counts == ()
        with pytest.raises(ValueError, match=r"volume 1 outside \[0, 0\]"):
            column_dp_min(3, F(1, 100), 1)


# --- dense reference for the column DP ----------------------------------------
#
# A dense column DP: the full (n+1) x (n+1) transition matrix and a
# minimum per next count, O(n^2) per state.  It runs over every
# volume up to N at once (ndp[:, v] depends on volumes <= v only), so one run
# per first-column count serves every k.  The cyclic seam is evaluated pair
# by pair, not split into the two vectors the solver uses.

DENSE_INF = 1 << 30


def _transition_cost(n, h_prev, h):
    a1 = np.arange(n + 1)[:, None]
    a2 = np.arange(n + 1)[None, :]
    horizontal = np.abs(np.minimum(a1, h) - a2)
    # at n = 1 the wrap pair is the horizontal pair
    wrap = ((a1 == h_prev) != (a2 >= 1)).astype(np.int64) * (n > 1)
    internal = ((a2 > 0) & (a2 < h)).astype(np.int64)
    cost = horizontal + wrap + internal
    cost[np.arange(n + 1) > h_prev, :] = DENSE_INF
    cost[:, np.arange(n + 1) > h] = DENSE_INF
    return cost


def _seam_cost(n, L, a1):
    """cost[ap, al] the cyclic closure adds between the last two columns,
    pair by pair: the pairs (i, i + d) of each class d of the ring's
    ``pair_distances`` other than 1 and n, which lists coinciding classes
    once, for a first column of a1 ones, a second to last column of ap and
    a last column of al (two columns: the first is the second to last).  A
    one-column ring's first column is its last, so there the cost is the
    one number for a1."""
    heights = column_heights(n, L)
    N = sum(heights)
    classes = set(pair_distances(n, N, True)) - {1, n}
    starts = np.cumsum((0,) + heights)
    site = np.zeros(N, bool)  # no class reaches a middle column
    site[: heights[0]] = np.arange(heights[0]) < a1

    def pairs():
        return sum(np.count_nonzero(site[: N - d] != site[d:]) for d in classes)

    if len(heights) == 1:
        return pairs()
    cost = np.zeros((n + 1, n + 1), np.int64)
    for ap in range(n + 1):
        for al in range(n + 1):
            site[starts[-3] : starts[-2]] = np.arange(heights[-2]) < ap
            site[starts[-2] :] = np.arange(heights[-1]) < al
            cost[ap, al] = pairs()
    return cost


def dense_dp(n, L, first_counts, cyclic_a1=None):
    """Tables dp[a, v] of the last column and parents[ci, a, v], v = 0..N.
    With ``cyclic_a1`` the seam enters the last step, or on a one-column
    ring the first column itself."""
    heights = column_heights(n, L)
    N = sum(heights)
    dp = np.full((n + 1, N + 1), DENSE_INF, np.int64)
    for a in first_counts:
        dp[a, a] = 1 if 0 < a < heights[0] else 0
    if cyclic_a1 is not None and len(heights) == 1:
        dp[cyclic_a1, cyclic_a1] += _seam_cost(n, L, cyclic_a1)
    parents = np.zeros((len(heights), n + 1, N + 1), np.int64)
    for ci in range(1, len(heights)):
        cost = _transition_cost(n, heights[ci - 1], heights[ci])
        if cyclic_a1 is not None and ci == len(heights) - 1:
            cost = cost + _seam_cost(n, L, cyclic_a1)
        ndp = np.full_like(dp, DENSE_INF)
        for a2 in range(heights[ci] + 1):
            cand = dp + cost[:, a2][:, None]
            ndp[a2, a2:] = cand.min(axis=0)[: N + 1 - a2]
            parents[ci, a2, a2:] = cand.argmin(axis=0)[: N + 1 - a2]
        dp = ndp
    return dp, parents


def dense_backtrack(dp, parents, k):
    """(total, counts) of the smallest-count optimum at volume k, or None."""
    total = int(dp[:, k].min())
    if total >= DENSE_INF:
        return None
    a = int(dp[:, k].argmin())
    counts = [0] * len(parents)
    v = k
    for ci in range(len(parents) - 1, 0, -1):
        counts[ci] = a
        a = int(parents[ci, a, v])
        v -= counts[ci]
    counts[0] = a
    return total, tuple(counts)


@lru_cache(maxsize=None)
def dense_pinned(n, L, a1, cyclic):
    """The last column's table dp[a, v] with the first column's count pinned to a1."""
    return dense_dp(n, L, (a1,), cyclic_a1=a1 if cyclic else None)[0]


@lru_cache(maxsize=None)
def dense_open(n, L):
    """k -> (total, counts) for every volume k."""
    heights = column_heights(n, L)
    dp, parents = dense_dp(n, L, range(heights[0] + 1))
    return tuple(dense_backtrack(dp, parents, k) for k in range(sum(heights) + 1))


@lru_cache(maxsize=None)
def dense_cyclic(n, L):
    """k -> (total, counts): the first pinned first-column count that is best."""
    heights = column_heights(n, L)
    runs = [dense_dp(n, L, (a1,), cyclic_a1=a1) for a1 in range(heights[0] + 1)]
    table = []
    for k in range(sum(heights) + 1):
        best = None
        for dp, parents in runs:
            found = dense_backtrack(dp, parents, k)
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        table.append(best)
    return tuple(table)


DENSE_SHAPES = [(n, L) for n in range(2, 11)
                for L in (F(1), F(5, 4), F(7, 5), F(3, 2), F(3))]
# rings whose distance classes coincide: n = 1, where N - 1 is N - n, and
# N <= 2n, two columns, full or partial ((2, 1) is one of DENSE_SHAPES)
COINCIDING_SHAPES = ([(1, F(N)) for N in range(2, 11)]
                     + [(3, F(2, 3)), (4, F(3, 8)), (4, F(1, 2)), (5, F(7, 25)), (5, F(2, 5)),
                        (6, F(1, 4)), (6, F(1, 3))])
# a partial last column of 14 under two full ones of 28: at the middle
# volumes the ring's last step, all 29 pins at once, is wide enough for the
# running minima (``_distance_transform``), and its best profiles take the
# backward fold of the rows 14..27 that the partial column cuts to 14
WIDE_STEP_SHAPES = [(28, F(5, 56))]
# one-column rings, N <= n, full and partial: the seam closes the first column
ONE_COLUMN_SHAPES = [(n, F(N, n * n)) for n in (2, 3, 6) for N in range(2, n + 1)]
# every ring above; those with distinct classes first, so their ids stay put
CYCLIC_SHAPES = ([(n, L) for n, L in DENSE_SHAPES if site_count(n, L) > 2 * n]
                 + [(2, F(1))] + COINCIDING_SHAPES + WIDE_STEP_SHAPES + ONE_COLUMN_SHAPES)


class TestColumnStepAgainstDense:
    @pytest.mark.parametrize("n,L", DENSE_SHAPES + WIDE_STEP_SHAPES)
    def test_open_values_and_profiles(self, n, L):
        for k, (total, counts) in enumerate(dense_open(n, L)):
            res = column_dp_min(n, L, k)
            assert (res.value, res.profile.counts) == (F(total, n), counts), k

    @pytest.mark.parametrize("n,L", CYCLIC_SHAPES)
    def test_cyclic_values_and_profiles(self, n, L):
        for k, (total, counts) in enumerate(dense_cyclic(n, L)):
            res = _cyclic_dp(n, L, k)
            assert (res.value, res.profile.counts) == (F(total, n), counts), k

    @pytest.mark.parametrize("n,L,k,value", [
        (6, F(5, 4), 39, F(7, 6)),
        (7, F(3, 2), 65, F(8, 7)), (7, F(3, 2), 66, F(8, 7)), (7, F(3, 2), 67, F(1)),
        (7, F(5, 4), 53, F(8, 7)), (7, F(5, 4), 54, F(8, 7)), (7, F(5, 4), 55, F(1)),
    ])
    def test_prefix_counterexamples_unchanged(self, n, L, k, value):
        # prefix profiles miss the open minimum here (a witness with a
        # hole in the last full column does better); the value stays put
        total, counts = dense_open(n, L)[k]
        res = column_dp_min(n, L, k)
        assert res.value == F(total, n) == value
        assert res.profile.counts == counts

    @pytest.mark.parametrize("n,L", DENSE_SHAPES + COINCIDING_SHAPES + WIDE_STEP_SHAPES)
    def test_value_pass_totals(self, n, L):
        # one batched pass, one run per first-column count that reaches k,
        # open and with the cyclic seam: each run's total is the dense
        # reference's least count at k with that count pinned, capped at
        # the fill bound plus one, and the least total is exact
        heights = column_heights(n, L)
        N = sum(heights)
        for cyclic in (False, True):
            for k in range(0, N + 1, max(1, N // 40)):
                pins = range(max(0, k - (N - heights[0])), min(heights[0], k) + 1)
                seam = None
                if cyclic:
                    seam = tuple(map(np.array, zip(*(reference_seam(n, L, a) for a in pins))))
                cap = solve._fill_bound(n, heights, k, pins, seam) + 1
                totals = solve._column_dp(n, heights, k, pins, seam)[0]
                want = [dense_pinned(n, L, a, cyclic)[:, k].min() for a in pins]
                assert totals.tolist() == [min(w, cap) for w in want], k
                assert min(want) < cap


def pass_arrays(monkeypatch):
    """Spy on ``_column_dp`` and ``_column_step``: returns the lists that
    each pass's kept states and each step's input and output go into."""
    column_dp, column_step = solve._column_dp, solve._column_step
    kept, stepped = [], []

    def dp_spy(*args):
        totals, states = column_dp(*args)
        kept.append([s for _, s in states])
        return totals, states

    def step_spy(cur, *args):
        out = column_step(cur, *args)
        stepped.append((cur, out))
        return out

    monkeypatch.setattr(solve, "_column_dp", dp_spy)
    monkeypatch.setattr(solve, "_column_step", step_spy)
    return kept, stepped


def prefix_tables(n, dtype):
    """Both tables of first full columns for n rows in ``dtype``, the open
    one and the pinned one, each built to every entry its budget allows."""
    dtype = np.dtype(dtype)
    return [solve._prefix(n, dtype, pinned, solve._prefix_table(n, dtype, pinned)[0])
            for pinned in (False, True)]


def prefix_arrays(n, dtype):
    """The ids of the entries of both tables for n rows in ``dtype``."""
    return {id(prefix) for table in prefix_tables(n, dtype) for prefix in table}


def own_arrays(kept, stepped, dtype):
    """Whether every kept state is in ``dtype`` and, but for each pass's
    final states, an array that a step read, a view of a buffer that a step
    wrote or a view of a table of first full columns (open or pinned): no
    state is copied for keeping."""
    read = {id(cur) for cur, _ in stepped}
    written = {id(out.base) for _, out in stepped}

    def own(states):
        ours = written | prefix_arrays(len(states[0]) - 1, dtype)
        return (all(s.dtype == dtype for s in states)
                and all(id(s) in read or id(s.base) in ours for s in states[:-1]))

    return kept and all(map(own, kept))


def forced_type(monkeypatch, dtype):
    """Patch ``_state_type`` to give ``dtype`` for every range; the rule must
    have been asked, and every state ``_column_dp`` keeps across the test
    must be its own array in that type (``own_arrays``)."""
    state_type = solve._state_type
    picked = []

    def forced(top):
        picked.append(state_type(top))
        return dtype

    monkeypatch.setattr(solve, "_state_type", forced)
    kept, stepped = pass_arrays(monkeypatch)
    yield
    assert picked and (not kept or own_arrays(kept, stepped, dtype))


class TestColumnStepInt64(TestColumnStepAgainstDense):
    """The dense-reference grid again with int64 states forced: the pass and
    its retrace take whatever integer type ``_state_type`` gives."""

    @pytest.fixture(autouse=True)
    def int64_states(self, monkeypatch):
        yield from forced_type(monkeypatch, np.int64)


class TestColumnStepInt32(TestColumnStepAgainstDense):
    """The dense-reference grid again with int32 states, the type past n of
    about 5000; the retrace reads the int32 states."""

    @pytest.fixture(autouse=True)
    def int32_states(self, monkeypatch):
        yield from forced_type(monkeypatch, np.int32)


class TestColumnStepFormula:
    @given(st.data())
    def test_matches_the_documented_formula(self, data):
        # both kernels of _column_step against its docstring, evaluated
        # directly in O(n^2 C): out[a2, c, p] = min over a1 <= h_prev of
        # cur[a1, c - a2, p] + cost(a1, a2), cap where c - a2 is outside the
        # window; states lie in [0, cap].  Rows a2 > h (a partial column)
        # are compared at c < a2 only, where they hold cap
        n = data.draw(st.integers(1, 6), label="n")
        h_prev = data.draw(st.integers(1, n), label="h_prev")
        h = data.draw(st.integers(1, h_prev), label="h")  # h < h_prev: a partial column
        C = data.draw(st.integers(1, 6), label="C")
        P = data.draw(st.integers(1, 5), label="P")
        wrap = data.draw(st.booleans(), label="wrap")
        dtype = data.draw(st.sampled_from([np.int8, np.int16]), label="dtype")
        cap = data.draw(st.integers(1, np.iinfo(dtype).max - n - 1), label="cap")
        R = n + 1
        cells = st.one_of(st.integers(0, cap), st.just(cap))  # some states unreachable
        cur = np.array(data.draw(st.lists(cells, min_size=R * C * P, max_size=R * C * P)),
                       dtype).reshape(R, C, P)
        cur[h_prev + 1 :] = cap  # rows above h_prev are unreachable

        def cost(a1, a2):
            return (abs(min(a1, h) - a2) + (wrap and (a1 == h_prev) != (a2 >= 1))
                    + (0 < a2 < h))

        want = np.full((R, C + R - 1, P), cap, np.int64)
        for a2 in range(h + 1):
            for c in range(a2, a2 + C):
                for p in range(P):
                    want[a2, c, p] = min(int(cur[a1, c - a2, p]) + cost(a1, a2)
                                         for a1 in range(h_prev + 1))
        a2 = np.arange(R)[:, None]
        seen = (a2 <= h) | (np.arange(C + R - 1) < a2)
        terms = solve._step_terms(h_prev, h, wrap, np.dtype(dtype))
        for small_step in (0, 1 << 62):  # the running minima, then one broadcast minimum
            with patch.object(solve, "_SMALL_STEP", small_step):
                out = solve._column_step(cur, h_prev, terms, cap)
            assert out.dtype == dtype and out.shape == want.shape
            assert np.array_equal(out[seen], want[seen]), small_step


def reference_column_dp(n, heights, k, pins=None, seam=None):
    """``_column_dp`` as a plain loop that runs ``_column_step`` for every
    column from a first column set count by count: the same windows, cap,
    state type and kept states, no table, no fast-forward."""
    N = sum(heights)
    ends = np.cumsum(heights)

    def window(ci):
        return max(0, k - (N - int(ends[ci]))), min(k, int(ends[ci]))

    lo, hi = window(0)
    firsts = range(lo, hi + 1) if pins is None else pins
    cap = solve._fill_bound(n, heights, k, firsts, seam) + 1
    dtype = solve._state_type(cap + n + 1)
    cur = np.full((n + 1, hi - lo + 1, 1 if pins is None else len(pins)), cap, dtype)
    for p, a in enumerate(firsts):
        cur[a, a - lo, 0 if pins is None else p] = 0 < a < heights[0]
    states = []
    for ci in range(1, len(heights)):
        if seam is not None and ci == len(heights) - 1:
            cur = np.minimum(cur + seam[0].T[:, None].astype(dtype), cap)
        states.append((lo, cur))
        h_prev = heights[ci - 1]
        terms = solve._step_terms(h_prev, heights[ci], n > 1, np.dtype(dtype))
        out = solve._column_step(cur, h_prev, terms, cap)
        lo_next, hi = window(ci)
        cur, lo = np.minimum(out[:, lo_next - lo : hi - lo + 1], cap), lo_next
    if seam is not None:
        cur = np.minimum(cur + seam[1].T[:, None].astype(dtype), cap)
    return cur[:, k - lo].min(axis=0), states + [(lo, cur)]


def kept_cap(n, heights, k, pins=None, seam=None):
    """The cap of a ``_column_dp`` pass: one above its fill bound."""
    N = sum(heights)
    firsts = range(max(0, k - (N - heights[0])), min(k, heights[0]) + 1) if pins is None else pins
    return solve._fill_bound(n, heights, k, firsts, seam) + 1


def assert_same_states(states, want_states, cap):
    """A pass's kept states against the plain loop's: the same window
    starts, dtype and values below the cap, and at least the cap wherever
    the loop holds it (views of a table of first full columns are clamped
    higher)."""
    assert len(states) == len(want_states)
    for (lo, got), (want_lo, want) in zip(states, want_states):
        assert lo == want_lo and got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(np.minimum(got, cap), want)
        assert (got[want == cap] >= cap).all()


def column_step_calls(monkeypatch):
    """Spy on ``_column_step``, whichever kernel it takes; returns the list
    its calls' h_prev go into."""
    calls = []
    column_step = solve._column_step

    def spy(cur, h_prev, terms, cap):
        calls.append(h_prev)
        return column_step(cur, h_prev, terms, cap)

    monkeypatch.setattr(solve, "_column_step", spy)
    return calls


def draw_column_dp_instance(data, least_n, most_n=12):
    """``(n, heights, k, pins, seam)`` for ``_column_dp``: the open run of
    every first count (``pins`` None), or a chunk of consecutive pinned
    runs with the cyclic seam on every ring of two sites or more, partial
    last columns included."""
    n = data.draw(st.integers(least_n, most_n), label="n")
    L = data.draw(st.sampled_from([F(1), F(5, 4), F(3, 2), F(3)]), label="L")
    heights = column_heights(n, L)
    N = sum(heights)
    k = data.draw(st.integers(0, N), label="k")
    lo, hi = max(0, k - (N - heights[0])), min(heights[0], k)
    if N >= 2 and data.draw(st.booleans(), label="seam"):
        a0 = data.draw(st.integers(lo, hi), label="a0")
        pins = range(a0, data.draw(st.integers(a0, hi), label="a1") + 1)
        seam = tuple(map(np.array, zip(*(reference_seam(n, L, a) for a in pins))))
        return n, heights, k, pins, seam
    return n, heights, k, None, None


class TestFixedPoint:
    @given(st.data())
    def test_matches_every_step(self, data):
        # the fast-forward against the plain loop: totals and every kept
        # state (window start, dtype, values up to the cap), open runs and
        # pinned runs with the cyclic seam, partial last columns included
        n, heights, k, pins, seam = draw_column_dp_instance(data, 2)
        totals, states = solve._column_dp(n, heights, k, pins, seam)
        want_totals, want_states = reference_column_dp(n, heights, k, pins, seam)
        assert np.array_equal(totals, want_totals)
        assert len(states) == len(heights)
        assert_same_states(states, want_states, kept_cap(n, heights, k, pins, seam))

    @pytest.mark.parametrize("solver,args,steps,most", [
        (column_dp_min, (30, F(3, 2), 600), 44, 30),
        (_cyclic_dp, (10, F(3), 100), 29, 16),
    ])
    def test_later_full_columns_are_views(self, solver, args, steps, most, monkeypatch):
        # past the fixed point no full column runs a step: the open chain
        # (45 columns) and the ring (30 columns, two seam steps) run at most
        # `most` of their `steps` column steps, with the plain loop's result
        calls = column_step_calls(monkeypatch)
        res = solver(*args)
        assert len(calls) <= most
        monkeypatch.setattr(solve, "_column_dp", reference_column_dp)
        calls.clear()
        want = solver(*args)
        assert len(calls) == steps
        assert (res.value, res.profile) == (want.value, want.profile)


def reference_prefix(n, g, pinned=False):
    """The states after each of g full columns of height n, at every volume,
    ``[count, volume, run]``: one run from every first count, or ``pinned``
    one run per first count a = 0..n.  One dense min-plus product per column
    and run, int64 and unclamped (DENSE_INF or more where no profile is)."""
    a = np.arange(n + 1)
    cost = _transition_cost(n, n, n)
    firsts = [[b] for b in a] if pinned else [a]
    prefix = np.full((n + 1, n + 1, len(firsts)), DENSE_INF, np.int64)
    for p, first in enumerate(firsts):
        prefix[first, first, p] = [0 < b < n for b in first]
    table = [prefix]
    for c in range(1, g):
        nxt = np.full((n + 1, (c + 1) * n + 1, len(firsts)), DENSE_INF, np.int64)
        for a2 in a:
            nxt[a2, a2 : a2 + c * n + 1] = (table[-1] + cost[:, a2, None, None]).min(axis=0)
        table.append(nxt)
    return table[:g]


def prefix_budget(n, g):
    """The states a run holds in the first g entries of a table of n: the
    ``_PREFIX_STATES`` for which the table holds g entries, unless its runs
    would hold more than ``_PIN_BATCH`` states in all (``prefix_depth``)."""
    return sum((n + 1) * (c * n + 1) for c in range(1, g + 1))


def prefix_depth(n, g, pinned):
    """The entries the open (or the pinned) table of n holds under
    ``prefix_budget(n, g)``: g, or fewer where more would put its runs past
    ``_PIN_BATCH`` states in all."""
    runs = n + 1 if pinned else 1
    return max(c for c in range(g + 1) if runs * prefix_budget(n, c) <= solve._PIN_BATCH)


def table_calls(n, heights, k, pins, seam, g, warm):
    """``_column_dp``'s totals and states with the budget per run at g
    entries of the table it reads and that table warmed to ``warm`` entries
    first, and the number of entries built after it (caches cleared on both
    sides)."""
    pinned = pins is not None
    dtype = np.dtype(solve._state_type(kept_cap(n, heights, k, pins, seam) + n + 1))
    try:
        with patch.object(solve, "_PREFIX_STATES", prefix_budget(n, g)):
            solve._prefix_table.cache_clear()
            solve._prefix(n, dtype, pinned, warm)
            totals, states = _column_dp(n, heights, k, pins, seam)
            return totals, states, len(solve._prefix_table(n, dtype, pinned)[1])
    finally:
        solve._prefix_table.cache_clear()


# the values of L of the periodic_mix rings
RING_LS = [F(5, 4), F(7, 5), F(3, 2)]


class TestOpenPrefix:
    """The tables of first full columns: the open DP's, one run from every
    first count, and the ring's, one run pinned to each first count."""

    @pytest.mark.parametrize("n,dtype", [(1, np.int8), (2, np.int8), (10, np.int8),
                                         (32, np.int8), (35, np.int16), (80, np.int16),
                                         (127, np.int16), (128, np.int16), (255, np.int16),
                                         (256, np.int16)])
    def test_read_only_within_budget(self, n, dtype):
        # one cached table per (n, type, run set); g is the most entries
        # whose states fit _PREFIX_STATES per run and _PIN_BATCH over all
        # its runs, none past n = 255 open and n = 127 pinned; each entry is
        # a compact array of its own, not a view of a step buffer, and
        # read-only, and a later request gets the same arrays
        for pinned, table in zip((False, True), prefix_tables(n, dtype)):
            runs = n + 1 if pinned else 1
            assert [id(e) for e in prefix_tables(n, dtype)[pinned]] == [id(e) for e in table]
            held = sum(prefix.size for prefix in table) // runs  # states a run holds
            budget = min(solve._PREFIX_STATES, solve._PIN_BATCH // runs)
            assert held <= budget < held + (n + 1) * ((len(table) + 1) * n + 1)
            assert (len(table) == 0) == (n >= (128 if pinned else 256))
            for c, prefix in enumerate(table):
                assert prefix.shape == (n + 1, (c + 1) * n + 1, runs) and prefix.dtype == dtype
                assert prefix.base is None and prefix.flags.c_contiguous
                with pytest.raises(ValueError, match="read-only"):
                    prefix[0, 0, 0] = 0
        # the ring's table is as deep as the open one up to n = 32
        open_table, pinned_table = prefix_tables(n, dtype)
        assert len(pinned_table) <= len(open_table)
        assert len(pinned_table) == len(open_table) or n > 32

    @given(st.integers(1, 40), st.sampled_from([np.int8, np.int16]), st.booleans())
    def test_values(self, n, dtype, pinned):
        # a fresh build of either table: entry c is the dense DP's states
        # after c + 1 full columns clamped at cap_d = max(type) - n - 1, and
        # every value the build computes lies in [-n, cap_d + n + 1], so in
        # the type
        cap = int(np.iinfo(dtype).max) - n - 1
        spy = ValueSpy()
        with patch.object(solve, "_prefix_table", lru_cache(solve._prefix_table.__wrapped__)):
            with patch.object(solve, "np", spy):
                table = solve._prefix(n, np.dtype(dtype), pinned, 1 << 10)
        assert spy.dtypes == {np.dtype(dtype)}
        assert -n <= spy.low and spy.high <= cap + n + 1
        for got, want in zip(table, reference_prefix(n, len(table), pinned), strict=True):
            assert np.array_equal(got, np.minimum(want, cap))

    def test_warm_table_skips_its_columns(self, monkeypatch):
        # a cold request builds the entries it views only: the bench's
        # warm-up (7, 1, 20) builds 7 of the 47 the budget allows at n = 7
        # in 6 steps and steps none of its own; (7, 3, 70) extends them to
        # its 21 columns from the last one, in 14 steps.  (30, 3/2, 600)
        # builds all 11 entries the budget allows at n = 30, of its 45
        # columns, in 10 steps and steps 15 of its own, a warm one 15; each
        # with the value and profile of stepping every column
        requests = [((7, 1, 20), 6, 7), ((7, 3, 70), 14, 21),
                    ((30, F(3, 2), 600), 25, 11), ((30, F(3, 2), 600), 15, 11)]
        solve._prefix_table.cache_clear()
        calls = column_step_calls(monkeypatch)
        got = []
        for args, steps, built in requests:
            got.append(column_dp_min(*args))
            assert len(calls) == steps, args
            assert len(solve._prefix_table(args[0], np.dtype(np.int8), False)[1]) == built
            calls.clear()
        monkeypatch.setattr(solve, "_column_dp", reference_column_dp)
        for (args, _, _), res in zip(requests, got):
            want = column_dp_min(*args)
            assert (res.value, res.profile) == (want.value, want.profile)

    @given(st.data())
    def test_matches_every_step(self, data):
        # open runs from every first count, n up to 40, full and partial last
        # columns, with a table budget of none, some, all or more than all of
        # the full columns, warmed to some or none of them: totals and
        # retraced profiles are the plain loop's, kept states equal its
        # states up to the cap, and the table holds the entries the request
        # viewed, at most g
        n = data.draw(st.integers(1, 40), label="n")
        L = data.draw(st.sampled_from([F(1), F(5, 4), F(3, 2), F(3)]), label="L")
        heights = column_heights(n, L)
        N = sum(heights)
        k = data.draw(st.integers(0, N), label="k")
        full = len(heights) - (heights[-1] < n)
        g = data.draw(st.sampled_from([0, full, full + 1]) | st.integers(0, full + 1), label="g")
        warm = data.draw(st.integers(0, full + 1), label="warm")
        totals, states, built = table_calls(n, heights, k, None, None, g, warm)
        assert built == min(max(full, warm), prefix_depth(n, g, False))
        want_totals, want_states = reference_column_dp(n, heights, k)
        assert np.array_equal(totals, want_totals)
        assert_same_states(states, want_states, kept_cap(n, heights, k))
        want = solve._backtrack(n, heights, k, 0, want_states)
        assert solve._backtrack(n, heights, k, 0, states) == want

    @pytest.mark.parametrize("L", RING_LS)
    def test_ring_tables_within_budget(self, L):
        # the periodic_mix rings, n = 6..16 at a quarter, half and three
        # quarters of their volume, at L and the values of RING_LS before it
        # (the last case runs them all), from empty tables: every pinned
        # table holds at most _PREFIX_STATES states per run, as deep as the
        # open one (21 columns at n = 16, of up to 23 the rings read), and
        # _PIN_BATCH over all its runs, and all of them at most 4 MiB
        # together (3.84 MiB of int8 states once every L has run)
        solve._prefix_table.cache_clear()
        for n in range(6, 17):
            for ring_L in RING_LS[: RING_LS.index(L) + 1]:
                N = site_count(n, ring_L)
                for k in (N // 4, N // 2, 3 * N // 4):
                    _cyclic_dp(n, ring_L, k)
        held = 0
        for n in range(6, 17):
            tables = [solve._prefix_table(n, np.dtype(t), True)[1] for t in (np.int8, np.int16)]
            assert tables[0], n  # the rings read the int8 table
            for table in tables:
                states = sum(prefix.size for prefix in table)
                assert states <= (n + 1) * solve._PREFIX_STATES and states <= solve._PIN_BATCH
                held += sum(prefix.nbytes for prefix in table)
        assert held <= 4 << 20

    @given(st.data())
    def test_pinned_matches_every_step(self, data):
        # a chunk of the ring's pins, consecutive first counts, with the
        # cyclic seam, n up to 39, full and partial last columns, with a
        # table budget of none, some, all or more than all of the full
        # columns before the seam, warmed to some or none of them: totals,
        # kept states up to the cap and every retraced profile are the plain
        # loop's
        n = data.draw(st.integers(2, 39), label="n")
        L = data.draw(st.sampled_from([F(1), F(5, 4), F(3, 2), F(3)]), label="L")
        heights = column_heights(n, L)
        N = sum(heights)
        k = data.draw(st.integers(0, N), label="k")
        lo, hi = max(0, k - (N - heights[0])), min(heights[0], k)
        a0 = data.draw(st.integers(lo, hi), label="a0")
        a1 = data.draw(st.integers(a0, hi), label="a1")
        pins = range(a0, a1 + 1)
        seam = tuple(map(np.array, zip(*(reference_seam(n, L, a) for a in pins))))
        viewed = len(heights) - 1
        g = data.draw(st.sampled_from([0, viewed, viewed + 1]) | st.integers(0, viewed + 1),
                      label="g")
        warm = data.draw(st.integers(0, viewed + 1), label="warm")
        totals, states, built = table_calls(n, heights, k, pins, seam, g, warm)
        assert built == min(max(viewed, warm), prefix_depth(n, g, True))
        want_totals, want_states = reference_column_dp(n, heights, k, pins, seam)
        assert np.array_equal(totals, want_totals)
        cap = kept_cap(n, heights, k, pins, seam)
        assert_same_states(states, want_states, cap)
        for p in np.flatnonzero(totals < cap):
            want = solve._backtrack(n, heights, k, p, want_states, seam)
            assert solve._backtrack(n, heights, k, p, states, seam) == want


def reference_backtrack(n, heights, k, p, states, seam=None):
    """``_backtrack`` scanning every count a1 = 0..h_prev of each column."""
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
        for a1, s in enumerate(kept[: h_prev + 1, v - lo, p].tolist()):
            wrap = n > 1 and (a1 == h_prev) != (a >= 1)
            if s + abs(min(a1, h) - a) + wrap + jump == value:
                break
        else:
            raise AssertionError("column DP backtrack must retrace its value pass")
        value = s - int(seam[0][p, a1]) if seam is not None and ci == len(heights) - 1 else s
        a = a1
    counts[0] = a
    return total, counts


class TestBacktrack:
    @given(st.data())
    def test_matches_the_full_scan(self, data):
        # the scan from a1 = max(0, a - value) against every a1: the same
        # total and counts for every run not above the fill bound (a run
        # above it holds capped states), open passes and pinned passes with
        # the cyclic seam, partial last columns too, n past the dense grid
        n, heights, k, pins, seam = draw_column_dp_instance(data, 1, 40)
        ub = kept_cap(n, heights, k, pins, seam) - 1
        totals, states = _column_dp(n, heights, k, pins, seam)
        for p in np.flatnonzero(totals <= ub):
            want = reference_backtrack(n, heights, k, p, states, seam)
            assert solve._backtrack(n, heights, k, p, states, seam) == want


class TestStepTermsCache:
    @pytest.mark.parametrize("args", [(5, 3, True, np.dtype(np.int16)),
                                      (6, 6, True, np.dtype(np.int32)),
                                      (1, 1, False, np.dtype(np.int64))])
    def test_second_call_returns_the_same_read_only_arrays(self, args):
        first = solve._step_terms(*args)
        assert solve._step_terms(*args) is first
        for term in first:
            assert not term.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                term[...] = 0
        fresh = solve._step_terms.__wrapped__(*args)
        for term, want in zip(first, fresh, strict=True):
            assert term.dtype == args[-1] and np.array_equal(term, want)


def picked_types(monkeypatch):
    """Spy on ``_state_type``; returns the list of the types it gives."""
    picked = []
    state_type = solve._state_type
    monkeypatch.setattr(solve, "_state_type",
                        lambda top: picked.append(state_type(top)) or picked[-1])
    return picked


def parent_type(n, N):
    """The state type every search over N sites with n rows took before the
    cap: int16 while min(5n + 8, 2N + 1) + 5n + 6 < 2^15, else int32."""
    return np.int16 if min(5 * n + 8, 2 * N + 1) + 5 * n + 6 < 1 << 15 else np.int32


class TestStateType:
    @pytest.mark.parametrize("n,k", [
        (1, 1), (2, 1), (7, 1), (80, 1), (300, 1), (1000, 1),
        (1, 2), (2, 4), (7, 8), (20, 32),
    ])
    def test_int16_up_to_the_bound(self, n, k, monkeypatch):
        # a column DP of volume k over 2100 sites runs the narrowest type
        # holding cap + n + 1, int16 or narrower up to n = 3275 as before
        # the cap, and gives what it gives on int64 states
        L = F(2100, n * n)
        picked = picked_types(monkeypatch)
        res = column_dp_min(n, L, k)
        heights = column_heights(n, L)
        N = sum(heights)
        cap = kept_cap(n, heights, k)
        assert picked == [np.int8 if cap + n + 1 < 1 << 7 else np.int16]
        assert np.dtype(picked[0]).itemsize <= np.dtype(parent_type(n, N)).itemsize
        monkeypatch.setattr(solve, "_state_type", lambda top: np.int64)
        wide = column_dp_min(n, L, k)
        assert (res.value, res.profile) == (wide.value, wide.profile)

    @pytest.mark.parametrize("n", [1, 2, 7, 80, 300, 1000])
    def test_two_tiers_one_rule(self, n):
        # one rule, the narrowest type holding [-top, top]; at the largest N
        # the column-DP guard admits at n (k = 0), the largest cap the proof
        # allows, 5n + 6 on the ring, takes no wider type than before the cap
        N = n * (solve.DP_BUDGET // ((n + 1) * (n + 2)))
        assert solve._run_states(n, N, 0) <= solve.DP_BUDGET
        for top, dtype in ((127, np.int8), (128, np.int16), ((1 << 15) - 1, np.int16),
                           (1 << 15, np.int32), ((1 << 31) - 1, np.int32)):
            assert solve._state_type(top) is dtype
        ring = solve._state_type(5 * n + 6 + n + 1)
        assert np.dtype(ring).itemsize <= np.dtype(parent_type(n, N)).itemsize
        largest = 16382  # one column of n sites at k = 0 keeps (n + 1)(n + 2) states
        assert solve._run_states(largest, largest, 0) <= solve.DP_BUDGET
        with pytest.raises(SolverGuardError):
            solve._run_states(largest + 1, largest + 1, 0)
        assert solve._state_type(6 * largest + 9) is np.int32

    def test_transfer_matrix_states_int16(self):
        # every n that _transfer_fits admits (open, k = 0, N = 2n + 1 is its
        # cheapest instance) searches int16 states or narrower at every N:
        # int8 up to n = 16, where inf + 2n + 3 <= 2^7
        admitted = [n for n in range(2, 40) if _transfer_fits(n, 2 * n + 1, 0, False)]
        assert admitted == list(range(2, 18))
        for n in admitted:
            for N in (2 * n + 1, TRANSFER_BUDGET):
                inf = min(5 * n + 8, 2 * N + 1)
                dtype = solve._state_type(inf + 2 * n + 2)
                assert dtype is (np.int8 if inf + 2 * n + 3 <= 1 << 7 else np.int16)
            assert (dtype is np.int8) == (n <= 16)

    @pytest.mark.parametrize("n", [80, 1000])
    def test_kept_states_int16_up_to_the_bound(self, n, monkeypatch):
        # N up to the bound where kept states once became int32, and one
        # past it: int8 passes at n = 80, int16 at n = 1000, and each kept
        # state is the pass's own array; three ones at the bottom of the
        # first column cost one jump and three horizontal pairs
        last = (1 << 14) - n - 5
        dtype = np.int8 if n == 80 else np.int16
        kept, stepped = pass_arrays(monkeypatch)
        picked = picked_types(monkeypatch)
        for N in (last, last + 1):
            res = column_dp_min(n, F(N, n * n), 3)
            assert res.value == F(4, n) and res.profile.counts[0] == 3
            assert picked == [dtype] and own_arrays(kept, stepped, dtype)
            for found in (kept, stepped, picked):
                found.clear()

    def test_open_anchor_keeps_int16_views(self, monkeypatch):
        # n = 80, N = 6400: cap 82, so int16 states, kept as the pass's own
        # arrays; value and profile as the encoded parents gave them
        kept, stepped = pass_arrays(monkeypatch)
        res = column_dp_min(80, 1, 3200)
        assert solve._fill_bound(80, (80,) * 80, 3200, range(81)) == 81
        assert solve._state_type(82 + 81) is np.int16
        assert own_arrays(kept, stepped, np.int16)
        assert res.value == F(81, 80)
        assert res.profile.counts == (80,) * 40 + (0,) * 40

    def test_run_past_the_bound(self, monkeypatch):
        # N = 131000 sites at n = 1000, far past any bound in N: int16
        # states; five ones at the bottom of the first column cost one jump
        # and five horizontal pairs
        picked = picked_types(monkeypatch)
        kept, stepped = pass_arrays(monkeypatch)
        res = column_dp_min(1000, F(131, 1000), 5)
        assert picked == [np.int16]
        assert own_arrays(kept, stepped, np.int16)
        assert res.value == F(6, 1000)


class ValueSpy:
    """``numpy`` for ``solve``, recording the dtype, least and largest value
    of every integer array that ``add``, ``subtract``, ``minimum`` or
    ``less`` reads or writes: every state and step value of a search."""

    def __init__(self, skip=()):
        self.dtypes, self.low, self.high = set(), 0, 0
        self.skip = skip  # ids of arrays whose views are not recorded

    def __getattr__(self, name):
        return getattr(np, name)

    def _recorded(ufunc):
        def call(self, *args, **kwargs):
            result = ufunc(*args, **kwargs)
            for a in (*args, result):
                if (isinstance(a, np.ndarray) and a.dtype.kind == "i" and a.size
                        and id(a.base) not in self.skip):
                    self.dtypes.add(a.dtype)
                    self.low, self.high = min(self.low, a.min()), max(self.high, a.max())
            return result
        return call

    add, subtract, minimum, less = map(_recorded, (np.add, np.subtract, np.minimum, np.less))


def transfer_reachable(n, N, j, start):
    """``reach[w, p]``: whether run p has a configuration of volume j whose
    last window is w.  For N > 2n the first and last windows are disjoint,
    so it does iff some first window of the run leaves a volume the N - 2n
    sites between can hold."""
    vols = np.bitwise_count(np.arange(1 << n)).astype(int)
    between = j - vols[:, None, None] - vols  # [last window, run's first window]
    return ((between >= 0) & (between <= N - 2 * n) & start[None]).any(axis=2)


class TestStateBound:
    """The proofs of ``_state_type``'s callers, observed: every value of a
    search inside its proved range, held by the rule's type; capped
    column-DP states equal to the uncapped ones up to the cap; reachable
    transfer-matrix states below inf, unreachable ones within its bound."""

    @given(st.data())
    def test_column_dp_values(self, data):
        # open runs and pinned runs with the seam, partial last columns too,
        # through either kernel: the capped pass stores min(uncapped, cap),
        # so equals the uncapped pass on every state <= ub and stores nothing
        # above cap, and computes nothing outside [-n, cap + n + 1]; views of
        # the warm open or pinned table hold min(uncapped, cap_d), and the
        # tables' own values are in TestOpenPrefix
        n, heights, k, pins, seam = draw_column_dp_instance(data, 1)
        small_step = data.draw(st.sampled_from([0, solve._SMALL_STEP]), label="small_step")
        cap = kept_cap(n, heights, k, pins, seam)
        ub = cap - 1
        dtype = solve._state_type(cap + n + 1)
        assert dtype is np.int8  # n <= 12: every drawn instance
        table = prefix_arrays(n, dtype)
        spy = ValueSpy(skip=table)
        with patch.object(solve, "_SMALL_STEP", small_step):
            with patch.object(solve, "np", spy):
                totals, states = solve._column_dp(n, heights, k, pins, seam)
            with patch.object(solve, "_state_type", lambda top: np.int64), \
                 patch.object(solve, "_fill_bound", lambda *args: (1 << 40) - 1):
                wide_totals, wide_states = solve._column_dp(n, heights, k, pins, seam)
        assert spy.dtypes <= {np.dtype(dtype)}  # a one-column chain runs no step
        assert -n <= spy.low and spy.high <= cap + n + 1
        assert totals.min() <= ub and np.array_equal(totals, np.minimum(wide_totals, cap))
        for (_, got), (_, wide) in zip(states, wide_states, strict=True):
            clamp = np.iinfo(dtype).max - n - 1 if id(got.base) in table else cap
            assert got.dtype == dtype and np.array_equal(got, np.minimum(wide, clamp))

    @given(st.integers(2, 8), st.data())
    def test_transfer_pass_values(self, n, data):
        # the open run and the ring's pinned runs: every step's states equal
        # an int64 run's over the volume window that step writes, reachable
        # final states at volume j are below inf and unreachable ones in
        # [inf, inf + 2n], the padding row (volume -1) stays inf, and every
        # value computed, the step's sums included, is in [0, inf + 2n + 2]
        N = data.draw(st.integers(2 * n + 1, 6 * n), label="N")
        j = data.draw(st.integers(0, N // 2), label="j")
        start = solve._transfer_runs(n, data.draw(st.booleans(), label="periodic"))[0]
        inf = min(5 * n + 8, 2 * N + 1)
        dtype = solve._state_type(inf + 2 * n + 2)
        spy = ValueSpy()
        with patch.object(solve, "np", spy):
            got = _transfer_pass(n, N, j, start)
        with patch.object(solve, "_state_type", lambda top: np.int64):
            wide = _transfer_pass(n, N, j, start)
        assert spy.dtypes == {np.dtype(dtype)}
        assert 0 <= spy.low and spy.high <= inf + 2 * n + 2
        assert len(got) == len(wide) == N - n + 1
        assert np.array_equal(got[0], wide[0])  # the first windows, every volume
        for i, (a, b) in enumerate(zip(got[1:], wide[1:]), n):
            lo, hi = max(0, j - (N - 1 - i)), min(j, i + 1)
            assert a.dtype == dtype and a.shape == (1 << n, j + 2, len(start))
            assert np.array_equal(a[:, lo + 1 : hi + 2], b[:, lo + 1 : hi + 2]), i
        reach = transfer_reachable(n, N, j, start)
        final = got[-1][:, j + 1]
        assert (final[reach] < inf).all()
        assert ((final[~reach] >= inf) & (final[~reach] <= inf + 2 * n)).all()
        assert all((a[:, 0] == inf).all() and a.max() <= inf + 2 * n for a in got)

    @given(st.integers(1, 20000), st.integers(1, 1 << 40))
    def test_type_holds_the_bound(self, n, N):
        # the column DP's widest range, cap = 5n + 8 on the ring, and the
        # transfer matrix's: each in the narrowest type that holds it, none
        # wider than before the cap
        inf = min(5 * n + 8, 2 * N + 1)
        for top in (min(5 * n + 8, 2 * N + 1) + n + 1, inf + 2 * n + 2):
            dtype = solve._state_type(top)
            assert top <= np.iinfo(dtype).max
            assert dtype is np.int8 or top > np.iinfo(np.int8 if dtype is np.int16 else np.int16).max
            assert np.dtype(dtype).itemsize <= np.dtype(parent_type(n, N)).itemsize


class TestFillBound:
    @pytest.mark.parametrize("n,L", DENSE_SHAPES + COINCIDING_SHAPES)
    def test_count_of_a_fill_profile(self, n, L):
        # every volume, open and on the ring: the bound is n times the energy
        # of the cheaper fill profile's configuration (largest first count,
        # filled from the left; smallest, filled from the right), and at
        # least the dense reference's least count
        heights = column_heights(n, L)
        N = sum(heights)
        open_table = dense_open(n, L)
        ring_table = dense_cyclic(n, L)

        def filled(a0, k, order):
            counts, left = [a0] + [0] * (len(heights) - 1), k - a0
            for i in order:
                counts[i] = min(left, heights[i])
                left -= counts[i]
            return profile_to_config(ColumnProfile(n, heights, tuple(counts)), L)

        for k in range(N + 1):
            lo, hi = max(0, k - (N - heights[0])), min(k, heights[0])
            fills = filled(hi, k, range(1, len(heights))), filled(lo, k, range(len(heights) - 1, 0, -1))
            pins = range(lo, hi + 1)
            ub = solve._fill_bound(n, heights, k, pins)
            assert ub == min(n * energy_open(c) for c in fills) >= open_table[k][0], k
            assert ub <= 3 * n + 4  # _state_type's bound
            seam = tuple(map(np.array, zip(*(reference_seam(n, L, a) for a in pins))))
            ub = solve._fill_bound(n, heights, k, pins, seam)
            assert ub == min(n * energy_periodic(c) for c in fills) >= ring_table[k][0], k
            assert ub <= 5 * n + 5


class TestProfiles:
    def test_examples(self):
        assert profile_to_config(ColumnProfile(2, (2, 2), (2, 0))).values == (1, 1, 0, 0)
        assert profile_to_config(ColumnProfile(2, (2, 2), (1, 1))).values == (1, 0, 1, 0)
        assert profile_to_config(
            ColumnProfile(3, (3, 3, 3), (3, 1, 0))).values == (1, 1, 1, 1, 0, 0, 0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ColumnProfile(2, (2, 2), (3, 0))

    def test_round_trip_with_config(self):
        from spinchain import column_heights
        from spinchain.lattice import config_to_profile
        rng = random.Random(21)
        for n, L in [(2, 1), (3, F(5, 4)), (4, F(3, 2))]:
            heights = column_heights(n, L)
            prof = ColumnProfile(n, heights, tuple(rng.randint(0, h) for h in heights))
            assert config_to_profile(profile_to_config(prof, L)) == prof


class TestPeriodicMin:
    def test_small_complete_graph(self):
        # n=2, L=1: all six pairs interact; every 2-2 split cuts four edges
        res = periodic_min(2, 1, 2)
        assert res.value == F(2)
        assert res.exact
        _, argmin = exhaustive_min(2, 1, 2, periodic=True)
        assert set(argmin) == {
            tuple(1 if i in ones else 0 for i in range(4))
            for ones in combinations(range(4), 2)
        }
        assert res.config.values in argmin

    def test_trivial(self):
        assert periodic_min(2, 1, 0).value == 0
        assert periodic_min(2, 1, 4).value == 0

    def test_exhaustive_oracle_n3(self):
        for k in range(10):
            want, _ = exhaustive_min(3, 1, k, periodic=True)
            assert periodic_min(3, 1, k).value == want

    def test_upper_bound_soundness(self):
        # the cyclic DP never beats the exact optimum
        for n, L in [(3, 1), (4, 1)]:
            N = site_count(n, L)
            for k in (N // 4, N // 2):
                exact = brute_force_min(n, L, k, "periodic").value
                assert _cyclic_dp(n, F(L), k).value >= exact

    @given(st.integers(3, 5), st.integers(29, 60), st.data())
    def test_cyclic_dp_at_least_ring_oracle(self, n, N, data):
        # within the split-cut sweep, rings whose distance classes coincide
        # (n = 1 or N <= 2n) included: the cyclic DP never beats brute force
        # and is never above the open column DP's minimizer scored on the
        # ring, the answer those rings once fell back to
        m = data.draw(st.integers(1, 10), label="small n")
        M = data.draw(st.integers(2, 26), label="small N")
        j = data.draw(st.integers(0, M), label="small k")
        ring = F(M, m * m)
        value = _cyclic_dp(m, ring, j).value
        assert brute_force_min(m, ring, j, "periodic").value <= value
        assert value <= energy_periodic(column_dp_min(m, ring, j).config)
        # past the split-cut sweep, partial last columns included: the cyclic
        # DP never beats the transfer matrix's exact ring minimum
        k = data.draw(st.integers(0, N), label="k")
        assume(_transfer_fits(n, N, k, True))
        L = F(N, n * n)
        assert _cyclic_dp(n, L, k).value >= _transfer_min(n, L, k, True).value

    def test_cyclic_dp_path_flags_inexact(self):
        # N = 96: beyond the brute-force guard and the transfer-matrix budget
        assert 4**8 * 96 * 49 > TRANSFER_BUDGET
        res = periodic_min(8, F(3, 2), 48)
        assert not res.exact
        assert res.method == "ColumnDP"
        assert volume(res.config) == 48
        assert energy_periodic(res.config) == res.value

    def test_cyclic_dp_matches_exact_when_prefix_suffices(self):
        # not guaranteed in general; record how it fares on small rings
        hits, total = 0, 0
        for n, L in [(3, F(3, 2)), (4, F(5, 4))]:
            N = site_count(n, L)
            for k in range(0, N + 1, 3):
                dp = _cyclic_dp(n, L, k)
                total += 1
                exact = brute_force_min(n, L, k, "periodic").value
                assert dp.value >= exact
                hits += dp.value == exact
        assert total > 0 and hits >= total // 2


# --- transfer matrix, both boundaries ----------------------------------------
#
# The run-major search the one-pass transfer matrix replaced: ``D[p, w, v]``,
# the ring's best pin run a second time only to record its choices.  Its
# lower volume window is dropped: each step updates every volume up to j,
# so one pass per shape holds every volume <= j.  That changes no entry a
# volume's answer reads, since an entry at volume v reads only volumes v and
# v - 1 and a window drops only volumes that cannot reach the target, and
# the identity check then covers ``_transfer_pass``'s window too.  The
# names it takes from ``solve`` are qualified, so that a patched
# ``_state_type`` reaches it too.


def reference_transfer_pass(n: int, N: int, j: int, start: np.ndarray,
                            choices=None) -> np.ndarray:
    W, half = 1 << n, 1 << (n - 1)
    inf = min(5 * n + 8, 2 * N + 1)
    dtype = solve._state_type(inf + 5 * n + 5)
    vols = np.bitwise_count(np.arange(W))
    p, first = np.nonzero(start & (vols <= j))
    D = np.full((len(start), W, j + 1), inf, dtype)
    D[p, first, vols[first]] = np.bitwise_count((first ^ (first >> 1)) & (half - 1))
    nxt = np.full_like(D, inf)
    # bit n-1 of the predecessors 2w' and 2w'+1 is bit n-2 of w'
    top = ((np.arange(half) >> (n - 2)) & 1).astype(dtype)[:, None]
    for i in range(n, N):
        hi = min(j, i + 1)
        A, B = D[:, 0::2], D[:, 1::2]  # predecessors with oldest bit 0 and 1
        low, high = nxt[:, :half, : hi + 1], nxt[:, half:, 1 : hi + 1]
        # new bit 0 costs top + b; new bit 1 costs (1 - top) + (1 - b), volume + 1
        B1 = B[:, :, : hi + 1] + 1
        np.minimum(A[:, :, : hi + 1], B1, out=low)
        low += top
        A1 = A[:, :, :hi] + 1
        np.minimum(A1, B[:, :, :hi], out=high)
        high += 1 - top
        if choices is not None:
            pick = np.zeros(D.shape, bool)
            np.less(B1, A[:, :, : hi + 1], out=pick[:, :half, : hi + 1])
            np.less(B[:, :, :hi], A1, out=pick[:, half:, 1 : hi + 1])
            choices.append(pick)
        D, nxt = nxt, D
    return D


def assert_same_as_two_pass(n: int, N: int) -> int:
    """Compare ``_transfer_min`` with the two-pass search at every volume k
    that ``_transfer_fits``, both boundaries, and return how many: one value
    pass over every volume up to the largest j = min(k, N - k) admitted,
    each volume's first least total over (pin, last window), each winning
    pin rerun once with its choices; k > N/2 is the complement."""
    L, W = F(N, n * n), 1 << n
    windows = np.arange(W)
    compared = 0
    for periodic in (False, True):
        ks = [k for k in range(N + 1) if _transfer_fits(n, N, k, periodic)]
        top = max(min(k, N - k) for k in ks)
        if periodic:
            pins = np.flatnonzero((windows & 3 == 2) | (windows == 0))
            seam = (np.bitwise_count(windows[pins, None] ^ windows)
                    + ((windows[pins, None] & 1) != (windows >> (n - 1))))
            start = windows[pins, None] == windows
        else:
            start, seam = np.ones((1, W), bool), np.zeros((1, W), int)
        states = reference_transfer_pass(n, N, top, start)
        totals = states + seam[:, :, None]  # [pin, last window, volume]
        choices, masks = {}, []
        for j in range(top + 1):
            p, w = divmod(int(totals[:, :, j].argmin()), W)
            if p not in choices:
                choices[p] = []
                rerun = reference_transfer_pass(n, N, top, start[p : p + 1], choices[p])
                if not (rerun[0] == states[p]).all():
                    raise AssertionError("transfer-matrix rerun must match its pin")
            mask, v = 0, j
            for i in range(N - 1, n - 1, -1):
                x = w >> (n - 1)
                mask |= x << i
                w = ((w << 1) & (W - 1)) | int(choices[p][i - n][0, w, v])
                v -= x
            masks.append(mask | w)
        for k in ks:
            j = min(k, N - k)
            mask = masks[j] if j == k else masks[j] ^ ((1 << N) - 1)
            want = solve._checked(SpinConfig.from_bitmask(n, L, mask), int(totals[..., j].min()),
                                  k, periodic, "TransferMatrix", True)
            res = _transfer_min(n, L, k, periodic)
            assert (res.value, res.config) == (want.value, want.config), (n, N, k, periodic)
            compared += 1
    return compared


# instances of test_same_as_two_pass_search per n, both boundaries
TWO_PASS_INSTANCES = {2: 3752, 3: 3726, 4: 3692, 5: 3650, 6: 3600, 7: 2819, 8: 2030}


class TestTransferMatrix:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_brute_force_tables(self, n):
        # every chain and ring with 2n < N <= 22, one L per N: the energy
        # depends on the lattice only through n and N; volumes k > N/2 run
        # the complement branch
        for periodic in (False, True):
            energy = energy_periodic if periodic else energy_open
            for N in range(2 * n + 1, 23):
                L = F(N, n * n)
                table = _sweep_table(n, (L.numerator, L.denominator), periodic)[0]
                for k in range(N + 1):
                    res = _transfer_min(n, L, k, periodic)
                    assert res.value == F(int(table[k]), n), (n, N, k, periodic)
                    assert (res.method, res.exact) == ("TransferMatrix", True)
                    assert energy(res.config) == res.value
                    assert volume(res.config) == k

    @pytest.mark.parametrize("n", range(2, 9))
    def test_same_as_two_pass_search(self, n):
        # the one-pass search returns the run-major two-pass search's value
        # and configuration (first pin, then first last window) at every
        # volume the guard allows, 2n < N <= 60: 23,269 instances in all
        compared = sum(assert_same_as_two_pass(n, N) for N in range(2 * n + 1, 61))
        assert compared == TWO_PASS_INSTANCES[n]
        assert sum(TWO_PASS_INSTANCES.values()) == 23269

    @pytest.mark.parametrize("n,N", [(3, 45), (3, 120), (4, 40), (4, 90), (5, 60), (5, 120)])
    def test_never_above_cyclic_dp_past_the_guard(self, n, N):
        L = F(N, n * n)
        for k in sorted({N // 4, N // 3, N // 2, 2 * N // 3}):
            if not _transfer_fits(n, N, k, True):
                continue
            res = periodic_min(n, L, k)
            assert (res.method, res.exact) == ("TransferMatrix", True)
            assert energy_periodic(res.config) == res.value
            assert volume(res.config) == k
            assert res.value <= _cyclic_dp(n, L, k).value

    def test_declines_outside_its_range(self):
        for periodic in (False, True):
            assert not _transfer_fits(4, 8, 4, periodic)  # N <= 2n: classes collide
            assert not _transfer_fits(1, 9, 4, periodic)
        assert 4**7 * 61 * 31 > TRANSFER_BUDGET
        assert not _transfer_fits(7, 61, 30, True)
        assert not _transfer_fits(7, 61, 31, True)  # N - k = 30
        assert _transfer_fits(7, 61, 30, False)  # 2^7 * 61 * 31
        assert periodic_min(7, F(5, 4), 30).method == "ColumnDP"


class TestTransferMatrixInt32(TestTransferMatrix):
    """The brute-force tables again with int32 states forced.  The rest of
    the grid runs on the types ``_state_type`` gives; the identity with the
    two-pass search on forced types is ``TestForcedType``'s."""

    test_same_as_two_pass_search = None
    test_never_above_cyclic_dp_past_the_guard = None
    test_declines_outside_its_range = None

    @pytest.fixture(autouse=True)
    def int32_states(self, monkeypatch):
        yield from forced_type(monkeypatch, np.int32)


class TestForcedType:
    """One test per search on a few shapes of its grid, with int16 and then
    int32 states forced, the types of instances larger than these: the
    searches and their retraces take whatever type ``_state_type`` gives."""

    @pytest.fixture(autouse=True, params=[np.int16, np.int32], ids=["int16", "int32"])
    def forced_states(self, request, monkeypatch):
        yield from forced_type(monkeypatch, request.param)

    def test_column_dps(self):
        # both column DPs at every volume of a full-column shape and two
        # with a partial last column, against the dense reference
        for n, L in ((4, F(1)), (7, F(7, 5)), (10, F(5, 4))):
            for k, (total, counts) in enumerate(dense_open(n, L)):
                res = column_dp_min(n, L, k)
                assert (res.value, res.profile.counts) == (F(total, n), counts), (n, L, k)
            for k, (total, counts) in enumerate(dense_cyclic(n, L)):
                res = _cyclic_dp(n, L, k)
                assert (res.value, res.profile.counts) == (F(total, n), counts), (n, L, k)

    def test_transfer_matrix(self):
        # the one-pass search against the two-pass one at every volume that
        # fits, both boundaries, on shapes from the smallest n to the largest
        for n, N in ((2, 9), (4, 25), (6, 37), (8, 45)):
            assert_same_as_two_pass(n, N)


def reference_transfer_ring(n, N, k):
    """The ring search with every first window pinned in a run of its own
    (``start`` the identity), no rotation argument.  Returns the least count."""
    j = min(k, N - k)
    W = 1 << n
    windows = np.arange(W)
    seam = (np.bitwise_count(windows[:, None] ^ windows)
            + ((windows[:, None] & 1) != (windows >> (n - 1))))
    return int((reference_transfer_pass(n, N, j, np.eye(W, dtype=bool))[:, :, j] + seam).min())


class TestRingPins:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_all_pins(self, n):
        # 2n < N <= 40, past the split-cut sweep, at the trivial, small,
        # half and complemented volumes
        for N in range(2 * n + 1, 41):
            L = F(N, n * n)
            for k in sorted({0, 1, 2, N // 2, N - 1, N}):
                res = _transfer_min(n, L, k, True)
                assert res.value == F(reference_transfer_ring(n, N, k), n), (n, N, k)
                assert energy_periodic(res.config) == res.value
                assert volume(res.config) == k

    @pytest.mark.parametrize("n", range(2, 8))
    def test_first_pass_pins(self, n, monkeypatch):
        # one _transfer_pass call: the pins on a ring, one run on the open
        # chain; the retrace reads that call's states
        rows = []
        transfer_pass = solve._transfer_pass

        def spy(n, N, k, start):
            rows.append(len(start))
            return transfer_pass(n, N, k, start)

        monkeypatch.setattr(solve, "_transfer_pass", spy)
        N = 2 * n + 3
        _transfer_min(n, F(N, n * n), N // 2, True)
        assert rows == [(1 << (n - 2)) + 1]
        rows.clear()
        _transfer_min(n, F(N, n * n), N // 2, False)
        assert rows == [1]

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_tampered_state_raises(self, periodic, delta, monkeypatch):
        # the kept state of the winning path's first window off by one: no
        # oldest bit retraces the value pass at site n (the -O run is in
        # SELF_CHECKS)
        n, N, k = 5, 22, 11
        L = F(N, n * n)
        mask = sum(x << i for i, x in enumerate(_transfer_min(n, L, k, periodic).config.values))
        transfer_pass = solve._transfer_pass

        def tampered(n, N, k, start):
            states = transfer_pass(n, N, k, start)
            # the first window, its volume (index + 1), the run it starts
            W = 1 << n
            p = np.flatnonzero(start[:, mask & (W - 1)])[0]
            states[0][mask & (W - 1), (mask & (W - 1)).bit_count() + 1, p] += delta
            return states

        monkeypatch.setattr(solve, "_transfer_pass", tampered)
        with pytest.raises(AssertionError, match="^transfer matrix retrace must retrace"):
            _transfer_min(n, L, k, periodic)


# --- batched cyclic DP against the per-pin loop ------------------------------
#
# The loop the batched value pass and its backtrack replaced: one column-DP
# run per pinned first-column count, keeping the first pin with the least
# total.  Only the call into the shared core is adapted to its batched
# signature.


def reference_seam(n, L, a1):
    """The seam vectors (before, after) of the first-column count a1: the
    ring's classes other than 1 and n, each class of ``pair_distances`` once."""
    lam = lambda_defect(n, L)
    N = site_count(n, L)
    classes = set(pair_distances(n, N, True)) - {1, n}
    counts = np.arange(n + 1)
    before, after = np.zeros(n + 1, np.int64), np.zeros(n + 1, np.int64)
    # distance N-n pairs of the first column against the last n sites,
    # which start lam sites up the second to last column when lam != 0
    if N - n in classes and lam:
        before = np.abs(min(a1, n - lam) - np.clip(counts - lam, 0, n - lam))
        after += np.abs(max(a1, n - lam) - np.clip(counts + n - lam, n - lam, n))
    elif N - n in classes:
        after += np.abs(a1 - counts)
    if N - 1 in classes - {N - n}:  # the distance N-1 pair
        after += (a1 >= 1) != (counts == column_heights(n, L)[-1])
    return before, after


class TestRingSeam:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_cached_rows_equal_the_reference(self, n):
        # every ring of n rows with up to five columns, one-column rings and
        # partial last columns included: every first count a = 0..n, and
        # the pins of a small volume (0..1) and of a large one (n-1..n)
        for N in range(2, 5 * n + 1):
            for pins in (range(n + 1), range(min(2, n + 1)), range(max(0, n - 1), n + 1)):
                before, after = solve._ring_seam(n, N, pins)
                assert before.shape == after.shape == (len(pins), n + 1)
                assert not (before.flags.writeable or after.flags.writeable)
                for p, a in enumerate(pins):
                    want = reference_seam(n, F(N, n * n), a)
                    assert np.array_equal(before[p], want[0]), (n, N, a)
                    assert np.array_equal(after[p], want[1]), (n, N, a)


def reference_cyclic_dp(n, L, k):
    heights = column_heights(n, L)
    N = sum(heights)

    best = None
    for a1 in range(max(0, k - (N - heights[0])), min(heights[0], k) + 1):
        before, after = reference_seam(n, L, a1)
        seam = before[None], after[None]
        totals, states = _column_dp(n, heights, k, range(a1, a1 + 1), seam)
        if best is None or totals[0] < best[0]:
            best = int(totals[0]), solve._backtrack(n, heights, k, 0, states, seam)[1]

    total, best_counts = best
    return F(total, n), tuple(best_counts)


def column_dp_calls(monkeypatch):
    """Spy on ``_column_dp``; returns the list of each call's pin count."""
    calls = []
    column_dp = solve._column_dp

    def spy(n, heights, k, pins=None, seam=None):
        calls.append(1 if pins is None else len(pins))
        return column_dp(n, heights, k, pins, seam)

    monkeypatch.setattr(solve, "_column_dp", spy)
    return calls


class TestBatchedCyclicDP:
    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        # a table first built under a patched _PIN_BATCH is shallower; drop
        # it so that no later test reads it
        yield
        solve._prefix_table.cache_clear()

    @pytest.mark.parametrize("n", range(3, 17))
    def test_values_and_profiles(self, n, monkeypatch):
        # at (16, 3) the pins span several batches of _PIN_BATCH states; the
        # backtrack through the value pass's states gives the per-pin loop's
        # value, profile and configuration, and on the periodic_mix shapes
        # also with one pin per batch
        for L in (F(1), F(5, 4), F(7, 5), F(3, 2), F(3)):
            N = site_count(n, L)
            heights = column_heights(n, L)
            volumes, batches = {1, N // 5, N // 2, 3 * N // 4, N - 1}, [solve._PIN_BATCH]
            if n >= 6 and L in (F(5, 4), F(7, 5), F(3, 2)):  # the periodic_mix shapes
                volumes.update(range(N // 4, 3 * N // 4 + 1, max(1, N // 8)))
                batches.append(1)
            for k in sorted(volumes):
                value, counts = reference_cyclic_dp(n, L, k)
                config = profile_to_config(ColumnProfile(n, heights, counts), L)
                for batch in batches:
                    monkeypatch.setattr(solve, "_PIN_BATCH", batch)
                    res = _cyclic_dp(n, L, k)
                    got = res.value, res.profile.counts, res.config
                    assert got == (value, counts, config), (L, k, batch)

    @pytest.mark.parametrize("n,L", [(5, F(7, 5)), (9, F(5, 4)), (12, F(3))])
    def test_one_pin_per_batch(self, n, L, monkeypatch):
        monkeypatch.setattr(solve, "_PIN_BATCH", 1)
        N = site_count(n, L)
        for k in range(0, N + 1, max(1, N // 12)):
            res = _cyclic_dp(n, L, k)
            assert (res.value, res.profile.counts) == reference_cyclic_dp(n, L, k), k

    @pytest.mark.parametrize("n,L,k,batch,chunks", [
        (6, F(5, 4), 22, None, 1), (6, F(5, 4), 22, 1, 7), (16, F(3), 384, None, 3),
    ])
    def test_one_value_pass(self, n, L, k, batch, chunks, monkeypatch):
        # one _column_dp call per chunk of pins: the winning pin's profile
        # comes from the value pass's own states
        calls = column_dp_calls(monkeypatch)
        if batch is not None:
            monkeypatch.setattr(solve, "_PIN_BATCH", batch)
        _cyclic_dp(n, L, k)
        assert len(calls) == chunks
        assert sum(calls) == n + 1  # first-column counts 0..n

    def test_dp_anchor_runs_one_call(self, monkeypatch):
        # the benchmark's `--method dp` ring: all 17 first-column counts in
        # one _column_dp call
        calls = column_dp_calls(monkeypatch)
        res = minimize(16, F(7, 5), 179, "periodic", "dp")
        assert calls == [17]
        assert (res.method, res.exact) == ("ColumnDP", False)

    @pytest.mark.parametrize("L", [F(5, 4), F(7, 5), F(3, 2)])
    def test_chunks_by_whole_pass_states(self, L, monkeypatch):
        # chunks are sized by the states a pin keeps over the whole pass:
        # rings of n = 6..16 at half volume, the most states a pin, run
        # every pin in one call; n = 40 keeps one pin a chunk
        calls = column_dp_calls(monkeypatch)
        for n in range(6, 17):
            N = site_count(n, L)
            _cyclic_dp(n, L, N // 2)
            assert calls == [n + 1], n
            calls.clear()
        if L == F(5, 4):
            _cyclic_dp(40, L, 1000)
            assert calls == [1] * 41

    @pytest.mark.parametrize("delta", [1, -1])
    def test_tampered_state_raises(self, delta, monkeypatch):
        # the winning pin's first-column state off by one: no count retraces
        # the value pass (the -O run is in SELF_CHECKS)
        n, L, k = 9, F(5, 4), 50
        tamper_first_state(monkeypatch, _cyclic_dp(n, L, k).profile.counts[0], delta)
        with pytest.raises(AssertionError, match="^column DP backtrack must retrace"):
            _cyclic_dp(n, L, k)


class TestUntabledFirstColumn:
    """Rings whose first column no table holds, so ``_column_dp`` sets it
    itself, against independent oracles.  The open chain's case (n = 300)
    is ``TestColumnDP::test_counts_above_255_backtrack``."""

    def test_one_column_rings_equal_brute_force(self):
        # N <= n: one column, full or partial, every volume, against brute
        # force (ONE_COLUMN_SHAPES puts some on the dense grid too)
        for n in range(2, 13):
            for N in range(2, n + 1):
                L = F(N, n * n)
                for k in range(N + 1):
                    want = brute_force_min(n, L, k, "periodic").value
                    assert _cyclic_dp(n, L, k).value == want, (n, N, k)

    @pytest.mark.parametrize("L", [F(3, 40), F(17, 160)])
    def test_ring_past_the_pinned_table(self, L):
        # with a table budget of 0 (as table_calls sets g = 0) no table holds
        # an entry, so the rings set their first column themselves: n = 40,
        # three full columns, and four full ones under a partial one of 10,
        # against the dense reference
        n = 40
        N = site_count(n, L)
        table = dense_cyclic(n, L)
        try:
            with patch.object(solve, "_PREFIX_STATES", 0):
                solve._prefix_table.cache_clear()
                for k in (1, N // 4, N // 2, 3 * N // 4 + 1, N - 1):
                    res = _cyclic_dp(n, L, k)
                    assert (res.value, res.profile.counts) == (F(table[k][0], n), table[k][1]), k
                for dtype in (np.int8, np.int16):
                    assert solve._prefix_table(n, np.dtype(dtype), True) == (0, [])
        finally:
            solve._prefix_table.cache_clear()


# --- rings whose distance classes coincide, past the brute-force guard ----------


class TestPeriodicFallback:
    # the cyclic DP's own values on rings with n = 1 or N <= 2n, where its
    # seam adds only the classes the chain misses.  The names keep the route
    # these rings once took, the open column DP's minimizer scored on the
    # ring; the values equal what simulated annealing (10^5 steps, seed 0)
    # returned here before it was removed
    @pytest.mark.parametrize("n,L,k,value", [
        (1, F(40), 13, F(2)), (1, F(40), 20, F(2)),
        (1, F(61, 2), 10, F(2)), (1, F(61, 2), 15, F(2)),
        (15, F(2, 15), 10, F(4, 15)), (15, F(2, 15), 15, F(1, 3)),
        (16, F(31, 256), 10, F(3, 8)), (16, F(31, 256), 15, F(3, 8)),
        (20, F(1, 10), 13, F(1, 4)), (20, F(1, 10), 20, F(1, 5)),
        (20, F(39, 400), 13, F(3, 10)), (20, F(39, 400), 19, F(3, 10)),
        (24, F(47, 576), 15, F(1, 4)), (24, F(47, 576), 23, F(1, 4)),
    ])
    def test_open_minimizer_scored_on_the_ring(self, n, L, k, value):
        N = site_count(n, L)
        assert k in (N // 3, N // 2)
        res = periodic_min(n, L, k)
        assert (res.value, res.method, res.exact) == (value, "ColumnDP", n == 1)
        assert energy_periodic(res.config) == value and volume(res.config) == k
        with pytest.raises(SolverGuardError):
            minimize(n, L, k, "periodic", "brute")
        assert _solved(minimize, n, L, k, "periodic", "dp") == _solved(periodic_min, n, L, k)


# --- the retired annealer as a reference --------------------------------------
#
# The simulated-annealing loop minimize once fell back to (pair-recounting
# form: each proposal collects the pairs at its two sites, counts their
# mismatches, swaps, counts again and swaps back).  The routes that replaced
# it must return a configuration that carries the value they report, and
# never a value above any annealing run's.


def _distance_set(n, N, periodic):
    if periodic:
        return sorted({d for d in (1, N - 1, n, N - n) if 1 <= d <= N - 1})
    return sorted({d for d in (1, n) if 1 <= d <= N - 1})


def reference_anneal(n, L, k, seed, steps, t0=1.0, ratio=0.995, periodic=True):
    N = site_count(n, L)
    rng = random.Random(seed)
    dists = _distance_set(n, N, periodic=periodic)

    sites = list(range(1, N + 1))
    ones = set(rng.sample(sites, k))
    values = [1 if i in ones else 0 for i in sites]

    def swap_delta(i, j):
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


ANNEAL_LS = (F(1), F(5, 4), F(7, 5), F(3, 2), F(3))


class TestAnnealAgainstReference:
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_value_and_config(self, n, periodic):
        # every shape and the edge and half-full volumes; the annealing runs
        # are those the annealer was once checked on (3000 steps only at the
        # half-full volume, to keep the loop under a few seconds in all)
        boundary = "periodic" if periodic else "open"
        energy = energy_periodic if periodic else energy_open
        for L in ANNEAL_LS:
            N = site_count(n, L)
            for k in sorted({0, 1, N // 2, N - 1, N}):
                if periodic and N < 2:
                    # no periodic energy on one site: the solver and the annealer refuse it
                    with pytest.raises(ValueError, match="at least 2 sites"):
                        minimize(n, L, k, boundary)
                    with pytest.raises(ValueError, match="at least 2 sites"):
                        reference_anneal(n, L, k, 0, 0, periodic=periodic)
                    continue
                got = minimize(n, L, k, boundary)
                assert volume(got.config) == k
                assert energy(got.config) == got.value, (n, L, k, periodic)
                runs = [(seed, steps) for seed in range(3) for steps in (0, 1)]
                runs.append((n % 3, 500))
                if k == N // 2:
                    runs.append((n % 3, 3000))
                for seed, steps in runs:
                    ls = reference_anneal(n, L, k, seed, steps, periodic=periodic)
                    assert got.value <= ls.value, (n, L, k, seed, steps, periodic)

    def test_rejects_bad_volume(self):
        for k in (-1, 17):
            with pytest.raises(ValueError, match=rf"volume {k} outside \[0, 16\]"):
                periodic_min(4, F(1), k)
            for boundary in ("open", "periodic"):
                with pytest.raises(ValueError, match=rf"volume {k} outside \[0, 16\]"):
                    minimize(4, F(1), k, boundary)


# --- the one entry point -------------------------------------------------------

# (3, 1) and (4, 5/4) full columns, (4, 9/8) a partial one, (4, 1/2) a ring
# whose distance classes coincide (N <= 2n), (6, 1) past the periodic
# brute-force guard
MINIMIZE_SHAPES = [(3, F(1), 4), (4, F(5, 4), 9), (4, F(9, 8), 7), (4, F(1, 2), 4),
                   (6, F(1), 18)]


def _direct(boundary, method, n, L, k):
    """The solver call ``minimize`` stands for, spelled out."""
    periodic = boundary == "periodic"
    if method == "brute":
        return brute_force_min(n, L, k, boundary)
    if not periodic:
        return column_dp_min(n, L, k)
    if method == "auto":
        return periodic_min(n, L, k)
    return _cyclic_dp(n, L, k)


def _solved(solver, *args):
    try:
        res = solver(*args)
    except SolverGuardError as exc:
        return "guard", str(exc)
    return res.value, res.config, res.method, res.exact, res.profile


class TestMinimize:
    @pytest.mark.parametrize("method", ["auto", "brute", "dp"])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_same_as_direct_call(self, boundary, method):
        for n, L, k in MINIMIZE_SHAPES:
            want = _solved(_direct, boundary, method, n, L, k)
            got = _solved(minimize, n, L, k, boundary, method)
            assert got == want, (boundary, method, n, L, k)

    def test_routes(self):
        assert minimize(4, F(5, 4), 9).method == "ColumnDP"
        res = minimize(4, F(5, 4), 9, "periodic")
        assert res.method == "TransferMatrix" and res.exact
        assert minimize(4, F(1, 2), 4, "periodic").method == "BruteForce"  # N <= 2n
        res = minimize(10, 1, 50, "periodic")  # past the guard and the budget
        assert not res.exact and res.method == "ColumnDP"

    def test_accepts_int_and_string_L(self):
        want = minimize(4, F(5, 4), 9)
        assert minimize(4, "5/4", 9).config == want.config
        assert minimize(3, 1, 4).value == column_dp_min(3, F(1), 4).value

    @pytest.mark.parametrize("boundary", ["Periodic", "closed", None])
    def test_rejects_unknown_boundary(self, boundary):
        with pytest.raises(ValueError, match="boundary must be open or periodic"):
            minimize(2, 1, 2, boundary)

    def test_rejects_unknown_method(self):
        for method in ("exact", "anneal"):  # the annealer is gone
            with pytest.raises(ValueError, match=f"unknown method '{method}'"):
                minimize(2, 1, 2, method=method)

    @pytest.mark.parametrize("method", ["auto", "brute", "dp"])
    @pytest.mark.parametrize("n,L,k", [(1, F(1), 0), (1, F(1), 1), (3, F(1, 9), 0)])
    def test_rejects_one_site_ring(self, n, L, k, method):
        # N < 2: no periodic energy, one rule for every method
        with pytest.raises(ValueError, match="^periodic energy needs at least 2 sites$") as exc:
            minimize(n, L, k, "periodic", method)
        assert type(exc.value) is ValueError  # invalid input, not the guard


SELF_CHECKS = """
from fractions import Fraction
import spinchain.classify, spinchain.solve
from spinchain.solve import _cyclic_dp, _transfer_min, brute_force_min, column_dp_min

if __debug__:
    raise SystemExit("not running under -O")

def wrong(*args):
    return Fraction(-1)

def run(calls):
    for f, *args in calls:
        try:
            f(*args)
        except AssertionError:
            print(f.__name__, "raised")
        else:
            print(f.__name__, "passed")

# the last ring has N = 2n, so its seam leaves out the class N-n = n
routes = [(column_dp_min, 3, 1, 4), (brute_force_min, 3, 1, 4),
          (_transfer_min, 3, Fraction(5, 4), 5, True), (_cyclic_dp, 3, Fraction(1), 4),
          (_cyclic_dp, 4, Fraction(1, 2), 4)]
run(routes)
energies = spinchain.solve.energy_open, spinchain.solve.energy_periodic
spinchain.solve.energy_open = spinchain.solve.energy_periodic = wrong
spinchain.classify.continuum_energy = wrong
run(routes + [(spinchain.classify.classify_open, 1, Fraction(3, 10))])
spinchain.solve.energy_open, spinchain.solve.energy_periodic = energies
volume = spinchain.solve.volume
spinchain.solve.volume = lambda cfg: sum(cfg.values) + 1
run(routes)
spinchain.solve.volume = volume

# the first column's state on the optimal path off by one, on the ring and
# on the open chain
column_dp = spinchain.solve._column_dp
for solver in (_cyclic_dp, column_dp_min):
    count = solver(9, Fraction(5, 4), 50).profile.counts[0]

    def tampered(n, heights, k, pins=None, seam=None):
        totals, states = column_dp(n, heights, k, pins, seam)
        lo, first = states[0]
        first = first.copy()  # it may be a read-only view of a table
        if pins is None or count in pins:
            first[count, count - lo, 0 if pins is None else pins.index(count)] += 1
        states[0] = lo, first
        return totals, states

    spinchain.solve._column_dp = tampered
    try:
        solver(9, Fraction(5, 4), 50)
    except AssertionError as exc:
        print(solver.__name__, "backtrack raised:", exc)
    spinchain.solve._column_dp = column_dp

# a column step one too high on every state: the DP total passes its fill
# bound, on the ring and on the open chain past their warm tables of first
# full columns (29 of the ring's 30 at n = 10, 8 of the chain's 40 at n = 40)
shapes = [(_cyclic_dp, 10, Fraction(3), 150), (column_dp_min, 40, Fraction(1), 800)]
for solver, *args in shapes:
    solver(*args)
column_step = spinchain.solve._column_step
spinchain.solve._column_step = lambda *args: column_step(*args) + 1
for solver, *args in shapes:
    try:
        solver(*args)
    except AssertionError as exc:
        print(solver.__name__, "bound raised:", exc)
spinchain.solve._column_step = column_step

# the transfer matrix's kept state of the winning path's first window off by one
L = Fraction(22, 25)
mask = sum(x << i for i, x in enumerate(_transfer_min(5, L, 11, True).config.values))
transfer_pass = spinchain.solve._transfer_pass

def tampered(n, N, k, start):
    states = transfer_pass(n, N, k, start)
    first = mask & ((1 << n) - 1)
    p = start[:, first].argmax()  # the run of its first window
    states[0][first, first.bit_count() + 1, p] += 1
    return states

spinchain.solve._transfer_pass = tampered
try:
    _transfer_min(5, L, 11, True)
except AssertionError as exc:
    print("transfer raised:", exc)
"""


def test_self_checks_survive_python_O():
    """The energy and volume self-checks of the four solver routes, the
    classifier's energy self-check, the column DP's backtrack over a
    tampered state and its fill-bound check over a faulty step, each on the
    ring and on the open chain, and the transfer matrix's retrace over a
    tampered state raise under ``python -O``, which strips ``assert``
    statements; the same routes pass unpatched."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", SELF_CHECKS], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    routes = ["column_dp_min", "brute_force_min", "_transfer_min", "_cyclic_dp", "_cyclic_dp"]
    assert out.split("\n")[:-1] == (
        [f"{name} passed" for name in routes]
        + [f"{name} raised" for name in routes + ["classify_open"]]  # wrong energy
        + [f"{name} raised" for name in routes]  # wrong volume
        + [f"{name} backtrack raised: column DP backtrack must retrace its value pass"
           for name in ("_cyclic_dp", "column_dp_min")]
        + [f"{name} bound raised: column DP total must not exceed its fill bound"
           for name in ("_cyclic_dp", "column_dp_min")]
        + ["transfer raised: transfer matrix retrace must retrace its value pass"])
