"""Solver tests: brute-force oracle, DP equivalence, rearrangement behaviour,
periodic heuristics."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from spinchain import (
    ColumnProfile,
    SolverGuardError,
    SpinConfig,
    block_rearrange,
    brute_force_min,
    column_dp_min,
    column_heights,
    energy_open,
    energy_periodic,
    lambda_defect,
    periodic_min,
    profile_to_config,
    site_count,
    volume,
)
from spinchain.solve import _anneal, _cyclic_dp

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
        got = {c.values for c in res.optima}
        assert got == {(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)}
        assert res.exact and res.method == "BruteForce"

    def test_trivial_volumes(self):
        assert brute_force_min(3, 1, 0).value == 0
        assert brute_force_min(3, 1, 9).value == 0
        assert brute_force_min(3, 1, 0).config.values == (0,) * 9

    @pytest.mark.parametrize("n,L,periodic", [
        (2, F(3, 2), False), (3, 1, False), (3, 1, True), (2, F(5, 4), True),
    ])
    def test_matches_exhaustive(self, n, L, periodic):
        N = site_count(n, L)
        for k in range(N + 1):
            want, want_argmin = exhaustive_min(n, L, k, periodic)
            res = brute_force_min(n, L, k, "periodic" if periodic else "open")
            assert res.value == want
            assert {c.values for c in res.optima} == set(want_argmin)

    def test_guard_refuses_large(self):
        with pytest.raises(SolverGuardError):
            brute_force_min(8, 1, 32)

    def test_subset_enumeration_path(self):
        # N = 30 exceeds the sweep bound but C(30, 2) is tiny
        res = brute_force_min(5, F(6, 5), 2)
        assert res.exact
        # two adjacent sites in one column: one internal jump + two horizontals
        assert res.value == F(3, 5)

    def test_periodic_rejects_bad_volume(self):
        with pytest.raises(ValueError):
            brute_force_min(2, 1, 5)

    def test_accepts_edge_kind(self):
        from spinchain import EdgeKind
        res = brute_force_min(2, 1, 2, EdgeKind.periodic_ring(2, 1))
        assert res.value == F(2)


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

    def test_counts_above_255_backtrack(self):
        # past n = 255 the backtracking pointers need two bytes
        res = column_dp_min(300, F(1, 100), 800)
        assert res.profile.counts == (267, 267, 266)
        assert res.value == F(6, 300)

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
    wrap = ((a1 == h_prev) != (a2 >= 1)).astype(np.int64)
    internal = ((a2 > 0) & (a2 < h)).astype(np.int64)
    cost = horizontal + wrap + internal
    cost[np.arange(n + 1) > h_prev, :] = DENSE_INF
    cost[:, np.arange(n + 1) > h] = DENSE_INF
    return cost


def _prefix_range_mismatch(A, B, lo, hi):
    return abs(min(max(A, lo), hi) - min(max(B, lo), hi))


def _seam_cost(n, L, a1):
    """cost[ap, al] the cyclic closure adds between the last two columns."""
    lam = lambda_defect(n, L)
    h_last = column_heights(n, L)[-1]
    cost = np.zeros((n + 1, n + 1), np.int64)
    for ap in range(n + 1):
        for al in range(n + 1):
            if lam:
                seam = _prefix_range_mismatch(a1, ap - lam, 0, n - lam)
                seam += _prefix_range_mismatch(a1, al + n - lam, n - lam, n)
            else:
                seam = abs(a1 - al)
            cost[ap, al] = seam + ((a1 >= 1) != (al == h_last))
    return cost


def dense_dp(n, L, first_counts, cyclic_a1=None):
    """Tables dp[a, v] of the last column and parents[ci, a, v], v = 0..N."""
    heights = column_heights(n, L)
    N = sum(heights)
    dp = np.full((n + 1, N + 1), DENSE_INF, np.int64)
    for a in first_counts:
        dp[a, a] = 1 if 0 < a < heights[0] else 0
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


def dense_open(n, L):
    """k -> (total, counts) for every volume k."""
    heights = column_heights(n, L)
    dp, parents = dense_dp(n, L, range(heights[0] + 1))
    return [dense_backtrack(dp, parents, k) for k in range(sum(heights) + 1)]


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
    return table


DENSE_SHAPES = [(n, L) for n in range(2, 11)
                for L in (F(1), F(5, 4), F(7, 5), F(3, 2), F(3))]
# the cyclic DP declines shapes whose distance classes collide
CYCLIC_SHAPES = [(n, L) for n, L in DENSE_SHAPES if _cyclic_dp(n, L, 0) is not None]


class TestColumnStepAgainstDense:
    @pytest.mark.parametrize("n,L", DENSE_SHAPES)
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
        from spinchain.solve import config_to_profile
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
        assert {c.values for c in res.optima} == {
            tuple(1 if i in ones else 0 for i in range(4))
            for ones in combinations(range(4), 2)
        }

    def test_trivial(self):
        assert periodic_min(2, 1, 0).value == 0
        assert periodic_min(2, 1, 4).value == 0

    def test_exhaustive_oracle_n3(self):
        for k in range(10):
            want, _ = exhaustive_min(3, 1, k, periodic=True)
            assert periodic_min(3, 1, k).value == want

    def test_upper_bound_soundness(self):
        # heuristics never beat the exact optimum
        for n, L in [(3, 1), (4, 1)]:
            N = site_count(n, L)
            for k in (N // 4, N // 2):
                exact = brute_force_min(n, L, k, "periodic").value
                dp = _cyclic_dp(n, F(L), k)
                if dp is not None:
                    assert dp.value >= exact
                ls = _anneal(n, F(L), k, seed=0, steps=2000)
                assert ls.value >= exact

    def test_heuristic_path_flags_inexact(self):
        res = periodic_min(6, F(3, 2), 27, steps=3000)  # N = 54: beyond the guard
        assert not res.exact
        assert res.method in ("ColumnDP", "LocalSearch")
        assert volume(res.config) == 27
        assert energy_periodic(res.config) == res.value

    def test_anneal_deterministic(self):
        a = _anneal(4, F(3, 2), 10, seed=0, steps=1500)
        b = _anneal(4, F(3, 2), 10, seed=0, steps=1500)
        assert a.value == b.value and a.config == b.config

    def test_cyclic_dp_matches_exact_when_prefix_suffices(self):
        # not guaranteed in general; record how it fares on small rings
        hits, total = 0, 0
        for n, L in [(3, F(3, 2)), (4, F(5, 4))]:
            N = site_count(n, L)
            for k in range(0, N + 1, 3):
                dp = _cyclic_dp(n, L, k)
                if dp is None:
                    continue
                total += 1
                exact = brute_force_min(n, L, k, "periodic").value
                assert dp.value >= exact
                hits += dp.value == exact
        assert total > 0 and hits >= total // 2
