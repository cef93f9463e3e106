"""Recovery constructions: exact volumes, energy bounds, convergence tables."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinchain import (
    PiecewiseConstant,
    RecoveryPlan,
    classify_open,
    convergence_evidence,
    column_dp_min,
    energy_open,
    full_columns,
    lambda_defect,
    recovery_constrained,
    recovery_unconstrained,
    site_count,
    volume,
)
from spinchain.continuum import continuum_energy

F = Fraction


class TestRecoveryPlan:
    def test_decomposition_identities(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(2, 20)
            L = F(rng.randint(1, 8), rng.randint(1, 5))
            N = site_count(n, L)
            k = rng.randint(0, N)
            plan = RecoveryPlan.for_volume(n, L, k)
            m0 = full_columns(n, L)
            assert k == (m0 + 1) * plan.a + plan.b
            assert 0 <= plan.b <= m0
            assert 0 <= plan.a < n
            if plan.a > plan.lam:
                assert plan.a - plan.lam + plan.b == plan.gamma * m0 + plan.delta
                assert 0 <= plan.delta < m0

    def test_rejects_bad_volume(self):
        with pytest.raises(ValueError):
            RecoveryPlan.for_volume(2, 1, 5)

    def test_rejects_bad_shape(self):
        # the shape is checked before the volume: L = -1 once read "volume 0 outside [0, -9]"
        with pytest.raises(ValueError, match="L must be positive"):
            recovery_constrained(3, -1, 0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            RecoveryPlan.for_volume(0, 1, 0)


class TestRecoveryConstrained:
    def test_spec_instance(self):
        cfg = recovery_constrained(2, 1, 2)
        assert cfg.values == (1, 0, 1, 0)
        assert energy_open(cfg) == F(3, 2) <= F(2 * 2 + 3, 2)

    def test_zero_volume(self):
        cfg = recovery_constrained(3, 1, 0)
        assert cfg.values == (0,) * 9 and energy_open(cfg) == 0

    def test_even_spread_at_half(self):
        cfg = recovery_constrained(10, 1, 50)
        assert volume(cfg) == 50
        assert energy_open(cfg) == F(19, 10) <= F(23, 10)

    def test_volume_and_bound_random(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randint(2, 30)
            L = rng.choice([F(1, 2), F(1), F(5, 4), F(3, 2), F(7, 3)])
            N = site_count(n, L)
            k = rng.randint(0, N)
            cfg = recovery_constrained(n, L, k)
            assert volume(cfg) == k
            bound = F(2 * full_columns(n, L) + 3, n)
            assert energy_open(cfg) <= bound, (n, L, k)

    @given(st.integers(1, 40), st.sampled_from([F(1, 2), F(1), F(5, 4), F(3, 2), F(3)]),
           st.data())
    def test_volume_and_bound_property(self, n, L, data):
        k = data.draw(st.integers(0, site_count(n, L)), label="k")
        cfg = recovery_constrained(n, L, k)
        assert volume(cfg) == k
        assert energy_open(cfg) <= F(2 * math.floor(L * n) + 3, n)

    def test_full_volume(self):
        for n, L in [(2, 1), (3, F(3, 2)), (5, F(5, 4))]:
            N = site_count(n, L)
            cfg = recovery_constrained(n, L, N)
            assert cfg.values == (1,) * N and energy_open(cfg) == 0

    def test_partial_column_regimes(self):
        # lam > 0 exercises both branches of the construction
        n, L = 5, F(6, 5)
        lam = lambda_defect(n, L)
        assert lam == 0  # floor(30/5)*5 == 30
        n, L = 4, F(9, 8)
        assert lambda_defect(n, L) == 2
        N = site_count(n, L)
        for k in range(N + 1):
            cfg = recovery_constrained(n, L, k)
            assert volume(cfg) == k

    def test_minimum_never_exceeds_recovery(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 8)
            L = rng.choice([F(1), F(3, 2)])
            N = site_count(n, L)
            k = rng.randint(0, N)
            assert column_dp_min(n, L, k).value <= energy_open(
                recovery_constrained(n, L, k))


class TestRecoveryUnconstrained:
    def test_all_ones(self):
        u = PiecewiseConstant.constant(1, 1)
        cfg = recovery_unconstrained(u, 4)
        assert cfg.values == (1,) * 16 and energy_open(cfg) == 0

    def test_half_constant(self):
        u = PiecewiseConstant.constant(1, F(1, 2))
        cfg = recovery_unconstrained(u, 4)
        assert cfg.columns() == [(1, 1, 0, 0)] * 4
        assert energy_open(cfg) <= continuum_energy(u) + 1

    def test_half_indicator(self):
        u = PiecewiseConstant.indicator(1, 0, F(1, 2))
        cfg = recovery_unconstrained(u, 10)
        assert energy_open(cfg) == F(11, 10) <= 1 + F(5, 10)

    def test_energy_bound_random(self):
        rng = random.Random(6)
        for _ in range(200):
            k = rng.randint(1, 4)
            cuts = sorted(rng.sample(range(1, 12), k - 1))
            bps = [F(0)] + [F(c, 12) for c in cuts] + [F(1)]
            vals = [F(rng.randint(0, 6), 6) for _ in range(k)]
            u = PiecewiseConstant(1, tuple(bps), tuple(vals))
            pieces = len(u.values)
            n = rng.randint(13, 40)
            cfg = recovery_unconstrained(u, n)
            assert energy_open(cfg) <= continuum_energy(u) + F(pieces + 3, n), (u, n)

    def test_column_averages_track_grid_aligned_targets(self):
        # when the cuts sit on the 1/n grid every column average lands within
        # floor-quantization distance of the target value on that column
        for n in (6, 12, 24):
            u = PiecewiseConstant.from_pieces(
                1, [(F(1, 3), F(5, 6)), (F(2, 3), F(1, 6)), (1, F(1, 2))])
            cfg = recovery_unconstrained(u, n)
            for j, count in enumerate(cfg.column_counts()):
                mid = F(2 * j + 1, 2 * n)
                assert abs(F(count, n) - u.value_at(mid)) <= F(2, n)

    def test_l1_convergence_general_targets(self):
        u = PiecewiseConstant.from_pieces(
            1, [(F(11, 30), F(3, 4)), (F(17, 30), F(1, 8)), (1, F(5, 8))])
        prev = None
        for n in (8, 16, 32, 64):
            cfg = recovery_unconstrained(u, n)
            counts = cfg.column_counts()
            err = sum(
                abs(F(counts[j], n) - u.value_at(F(2 * j + 1, 2 * n))) * F(1, n)
                for j in range(len(counts))
            )
            assert err <= F(len(u.values) + 2, n)
            if prev is not None:
                assert err <= prev
            prev = err

    def test_refusal_reports_minimum(self):
        u = PiecewiseConstant.from_pieces(1, [(F(1, 10), 1), (1, 0)])
        with pytest.raises(ValueError, match=r"^n=5 too coarse for this partition; need n >= 11$"):
            recovery_unconstrained(u, 5)

    def test_irrational_representative(self):
        # the case-C minimizer at L = 2/5, sigma = 1/10 has the float height
        # and width sqrt(2)/5 and sqrt(2)/10; floats pass through recovery
        u = classify_open(F(2, 5), F(1, 10)).representatives[0]
        assert isinstance(u.breakpoints[1], float) and isinstance(u.values[0], float)
        with pytest.raises(ValueError, match="need n >= 8"):
            recovery_unconstrained(u, 7)
        rows = convergence_evidence(u, [10, 20, 40])
        assert [row.energy for row in rows] == [F(3, 10), F(2, 5), F(1, 2)]
        for row in rows:
            assert abs(row.gap) <= row.bound

    def test_binary_target_energy_tracks_jumps(self):
        u = PiecewiseConstant.from_pieces(1, [(F(1, 4), 1), (F(3, 4), 0), (1, 1)])
        for n in (8, 16, 32):
            cfg = recovery_unconstrained(u, n)
            gap = energy_open(cfg) - continuum_energy(u)
            assert 0 <= gap <= F(len(u.values) + 3, n)


class TestConvergenceEvidence:
    def test_half_indicator_gaps(self):
        u = PiecewiseConstant.indicator(1, 0, F(1, 2))
        rows = convergence_evidence(u, [5, 10, 20])
        for row, cap in zip(rows, [1.0, 0.5, 0.25]):
            assert row.gap <= cap
        gaps = [row.gap for row in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_constant_one_zero_gaps(self):
        u = PiecewiseConstant.constant(1, 1)
        for row in convergence_evidence(u, [3, 6, 12]):
            assert row.gap == 0

    def test_half_constant_gap_bound(self):
        u = PiecewiseConstant.constant(1, F(1, 2))
        for row in convergence_evidence(u, [4, 8, 16]):
            assert abs(float(row.energy) - 2.0) <= 4 / row.n

    def test_rejects_unsorted(self):
        u = PiecewiseConstant.constant(1, F(1, 2))
        with pytest.raises(ValueError):
            convergence_evidence(u, [8, 4])

    def test_csv_format(self):
        from spinchain.recover import convergence_csv
        u = PiecewiseConstant.indicator(1, 0, F(1, 2))
        text = convergence_csv(convergence_evidence(u, [5, 10]))
        lines = text.splitlines()
        assert lines[0] == "n,energy,limit,gap,bound"
        assert lines[1].startswith("5,") and len(lines) == 3
