"""Minimizer classification: frozen examples, exact thresholds, symmetries,
and agreement with the analytic regime conditions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinchain import (
    TauParams,
    classify_open,
    classify_periodic,
    periodicity_defects,
    phase_diagram,
)
from spinchain.classify import periodic_regime_conditions

F = Fraction


def check_representatives(rep):
    assert rep.representatives
    for u in rep.representatives:
        got = rep.evaluate(u)
        assert abs(float(got) - rep.value) <= 1e-12 * max(1.0, rep.value)
        if rep.value_exact is not None and not isinstance(got, float):
            assert got == rep.value_exact


class TestClassifyOpen:
    def test_slab_regime(self):
        rep = classify_open(1, F(3, 10))
        assert rep.cases == ("B",)
        assert rep.value_exact == 1
        reps = {(u.breakpoints, u.values) for u in rep.representatives}
        assert ((F(0), F(3, 10), F(1)), (F(1), F(0))) in reps
        assert ((F(0), F(7, 10), F(1)), (F(0), F(1))) in reps

    def test_block_regime(self):
        rep = classify_open(F(2, 5), F(1, 10))
        assert rep.cases == ("C",)
        assert abs(rep.value - 2 * math.sqrt(2 * 0.1 * 0.4)) < 1e-12
        check_representatives(rep)

    def test_constant_regime(self):
        rep = classify_open(F(2, 5), F(3, 10))
        assert rep.cases == ("A",)
        assert rep.value_exact == F(4, 5)
        assert len(rep.representatives) == 1

    def test_hole_regime(self):
        rep = classify_open(1, F(9, 10))
        assert rep.cases == ("D",)
        assert abs(rep.value - 2 * math.sqrt(2 * 0.1)) < 1e-12
        check_representatives(rep)

    def test_degenerate_sigma(self):
        for s in (0, 1):
            rep = classify_open(F(7, 3), s)
            assert rep.value_exact == 0 and not rep.degenerate

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            classify_open(1, F(11, 10))

    def test_sigma_mirror_symmetry(self):
        rng = random.Random(7)
        swap = {"C": "D", "D": "C", "A": "A", "B": "B"}
        for _ in range(200):
            L = F(rng.randint(1, 40), rng.randint(1, 10))
            s = F(rng.randint(0, 24), 24)
            a, b = classify_open(L, s), classify_open(L, 1 - s)
            assert a.value == pytest.approx(b.value, abs=1e-14)
            assert tuple(sorted(swap[c] for c in a.cases)) == b.cases

    def test_representatives_attain_value(self):
        rng = random.Random(8)
        for _ in range(120):
            L = F(rng.randint(1, 30), rng.randint(1, 8))
            s = F(rng.randint(0, 16), 16)
            check_representatives(classify_open(L, s))


class TestOpenThresholds:
    def test_slab_block_tie(self):
        # at sigma = 1/(8L) the squared values 8*sigma*L and 1 coincide exactly
        for L in (F(1), F(3, 4), F(7, 5), F(16)):
            sigma = 1 / (8 * L)
            assert 8 * sigma * L == 1
            rep = classify_open(L, sigma)
            assert set(rep.cases) == {"B", "C"}
            assert len(rep.representatives) == 4
            check_representatives(rep)

    def test_constant_block_tie(self):
        # at sigma = L/2 (small domain) the constant ties the block pair: 2L
        for L in (F(1, 4), F(2, 5), F(9, 20)):
            rep = classify_open(L, L / 2)
            assert 8 * (L / 2) * L == 4 * L * L
            assert set(rep.cases) == {"A", "C"}
            assert rep.value_exact == 2 * L
            check_representatives(rep)

    def test_small_domain_has_no_slab(self):
        # L < 1/2: the constant already beats value 1 everywhere
        for i in range(1, 10):
            rep = classify_open(F(2, 5), F(i, 10))
            assert "B" not in rep.cases


class TestClassifyPeriodic:
    def test_block_regime(self):
        rep = classify_periodic(2, F(1, 20), F(1, 2))
        assert rep.cases == ("C",)
        assert abs(rep.value - 4 * math.sqrt(0.1)) < 1e-12
        check_representatives(rep)

    def test_slab_regime(self):
        rep = classify_periodic(2, F(3, 10), F(1, 2))
        assert rep.cases == ("B",)
        assert rep.value_exact == 2
        check_representatives(rep)

    def test_constant_regime(self):
        rep = classify_periodic(F(1, 5), F(1, 4), F(3, 10))
        assert rep.cases == ("A",)
        assert rep.value_exact == F(9, 10)
        check_representatives(rep)

    def test_report_carries_tau(self):
        # sigma = 0 takes the early zero-energy return; both exits record tau
        for L, sigma in [(F(1, 5), F(1, 4)), (F(1, 5), F(1, 2)), (F(1, 5), F(0))]:
            assert classify_periodic(L, sigma, F(3, 10)).tau == F(3, 10)
        assert classify_open(1, F(3, 10)).tau is None

    def test_tau_mirror_symmetry(self):
        rng = random.Random(9)
        for _ in range(200):
            L = F(rng.randint(1, 30), rng.randint(1, 8))
            s = F(rng.randint(0, 12), 12)
            t = F(rng.randint(0, 12), 12)
            a, b = classify_periodic(L, s, t), classify_periodic(L, s, 1 - t)
            assert a.value == pytest.approx(b.value, abs=1e-14)
            assert a.cases == b.cases

    def test_sigma_mirror_symmetry(self):
        rng = random.Random(10)
        swap = {"C": "D", "D": "C", "A": "A", "B": "B"}
        for _ in range(200):
            L = F(rng.randint(1, 30), rng.randint(1, 8))
            s = F(rng.randint(0, 12), 12)
            t = F(rng.randint(0, 12), 12)
            a, b = classify_periodic(L, s, t), classify_periodic(L, 1 - s, t)
            assert a.value == pytest.approx(b.value, abs=1e-14)
            assert tuple(sorted(swap[c] for c in a.cases)) == tuple(sorted(b.cases))

    @given(st.fractions(min_value=F(1, 20), max_value=3, max_denominator=20),
           st.fractions(min_value=0, max_value=1, max_denominator=20),
           st.fractions(min_value=0, max_value=1, max_denominator=20))
    def test_sigma_mirror_value_property(self, L, s, t):
        assert classify_periodic(L, s, t).value == classify_periodic(L, 1 - s, t).value

    def test_tau_params_argument(self):
        # a grid passes one validated TauParams; the report is the same
        for L, s, t in [(F(1, 5), F(3, 10), F(3, 10)), (F(3, 2), F(7, 10), F(9, 10)),
                        (F(1, 10), F(19, 20), F(1, 10))]:
            assert classify_periodic(L, s, TauParams(t)) == classify_periodic(L, s, t)
            # a float tau is refused, as everywhere else: no silent rounding
            with pytest.raises(ValueError, match="float"):
                TauParams(float(t))

    def test_representatives_attain_value(self):
        rng = random.Random(12)
        for _ in range(150):
            L = F(rng.randint(1, 24), rng.randint(1, 6))
            s = F(rng.randint(0, 10), 10)
            t = F(rng.randint(0, 10), 10)
            check_representatives(classify_periodic(L, s, t))

    def test_degenerate_family_above_tau_star(self):
        # constant sigma plus a two-step member of the monotone family
        rep = classify_periodic(F(1, 10), F(2, 5), F(3, 10))
        assert rep.cases == ("A",)
        assert rep.degenerate and "non-increasing" in rep.degeneracy
        assert len(rep.representatives) == 2
        check_representatives(rep)

    def test_unique_below_tau_star(self):
        rep = classify_periodic(F(1, 10), F(1, 5), F(3, 10))
        assert rep.cases == ("A",) and not rep.degenerate
        assert len(rep.representatives) == 1

    def test_regime_conditions_match_value_winners(self):
        # the analytic inequalities and the exact value comparison must agree
        rng = random.Random(13)
        for _ in range(500):
            L = F(rng.randint(1, 32), rng.randint(1, 8))
            s = F(rng.randint(1, 15), 16)
            t = F(rng.randint(0, 16), 16)
            rep = classify_periodic(L, s, t)
            cond = periodic_regime_conditions(L, s, t)
            assert cond["A"] == ("A" in rep.cases), (L, s, t, rep.cases)
            assert cond["B"] == ("B" in rep.cases), (L, s, t, rep.cases)
            if not cond["A"] and not cond["B"]:
                assert set(rep.cases) <= {"C", "D"}

    def test_periodic_slab_block_tie(self):
        # at sigma = 1/(4L) the squared values 16*sigma*L and 4 coincide
        for L in (F(1), F(5, 4), F(3)):
            sigma = 1 / (4 * L)
            rep = classify_periodic(L, sigma, F(1, 2))
            assert 16 * sigma * L == 4
            assert "B" in rep.cases and "C" in rep.cases
            check_representatives(rep)

    def test_block_constant_tie_mid_regime(self):
        # tau_* <= L <= tau^*: at sigma = (L+tau_*)^2/(4L) block ties constant
        t = F(3, 10)
        for L in (F(2, 5), F(1, 2), F(3, 5)):
            sigma = (L + t) ** 2 / (4 * L)
            assert sigma >= t  # family regime: A value is 2L + 2 tau_*
            rep = classify_periodic(L, sigma, t)
            assert {"A", "C"} <= set(rep.cases)
            assert 16 * sigma * L == (2 * L + 2 * t) ** 2
            check_representatives(rep)

    def test_tau_zero_candidate_minimum(self):
        # at tau = 0 the constant costs exactly 2L (the seam term vanishes),
        # so the minimum is min over the achievable shapes with that value
        rng = random.Random(14)
        for _ in range(300):
            L = F(rng.randint(1, 24), rng.randint(1, 6))
            s = F(rng.randint(1, 11), 12)
            rep = classify_periodic(L, s, 0)
            cands = [2 * F(L), F(2)]
            if s <= L and s * L <= 1:
                cands.append(4 * math.sqrt(s * L))
            if 1 - s <= L and (1 - s) * L <= 1:
                cands.append(4 * math.sqrt((1 - s) * L))
            assert rep.value == pytest.approx(min(float(c) for c in cands), abs=1e-12)


class TestPeriodicityDefects:
    def test_examples(self):
        assert periodicity_defects(F(3, 2)) == (0, F(1, 2), 1)
        assert periodicity_defects(2) == (0, 1)
        assert periodicity_defects(F(5, 4)) == (0, F(1, 4), F(1, 2), F(3, 4), 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            periodicity_defects(0)


class TestPhaseDiagram:
    def test_open_row_thresholds(self):
        rows = phase_diagram([F(2, 5)], [F(1, 10), F(19, 100), F(21, 100), F(3, 10)])
        assert [r.case for r in rows[0]] == ["C", "C", "A", "A"]

    def test_open_tie_row(self):
        rows = phase_diagram([F(1)], [F(1, 10), F(1, 8), F(3, 20)])
        assert rows[0][0].cases == ("C",)
        assert rows[0][1].cases == ("B", "C")
        assert rows[0][2].cases == ("B",)

    def test_periodic_tau_zero_constant_region(self):
        # tau = 0: the constant-plateau region is L <= 1 with L/4 <= sigma <= 1 - L/4
        for L in (F(1, 2), F(4, 5), F(1)):
            for i in range(1, 12):
                s = F(i, 12)
                rep = classify_periodic(L, s, 0)
                inside = L / 4 <= s <= 1 - L / 4
                assert inside == ("A" in rep.cases), (L, s, rep.cases)

    def test_periodic_rows_match_cells(self):
        Ls, sigmas = [F(1, 10), F(1, 2), F(3, 2)], [F(1, 20), F(1, 2), F(7, 10)]
        rows = phase_diagram(Ls, sigmas, tau=F(1, 10))
        assert rows == [[classify_periodic(L, s, F(1, 10)) for s in sigmas] for L in Ls]

    def test_grid_shape(self):
        rows = phase_diagram([1, 2], [F(1, 4), F(1, 2)], tau=F(1, 2))
        assert len(rows) == 2 and len(rows[0]) == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            phase_diagram([], [F(1, 2)])
