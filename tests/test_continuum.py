"""Continuum functional tests; the closed-form diagonal of the boundary term
and the geometric perimeter accounting serve as mutual oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinchain import (
    PiecewiseConstant,
    TauParams,
    boundary_term,
    continuum_energy,
    continuum_energy_periodic,
    periodic_cell_perimeter,
    classify_open,
    total_variation,
)
from spinchain.continuum import _normalize, _symmetric_difference_measure

F = Fraction


def reference_boundary_term(tau, x, y):
    """The seam term by interval sets: with A = [0, y] and
    B = [-tau, x - tau] u [1 - tau, x + 1 - tau], the measure of
    [0, 1] n (A symdiff B).  boundary_term computes it in closed form."""
    shifted = _normalize([(-tau, x - tau), (1 - tau, x + 1 - tau)])
    base = _normalize([(0, y)])
    return _symmetric_difference_measure(shifted, base, 0, 1)


def random_step(rng, max_pieces=6, L=None):
    L = L if L is not None else F(rng.randint(1, 8), rng.randint(1, 4))
    k = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, 24), k - 1)) if k > 1 else []
    bps = [F(0)] + [L * c / 24 for c in cuts] + [L]
    vals = [F(rng.randint(0, 8), 8) for _ in range(k)]
    return PiecewiseConstant(L, tuple(bps), tuple(vals))


class TestPiecewiseConstant:
    def test_merges_equal_neighbours(self):
        u = PiecewiseConstant(1, (0, F(1, 4), F(1, 2), 1), (F(1, 2), F(1, 2), 1))
        assert u.values == (F(1, 2), F(1))
        assert u.breakpoints == (0, F(1, 2), 1)

    def test_traces(self):
        u = PiecewiseConstant.from_pieces(1, [(F(1, 3), F(3, 4)), (1, F(1, 4))])
        assert u.left_value() == F(3, 4)
        assert u.right_value() == F(1, 4)
        assert u.mean() == F(3, 4) * F(1, 3) + F(1, 4) * F(2, 3)

    def test_json_round_trip(self):
        u = PiecewiseConstant.from_pieces(F(3, 2), [(F(1, 2), F(1, 3)), (F(3, 2), 1)])
        assert PiecewiseConstant.from_json(u.to_json()) == u

    def test_json_round_trip_irrational(self):
        # to_json writes the float breakpoints and values of an irrational
        # case-C representative as JSON numbers; from_json reads each as the
        # decimal it spells, an exact rational that converts back to the float
        u = classify_open(F(2, 5), F(1, 10)).representatives[0]
        v = PiecewiseConstant.from_json(u.to_json())
        assert all(type(x) is Fraction for x in v.breakpoints + v.values)
        assert [float(x) for x in v.breakpoints] == [float(x) for x in u.breakpoints]
        assert [float(x) for x in v.values] == [float(x) for x in u.values]
        assert v.L == u.L

    def test_json_decimals_are_exact(self):
        doc = '{"L": 1.25, "pieces": [{"to": 0.5, "value": 0.3}, {"to": "5/4", "value": 1}]}'
        u = PiecewiseConstant.from_json(doc)
        assert u == PiecewiseConstant.from_pieces(F(5, 4), [(F(1, 2), F(3, 10)), (F(5, 4), 1)])

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant(1, (0, F(1, 2), F(1, 2), 1), (0, 1, 0))
        with pytest.raises(ValueError):
            PiecewiseConstant(1, (0, 1), (F(3, 2),))


class TestTotalVariation:
    def test_constant(self):
        assert total_variation(PiecewiseConstant.constant(1, F(1, 3))) == 0

    def test_single_jump(self):
        assert total_variation(PiecewiseConstant.indicator(1, 0, F(2, 5))) == 1

    def test_staircase(self):
        u = PiecewiseConstant.from_pieces(
            1, [(F(1, 3), 0), (F(2, 3), F(3, 10)), (1, F(4, 5))])
        assert total_variation(u) == F(4, 5)


class TestContinuumEnergy:
    def test_half_indicator(self):
        assert continuum_energy(PiecewiseConstant.indicator(1, 0, F(1, 2))) == 1

    def test_constant_half(self):
        assert continuum_energy(PiecewiseConstant.constant(1, F(1, 2))) == 2

    def test_fractional_block(self):
        u = PiecewiseConstant.from_pieces(1, [(F(1, 2), F(1, 2)), (1, 0)])
        assert continuum_energy(u) == F(3, 2)

    def test_invariances(self):
        rng = random.Random(11)
        for _ in range(100):
            u = random_step(rng)
            e = continuum_energy(u)
            assert continuum_energy(u.complement()) == e
            assert continuum_energy(u.reflect()) == e


class TestBoundaryTerm:
    def test_tau_zero_is_distance(self):
        for i in range(0, 11):
            for j in range(0, 11):
                x, y = F(i, 10), F(j, 10)
                assert boundary_term(0, x, y) == abs(x - y)

    def test_diagonal_example(self):
        assert boundary_term(F(3, 10), F(1, 5), F(1, 5)) == F(2, 5)

    def test_central_diagonal(self):
        assert boundary_term(F(1, 2), F(1, 2), F(1, 2)) == 1

    def test_diagonal_closed_form(self):
        # phi(s, s): 2s below tau_*, flat 2*tau_* between, 2(1-s) above tau^*
        for ti in range(0, 11):
            t = TauParams(F(ti, 10))
            for si in range(0, 11):
                s = F(si, 10)
                if s <= t.lo:
                    expected = 2 * s
                elif s <= t.hi:
                    expected = 2 * t.lo
                else:
                    expected = 2 * (1 - s)
                assert boundary_term(t, s, s) == expected, (t.tau, s)

    def test_swap_symmetry(self):
        grid = [F(i, 8) for i in range(9)]
        for t in grid:
            for x in grid:
                for y in grid:
                    assert boundary_term(t, x, y) == boundary_term(1 - t, y, x)

    def test_monotonicity_low_tau(self):
        grid = [F(i, 8) for i in range(9)]
        for t in [F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2)]:
            for x in grid:
                for y in grid:
                    if x >= y:
                        assert boundary_term(t, x, y) <= boundary_term(t, y, x)

    def test_range_check(self):
        for x, y in [(F(3, 2), F(1, 2)), (F(1, 2), F(-1, 3)), (-0.25, F(1, 2)), (F(1, 2), 1.5)]:
            with pytest.raises(ValueError):
                boundary_term(F(1, 4), x, y)


class TestBoundaryTermReference:
    """The closed form against the interval-set reference."""

    def test_twelfths_exact(self):
        grid = [F(i, 12) for i in range(13)]
        for t, x, y in itertools.product(grid, repeat=3):
            assert boundary_term(t, x, y) == reference_boundary_term(t, x, y), (t, x, y)

    def test_random_rationals_exact(self):
        rng = random.Random(5)

        def draw():
            q = rng.randint(1, 1000)
            return F(rng.randint(0, q), q)

        for _ in range(2000):
            t, x, y = draw(), draw(), draw()
            assert boundary_term(t, x, y) == reference_boundary_term(t, x, y), (t, x, y)

    def test_random_floats_close(self):
        rng = random.Random(7)
        for _ in range(2000):
            t = F(rng.randint(0, 1000), 1000)
            x, y = rng.random(), rng.random()
            got = boundary_term(t, x, y)
            assert isinstance(got, float)
            assert abs(got - reference_boundary_term(t, x, y)) <= 1e-12, (t, x, y)


unit = st.fractions(min_value=0, max_value=1, max_denominator=60)


class TestBoundaryTermProperties:
    @given(unit, unit)
    def test_tau_zero_is_distance(self, x, y):
        assert boundary_term(0, x, y) == abs(x - y)

    @given(unit, unit, unit)
    def test_swap_symmetry(self, t, x, y):
        assert boundary_term(t, x, y) == boundary_term(1 - t, y, x)

    @given(unit, unit, unit)
    def test_bounded(self, t, x, y):
        assert 0 <= boundary_term(t, x, y) <= 2


@st.composite
def step_functions(draw):
    """Rational step functions with up to four pieces on (0, L)."""
    L = draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=8))
    cuts = draw(st.lists(st.integers(1, 23), max_size=3, unique=True))
    bps = [F(0)] + [L * c / 24 for c in sorted(cuts)] + [L]
    vals = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                         min_size=len(bps) - 1, max_size=len(bps) - 1))
    return PiecewiseConstant(L, tuple(bps), tuple(vals))


class TestPerimeterProperty:
    @settings(max_examples=40)
    @given(step_functions(), unit)
    def test_perimeter_matches_functional(self, u, t):
        assert periodic_cell_perimeter(u, t) == continuum_energy_periodic(u, t)


class TestPeriodicEnergy:
    def test_indicator_tau_zero(self):
        u = PiecewiseConstant.indicator(1, 0, F(1, 2))
        assert continuum_energy_periodic(u, 0) == 2

    def test_constant_one(self):
        u = PiecewiseConstant.constant(1, 1)
        assert continuum_energy_periodic(u, F(2, 7)) == 0

    def test_small_domain_constant(self):
        u = PiecewiseConstant.constant(F(1, 5), F(1, 4))
        assert continuum_energy_periodic(u, F(3, 10)) == F(9, 10)

    def test_involution(self):
        # u(x) -> 1 - u(L - x) preserves the periodic energy at the same tau
        rng = random.Random(23)
        for _ in range(200):
            u = random_step(rng)
            t = F(rng.randint(0, 12), 12)
            assert continuum_energy_periodic(u, t) == continuum_energy_periodic(
                u.reflect().complement(), t)


class TestPerimeterAccounting:
    def test_full_cell(self):
        u = PiecewiseConstant.constant(1, 1)
        assert periodic_cell_perimeter(u, F(1, 3)) == 0

    def test_half_indicator(self):
        u = PiecewiseConstant.indicator(1, 0, F(1, 2))
        assert periodic_cell_perimeter(u, 0) == 2

    def test_small_domain_constant(self):
        u = PiecewiseConstant.constant(F(1, 5), F(1, 4))
        assert periodic_cell_perimeter(u, F(3, 10)) == F(9, 10)

    @pytest.mark.parametrize("tau", [F(0), F(1, 4), F(1, 2), F(5, 7), F(1)])
    def test_matches_functional(self, tau):
        rng = random.Random(int(tau * 28))
        for _ in range(60):
            u = random_step(rng)
            assert periodic_cell_perimeter(u, tau) == continuum_energy_periodic(u, tau)
