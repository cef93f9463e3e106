"""Chain energy tests against an independent pair-enumeration oracle."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinchain import (
    ColumnProfile,
    SpinConfig,
    TauParams,
    column_heights,
    config_to_text,
    energy_decomposition,
    energy_open,
    energy_periodic,
    lambda_defect,
    minimize,
    parse_config,
    profile_to_config,
    site_count,
    volume,
)
from spinchain.rationals import frac


def oracle_pairs(N, n, periodic=False):
    """Edge set built the slow way: scan all unordered pairs."""
    if periodic:
        dists = {d for d in (1, N - 1, n, N - n) if 1 <= d <= N - 1}
    else:
        dists = {d for d in (1, n) if 1 <= d <= N - 1}
    return [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1) if j - i in dists]


def oracle_energy(cfg, periodic=False):
    pairs = oracle_pairs(cfg.N, cfg.n, periodic)
    mism = sum(1 for i, j in pairs if cfg.values[i - 1] != cfg.values[j - 1])
    return Fraction(mism, cfg.n)


def random_config(rng, n, L):
    N = site_count(n, L)
    return SpinConfig(n, L, tuple(rng.randint(0, 1) for _ in range(N)))


class TestEnergyOpen:
    def test_constant_is_zero(self):
        assert energy_open(SpinConfig(2, 1, (1, 1, 1, 1))) == 0

    def test_half_split(self):
        # n=2, L=1: edges {1,2},{2,3},{3,4},{1,3},{2,4}; mismatches {2,3},{1,3},{2,4}
        assert energy_open(SpinConfig(2, 1, (1, 1, 0, 0))) == Fraction(3, 2)

    def test_centered_block(self):
        # mismatches {1,2},{3,4},{1,3},{2,4}
        assert energy_open(SpinConfig(2, 1, (0, 1, 1, 0))) == Fraction(2)

    @pytest.mark.parametrize("n,L", [(1, 1), (2, 1), (3, 1), (2, Fraction(3, 2)),
                                     (4, Fraction(5, 4)), (5, Fraction(1, 2)), (6, 1)])
    def test_matches_oracle(self, n, L):
        rng = random.Random(1000 + n)
        for _ in range(200):
            cfg = random_config(rng, n, L)
            assert energy_open(cfg) == oracle_energy(cfg)

    def test_vanishes_only_on_constants(self):
        for n, L in [(2, 1), (3, 1)]:
            N = site_count(n, L)
            for mask in range(1 << N):
                cfg = SpinConfig.from_bitmask(n, L, mask)
                zero = energy_open(cfg) == 0
                constant = len(set(cfg.values)) == 1
                assert zero == constant


class TestEnergyPeriodic:
    def test_constant_is_zero(self):
        assert energy_periodic(SpinConfig(2, 1, (1, 1, 1, 1))) == 0

    def test_half_split(self):
        # distances {1,3,2,2} -> all 6 pairs of 4 sites; mismatches {1,3},{1,4},{2,3},{2,4}
        assert energy_periodic(SpinConfig(2, 1, (1, 1, 0, 0))) == Fraction(2)

    def test_alternating(self):
        # All 6 pairs interact, so any 2-2 split cuts exactly 4 of them: the
        # alternating configuration also scores 4 mismatches ({1,2},{2,3},{3,4},{1,4}).
        assert energy_periodic(SpinConfig(2, 1, (1, 0, 1, 0))) == Fraction(2)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            energy_periodic(SpinConfig(1, 1, (1,)))

    @pytest.mark.parametrize("n,L", [(2, 1), (3, 1), (2, Fraction(3, 2)),
                                     (4, Fraction(5, 4)), (5, Fraction(1, 2))])
    def test_matches_oracle(self, n, L):
        rng = random.Random(2000 + n)
        for _ in range(200):
            cfg = random_config(rng, n, L)
            assert energy_periodic(cfg) == oracle_energy(cfg, periodic=True)

    def test_dominates_open(self):
        # open distance classes {1, n} are always periodic classes too
        rng = random.Random(3)
        for n in (2, 3, 4, 5):
            for _ in range(100):
                cfg = random_config(rng, n, 1)
                assert energy_periodic(cfg) >= energy_open(cfg)


class TestComplementSymmetry:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_flip_all_bits(self, n):
        rng = random.Random(40 + n)
        for _ in range(100):
            cfg = random_config(rng, n, 1)
            assert energy_open(cfg) == energy_open(cfg.complement())
            assert energy_periodic(cfg) == energy_periodic(cfg.complement())


class TestVolume:
    def test_examples(self):
        assert volume(SpinConfig(2, 1, (1, 1, 0, 0))) == 2
        assert volume(SpinConfig(3, 1, (0,) * 9)) == 0
        assert volume(SpinConfig(2, Fraction(5, 4), (1, 0, 1, 0, 1))) == 3


def reference_decomposition(cfg):
    """energy_decomposition by a loop over the interacting pairs, site by site."""
    v, N, n = cfg.values, cfg.N, cfg.n
    vertical = wrap = 0
    for i in range(1, N):  # pair {i, i+1}, 1-based i
        if v[i - 1] != v[i]:
            if i % n == 0:
                wrap += 1
            else:
                vertical += 1
    horizontal = sum(v[i] != v[i + n] for i in range(N - n)) if n > 1 else 0
    return vertical, horizontal, wrap


@st.composite
def configs(draw):
    """n = 1..9 and N = 0..6n sites: partial last columns and N < n included."""
    n = draw(st.integers(1, 9))
    N = draw(st.integers(0, 6 * n))
    values = draw(st.lists(st.integers(0, 1), min_size=N, max_size=N))
    return SpinConfig(n, Fraction(2 * N + 1, 2 * n * n), values)


class TestChainSymmetries:
    """Invariants the solvers rest on: the transfer matrix reads the chain in
    one direction, the cyclic DP pins the ring at one site."""

    @given(configs())
    def test_open_energy_unchanged_by_reversal(self, cfg):
        assert energy_open(SpinConfig(cfg.n, cfg.L, cfg.values[::-1])) == energy_open(cfg)

    @given(configs().filter(lambda cfg: cfg.N >= 2), st.integers(0, 10**6))
    def test_periodic_energy_unchanged_by_rotation(self, cfg, shift):
        r = shift % cfg.N
        rotated = SpinConfig(cfg.n, cfg.L, cfg.values[r:] + cfg.values[:r])
        assert energy_periodic(rotated) == energy_periodic(cfg)

    @given(configs().filter(lambda cfg: cfg.N >= 2))
    def test_periodic_energy_at_least_open(self, cfg):
        assert energy_periodic(cfg) >= energy_open(cfg)


class TestDecomposition:
    @given(configs())
    def test_matches_reference(self, cfg):
        assert energy_decomposition(cfg) == reference_decomposition(cfg)

    def test_half_split(self):
        assert energy_decomposition(SpinConfig(2, 1, (1, 1, 0, 0))) == (0, 2, 1)

    def test_constant(self):
        assert energy_decomposition(SpinConfig(2, 1, (0, 0, 0, 0))) == (0, 0, 0)

    def test_bottom_row(self):
        assert energy_decomposition(SpinConfig(2, 1, (1, 0, 1, 0))) == (2, 0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_identity(self, n):
        rng = random.Random(70 + n)
        for L in (1, Fraction(3, 2), Fraction(5, 4)):
            for _ in range(50):
                cfg = random_config(rng, n, L)
                v, h, w = energy_decomposition(cfg)
                assert n * energy_open(cfg) == v + h + w


def reference_grid_mismatches(cfg):
    """Mismatched nearest-neighbour cells of the column grid: vertical pairs
    inside a column and horizontal pairs between adjacent columns, with no
    wrap pair, read off ``cfg.columns()``."""
    cols = cfg.columns()
    vertical = sum(c[r] != c[r + 1] for c in cols for r in range(len(c) - 1))
    horizontal = sum(c1[r] != c2[r] for c1, c2 in zip(cols, cols[1:]) for r in range(len(c2)))
    return vertical + horizontal


class TestGrid:
    """The column picture of the module docstring: site i (1-based) is row
    (i - 1) % n of column (i - 1) // n, and ``energy_decomposition`` splits
    the energy into that grid's pairs and the wrap pairs."""

    def test_site_cell_examples(self):
        for n in (2, 3, 5):
            for i in range(1, n * n + 1):
                cfg = SpinConfig(n, 1, tuple(int(j == i) for j in range(1, n * n + 1)))
                cols = cfg.columns()
                assert cols[(i - 1) // n][(i - 1) % n] == 1 and volume(cfg) == 1

    def test_round_trip(self):
        rng = random.Random(5)
        for n, L in [(2, 1), (3, Fraction(3, 2)), (4, Fraction(5, 4))]:
            cfg = random_config(rng, n, L)
            flat = tuple(x for col in cfg.columns() for x in col)
            assert SpinConfig(n, L, flat) == cfg

    def test_partial_column_heights(self):
        cfg = SpinConfig(2, Fraction(5, 4), (1, 0, 1, 0, 1))
        assert tuple(map(len, cfg.columns())) == column_heights(2, Fraction(5, 4)) == (2, 2, 1)
        assert lambda_defect(2, Fraction(5, 4)) == 1

    def test_isolated_cell(self):
        # cell (column 2, row 2): one vertical and one horizontal neighbour
        assert energy_decomposition(SpinConfig(2, 1, (0, 0, 0, 1))) == (1, 1, 0)

    @pytest.mark.parametrize("n,L", [(2, 1), (3, 1), (4, Fraction(3, 2))])
    def test_full_window_matches_decomposition(self, n, L):
        rng = random.Random(60 + n)
        for _ in range(50):
            cfg = random_config(rng, n, L)
            v, h, _ = energy_decomposition(cfg)
            assert reference_grid_mismatches(cfg) == v + h


class TestSerialization:
    def test_round_trip_plain(self):
        cfg = SpinConfig(2, Fraction(3, 2), (1, 0, 0, 1, 1, 0))
        text = config_to_text(cfg, boundary="open")
        parsed, boundary = parse_config(text)
        assert parsed == cfg and boundary == "open"

    def test_round_trip_rle(self):
        cfg = SpinConfig(3, 1, (1, 1, 1, 0, 0, 0, 1, 0, 1))
        text = config_to_text(cfg, boundary="periodic", rle=True)
        assert "3x1,3x0,1x1,1x0,1x1" in text
        parsed, boundary = parse_config(text)
        assert parsed == cfg and boundary == "periodic"

    @given(configs(), st.sampled_from(["open", "periodic"]), st.booleans())
    def test_round_trip_any_chain(self, cfg, boundary, rle):
        # the empty chain included: its body line is empty
        assert parse_config(config_to_text(cfg, boundary, rle)) == (cfg, boundary)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config("not a header\n0101\n")

    def test_packing_and_text_match_site_loops(self):
        # the per-site loops the C-level packing and run-length code replaced
        def runs(values):
            out, pos = [], 0
            while pos < len(values):
                end = pos
                while end < len(values) and values[end] == values[pos]:
                    end += 1
                out.append(f"{end - pos}x{values[pos]}")
                pos = end
            return ",".join(out)

        rng = random.Random(23)
        shapes = [(1, 1), (1, 5), (2, Fraction(3, 2)), (3, Fraction(1, 9)), (5, Fraction(7, 5)),
                  (7, 3), (10, Fraction(1, 100)), (12, Fraction(9, 4))]
        for n, L in shapes:
            N = site_count(n, L)
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                values = tuple(int(rng.random() < p) for _ in range(N))
                cfg = SpinConfig(n, L, values)
                mask = sum(v << i for i, v in enumerate(values))
                assert cfg.bitmask() == mask
                assert SpinConfig.from_bitmask(n, L, mask) == cfg
                assert SpinConfig.from_bitmask(n, L, mask | (rng.getrandbits(8) << N)) == cfg
                header = f"n={n} L={L.numerator}/{L.denominator} boundary=open\n"
                assert config_to_text(cfg) == header + "".join(str(v) for v in values) + "\n"
                assert config_to_text(cfg, rle=True) == header + runs(values) + "\n"


class TestValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            SpinConfig(2, 1, (1, 0, 1))

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            SpinConfig(2, 1, (1, 0, 2, 0))
        with pytest.raises(ValueError, match="values must be 0/1"):
            SpinConfig(2, 1, (1, 0, -1, 0))

    @pytest.mark.parametrize("n,L,message", [
        (0, 1, "n must be >= 1"), (-2, 1, "n must be >= 1"),
        (3, 0, "L must be positive"), (3, Fraction(-1, 2), "L must be positive"),
    ])
    def test_bad_shape(self, n, L, message):
        with pytest.raises(ValueError, match=message):
            SpinConfig(n, L, ())

    def test_bool_values_become_ints(self):
        cfg = SpinConfig(1, 2, (True, False))
        assert cfg.values == (1, 0) and type(cfg.values[0]) is int

    def test_n_one_single_distance_class(self):
        # n=1: both coupling distances collapse onto nearest neighbours
        cfg = SpinConfig(1, 4, (1, 0, 1, 0))
        assert energy_open(cfg) == 3
        v, h, w = energy_decomposition(cfg)
        assert (v, h, w) == (0, 0, 3)

    def test_site_count_exact_rationals(self):
        # floor on exact rationals: no float drift for awkward L
        assert site_count(10, Fraction(3, 100)) == 3
        assert site_count(7, Fraction(1, 49)) == 1
        assert site_count(3, Fraction(10, 9)) == 10

    @pytest.mark.parametrize("text", ["1/0", " 3/0 ", "-2/0"])
    def test_frac_zero_denominator(self, text):
        # a ValueError naming the input, like any malformed rational
        with pytest.raises(ValueError, match=f"^zero denominator in {text!r}$"):
            frac(text)
        assert frac(" 3/4 ") == Fraction(3, 4)

    def test_floats_refused(self):
        # a float is not rounded to a nearby rational: L = 1.25 and tau = 0.3
        # fail at the public API, naming the float
        for x in (1.25, 0.3, np.float64(0.5)):
            with pytest.raises(ValueError, match=re.escape(f"float {x!r}")):
                frac(x)
        with pytest.raises(ValueError, match="float 1.25"):
            minimize(2, 1.25, 2)
        with pytest.raises(ValueError, match="float 0.3"):
            TauParams(0.3)
        assert frac(5) == 5 and frac(Fraction(5, 4)) == frac("5/4") == Fraction(5, 4)


class TestTrustedBuilds:
    """``from_bitmask``, ``profile_to_config`` and ``complement`` build through
    ``SpinConfig._trusted``, which skips the per-site checks of the public
    constructor; their configurations equal the validated ones."""

    @pytest.mark.parametrize("n,L", [(1, Fraction(3)), (2, Fraction(1)), (3, Fraction(5, 4)),
                                     (4, Fraction(7, 5)), (5, Fraction(1, 2))])
    def test_equal_to_validated(self, n, L):
        rng = random.Random(n)
        N = site_count(n, L)
        for mask in [0, (1 << N) - 1] + [rng.getrandbits(N) for _ in range(20)]:
            values = tuple((mask >> i) & 1 for i in range(N))
            cfg = SpinConfig.from_bitmask(n, L, mask)
            assert cfg == SpinConfig(n, L, values)
            assert hash(cfg) == hash(SpinConfig(n, L, values))
            assert type(cfg.L) is Fraction and all(type(v) is int for v in cfg.values)
            assert cfg.complement() == SpinConfig(n, L, tuple(1 - v for v in values))
        heights = column_heights(n, L)
        for _ in range(20):
            counts = tuple(rng.randint(0, h) for h in heights)
            values = sum(((1,) * a + (0,) * (h - a) for h, a in zip(heights, counts)), ())
            assert profile_to_config(ColumnProfile(n, heights, counts), L) == \
                SpinConfig(n, L, values)

    @given(st.integers(1, 12), st.sampled_from([Fraction(1, 200), Fraction(1, 2), Fraction(1),
                                                Fraction(5, 4), Fraction(7, 5), Fraction(3)]),
           st.booleans(), st.data())
    def test_profile_to_config_per_site(self, n, L, given_L, data):
        # site i sits in column i // n at height i % n and holds a one iff
        # that height is below the column's count; the empty chain (L = 1/200),
        # L = None, n = 1 and partial last columns included
        heights = column_heights(n, L)
        N = site_count(n, L)
        counts = tuple(data.draw(st.integers(0, h), label="count") for h in heights)
        profile = ColumnProfile(n, heights, counts)
        if not (given_L or heights):  # L = None on the empty chain: L = 0
            with pytest.raises(ValueError, match="L must be positive"):
                profile_to_config(profile)
            return
        cfg = profile_to_config(profile, L if given_L else None)
        assert cfg.values == tuple(int(i % n < counts[i // n]) for i in range(N))
        assert type(cfg.values) is tuple and all(type(v) is int for v in cfg.values)
        assert cfg.L == (L if given_L else Fraction(N, n * n)) and type(cfg.L) is Fraction
        assert cfg == SpinConfig(n, cfg.L, cfg.values)

    def test_bad_input_still_raises(self):
        with pytest.raises(ValueError, match="values must be 0/1"):
            SpinConfig(2, 1, (1, 0, 2, 0))
        with pytest.raises(ValueError, match="expected 4 sites"):
            SpinConfig(2, 1, (1, 0, 1))
        with pytest.raises(ValueError, match="n must be >= 1"):
            SpinConfig.from_bitmask(0, 1, 0)
        with pytest.raises(ValueError, match="L must be positive"):
            SpinConfig.from_bitmask(2, 0, 0)
        # a profile whose sites do not fill the lattice of L
        with pytest.raises(ValueError, match="expected 8 sites"):
            profile_to_config(ColumnProfile(2, (2, 2), (1, 0)), 2)
