"""Answer checks that do not use spinchain.

Every energy is recounted here from the printed configuration, with this
file's own site count and pair sets; continuum values are compared with
the closed-form candidate minima stated in the ``spinchain.classify``
docstrings; exact claims are compared with exhaustive minima (computed by
``exhaustive_minima`` or stored in ``reference.json``) and with the
witness configurations stored there.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9  # continuum values against the closed forms (relative above 1)
ORACLE_MAX_N = 22  # exhaustive minima are computed in-run up to 2^22 masks


def site_count(n: int, L: Fraction) -> int:
    return math.floor(L * n * n)


def defect(n: int, L: Fraction) -> int:
    """Sites of the partial last column: floor(L n^2) - n floor(L n)."""
    return site_count(n, L) - n * math.floor(L * n)


def pair_distances(n: int, N: int, periodic: bool) -> list[int]:
    """Open chains couple distances {1, n}; rings the set {1, N-1, n, N-n}."""
    ds = {1, N - 1, n, N - n} if periodic else {1, n}
    return sorted(d for d in ds if 1 <= d <= N - 1)


def mismatches(bits: str, n: int, periodic: bool) -> int:
    """Mismatched pairs {i, i+d}, 1 <= i <= N-d, over the coupled distances."""
    N = len(bits)
    if N == 0:
        return 0
    mask = int(bits[::-1], 2)  # site 1 at bit 0
    total = 0
    for d in pair_distances(n, N, periodic):
        total += ((mask ^ (mask >> d)) & ((1 << (N - d)) - 1)).bit_count()
    return total


def expand_rle(text: str) -> str:
    """'3x1,2x0' -> '11100'."""
    out = []
    for part in text.split(","):
        count, _, bit = part.partition("x")
        if bit not in ("0", "1") or not count.isdigit():
            raise ValueError(f"bad run {part!r}")
        out.append(bit * int(count))
    return "".join(out)


# --- exhaustive minima ------------------------------------------------------


class Oracle:
    """Per-volume exhaustive minima of the mismatch count, memoised per lattice.

    The lattice (hence every energy) depends on (n, N) only, so the table is
    shared by every L with the same site count.
    """

    def __init__(self, reference: dict):
        self._tables: dict[tuple[int, int, bool], np.ndarray] = {}
        self._stored = {
            (r["n"], Fraction(r["L"]), r["k"], r["boundary"] == "periodic"):
                Fraction(r["min_energy"])
            for r in reference["exhaustive_minima"]
        }

    def minimum(self, n: int, L: Fraction, k: int, periodic: bool):
        """Exact minimum energy at volume k, or None when out of reach."""
        stored = self._stored.get((n, L, k, periodic))
        if stored is not None:
            return stored
        N = site_count(n, L)
        if N > ORACLE_MAX_N or (periodic and N < 2):
            return None
        key = (n, N, periodic)
        if key not in self._tables:
            self._tables[key] = exhaustive_minima(n, N, periodic)
        return Fraction(int(self._tables[key][k]), n)


def exhaustive_minima(n: int, N: int, periodic: bool) -> np.ndarray:
    """Minimal mismatch count for every volume 0..N over all 2^N configurations."""
    dists = pair_distances(n, N, periodic)
    best = np.full(N + 1, np.iinfo(np.int32).max, np.int64)
    chunk = 1 << 22
    for lo in range(0, 1 << N, chunk):
        c = np.arange(lo, min(1 << N, lo + chunk), dtype=np.uint64)
        e = np.zeros(len(c), np.int64)
        for d in dists:
            window = np.uint64((1 << (N - d)) - 1)
            e += np.bitwise_count((c ^ (c >> np.uint64(d))) & window)
        np.minimum.at(best, np.bitwise_count(c), e)
    return best


# --- closed-form continuum minima ----------------------------------------------


def _winners(squared: dict) -> tuple[float, tuple[str, ...]]:
    best = min(squared.values())
    cases = tuple(c for c in "ABCD" if squared.get(c) == best)
    return math.sqrt(best.numerator / best.denominator), cases


def classify_open(L: Fraction, sigma: Fraction):
    """(value, tied cases): min of 2L, 1, 2 sqrt(2 sigma L), 2 sqrt(2 (1-sigma) L)."""
    if sigma in (0, 1):
        return 0.0, ("A",)
    return _winners({"A": 4 * L * L, "B": Fraction(1),
                     "C": 8 * sigma * L, "D": 8 * (1 - sigma) * L})


def classify_periodic(L: Fraction, sigma: Fraction, tau: Fraction):
    """(value, tied cases): min of 2L + 2 min(sigma, 1-sigma, tau_*), 2,
    4 sqrt(sigma L) [sigma <= L, sigma L <= 1], 4 sqrt((1-sigma) L) [mirror]."""
    if sigma in (0, 1):
        return 0.0, ("A",)
    tau_lo = min(tau, 1 - tau)
    squared = {"A": (2 * L + 2 * min(sigma, 1 - sigma, tau_lo)) ** 2, "B": Fraction(4)}
    if sigma <= L and sigma * L <= 1:
        squared["C"] = 16 * sigma * L
    if 1 - sigma <= L and (1 - sigma) * L <= 1:
        squared["D"] = 16 * (1 - sigma) * L
    return _winners(squared)


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# --- per-command checks --------------------------------------------------------
# Each returns (failures, energy): the list of failed checks and the energy the
# request returned (an exact Fraction, a float, or None when unreadable).


def check_minimize(meta: dict, out: str, oracle: Oracle, witnesses: dict):
    n, L, k, periodic = meta["n"], meta["L"], meta["k"], meta["periodic"]
    fails = []
    try:
        doc = json.loads(out)
        value = Fraction(doc["value"])
        bits = expand_rle(doc["config"])
        exact = doc["exact"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"], None
    N = site_count(n, L)
    if len(bits) != N:
        return [f"config has {len(bits)} sites, expected {N}"], None
    if bits.count("1") != k:
        fails.append(f"volume {bits.count('1')} != {k}")
    recount = Fraction(mismatches(bits, n, periodic), n)
    if recount != value:
        fails.append(f"printed value {value} != recount {recount}")
    if exact is not True and exact is not False:
        fails.append(f"exact flag {exact!r} is not a boolean")
    if meta.get("expect_exact") and exact is not True:
        fails.append("exhaustive method did not report exact")
    best = oracle.minimum(n, L, k, periodic)
    if best is not None:
        if value < best:
            fails.append(f"value {value} below the exhaustive minimum {best}")
        if exact is True and value != best:
            fails.append(f"exact value {value} != exhaustive minimum {best}")
    witness = witnesses.get((n, L, k, periodic))
    if witness is not None and exact is True and value > witness:
        fails.append(f"exact value {value} exceeds witness energy {witness}")
    return fails, value


def check_sweep(meta: dict, out: str, oracle: Oracle, witnesses: dict):
    L, sigma, periodic = meta["L"], meta["sigma"], meta["periodic"]
    try:
        rows = list(csv.DictReader(io.StringIO(out)))
    except csv.Error as exc:
        return [f"unreadable output: {exc}"], None
    if [r.get("n") for r in rows] != [str(n) for n in meta["n_list"]]:
        return [f"rows {[r.get('n') for r in rows]} != n_list {meta['n_list']}"], None
    fails, total = [], Fraction(0)
    for r in rows:
        n = int(r["n"])
        N = site_count(n, L)
        k = min(max(round(sigma * N), 0), N)
        tau = Fraction(defect(n, L), n)
        tag = f"n={n}"
        try:
            discrete = float(r["discrete_min"])
            got_k, got_tau = int(r["k_n"]), Fraction(r["tau_n"])
            continuum = float(r["continuum_min"])
            exact = r["exact"] == "True"
        except (ValueError, KeyError, ZeroDivisionError) as exc:
            fails.append(f"{tag}: unreadable row: {exc}")
            continue
        if got_k != k or got_tau != tau:
            fails.append(f"{tag}: (k_n, tau_n) = ({got_k}, {got_tau}) != ({k}, {tau})")
        want = (classify_periodic(L, sigma, tau) if periodic else classify_open(L, sigma))[0]
        if not _close(continuum, want, TOL):
            fails.append(f"{tag}: continuum_min {continuum!r} != closed form {want!r}")
        count = round(discrete * n)
        if not _close(discrete, count / n, TOL):
            fails.append(f"{tag}: discrete_min {discrete!r} is not a multiple of 1/n")
        value = Fraction(count, n)
        best = oracle.minimum(n, L, k, periodic)
        if best is not None and (value < best or (exact and value != best)):
            fails.append(f"{tag}: value {value} vs exhaustive minimum {best}")
        witness = witnesses.get((n, L, k, periodic))
        if witness is not None and exact and value > witness:
            fails.append(f"{tag}: exact value {value} exceeds witness energy {witness}")
        total += value
    return fails, total


def check_classify(meta: dict, out: str, oracle, witnesses):
    try:
        doc = json.loads(out)
        value, cases = float(doc["value"]), tuple(doc["cases"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"], None
    want, want_cases = classify_periodic(meta["L"], meta["sigma"], meta["tau"])
    fails = []
    if not _close(value, want, TOL):
        fails.append(f"value {value!r} != closed form {want!r}")
    if cases != want_cases:
        fails.append(f"cases {cases} != closed-form winners {want_cases}")
    return fails, value


def check_phase(meta: dict, out: str, oracle, witnesses):
    tau = meta["tau"]
    try:
        rows = list(csv.DictReader(io.StringIO(out)))
        cells = [(Fraction(r["L"]), Fraction(r["sigma"]), r["case"], float(r["value"]))
                 for r in rows]
    except (ValueError, KeyError, csv.Error, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc}"], None
    grid = [(L, s) for L in meta["L_grid"] for s in meta["sigma_grid"]]
    if [(L, s) for L, s, _, _ in cells] != grid:
        return ["cells do not match the requested grid"], None
    fails, total = [], 0.0
    for L, s, case, value in cells:
        want, want_cases = classify_open(L, s) if tau is None else classify_periodic(L, s, tau)
        if not _close(value, want, TOL):
            fails.append(f"L={L} sigma={s}: value {value!r} != closed form {want!r}")
        if tuple(case.split("/")) != want_cases:
            fails.append(f"L={L} sigma={s}: cases {case} != closed-form winners {want_cases}")
        total += value
    return fails, total


def check_recover(meta: dict, out: str, oracle, witnesses):
    n, L, k = meta["n"], meta["L"], meta["k"]
    lines = out.splitlines()
    try:
        header, body, energy_line = lines
        value = Fraction(energy_line.split()[2])
    except (ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"], None
    fails = []
    if header.split()[:2] != [f"n={n}", f"L={L.numerator}/{L.denominator}"]:
        fails.append(f"header {header!r} does not match n={n}, L={L}")
    if len(body) != site_count(n, L) or set(body) - {"0", "1"}:
        return fails + [f"body is not {site_count(n, L)} bits"], None
    if body.count("1") != k:
        fails.append(f"volume {body.count('1')} != {k}")
    recount = Fraction(mismatches(body, n, periodic=False), n)
    if recount != value:
        fails.append(f"printed energy {value} != recount {recount}")
    bound = Fraction(2 * math.floor(L * n) + 3, n)
    if recount > bound:
        fails.append(f"energy {recount} above the recovery bound {bound}")
    return fails, value


CHECKS = {
    "minimize": check_minimize,
    "sweep": check_sweep,
    "classify": check_classify,
    "phase": check_phase,
    "recover": check_recover,
}


def load_witnesses(reference: dict) -> dict:
    """Witness energies keyed by (n, L, k, periodic), each verified on load."""
    out = {}
    for w in reference["witnesses"]:
        n, L, k = w["n"], Fraction(w["L"]), w["k"]
        bits = expand_rle(w["config"])
        energy = Fraction(mismatches(bits, n, periodic=False), n)
        if len(bits) != site_count(n, L) or bits.count("1") != k or energy != Fraction(w["energy"]):
            raise ValueError(f"reference witness for (n={n}, L={L}, k={k}) is inconsistent")
        out[(n, L, k, False)] = energy
    return out
