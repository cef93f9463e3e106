"""Request lists of the four workloads and of the false-exact audit.

A run executes the workload's fixed anchors once, then random sets drawn
from the workload's distribution: set 0, then fresh sets until the time is
up.  Random draws are stratified (one draw per stratum of a fixed design,
open volumes in (sigma, 1 - sigma) pairs) so that the work of a set, and
with it the end-to-end figures, depends little on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import defect, site_count

F = Fraction
OPEN_LS = (F(1), F(5, 4), F(7, 5), F(3, 2), F(3))
PARTIAL_LS = (F(5, 4), F(7, 5), F(3, 2))

# spinchain.solve's brute-force guard, used only to describe the workloads
FULL_SWEEP_MAX_N = 28
SUBSET_ENUM_MAX = 10**7

# open_dp random cells: narrow n bands per L, so that a set's work and its
# slowest requests vary little with the seed.  Bands stop where one request
# would exceed about 0.3 s; larger sizes come from the fixed anchors.
OPEN_DP_BANDS = {L: ((8, 11), (14, 17), (20, 23), (26, 29), (32, 35)) for L in OPEN_LS}
OPEN_DP_BANDS[F(3)] = ((8, 10), (12, 14), (16, 18), (20, 22))

# brute_all_k sweeps every volume of these lattices (n, N) per set; only L is
# drawn, because the sum of the minima over k moves by up to 40% between
# lattices of the stated sizes, and energy_sum should not depend on the seed.
# Each set's first request per lattice builds its table; with two open
# lattices of equal cost, the tail percentile (the 11th slowest request, after
# one cold N = 25 request per set) falls inside the open builds whether the
# run holds four sets or seven, not on the step down to the periodic one.
BRUTE_SHAPES = ((4, 22, False), (5, 22, False), (5, 21, True))

# ROADMAP item 1: instances where the column DP claims exact but a witness
# in reference.json does better.  They make up the `false_exact` audit, not
# `open_dp`: a benchmark workload has to be one on which no request fails.
FALSE_EXACT_ANCHORS = [
    (6, F(5, 4), 39),
    (7, F(3, 2), 65), (7, F(3, 2), 66), (7, F(3, 2), 67),
    (7, F(5, 4), 53), (7, F(5, 4), 54), (7, F(5, 4), 55),
]
# ROADMAP item 2 baseline rows
DP_BASELINE_ANCHORS = [(20, F(1), 200), (40, F(1), 800), (60, F(1), 1800),
                       (80, F(1), 3200), (40, F(3), 2400)]
BRUTE_BASELINE_ANCHORS = [(4, F(3, 2), 12), (5, F(1), 12), (4, F(7, 4), 14)]  # N = 24, 25, 28
PERIODIC_DP_ANCHOR = (16, F(7, 5), 179)
PERIODIC_AUTO_ANCHOR = (10, F(1), 50)

# Untimed warm-up: a column-DP shape that no workload uses, so it leaves the
# brute-force table cache empty.
WARMUP_ARGV = ["minimize", "--n", "7", "--L", "1", "--k", "20"]

WORKLOADS = ("open_dp", "periodic_mix", "brute_all_k", "continuum")
# Runs like a workload but is not one of BENCHMARK.json's: it fails until the
# column DP stops claiming exact on FALSE_EXACT_ANCHORS.
AUDITS = ("false_exact",)

# Kind of reference work whose time gives a workload's host-speed factor
# (run.REFERENCES; "mixed" when not named).  brute_all_k streams 16 MB numpy
# arrays, which a shared host slows unlike interpreter work: over eight runs
# its spreads were about half as wide scaled by streaming work as by mixed work.
REFERENCE_KIND = {"brute_all_k": "streaming"}


@dataclass
class Request:
    command: str
    argv: list
    meta: dict = field(default_factory=dict)
    scored: bool = False  # anchors and set 0: counted in energy_sum

    @property
    def tag(self) -> str:
        return " ".join(self.argv)


def fs(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def minimize(n, L, k, periodic=False, method=None) -> Request:
    argv = ["minimize", "--n", str(n), "--L", fs(L), "--k", str(k)]
    if periodic:
        argv.append("--periodic")
    if method:
        argv += ["--method", method]
    return Request("minimize", argv,
                   dict(n=n, L=L, k=k, periodic=periodic, expect_exact=method == "brute"))


def past_guard(n: int, L: Fraction, k: int) -> bool:
    N = site_count(n, L)
    return N > FULL_SWEEP_MAX_N and math.comb(N, k) > SUBSET_ENUM_MAX


class Writer:
    """Writes request input files (sweep specs, grids, targets) into workdir."""

    def __init__(self, workdir: str, prefix: str):
        self.workdir, self.prefix, self.count = workdir, prefix, 0

    def json(self, doc) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.prefix}-{self.count}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


def sweep(w: Writer, L, sigma, n_list, periodic) -> Request:
    path = w.json({"L": fs(L), "sigma": fs(sigma), "n_list": list(n_list),
                   "boundary": "periodic" if periodic else "open"})
    return Request("sweep", ["sweep", path],
                   dict(L=L, sigma=sigma, n_list=list(n_list), periodic=periodic))


def _stratified(rng, count: int, lo, hi, den: int, first=None) -> list[Fraction]:
    """`count` multiples of 1/den strictly inside (lo, hi), one per equal-width
    stratum: in random order, or in turn from stratum `first` when given."""
    width = F(hi - lo) / count
    out = []
    order = (rng.sample(range(count), count) if first is None
             else [(first + i) % count for i in range(count)])
    for i in order:
        x = F(round((lo + (i + F(rng.random())) * width) * den), den)
        out.append(min(max(x, lo + F(1, den)), hi - F(1, den)))
    return out


def _volume(sigma: Fraction, N: int) -> int:
    return min(max(round(sigma * N), 0), N)


def _partial_ns(L: Fraction, lo: int, hi: int) -> list[int]:
    """n in [lo, hi] with a partial last column, or all of them when L allows none."""
    return [n for n in range(lo, hi + 1) if defect(n, L)] or list(range(lo, hi + 1))


def _partial_n(rng, L: Fraction, lo: int, hi: int) -> int:
    return rng.choice(_partial_ns(L, lo, hi))


@dataclass
class Turn:
    """Takes the strata of a design in turn across sets: set s gets stratum
    (offset + s) mod count, the offset drawn once per run and key.  A run of a
    few sets then covers every stratum about equally, whatever the seed."""

    workload: str
    seed: int
    set_no: int

    def __call__(self, key: str, count: int) -> int:
        offset = random.Random(f"{self.workload}:{self.seed}:{key}").randrange(count)
        return (offset + self.set_no) % count


def _fresh_L(rng, n: int, N: int) -> Fraction:
    """An L with floor(L n^2) = N and a denominator no anchor uses, so the
    brute-force cache key (n, L) is new."""
    return F(1000 * N + rng.randint(1, 999), 1000 * n * n)


# --- fixed anchors ---------------------------------------------------------------
# Anchors run once per run, before the timed phase: each is checked and counted,
# and its time shows per call in the traced run, but a single 7 s request would
# otherwise set a third of the timed figures.


def anchors(workload: str) -> list[Request]:
    if workload == "open_dp":
        reqs = [minimize(n, L, k) for n, L, k in DP_BASELINE_ANCHORS]
    elif workload == "periodic_mix":
        reqs = [minimize(*PERIODIC_AUTO_ANCHOR, periodic=True),
                minimize(*PERIODIC_DP_ANCHOR, periodic=True, method="dp")]
    elif workload == "brute_all_k":  # before any set, so their table sweeps run cold
        reqs = [minimize(n, L, k, method="brute") for n, L, k in BRUTE_BASELINE_ANCHORS]
    else:
        reqs = []
    for r in reqs:
        r.scored = True
    return reqs


# --- random sets -------------------------------------------------------------------


def open_dp(rng, w: Writer, set_no: int, turn: Turn) -> list[Request]:
    reqs = []
    for band in range(max(len(b) for b in OPEN_DP_BANDS.values())):
        # The L values share one set of volume strata per band, so every set
        # has the same spread of large and small volumes among its slowest
        # requests.  The strata shift by one per band, so each L meets every
        # stratum once per set (its energies scale with L), and by one per set;
        # n within the band goes in turn too, since the cost grows about as n^4.8.
        Ls = [L for L in OPEN_LS if band < len(OPEN_DP_BANDS[L])]
        sigmas = _stratified(rng, len(Ls), 0, F(1, 2), 1000,
                             first=(turn("sigma", len(OPEN_LS)) + band) % len(Ls))
        for L, sigma in zip(Ls, sigmas):
            ns = _partial_ns(L, *OPEN_DP_BANDS[L][band])
            n = ns[turn(f"n:{L}:{band}", len(ns))]
            N = site_count(n, L)
            reqs += [minimize(n, L, _volume(sigma, N)), minimize(n, L, _volume(1 - sigma, N))]
    if set_no == 0:
        reqs.append(sweep(w, F(1), F(1, 2), (10, 20, 30, 40, 50), periodic=False))
    rng.shuffle(reqs)
    return reqs


def periodic_mix(rng, w: Writer, set_no: int, turn: Turn) -> list[Request]:
    reqs = []
    # past the brute-force guard: cyclic DP, then annealing.  Volume fractions
    # lie in (1/4, 3/4): near-empty rings have much lower minima, and one of
    # them more or less would move energy_sum by several percent.
    cells = [(L, lo, hi) for L in PARTIAL_LS for lo, hi in ((6, 10), (11, 16))]
    for (L, lo, hi), sigma in zip(cells, _stratified(rng, len(cells), F(1, 4), F(1, 2), 1000)):
        n = _partial_n(rng, L, lo, hi)
        N = site_count(n, L)
        k = _volume(sigma if rng.random() < 0.5 else 1 - sigma, N)
        while not past_guard(n, L, k):
            k += 1 if 2 * k < N else -1
        reqs.append(minimize(n, L, k, periodic=True))
    # within the guard: one fresh shape, so brute force runs once per shape
    n, N = 5, 22
    reqs.append(minimize(n, _fresh_L(rng, n, N), rng.randint(N // 2 - 2, N // 2 + 2),
                         periodic=True))
    if set_no == 0:
        reqs.append(sweep(w, F(5, 4), F(1, 2), (6, 7), periodic=True))
    rng.shuffle(reqs)
    return reqs


def brute_all_k(rng, w: Writer, set_no: int, turn: Turn) -> list[Request]:
    reqs = []
    for n, N, periodic in BRUTE_SHAPES:
        L = _fresh_L(rng, n, N)
        reqs += [minimize(n, L, k, periodic=periodic, method="brute") for k in range(N + 1)]
    # one cold full sweep of a fresh N = 25 shape: its chunks run on the thread pool
    n = rng.choice((4, 5))
    reqs.append(minimize(n, _fresh_L(rng, n, 25), rng.randint(0, 25), method="brute"))
    # subset enumeration: N > 28 with C(N, 3) <= 10^4
    for _ in range(3):
        n, N = rng.choice((5, 6)), rng.randint(30, 40)
        reqs.append(minimize(n, _fresh_L(rng, n, N), 3, periodic=rng.random() < 0.5,
                             method="brute"))
    rng.shuffle(reqs)
    return reqs


def _grid(u, count: int, lo, hi, den: int) -> list[Fraction]:
    """`count` evenly spaced multiples of 1/den strictly inside (lo, hi), all
    shifted by the offset u in [0, 1) of a spacing."""
    step = F(hi - lo) / count
    return [min(max(F(round((lo + (i + u) * step) * den), den), lo + F(1, den)), hi - F(1, den))
            for i in range(count)]


def continuum(rng, w: Writer, set_no: int, turn: Turn) -> list[Request]:
    def Ls(count):
        return _stratified(rng, count, F(1, 5), 3, 100)

    def sigmas(count):
        return _stratified(rng, count, 0, 1, 100)

    # Phase grids are 8 x 8, evenly spaced and shifted by
    # one random offset; the two periodic grids take tau_* and 1/2 - tau_* and
    # mirrored offsets.  The sum of the cell values then moves little with the seed.
    reqs = []
    tau, u = _stratified(rng, 1, 0, F(1, 2), 100)[0], F(rng.random())
    for t, shift in ((None, F(rng.random())), (tau, u), (F(1, 2) - tau, 1 - u)):
        L_grid = _grid(shift, 8, F(1, 5), 3, 100)
        sigma_grid = _grid(F(rng.random()), 8, 0, 1, 100)
        path = w.json({"L": [fs(x) for x in L_grid], "sigma": [fs(x) for x in sigma_grid],
                       "tau": None if t is None else fs(t)})
        reqs.append(Request("phase", ["phase", path],
                            dict(L_grid=L_grid, sigma_grid=sigma_grid, tau=t)))
    for L, sigma, t in zip(Ls(8), sigmas(8), _stratified(rng, 8, 0, 1, 50)):
        reqs.append(Request("classify",
                            ["classify", "--L", fs(L), "--sigma", fs(sigma), "--tau", fs(t)],
                            dict(L=L, sigma=sigma, tau=t)))
    # recover: n from the i-th stratum of 10..80 at the i-th L, so the largest
    # constructions (L = 3, n near 80) recur in every set
    for i, (L, frac) in enumerate(zip(OPEN_LS, sigmas(len(OPEN_LS)))):
        n = rng.randint(10 + 14 * i, 23 + 14 * i)
        cut = F(rng.randint(1, 9), 10) * L
        path = w.json({"L": fs(L), "pieces": [
            {"to": fs(cut), "value": fs(F(rng.randint(0, 10), 10))},
            {"to": fs(L), "value": fs(F(rng.randint(0, 10), 10))}]})
        k = _volume(frac, site_count(n, L))
        reqs.append(Request("recover", ["recover", "--target", path, "--n", str(n),
                                        "--volume", str(k)], dict(n=n, L=L, k=k)))
    rng.shuffle(reqs)
    return reqs


def false_exact(rng, w: Writer, set_no: int, turn: Turn) -> list[Request]:
    reqs = [minimize(n, L, k) for n, L, k in FALSE_EXACT_ANCHORS]
    rng.shuffle(reqs)
    return reqs


GENERATORS = {"open_dp": open_dp, "periodic_mix": periodic_mix,
              "brute_all_k": brute_all_k, "continuum": continuum,
              "false_exact": false_exact}


def make_set(workload: str, seed: int, set_no: int, workdir: str) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}:{set_no}")
    reqs = GENERATORS[workload](rng, Writer(workdir, f"set{set_no}"), set_no,
                                Turn(workload, seed, set_no))
    for r in reqs:
        r.scored = set_no == 0
    return reqs


def _shape_reuse_share(brute: list[Request]) -> float:
    seen, reused = set(), 0
    for r in brute:
        shape = (r.meta["n"], r.meta["L"], r.meta["periodic"])
        reused += shape in seen
        seen.add(shape)
    return reused / len(brute) if brute else 0.0


def property_shares(workload: str, reqs: list[Request]) -> dict:
    """Shares of the requests run that have the property a later change may rely on."""
    mins = [r for r in reqs if r.command == "minimize"]
    if workload == "open_dp":
        return {"partial_col_share": sum(defect(r.meta["n"], r.meta["L"]) != 0 for r in mins)
                / len(mins)}
    if workload == "periodic_mix":
        auto = [r for r in mins if "--method" not in r.argv]
        guarded = [past_guard(r.meta["n"], r.meta["L"], r.meta["k"]) for r in auto]
        brute = [r for r, g in zip(auto, guarded)
                 if not g and 0 < r.meta["k"] < site_count(r.meta["n"], r.meta["L"])]
        return {"past_guard_share": sum(guarded) / len(auto),
                "shape_reuse_share": _shape_reuse_share(brute)}
    if workload == "brute_all_k":
        return {"shape_reuse_share": _shape_reuse_share(mins)}
    return {}
