"""spinchain benchmark: one closed-loop client driving the CLI in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload open_dp --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Each request is a ``spinchain`` command line passed to ``spinchain.cli.main``
and starts after the previous one returns.  A run executes the workload's
fixed anchors, then the timed phase of random sets (``workloads.py``); every
answer is checked by ``checks.py`` afterwards.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it runs two untraced
passes over the anchors and the first sets, then everything with spans
around spinchain's module boundaries (``tracer.py``), and reports the
per-layer metrics.  The last line of standard output is one JSON object; a result file
with the run's context goes to ``perfbench/results/``.

End-to-end timings are scaled to a nominal host speed.  Fixed reference work
of the workload's kind (``REFERENCES``) is timed between requests and
between set-ups, and the timed phase's figures are multiplied by its median
factor ``<nominal time> / <reference time>``, the set-up figure by the
set-ups' own.  On a shared machine a core's speed drifts by up to half over
minutes; the scaled figures follow the program, and the raw wall-clock ones
are printed and stored beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402  (the oracle in checks.py needs it)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 9
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
OVERHEAD_PASS_S = 3.0  # least work in the passes that trace.overhead_frac compares
REF_REPS = 5
REF_EVERY_S = 0.2  # least time between two samples of the host's speed


@dataclass
class Outcome:
    req: workloads.Request
    latency: float
    rc: object
    out: str
    err: str


def _mixed_work():
    """Pure Python (exact Fractions, int bit counts, dicts) and small numpy
    tables (the column DP's broadcast-add, min and argmin)."""
    acc, table = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i)
        m = (i * 2654435761) & 0xFFFFFFFF
        table[m % 97] = table.get(m % 97, 0) + (m ^ (m >> 3)).bit_count()
    dp = np.arange(41 * 801, dtype=np.int64).reshape(41, 801) % 97
    for a in range(6):
        cand = dp + (np.arange(41, dtype=np.int64) * a)[:, None]
        dp[a] = cand.min(axis=0) + cand.argmin(axis=0)
    return acc, sorted(table.items()), int(dp.sum())


@functools.cache
def _stream_input():
    return np.arange(1 << 20, dtype=np.uint32)


def _streaming_work():
    """The brute-force sweep's kind of work: popcounts streamed over 4 MB arrays."""
    c = _stream_input()
    return int(np.bitwise_count((c ^ (c >> np.uint32(1))) & np.uint32(0xFFFFF)).sum())


# reference work per kind, with its median time on the nominal host (2-vCPU Xeon VM)
REFERENCES = {"mixed": (_mixed_work, 1.2e-3), "streaming": (_streaming_work, 3.6e-3)}


def host_scale(workload: str) -> float:
    """The nominal time of the workload's reference work over the median
    time of REF_REPS runs of it."""
    work, nominal = REFERENCES[workloads.REFERENCE_KIND.get(workload, "mixed")]
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return nominal / statistics.median(times)


def fresh_cli(src: str):
    """Import spinchain anew from src (cold module state and caches)."""
    for name in [m for m in sys.modules if m == "spinchain" or m.startswith("spinchain.")]:
        del sys.modules[name]
    cli = importlib.import_module("spinchain.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"spinchain was imported from {cli.__file__}, not {src}")
    return cli


def execute(cli, req, tracer=None, request_id=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(list(req.argv))
            else:
                rc = tracer.request_span(request_id, cli.main, list(req.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed request; the run goes on
        rc = "exception"
        err.write(traceback.format_exc(limit=4))
    latency = time.perf_counter() - t0
    return Outcome(req, latency, rc, out.getvalue(), err.getvalue())


def timed_phase(cli, seconds, workload, seed, workdir, set0, tracer=None, first_id=0):
    """Set 0 whole, then requests of fresh sets until the walls reach `seconds`.

    Later sets are drawn between sets, outside the timed walls, and the stop
    falls between any two requests: with whole sets only, the figures would
    jump whenever one more set fits.

    The host's speed is sampled before a request whenever REF_EVERY_S has
    passed since the last sample, and after the last request.  The median
    factor of these samples scales the whole phase: a single sample swings
    with the core it lands on, and a single request's time by as much, so
    only the drift from run to run is taken out.  A set's wall is the sum of
    its latencies, so the sampling stays outside it.  Returns the outcomes,
    the raw walls and the host factor.
    """
    outcomes, walls = [], []
    factors, last_sample = [host_scale(workload)], time.perf_counter()
    while not walls or sum(walls) < seconds:
        n = len(walls)
        reqs = set0 if n == 0 else workloads.make_set(workload, seed, n, workdir)
        wall = 0.0
        for req in reqs:
            if n and sum(walls) + wall >= seconds:
                break
            if time.perf_counter() - last_sample >= REF_EVERY_S:
                factors.append(host_scale(workload))
                last_sample = time.perf_counter()
            o = execute(cli, req, tracer, first_id + len(outcomes))
            outcomes.append(o)
            wall += o.latency
        walls.append(wall)
    factors.append(host_scale(workload))
    return outcomes, walls, statistics.median(factors)


def check_all(outcomes, oracle, witnesses):
    """Failures per request index, and the energy returned by each scored request."""
    failures, energy = {}, Fraction(0)
    energy_float = 0.0
    for i, o in enumerate(outcomes):
        if o.rc != 0:
            failures[i] = [f"exit code {o.rc}: {o.err.strip()[-300:]}"]
            continue
        fails, e = checks.CHECKS[o.req.command](o.req.meta, o.out, oracle, witnesses)
        if fails:
            failures[i] = fails
        if o.req.scored and e is not None:
            if isinstance(e, Fraction):
                energy += e
            else:
                energy_float += e
    return failures, float(energy) + energy_float


def tail(latencies):
    """(value, percentile label): the highest percentile with TAIL_BEYOND samples
    above it, or the median when that percentile would lie below the median."""
    xs = sorted(latencies)
    m = len(xs)
    if m < 2 * TAIL_BEYOND + 2:
        return statistics.median(xs), "p50"
    return xs[m - TAIL_BEYOND - 1], f"p{100 * (m - TAIL_BEYOND) / m:.1f}"


# --- context stamp -----------------------------------------------------------------


def git_revision(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "spinchain")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def context(args, root: str, src: str) -> dict:
    return {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(src),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- per-layer metrics ----------------------------------------------------------------


def _ncols(n: int, L: Fraction) -> int:
    return math.floor(L * n) + (1 if checks.defect(n, L) else 0)


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def layer_metrics(spans, overhead_frac: float) -> dict:
    by = defaultdict(list)
    for s in spans:
        by[s.layer].append(s)

    def busy(layer):
        return sum(s.duration for s in by[layer])

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for layer in ("solve.column_dp", "solve.brute", "solve.periodic", "solve.cyclic_dp",
                  "solve.anneal", "lattice.energy", "classify", "continuum", "recover"):
        put(f"{layer}.calls", len(by[layer]), "count")
        put(f"{layer}.busy_s", busy(layer), "s")

    dp = by["solve.column_dp"]
    states = sum(_ncols(s.info["n"], Fraction(s.info["L"])) * (s.info["n"] + 1) * (s.info["k"] + 1)
                 for s in dp)
    put("solve.column_dp.states", states, "count")
    put("solve.column_dp.ns_per_state", busy("solve.column_dp") * 1e9 / states if states else 0.0,
        "ns")
    anchors = {(n, str(L), k) for n, L, k in workloads.DP_BASELINE_ANCHORS if L == 1}
    points = [(s.info["n"], s.duration) for s in dp
              if (s.info["n"], s.info["L"], s.info["k"]) in anchors]
    put("solve.column_dp.exp_n", _slope(points) if len({n for n, _ in points}) > 1 else 0.0,
        "exponent")

    seen, reused, returned = set(), 0, 0
    for s in sorted(by["solve.brute"], key=lambda s: s.start):
        if s.info.get("returned"):
            shape = tuple(s.info["shape"])
            reused += shape in seen
            returned += 1
            seen.add(shape)
    put("solve.brute.shape_reuse_share", reused / returned if returned else 0.0, "ratio")

    steps = sum(s.info.get("steps", 0) for s in by["solve.anneal"])
    anneal_busy = busy("solve.anneal")
    put("solve.anneal.steps_per_s", steps / anneal_busy if anneal_busy else 0.0, "steps/s")
    heuristic = [s for s in by["solve.periodic"] if s.info.get("exact") is False]
    wins = sum(s.info["method"] == "LocalSearch" for s in heuristic)
    put("solve.anneal.win_ratio", wins / len(heuristic) if heuristic else 0.0, "ratio")

    put("cli.self_s", sum(s.duration - s.child_s for s in by["cli"]), "s")
    put("cli.sweep.busy_s", busy("cli.sweep"), "s")
    put("trace.overhead_frac", overhead_frac, "ratio")
    return out


# --- the run --------------------------------------------------------------------------


def run(args, root: str, src: str, workdir: str) -> int:
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    witnesses = checks.load_witnesses(reference)
    oracle = checks.Oracle(reference)
    stamp = context(args, root, src)
    print("# context " + json.dumps(stamp))

    # set-up: import, set-0 generation and one untimed warm-up request, repeated
    host_scale(args.workload)  # the reference work's first runs in a process are slower
    setup_raw, setup_factors = [], []
    warmup = workloads.Request("minimize", workloads.WARMUP_ARGV)
    for _ in range(SETUP_REPS):
        gc.collect()  # each set-up starts from a collected heap
        setup_factors.append(host_scale(args.workload))
        t0 = time.perf_counter()
        cli = fresh_cli(src)
        fixed = workloads.anchors(args.workload)
        set0 = workloads.make_set(args.workload, args.seed, 0, workdir)
        w = execute(cli, warmup)
        setup_raw.append(time.perf_counter() - t0)
        if w.rc != 0:
            print(f"warm-up request failed ({w.rc}): {w.err.strip()}", file=sys.stderr)
            return 1

    if args.trace:
        # Two untraced passes, each on a fresh import: the first warms the process
        # and extends set 0 with further sets until it has run OVERHEAD_PASS_S; the
        # second, over the same requests, is the baseline of the traced pass.
        gc.collect()
        t0 = time.perf_counter()
        prefix = fixed + set0
        plain = [execute(cli, req) for req in prefix]
        set_no = 1
        while time.perf_counter() - t0 < OVERHEAD_PASS_S:
            extra_set = workloads.make_set(args.workload, args.seed, set_no, workdir)
            plain += [execute(cli, req) for req in extra_set]
            prefix += extra_set
            set_no += 1
        cli = fresh_cli(src)
        gc.collect()
        baseline = [execute(cli, req) for req in prefix]
        plain += baseline
        cli = fresh_cli(src)
        gc.collect()
        tracer = Tracer()
        tracer.install()
        anchored = [execute(cli, req, tracer, i) for i, req in enumerate(fixed)]
        timed, walls, _ = timed_phase(cli, args.seconds, args.workload, args.seed, workdir,
                                      set0, tracer, first_id=len(fixed))
        compared = min(len(prefix), len(anchored + timed))
        untraced_wall = sum(o.latency for o in baseline[:compared])
        traced_wall = sum(o.latency for o in (anchored + timed)[:compared])
        metrics = layer_metrics(tracer.spans, (traced_wall - untraced_wall) / untraced_wall)
        samples = {name: 1 if name == "trace.overhead_frac" else
                   sum(s.layer == name.rsplit(".", 1)[0] for s in tracer.spans)
                   for name in metrics}
        spans_file = os.path.join(HERE, "results",
                                  f"{args.workload}-seed{args.seed}.spans.jsonl")
        tracer.dump(spans_file)
        extra = {"spans_file": os.path.relpath(spans_file, root),
                 "overhead_requests": compared,
                 "untraced_s": untraced_wall, "traced_s": traced_wall,
                 "missing_targets": tracer.missing}
        for name in tracer.missing:
            print(f"# trace target missing: {name}")
        for o in anchored:  # the ROADMAP baseline rows, per call
            print(f"# anchor {o.req.tag} {o.latency:.4f} s")
        outcomes = plain + anchored + timed
    else:
        anchored = [execute(cli, req) for req in fixed]
        timed, walls, factor = timed_phase(cli, args.seconds, args.workload, args.seed,
                                           workdir, set0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = anchored + timed

    failures, energy_sum = check_all(outcomes, oracle, witnesses)
    attempted = len(outcomes)
    if not args.trace:
        raw_latencies = [o.latency for o in timed]
        latencies = [t * factor for t in raw_latencies]
        tail_value, tail_label = tail(latencies)
        setup_factor = statistics.median(setup_factors)
        metrics = {
            "setup_s": (statistics.median(setup_raw) * setup_factor, "s"),
            "throughput_rps": (len(timed) / (sum(walls) * factor), "requests/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (tail_value, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_frac": (len(failures) / attempted, "ratio"),
            "energy_sum": (energy_sum, "energy"),
        }
        raw = {
            "setup_s": statistics.median(setup_raw),
            "throughput_rps": len(timed) / sum(walls),
            "latency_p50_s": statistics.median(raw_latencies),
            "latency_tail_s": tail(raw_latencies)[0],
        }
        samples = {"setup_s": SETUP_REPS, "throughput_rps": len(timed),
                   "latency_p50_s": len(timed), "latency_tail_s": len(timed),
                   "peak_rss_mb": 1, "failed_frac": attempted,
                   "energy_sum": sum(o.req.scored for o in outcomes)}
        extra = {"latency_tail_percentile": tail_label, "set_walls_s": walls,
                 "host_factor": factor, "setup_host_factor": setup_factor,
                 "raw_metrics": raw}

    props = workloads.property_shares(args.workload, [o.req for o in anchored + timed])
    for name, value in props.items():
        print(f"# property {args.workload}.{name} {value:.4f}")
    for i, fails in sorted(failures.items()):
        for f in fails:
            print(f"# FAIL [{i}] {outcomes[i].req.tag}: {f}")
    print(f"# {attempted} requests ({len(fixed)} anchors, then {len(walls)} sets), "
          f"{len(failures)} failed")
    for name, (value, unit) in metrics.items():
        label = f" ({extra['latency_tail_percentile']})" if name == "latency_tail_s" else ""
        print(f"# metric {name}{label} {value:.6g} {unit} ({samples[name]} samples)")
    for name, value in extra.get("raw_metrics", {}).items():
        print(f"# raw {name} {value:.6g} {metrics[name][1]} (wall clock, unscaled)")
    if "host_factor" in extra:
        print(f"# host factor {extra['host_factor']:.4f} "
              f"(set-up {extra['setup_host_factor']:.4f}): nominal / reference time")

    stamp["samples"] = samples
    result = {
        "context": stamp,
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                    for k, (v, u) in metrics.items()},
        "properties": props,
        "failures": [{"index": i, "request": outcomes[i].req.tag, "failures": f}
                     for i, f in sorted(failures.items())],
        "requests": [[o.req.tag, o.latency] for o in outcomes],
        **extra,
    }
    path = os.path.join(HERE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    reported = {k: v for k, v in metrics.items() if k != "failed_frac"}  # never-zero metrics
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS + workloads.AUDITS + ("all",),
                    required=True,
                    help="'all' runs the four workloads one after another, each in its own "
                         "process; 'false_exact' is the audit of ROADMAP item 1")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in workloads.WORKLOADS]
        return max(codes)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spinchain", "cli.py")):
        print(f"error: no spinchain sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=os.path.join(HERE, "results"))
    try:
        return run(args, root, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
