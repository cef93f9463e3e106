"""Command-line harness: energies, minimization, classification, sweeps, rendering.

Subcommands
-----------
energy      evaluate a configuration file
minimize    ground state at a given volume
classify    continuum minimizer for (L, sigma[, tau])
sweep       discrete minima vs. continuum limit over a list of finenesses (CSV)
phase       classification over an (L, sigma) grid (CSV and optional SVG)
recover     build an approximating configuration for a step-function target
render      draw a configuration as ASCII art or SVG

All numeric arguments accept exact rationals like 3/2.  Exit codes:
0 success, 2 invalid input, 3 exact solver guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .classify import MinimizerReport, classify_open, classify_periodic, phase_diagram
from .continuum import PiecewiseConstant
from .lattice import (
    SpinConfig,
    column_heights,
    config_to_text,
    energy_open,
    energy_periodic,
    is_periodic,
    lambda_defect,
    parse_config,
    site_count,
)
from .rationals import frac
from .solve import SolverGuardError, minimize
from .recover import recovery_constrained, recovery_unconstrained


@dataclass(frozen=True)
class SweepSpec:
    """One convergence sweep: fixed (L, sigma, boundary), increasing finenesses.

    The volume at fineness n is the nearest integer to sigma * floor(L n^2),
    ties to even, clamped to the feasible range.
    """

    L: Fraction
    sigma: Fraction
    n_list: tuple[int, ...]
    boundary: str = "open"

    def __post_init__(self):
        object.__setattr__(self, "L", frac(self.L))
        object.__setattr__(self, "sigma", frac(self.sigma))
        if not isinstance(self.n_list, (list, tuple)) or not all(
                type(n) is int and n >= 1 for n in self.n_list):
            raise ValueError("n_list must be a list of integers >= 1")
        object.__setattr__(self, "n_list", tuple(self.n_list))
        is_periodic(self.boundary)
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be strictly increasing")

    def volume_at(self, n: int) -> int:
        N = site_count(n, self.L)
        k = round(self.sigma * N)
        return min(max(k, 0), N)

    @staticmethod
    def from_json(text: str) -> "SweepSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("sweep spec must be a JSON object")
        return SweepSpec(
            L=frac(str(doc["L"])),
            sigma=frac(str(doc["sigma"])),
            n_list=doc["n_list"],
            boundary=doc.get("boundary", "open"),
        )


def _sweep_row(spec: SweepSpec, n: int) -> dict:
    L, sigma = spec.L, spec.sigma
    k = spec.volume_at(n)
    tau_n = Fraction(lambda_defect(n, L), n)
    res = minimize(n, L, k, spec.boundary)
    if spec.boundary == "open":
        continuum = classify_open(L, sigma).value
    else:
        continuum = classify_periodic(L, sigma, tau_n).value
    return {
        "n": n,
        "k_n": k,
        "tau_n": f"{tau_n.numerator}/{tau_n.denominator}",
        "discrete_min": float(res.value),
        "method": res.method,
        "exact": res.exact,
        "continuum_min": continuum,
        "gap": float(res.value) - continuum,
    }


SWEEP_COLUMNS = ["n", "k_n", "tau_n", "discrete_min", "method", "exact",
                 "continuum_min", "gap"]


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Rows in n_list order, one ``minimize`` call each."""
    return [_sweep_row(spec, n) for n in spec.n_list]


# --- rendering ----------------------------------------------------------------


def render_config(cfg: SpinConfig, fmt: str = "ascii") -> str:
    """ASCII art ('#'/'.' cells, top row first) or SVG of the column picture."""
    heights = column_heights(cfg.n, cfg.L)
    cols = cfg.columns()
    if fmt == "ascii":
        lines = []
        for row in range(cfg.n, 0, -1):
            cells = []
            for h, col in zip(heights, cols):
                cells.append(" " if row > h else ("#" if col[row - 1] else "."))
            lines.append("".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "svg":
        cell = 20
        w, hpx = len(cols) * cell, cfg.n * cell
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{hpx}" '
            f'viewBox="0 0 {w} {hpx}">'
        ]
        for ci, (h, col) in enumerate(zip(heights, cols)):
            for row in range(1, h + 1):
                fill = "#000" if col[row - 1] else "#fff"
                y = (cfg.n - row) * cell
                parts.append(
                    f'<rect x="{ci * cell}" y="{y}" width="{cell}" height="{cell}" '
                    f'fill="{fill}" stroke="#999" stroke-width="1"/>'
                )
        parts.append("</svg>")
        return "".join(parts) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_ascii(text: str, L=None) -> SpinConfig:
    """Invert render_config's ASCII output ('#'/'.'/' ' cells).

    The drawing determines the site count but not the exact rational L;
    pass L to reproduce a configuration whose length is not N/n^2.
    """
    lines = text.splitlines()
    while lines and not lines[-1]:
        lines.pop()
    n = len(lines)
    if n == 0:
        raise ValueError("empty drawing")
    ncols = max(len(ln) for ln in lines)

    def cell(h, row):  # row 1 = bottom = last line
        ln = lines[n - row]
        return ln[h - 1] if h - 1 < len(ln) else " "

    values = []
    for h in range(1, ncols + 1):
        height = 0
        while height < n and cell(h, height + 1) != " ":
            height += 1
        for row in range(height + 1, n + 1):
            if cell(h, row) != " ":
                raise ValueError(f"column {h} has floating cells")
        for row in range(1, height + 1):
            values.append(1 if cell(h, row) == "#" else 0)
    N = len(values)
    return SpinConfig(n, Fraction(N, n * n) if L is None else frac(L), tuple(values))


def render_minimizer(report: MinimizerReport, fmt: str = "svg") -> str:
    """Step-function curves with shaded subgraphs, annotated with the energy."""
    if not report.representatives:
        raise ValueError("report carries no representatives")
    if fmt != "svg":
        raise ValueError("minimizer plots are SVG only")
    panel_w, panel_h, pad = 220, 160, 18
    n_panels = len(report.representatives)
    W = n_panels * (panel_w + pad) + pad
    H = panel_h + 3 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<text x="{pad}" y="{pad - 4}" font-size="12">'
        f"case {'/'.join(report.cases)}  value {report.value:.6g}</text>",
    ]
    for pi, u in enumerate(report.representatives):
        ox = pad + pi * (panel_w + pad)
        oy = pad
        L = float(u.L)
        sx, sy = panel_w / L, panel_h
        parts.append(
            f'<rect x="{ox}" y="{oy}" width="{panel_w}" height="{panel_h}" '
            f'fill="none" stroke="#333"/>'
        )
        for a, b, v in u.pieces():
            x0, x1, val = float(a) * sx, float(b) * sx, float(v)
            if val > 0:
                parts.append(
                    f'<rect x="{ox + x0:.2f}" y="{oy + panel_h - val * sy:.2f}" '
                    f'width="{x1 - x0:.2f}" height="{val * sy:.2f}" fill="#7aa6d6"/>'
                )
            parts.append(
                f'<line x1="{ox + x0:.2f}" y1="{oy + panel_h - val * sy:.2f}" '
                f'x2="{ox + x1:.2f}" y2="{oy + panel_h - val * sy:.2f}" '
                f'stroke="#103c67" stroke-width="2"/>'
            )
        parts.append(
            f'<text x="{ox}" y="{oy + panel_h + 14}" font-size="11">'
            f"boundary {report.boundary}</text>"
        )
    parts.append("</svg>")
    return "".join(parts) + "\n"


def _phase_csv(L_grid, sigma_grid, tau, rows, out) -> None:
    writer = csv.writer(out)
    writer.writerow(["L", "sigma", "tau", "case", "value"])
    for L, row in zip(L_grid, rows):
        for sigma, rep in zip(sigma_grid, row):
            writer.writerow(
                [L, sigma, "" if tau is None else tau, "/".join(rep.cases),
                 f"{rep.value:.12g}"]
            )


_CASE_COLORS = {"A": "#e6a03c", "B": "#4878c9", "C": "#53a356", "D": "#b5543e"}


def _phase_svg(L_grid, sigma_grid, rows) -> str:
    cell = 14
    W, H = len(sigma_grid) * cell + 60, len(L_grid) * cell + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">'
    ]
    for li, row in enumerate(rows):
        for si, rep in enumerate(row):
            color = _CASE_COLORS.get(rep.case, "#999")
            y = (len(L_grid) - 1 - li) * cell + 20
            parts.append(
                f'<rect x="{40 + si * cell}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}"><title>L={L_grid[li]} sigma={sigma_grid[si]} '
                f'case={"/".join(rep.cases)}</title></rect>'
            )
    parts.append('<text x="4" y="16" font-size="11">cases: ' + " ".join(
        f"{c}={col}" for c, col in _CASE_COLORS.items()) + "</text>")
    parts.append("</svg>")
    return "".join(parts) + "\n"


# --- entry point ----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    ap = argparse.ArgumentParser(prog="spinchain", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="evaluate a configuration file")
    p.add_argument("config_file")
    p.add_argument("--periodic", action="store_true")

    p = sub.add_parser("minimize", help="volume-constrained ground state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=str, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--method", choices=["auto", "brute", "dp"], default="auto")

    p = sub.add_parser("classify", help="continuum minimizer classification")
    p.add_argument("--L", type=str, required=True)
    p.add_argument("--sigma", type=str, required=True)
    p.add_argument("--tau", type=str, default=None)
    p.add_argument("--svg", type=str, default=None, help="write a minimizer plot")

    p = sub.add_parser("sweep", help="discrete-vs-continuum sweep from a JSON spec")
    p.add_argument("spec_json")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("phase", help="phase diagram over an (L, sigma) grid")
    p.add_argument("grid_json")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("recover", help="approximating configuration for a target")
    p.add_argument("--target", required=True, help="step function JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--volume", type=int, default=None)

    p = sub.add_parser("render", help="draw a configuration")
    p.add_argument("config_file")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("-o", "--output", default=None)
    return ap


def _write(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_energy(args) -> int:
    with open(args.config_file) as fh:
        cfg, boundary = parse_config(fh.read())
    periodic = args.periodic or is_periodic(boundary)
    value = energy_periodic(cfg) if periodic else energy_open(cfg)
    print(f"{value.numerator}/{value.denominator} ({float(value):.9g})")
    return 0


def _cmd_minimize(args) -> int:
    res = minimize(args.n, frac(args.L), args.k,
                   "periodic" if args.periodic else "open", args.method)
    print(res.to_json())
    return 0


def _cmd_classify(args) -> int:
    if args.tau is None:
        rep = classify_open(frac(args.L), frac(args.sigma))
    else:
        rep = classify_periodic(frac(args.L), frac(args.sigma), frac(args.tau))
    doc = {
        "case": rep.case,
        "cases": list(rep.cases),
        "value": rep.value,
        "degenerate": rep.degenerate,
        "degeneracy": rep.degeneracy,
        "boundary": rep.boundary,
        "representatives": [json.loads(u.to_json()) for u in rep.representatives],
    }
    print(json.dumps(doc, indent=2))
    if args.svg:
        _write(render_minimizer(rep), args.svg)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.spec_json) as fh:
        spec = SweepSpec.from_json(fh.read())
    rows = run_sweep(spec)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args.output)
    return 0


def _cmd_phase(args) -> int:
    with open(args.grid_json) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("phase grid must be a JSON object")
    if not (isinstance(doc["L"], list) and isinstance(doc["sigma"], list)):
        raise ValueError("phase grid L and sigma must be lists")
    L_grid = [frac(str(x)) for x in doc["L"]]
    sigma_grid = [frac(str(x)) for x in doc["sigma"]]
    tau = frac(str(doc["tau"])) if doc.get("tau") is not None else None
    rows = phase_diagram(L_grid, sigma_grid, tau)
    buf = io.StringIO()
    _phase_csv(L_grid, sigma_grid, tau, rows, buf)
    _write(buf.getvalue(), args.output)
    if args.svg:
        _write(_phase_svg(L_grid, sigma_grid, rows), args.svg)
    return 0


def _cmd_recover(args) -> int:
    with open(args.target) as fh:
        u = PiecewiseConstant.from_json(fh.read())
    if args.volume is None:
        cfg = recovery_unconstrained(u, args.n)
    else:
        cfg = recovery_constrained(args.n, u.L, args.volume)
    sys.stdout.write(config_to_text(cfg))
    e = energy_open(cfg)
    print(f"# energy {e.numerator}/{e.denominator} ({float(e):.9g})")
    return 0


def _cmd_render(args) -> int:
    with open(args.config_file) as fh:
        cfg, _ = parse_config(fh.read())
    _write(render_config(cfg, args.format), args.output)
    return 0


_COMMANDS = {
    "energy": _cmd_energy,
    "minimize": _cmd_minimize,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "phase": _cmd_phase,
    "recover": _cmd_recover,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SolverGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
