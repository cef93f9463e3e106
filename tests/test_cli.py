"""CLI and rendering tests."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinchain import (SpinConfig, brute_force_min, classify_open, config_to_text, minimize,
                       phase_diagram)
from spinchain.classify import MinimizerReport
from spinchain import cli
from spinchain.cli import (
    SweepSpec,
    main,
    parse_ascii,
    render_config,
    render_minimizer,
    run_sweep,
)

F = Fraction


class TestRenderConfig:
    def test_left_column(self):
        cfg = SpinConfig(2, 1, (1, 1, 0, 0))
        assert render_config(cfg) == "#.\n#.\n"

    def test_bottom_row(self):
        cfg = SpinConfig(2, 1, (1, 0, 1, 0))
        assert render_config(cfg) == "..\n##\n"

    def test_all_ones(self):
        cfg = SpinConfig(3, 1, (1,) * 9)
        assert render_config(cfg) == "###\n###\n###\n"

    def test_partial_column_padded(self):
        cfg = SpinConfig(2, F(5, 4), (1, 0, 0, 1, 1))
        assert render_config(cfg) == ".# \n#.#\n"

    def test_round_trip(self):
        import random
        rng = random.Random(17)
        for n, L in [(2, 1), (3, F(3, 2)), (4, F(9, 8)), (5, 1)]:
            values = tuple(rng.randint(0, 1) for _ in range(int(L * n * n)))
            cfg = SpinConfig(n, L, values)
            assert parse_ascii(render_config(cfg), L=L) == cfg

    def test_svg_contains_cells(self):
        svg = render_config(SpinConfig(2, 1, (1, 1, 0, 0)), "svg")
        assert svg.startswith("<svg") and svg.count("<rect") == 4


class TestRenderMinimizer:
    def test_slab_panel(self):
        svg = render_minimizer(classify_open(1, F(3, 10)))
        assert "case B" in svg and "value 1" in svg

    def test_refuses_empty(self):
        empty = MinimizerReport("A", ("A",), 0.0, None, [], False, "", "open")
        with pytest.raises(ValueError):
            render_minimizer(empty)


class TestSweep:
    def test_open_rows(self):
        spec = SweepSpec(L=1, sigma=F(1, 2), n_list=(2, 4, 8))
        rows = run_sweep(spec)
        assert [r["n"] for r in rows] == [2, 4, 8]
        first = rows[0]
        assert first["k_n"] == 2
        assert first["tau_n"] == "0/1"
        assert first["discrete_min"] == 1.5
        assert first["exact"] is False  # a column-DP answer at 0 < k < N
        assert first["continuum_min"] == 1.0
        assert first["gap"] == 0.5
        for r in rows:
            assert r["continuum_min"] == 1.0
            assert r["method"] == "ColumnDP"

    def test_periodic_tau_constant_on_even_n(self):
        spec = SweepSpec(L=F(3, 2), sigma=F(1, 3), n_list=(2, 4, 6), boundary="periodic")
        rows = run_sweep(spec)
        assert all(r["tau_n"] == "0/1" for r in rows)

    def test_open_gap_column_properties(self):
        from spinchain import energy_open, recovery_constrained
        spec = SweepSpec(L=1, sigma=F(1, 2), n_list=(4, 8, 16))
        rows = run_sweep(spec)
        gaps = [r["gap"] for r in rows]
        assert all(g >= -1e-12 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        # the exact minimum never exceeds the constrained recovery energy
        for r in rows:
            rec = recovery_constrained(r["n"], spec.L, r["k_n"])
            assert r["discrete_min"] <= float(energy_open(rec)) + 1e-12

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_rows_match_minimize(self, boundary):
        # n = 6 (N = 45) is past the split-cut sweep
        spec = SweepSpec(L=F(5, 4), sigma=F(1, 2), n_list=(2, 3, 6), boundary=boundary)
        for row in run_sweep(spec):
            res = minimize(row["n"], spec.L, row["k_n"], boundary)
            assert row["discrete_min"] == float(res.value)
            assert (row["method"], row["exact"]) == (res.method, res.exact)

    def test_periodic_rows_inside_the_budget_are_transfer_matrix(self):
        # n = 3, 6: N = 11, 45, so 4^n N (min(k, N - k) + 1) fits
        # TRANSFER_BUDGET; 8/3 is the brute-force minimum at (3, 5/4, 6)
        spec = SweepSpec(L=F(5, 4), sigma=F(1, 2), n_list=(3, 6), boundary="periodic")
        rows = run_sweep(spec)
        assert [(r["method"], r["exact"]) for r in rows] == [("TransferMatrix", True)] * 2
        assert [r["discrete_min"] for r in rows] == [float(F(8, 3)), float(F(7, 3))]

    def test_large_open_row_is_column_dp(self):
        # (n+1)(k+1)ncols is just over 5e7 states here; a state budget once sent
        # this row to annealing, which returned 503/20
        (row,) = run_sweep(SweepSpec(L=1, sigma=F(1, 2), n_list=(100,)))
        assert (row["k_n"], row["method"], row["exact"]) == (5000, "ColumnDP", False)
        assert row["discrete_min"] == float(F(101, 100))

    def test_volume_rule_ties_to_even(self):
        spec = SweepSpec(L=1, sigma=F(1, 2), n_list=(3,))
        assert spec.volume_at(3) == 4  # 4.5 rounds to the even side

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(L=1, sigma=F(1, 2), n_list=(4, 2))
        with pytest.raises(ValueError):
            SweepSpec(L=1, sigma=F(1, 2), n_list=(2,), boundary="twisted")


class TestMainEntry:
    def test_energy_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(SpinConfig(2, 1, (1, 1, 0, 0))))
        assert main(["energy", str(path)]) == 0
        assert capsys.readouterr().out.startswith("3/2")

    def test_energy_periodic_flag(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(SpinConfig(2, 1, (1, 1, 0, 0))))
        assert main(["energy", str(path), "--periodic"]) == 0
        assert capsys.readouterr().out.startswith("2/1")

    def test_energy_of_the_empty_chain(self, tmp_path, capsys):
        # L n^2 < 1: a header and an empty body line
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(SpinConfig(3, F(1, 100), ())))
        assert main(["energy", str(path)]) == 0
        assert capsys.readouterr().out.startswith("0/1")

    def test_energy_header_without_body_exit_code(self, tmp_path, capsys):
        # a shape with sites needs its body line
        path = tmp_path / "cfg.txt"
        path.write_text("n=3 L=1 boundary=open\n")
        assert main(["energy", str(path)]) == 2
        assert "expected 9 sites for n=3, L=1, got 0" in capsys.readouterr().err

    def test_minimize_json(self, capsys):
        assert main(["minimize", "--n", "2", "--L", "1", "--k", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == "3/2"
        assert doc["exact"] is False  # prefix profiles only: exact only at k in {0, N}
        assert doc["profile"] is not None

    def test_minimize_brute_guard_exit_code(self, capsys):
        # N = 144: past the sweep and the transfer-matrix budget
        assert main(["minimize", "--n", "12", "--L", "1", "--k", "72",
                     "--method", "brute"]) == 3
        assert "instance too large for brute force" in capsys.readouterr().err

    def test_minimize_cyclic_dp_guard_exit_code(self, capsys):
        # N = 8 = 2n: the classes N-n and n coincide, and the cyclic DP's
        # seam counts them once
        assert main(["minimize", "--n", "4", "--L", "1/2", "--k", "4",
                     "--periodic", "--method", "dp"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact"] is False
        assert Fraction(doc["value"]) >= brute_force_min(4, Fraction(1, 2), 4, "periodic").value

    @pytest.mark.parametrize("k", ["-1", "17"])
    def test_minimize_cyclic_dp_bad_volume_exit_code(self, capsys, k):
        # -1 was reported as the guard (exit 3) and 17 crashed with an IndexError
        assert main(["minimize", "--n", "4", "--L", "1", "--k", k,
                     "--periodic", "--method", "dp"]) == 2
        assert f"volume {k} outside [0, 16]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--n", "0", "--L", "1"], "n must be >= 1"),
        (["--n", "-2", "--L", "1"], "n must be >= 1"),
        (["--n", "3", "--L", "0"], "L must be positive"),
        (["--n", "3", "--L=-1/2"], "L must be positive"),
        (["--n", "3", "--L=-1/2", "--periodic"], "L must be positive"),
    ])
    @pytest.mark.parametrize("method", ["auto", "dp", "brute"])
    def test_minimize_bad_shape_exit_code(self, capsys, argv, message, method):
        # the column DP raised an IndexError on such input (exit 1)
        assert main(["minimize"] + argv + ["--k", "0", "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("method", ["auto", "dp", "brute"])
    @pytest.mark.parametrize("n,L,k", [("1", "1", "0"), ("1", "1", "1"), ("3", "1/9", "0")])
    def test_minimize_one_site_ring_exit_code(self, capsys, n, L, k, method):
        # a ring with fewer than two sites is invalid input on every method
        assert main(["minimize", "--n", n, "--L", L, "--k", k, "--periodic",
                     "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "periodic energy needs at least 2 sites" in captured.err

    @pytest.mark.parametrize("method", ["auto", "dp", "brute"])
    def test_minimize_empty_chain(self, capsys, method):
        # L n^2 < 1: no site, the empty configuration at energy 0
        assert main(["minimize", "--n", "3", "--L", "1/100", "--k", "0",
                     "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["value"], doc["config"], doc["exact"]) == ("0/1", "", True)

    def test_sweep_unknown_boundary_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"L": "1", "sigma": "1/2", "n_list": [2], "boundary": "Periodic"}))
        assert main(["sweep", str(spec)]) == 2
        assert "boundary must be open or periodic" in capsys.readouterr().err

    def test_classify_command(self, tmp_path, capsys):
        svg = tmp_path / "min.svg"
        assert main(["classify", "--L", "1", "--sigma", "3/10",
                     "--svg", str(svg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "B" and doc["value"] == 1.0
        assert svg.read_text().startswith("<svg")

    def test_sweep_command_csv(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"L": "1", "sigma": "1/2", "n_list": [2, 4], "boundary": "open"}))
        assert main(["sweep", str(spec)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,k_n,tau_n,discrete_min,method,exact,continuum_min,gap"
        assert out[1].startswith("2,2,0/1,1.5,ColumnDP,False,1.0,0.5")

    def test_phase_command(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return phase_diagram(*args)

        # the CSV and the SVG are written from one classification of the grid
        monkeypatch.setattr(cli, "phase_diagram", counted)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"L": ["2/5"], "sigma": ["1/10", "3/10"]}))
        out = tmp_path / "phase.csv"
        svg = tmp_path / "phase.svg"
        assert main(["phase", str(grid), "-o", str(out), "--svg", str(svg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "L,sigma,tau,case,value"
        assert lines[1].split(",")[3] == "C"
        assert lines[2].split(",")[3] == "A"
        assert svg.read_text().startswith("<svg")
        assert svg.read_text().count("case=C") == 1
        assert len(calls) == 1

    def test_recover_command(self, tmp_path, capsys):
        target = tmp_path / "u.json"
        target.write_text(json.dumps(
            {"L": "1", "pieces": [{"to": "1/2", "value": "1"}, {"to": "1", "value": "0"}]}))
        assert main(["recover", "--target", str(target), "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "n=10" in out and "# energy 11/10" in out

    def test_classify_representative_recovers(self, tmp_path, capsys):
        # classify writes the irrational case-C representative with
        # float entries; recover --target reads it back and discretizes it
        assert main(["classify", "--L", "2/5", "--sigma", "1/10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "C"
        target = tmp_path / "u.json"
        target.write_text(json.dumps(doc["representatives"][0]))
        assert main(["recover", "--target", str(target), "--n", "10"]) == 0
        assert "# energy 3/10" in capsys.readouterr().out

    def test_recover_volume(self, tmp_path, capsys):
        target = tmp_path / "u.json"
        target.write_text(json.dumps(
            {"L": "1", "pieces": [{"to": "1", "value": "1/2"}]}))
        assert main(["recover", "--target", str(target), "--n", "2",
                     "--volume", "2"]) == 0
        assert "1010" in capsys.readouterr().out.replace("\n", " ")

    def test_render_command_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        cfg = SpinConfig(3, F(4, 3), (1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0))
        path.write_text(config_to_text(cfg))
        assert main(["render", str(path)]) == 0
        assert parse_ascii(capsys.readouterr().out) == cfg

    def test_invalid_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        assert main(["energy", str(bad)]) == 2

    @pytest.mark.parametrize("argv", [
        ["minimize", "--n", "4", "--L", "1/0", "--k", "2"],
        ["minimize", "--n", "4", "--L", "1/0", "--k", "2", "--periodic", "--method", "brute"],
        ["classify", "--L", "1/0", "--sigma", "1/2"],
        ["classify", "--L", "1", "--sigma", "1/0"],
        ["classify", "--L", "1", "--sigma", "1/2", "--tau", "1/0"],
    ])
    def test_zero_denominator_exit_code(self, capsys, argv):
        # these ended in a ZeroDivisionError traceback (exit 1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: zero denominator in '1/0'" in captured.err

    @pytest.mark.parametrize("periodic", [[], ["--periodic"]])
    def test_huge_L_minimize_exit_code(self, capsys, periodic):
        # N = floor(L n^2) past sys.maxsize ended in an OverflowError
        # traceback from column_heights (exit 1)
        assert main(["minimize", "--n", "2", "--L", "1e400", "--k", "0"] + periodic) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: too many sites: N = floor(L n^2)" in captured.err

    @pytest.mark.parametrize("periodic", [[], ["--periodic"]])
    def test_dp_too_large_exit_code(self, capsys, periodic):
        # N = 10^11 fits, but one column-DP run would keep about 1.9 * 10^12
        # states, which ended in a MemoryError; the size guard refuses it
        # before any column is built
        tracemalloc.start()
        try:
            code = main(["minimize", "--n", "10", "--L", "1e9", "--k", "5"] + periodic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: instance too large for the column DP: one run keeps about "
                "1870000000000 states" in captured.err)

    @pytest.mark.parametrize("argv", [
        ["--k", "0", "--periodic"], ["--k", "100000000000", "--periodic"],
        ["--k", "0", "--method", "brute"], ["--k", "5", "--method", "brute"],
        ["--k", "0", "--periodic", "--method", "brute"],
    ])
    def test_brute_too_large_exit_code(self, capsys, argv):
        # N = 10^11: a ring's trivial volumes and --method brute went to
        # brute force, which built the constant configuration of N sites and
        # ended in a MemoryError; it refuses past the column DP's guard first
        tracemalloc.start()
        try:
            code = main(["minimize", "--n", "10", "--L", "1e9"] + argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: instance too large for brute force past the "
                                       "column DP's guard: one run keeps about ")

    def test_brute_one_row_past_the_guard_exit_code(self, capsys):
        # N = 10^8 sites at n = 1, under 2^28: the constant configuration
        # would hold about 0.8 GB, but one column-DP run would keep 6 * 10^8
        # states, so brute force refuses before building it
        tracemalloc.start()
        try:
            code = main(["minimize", "--n", "1", "--L", "100000000", "--k", "0", "--periodic",
                         "--method", "brute"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: instance too large for brute force past the column DP's guard: one run "
                "keeps about 600000000 states > 268435456" in captured.err)

    @pytest.mark.parametrize("volume", [[], ["--volume", "0"]])
    def test_huge_L_recover_exit_code(self, tmp_path, capsys, volume):
        # a target with N past sys.maxsize: without a volume this ended in an
        # OverflowError traceback, with one the construction looped over
        # floor(L n) + 1 columns and did not end
        target = tmp_path / "u.json"
        target.write_text(json.dumps(
            {"L": "1e400", "pieces": [{"to": "1e400", "value": "1/2"}]}))
        assert main(["recover", "--target", str(target), "--n", "2"] + volume) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: too many sites: N = floor(L n^2)" in captured.err

    def test_parser_built_once(self, capsys):
        runs = [["minimize", "--n", "2", "--L", "1", "--k", "2"],
                ["classify", "--L", "1", "--sigma", "3/10"]]
        outs = []
        for argv in runs:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--n", "two", "--L", "1", "--k", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        for argv, out in zip(runs, outs):
            assert main(argv) == 0
            assert capsys.readouterr().out == out
            fresh = cli._build_parser.__wrapped__().parse_args(argv)
            assert vars(cli._build_parser().parse_args(argv)) == vars(fresh)
        assert cli._build_parser() is cli._build_parser()
        # the plain reader's table is taken from that parser once
        assert cli._plain_actions() is cli._plain_actions()
        assert cli._plain_actions.cache_info().misses == 1

    @pytest.mark.parametrize("argv,message", [
        (["--k", "17", "--periodic"], "volume 17 outside [0, 16]"),
    ])
    def test_bad_annealer_input_exit_code(self, capsys, argv, message):
        assert main(["minimize", "--n", "4", "--L", "1"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv", [["--method", "anneal"], ["--steps", "5"], ["--seed", "1"]])
    def test_annealer_flags_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--n", "4", "--L", "1", "--k", "8", "--periodic"] + argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestMalformedJson:
    """A document of the wrong shape is invalid input: exit 2, no traceback."""

    @pytest.mark.parametrize("command,doc,message", [
        ("phase", {"L": 1, "sigma": ["1/2"]}, "L and sigma must be lists"),
        ("phase", [{"L": ["1"], "sigma": ["1/2"]}], "must be a JSON object"),
        ("sweep", {"L": "1", "sigma": "1/2", "n_list": 5}, "n_list must be a list"),
        ("sweep", [{"L": "1", "sigma": "1/2", "n_list": [2]}], "must be a JSON object"),
        ("sweep", {"L": "1", "sigma": "1/2", "n_list": [0, 2]}, "integers >= 1"),
        ("sweep", {"L": "1", "sigma": "1/2", "n_list": [3.5]}, "integers >= 1"),
        ("recover", {"L": "1", "pieces": 3}, "pieces must be a list"),
        # a zero denominator ended in a ZeroDivisionError traceback (exit 1)
        ("sweep", {"L": "1/0", "sigma": "1/2", "n_list": [2]}, "zero denominator in '1/0'"),
        ("sweep", {"L": "1", "sigma": "1/0", "n_list": [2]}, "zero denominator in '1/0'"),
        ("phase", {"L": ["1", "1/0"], "sigma": ["1/2"]}, "zero denominator in '1/0'"),
        ("phase", {"L": ["1"], "sigma": ["1/0"]}, "zero denominator in '1/0'"),
        ("phase", {"L": ["1"], "sigma": ["1/2"], "tau": "1/0"}, "zero denominator in '1/0'"),
        ("recover", {"L": "1/0", "pieces": []}, "zero denominator in '1/0'"),
        ("recover", {"L": "1", "pieces": [{"to": "1", "value": "1/0"}]},
         "zero denominator in '1/0'"),
    ])
    def test_exit_code(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ([command, "--target", str(path), "--n", "4"] if command == "recover"
                else [command, str(path)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_sweep_spec_refuses_bools(self):
        with pytest.raises(ValueError):
            SweepSpec(L=1, sigma=F(1, 2), n_list=(True, 2))


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "continuum_golden.json")


class TestContinuumGolden:
    """`phase` CSVs and `classify --tau` JSON, byte for byte as recorded from
    the interval-set boundary term (commit 3538154): the README grid, open and
    periodic; a grid with mirrored cells (sigma > 1/2) at tau = 0, 1/10, 1/2
    and 9/10; and one classify cell of each case A-D, irrational C and D
    values included."""

    with open(GOLDEN) as fh:
        golden = json.load(fh)

    @pytest.mark.parametrize("case", golden["phase"],
                             ids=lambda c: f"tau={c['grid'].get('tau')}")
    def test_phase_csv(self, tmp_path, capsys, case):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(case["grid"]))
        assert main(["phase", str(path)]) == 0
        assert capsys.readouterr().out == case["csv"]

    @pytest.mark.parametrize("case", golden["classify"],
                             ids=lambda c: "/".join(c["argv"][2::2]))
    def test_classify_json(self, capsys, case):
        assert main(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"]


MINIMIZE_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                               "minimize_golden.json")


def _minimize_id(case):
    argv = case["argv"]
    return ",".join(argv[2:7:2] + [a.lstrip("-") for a in argv[7:] if a != "--method"])


class TestMinimizeGolden:
    """`minimize` stdout, byte for byte as recorded before the cyclic DP read
    its first full columns from a table (commit f1192a4): value, method,
    label, configuration and profile, so tie-breaks too.  Both periodic_mix
    anchors; the cyclic DP on rings n = 6..16 at L in {5/4, 7/5, 3/2},
    sigma in turn over {1/3, 1/2, 2/3} (33 shapes, one of them the dp
    anchor), and on three near-empty or near-full rings; the (5, N = 22)
    transfer-matrix ring; the open_dp anchors up to n = 40; and seven more
    open shapes, four of them with a partial last column.  Five more,
    recorded at eed0361, start from a first column that no table holds:
    the open (300, 1/100, 800), the cyclic DP on the n = 40 rings
    (3/40, 60) and (17/160, 85), and the one-column ring (6, 5/36, 3); and
    (15, 2/15, 10), a two-column ring past the split-cut sweep.  Fifteen
    more transfer-matrix requests, recorded at 2f1937d while the pass still
    recorded choice bits: the n = 6 rings at N = 45 and 50, three volumes
    each; the (5, N = 22) ring at k = 9, 10, 12 and 13; `--method brute` on
    two open chains and two rings of n = 5 or 6, N = 31..40, at k = 3; and
    the open (12, N = 100, 19) at the edge of the transfer budget."""

    with open(MINIMIZE_GOLDEN) as fh:
        golden = json.load(fh)

    @pytest.mark.parametrize("case", golden["minimize"], ids=_minimize_id)
    def test_minimize_stdout(self, capsys, case):
        assert main(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"]


# --- the plain command-line reader ------------------------------------------------

(_SUBPARSERS,) = [a.choices for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
_TEXT = st.text("0123456789/.abxyz_ ", max_size=5)  # never starts with "-"
# tokens argparse reads differently or refuses: help, unknown flags, a lone
# dash, the end-of-options marker, values that start with "-", values that
# are not ints or not among the choices
_ODD = ["-h", "--help", "--steps", "--seed", "-", "--", "-2", "-1/2", "two", "1.5", "",
        "anneal", "png"]


def _value(action):
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.integers(0, 10**6).map(str)
    return _TEXT


def _plain_units(data, parser):
    """A well-formed line of one subcommand as units (a positional, a flag,
    or a flag and its value): every positional and required flag, any
    optional flag, each flag under any of its option strings up to twice."""
    units = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            units.append([data.draw(_value(action))])
            continue
        for _ in range(data.draw(st.integers(1 if action.required else 0, 2))):
            flag = data.draw(st.sampled_from(action.option_strings))
            units.append([flag] if action.nargs == 0 else [flag, data.draw(_value(action))])
    return units


def _argparse_vars(argv):
    try:
        return vars(cli._build_parser().parse_args(argv))
    except SystemExit as exc:
        pytest.fail(f"argparse refused {argv}: exit {exc.code}")


class TestPlainReader:
    """`cli._read_plain` gives argparse's namespace for a plain command line
    and None for any other, which argparse then reads."""

    @pytest.mark.parametrize("command", sorted(_SUBPARSERS))
    @given(data=st.data())
    def test_reads_plain_lines_as_argparse(self, command, data):
        # any order, repeated flags: the reader must not fall back here
        units = data.draw(st.permutations(_plain_units(data, _SUBPARSERS[command])))
        argv = [command] + [token for unit in units for token in unit]
        plain = cli._read_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == _argparse_vars(argv)

    @pytest.mark.parametrize("command", sorted(_SUBPARSERS))
    @given(data=st.data())
    def test_any_line_reads_as_argparse_or_falls_back(self, command, data):
        # plain units dropped, repeated and mixed with abbreviations,
        # --flag=value, odd tokens and bare values
        parser = _SUBPARSERS[command]
        flags = [s for a in parser._actions for s in a.option_strings]
        abbreviations = [s[:i] for s in flags if s.startswith("--") for i in range(3, len(s))]
        odd = st.one_of(st.sampled_from(flags + abbreviations + _ODD), _TEXT,
                        st.tuples(st.sampled_from(flags), _TEXT).map("=".join))
        units = _plain_units(data, parser)
        pieces = data.draw(st.lists(st.one_of(st.sampled_from(units),
                                              st.lists(odd, min_size=1, max_size=2)),
                                    max_size=8))
        argv = [command] + [token for piece in pieces for token in piece]
        plain = cli._read_plain(argv)
        assert plain is None or vars(plain) == _argparse_vars(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["minimise", "--n", "2"],
        ["minimize", "--n", "2", "--L", "1"],                         # --k missing
        ["minimize", "--n", "2", "--L", "1", "--k", "2", "--per"],    # an abbreviation
        ["minimize", "--n", "2", "--L=1", "--k", "2"],
        ["minimize", "--n", "-2", "--L", "1", "--k", "0"],
        ["minimize", "--n", "two", "--L", "1", "--k", "2"],
        ["minimize", "--n", "2", "--L", "1", "--k", "2", "--method", "anneal"],
        ["minimize", "--n", "2", "--L", "1", "--k", "2", "--help"],
        ["energy"], ["energy", "a", "b"], ["render", "c", "-ofile"],
    ])
    def test_falls_back(self, argv):
        assert cli._read_plain(argv) is None

    def test_golden_lines_read_plain(self):
        for case in TestMinimizeGolden.golden["minimize"]:
            plain = cli._read_plain(case["argv"])
            assert plain is not None and vars(plain) == _argparse_vars(case["argv"])


def _console(*args):
    """``python -m spinchain.cli`` with args: main() reads sys.argv."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "spinchain.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestConsolePath:
    ARGV = ["minimize", "--n", "4", "--L", "1", "--k", "8", "--periodic"]

    def test_prints_what_main_prints(self, capsys):
        proc = _console(*self.ARGV)
        assert proc.returncode == 0 and proc.stderr == ""
        assert main(self.ARGV) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_help_is_argparse(self, capsys, monkeypatch):
        proc = _console("minimize", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: spinchain minimize [-h] --n N --L L --k K")
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--help"])
        assert exc.value.code == 0
        assert proc.stdout == capsys.readouterr().out

    def test_unknown_flag_is_argparse_error(self):
        proc = _console(*self.ARGV, "--steps", "5")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "error: unrecognized arguments: --steps 5" in proc.stderr
