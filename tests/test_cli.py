import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reswire import from_edge_list, is_bipartite, to_edge_list, total_resistance
from reswire import spectral as sp
from reswire.cli import main
from reswire.verify import random_connected_graph

SRC = str(Path(__file__).resolve().parents[1] / "src")

P5 = "0 1\n1 2\n2 3\n3 4\n"
TWO_K2 = "0 1\n2 3\n"
C4 = "0 1\n1 2\n2 3\n0 3\n"
TRIANGLE = "0 1\n1 2\n0 2\n"
C5_CHORD = "0 1\n1 2\n2 3\n3 4\n0 4\n0 2\n"


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.el"
    path.write_text(P5)
    return path


class TestStats:
    def test_p5(self, p5_file, capsys):
        assert main(["stats", "--input", str(p5_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 5
        assert out["m"] == 4
        assert out["rtot"] == pytest.approx(20)
        assert out["bipartite"] is True

    def test_disconnected_null_spectral_gap(self, tmp_path, capsys):
        path = tmp_path / "two.el"
        path.write_text(TWO_K2)
        assert main(["stats", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["components"] == 2
        assert out["rtot"] == pytest.approx(2)
        assert out["spectral_gap"] is None
        assert out["rmax"] is None

    def test_triangle_spectral_gap(self, tmp_path, capsys):
        path = tmp_path / "k3.el"
        path.write_text(TRIANGLE)
        assert main(["stats", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spectral_gap"] == pytest.approx(3)

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("0 0\n")
        assert main(["stats", "--input", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["stats", "--input", str(tmp_path / "nope.el")]) == 2


class TestRewire:
    def test_p5_k2_plan(self, p5_file, capsys):
        assert main(["rewire", "--input", str(p5_file), "--k", "2"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["rtot_initial"] == pytest.approx(20)
        assert plan["rtot_final"] == pytest.approx(8.18, abs=0.01)
        assert plan["edges"][0]["u"] == 0 and plan["edges"][0]["v"] == 4

    def test_k0_empty_plan(self, p5_file, capsys):
        assert main(["rewire", "--input", str(p5_file), "--k", "0"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["edges"] == []

    def test_self_loop_exit_2(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("0 1\n1 1\n")
        assert main(["rewire", "--input", str(path), "--k", "1"]) == 2

    def test_output_files_and_roundtrip(self, p5_file, tmp_path):
        out = tmp_path / "rewired.el"
        assert main([
            "rewire", "--input", str(p5_file), "--k", "2",
            "--output", str(out),
        ]) == 0
        plan = json.loads((tmp_path / "rewired.el.plan.json").read_text())
        text = out.read_text()
        # third column tags original edges 0 and added edges 1
        tags = [line.split()[2] for line in text.strip().splitlines()[1:]]
        assert tags == ["0"] * 4 + ["1"] * 2
        g = from_edge_list(
            "\n".join(" ".join(l.split()[:2]) for l in text.strip().splitlines())
        )
        assert total_resistance(g) == pytest.approx(plan["rtot_final"], rel=1e-6)

    def test_byte_determinism(self, p5_file, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        for out in (a, b):
            main(["rewire", "--input", str(p5_file), "--k", "2",
                  "--method", "random", "--seed", "7", "--output", str(out)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.el.plan.json").read_bytes() == (
            tmp_path / "b.el.plan.json"
        ).read_bytes()

    def test_infeasible_k_truncates_exit_0(self, tmp_path):
        path = tmp_path / "k3.el"
        path.write_text(TRIANGLE)
        with pytest.warns(UserWarning):
            assert main(["rewire", "--input", str(path), "--k", "5"]) == 0

    def test_negative_k_exit_2(self, p5_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rewire", "--input", str(p5_file), "--k", "-1"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err


class TestBounds:
    def test_triangle_all_families(self, tmp_path, capsys):
        path = tmp_path / "k3.el"
        path.write_text(TRIANGLE)
        assert main([
            "bounds", "--input", str(path), "--pair", "0", "1", "--r", "1",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["pair"]) >= {"adjacency_bound", "resistance_bound"}
        assert "total_bound" in out and "spectral_gap_bound" in out
        assert out["total_bound"] <= out["spectral_gap_bound"] + 1e-9

    def test_bipartite_exit_3(self, tmp_path):
        path = tmp_path / "c4.el"
        path.write_text(C4)
        assert main(["bounds", "--input", str(path)]) == 3

    @pytest.mark.parametrize("pair", [("-1", "3"), ("0", "9"), ("5", "0")])
    def test_pair_out_of_range_exit_2(self, tmp_path, capsys, pair):
        path = tmp_path / "c5chord.el"
        path.write_text(C5_CHORD)
        assert main(["bounds", "--input", str(path), "--pair", *pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*out of range[^\n]*\n", captured.err)

    @pytest.mark.parametrize("option", [
        ("--r", "-1"), ("--alpha", "0"), ("--beta", "0.5"), ("--mu", "-0.1"),
        ("--alpha", "nan"), ("--alpha", "inf"),
    ])
    def test_bad_parameter_exit_2(self, tmp_path, capsys, option):
        path = tmp_path / "c5chord.el"
        path.write_text(C5_CHORD)
        assert main(["bounds", "--input", str(path), "--pair", "0", "2", *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]+\n", captured.err)

    @pytest.mark.parametrize("option", [
        ("--alpha", "1e300", "--r", "2"), ("--r", "5000"),
        ("--alpha", "5e153", "--r", "2"),  # the power fits, the bound does not
    ])
    def test_overflow_exit_2(self, tmp_path, capsys, option):
        path = tmp_path / "c5chord.el"
        path.write_text(C5_CHORD)
        assert main(["bounds", "--input", str(path), "--pair", "0", "2", *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: bound overflows a float[^\n]*\n", captured.err)

    def test_r0_pair_adjacency_zero(self, tmp_path, capsys):
        path = tmp_path / "k3.el"
        path.write_text(TRIANGLE)
        assert main([
            "bounds", "--input", str(path), "--pair", "0", "2", "--r", "0",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pair"]["adjacency_bound"] == 0.0


class TestDenseSolves:
    """One CLI call inverts L + 11^T/n once and runs no n x n eigensolve:
    sigma_2 and mu come from Lanczos, whose tridiagonal stays smaller than
    n x n on this 120-vertex graph."""

    N = 120

    @pytest.fixture
    def calls(self, monkeypatch, fresh_memo):
        counts = {"inverse": 0, "eigensolve": 0}

        def counted(key, fn, full_size_only=False):
            def wrapper(a, *args, **kwargs):
                if not full_size_only or np.shape(a)[-1] >= self.N:
                    counts[key] += 1
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(sp, "regularized_inverse_dense",
                            counted("inverse", sp.regularized_inverse_dense))
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name,
                                counted("eigensolve", getattr(np.linalg, name), True))
        return counts

    @pytest.fixture
    def graph_file(self, tmp_path):
        g = random_connected_graph(random.Random(3), self.N, 0.05)
        assert not any(is_bipartite(g))
        path = tmp_path / "g.el"
        path.write_text(to_edge_list(g))
        return str(path)

    def test_stats(self, graph_file, calls, capsys):
        assert main(["stats", "--input", graph_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rmax"] > 0 and out["spectral_gap"] > 0
        assert calls == {"inverse": 1, "eigensolve": 0}

    def test_bounds_pair(self, graph_file, calls, capsys):
        assert main(["bounds", "--input", graph_file, "--pair", "1", "3", "--r", "2"]) == 0
        assert "pair" in json.loads(capsys.readouterr().out)
        assert calls == {"inverse": 1, "eigensolve": 0}


def test_cli_import_leaves_scipy_out():
    # nor the oracles of reswire.verify, which only `reswire verify` loads
    code = ("import sys, reswire.cli; "
            "print('scipy' in sys.modules, 'reswire.verify' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False False"


class TestCurve:
    def test_single_file_endpoints(self, p5_file, capsys):
        assert main(["curve", "--input", str(p5_file), "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "edges_added,rtot"
        assert float(lines[1].split(",")[1]) == pytest.approx(20)
        assert float(lines[3].split(",")[1]) == pytest.approx(8.18, abs=0.01)

    def test_k0_single_row(self, p5_file, capsys):
        assert main(["curve", "--input", str(p5_file), "--k", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_batch_mean_curve(self, tmp_path, capsys):
        for i, n in enumerate((4, 5, 6)):
            text = "".join(f"{j} {j+1}\n" for j in range(n - 1))
            (tmp_path / f"tree{i}.el").write_text(text)
        assert main([
            "curve", "--input-dir", str(tmp_path), "--k", "5",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "edges_added,mean_rtot,graph_count"
        assert len(lines) == 7
        # mean of the three tree pairwise-distance sums: (10+20+35)/3
        assert float(lines[1].split(",")[1]) == pytest.approx(65 / 3)

    def test_negative_k_exit_2(self, p5_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--input", str(p5_file), "--k", "-1"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_empty_dir_exit_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["curve", "--input-dir", str(empty), "--k", "1"]) == 2


class TestVerify:
    def test_single_fast_suite(self, capsys):
        assert main(["verify", "--suite", "p5-counterexample"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS p5-counterexample")

    def test_unknown_suite(self):
        assert main(["verify", "--suite", "nope"]) == 2

    @pytest.mark.parametrize(
        "suite", ["p5-counterexample", "p20-nonmonotonicity"]
    )
    def test_fixture_suites_pass_tight_tolerance(self, suite, capsys):
        # both fixtures are checked against exact rational values, so a
        # tolerance near machine precision must pass on a correct program
        assert main(["verify", "--suite", suite, "--tolerance", "1e-6"]) == 0
        assert capsys.readouterr().out.startswith(f"PASS {suite}")

    def test_trace_identity_with_options(self, capsys):
        assert main([
            "verify", "--suite", "trace-identity", "--n", "25",
            "--trials", "50",
        ]) == 0

    @pytest.mark.parametrize("args", [
        ("--suite", "theorem-delta", "--n", "3"), ("--suite", "series", "--n", "2"),
        ("--suite", "trace-identity", "--n", "1"), ("--trials", "0"),
        ("--suite", "p5-counterexample", "--trials", "-1"),
    ])
    def test_out_of_range_size_exit_2(self, capsys, args):
        # a usage error, before any suite runs: exit 1 means a failed suite
        with pytest.raises(SystemExit) as exc:
            main(["verify", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert args[-2] in captured.err

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "x"])
    def test_bad_tolerance_exit_2(self, capsys, tolerance):
        # every check against NaN fails and a negative tolerance fails a
        # correct run: a usage error, not a failed suite (exit 1)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "p5-counterexample", "--tolerance", tolerance])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tolerance" in captured.err

    def test_smallest_sizes_run(self, capsys):
        for suite in ("theorem-delta", "series", "trace-identity"):
            assert main(["verify", "--suite", suite, "--n", "4", "--trials", "1"]) == 0
        assert capsys.readouterr().out.count("PASS") == 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_woodbury_tolerance_matches_printed_deviation(self, seed, capsys):
        # the printed max deviation covers the M, N and R_tot checks, and
        # --tolerance alone decides the verdict against it
        assert main(["verify", "--suite", "woodbury", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        worst = float(re.search(r"max deviation (\S+)", out).group(1))
        parts = re.findall(r"(?:M dev|N dev|rtot rel dev)=(\S+?)[,\]]", out)
        assert len(parts) == 3
        assert worst == max(float(x) for x in parts)
        for tol in (worst / 2, worst * 2):
            rc = main(["verify", "--suite", "woodbury", "--seed", str(seed),
                       "--tolerance", repr(tol)])
            line = capsys.readouterr().out
            assert rc == (0 if worst <= tol else 1)
            assert line.startswith("PASS" if rc == 0 else "FAIL")
