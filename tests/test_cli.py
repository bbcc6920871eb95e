import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from reswire import ResistanceState, from_edge_list, is_bipartite, to_edge_list, total_resistance
from reswire import cli
from reswire import rewiring as rw
from reswire import spectral as sp
from reswire import verify
from reswire.cli import main
from reswire.state import _Component
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


@pytest.fixture
def g30_file(tmp_path):
    """A random connected 30-vertex graph, whose scores carry all 17 digits."""
    g = random_connected_graph(random.Random(9), 30)
    path = tmp_path / "g30.el"
    path.write_text(f"n={g.n}\n" + _edge_text(g.edges))
    return g, path


def _assert_unwritable(argv, named, tmp_path, monkeypatch, capsys):
    """main(argv) exits 2 with one error line naming `named`, before it
    reads any input, and writes nothing."""
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(cli, "_load_graph", lambda path: pytest.fail("read an input"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: [^\n]*{re.escape(str(named))}[^\n]*\n", captured.err)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["stats", "bounds", "rewire", "curve"])
def test_no_input_exit_2(command, monkeypatch, capsys):
    # a usage error naming the missing option, not a traceback with the
    # verify-failure code 1
    monkeypatch.setattr(cli, "_load_graph", lambda path: pytest.fail("read an input"))
    with pytest.raises(SystemExit) as exc:
        main([command] + (["--k", "1"] if command in ("rewire", "curve") else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--input" in captured.err and "required" in captured.err


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
        assert main(["bounds", "--input", str(tmp_path / "nope.el")]) == 2

    def test_unwritable_output_exit_2(self, p5_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "nodir" / "s.json"
        _assert_unwritable(["stats", "--input", str(p5_file), "--output", str(out)],
                           out, tmp_path, monkeypatch, capsys)

    def test_json_floats_exact(self, g30_file, capsys):
        # json writes each float by repr, which reads back as the same double
        g, path = g30_file
        assert main(["stats", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        want = {"rtot": sp.total_resistance(g), "spectral_gap": sp.spectral_gap(g),
                "rmax": sp.rmax(g)}
        assert {key: out[key] for key in want} == want


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

    def test_same_stem_exit_2(self, tmp_path, monkeypatch, capsys):
        # outputs are named by the input's stem, so a.csv and a.txt would
        # write one a.rewired.el: no input runs and nothing is written
        d = tmp_path / "in"
        d.mkdir()
        (d / "a.csv").write_text(P5)
        (d / "a.txt").write_text("0 1\n1 2\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(rw, "rewire", lambda *args, **kwargs: pytest.fail("ran an input"))
        out = tmp_path / "out"
        assert main(["rewire", "--input-dir", str(d), "--k", "1", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: \S*a\.csv and \S*a\.txt [^\n]*\n", captured.err)
        assert not out.exists()

    @pytest.mark.parametrize("output, input_dir", [
        ("nodir/x.el", False),  # no such directory
        ("p5.el/x.el", False),  # a file where the directory belongs
        ("p5.el", True),  # a file where the directory of a batch's outputs belongs
    ])
    def test_unwritable_output_exit_2(self, p5_file, tmp_path, monkeypatch, capsys,
                                      output, input_dir):
        d = tmp_path / "in"
        d.mkdir()
        for name in ("a.el", "b.el"):
            (d / name).write_text(P5)
        source = ["--input-dir", str(d)] if input_dir else ["--input", str(p5_file)]
        out = tmp_path / output
        _assert_unwritable(["rewire", *source, "--k", "1", "--output", str(out)],
                           out, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("count", [1, 2])
    def test_input_dir_output_is_a_directory(self, tmp_path, monkeypatch, capsys, count):
        # --input-dir writes <stem>.rewired.el and <stem>.plan.json into
        # --output however many files it holds, one included
        d = tmp_path / "in"
        d.mkdir()
        names = ["a", "b"][:count]
        for name in names:
            (d / f"{name}.el").write_text(P5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        out = tmp_path / "out"
        assert main(["rewire", "--input-dir", str(d), "--k", "1", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{name}{suffix}" for name in names for suffix in (".plan.json", ".rewired.el"))
        for name in names:
            plan = json.loads((out / f"{name}.plan.json").read_text())
            assert plan["input"] == str(d / f"{name}.el") and len(plan["edges"]) == 1
            assert (out / f"{name}.rewired.el").read_text().count("\n") == 6  # header, 4 + 1 edges

    @pytest.mark.parametrize("method", ["gtr", "random"])
    def test_json_floats_exact(self, g30_file, capsys, method):
        # json writes each float by repr, which reads back as the same double
        g, path = g30_file
        assert main(["rewire", "--input", str(path), "--k", "5", "--method", method]) == 0
        plan = rw.rewire(g, 5, method=method, seed=0)
        assert len(plan.added) == 5
        assert json.loads(capsys.readouterr().out) == cli._plan_payload(str(path), plan)


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

    def test_disconnected_exit_2(self, tmp_path, capsys):
        # two triangles: not bipartite, but the aggregate bounds need one component
        path = tmp_path / "two-k3.el"
        path.write_text(TRIANGLE + "3 4\n4 5\n3 5\n")
        assert main(["bounds", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*connected graph\n", captured.err)

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
        ("--mu", "1.0"), ("--mu", "1.5"), ("--mu", "inf"),  # not bipartite input: exit 2, not 3
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

    def test_unwritable_output_exit_2(self, p5_file, tmp_path, monkeypatch, capsys):
        out = p5_file / "b.json"
        _assert_unwritable(["bounds", "--input", str(p5_file), "--output", str(out)],
                           out, tmp_path, monkeypatch, capsys)

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

    def test_batch_format_with_one_readable_input(self, tmp_path, capsys):
        # two inputs give the batch format, though only one of them parses
        (tmp_path / "a.el").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "b.el").write_text("0 0\n")
        assert main(["curve", "--input-dir", str(tmp_path), "--k", "1"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "edges_added,mean_rtot,graph_count"
        assert lines[1] == "0,10,1" and lines[2].endswith(",1") and len(lines) == 3
        assert re.fullmatch(r"error: \S*b\.el: [^\n]*\n", captured.err)

    def test_directory_named_el_is_no_input(self, tmp_path, capsys):
        # a directory sub.el beside a.el is skipped: one input, no error line
        printed = []
        for extra in (False, True):
            d = tmp_path / str(extra)
            d.mkdir()
            (d / "a.el").write_text("0 1\n1 2\n")
            if extra:
                (d / "sub.el").mkdir()
            assert main(["curve", "--input-dir", str(d), "--k", "1"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            printed.append(captured.out)
        assert printed[1] == printed[0]
        assert printed[0].splitlines()[0] == "edges_added,rtot"

    def test_negative_k_exit_2(self, p5_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--input", str(p5_file), "--k", "-1"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    def test_empty_dir_exit_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["curve", "--input-dir", str(empty), "--k", "1"]) == 2
        # no readable input
        (empty / "bad.el").write_text("0 0\n")
        assert main(["curve", "--input-dir", str(empty), "--k", "1"]) == 2

    @pytest.mark.parametrize("output", ["nodir/c.csv", "."])
    def test_unwritable_output_exit_2(self, p5_file, tmp_path, monkeypatch, capsys, output):
        # no such directory, or a directory where the file belongs
        out = tmp_path / output
        _assert_unwritable(["curve", "--input-dir", str(tmp_path), "--k", "1",
                            "--output", str(out)], out, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("command", ["curve", "rewire"])
    def test_input_and_input_dir_exit_2(self, p5_file, tmp_path, monkeypatch, command, capsys):
        # the two sources exclude each other: neither is dropped in silence
        monkeypatch.setattr(cli, "_load_graph", lambda path: pytest.fail("read an input"))
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(p5_file), "--input-dir", str(tmp_path), "--k", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--input-dir: not allowed with argument --input" in captured.err

    @pytest.mark.parametrize("command", ["curve", "rewire"])
    @pytest.mark.parametrize("missing", ["nope", "p5.el"])
    def test_missing_dir_exit_2(self, p5_file, command, missing, capsys):
        # no such directory, or a file where a directory belongs
        assert main([command, "--input-dir", str(p5_file.parent / missing), "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


NOT_UTF8 = b"0 1\n\xff 2\n"


class TestNotUtf8:
    """An input that is not UTF-8 is an input error like any other: one
    error line naming the line of the bad byte, exit 2, and in a batch the
    other inputs still run."""

    @pytest.mark.parametrize("command", ["stats", "bounds", "rewire", "curve"])
    def test_input_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.el"
        path.write_bytes(NOT_UTF8)
        k = ["--k", "1"] if command in ("rewire", "curve") else []
        assert main([command, "--input", str(path)] + k) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*line 2: not UTF-8 text \(byte 0xff\)\n",
                            captured.err)

    @pytest.mark.parametrize("command", ["rewire", "curve"])
    def test_batch_skips_it(self, tmp_path, monkeypatch, capsys, command):
        d, out = tmp_path / "in", tmp_path / "out"
        d.mkdir()
        (d / "a.el").write_text(P5)
        (d / "bad.el").write_bytes(NOT_UTF8)
        (d / "c.el").write_text(C5_CHORD)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main([command, "--input-dir", str(d), "--k", "1", "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: \S*bad\.el: line 2: not UTF-8 text[^\n]*\n", captured.err)
        if command == "rewire":
            assert sorted(p.name for p in out.iterdir()) == [
                "a.plan.json", "a.rewired.el", "c.plan.json", "c.rewired.el"]
        else:
            lines = out.read_text().splitlines()
            assert lines[0] == "edges_added,mean_rtot,graph_count"
            assert [line.split(",")[2] for line in lines[1:]] == ["2", "2"]


def _edge_text(edges):
    return "".join(f"{u} {v}\n" for u, v in edges)


@pytest.fixture
def batch_dir(tmp_path):
    """A batch that exercises the fan-out: small graphs, an unparsable file,
    a graph with a 130-vertex component, and two complete graphs whose
    plans truncate with the same warning. File i goes to share i % 2 on
    two CPUs, so the worker gets the 130-vertex graph."""
    d = tmp_path / "in"
    d.mkdir()
    k4 = _edge_text((u, v) for u in range(4) for v in range(u + 1, 4))
    big = random_connected_graph(random.Random(3), 130, extra_edge_prob=0.02)
    files = {"00-k4": k4, "01-k4": k4, "02-bad": "0 0\n",
             "03-big": _edge_text(big.edges) + "130 131\n131 132\n",
             "05-p7": _edge_text((i, i + 1) for i in range(6))}
    rng = random.Random(4)
    for i in (4, 6, 7, 8, 9, 10):
        files[f"{i:02d}"] = _edge_text(random_connected_graph(rng, rng.randint(8, 40)).edges)
    for name, text in files.items():
        (d / f"{name}.el").write_text(text)
    return d


def _show_on_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _run_batch(argv, cpus, monkeypatch, capsys, action="default"):
    """(exit code, stdout, stderr with the warnings a plain run prints under
    the warnings filter `action`) of main(argv) on `cpus` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        warnings.showwarning = _show_on_stderr
        rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def _blas_threads():
    return [get() for get, _ in cli._blas_thread_calls()]


class TestFanOut:
    """curve and rewire over a directory fan out over forked workers when
    there are two or more inputs and CPUs; the output must not change."""

    @pytest.fixture(autouse=True)
    def stay_in_parent(self, tmp_path):
        """A worker must leave by os._exit. One that returned into the test
        instead leaves a marker and ends here, before it could run the
        rest of the test run; the parent reaps it before main returns."""
        parent = os.getpid()
        yield
        if os.getpid() != parent:
            (tmp_path / "escaped").write_text("")
            os._exit(0)
        assert not (tmp_path / "escaped").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command,method,to_dir", [
        ("curve", "gtr", False), ("curve", "random", True),
        ("rewire", "gtr", False), ("rewire", "gtr", True), ("rewire", "random", True),
    ])
    def test_output_unchanged(self, batch_dir, tmp_path, monkeypatch, capsys,
                              command, method, to_dir):
        assert cli._blas_thread_calls(), "no BLAS thread-count entry point found"
        parent, threads = os.getpid(), _blas_threads()
        real_fork, real_rewire = os.fork, rw.rewire
        forks, here = [], []

        def fork():
            forks.append(1)
            return real_fork()

        def rewire(g, *args, **kwargs):
            here.append((os.getpid(), g.n, _blas_threads()))
            return real_rewire(g, *args, **kwargs)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(rw, "rewire", rewire)
        runs = []
        for cpus in (2, 1):
            (tmp_path / f"out{cpus}").mkdir()
            out_path = tmp_path / f"out{cpus}" / ("curve.csv" if command == "curve" else "")
            argv = [command, "--input-dir", str(batch_dir), "--k", "3", "--method", method]
            if to_dir:
                argv += ["--output", str(out_path)]
            rc, out, err = _run_batch(argv, cpus, monkeypatch, capsys)
            files = {p.name: p.read_bytes() for p in sorted((tmp_path / f"out{cpus}").glob("*"))}
            runs.append((rc, out, err, files))
            # on two CPUs one child, and the parent runs its own share (even
            # indices, 5 readable); on one CPU no child, and the parent runs
            # all 10. Every plan here runs at one BLAS thread
            assert len(forks) == cpus - 1
            assert len(here) == (5 if cpus == 2 else 10)
            assert all(pid == parent for pid, _, _ in here)
            assert all(t == [1] * len(threads) for _, _, t in here)
            forks.clear()
            here.clear()
        assert runs[0] == runs[1]
        rc, out, err, files = runs[0]
        assert rc == 0
        assert err.count("error: ") == 1 and "02-bad.el" in err
        assert err.count("plan truncated") == 1
        assert len(files) == (0 if not to_dir else 1 if command == "curve" else 2 * 10)
        assert _blas_threads() == threads

    def test_output_independent_of_cpu_count(self, tmp_path, monkeypatch, capsys):
        # each of these 128-vertex graphs gets different last digits in its
        # GTR and random plans at 1 and at 2 BLAS threads; a batch runs them
        # all at one thread, so one CPU writes what two CPUs write
        batch = tmp_path / "in"
        batch.mkdir()
        for s in range(4):
            g = random_connected_graph(random.Random(s), 128, 0.03)
            (batch / f"{s}.el").write_text(_edge_text(g.edges))
        runs = []
        for cpus in (2, 1):
            out = tmp_path / f"out{cpus}"
            printed = [_run_batch([command, "--input-dir", str(batch), "--k", "4",
                                   "--method", method, *extra], cpus, monkeypatch, capsys)
                       for method in ("gtr", "random")
                       for command, extra in (("rewire", ["--output", str(out / method)]),
                                              ("curve", []))]
            files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.*"))}
            runs.append((printed, files))
        assert runs[0] == runs[1]
        printed, files = runs[0]
        assert all(rc == 0 and err == "" for rc, _, err in printed)
        assert len(files) == 2 * 2 * 4

    def test_always_filter(self, batch_dir, monkeypatch, capsys):
        # every warning shows each time it is raised, the worker's too
        big = batch_dir / "03-big.el"
        text = big.read_text()
        big.write_text(text + text.splitlines()[0] + "\n")
        argv = ["curve", "--input-dir", str(batch_dir), "--k", "3"]
        runs = [_run_batch(argv, cpus, monkeypatch, capsys, "always") for cpus in (2, 1)]
        assert runs[0] == runs[1]
        assert runs[0][2].count("duplicate edges collapsed") == 1
        assert runs[0][2].count("plan truncated") == 2

    def test_no_blas_entry_point_runs_in_process(self, batch_dir, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_blas_thread_calls", lambda: [])
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        argv = ["curve", "--input-dir", str(batch_dir), "--k", "3"]
        assert _run_batch(argv, 2, monkeypatch, capsys)[0] == 0

    def test_worker_exception_reaches_parent(self, batch_dir, monkeypatch):
        # 05-p7.el sits in the child's share: its error is raised in the
        # parent, with its type and message, after every child is reaped
        # and after the warnings of the inputs before it
        parent, threads = os.getpid(), _blas_threads()
        real_rewire = rw.rewire

        def rewire(g, *args, **kwargs):
            if g.n == 7:
                raise ValueError(f"boom in process {os.getpid()}")
            return real_rewire(g, *args, **kwargs)

        monkeypatch.setattr(rw, "rewire", rewire)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.warns(UserWarning, match="plan truncated"), \
                pytest.raises(ValueError, match=r"boom in process (\d+)") as exc:
            main(["curve", "--input-dir", str(batch_dir), "--k", "3"])
        assert str(exc.value) != f"boom in process {parent}"
        # the worker's stack comes along as the cause, down to the patched rewire
        cause = str(exc.value.__cause__)
        assert re.search(r'test_cli\.py", line \d+, in rewire\n', cause)
        assert cause.rstrip('"\n').endswith(str(exc.value))
        assert _blas_threads() == threads

    def test_exception_here_keeps_its_stack(self, p5_file, monkeypatch):
        # an input the main process runs raises with its own frames, and
        # with no worker traceback as its cause
        def rewire(g, *args, **kwargs):
            raise ValueError("boom here")

        monkeypatch.setattr(rw, "rewire", rewire)
        with pytest.raises(ValueError, match="boom here") as exc:
            main(["curve", "--input", str(p5_file), "--k", "1"])
        assert exc.value.__cause__ is None
        assert exc.traceback[-1].name == "rewire"

    @pytest.mark.parametrize("leave", [KeyboardInterrupt, SystemExit])
    def test_uncaught_exception_ends_worker(self, batch_dir, tmp_path, monkeypatch, leave):
        # an exception that the worker does not catch still ends the child
        # by os._exit (stay_in_parent checks that it never returns here)
        parent, threads = os.getpid(), _blas_threads()
        real_rewire = rw.rewire

        def rewire(g, *args, **kwargs):
            if os.getpid() != parent:
                raise leave()
            return real_rewire(g, *args, **kwargs)

        monkeypatch.setattr(rw, "rewire", rewire)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(RuntimeError, match="exited with code 1$"):
            main(["rewire", "--input-dir", str(batch_dir), "--k", "3",
                  "--output", str(tmp_path / "out")])
        assert _blas_threads() == threads

    def test_cli_process(self, batch_dir, monkeypatch, capsys):
        argv = ["curve", "--input-dir", str(batch_dir), "--k", "3"]
        run = subprocess.run([sys.executable, "-m", "reswire.cli", *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert run.returncode == 0
        assert run.stderr.count("plan truncated") == 1
        assert run.stdout == _run_batch(argv, 1, monkeypatch, capsys)[1]


class TestVerify:
    def test_single_fast_suite(self, capsys):
        assert main(["verify", "--suite", "p5-counterexample"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS p5-counterexample")

    def test_package_runs_as_module(self):
        """`python -m reswire` starts the same command line as `reswire`."""
        run = subprocess.run([sys.executable, "-m", "reswire", "verify", "--suite",
                              "p5-counterexample"], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert run.returncode == 0
        assert run.stdout.startswith("PASS p5-counterexample")

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
        suites = ("theorem-delta", "series", "trace-identity", "triple-route",
                  "rayleigh-monotonicity", "bound-ordering")
        for suite in suites:
            assert main(["verify", "--suite", suite, "--n", "4", "--trials", "1"]) == 0
        assert capsys.readouterr().out.count("PASS") == len(suites)

    @pytest.mark.parametrize("suite", ["trace-identity", "triple-route", "woodbury"])
    def test_suite_fails_on_set_up_fault(self, suite, monkeypatch, capsys):
        """An M off by a relative 1e-6 fails each suite that checks the
        set-up against a route that does not read M. `theorem-delta` passes
        under this fault (max deviation 1.38e-7, tolerance 1e-6): both of
        its sides, Δ and the R_tot difference, read the same M."""
        inverse = sp.regularized_inverse_dense

        def faulty(lap):
            m, norm_a, norm_m = inverse(lap)
            return m * (1.0 + 1e-6), norm_a, norm_m

        monkeypatch.setattr(sp, "regularized_inverse_dense", faulty)
        sp._inverses.cache_clear()
        try:
            assert main(["verify", "--suite", suite]) == 1
        finally:
            sp._inverses.cache_clear()  # no faulty M is left for later tests
        assert capsys.readouterr().out.startswith(f"FAIL {suite}")

    @pytest.mark.parametrize("suite", ["theorem-delta", "p20-nonmonotonicity", "series",
                                       "rayleigh-monotonicity", "p5-counterexample",
                                       "bound-ordering"])
    def test_suite_fails_on_planted_fault(self, suite, monkeypatch, capsys):
        """A fault in the route each of the other suites checks makes it
        print FAIL and exit 1, at its default tolerance."""
        pair_scores, apply_edge = ResistanceState.pair_scores, ResistanceState.apply_edge
        resistance, total = sp.effective_resistance, sp.total_resistance

        def scaled_delta(self, u, v):
            r, bsq, delta = pair_scores(self, u, v)
            return r, bsq, delta * (1.0 + 1e-5)

        def rtot_unchanged(self, u, v):
            rtot = self.rtot
            apply_edge(self, u, v)
            self.rtot = rtot

        faults = {
            "theorem-delta": (ResistanceState, "pair_scores", scaled_delta),
            "p20-nonmonotonicity": (ResistanceState, "pair_scores", scaled_delta),
            "series": (sp, "effective_resistance",
                       lambda g, u, v: resistance(g, u, v) + 1e-5),
            "rayleigh-monotonicity": (ResistanceState, "apply_edge", rtot_unchanged),
            "p5-counterexample": (sp, "total_resistance", lambda g: total(g) * (1.0 + 1e-5)),
            "bound-ordering": (verify, "jacobian_bound_adjacency",
                               lambda g, u, v, p: verify.jacobian_bound_resistance(g, u, v, p)
                               + 1.0),
        }
        monkeypatch.setattr(*faults[suite])
        assert main(["verify", "--suite", suite]) == 1
        assert capsys.readouterr().out.startswith(f"FAIL {suite}")

    def test_mu_certificate_fails_without_pairs_through_a_vertex(self, monkeypatch, capsys):
        """A fill of t^2 I - B^2 (the sparse graphs' route) that leaves out
        Ahat^2's pairs (i, j) through vertex 0, the terms w_i0 w_0j, adds a
        rank-one w w^T to it and so certifies a t below mu: mu could then be
        under-read, and `mu-certificate` prints FAIL and exits 1."""
        fill = sp._fill_certificate

        def planted(f, ahat, v, tp, sign, square):
            fill(f, ahat, v, tp, sign, square)
            if not square:
                return
            at = (ahat.rows == 0) | (ahat.cols == 0)
            nbrs, w = ahat.rows[at] + ahat.cols[at], ahat.weights[at]  # one end is 0
            for a, wa in zip(nbrs, w):
                for b, wb in zip(nbrs, w):
                    if a <= b:
                        f[a, b] += wa * wb

        monkeypatch.setattr(sp, "_fill_certificate", planted)
        sp._mu.cache_clear()
        try:
            assert main(["verify", "--suite", "mu-certificate"]) == 1
        finally:
            sp._mu.cache_clear()  # no mu from the faulty fill is left for later tests
        assert capsys.readouterr().out.startswith("FAIL mu-certificate")

    def test_woodbury_fails_on_n_fault(self, monkeypatch, capsys):
        """N_00 off by a relative 1e-6 after each insertion made with N
        present fails `woodbury`: its insertions update M and N at once,
        in the layout of one array (300 vertices) and beside it (40)."""
        insert, planted = _Component.insert, []

        def perturbed(self, a, b):
            out = insert(self, a, b)
            if self._n2 is not None:
                self._n2.flat[0] *= 1.0 + 1e-6  # N_00: of N, or of N's diagonal once packed
                planted.append(self._packed)
            return out

        monkeypatch.setattr(_Component, "insert", perturbed)
        assert main(["verify", "--suite", "woodbury"]) == 1
        assert capsys.readouterr().out.startswith("FAIL woodbury")
        assert len(planted) == 50 and True in planted

    @pytest.mark.parametrize("suite,fault,detail", [
        ("woodbury", "rtot_unchanged", "monotone=False"),
        ("bound-ordering", "total_above_gap", "max deviation 1 "),
        ("bound-ordering", "rmax_above_gap", "max deviation 0 "),
    ])
    def test_failure_branch_reached(self, suite, fault, detail, monkeypatch, capsys):
        """A fault for each remaining failure branch: woodbury's R_tot
        monotonicity (R_tot left unchanged), bound-ordering's total-vs-gap
        bound (1 above) and its R_max range from sigma_2, which fails the
        suite with no bound out of order."""
        apply_edge, gap_bound = ResistanceState.apply_edge, verify.spectral_gap_jacobian_bound
        gap = sp.spectral_gap

        def rtot_unchanged(self, u, v):
            rtot = self.rtot
            apply_edge(self, u, v)
            self.rtot = rtot

        faults = {
            "rtot_unchanged": (ResistanceState, "apply_edge", rtot_unchanged),
            "total_above_gap": (verify, "total_jacobian_bound",
                                lambda g, p: gap_bound(g, p) + 1.0),
            "rmax_above_gap": (sp, "rmax", lambda g: 3.0 / gap(g)),
        }
        monkeypatch.setattr(*faults[fault])
        assert main(["verify", "--suite", suite]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {suite}") and detail in out

    @pytest.mark.parametrize("suite", ["theorem-delta", "woodbury"])
    def test_complete_graphs_pass(self, suite, monkeypatch, capsys):
        # no non-edge to draw: nothing is inserted or scored, and the suite
        # passes with no deviation
        monkeypatch.setattr(verify, "random_connected_graph",
                            lambda rng, n, extra_edge_prob=0.25: verify.complete_graph(n))
        assert main(["verify", "--suite", suite]) == 0
        assert capsys.readouterr().out.startswith(f"PASS {suite}: max deviation 0 ")

    @pytest.mark.parametrize("suite,option,value", [
        ("woodbury", "--n", "10"), ("woodbury", "--trials", "3"),
        ("p5-counterexample", "--n", "10"), ("p20-nonmonotonicity", "--trials", "3"),
        ("rayleigh-monotonicity", "--tolerance", "1e-3"),
    ])
    def test_option_the_suite_does_not_read_exit_2(self, suite, option, value, monkeypatch,
                                                    capsys):
        # a usage error, before any suite runs, not an option silently dropped
        monkeypatch.setattr(verify, "run_suites", lambda *a, **k: pytest.fail("ran a suite"))
        assert main(["verify", "--suite", suite, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: [^\n]*{suite}[^\n]*{option}\n", captured.err)

    def test_options_without_suite_reach_the_suites_that_read_them(self, capsys):
        assert main(["verify", "--n", "4", "--trials", "1", "--tolerance", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(verify.SUITES)
        tolerances = dict(re.findall(r"PASS (\S+): .*\(tolerance (\S+)\)", out))
        assert tolerances.pop("rayleigh-monotonicity") == "0"
        assert set(tolerances.values()) == {"0.001"}

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
