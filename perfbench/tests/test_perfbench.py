"""Tests of the benchmark itself (not of reswire):

    python3 -m pytest perfbench/tests

The last test runs the benchmark end to end, traced and untraced, and
takes a minute or two.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402


def _cli(*args, cwd=ROOT):
    env = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-m", "reswire.cli", *args], cwd=cwd, env=env,
                   check=True, capture_output=True)


@pytest.mark.parametrize("part", wl.PARTS + ("sweep",))
def test_same_seed_gives_byte_identical_inputs(part, tmp_path):
    for seed, name in ((7, "a"), (7, "b"), (8, "c")):
        wl.write_inputs(wl.make_inputs(part, seed), tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    same = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
            for f in files]
    other = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "c" / f).read_bytes()
             for f in files]
    assert all(same) and not all(other)


def test_generated_inputs_have_the_promised_shape():
    n, edges = wl.make_inputs("stats-bounds", 3)["g.el"]
    assert n == wl.STATS_N and max(oracle.components(n, edges)) == 0
    assert wl.two_coloring(n, edges)[1]
    kinds = [int(max(oracle.components(n, e))) + 1
             for n, e in wl.make_inputs("curve-many-small", 3).values()]
    assert len(kinds) == wl.CURVE_FILES and {1, 2, 3} <= set(kinds)


@pytest.fixture(scope="module")
def small_plan(tmp_path_factory):
    d = tmp_path_factory.mktemp("plan")
    n, edges = 40, wl.random_connected(40, 4, random.Random(5))
    (d / "g.el").write_text(wl.edge_list_text(n, edges))
    _cli("rewire", "--input", str(d / "g.el"), "--k", "3", "--output", str(d / "out.el"))
    return n, edges, (d / "out.el.plan.json").read_text(), (d / "out.el").read_text()


def _corrupt(plan_text, edit):
    plan = json.loads(plan_text)
    edit(plan)
    return json.dumps(plan)


def test_oracle_accepts_the_program_plan(small_plan):
    n, edges, plan, el = small_plan
    assert oracle.check_rewire(n, edges, plan, el, "gtr", 3) == []


@pytest.mark.parametrize("edit", [
    lambda p: p["edges"][1].update(rtot_after=p["edges"][1]["rtot_after"] * (1 + 1e-6)),
    lambda p: p.update(rtot_final=p["rtot_final"] * (1 - 1e-6)),
    lambda p: p.update(rtot_initial=p["rtot_initial"] + 1e-3),
    lambda p: p["edges"][0].update(delta=p["edges"][0]["delta"] * 0.99),
    lambda p: p["edges"][2].update(u=p["edges"][0]["u"], v=p["edges"][0]["v"]),
    lambda p: p["edges"].pop(),
], ids=["rtot_after", "rtot_final", "rtot_initial", "first_delta", "duplicate", "short"])
def test_oracle_rejects_a_corrupted_plan(small_plan, edit):
    n, edges, plan, el = small_plan
    assert oracle.check_rewire(n, edges, _corrupt(plan, edit), el, "gtr", 3)


def test_oracle_rejects_an_existing_edge(small_plan):
    n, edges, plan, el = small_plan
    u, v = edges[0]
    bad = _corrupt(plan, lambda p: p["edges"][0].update(u=u, v=v))
    assert oracle.check_rewire(n, edges, bad, el, "gtr", 3)


def test_oracle_checks_stats_bounds_and_curve(tmp_path):
    n, edges = 30, wl.non_bipartite_connected(30, 4, random.Random(2))
    (tmp_path / "g.el").write_text(wl.edge_list_text(n, edges))
    _cli("stats", "--input", str(tmp_path / "g.el"), "--output", str(tmp_path / "s.json"))
    text = (tmp_path / "s.json").read_text()
    assert oracle.check_stats(n, edges, text) == []
    assert oracle.check_stats(n, edges, _corrupt(text, lambda s: s.update(
        rtot=s["rtot"] * (1 + 1e-6))))

    _cli("bounds", "--input", str(tmp_path / "g.el"), "--pair", "0", "5", "--r", "2",
         "--output", str(tmp_path / "b.json"))
    text = (tmp_path / "b.json").read_text()
    assert oracle.check_bounds(n, edges, text, (0, 5), 2) == []
    assert oracle.check_bounds(n, edges, _corrupt(text, lambda b: b["pair"].update(
        resistance_bound=b["pair"]["resistance_bound"] + 1e-3)), (0, 5), 2)

    graphs = {f"g{i}.el": (20 + i, wl._small_graph(kind, 20 + i, random.Random(i)))
              for i, kind in enumerate(("cycle", "path", "two-components", "sparse"))}
    wl.write_inputs(graphs, tmp_path / "curve")
    _cli("curve", "--input-dir", str(tmp_path / "curve"), "--k", "4",
         "--output", str(tmp_path / "c.csv"))
    csv_text = (tmp_path / "c.csv").read_text()
    ordered = [graphs[k] for k in sorted(graphs)]
    assert oracle.check_curve(ordered, csv_text, 4) == []
    lines = csv_text.splitlines()
    step, mean, count = lines[3].split(",")
    lines[3] = f"{step},{float(mean) * (1 + 1e-6)!r},{count}"
    assert oracle.check_curve(ordered, "\n".join(lines) + "\n", 4)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rewire-large",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
    assert "no reswire sources" in out.stderr


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "curve-many-small", "--seed", "3", "--seconds", "1",
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
