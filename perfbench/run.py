#!/usr/bin/env python3
"""reswire benchmark: runs one workload through the `reswire` CLI as child
processes, checks every output against an independent oracle, and prints
one JSON result as its last line.

    python3 perfbench/run.py --workload rewire-large --seed 1 --seconds 35 --trace 0

--trace 0 reports the end-to-end metrics of the chosen workload: the CLI
wall time, set-up time and child peak RSS, each the median over the
run's samples. --trace 1 reports the per-layer metrics instead, from
separate traced replays of the CLI calls of every part (see README.md).

Run from the root of a checkout; the program is imported from `src/`.
Everything written goes under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2
MIN_SAMPLES = 3
SETUP_SHARE = 0.2      # share of --seconds spent on the set-up probe
IMPORT_REPEATS = 5
OVERHEAD_PAIRS = 2

# name, unit, better, span name (or prefix for "self"), reduction, and
# the part whose traced replay the metric is read from.
LAYER_METRICS = (
    ("graph.parse_s", "s", "lower", "graph.from_edge_list", "total", "curve-many-small"),
    ("graph.laplacian_s", "s", "lower", "graph.laplacian", "total", "curve-many-small"),
    ("graph.bipartite_s", "s", "lower", "graph.is_bipartite", "total", "stats-bounds"),
    ("spectral.inverse_s", "s", "lower", "spectral.component_inverses", "total", "gtr-large"),
    ("spectral.dense_inverse_calls", "count", "lower",
     "spectral.regularized_inverse_dense", "count", "stats-bounds"),
    ("spectral.total_resistance_s", "s", "lower", "spectral.total_resistance", "total",
     "stats-bounds"),
    ("spectral.spectral_gap_s", "s", "lower", "spectral.spectral_gap", "total", "stats-bounds"),
    ("spectral.rmax_s", "s", "lower", "spectral.rmax", "total", "stats-bounds"),
    ("spectral.mu_bound_s", "s", "lower", "spectral.mu_bound", "total", "stats-bounds"),
    ("spectral.mu_bound_calls", "count", "lower", "spectral.mu_bound", "count", "stats-bounds"),
    ("state.init_s", "s", "lower", "state.ResistanceState.__init__", "total", "gtr-large"),
    ("state.scan_ms", "ms", "lower", "state.ResistanceState.best_candidate", "median_ms",
     "gtr-large"),
    ("state.update_ms", "ms", "lower", "state.ResistanceState.apply_edge", "median_ms",
     "gtr-large"),
    ("state.pair_scores_us", "us", "lower", "state.ResistanceState.pair_scores", "median_us",
     "random-writes"),
    ("state.steps", "count", "higher", "state.ResistanceState.apply_edge", "count", "gtr-large"),
    ("state.scan_gbps", "GB/s", "higher", "state.ResistanceState.best_candidate", "gbps",
     "gtr-large"),
    ("state.update_gbps", "GB/s", "higher", "state.ResistanceState.apply_edge", "gbps",
     "gtr-large"),
    ("rewiring.gtr_s", "s", "lower", "rewiring.gtr", "total", "gtr-large"),
    ("rewiring.random_s", "s", "lower", "rewiring.random_baseline", "total", "random-writes"),
    ("rewiring.non_edges_s", "s", "lower", "rewiring.same_component_non_edges", "total",
     "random-writes"),
    ("rewiring.self_s", "s", "lower", "rewiring.", "self", "curve-many-small"),
    ("bounds.total_s", "s", "lower", "bounds.total_jacobian_bound", "total", "stats-bounds"),
    ("bounds.gap_s", "s", "lower", "bounds.spectral_gap_jacobian_bound", "total",
     "stats-bounds"),
    ("bounds.pair_resistance_s", "s", "lower", "bounds.jacobian_bound_resistance", "total",
     "stats-bounds"),
    ("bounds.pair_adjacency_s", "s", "lower", "bounds.jacobian_bound_adjacency", "total",
     "stats-bounds"),
)
HOME = {m[0]: m[5] for m in LAYER_METRICS}

# layer metrics also replayed with 1 BLAS thread, for the speed-up of the
# default thread count over one
THREAD_SPEEDUPS = (
    "spectral.inverse_s", "state.init_s", "state.scan_ms", "state.update_ms",
    "spectral.total_resistance_s", "spectral.spectral_gap_s", "spectral.rmax_s",
    "spectral.mu_bound_s", "bounds.pair_resistance_s",
)


def speedup_name(metric):
    return "blas_speedup." + metric.rsplit("_", 1)[0]


END_TO_END = (("wall_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))
PER_LAYER = tuple(m[:3] for m in LAYER_METRICS) + (
    ("state.init_peak_n2", "n2_doubles", "lower"),
    ("state.step_peak_n2", "n2_doubles", "lower"),
    ("state.init_exp", "exponent", "lower"),
    ("state.scan_exp", "exponent", "lower"),
    ("state.update_exp", "exponent", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("mem.stream_gbps", "GB/s", "higher"),
) + tuple((speedup_name(m), "x", "higher") for m in THREAD_SPEEDUPS)


class ChildError(RuntimeError):
    pass


# ---------------------------------------------------------------- children

def blas_threads() -> int:
    return min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    return env


def spawn(args, log: Path, threads):
    """Run `python3 ARGS` to completion: (wall seconds, peak RSS MB, exit code).

    Wall time runs from spawn to exit; peak RSS is the child's own
    ru_maxrss from wait4."""
    with open(log, "w") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(threads),
                                stdin=subprocess.DEVNULL, stdout=sink,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe(mode, out: Path, args, threads):
    """Run one replay.py probe and return its JSON output."""
    log = out.with_suffix(".log")
    _, _, rc = spawn([str(BENCH / "replay.py"), mode, str(out), *args], log, threads)
    if rc != 0:
        raise ChildError(f"replay.py {mode} exited {rc}:\n{log.read_text()[-2000:]}")
    return json.loads(out.read_text())


# ---------------------------------------------------------------- checking

class Checker:
    """Counts operations and checks outputs after timing, memoized on the
    output bytes so that identical outputs are checked once."""

    def __init__(self):
        self.pending = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._seen = {}

    def record(self, part, inputs, argv, out: Path, rc):
        ops = len(inputs) if argv[0] == "curve" else 1
        self.attempted += ops
        if rc != 0:
            self.failed += ops
            self.problems.append(f"{part}: {argv[0]} exited {rc}")
            return
        texts = [out.read_text() if out.exists() else None]
        if argv[0] == "rewire":
            plan = out.with_name(out.name + ".plan.json")
            texts.append(plan.read_text() if plan.exists() else None)
        self.pending.append((part, inputs, argv, tuple(texts), ops))

    def finish(self):
        import oracle

        for part, inputs, argv, texts, ops in self.pending:
            key = (part, argv[0], texts)
            if key not in self._seen:
                self._seen[key] = _verify(oracle, inputs, argv, texts)
            if self._seen[key]:
                self.failed += ops
                self.problems.extend(f"{part}: {p}" for p in self._seen[key][:5])
        self.pending.clear()


def _verify(oracle, inputs, argv, texts):
    if None in texts:
        return [f"{argv[0]} wrote no output"]
    if argv[0] == "curve":
        return oracle.check_curve([inputs[k] for k in sorted(inputs)], texts[0], wl.CURVE_K)
    n, edges = inputs["g.el"]
    if argv[0] == "rewire":
        method, k = argv[argv.index("--method") + 1], int(argv[argv.index("--k") + 1])
        return oracle.check_rewire(n, edges, texts[1], texts[0], method, k)
    if argv[0] == "stats":
        return oracle.check_stats(n, edges, texts[0])
    return oracle.check_bounds(n, edges, texts[0], wl.BOUNDS_PAIR, wl.BOUNDS_R)


# ---------------------------------------------------------------- runs

class Part:
    """Inputs and outputs of one part under the run's scratch dir."""

    def __init__(self, root: Path, name, seed):
        self.name, self.seed = name, seed
        self.dir = root / name
        self.inputs = wl.make_inputs(name, seed)
        wl.write_inputs(self.inputs, self.dir / "in")
        self.files = sorted(str(self.dir / "in" / f) for f in self.inputs)
        self._n = 0

    def fresh(self, tag):
        self._n += 1
        path = self.dir / f"{tag}{self._n}"
        path.mkdir(parents=True)
        return path

    def calls(self, out):
        return wl.invocations(self.name, self.seed, self.dir / "in", out)


def run_cli(parts, checker: Checker, threads):
    """One sample: every CLI call of the parts, untraced: (wall, peak RSS)."""
    wall = peak = 0.0
    for part in parts:
        out = part.fresh("cli")
        for argv, path in part.calls(out):
            secs, rss, rc = spawn(["-m", "reswire.cli", *argv], out / f"{argv[0]}.log",
                                  threads)
            wall, peak = wall + secs, max(peak, rss)
            checker.record(part.name, part.inputs, argv, path, rc)
    return wall, peak


def run_replay(part: Part, checker: Checker, threads):
    """The part's CLI calls, each replayed in a traced child: (wall, spans)."""
    out = part.fresh(f"replay{threads}t")
    wall, spans = 0.0, []
    for i, (argv, path) in enumerate(part.calls(out)):
        trace = out / f"spans{i}.json"
        log = out / f"{argv[0]}.log"
        secs, _, rc = spawn([str(BENCH / "replay.py"), "cli", str(trace), "--", *argv],
                            log, threads)
        wall += secs
        checker.record(part.name, part.inputs, argv, path, rc)
        if rc != 0:
            raise ChildError(f"traced {argv[0]} exited {rc}:\n{log.read_text()[-2000:]}")
        spans.append(json.loads(trace.read_text())["spans"])
    return wall, spans


def end_to_end(parts, seconds, checker, threads, work: Path):
    begin = time.perf_counter()
    files = [f for part in parts for f in part.files]
    setup = probe("setup", work / "setup.json", [repr(SETUP_SHARE * seconds), *files],
                  threads)
    deadline = begin + seconds
    samples = []
    while len(samples) < MIN_SAMPLES or (
            time.perf_counter() + median(s[0] for s in samples) <= deadline):
        samples.append(run_cli(parts, checker, threads))
    walls, peaks = [s[0] for s in samples], [s[1] for s in samples]
    metrics = {"wall_s": median(walls), "setup_s": median(setup["setup_s"]),
               "peak_rss_mb": median(peaks)}
    detail = {"wall_s": walls, "setup_s": setup["setup_s"], "peak_rss_mb": peaks}
    return metrics, detail


# ---------------------------------------------------------------- spans

def _named(spans, name):
    return [s for run in spans for s in run if s[0] == name]


def _dur(span):
    return (span[2] - span[1]) / 1e9


def reduce_spans(spans, name, how):
    """One layer metric from a replay's spans, or None if never called."""
    if how == "self":
        total, hit = 0.0, False
        for run in spans:
            child = [0.0] * len(run)
            for s in run:
                if s[3] >= 0:
                    child[s[3]] += _dur(s)
            for i, s in enumerate(run):
                if s[0].startswith(name):
                    hit = True
                    total += _dur(s) - child[i]
        return total if hit else None
    hits = _named(spans, name)
    if not hits:
        return None
    if how == "total":
        return sum(_dur(s) for s in hits)
    if how == "count":
        return len(hits)
    if how == "median_ms":
        return median(_dur(s) for s in hits) * 1e3
    if how == "median_us":
        return median(_dur(s) for s in hits) * 1e6
    if how == "gbps":
        return sum(s[4]["bytes"] for s in hits) / sum(_dur(s) for s in hits) / 1e9
    raise ValueError(how)


def layer_values(spans):
    return {m[0]: reduce_spans(spans, m[3], m[4]) for m in LAYER_METRICS}


def top_layer_seconds(spans):
    """Time of the first non-cli spans below the cli spans."""
    total = 0.0
    for run in spans:
        for s in run:
            if s[3] >= 0 and run[s[3]][0].startswith("cli.") and not s[0].startswith("cli."):
                total += _dur(s)
    return total


def loglog_slope(ns, ts):
    xs, ys = [math.log(n) for n in ns], [math.log(t) for t in ts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def sweep_table(run):
    """n -> (init s, median scan s, median update s) from the sweep spans."""
    table = {}
    for i, s in enumerate(run):
        if s[0] != "sweep":
            continue
        kids = [c for c in run if c[3] == i]
        pick = {name: [_dur(c) for c in kids if c[0] == f"state.ResistanceState.{name}"]
                for name in ("__init__", "best_candidate", "apply_edge")}
        table[s[4]["n"]] = (pick["__init__"][0], median(pick["best_candidate"]),
                            median(pick["apply_edge"]))
    return table


def per_layer(workload, work: Path, seed, checker, threads):
    parts = {name: Part(work, name, seed) for name in wl.PARTS}
    chosen = [parts[name] for name in wl.WORKLOADS[workload]]
    imports = [spawn(["-c", "import reswire.cli"], work / "import.log", threads)[0]
               for _ in range(IMPORT_REPEATS)]

    # untraced and traced samples of the chosen workload alternate, so
    # that drift in the machine's speed cancels out of trace.overhead
    untraced = [run_cli(chosen, checker, threads)[0]]
    replays = {name: run_replay(parts[name], checker, threads) for name in wl.PARTS}
    traced = [sum(replays[p.name][0] for p in chosen)]
    for _ in range(OVERHEAD_PAIRS - 1):
        traced.append(sum(run_replay(p, checker, threads)[0] for p in chosen))
        untraced.append(run_cli(chosen, checker, threads)[0])
    single = {name: run_replay(parts[name], checker, 1)[1]
              for name in {HOME[m] for m in THREAD_SPEEDUPS}}
    sweep = probe("sweep", work / "sweep.json", Part(work, "sweep", seed).files, threads)
    memory = probe("memory", work / "memory.json", parts["gtr-large"].files, threads)

    by_part = {name: layer_values(replays[name][1]) for name in wl.PARTS}
    metrics = {m[0]: by_part[m[5]][m[0]] for m in LAYER_METRICS}
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        raise ChildError(f"no spans for {missing}")
    metrics["state.init_peak_n2"] = memory["init_peak_n2"]
    metrics["state.step_peak_n2"] = memory["step_peak_n2"]
    table = sweep_table(sweep["spans"])
    ns = sorted(table)
    for i, key in enumerate(("state.init_exp", "state.scan_exp", "state.update_exp")):
        metrics[key] = loglog_slope(ns, [table[n][i] for n in ns])
    import_s = median(imports)
    chosen_spans = [run for p in chosen for run in replays[p.name][1]]
    metrics["cli.import_s"] = import_s
    metrics["cli.self_s"] = (median(untraced) - len(chosen_spans) * import_s
                             - top_layer_seconds(chosen_spans))
    metrics["trace.overhead"] = median(traced) / median(untraced)
    for m in THREAD_SPEEDUPS:
        metrics[speedup_name(m)] = layer_values(single[HOME[m]])[m] / by_part[HOME[m]][m]
    detail = {
        "by_part": by_part,
        "sweep": {str(n): dict(zip(("init_s", "scan_s", "update_s"), table[n])) for n in ns},
        "cli.import_s": imports, "untraced_wall_s": untraced, "traced_wall_s": traced,
    }
    spans = {"replays": {name: replays[name][1] for name in wl.PARTS},
             "single_thread": single, "sweep": sweep["spans"]}
    return metrics, detail, spans, list(parts.values())


# ---------------------------------------------------------------- environment

def llc_bytes():
    best = (0, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * unit))
    return best[1]


def stream_gbps(llc):
    """Copy bandwidth, counting read + write, on two arrays of 2x the LLC
    each (4x the LLC in all)."""
    import numpy as np

    words = max(2 * (llc or 0), 128 << 20) // 8
    src, dst = np.ones(words), np.zeros(words)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / median(times) / 1e9


def environment(threads, parts, llc, stream):
    import numpy as np

    import oracle

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    working_sets = {}
    for part in parts:
        biggest = 0
        for n, edges in part.inputs.values():
            sizes = np.bincount(oracle.components(n, edges))
            biggest = max(biggest, int(16 * np.sum(sizes.astype(np.int64) ** 2)))
        working_sets[part.name] = {"m_plus_n_bytes": biggest, "llc_bytes": llc}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": dict(blas, threads=threads, thread_vars=list(BLAS_THREAD_VARS)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": llc,
        "mem.stream_gbps": stream,
        "working_set": working_sets,
    }


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "reswire" / "cli.py").is_file():
        print(f"error: no reswire sources under {SRC}", file=sys.stderr)
        return 2

    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT))
    threads = blas_threads()
    checker = Checker()
    try:
        if args.trace:
            metrics, detail, spans, parts = per_layer(
                args.workload, work, args.seed, checker, threads)
            names = PER_LAYER
        else:
            parts = [Part(work, name, args.seed) for name in wl.WORKLOADS[args.workload]]
            metrics, detail = end_to_end(parts, args.seconds, checker, threads, work)
            spans, names = None, END_TO_END
        checker.finish()
        llc = llc_bytes()
        env = environment(threads, parts, llc, stream_gbps(llc))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics["mem.stream_gbps"] = env["mem.stream_gbps"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in names},
    }
    (OUT_ROOT / f"result-{tag}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "detail": detail,
         "problems": checker.problems, "result": result}, indent=1))
    if spans is not None:
        (OUT_ROOT / f"spans-{tag}.json").write_text(json.dumps(spans))

    for problem in checker.problems[:20]:
        print(f"FAIL {problem}")
    print(f"env {json.dumps(env)}")
    print(f"error_rate {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted} operations failed)")
    for name, values in detail.items() if not args.trace else ():
        print(f"{name} median {median(values):.6g} over {len(values)} samples "
              f"(min {min(values):.6g}, max {max(values):.6g})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
