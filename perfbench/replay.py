"""Probes that run inside the program's own interpreter (a child process
of run.py, with the checkout's `src` on PYTHONPATH). Each writes one JSON
file and exits with the program's exit code.

    replay.py cli OUT -- ARGS...   traced `reswire.cli.main(ARGS)`
    replay.py setup OUT BUDGET FILE...
                                   untraced set-up time, repeated
    replay.py sweep OUT FILE...    traced init/scan/update per graph size
    replay.py memory OUT FILE      tracemalloc peaks of init and one step
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import reswire
import reswire.cli
from reswire.graph import from_edge_list
from reswire.state import ResistanceState

from tracer import Tracer

SETUP_MIN_REPEATS = 3
SWEEP_STEPS = 3


def _state_notes():
    """Computed essential bytes per state call: a scan reads M and N of
    every component (16 n_c^2 B); an update reads and writes M and N of
    one component (32 n_c^2 B)."""
    shape = {}

    def init(args, kwargs, result):
        state, g = args[0], args[1] if len(args) > 1 else kwargs["g"]
        shape[id(state)] = (g.component_id, Counter(g.component_id))

    def scan(args, kwargs, result):
        _, sizes = shape[id(args[0])]
        return {"bytes": 16 * sum(s * s for s in sizes.values())}

    def update(args, kwargs, result):
        comp_of, sizes = shape[id(args[0])]
        return {"bytes": 32 * sizes[comp_of[args[1]]] ** 2}

    return {"state.ResistanceState.__init__": init,
            "state.ResistanceState.best_candidate": scan,
            "state.ResistanceState.apply_edge": update}


def replay_cli(out, argv) -> int:
    tracer = Tracer(_state_notes())
    tracer.install(reswire)
    rc = reswire.cli.main(argv)
    tracer.dump(out, argv=argv, rc=rc)
    return rc


def setup(out, budget, files) -> int:
    texts = [Path(f).read_text() for f in files]
    times = []
    begin = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - begin < budget:
        t0 = time.perf_counter()
        for text in texts:
            ResistanceState(from_edge_list(text))
        times.append(time.perf_counter() - t0)
    Path(out).write_text(json.dumps({"setup_s": times}))
    return 0


def sweep(out, files) -> int:
    tracer = Tracer(_state_notes())
    tracer.install(reswire)
    for f in files:
        g = reswire.graph.from_edge_list(Path(f).read_text())
        with tracer.span("sweep", note={"n": g.n}):
            state = reswire.state.ResistanceState(g)
            for _ in range(SWEEP_STEPS):
                u, v, *_ = state.best_candidate()
                state.apply_edge(u, v)
        del state
    tracer.dump(out)
    return 0


def memory(out, file) -> int:
    g = from_edge_list(Path(file).read_text())
    n2 = sum(s * s for s in Counter(g.component_id).values())
    tracemalloc.start()
    state = ResistanceState(g)
    init_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    u, v, *_ = state.best_candidate()
    state.apply_edge(u, v)
    step_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    Path(out).write_text(json.dumps({
        "init_peak_n2": init_peak / (8 * n2),
        "step_peak_n2": step_peak / (8 * n2),
    }))
    return 0


def main(argv) -> int:
    mode, out, *rest = argv
    if mode == "cli":
        return replay_cli(out, rest[1:] if rest[:1] == ["--"] else rest)
    if mode == "setup":
        return setup(out, float(rest[0]), rest[1:])
    if mode == "sweep":
        return sweep(out, rest)
    if mode == "memory":
        return memory(out, rest[0])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
