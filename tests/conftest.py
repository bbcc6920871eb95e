import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from reswire import build_graph
from reswire import spectral as sp
from reswire.verify import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
)


@pytest.fixture
def fresh_memo():
    """Empty the per-graph memos of M and mu in reswire.spectral."""
    for memo in (sp._inverses, sp._mu):
        memo.cache_clear()


@pytest.fixture
def p5():
    return path_graph(5)


@pytest.fixture
def k2():
    return complete_graph(2)


@pytest.fixture
def triangle():
    return complete_graph(3)


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def two_k2():
    return build_graph(4, [(0, 1), (2, 3)])


def random_graphs(seed, count, n_lo, n_hi, extra=0.25):
    rng = random.Random(seed)
    return [
        random_connected_graph(rng, rng.randint(n_lo, n_hi), extra)
        for _ in range(count)
    ]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def growth_in_child(n, calls):
    """Bytes of peak resident-set growth of `calls`, statements on `g`, a
    random connected graph of n vertices, read in a child process. The child
    reads VmHWM, its own peak since exec; ru_maxrss would start at the peak
    of the test process it was forked from. The same calls on a first graph
    of 200 vertices warm up BLAS and LAPACK, whose own buffers are not theirs."""
    code = textwrap.dedent(f"""
        import random
        from reswire import spectral, verify
        def peak_kb():
            with open("/proc/self/status") as f:
                return int(next(x for x in f if x.startswith("VmHWM:")).split()[1])
        def run(g):
            {calls}
        run(verify.random_connected_graph(random.Random(1), 200, 0.05))
        g = verify.random_connected_graph(random.Random(0), {n}, 0.005)
        before = peak_kb()
        run(g)
        print(peak_kb() - before)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    return int(out.stdout) * 1024
