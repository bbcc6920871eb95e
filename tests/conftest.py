import random

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
