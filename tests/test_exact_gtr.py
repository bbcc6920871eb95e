"""GTR's tie contract in exact arithmetic: each pick is the lexicographically
first maximiser of delta = n B^2 / (1 + R), with M = (L + J/n)^{-1} from a
`fractions.Fraction` Gauss-Jordan inverse, N = M^2 and every delta exact."""

import random
from fractions import Fraction

from reswire import ResistanceState, build_graph, gtr
from reswire.verify import (
    current_graph,
    cycle_graph,
    non_edges,
    path_graph,
    random_connected_graph,
)

K = 3


def _exact_inverse(g):
    """(L + J/n)^{-1} of a connected graph, by Gauss-Jordan on Fractions."""
    n = g.n
    a = [[Fraction(1, n)] * n + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        a[u][v] -= 1
        a[v][u] -= 1
        a[u][u] += 1
        a[v][v] += 1
    for col in range(n):  # A is positive definite: every pivot is nonzero
        pivot = a[col]
        scale = 1 / pivot[col]
        pivot[:] = [x * scale for x in pivot]
        for row in a:
            if row is not pivot and row[col]:
                f = row[col]
                row[:] = [x - f * y for x, y in zip(row, pivot)]
    return [row[n:] for row in a]


def _exact_first_maximiser(g):
    """The lexicographically first same-component non-edge of largest exact delta."""
    m, n = _exact_inverse(g), g.n
    n2 = [[sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    delta = {(u, v): n * (n2[u][u] + n2[v][v] - 2 * n2[u][v])
             / (1 + m[u][u] + m[v][v] - 2 * m[u][v]) for u, v in non_edges(g)}
    best = max(delta.values())
    return min(p for p, d in delta.items() if d == best)


def _star(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _grid(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, right + down)


def _graphs():
    rng = random.Random(2)
    named = [(f"P{n}", path_graph(n)) for n in range(6, 11)]
    named += [(f"C{n}", cycle_graph(n)) for n in range(6, 11)]
    named += [("star6", _star(6)), ("star8", _star(8)),
              ("K3,3", build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])),
              ("grid3x4", _grid(3, 4))]
    named += [(f"random{i}", random_connected_graph(rng, 9)) for i in range(10)]
    return named


def _mismatches(graphs):
    """(name, step, GTR's pick, exact first maximiser) wherever they differ."""
    out = []
    for name, g in graphs:
        picks = gtr(g, K).edge_list()
        assert len(picks) == K
        for step, pick in enumerate(picks):
            want = _exact_first_maximiser(g)
            if pick != want:
                out.append((name, step, pick, want))
            g = g.with_edges([pick])
    return out


def test_each_pick_is_the_first_exact_maximiser():
    assert _mismatches(_graphs()) == []


def test_last_pair_within_the_band_is_caught(monkeypatch):
    """A planted `best_candidate` that takes the last pair within the band,
    not the first, must fail on the tied paths and cycles."""
    first_within_band = ResistanceState.best_candidate

    def last_within_band(state):
        if first_within_band(state) is None:  # builds N, which sets each band
            return None
        rows = [(u, v, *state.pair_scores(u, v)) for u, v in non_edges(current_graph(state))]
        top = max(row[4] for row in rows)
        band = {int(x): c.band for c in state.comps for x in c.verts}
        return [row for row in rows if row[4] >= top - abs(top) * band[row[0]]][-1]

    monkeypatch.setattr(ResistanceState, "best_candidate", last_within_band)
    graphs = [(name, g) for name, g in _graphs() if name[0] in "PC"]
    caught = {name for name, *_ in _mismatches(graphs)}
    assert caught == {name for name, _ in graphs}
