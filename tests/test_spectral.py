import random

import numpy as np
import pytest

from reswire import (
    BipartiteGraphError,
    CrossComponentError,
    DisconnectedGraphError,
    IllConditionedError,
    ResistanceState,
    biharmonic_distance_sq,
    build_graph,
    effective_resistance,
    effective_resistance_flow,
    effective_resistance_normalized,
    laplacian,
    mu_bound,
    regularized_inverse,
    resistance_series_truncated,
    rmax,
    spectral_gap,
    spectrum,
    total_resistance,
)
from reswire import spectral as sp
from reswire.spectral import pseudo_inverse, regularized_inverse_dense
from reswire.verify import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_tree,
)

from conftest import random_graphs


def _bfs_distances(g):
    from collections import deque

    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = []
    for s in range(g.n):
        d = [-1] * g.n
        d[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if d[y] == -1:
                    d[y] = d[x] + 1
                    q.append(y)
        dist.append(d)
    return dist


def parallel_paths(len_a, len_b):
    """Two vertex-disjoint u-v paths of the given lengths; u=0, v=1."""
    edges = []
    n = 2
    for length in (len_a, len_b):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return build_graph(n, edges)


class TestRegularizedInverse:
    def test_k2_hand_value(self, k2):
        m = regularized_inverse(k2)
        assert np.allclose(m, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)

    def test_k2_pseudoinverse(self, k2):
        lp = pseudo_inverse(laplacian(k2))
        assert np.allclose(lp, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_definition(self):
        for g in random_graphs(1, 5, 3, 12):
            m = regularized_inverse(g)
            a = laplacian(g) + np.ones((g.n, g.n)) / g.n
            assert np.allclose(m @ a, np.eye(g.n), atol=1e-8)

    def test_matches_pseudoinverse_plus_j(self):
        for g in random_graphs(2, 10, 2, 30):
            m = regularized_inverse(g)
            lp = pseudo_inverse(laplacian(g))
            assert np.allclose(m - np.ones((g.n, g.n)) / g.n, lp, atol=1e-8)

    def test_disconnected_rejected(self, two_k2):
        with pytest.raises(DisconnectedGraphError):
            regularized_inverse(two_k2)


class TestEffectiveResistance:
    def test_path_endpoints_equal_length(self):
        assert effective_resistance(path_graph(7), 0, 6) == pytest.approx(6)

    def test_k2(self, k2):
        assert effective_resistance(k2, 0, 1) == pytest.approx(1)

    def test_parallel_paths_2_and_5(self):
        g = parallel_paths(2, 5)
        # (1/2 + 1/5)^-1 = 10/7
        assert effective_resistance(g, 0, 1) == pytest.approx(10 / 7)

    def test_same_vertex_zero(self, p5):
        assert effective_resistance(p5, 2, 2) == 0.0

    def test_cross_component_error(self, two_k2):
        with pytest.raises(CrossComponentError):
            effective_resistance(two_k2, 0, 2)

    def test_normalized_route_k2(self, k2):
        assert effective_resistance_normalized(k2, 0, 1) == pytest.approx(1)

    def test_normalized_route_p7(self):
        g = path_graph(7)
        assert effective_resistance_normalized(g, 0, 6) == pytest.approx(6)

    def test_flow_route_k2(self, k2):
        assert effective_resistance_flow(k2, 0, 1) == pytest.approx(1)

    def test_flow_route_triangle(self, triangle):
        assert effective_resistance_flow(triangle, 0, 1) == pytest.approx(2 / 3)

    def test_flow_route_c4_adjacent(self, c4):
        assert effective_resistance_flow(c4, 0, 1) == pytest.approx(3 / 4)

    def test_triple_route_agreement(self):
        for g in random_graphs(3, 10, 2, 15):
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    r0 = effective_resistance(g, u, v)
                    assert effective_resistance_normalized(g, u, v) == pytest.approx(
                        r0, abs=1e-7
                    )
                    assert effective_resistance_flow(g, u, v) == pytest.approx(
                        r0, abs=1e-7
                    )

    def test_tree_metric(self):
        import random

        rng = random.Random(7)
        for _ in range(10):
            g = random_tree(rng, rng.randint(2, 12))
            dist = _bfs_distances(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert effective_resistance(g, u, v) == pytest.approx(
                        dist[u][v], abs=1e-9
                    )

    def test_triangle_inequality(self):
        for g in random_graphs(5, 5, 3, 12):
            import itertools

            for u, v, w in itertools.combinations(range(g.n), 3):
                assert effective_resistance(g, u, w) <= (
                    effective_resistance(g, u, v)
                    + effective_resistance(g, v, w)
                    + 1e-9
                )


class TestBiharmonic:
    def test_k2(self, k2):
        assert biharmonic_distance_sq(k2, 0, 1) == pytest.approx(0.5)

    def test_same_vertex(self, p5):
        assert biharmonic_distance_sq(p5, 1, 1) == 0.0

    def test_positive_and_matches_pseudoinverse_square(self):
        for g in random_graphs(6, 8, 2, 15):
            lp2 = pseudo_inverse(laplacian(g)) @ pseudo_inverse(laplacian(g))
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    x = np.zeros(g.n)
                    x[u], x[v] = 1.0, -1.0
                    expected = float(x @ lp2 @ x)
                    got = biharmonic_distance_sq(g, u, v)
                    assert got > 0
                    assert got == pytest.approx(expected, abs=1e-8)


class TestTotalResistance:
    def test_p5(self, p5):
        assert total_resistance(p5) == pytest.approx(20)

    def test_k2(self, k2):
        assert total_resistance(k2) == pytest.approx(1)

    def test_disconnected_sum(self, two_k2):
        assert total_resistance(two_k2) == pytest.approx(2)

    def test_trace_identity(self):
        for g in random_graphs(8, 10, 2, 30):
            sigma = np.linalg.eigvalsh(laplacian(g))
            expected = g.n * float(np.sum(1.0 / sigma[1:]))
            assert total_resistance(g) == pytest.approx(expected, rel=1e-7)

    def test_isolated_vertices_contribute_nothing(self):
        g = build_graph(4, [(0, 1)])
        assert total_resistance(g) == pytest.approx(1)


class TestSeries:
    def test_triangle(self, triangle):
        got = resistance_series_truncated(triangle, 0, 1, 1e-6)
        assert got == pytest.approx(2 / 3, abs=1e-6)

    def test_bipartite_rejected(self, c4):
        with pytest.raises(BipartiteGraphError):
            resistance_series_truncated(c4, 0, 1, 1e-6)

    def test_matches_closed_form(self):
        import random

        from reswire.graph import is_bipartite
        from reswire.verify import random_nonbipartite_connected_graph

        rng = random.Random(11)
        for _ in range(20):
            g = random_nonbipartite_connected_graph(rng, rng.randint(3, 15))
            u, v = rng.sample(range(g.n), 2)
            got = resistance_series_truncated(g, u, v, 1e-6)
            assert got == pytest.approx(
                effective_resistance(g, u, v), abs=1e-6
            )


class TestSpectralQuantities:
    def test_spectral_gap_k2(self, k2):
        assert spectral_gap(k2) == pytest.approx(2)

    def test_spectral_gap_k5(self):
        assert spectral_gap(complete_graph(5)) == pytest.approx(5)

    def test_spectral_gap_disconnected(self, two_k2):
        with pytest.raises(DisconnectedGraphError):
            spectral_gap(two_k2)

    def test_mu_bound_bipartite_is_one(self, c4):
        assert mu_bound(c4) == pytest.approx(1)

    def test_rmax_p7(self):
        g = path_graph(7)
        assert rmax(g) == pytest.approx(6)

    def test_rmax_sandwich(self):
        for g in random_graphs(13, 10, 2, 15):
            s2 = spectral_gap(g)
            r = rmax(g)
            assert 1 / (g.n * s2) <= r + 1e-9
            assert r <= 2 / s2 + 1e-9

    def test_spectrum_invariants(self):
        for g in random_graphs(17, 5, 3, 12):
            s = spectrum(g)
            assert abs(s.sigma[0]) <= 1e-8 * max(1.0, s.sigma[-1])
            assert np.all(s.lam >= -1e-9) and np.all(s.lam <= 2 + 1e-9)
            assert np.allclose(s.mu, 1.0 - s.lam, atol=1e-9)
            assert np.allclose(s.z.T @ s.z, np.eye(g.n), atol=1e-8)
            # lowest normalized-Laplacian eigenvector on a connected graph
            from reswire.graph import degrees

            d = degrees(g).astype(float)
            expected = np.sqrt(d / d.sum())
            z1 = s.z[:, 0]
            if z1[0] < 0:
                z1 = -z1
            assert np.allclose(np.abs(z1), expected, atol=1e-8)


def shuffled_union(rng, sizes):
    """Disjoint union of random connected graphs, vertices relabelled at
    random so that the components interleave."""
    edges, n = [], 0
    for size in sizes:
        part = random_connected_graph(rng, size, 0.3)
        edges += [(u + n, v + n) for u, v in part.edges]
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def fresh_inverses(g):
    """(vertex array, M) per component, each from `regularized_inverse` of
    the component as a graph of its own."""
    labels = np.array(g.component_id)
    out = []
    for c in range(g.num_components):
        verts = np.flatnonzero(labels == c)
        local = np.searchsorted(verts, [e for e in g.edges if labels[e[0]] == c])
        out.append((verts, regularized_inverse(build_graph(len(verts), local.tolist()))))
    return out


class TestDenseMemo:
    def test_matches_fresh_inverse(self):
        rng = random.Random(21)
        for _ in range(12):
            g = shuffled_union(rng, [rng.randint(2, 14) for _ in range(rng.randint(1, 3))])
            fresh = fresh_inverses(g)
            rtot = sum(len(verts) * float(np.trace(m)) - len(verts) for verts, m in fresh)
            for _ in range(2):  # the second round reads the memo
                assert total_resistance(g) == rtot
                for verts, m in fresh:
                    for lu, lv in [rng.sample(range(len(verts)), 2) for _ in range(4)]:
                        u, v = int(verts[lu]), int(verts[lv])
                        w = m[:, lu] - m[:, lv]
                        assert effective_resistance(g, u, v) == float(
                            m[lu, lu] + m[lv, lv] - 2.0 * m[lu, lv])
                        assert biharmonic_distance_sq(g, u, v) == float(w @ w)
                if g.num_components == 1:
                    d = np.diag(fresh[0][1])
                    assert rmax(g) == float(np.max(d[:, None] + d - 2.0 * fresh[0][1]))

    def test_memo_is_read_only(self, fresh_memo):
        g = path_graph(6)
        total_resistance(g)
        (_, m), = sp._inverses(g)
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_state_owns_its_arrays(self, fresh_memo):
        g = random_connected_graph(random.Random(3), 20, 0.2)
        rtot = total_resistance(g)
        (_, memo_m), = sp._inverses(g)
        before = memo_m.copy()
        state = ResistanceState(g)
        (comp,) = state.comps
        assert comp.m.flags.writeable and comp.n2.flags.writeable
        assert not np.shares_memory(comp.m, memo_m)
        u, v, *_ = state.best_candidate()
        state.apply_edge(u, v)
        assert np.array_equal(memo_m, before)
        assert total_resistance(g) == rtot

    def test_errors_are_not_memoized(self, fresh_memo, monkeypatch):
        g = cycle_graph(5)
        calls = []

        def singular(a):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("singular matrix")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "inv", singular)
            for _ in range(2):
                with pytest.raises(IllConditionedError):
                    total_resistance(g)
        assert len(calls) == 2
        assert total_resistance(g) == pytest.approx(10.0)
