import os
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reswire import (
    BipartiteGraphError,
    CrossComponentError,
    DisconnectedGraphError,
    IllConditionedError,
    ResistanceState,
    build_graph,
    effective_resistance,
    is_bipartite,
    jacobian_bound_resistance,
    BoundParams,
    laplacian,
    mu_bound,
    normalized_adjacency,
    rmax,
    spectral_gap,
    total_resistance,
)
from reswire import spectral as sp
from reswire import verify
from reswire.spectral import regularized_inverse_dense
from reswire.verify import (
    complete_graph,
    cycle_graph,
    effective_resistance_flow,
    effective_resistance_normalized,
    normalized_laplacian,
    path_graph,
    pseudo_inverse,
    random_connected_graph,
    random_nonbipartite_connected_graph,
    random_tree,
    resistance_series_truncated,
)
from reswire.graph import components

from conftest import growth_in_child, random_graphs


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
        m = regularized_inverse_dense(laplacian(k2))
        assert np.allclose(m, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)

    def test_k2_pseudoinverse(self, k2):
        lp = pseudo_inverse(laplacian(k2))
        assert np.allclose(lp, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_definition(self):
        for g in random_graphs(1, 5, 3, 12):
            m = regularized_inverse_dense(laplacian(g))
            a = laplacian(g) + np.ones((g.n, g.n)) / g.n
            assert np.allclose(m @ a, np.eye(g.n), atol=1e-8)

    def test_matches_pseudoinverse_plus_j(self):
        for g in random_graphs(2, 10, 2, 30):
            m = regularized_inverse_dense(laplacian(g))
            lp = pseudo_inverse(laplacian(g))
            assert np.allclose(m - np.ones((g.n, g.n)) / g.n, lp, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 127, 128, 129, 257, 300])
    def test_block_boundaries(self, n):
        """Sizes on both sides of the triangular inverse's leaf (32 rows)
        and of the Cholesky blocks (128 rows): M from `component_inverses`
        (its mirror of the set-up's lower triangle) is exactly symmetric,
        inverts A and matches LU's inverse. Both routes are backward
        stable, so they differ by up to about cond(A) u; cond(A) stays
        below 100 on the random and complete graphs, but reaches 3.6e4 on
        the path at n=300 (4 n^2 / pi^2), where the two read 8.9e-13 apart."""
        rng = random.Random(n)
        for g in (random_connected_graph(rng, n, 0.05), path_graph(n), complete_graph(n)):
            a = laplacian(g) + 1.0 / n
            ((_, _, m),) = sp.component_inverses(g)
            assert np.array_equal(m, m.T)
            assert np.max(np.abs(m @ a - np.eye(n))) <= 1e-8
            w = np.linalg.eigvalsh(a)
            tol = max(1e-12, 10 * sp.UNIT_ROUNDOFF * w[-1] / w[0])
            ref = np.linalg.inv(a)
            assert np.max(np.abs(m - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("row, blocks", [(10, [128]), (150, [128, 72]), (None, [128, 72])])
    def test_failed_pivot_raises(self, monkeypatch, row, blocks):
        """A pivot that is not positive, in the first diagonal block or in
        a later one, is an IllConditionedError, not a LinAlgError; so is
        (row None) an rcond bound below RCOND_LIMIT after every pivot passed."""
        lap = laplacian(random_connected_graph(random.Random(5), 200, 0.05))
        if row is None:
            monkeypatch.setattr(sp, "RCOND_LIMIT", 1.0)  # the bound is below 1 here
        else:
            lap[row, row] = -1.0  # A is no longer positive definite
        factored, cholesky = [], np.linalg.cholesky

        def counted(a):
            factored.append(len(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        with pytest.raises(IllConditionedError):
            regularized_inverse_dense(lap)
        assert factored == blocks

    def test_inf_norm_nan_past_first_block(self):
        """A NaN propagates from any block of rows, not only the first."""
        x = np.eye(200)
        x[150, 3] = np.nan
        assert np.isnan(sp._inf_norm(x))

    def test_shifted_norm_matches_inf_norm(self):
        """The closed form ||L + J/n||_inf = 1 + 2 d_max (1 - 1/n) equals
        the row-sum pass over L + J/n within 4 ulps, n = 2..300."""
        rng = random.Random(11)
        graphs = [f(n) for n in (2, 3, 7, 64, 65, 129, 300)
                  for f in (path_graph, cycle_graph, complete_graph,
                            lambda n: build_graph(n, [(0, i) for i in range(1, n)]))
                  if f is not cycle_graph or n > 2]
        graphs += [random_connected_graph(rng, n, p) for n in (2, 5, 40, 130, 300)
                   for p in (0.0, 0.05, 0.5)]
        for g in graphs:
            lap = laplacian(g)
            got = sp._shifted_norm(lap.diagonal().max(), g.n)
            want = sp._inf_norm(lap + 1.0 / g.n)
            assert abs(got - want) <= 4 * np.spacing(want), (g.n, g.edges)

    def test_inf_norm_reads_m_only(self, monkeypatch):
        """The set-up's one ||.||_inf pass reads M: ||A||_inf comes from
        the degrees, before A is shifted and factored."""
        lap = laplacian(random_connected_graph(random.Random(3), 300, 0.02))
        read, inf_norm = [], sp._inf_norm
        monkeypatch.setattr(sp, "_inf_norm", lambda x: read.append(x) or inf_norm(x))
        m = regularized_inverse_dense(lap)
        assert len(read) == 1 and read[0] is m

    def test_nan_in_m_past_first_block_raises(self, monkeypatch):
        """M is not finite: a NaN planted at [150, 150] of X = C^{-1} for
        n=200 (in the second panel, past the first BLOCK_ROWS rows) reaches
        M through the lauum loop, and the rcond check raises
        IllConditionedError."""
        lap = laplacian(random_connected_graph(random.Random(5), 200, 0.05))
        factor_inverse = sp._factor_inverse

        def planted(a, work):
            factor_inverse(a, work)
            a[150, 150] = np.nan

        monkeypatch.setattr(sp, "_factor_inverse", planted)
        with pytest.raises(IllConditionedError):
            regularized_inverse_dense(lap)

    @pytest.mark.parametrize("n", [255, 256, 257, 384, 385, 512, 513, 897])
    def test_split_points(self, n):
        """Sizes on both sides of the panel boundaries of the factor and
        of the in-place product and of the mirror (multiples of 128 rows),
        with a full or a ragged last panel: the same checks as
        `test_block_boundaries`."""
        rng = random.Random(n)
        for g in (random_connected_graph(rng, n, 0.05), path_graph(n), complete_graph(n)):
            a = laplacian(g) + 1.0 / n
            ((_, _, m),) = sp.component_inverses(g)
            assert np.array_equal(m, m.T)
            assert np.max(np.abs(m @ a - np.eye(n))) <= 1e-8
            w = np.linalg.eigvalsh(a)
            tol = max(1e-12, 10 * sp.UNIT_ROUNDOFF * w[-1] / w[0])
            ref = np.linalg.inv(a)
            assert np.max(np.abs(m - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, 129, 300])
    def test_m_in_laplacian_storage(self, n):
        lap = laplacian(random_connected_graph(random.Random(n), n, 0.05))
        assert regularized_inverse_dense(lap) is lap

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 96, 127, 128])
    def test_invert_lower_panel_edges(self, n):
        """Sizes on both sides of `_invert_lower`'s TRIANGLE_LEAF-row panel
        edges: an LU inverse to 1e-13 of its largest entry, and exact zeros
        above the diagonal."""
        for g in (random_connected_graph(random.Random(n), n, 0.1), path_graph(n)):
            c = np.linalg.cholesky(laplacian(g) + 1.0 / n)
            x = c.copy()
            sp._invert_lower(x)
            ref = np.linalg.inv(c)
            assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert not np.triu(x, 1).any()

    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 100, 127, 128])
    def test_small_component_calls(self, n):
        """Up to 128 rows M is cholesky, `_invert_lower` and syrk, bit for bit."""
        for g in (random_connected_graph(random.Random(n), n, 0.1), path_graph(n)):
            x = np.linalg.cholesky(laplacian(g) + 1.0 / n)
            sp._invert_lower(x)
            assert np.array_equal(regularized_inverse_dense(laplacian(g)), x.T @ x)


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

    @pytest.mark.parametrize("route", [effective_resistance_normalized,
                                       effective_resistance_flow])
    def test_oracle_routes_same_vertex(self, route, p5):
        assert route(p5, 2, 2) == 0.0
        with pytest.raises(ValueError):  # the vertex is still range-checked
            route(p5, 5, 5)

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
        # an edgeless graph still gives a float, printed 0.0 by `stats`
        assert repr(total_resistance(build_graph(3, []))) == "0.0"


class TestSeries:
    def test_triangle(self, triangle):
        got = resistance_series_truncated(triangle, 0, 1, 1e-6)
        assert got == pytest.approx(2 / 3, abs=1e-6)

    def test_bipartite_rejected(self, c4):
        with pytest.raises(BipartiteGraphError):
            resistance_series_truncated(c4, 0, 1, 1e-6)

    def test_same_vertex_rejected(self, triangle):
        with pytest.raises(ValueError, match="u != v"):
            resistance_series_truncated(triangle, 1, 1, 1e-6)

    def test_mu_at_least_one_rejected(self, triangle, monkeypatch):
        monkeypatch.setattr(sp, "mu_bound", lambda g: 1.0)
        with pytest.raises(BipartiteGraphError, match="mu=1.0"):
            resistance_series_truncated(triangle, 0, 1, 1e-6)

    def test_no_convergence_raises(self, triangle, monkeypatch):
        monkeypatch.setattr(verify, "SERIES_MAX_TERMS", 3)
        with pytest.raises(ArithmeticError, match="within 3 terms"):
            resistance_series_truncated(triangle, 0, 1, 1e-6)

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

    def test_spectral_gap_one_vertex(self, monkeypatch):
        # sigma_2 is undefined: an error before the dense memo is read
        monkeypatch.setattr(sp, "_inverses", lambda g: pytest.fail("read the memo"))
        with pytest.raises(ValueError, match="two vertices"):
            spectral_gap(build_graph(1, []))

    def test_spectral_gap_disconnected(self, two_k2):
        with pytest.raises(DisconnectedGraphError):
            spectral_gap(two_k2)
        with pytest.raises(DisconnectedGraphError):
            rmax(two_k2)

    def test_mu_bound_bipartite_is_one(self, c4):
        assert mu_bound(c4) == pytest.approx(1)

    def test_mu_bound_edgeless_is_zero(self):
        assert mu_bound(build_graph(3, [])) == 0.0

    def test_rmax_p7(self):
        g = path_graph(7)
        assert rmax(g) == pytest.approx(6)

    def test_rmax_peak_within_one_block(self):
        """rmax at n=1600 keeps its tracemalloc peak within one
        BLOCK_ROWS x n block of doubles, and every bit of the max over
        the whole resistance matrix."""
        n = 1600
        g = random_connected_graph(random.Random(21), n, 0.003)
        (_, m), = sp._inverses(g)
        tracemalloc.start()
        try:
            r = rmax(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sp.BLOCK_ROWS * n * 8
        d = np.diag(m)
        assert r == float(np.max(d[:, None] + d - 2.0 * m))

    def test_rmax_sandwich(self):
        for g in random_graphs(13, 10, 2, 15):
            s2 = spectral_gap(g)
            r = rmax(g)
            assert 1 / (g.n * s2) <= r + 1e-9
            assert r <= 2 / s2 + 1e-9

    def test_spectrum_invariants(self):
        for g in random_graphs(17, 5, 3, 12):
            sigma = np.linalg.eigvalsh(laplacian(g))
            lam, z = np.linalg.eigh(normalized_laplacian(g))
            mu = np.linalg.eigvalsh(normalized_adjacency(g))[::-1]
            assert abs(sigma[0]) <= 1e-8 * max(1.0, sigma[-1])
            assert np.all(lam >= -1e-9) and np.all(lam <= 2 + 1e-9)
            assert np.allclose(mu, 1.0 - lam, atol=1e-9)
            assert np.allclose(z.T @ z, np.eye(g.n), atol=1e-8)
            # lowest normalized-Laplacian eigenvector on a connected graph
            from reswire.graph import degrees

            d = degrees(g).astype(float)
            expected = np.sqrt(d / d.sum())
            z1 = z[:, 0]
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
    """(vertex array, M) per component, each from `regularized_inverse_dense`
    of the Laplacian of the component as a graph of its own."""
    labels = np.array(g.component_id)
    out = []
    for c in range(g.num_components):
        verts = np.flatnonzero(labels == c)
        local = np.searchsorted(verts, [e for e in g.edges if labels[e[0]] == c])
        sub = build_graph(len(verts), local.tolist())
        out.append((verts, regularized_inverse_dense(laplacian(sub))))
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
                        assert effective_resistance(g, u, v) == float(
                            m[lu, lu] + m[lv, lv] - 2.0 * m[lu, lv])
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

        def not_positive_definite(a):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", not_positive_definite)
            for _ in range(2):
                with pytest.raises(IllConditionedError):
                    total_resistance(g)
        assert len(calls) == 2
        assert total_resistance(g) == pytest.approx(10.0)


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def barbell(k):
    """Two copies of K_k joined by one edge."""
    clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return build_graph(2 * k, clique + [(u + k, v + k) for u, v in clique] + [(k - 1, k)])


def disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return build_graph(n, edges)


def extreme_eigenvalue_graphs():
    """Paths, cycles, complete and complete bipartite graphs, barbells,
    random connected graphs, the same with isolated vertices, and two
    non-bipartite components."""
    rng = st.randoms(use_true_random=False)
    return st.one_of(
        st.integers(2, 30).map(path_graph),
        st.integers(3, 30).map(cycle_graph),
        st.integers(2, 30).map(complete_graph),
        st.tuples(st.integers(1, 10), st.integers(1, 10)).map(lambda t: complete_bipartite(*t)),
        st.integers(2, 12).map(barbell),
        st.tuples(rng, st.integers(2, 40)).map(lambda t: random_connected_graph(*t)),
        st.tuples(rng, st.integers(2, 30), st.integers(1, 5)).map(
            lambda t: disjoint_union(random_connected_graph(t[0], t[1]), build_graph(t[2], []))),
        st.tuples(rng, st.integers(3, 20), st.integers(3, 20)).map(
            lambda t: disjoint_union(random_nonbipartite_connected_graph(t[0], t[1]),
                                     random_nonbipartite_connected_graph(t[0], t[2]))),
    )


class TestExtremeEigenvalues:
    """Lanczos sigma_2 and certified mu against a dense eigvalsh."""

    @settings(max_examples=100, deadline=None)
    @given(extreme_eigenvalue_graphs())
    def test_match_eigvalsh(self, g):
        if g.num_components == 1:
            sigma2 = np.linalg.eigvalsh(laplacian(g))[1]
            assert spectral_gap(g) == pytest.approx(sigma2, rel=1e-9, abs=0)
        mu_all = np.linalg.eigvalsh(normalized_adjacency(g))
        mu = max(abs(mu_all[0]), abs(mu_all[-2]))
        mu_hat = mu_bound(g)
        assert mu_hat >= min(mu, 1.0)  # eigvalsh can read above the true maximum 1
        assert mu_hat == 1.0 or mu_hat <= mu * (1 + 1e-9)
        nontrivial = [sub for _, sub in components(g) if sub.n > 1]
        if len(nontrivial) > 1 or any(is_bipartite(sub)[0] for sub in nontrivial):
            assert mu_hat == 1.0

    @pytest.mark.parametrize("steps", [8, 16])
    def test_dense_route_when_lanczos_stops(self, monkeypatch, fresh_memo, steps):
        """Past LANCZOS_MAX_STEPS both quantities come from eigvalsh, and mu
        is still certified."""
        monkeypatch.setattr(sp, "LANCZOS_MAX_STEPS", steps)
        for g in [cycle_graph(41), barbell(9)] + random_graphs(23, 4, 30, 50):
            sp._mu.cache_clear()
            sigma2 = np.linalg.eigvalsh(laplacian(g))[1]
            assert spectral_gap(g) == pytest.approx(sigma2, rel=1e-9, abs=0)
            mu_all = np.linalg.eigvalsh(normalized_adjacency(g))
            mu = max(abs(mu_all[0]), abs(mu_all[-2]))
            assert mu <= mu_bound(g) <= mu * (1 + 1e-9)

    def test_blocked_certificate(self, fresh_memo):
        """More than CHOLESKY_ROWS non-isolated vertices: the certificate's
        Cholesky updates its trailing rows block by block."""
        g = disjoint_union(random_nonbipartite_connected_graph(random.Random(5), 300),
                           build_graph(3, []))
        mu_all = np.linalg.eigvalsh(normalized_adjacency(g))
        mu = max(abs(mu_all[0]), abs(mu_all[-2]))
        assert mu <= mu_bound(g) <= mu * (1 + 1e-9)

    def test_failed_certificate_retried(self, monkeypatch, fresh_memo):
        """Ritz values that under-read mu make the first Cholesky fail; the
        retry at a larger t still certifies a bound above mu."""
        lanczos, margin, margins = sp._lanczos, sp._cholesky_margin, []

        def low(*args, **kwargs):
            lo, hi, res = lanczos(*args, **kwargs)
            return 0.5 * lo, 0.5 * hi, 0.0

        def recorded(a):
            margins.append(margin(a))
            return margins[-1]

        monkeypatch.setattr(sp, "_lanczos", low)
        monkeypatch.setattr(sp, "_cholesky_margin", recorded)
        g = random_nonbipartite_connected_graph(random.Random(6), 40)
        mu_all = np.linalg.eigvalsh(normalized_adjacency(g))
        mu = max(abs(mu_all[0]), abs(mu_all[-2]))
        assert mu <= mu_bound(g) <= 1.0
        assert margins[0] is None and margins[-1] is not None

    @pytest.mark.parametrize("kind", ["odd cycle", "path and chord", "lollipop", "clique"])
    def test_long_graphs_certified(self, monkeypatch, fresh_memo, kind):
        """Graphs whose extremes need O(n) Lanczos steps: on C_801 and P_600
        with one chord Lanczos stops at LANCZOS_MAX_STEPS and eigvalsh supplies
        theta; on K_20 joined to a 200-vertex path it runs the full Krylov space.
        The one certificate of t^2 I - B^2 still keeps mu within 1e-9 above.
        K_300 (sum_k d_k^2 = 299 n^2, mu = 1/299) takes the two certificates of
        t I -/+ B: filling Ahat^2 pair by pair there took 0.9 s and read mu
        7.7e-9 above its value."""
        clique = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        g = {"odd cycle": lambda: cycle_graph(801),
             "path and chord": lambda: build_graph(600, path_graph(600).edges + ((0, 300),)),
             "lollipop": lambda: build_graph(220, clique + [(i, i + 1) for i in range(19, 219)]),
             "clique": lambda: complete_graph(300),
             }[kind]()
        lanczos, fill, ritz, squares = sp._lanczos, sp._fill_certificate, [], set()

        def recorded(*args, **kwargs):
            ritz.append(lanczos(*args, **kwargs))
            return ritz[-1]

        def recorded_fill(*args):
            squares.add(args[-1])
            fill(*args)

        monkeypatch.setattr(sp, "_lanczos", recorded)
        monkeypatch.setattr(sp, "_fill_certificate", recorded_fill)
        mu_all = np.linalg.eigvalsh(normalized_adjacency(g))
        mu = max(abs(mu_all[0]), abs(mu_all[-2]))
        assert mu <= mu_bound(g) <= mu * (1 + 1e-9)
        assert (ritz == [None]) == (kind not in ("lollipop", "clique"))
        assert squares == {kind != "clique"}

    def test_two_components_reject_resistance_bound(self):
        rng = random.Random(4)
        for _ in range(20):
            g = disjoint_union(random_nonbipartite_connected_graph(rng, rng.randint(3, 15)),
                               random_nonbipartite_connected_graph(rng, rng.randint(3, 15)))
            assert mu_bound(g) == 1.0
            with pytest.raises(BipartiteGraphError):
                jacobian_bound_resistance(g, 0, 1, BoundParams(r=2))


# nx.resistance_distance reads R(5, 14) = 0.220703125 on this graph; the
# grounded solve gives 0.22085168851179293, exact rational elimination
# 0.22085168851179296 and effective_resistance 0.220851688511793
DENSE_15 = build_graph(15, [
    (0, 1), (0, 2), (0, 5), (0, 9), (0, 11), (0, 14), (1, 3), (1, 4), (1, 5), (1, 6),
    (1, 9), (1, 11), (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 11), (2, 12),
    (2, 13), (2, 14), (3, 5), (3, 7), (3, 8), (3, 9), (3, 10), (3, 12), (3, 13), (3, 14),
    (4, 9), (4, 10), (4, 11), (4, 12), (5, 6), (5, 8), (5, 9), (5, 10), (5, 11), (5, 12),
    (5, 13), (6, 8), (6, 9), (6, 11), (6, 13), (6, 14), (7, 9), (7, 10), (7, 11), (7, 13),
    (8, 14), (9, 11), (9, 13), (9, 14), (10, 12), (10, 14), (11, 12), (11, 13), (13, 14),
])


def grounded_resistance(h, u, v):
    """R(u, v) from networkx's own Laplacian of h, grounded at v: drop v's
    row and column and solve for the potentials of a unit current into u."""
    lap = nx.laplacian_matrix(h, nodelist=range(h.number_of_nodes())).toarray()
    keep = [x for x in range(len(lap)) if x != v]
    current = np.array(keep) == u
    return np.linalg.solve(lap[np.ix_(keep, keep)], current)[keep.index(u)]


@settings(max_examples=80, deadline=None)
@given(extreme_eigenvalue_graphs())
@example(DENSE_15)
def test_resistance_matches_networkx(g):
    """networkx as an independent oracle for R and R_tot. It reads R_tot as
    infinite across components, so each component's own graph is compared
    on its own.

    The per-pair reference is a grounded solve of networkx's Laplacian, not
    `nx.resistance_distance`: that reads R through a pseudoinverse of L and
    loses accuracy, 7e-4 relative on DENSE_15 and up to 8e-3 on K_12 and
    K_29. On a complete graph R is exactly 2/n, and that is the reference."""
    expected_total = 0.0
    for verts, sub in components(g):
        h = nx.Graph(sub.edges)
        h.add_nodes_from(range(sub.n))
        expected_total += nx.effective_graph_resistance(h)
        complete = 2 * sub.m == sub.n * (sub.n - 1)
        for lu, lv in {(0, sub.n - 1), (0, sub.n // 2), (sub.n // 3, sub.n - 1)}:
            if lu != lv:
                got = effective_resistance(g, int(verts[lu]), int(verts[lv]))
                expected = 2 / sub.n if complete else grounded_resistance(h, lu, lv)
                assert got == pytest.approx(expected, rel=1e-9, abs=0)
    assert total_resistance(g) == pytest.approx(expected_total, rel=1e-9, abs=0)


def test_singletons_are_not_inverted(monkeypatch):
    """Many isolated vertices: one inverse per component of two or more
    vertices, and the same (vertex array, own graph, M) triples as
    splitting the graph and inverting each component."""
    rng = random.Random(8)
    g = shuffled_union(rng, [1, 7, 1, 1, 12, 1, 2, 1])
    expected = [(verts, sub, regularized_inverse_dense(laplacian(sub)))
                for verts, sub in components(g)]
    calls = []

    def counted(lap):
        calls.append(len(lap))
        return regularized_inverse_dense(lap)

    monkeypatch.setattr(sp, "regularized_inverse_dense", counted)
    got = sp.component_inverses(g)
    assert sorted(calls) == [2, 7, 12]
    assert len(got) == len(expected)
    for (v1, s1, m1), (v2, s2, m2) in zip(got, expected):
        assert np.array_equal(v1, v2) and np.array_equal(m1, m2)
        assert (s1.n, s1.edges) == (s2.n, s2.edges)


def test_connected_graph_is_its_own_component():
    """A connected graph is split into itself, not a relabelled copy, and
    its M is the one the relabelling route gives: that of the same graph
    beside an isolated vertex."""
    g = random_connected_graph(random.Random(12), 150, 0.05)
    ((verts, sub, m),) = sp.component_inverses(g)
    assert sub is g and np.array_equal(verts, np.arange(g.n))
    (_, copy, ref), _ = sp.component_inverses(build_graph(g.n + 1, g.edges))
    assert copy is not g and copy.edges == g.edges
    assert np.array_equal(m, ref)
    ((verts, sub, m),) = sp.component_inverses(build_graph(1, []))
    assert sub.n == 1 and verts.tolist() == [0] and m.tolist() == [[1.0]]


def _nan_side(monkeypatch, nan_upper):
    """Patch `_triangle_array` so that each mapped array (past CHOLESKY_ROWS
    rows) holds NaN strictly above the diagonal (`nan_upper`) or below it;
    the side to be written is passed on, and the arrays are kept alive and
    returned."""
    made, alloc = [], sp._triangle_array

    def planted(n, upper):
        a = alloc(n, upper)
        if n > sp.CHOLESKY_ROWS:
            a[np.triu_indices(n, 1) if nan_upper else np.tril_indices(n, -1)] = np.nan
            made.append(a)
        return a

    monkeypatch.setattr(sp, "_triangle_array", planted)
    return made


def _off_panels(n, upper):
    """Mask of the entries above (`upper`) or below the diagonal panels."""
    panel = np.arange(n) // sp.CHOLESKY_ROWS
    return panel[:, None] < panel if upper else panel[:, None] > panel


def _batch_results(g):
    pairs = [(0, g.n - 1), (g.n // 2, 1), (g.n // 3, 2 * g.n // 3), (g.n - 1, g.n - 2)]
    return ([total_resistance(g), rmax(g), mu_bound(g)]
            + [effective_resistance(g, u, v) for u, v in pairs], spectral_gap(g), pairs)


class TestTriangleStorage:
    """The batch layer reads and writes M (the `_inverses` memo) and mu's
    certificate matrix on one side of the diagonal and in the diagonal
    panels only: NaN planted on the other side changes no result."""

    @pytest.mark.parametrize("n", [129, 257, 300, 600])
    @pytest.mark.parametrize("kind", ["path", "odd cycle", "random"])
    def test_unused_side_is_never_read(self, monkeypatch, fresh_memo, n, kind):
        g = {"path": lambda: path_graph(n), "odd cycle": lambda: cycle_graph(n | 1),
             "random": lambda: random_connected_graph(random.Random(n), n, 0.02)}[kind]()
        plain, plain_gap, pairs = _batch_results(g)
        sp._inverses.cache_clear()
        sp._mu.cache_clear()
        upper = _nan_side(monkeypatch, nan_upper=True)
        total_resistance(g)  # M first: mu's array gets its NaN below the diagonal
        monkeypatch.undo()
        lower = _nan_side(monkeypatch, nan_upper=False)
        got, got_gap, _ = _batch_results(g)
        assert got == plain and got_gap == plain_gap
        # the same bits as whole rows and columns of the mirrored, full M give
        ((_, _, m),) = sp.component_inverses(g)
        d = np.diag(m)
        want = ([g.n * float(np.trace(m)) - g.n, float(np.max(d[:, None] + d - 2.0 * m))]
                + [float(m[u, u] + m[v, v] - 2.0 * m[u, v]) for u, v in pairs])
        assert got[:2] == want[:2] and got[3:] == want[2:]  # got[2] is mu
        ritz = sp._lanczos(lambda x: m @ x - x.mean(), g.n, both=False)
        if ritz is not None:
            assert got_gap == pytest.approx(1.0 / ritz[1], rel=1e-12, abs=0)
        # the memo's M and mu's matrix were both mapped, and their NaN side is intact
        assert len(upper) == 1 and len(lower) == 1
        assert sp._inverses(g)[0][1] is upper[0]
        assert np.isnan(upper[0][_off_panels(g.n, upper=True)]).all()
        assert np.isnan(lower[0][_off_panels(g.n, upper=False)]).all()

    def test_small_components_are_not_mapped(self, monkeypatch, fresh_memo):
        """1000 two-vertex components: each M is a plain np.zeros array, so
        no mapping is made per component; mu's one matrix is mapped once."""
        import mmap

        g = build_graph(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
        maps, real = [], mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda *args: maps.append(args) or real(*args))
        assert total_resistance(g) == pytest.approx(1000.0, rel=1e-12)
        assert effective_resistance(g, 0, 1) == pytest.approx(1.0, rel=1e-12)
        assert maps == []
        assert mu_bound(g) == 1.0
        assert len(maps) == 1


@pytest.mark.parametrize("n", [129, 512, 600, 1000])
@pytest.mark.parametrize("upper", [False, True])
def test_triangle_rows_start_or_end_on_a_page(n, upper):
    """Each row's written side lies on a 4 KB boundary: its start in a lower
    triangle, its end in an upper one. Row i of a triangle then takes the
    pages of its i + 1 (or n - i) entries, about half a page more on average,
    where rows packed n apart start mid-page and take one more page each."""
    a = sp._triangle_array(n, upper)
    assert a.shape == (n, n) and a.strides[1] == 8 and not a.any()
    starts = a.__array_interface__["data"][0] + a.strides[0] * np.arange(n)
    assert ((starts + 8 * n * upper) % 4096 == 0).all()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize("calls", [
    "spectral.total_resistance(g); spectral.spectral_gap(g); spectral.rmax(g)",
    "spectral.mu_bound(g)",
    "spectral.mu_bound(g); spectral.total_resistance(g); spectral.spectral_gap(g)",
])
def test_batch_growth_n2400(calls):
    """With one triangle resident on page-aligned rows, `stats`' quantities,
    mu, and `bounds`' own order (mu, then M) each grow the peak by at most
    0.73 n^2 doubles at n=2400: measured 0.69-0.70, 0.70 and 0.69, where
    rows packed n apart read 0.80, 0.76 and 0.78, and both triangles of M
    or of mu's matrix resident 1.11 and 1.07."""
    assert growth_in_child(2400, calls) <= 0.73 * 8 * 2400 ** 2
