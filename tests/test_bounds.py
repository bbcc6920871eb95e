import random

import pytest

from reswire import (
    BipartiteGraphError,
    BoundParams,
    DisconnectedGraphError,
    build_graph,
    jacobian_bound_adjacency,
    jacobian_bound_resistance,
    rmax,
    spectral_gap,
    spectral_gap_jacobian_bound,
    total_jacobian_bound,
)
from reswire.verify import (
    complete_graph,
    path_graph,
    random_nonbipartite_connected_graph,
)


class TestParams:
    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(beta=0.5)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(r=-1)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(alpha=0.0)

    @pytest.mark.parametrize("mu", [1.0, 1.5, float("inf"), float("nan")])
    def test_mu_outside_unit_interval_rejected(self, mu):
        with pytest.raises(ValueError):
            BoundParams(mu=mu)


class TestAdjacencyBound:
    def test_r0_diagonal(self, triangle):
        assert jacobian_bound_adjacency(triangle, 0, 0, BoundParams(r=0)) == 1.0

    def test_r0_off_diagonal(self, triangle):
        assert jacobian_bound_adjacency(triangle, 0, 1, BoundParams(r=0)) == 0.0

    def test_r1_k2(self, k2):
        # Ahat(K2) off-diagonal is 1, so the l<=1 power sum is 1; (2ab)^1 = 2
        assert jacobian_bound_adjacency(k2, 0, 1, BoundParams(r=1)) == pytest.approx(2)

    @pytest.mark.parametrize("pair", [(-1, 3), (0, 9), (5, 0)])
    def test_out_of_range_rejected(self, pair):
        g = random_nonbipartite_connected_graph(random.Random(0), 5)
        for bound in (jacobian_bound_adjacency, jacobian_bound_resistance):
            with pytest.raises(ValueError, match="out of range"):
                bound(g, *pair, BoundParams(r=2))

    def test_isolated_endpoint(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2)])  # vertex 3 is isolated
        p = BoundParams(r=3)
        assert jacobian_bound_adjacency(g, 3, 3, p) == 2.0 ** 3
        assert jacobian_bound_adjacency(g, 3, 0, p) == 0.0
        assert jacobian_bound_adjacency(g, 0, 3, p) == 0.0

    def test_matches_dense_powers(self):
        import numpy as np

        from reswire.graph import normalized_adjacency

        rng = random.Random(2)
        for _ in range(10):
            g = random_nonbipartite_connected_graph(rng, rng.randint(3, 10))
            r = rng.choice([0, 1, 2, 4])
            ahat = normalized_adjacency(g)
            acc = np.zeros_like(ahat)
            power = np.eye(g.n)
            for _ in range(r + 1):
                acc += power
                power = power @ ahat
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            p = BoundParams(alpha=1.3, beta=1.1, r=r)
            expected = (2 * 1.3 * 1.1) ** r * acc[u, v]
            assert jacobian_bound_adjacency(g, u, v, p) == pytest.approx(
                expected, abs=1e-10
            )


class TestResistanceBound:
    def test_triangle_plug_in(self, triangle):
        # d=2, mu=1/2, R=2/3, r=1: 2 * (2/2) * ((2/2)(2 + 0.25/0.5) - 2/3)
        expected = 2.0 * 1.0 * ((2.0 / 2.0) * (2 + 0.25 / 0.5) - 2.0 / 3.0)
        got = jacobian_bound_resistance(triangle, 0, 1, BoundParams(r=1))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_bipartite_rejected(self, c4):
        with pytest.raises(BipartiteGraphError):
            jacobian_bound_resistance(c4, 0, 1, BoundParams(r=1))

    def test_dominates_adjacency_bound(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_nonbipartite_connected_graph(rng, rng.randint(3, 15))
            u, v = rng.sample(range(g.n), 2)
            p = BoundParams(r=rng.choice([0, 1, 2, 4]))
            adj = jacobian_bound_adjacency(g, u, v, p)
            res = jacobian_bound_resistance(g, u, v, p)
            assert adj <= res + 1e-9

    def test_negative_value_not_clamped(self):
        # with a caller-supplied mu the raw formula can go negative; the
        # value is returned as-is, never clamped to 0
        from reswire import build_graph, effective_resistance

        n = 15
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        got = jacobian_bound_resistance(g, 0, 7, BoundParams(r=0, mu=0.0))
        expected = (2 / 2) * (2 / 2 * 1 - effective_resistance(g, 0, 7))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got < 0

    def test_caller_supplied_mu_override(self, triangle):
        exact = jacobian_bound_resistance(triangle, 0, 1, BoundParams(r=1))
        loose = jacobian_bound_resistance(triangle, 0, 1, BoundParams(r=1, mu=0.9))
        assert loose > exact


class TestAggregateBounds:
    def test_triangle_total_r0(self, triangle):
        # Rtot(K3) = 3 * (1/3 + 1/3) = 2; tail = 1 + 0.5/0.5 = 2
        expected = 1.0 * (2.0 / 2.0) * ((3 * 2 / 2.0) * 2 - 2.0)
        got = total_jacobian_bound(triangle, BoundParams(r=0))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_duplicate_evaluation(self):
        import numpy as np

        from reswire import total_resistance
        from reswire.graph import degrees
        from reswire.spectral import mu_bound

        rng = random.Random(5)
        for _ in range(20):
            g = random_nonbipartite_connected_graph(rng, rng.randint(3, 12))
            p = BoundParams(alpha=1.2, beta=1.5, r=rng.choice([0, 1, 2]))
            d = degrees(g)
            mu = mu_bound(g)
            tail = p.r + 1 + mu ** (p.r + 1) / (1 - mu)
            expected = (2 * p.alpha * p.beta) ** p.r * (int(d.max()) / 2) * (
                g.n * (g.n - 1) / int(d.min()) * tail - total_resistance(g)
            )
            assert total_jacobian_bound(g, p) == pytest.approx(
                expected, abs=1e-12 * max(1, abs(expected))
            )

    def test_spectral_gap_version_is_looser(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_nonbipartite_connected_graph(rng, rng.randint(3, 15))
            p = BoundParams(r=rng.choice([0, 1, 2, 4]))
            assert total_jacobian_bound(g, p) <= (
                spectral_gap_jacobian_bound(g, p) + 1e-9
            )

    @pytest.mark.parametrize("bound", [total_jacobian_bound, spectral_gap_jacobian_bound])
    def test_disconnected_rejected(self, bound):
        two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(DisconnectedGraphError):
            bound(two_triangles, BoundParams())

    def test_triangle_ordering(self, triangle):
        p = BoundParams(r=0)
        assert spectral_gap_jacobian_bound(triangle, p) >= total_jacobian_bound(
            triangle, p
        )

    def test_sandwich(self):
        rng = random.Random(9)
        for _ in range(50):
            g = random_nonbipartite_connected_graph(rng, rng.randint(3, 15))
            s2 = spectral_gap(g)
            r = rmax(g)
            assert 1 / (g.n * s2) <= r + 1e-9 <= 2 / s2 + 2e-9 + r

    def test_rewiring_tightens_total_bound_term(self):
        from reswire import gtr, total_resistance

        rng = random.Random(11)
        g = random_nonbipartite_connected_graph(rng, 10)
        plan = gtr(g, 1)
        rewired = g.with_edges(plan.edge_list())
        assert total_resistance(rewired) < total_resistance(g)
