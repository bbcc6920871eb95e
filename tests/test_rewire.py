import random

import numpy as np
import pytest

from reswire import (
    InfeasibleSearchError,
    ResistanceState,
    build_graph,
    gtr,
    random_baseline,
    rewire,
    total_resistance,
)
from reswire import graph as gr
from reswire.verify import (
    brute_force_optimal,
    complete_graph,
    delta_table,
    non_edges,
    nonmonotonicity_witness,
    path_graph,
    random_connected_graph,
)


class TestGtr:
    def test_p5_first_edge_is_endpoints(self, p5):
        plan = gtr(p5, 1)
        assert (plan.added[0].u, plan.added[0].v) == (0, 4)

    def test_p5_k2_final_rtot(self, p5):
        plan = gtr(p5, 2)
        assert plan.rtot_final == pytest.approx(8.18, abs=0.01)

    def test_k0_empty_plan(self, p5):
        plan = gtr(p5, 0)
        assert plan.added == []
        assert plan.rtot_trajectory == [pytest.approx(20)]
        assert not plan.truncated
        for k, method in ((-1, "gtr"), (1, "x")):
            with pytest.raises(ValueError):
                rewire(p5, k, method=method)
        with pytest.raises(ValueError):
            gtr(p5, -1)

    def test_trajectory_strictly_decreasing(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(5, 15))
            plan = gtr(g, 4)
            traj = plan.rtot_trajectory
            assert all(b < a for a, b in zip(traj, traj[1:]))

    def test_trajectory_consistent_with_deltas(self):
        rng = random.Random(4)
        g = random_connected_graph(rng, 12)
        plan = gtr(g, 5)
        for i, e in enumerate(plan.added):
            step = plan.rtot_trajectory[i] - plan.rtot_trajectory[i + 1]
            assert step == pytest.approx(e.delta, rel=1e-6)

    def test_truncates_on_complete_graph(self):
        for plan_k3 in (lambda g: gtr(g, 3), lambda g: random_baseline(g, 3, seed=0)):
            with pytest.warns(UserWarning, match="truncated") as caught:
                plan = plan_k3(complete_graph(4))
            assert plan.added == []
            assert plan.truncated
            # the warning names the line that asked for the plan
            assert caught[0].filename == __file__

    def test_added_edges_within_original_component(self, two_k2):
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        plan = gtr(g, 2)
        for e in plan.added:
            assert g.component_id[e.u] == g.component_id[e.v]

    def test_determinism(self, p5):
        a = gtr(p5, 3)
        b = gtr(p5, 3)
        assert a.edge_list() == b.edge_list()
        assert a.rtot_trajectory == b.rtot_trajectory

    def test_replay_reproduces_trajectory(self):
        rng = random.Random(6)
        g = random_connected_graph(rng, 15)
        plan = gtr(g, 5)
        s = ResistanceState(g)
        traj = [s.rtot]
        for u, v in plan.edge_list():
            s.apply_edge(u, v)
            traj.append(s.rtot)
        for a, b in zip(traj, plan.rtot_trajectory):
            assert a == pytest.approx(b, rel=1e-6)


class TestAddedEdge:
    """Each step's r_before, bsq_before and delta are R, B^2 and delta of its
    pair on the graph so far, for GTR and random plans, on graphs of one
    and of several components (one of them in the shared M/N layout)."""

    @staticmethod
    def _graphs():
        rng = random.Random(12)
        parts = [random_connected_graph(rng, n, 0.1) for n in (7, 30, 150)]
        edges, off = [], 0
        for h in parts:
            edges += [(u + off, v + off) for u, v in h.edges]
            off += h.n
        return [path_graph(9), random_connected_graph(rng, 25),
                build_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]),
                build_graph(off, edges)]

    @pytest.mark.parametrize("method", ["gtr", "random"])
    def test_fields_match_fresh_state(self, method):
        eps = np.finfo(float).eps
        for g in self._graphs():
            plan = rewire(g, 6, method=method, seed=5)
            so_far = g
            for e in plan.added:
                want = ResistanceState(so_far).pair_scores(e.u, e.v)
                got = (e.r_before, e.bsq_before, e.delta)
                assert got == pytest.approx(want, rel=1e-12, abs=0)
                n_c = g.component_id.count(g.component_id[e.u])
                assert e.delta == pytest.approx(n_c * e.bsq_before / (1.0 + e.r_before),
                                                rel=4 * eps, abs=0)
                so_far = so_far.with_edges([(e.u, e.v)])


class TestBruteForce:
    def test_p5_k2_beats_gtr(self, p5):
        edges, rtot = brute_force_optimal(p5, 2)
        assert rtot == pytest.approx(7.67, abs=0.01)
        assert rtot < gtr(p5, 2).rtot_final

    def test_k1_agrees_with_gtr_first_pick(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 12))
            if not non_edges(g):
                continue
            edges, rtot = brute_force_optimal(g, 1)
            plan = gtr(g, 1)
            assert rtot == pytest.approx(plan.rtot_final, rel=1e-9)

    def test_k0_unchanged(self, p5):
        edges, rtot = brute_force_optimal(p5, 0)
        assert edges == ()
        assert rtot == pytest.approx(20)

    def test_cap_exceeded(self):
        g = path_graph(30)
        with pytest.raises(InfeasibleSearchError):
            brute_force_optimal(g, 4, cap=100)

    def test_negative_k_rejected(self, p5):
        with pytest.raises(ValueError, match="non-negative"):
            brute_force_optimal(p5, -1)

    def test_k_above_candidates_rejected(self, p5):
        # P5 has 6 non-edges
        with pytest.raises(InfeasibleSearchError, match="k=7 exceeds the 6"):
            brute_force_optimal(p5, 7)

    def test_matches_exhaustive_recompute(self, p5):
        import itertools

        candidates = non_edges(p5)
        best = min(
            total_resistance(p5.with_edges(c))
            for c in itertools.combinations(candidates, 2)
        )
        _, rtot = brute_force_optimal(p5, 2)
        assert rtot == pytest.approx(best, abs=1e-10)


class TestNonmonotonicity:
    def test_p20_witness_exists(self):
        p20 = path_graph(20)
        base = delta_table(p20)
        after = delta_table(p20.with_edges([(0, 19)]))
        increased = [
            e for e in after
            if e in base and e != (0, 19) and after[e] > base[e] + 1e-9
        ]
        assert increased

    def test_p20_witness_values(self):
        # published before-value 91/3 ~= 30.33; the after-value in the text
        # (40.17) is a digit transposition of the true 285/7 ~= 40.71,
        # confirmed by from-scratch recompute (see test below)
        p20 = path_graph(20)
        base = delta_table(p20)
        after = delta_table(p20.with_edges([(0, 19)]))
        assert base[(0, 2)] == pytest.approx(91 / 3, abs=1e-6)
        assert after[(0, 2)] == pytest.approx(285 / 7, abs=1e-6)

    def test_p20_after_value_recompute(self):
        p20 = path_graph(20)
        g1 = p20.with_edges([(0, 19)])
        exact = total_resistance(g1) - total_resistance(g1.with_edges([(0, 2)]))
        assert exact == pytest.approx(285 / 7, abs=1e-6)

    def test_witness_function_p20(self):
        w = nonmonotonicity_witness(path_graph(20))
        assert w is not None
        e, f = w
        base = delta_table(path_graph(20))
        after = delta_table(path_graph(20).with_edges([f]))
        assert after[e] > base[e]

    def test_no_witness_on_dense_small_graph(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert nonmonotonicity_witness(g) is None

    def test_p5_regression_fixture(self, p5):
        # frozen from an exhaustive scan: P5 admits no increasing pair
        assert nonmonotonicity_witness(p5) is None


class TestRandomBaseline:
    def test_determinism(self, p5):
        a = random_baseline(p5, 2, seed=42)
        b = random_baseline(p5, 2, seed=42)
        assert a.edge_list() == b.edge_list()
        assert a.rtot_trajectory == b.rtot_trajectory

    def test_k0(self, p5):
        plan = random_baseline(p5, 0, seed=0)
        assert plan.added == []
        with pytest.raises(ValueError):
            random_baseline(p5, -1, seed=0)

    def test_edges_within_component(self):
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        plan = random_baseline(g, 2, seed=1)
        for e in plan.added:
            assert g.component_id[e.u] == g.component_id[e.v]

    def test_gtr_at_least_as_good_at_step_one(self, p5):
        best = gtr(p5, 1).rtot_trajectory[1]
        for seed in range(5):
            plan = random_baseline(p5, 1, seed=seed)
            assert plan.rtot_trajectory[1] >= best - 1e-9

    def test_one_graph_split(self, monkeypatch):
        """The candidates come from the state's component vertex arrays, so
        the graph is split once; the plan is the one drawn from the sorted
        `verify.non_edges` list."""
        g = build_graph(10, [(0, 4), (4, 7), (7, 9), (1, 2), (2, 5), (3, 8)])
        rng, candidates = random.Random(4), non_edges(g)
        expected = [candidates.pop(rng.randrange(len(candidates))) for _ in range(3)]
        calls, split = [], gr.components

        def counted(h):
            calls.append(h.n)
            return split(h)

        monkeypatch.setattr(gr, "components", counted)
        plan = random_baseline(g, 3, seed=4)
        assert calls == [10]
        assert plan.edge_list() == expected
