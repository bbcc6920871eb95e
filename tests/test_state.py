import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reswire import (
    CrossComponentError,
    ResistanceState,
    build_graph,
    laplacian,
    rewire,
    same_component_non_edges,
    total_resistance,
)
from reswire import graph as gr
from reswire import spectral as sp
from reswire.rewiring import gtr, random_baseline
from reswire.spectral import _inf_norm
from reswire.state import TIE_BAND, _Component
from reswire.verify import (
    complete_graph,
    current_graph,
    cycle_graph,
    delta_table,
    non_edges,
    path_graph,
    pseudo_inverse,
    random_connected_graph,
    random_non_edge,
)

from conftest import SRC, growth_in_child, random_graphs

SETUP = "spectral.component_inverses(g)"  # the set-up alone, for `growth_in_child`


class TestInit:
    def test_p5_rtot(self, p5):
        assert ResistanceState(p5).rtot == pytest.approx(20)

    def test_k2_m_and_rtot(self, k2):
        s = ResistanceState(k2)
        assert np.allclose(s.comps[0].m, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)
        assert s.rtot == pytest.approx(1)

    def test_disconnected(self, two_k2):
        assert ResistanceState(two_k2).rtot == pytest.approx(2)

    def test_n_is_m_squared(self):
        for g in random_graphs(21, 5, 3, 20):
            s = ResistanceState(g)
            for c in s.comps:
                assert np.allclose(c.n2, c.m @ c.m, atol=1e-10)

    def test_one_graph_split(self, monkeypatch):
        # components, their own graphs and their M come from one split
        calls, split = [], gr.components

        def counted(g):
            calls.append(g.n)
            return split(g)

        monkeypatch.setattr(gr, "components", counted)
        g = build_graph(9, [(0, 4), (4, 7), (1, 2), (2, 5), (5, 1), (3, 8)])
        s = ResistanceState(g)
        assert calls == [9]
        # the one-vertex component {6} gets no _Component: it has no candidate
        assert [c.verts.tolist() for c in s.comps] == [[0, 4, 7], [1, 2, 5], [3, 8]]

    def test_many_singletons(self):
        """Isolated vertices change no score, pick or plan: the same graph
        without them, relabelled in order, gives the same results."""
        rng = random.Random(47)
        g = _union(rng, [1] * 40 + [9, 1, 14, 1, 2])
        keep = sorted({x for e in g.edges for x in e})
        small = build_graph(len(keep), [tuple(keep.index(x) for x in e) for e in g.edges])
        s, ref = ResistanceState(g), ResistanceState(small)
        assert [c.size for c in s.comps] == [c.size for c in ref.comps]
        assert s.rtot == ref.rtot
        u, v, *scores = s.best_candidate()
        ru, rv, *ref_scores = ref.best_candidate()
        assert (u, v, scores) == (keep[ru], keep[rv], ref_scores)
        for method in ("gtr", "random"):
            plan, ref_plan = rewire(g, 12, method, seed=3), rewire(small, 12, method, seed=3)
            assert plan.rtot_trajectory == ref_plan.rtot_trajectory
            assert plan.edge_list() == [(keep[a], keep[b]) for a, b in ref_plan.edge_list()]
        with pytest.raises(CrossComponentError):
            s.pair_scores(u, next(x for x in range(g.n) if x not in keep))


class TestPairScores:
    def test_p5_delta_matches_recompute(self, p5):
        s = ResistanceState(p5)
        _, _, delta = s.pair_scores(0, 4)
        exact = total_resistance(p5) - total_resistance(p5.with_edges([(0, 4)]))
        assert delta == pytest.approx(exact, abs=1e-8)

    def test_random_deltas_match_recompute(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(4, 30))
            pair = random_non_edge(rng, g)
            if pair is None:
                continue
            u, v = pair
            _, _, delta = ResistanceState(g).pair_scores(u, v)
            exact = total_resistance(g) - total_resistance(g.with_edges([(u, v)]))
            assert delta == pytest.approx(exact, rel=1e-6)

    def test_same_vertex_rejected(self, p5):
        with pytest.raises(ValueError):
            ResistanceState(p5).pair_scores(2, 2)

    def test_existing_edge_rejected(self, p5):
        with pytest.raises(ValueError, match="already present"):
            ResistanceState(p5).pair_scores(0, 1)

    @pytest.mark.parametrize("method", ["pair_scores", "apply_edge"])
    @pytest.mark.parametrize("pair", [(-1, 3), (0, 7), (7, 0)])
    def test_out_of_range_rejected(self, p5, method, pair):
        s = ResistanceState(p5)
        rtot = s.rtot
        with pytest.raises(ValueError, match="out of range"):
            getattr(s, method)(*pair)
        assert s.rtot == rtot
        assert s.added_edges == []

    def test_cross_component_rejected(self, two_k2):
        with pytest.raises(CrossComponentError):
            ResistanceState(two_k2).pair_scores(0, 2)

    def test_positive_delta(self):
        # from w, then from M and N once a scan has built N
        for g in random_graphs(31, 5, 4, 15):
            s = ResistanceState(g)
            for scan in (False, True):
                if scan:
                    s.best_candidate()
                for u, v in non_edges(g):
                    r, bsq, delta = s.pair_scores(u, v)
                    assert r > 0 and bsq > 0 and delta > 0

    def test_bsq_matches_pseudoinverse_square(self):
        # B^2 = (e_u - e_v)^T (L^+)^2 (e_u - e_v) over every non-edge: from w,
        # then from M and N once a scan has built N
        for g in random_graphs(6, 8, 2, 15):
            lp = pseudo_inverse(laplacian(g))
            s = ResistanceState(g)
            for scan in (False, True):
                if scan:
                    s.best_candidate()
                for u, v in non_edges(g):
                    x = lp[:, u] - lp[:, v]
                    assert s.pair_scores(u, v)[1] == pytest.approx(float(x @ x), abs=1e-8)


class TestApplyEdge:
    def test_p5_rtot_after(self, p5):
        s = ResistanceState(p5)
        _, _, delta = s.pair_scores(0, 4)
        s.apply_edge(0, 4)
        fresh = ResistanceState(p5.with_edges([(0, 4)]))
        assert s.rtot == pytest.approx(fresh.rtot, abs=1e-8)
        assert s.rtot == pytest.approx(20 - delta, abs=1e-8)

    def test_sequential_insertions_match_scratch(self):
        rng = random.Random(5)
        g = random_connected_graph(rng, 40)
        s = ResistanceState(g)
        for _ in range(50):
            pair = random_non_edge(rng, current_graph(s))
            if pair is None:
                break
            s.apply_edge(*pair)
        fresh = ResistanceState(current_graph(s))
        assert np.max(np.abs(s.comps[0].m - fresh.comps[0].m)) <= 1e-8
        assert np.max(np.abs(s.comps[0].n2 - fresh.comps[0].n2)) <= 1e-7
        assert abs(s.rtot - fresh.rtot) / fresh.rtot <= 1e-6

    def test_strict_decrease(self):
        rng = random.Random(9)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 20))
            s = ResistanceState(g)
            for _ in range(5):
                pair = random_non_edge(rng, current_graph(s))
                if pair is None:
                    break
                before = s.rtot
                s.apply_edge(*pair)
                assert s.rtot < before


class TestAllPairScores:
    """`verify.delta_table`: the delta of every same-component non-edge,
    read through `pair_scores`."""

    def test_k2_empty(self, k2):
        assert delta_table(k2) == {}

    def test_p3_single_row(self):
        assert list(delta_table(path_graph(3))) == [(0, 2)]

    def test_row_count(self):
        from reswire.graph import components

        for g in random_graphs(41, 5, 4, 20):
            rows = delta_table(g)
            expected = 0
            for verts, _ in components(g):
                nc = len(verts)
                mc = sum(
                    1 for u, v in g.edges
                    if g.component_id[u] == g.component_id[int(verts[0])]
                )
                expected += nc * (nc - 1) // 2 - mc
            assert len(rows) == expected

    def test_rows_match_pair_scores(self, p5):
        # a state whose scan has built N scores every pair to the bit as
        # one without N, as delta_table reads them; the 200-vertex
        # component shares one array between M and N
        rng = random.Random(59)
        for g in (p5, _union(rng, [7, 200])):
            built, fresh = ResistanceState(g), ResistanceState(g)
            built.best_candidate()
            table, pairs = delta_table(g), non_edges(g)
            assert list(table) == pairs
            for u, v in rng.sample(pairs, min(len(pairs), 400)):
                scores = built.pair_scores(u, v)
                assert scores == fresh.pair_scores(u, v)
                assert scores[2] == pytest.approx(table[u, v], abs=1e-12)
            assert all(c._n2 is not None for c in built.comps)
            assert all(c._n2 is None for c in fresh.comps)


def _dense_scores(s, c):
    """(a, b, [R, B^2, delta]) of every candidate a < b of the component c
    of state s, the non-edges of s's current graph in row-major order,
    from the `m` and `n2` copies: the scan's entries of M and N and its
    arithmetic, R = M_aa + M_bb - 2 M_ab and B^2 = N_aa + N_bb - 2 N_ab."""
    n2, m = c.n2, c.m
    pairs = np.array(non_edges(current_graph(s)), dtype=np.int64).reshape(-1, 2)
    a, b = c.verts.searchsorted(pairs[np.isin(pairs[:, 0], c.verts)]).T
    r = m[a, a] + m[b, b] - 2.0 * m[a, b]
    bsq = n2[a, a] + n2[b, b] - 2.0 * n2[a, b]
    return a, b, np.array([r, bsq, c.size * bsq / (1.0 + r)])


def _reference_best(s):
    """The lexicographically first candidate whose pair_scores delta lies
    within the tie band of the largest: delta >= max - |max| * band of its
    component, as `best_candidate` promises."""
    rows = [(u, v, *s.pair_scores(u, v)) for u, v in non_edges(current_graph(s))]
    if not rows:
        return None
    best = max(row[4] for row in rows)
    band = {int(x): c.band for c in s.comps for x in c.verts}
    return next(row for row in rows if row[4] >= best - abs(best) * band[row[0]])


def _union(rng, sizes):
    """Disjoint random connected graphs with shuffled vertex labels."""
    edges, off = [], 0
    for n in sizes:
        g = random_connected_graph(rng, n, 0.2)
        edges += [(u + off, v + off) for u, v in g.edges]
        off += n
    perm = list(range(off))
    rng.shuffle(perm)
    return build_graph(off, [(perm[u], perm[v]) for u, v in edges])


def _barbell(k, bridge):
    """Two K_k joined by a path with `bridge` inner vertices."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k - 1 + i, k + i) for i in range(bridge + 1)]
    off = k + bridge
    edges += [(off + i, off + j) for i in range(k) for j in range(i + 1, k)]
    return build_graph(2 * k + bridge, edges)


def _hypercube(d):
    n = 1 << d
    return build_graph(n, [(u, u ^ bit) for u in range(n)
                           for bit in (1 << i for i in range(d)) if u < u ^ bit])


def _complete_bipartite(a):
    return build_graph(2 * a, [(i, a + j) for i in range(a) for j in range(a)])


_VERTEX_TRANSITIVE = st.one_of(st.integers(4, 300).map(cycle_graph),
                               st.integers(2, 70).map(_complete_bipartite),
                               st.integers(2, 8).map(_hypercube))


class TestTieBand:
    """best_candidate takes the lexicographically first pair within a
    roundoff band of the largest delta, so exact ties never break by
    roundoff."""

    @settings(max_examples=40, deadline=None)
    @given(_VERTEX_TRANSITIVE)
    def test_first_pick_is_first_exact_tie(self, g):
        # exact ties: within 1e-9 relative of the maximum, as the benchmark's
        # oracle; one component, so row-major order is (u, v) order
        s = ResistanceState(g)
        a, b, (_, _, delta) = _dense_scores(s, *s.comps)
        first = int(np.argmax(delta >= delta.max() * (1 - 1e-9)))
        assert ResistanceState(g).best_candidate()[:2] == (a[first], b[first])

    @pytest.mark.parametrize("band", [1e-3, 0.3])
    def test_wide_band_matches_reference(self, band):
        # a wide band makes chunks' first pairs fall outside the global band,
        # so best_candidate must score those chunks again
        rng = random.Random(71)
        graphs = [_union(rng, [rng.randint(3, 40) for _ in range(rng.randint(1, 3))])
                  for _ in range(12)]
        for g in graphs + [_union(rng, [130])]:
            s = ResistanceState(g)
            for c in s.comps:  # N built before the band is widened; no scan has kept a list yet
                c._build_n()
                c.band = band
            for _ in range(3 if g in graphs else 1):
                best = s.best_candidate()
                assert best == _reference_best(s)
                if best is None:
                    break
                s.apply_edge(*best[:2])

    def test_cycle_picks(self):
        for n, pick in ((10, (0, 5)), (64, (0, 32)), (301, (0, 150))):
            assert ResistanceState(cycle_graph(n)).best_candidate()[:2] == pick

    def test_band_fixed_at_construction(self):
        """kappa comes with the set-up's M: before any scan the band is
        TIE_BAND eps ||A||_inf ||M||_inf of that M, ||A||_inf from the
        degrees, for a one-block component and a packed one, and building
        N leaves it as it is."""
        g = _union(random.Random(73), [70, 200])
        degrees = gr.degrees(g)
        for c in ResistanceState(g).comps:
            assert c._n2 is None and c.size in (70, 200)
            norm_a = sp._shifted_norm(degrees[c.verts].max(), c.size)
            band = TIE_BAND * np.finfo(float).eps * norm_a * _inf_norm(c.m)
            assert c.band == band
            c._build_n()
            assert c.band == band

    def test_inf_norm_once_per_component(self, monkeypatch):
        """A GTR plan and a random plan each read ||M||_inf once per
        component of two or more vertices: in the set-up's check, not
        again when N is built."""
        g = _union(random.Random(79), [1, 40, 150])
        read, inf_norm = [], sp._inf_norm
        monkeypatch.setattr(sp, "_inf_norm", lambda m: read.append(len(m)) or inf_norm(m))
        for plan in (lambda: gtr(g, 4), lambda: random_baseline(g, 10, seed=3)):
            read.clear()
            assert len(plan().added) > 0
            assert sorted(read) == [40, 150]

    def test_band_far_below_oracle_ties(self):
        rng = random.Random(67)
        graphs = [random_connected_graph(rng, n, 0.01) for n in (40, 400)]
        graphs += [path_graph(120), cycle_graph(300), _complete_bipartite(60)]
        for g in graphs:
            s = ResistanceState(g)
            s.best_candidate()
            for c in s.comps:
                assert 0.0 < c.band <= 1e-10


class TestPackedLayout:
    """A component of more than 128 vertices keeps M and N in one n^2 array
    once N exists; the materialised `m` and `n2` match a fresh state."""

    @pytest.mark.parametrize("n", [129, 200, 257, 300, 400, 640])
    def test_build_n_placement(self, n):
        """Middle rests split at n/2 (129, 200, 400) and kept whole as one
        self-mirrored block (257, 300, 640): `_build_n` leaves P's upper
        triangle as it was and writes N_ij at P[j, i] inside a block and
        at P[i + s(i), j - hi(i)] right of it, s(i) = n - lo(i) - hi(i)."""
        c = ResistanceState(random_connected_graph(random.Random(n), n, 0.02)).comps[0]
        m = c._m.copy()
        dense = m @ m
        c._build_n()
        p = c._m
        assert np.array_equal(np.triu(p), np.triu(m))
        got = np.diag(c._n2)
        for lo, hi in zip(c._bounds[:-1], c._bounds[1:]):
            got[lo:hi, lo:hi] += np.triu(p[lo:hi, lo:hi].T, 1)
            got[lo:hi, hi:] = p[n - hi:n - lo, :n - hi]
        assert np.max(np.abs(got - np.triu(dense))) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("sizes", [[127], [128], [129], [255], [256], [257], [300],
                                       [385], [129, 300], [127, 257, 128]])
    def test_insertions_match_scratch(self, sizes):
        rng = random.Random(sum(sizes))
        s = ResistanceState(_union(rng, sizes))
        _random_insertions(s, rng, 5)  # pending rows, then flushed by the first scan
        for _ in range(6):
            s.apply_edge(*s.best_candidate()[:2])
        _random_insertions(s, rng, 5)
        fresh = ResistanceState(current_graph(s))
        firsts, best = [], 0.0
        for c, f in zip(s.comps, fresh.comps):
            assert c._n2 is not None
            assert np.max(np.abs(c.m - f.m)) <= 1e-12
            assert np.max(np.abs(c.n2 - f.n2)) <= 1e-12
            a, b, scores = _dense_scores(s, c)
            assert np.allclose(scores, _dense_scores(fresh, f)[2], rtol=1e-9, atol=0)
            for i in rng.sample(range(len(a)), min(len(a), 200)):
                assert c.pair(a[i], b[i]) == pytest.approx(tuple(scores[:, i]), rel=1e-12)
            best = max(best, scores[2].max())
            firsts.append((c, a, b, scores))
        # the band contract, from the scores of every pair
        u, v = min((int(c.verts[a[i]]), int(c.verts[b[i]])) for c, a, b, scores in firsts
                   for i in [int(np.argmax(scores[2] >= best - best * c.band))]
                   if scores[2].max() >= best - best * c.band)
        assert s.best_candidate() == (u, v, *s.pair_scores(u, v))

    def test_production_paths_read_no_dense_copy(self, monkeypatch):
        """gtr and random_baseline read M and N from the layout: never
        through the `m` or `n2` properties once N exists, which copy."""
        reads = []
        for name in ("m", "n2"):
            def guarded(self, fget=getattr(_Component, name).fget, name=name):
                if self._n2 is not None:
                    reads.append(name)
                return fget(self)
            monkeypatch.setattr(_Component, name, property(guarded))
        g = _union(random.Random(61), [300, 129, 40])
        assert gtr(g, 8).edge_list()
        assert random_baseline(g, 30, seed=2).edge_list()
        assert reads == []


class TestKernel:
    def test_scan_matches_pair_scores_maximum(self):
        rng = random.Random(17)
        graphs = [cycle_graph(n) for n in (4, 5, 6, 10, 16)]
        graphs += [_union(rng, [rng.randint(1, 12) for _ in range(rng.randint(1, 3))])
                   for _ in range(30)]
        for g in graphs:
            s = ResistanceState(g)
            for _ in range(6):
                best = s.best_candidate()
                assert best == _reference_best(s)
                if best is None:
                    break
                s.apply_edge(*best[:2])

    def test_step_rescans_only_the_changed_component(self, monkeypatch):
        # 40 disjoint P4 and one P20: after the first step, a step scores the
        # chunks of the component that took the last edge, plus one chunk per
        # `first_at_least` re-score, and picks as the reference does
        edges = [(4 * i + j, 4 * i + j + 1) for i in range(40) for j in range(3)]
        g = build_graph(180, edges + [(160 + j, 161 + j) for j in range(19)])
        scored, rescored = [], []
        chunk_scores, first_at_least = _Component._chunk_scores, _Component.first_at_least
        monkeypatch.setattr(_Component, "_chunk_scores",
                            lambda c, *a: scored.append(c) or chunk_scores(c, *a))
        monkeypatch.setattr(_Component, "first_at_least",
                            lambda c, *a: rescored.append(c) or first_at_least(c, *a))
        s, changed = ResistanceState(g), None
        for _ in range(8):
            scored.clear()
            rescored.clear()
            best = s.best_candidate()
            if changed is None:
                assert len(scored) == sum(len(c._chunks) for c in s.comps) + len(rescored)
            else:
                assert Counter(scored) == Counter([changed] * len(changed._chunks) + rescored)
            assert best == _reference_best(s)
            s.apply_edge(*best[:2])
            changed = next(c for c in s.comps if best[0] in c.verts)

    def test_gtr_insertions_match_scratch(self):
        g = random_connected_graph(random.Random(23), 60, 0.1)
        s = ResistanceState(g)
        for _ in range(50):
            s.apply_edge(*s.best_candidate()[:2])
        fresh = ResistanceState(current_graph(s))
        assert np.max(np.abs(s.comps[0].m - fresh.comps[0].m)) <= 1e-12
        assert np.max(np.abs(s.comps[0].n2 - fresh.comps[0].n2)) <= 1e-12

    def test_n_exactly_symmetric_after_first_scan(self):
        # N = M^T M by syrk, so the first scan reads an exactly symmetric N
        rng = random.Random(53)
        for g in (random_connected_graph(rng, 150, 0.05), path_graph(129), complete_graph(40)):
            s = ResistanceState(g)
            s.best_candidate()
            n2 = s.comps[0].n2
            assert np.array_equal(n2, n2.T)

    def test_rcond_bound_below_eigvalsh(self):
        rng = random.Random(29)
        paths = [path_graph(n) for n in (2, 3, 10, 50, 200)]
        cycles = [cycle_graph(n) for n in (3, 10, 100)]
        others = [_barbell(k, b) for k in (3, 5, 10) for b in (0, 1, 5, 20)]
        others += [complete_graph(n) for n in (2, 5, 20)]
        others += [random_connected_graph(rng, rng.randint(2, 60),
                                          rng.choice([0.0, 0.1, 0.25, 0.6]))
                   for _ in range(40)]
        # est <= exact <= n * est is rigorous for symmetric A, from
        # ||.||_2 <= ||.||_inf <= sqrt(n) ||.||_2; the factor 2 holds on paths
        # and cycles, not in general (barbells reach 2.1, random trees 3.5)
        cases = [(g, 2.0) for g in paths + cycles] + [(g, g.n) for g in others]
        for g, factor in cases:
            a = laplacian(g) + 1.0 / g.n
            w = np.linalg.eigvalsh(a)
            exact = w[0] / w[-1]
            est = 1.0 / (_inf_norm(a) * _inf_norm(np.linalg.inv(a)))
            assert est <= exact * (1 + 1e-12)
            assert exact <= factor * est * (1 + 1e-12)


def _random_insertions(s, rng, count):
    """Score and add `count` uniform random candidates, as the random
    baseline does."""
    candidates = non_edges(current_graph(s))
    for _ in range(count):
        u, v = candidates.pop(rng.randrange(len(candidates)))
        s.pair_scores(u, v)
        s.apply_edge(u, v)


class TestDelayed:
    """Before N is built, insertions wait as rows of a pending factor and
    go into M together: when M is read, and when their count reaches the
    component size."""

    @pytest.mark.parametrize("sizes, count", [([12], 40), ([11, 12, 13], 100)])
    def test_insertions_past_flush_match_scratch(self, sizes, count):
        rng = random.Random(37)
        s = ResistanceState(_union(rng, sizes))
        _random_insertions(s, rng, count)
        per_comp = Counter(s.original.component_id[u] for u, _ in s.added_edges)
        fresh = ResistanceState(current_graph(s))
        for label, (c, f) in enumerate(zip(s.comps, fresh.comps)):
            # each component went through a flush, and none built N
            assert per_comp[label] >= c.size and c._n2 is None
            assert np.max(np.abs(c.m - f.m)) <= 1e-8
            assert np.max(np.abs(c.n2 - f.n2)) <= 1e-7
        assert abs(s.rtot - fresh.rtot) / fresh.rtot <= 1e-6

    def test_pair_scores_and_apply_edge_never_build_n(self):
        rng = random.Random(41)
        s = ResistanceState(_union(rng, [9, 14]))
        _random_insertions(s, rng, 30)
        # the delayed scores match M and N of a state built from scratch
        fresh = ResistanceState(current_graph(s))
        fresh.best_candidate()
        for u, v in non_edges(current_graph(s)):
            assert s.pair_scores(u, v) == pytest.approx(fresh.pair_scores(u, v), rel=1e-9)
        assert all(c._n2 is None for c in s.comps)
        assert all(c._n2 is not None for c in fresh.comps)

    def test_best_candidate_after_delayed_insertions(self):
        rng = random.Random(43)
        for _ in range(20):
            g = _union(rng, [rng.randint(2, 12) for _ in range(rng.randint(1, 3))])
            s = ResistanceState(g)
            _random_insertions(s, rng, rng.randrange(len(non_edges(g)) + 1))
            assert all(c._n2 is None for c in s.comps)
            for _ in range(2):  # the first scan applies the pending rows and builds N
                best = s.best_candidate()
                assert best == _reference_best(s)
                if best is None:
                    break
                s.apply_edge(*best[:2])


def _assert_view_matches(s):
    """The state's view of its candidates pops, from the end, each pair of
    the sorted non-edge list of its current graph."""
    view = same_component_non_edges(s)
    pairs = non_edges(current_graph(s))
    assert len(view) == len(pairs)
    for i in reversed(range(len(pairs))):
        assert view.pop(i) == pairs[i]  # the last pair of a row: no apply_edge needed
    assert len(view) == 0


class TestCandidateView:
    """`same_component_non_edges(s)` reads the neighbour lists the state
    keeps, original and added edges: its i-th pair is that of the
    current graph's sorted non-edges, before and after insertions, pending
    or with N built, in components of 1, 2, 129 and 300 vertices."""

    def test_pop_matches_list(self):
        rng = random.Random(73)
        g = _union(rng, [1, 2, 129, 300])
        s = ResistanceState(g)
        _assert_view_matches(s)
        _random_insertions(s, rng, 5)
        for _ in range(3):  # the first scan applies the pending rows and builds N
            s.apply_edge(*s.best_candidate()[:2])
        _random_insertions(s, rng, 5)
        _assert_view_matches(s)
        # drawn and added one at a time, as the random baseline does
        view = same_component_non_edges(s)
        pairs = non_edges(current_graph(s))
        for _ in range(100):
            i = rng.randrange(len(pairs))
            pair = view.pop(i)
            assert pair == pairs.pop(i)
            s.apply_edge(*pair)
        assert len(view) == len(pairs)


class TestMemory:
    """tracemalloc peaks as the benchmark's memory probe takes them: the
    state's own M and N take at most 2 n^2 doubles (n^2 + n once they share
    one array), so each peak leaves at most one more n^2 for temporaries."""

    @staticmethod
    def _peaks(g):
        """tracemalloc peaks of the state's init and of one GTR step, in
        units of n^2 doubles."""
        tracemalloc.start()
        try:
            s = ResistanceState(g)
            init_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            u, v, *_ = s.best_candidate()
            s.apply_edge(u, v)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return init_peak / (8 * g.n ** 2), step_peak / (8 * g.n ** 2)

    def test_init_and_step_peaks(self):
        init_peak, step_peak = self._peaks(random_connected_graph(random.Random(31), 300, 0.02))
        assert init_peak <= 3
        assert step_peak <= 3

    def test_init_and_step_peaks_n1600(self):
        """At n=1600 the state is P and O(n) doubles: no candidate mask
        (0.125 n^2) and no diagonal blocks of N (up to 128 n doubles) beside
        it. Measured 1.09 and 1.07 n^2, where they were 1.19 and 1.26."""
        init_peak, step_peak = self._peaks(random_connected_graph(random.Random(0), 1600, 0.005))
        assert init_peak <= 1.10
        assert step_peak <= 1.10

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_setup_rss_in_child(self):
        """Peak resident-set growth of the set-up at n=1200, read in a child
        process (`conftest.growth_in_child`): LAPACK's work arrays are
        invisible to tracemalloc. The set-up holds the Laplacian's array,
        where M is formed, and one CHOLESKY_ROWS * n workspace; an LU
        inverse (np.linalg.inv) needs 4 n^2."""
        n = 1200
        assert growth_in_child(n, SETUP) <= 3 * 8 * n ** 2

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_setup_in_laplacian_storage_rss(self):
        """Peak resident-set growth of the set-up at n=1200, read in a child
        as in `test_setup_rss_in_child`: M is formed in the Laplacian's own
        array beside one CHOLESKY_ROWS * n workspace, so the growth stays
        below 2 n^2 doubles, where a second n x n array for M would exceed it."""
        n = 1200
        assert growth_in_child(n, SETUP) <= 2 * 8 * n ** 2

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_setup_rss_in_child_n2400(self):
        """Peak resident-set growth of the set-up at n=2400, read in a child
        as in `test_setup_rss_in_child`: the Laplacian's n^2 doubles, the
        CHOLESKY_ROWS * n workspace (0.05 n^2 here) and the component split
        read 1.10 n^2 with OpenBLAS at 2 threads (1.07 at 1), where a
        ceil(n/2)^2 workspace read 1.43 n^2."""
        n = 2400
        assert growth_in_child(n, SETUP) <= 1.15 * 8 * n ** 2

    def test_setup_peak_beside_laplacian(self):
        """tracemalloc peak of the set-up alone at n=1600, beside the
        Laplacian it overwrites: every product goes through one
        CHOLESKY_ROWS * n workspace, so the peak stays within two of them
        (0.16 n^2), where a ceil(n/2)^2 workspace takes 0.25 n^2."""
        n = 1600
        lap = laplacian(random_connected_graph(random.Random(0), n, 0.005))
        tracemalloc.start()
        try:
            sp.regularized_inverse_dense(lap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * sp.CHOLESKY_ROWS * n * 8

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_gtr_steps_rss_in_child(self):
        """Peak resident-set growth of set-up, N build and four GTR steps at
        n=1200, read in a child as in `test_setup_rss_in_child`. M and N share
        the set-up's n^2 array, beside N's diagonal and one block of rows:
        1.17 n^2 doubles measured (1.46 with a candidate mask and N's
        diagonal blocks beside the array), where a separate n^2 array for N
        read 2.68 n^2."""
        n = 1200
        code = textwrap.dedent(f"""
            import random
            from reswire import ResistanceState, verify
            def peak_kb():
                with open("/proc/self/status") as f:
                    return int(next(x for x in f if x.startswith("VmHWM:")).split()[1])
            warm = ResistanceState(verify.random_connected_graph(random.Random(1), 200, 0.05))
            warm.apply_edge(*warm.best_candidate()[:2])
            del warm
            g = verify.random_connected_graph(random.Random(0), {n}, 0.005)
            before = peak_kb()
            s = ResistanceState(g)
            for _ in range(4):
                s.apply_edge(*s.best_candidate()[:2])
            print(peak_kb() - before)
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert int(out.stdout) * 1024 <= 2 * 8 * n ** 2


class TestReaderMemory:
    """tracemalloc peak of `from_edge_list`, and what the graph it returns
    holds, on a generated n=1600, 4800-edge list. The per-line reader took
    1.23 MB and left 0.61 MB on this text; the block reader takes 0.71 MB
    (0.72 MB with a third column) and leaves 0.35 MB (CPython 3.11, numpy
    2.4): its edge tuples share one int per vertex beside the kept edge
    array."""

    @staticmethod
    def _text(extra):
        rng = random.Random(501)
        n = 1600
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < 4800:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        perm = list(range(n))
        rng.shuffle(perm)
        return f"n={n}\n" + "".join(f"{perm[u]} {perm[v]}{extra}\n" for u, v in sorted(edges))

    @pytest.mark.parametrize("extra", ["", " 0"])  # plain lines, and the token route
    def test_peak_and_left(self, extra):
        text = self._text(extra)
        tracemalloc.start()
        try:
            g = gr.from_edge_list(text)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == 4800
        assert peak <= 1.23e6
        assert left <= 0.61e6
