"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are pinned here and never loosened at runtime.
"""

import random
import time

import numpy as np
import pytest

from reswire import (
    BipartiteGraphError,
    BoundParams,
    ResistanceState,
    effective_resistance,
    gtr,
    jacobian_bound_adjacency,
    jacobian_bound_resistance,
    laplacian,
    rmax,
    spectral_gap,
    spectral_gap_jacobian_bound,
    total_jacobian_bound,
    total_resistance,
)
from reswire.verify import (
    brute_force_optimal,
    current_graph,
    cycle_graph,
    delta_table,
    effective_resistance_flow,
    effective_resistance_normalized,
    path_graph,
    random_connected_graph,
    random_non_edge,
    random_nonbipartite_connected_graph,
    resistance_series_truncated,
)


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_p5_counterexample():
    start = time.monotonic()
    p5 = path_graph(5)
    plan = gtr(p5, 2)
    _, opt = brute_force_optimal(p5, 2)
    elapsed = time.monotonic() - start
    ok = (
        (plan.added[0].u, plan.added[0].v) == (0, 4)
        and abs(plan.rtot_final - 8.18) <= 0.01
        and abs(opt - 7.67) <= 0.01
        and opt < plan.rtot_final
        and elapsed < 1.0
    )
    report("p5-counterexample", ok,
           f"gtr={plan.rtot_final:.4f} optimal={opt:.4f} t={elapsed:.2f}s")


def test_delta_exactness():
    start = time.monotonic()
    rng = random.Random(0)
    worst = 0.0
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(4, 30))
        pair = random_non_edge(rng, g)
        if pair is None:
            continue
        u, v = pair
        _, _, delta = ResistanceState(g).pair_scores(u, v)
        before = total_resistance(g)
        after = total_resistance(g.with_edges([(u, v)]))
        worst = max(worst, abs(delta - (before - after)) / before)
    elapsed = time.monotonic() - start
    report("delta-exactness", worst <= 1e-6 and elapsed < 30.0,
           f"max rel dev={worst:.3g} t={elapsed:.1f}s")


def test_trace_identity():
    start = time.monotonic()
    rng = random.Random(1)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 30))
        rtot = total_resistance(g)
        sigma = np.linalg.eigvalsh(laplacian(g))
        worst = max(
            worst, abs(rtot - g.n * float(np.sum(1.0 / sigma[1:]))) / rtot
        )
    elapsed = time.monotonic() - start
    report("trace-identity", worst <= 1e-7 and elapsed < 10.0,
           f"max rel dev={worst:.3g} t={elapsed:.1f}s")


def test_triple_route_agreement():
    start = time.monotonic()
    rng = random.Random(2)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 15))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                r0 = effective_resistance(g, u, v)
                r1 = effective_resistance_normalized(g, u, v)
                r2 = effective_resistance_flow(g, u, v)
                worst = max(worst, abs(r0 - r1), abs(r0 - r2))
    elapsed = time.monotonic() - start
    report("triple-route", worst <= 1e-7 and elapsed < 30.0,
           f"max dev={worst:.3g} t={elapsed:.1f}s")


def test_woodbury_incremental():
    start = time.monotonic()
    rng = random.Random(3)
    g = random_connected_graph(rng, 40)
    state = ResistanceState(g)
    for _ in range(50):
        pair = random_non_edge(rng, current_graph(state))
        if pair is None:
            break
        state.apply_edge(*pair)
    fresh = ResistanceState(current_graph(state))
    dev_m = float(np.max(np.abs(state.comps[0].m - fresh.comps[0].m)))
    dev_n = float(np.max(np.abs(state.comps[0].n2 - fresh.comps[0].n2)))
    dev_r = abs(state.rtot - fresh.rtot) / fresh.rtot
    elapsed = time.monotonic() - start
    ok = dev_m <= 1e-8 and dev_n <= 1e-7 and dev_r <= 1e-6 and elapsed < 10.0
    report("woodbury", ok,
           f"M={dev_m:.3g} N={dev_n:.3g} rtot={dev_r:.3g} t={elapsed:.1f}s")


def test_series_identity():
    start = time.monotonic()
    rng = random.Random(4)
    worst = 0.0
    for _ in range(50):
        g = random_nonbipartite_connected_graph(rng, rng.randint(3, 15))
        u, v = rng.sample(range(g.n), 2)
        approx = resistance_series_truncated(g, u, v, 1e-6)
        worst = max(worst, abs(approx - effective_resistance(g, u, v)))
    with pytest.raises(BipartiteGraphError):
        resistance_series_truncated(cycle_graph(4), 0, 1, 1e-6)
    elapsed = time.monotonic() - start
    report("series-identity", worst <= 1e-6 and elapsed < 30.0,
           f"max dev={worst:.3g} t={elapsed:.1f}s")


def test_rayleigh_monotonicity():
    rng = random.Random(5)
    violations = 0
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(3, 25))
        state = ResistanceState(g)
        for _ in range(5):
            pair = random_non_edge(rng, current_graph(state))
            if pair is None:
                break
            before = state.rtot
            state.apply_edge(*pair)
            if not state.rtot < before:
                violations += 1
    report("rayleigh-monotonicity", violations == 0,
           f"{violations} violations")


def test_p20_nonmonotonicity():
    start = time.monotonic()
    p20 = path_graph(20)
    f = (0, 19)
    g1 = p20.with_edges([f])
    base = delta_table(p20)
    after = delta_table(g1)
    increased = [
        e for e in after if e in base and e != f and after[e] > base[e]
    ]
    # The published fixture quotes 30.33 -> 40.17 for the witness edge.
    # 40.17 is a digit transposition of 40.71: exact rational arithmetic on
    # L + J/n gives 91/3 before and 285/7 after for (0, 2), and no edge of
    # P20 rises from ~30.33 to ~40.17 after any first edge. The after-value
    # must also match a from-scratch recompute, not only delta_table.
    rtot_g1 = total_resistance(g1)
    hit = [
        e for e in increased
        if abs(base[e] - 30.33) <= 0.05
        and abs(after[e] - 285 / 7) <= 0.05
        and abs(after[e] - (rtot_g1 - total_resistance(g1.with_edges([e]))))
        <= 1e-6
    ]
    elapsed = time.monotonic() - start
    ok = bool(increased) and bool(hit) and elapsed < 5.0
    closest = min(increased, key=lambda e: abs(base[e] - 30.33), default=None)
    detail = f"witnesses={len(increased)} "
    if closest is not None:
        detail += (f"closest edge {closest}: "
                   f"{base[closest]:.4f} -> {after[closest]:.4f} ")
    report("p20-nonmonotonicity", ok, detail + f"t={elapsed:.1f}s")


def test_bound_ordering():
    start = time.monotonic()
    rng = random.Random(6)
    ok = True
    for _ in range(100):
        g = random_nonbipartite_connected_graph(rng, rng.randint(3, 20))
        for r in (0, 1, 2, 4):
            p = BoundParams(alpha=1.0, beta=1.0, r=r)
            u, v = rng.sample(range(g.n), 2)
            if jacobian_bound_adjacency(g, u, v, p) > (
                jacobian_bound_resistance(g, u, v, p) + 1e-9
            ):
                ok = False
            if total_jacobian_bound(g, p) > (
                spectral_gap_jacobian_bound(g, p) + 1e-9
            ):
                ok = False
        s2 = spectral_gap(g)
        r_max = rmax(g)
        if not (1 / (g.n * s2) <= r_max + 1e-9 and r_max <= 2 / s2 + 1e-9):
            ok = False
    elapsed = time.monotonic() - start
    report("bound-ordering", ok and elapsed < 60.0, f"t={elapsed:.1f}s")
