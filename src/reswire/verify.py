"""Self-check suites: randomized oracles and the path-graph fixtures.

Each suite generates its own instances from a seed and reports the maximum
observed deviation against an independent route (from-scratch recompute,
eigendecomposition, exhaustive search). These are the same oracles the test
suite freezes its expected values with.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass

import numpy as np

from . import graph as gr
from . import rewiring as rw
from . import spectral as sp
from .bounds import (
    BoundParams,
    jacobian_bound_adjacency,
    jacobian_bound_resistance,
    spectral_gap_jacobian_bound,
    total_jacobian_bound,
)
from .state import ResistanceState


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def path_graph(n: int) -> gr.Graph:
    return gr.build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> gr.Graph:
    return gr.build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> gr.Graph:
    return gr.build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.25) -> gr.Graph:
    """Random spanning tree (random attachment) plus Bernoulli extra edges."""
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_edge_prob:
                edges.append((u, v))
    return gr.build_graph(n, edges)


def random_tree(rng: random.Random, n: int) -> gr.Graph:
    return random_connected_graph(rng, n, extra_edge_prob=0.0)


def random_nonbipartite_connected_graph(rng: random.Random, n: int) -> gr.Graph:
    assert n >= 3
    while True:
        g = random_connected_graph(rng, n, extra_edge_prob=0.35)
        if not gr.is_bipartite(g)[0]:
            return g


def random_non_edge(rng: random.Random, g: gr.Graph):
    return pop_random(rng, rw.same_component_non_edges(g))


def pop_random(rng: random.Random, candidates: list):
    """Remove and return a uniform draw from `candidates`, None if empty.
    Adding the drawn edge removes exactly it from the sorted non-edge list,
    so a run that keeps one list draws as `random_non_edge` on each graph."""
    if not candidates:
        return None
    return candidates.pop(rng.randrange(len(candidates)))


def suite_p5_counterexample(seed: int = 0, tolerance: float = 1e-6) -> SuiteResult:
    # exact values: GTR ends at 90/11 ~= 8.18, the optimum is 23/3 ~= 7.67
    p5 = path_graph(5)
    plan = rw.gtr(p5, 2)
    _, opt_rtot = rw.brute_force_optimal(p5, 2)
    devs = [
        abs(plan.rtot_final - 90 / 11),
        abs(opt_rtot - 23 / 3),
    ]
    ok = (
        plan.added[0].u == 0
        and plan.added[0].v == 4
        and max(devs) <= tolerance
        and opt_rtot < plan.rtot_final
    )
    return SuiteResult(
        "p5-counterexample", ok, max(devs), tolerance,
        f"gtr rtot={plan.rtot_final:.6g}, optimal rtot={opt_rtot:.6g}, "
        f"first edge=({plan.added[0].u},{plan.added[0].v})",
    )


def suite_delta_exactness(seed: int = 0, trials: int = 200, n_max: int = 30,
                          tolerance: float = 1e-6) -> SuiteResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(4, n_max))
        pair = random_non_edge(rng, g)
        if pair is None:
            continue
        u, v = pair
        state = ResistanceState(g)
        _, _, delta = state.pair_scores(u, v)
        before = sp.total_resistance(g)
        after = sp.total_resistance(g.with_edges([(u, v)]))
        worst = max(worst, abs(delta - (before - after)) / before)
    return SuiteResult("theorem-delta", worst <= tolerance, worst, tolerance)


def suite_trace_identity(seed: int = 0, trials: int = 50, n_max: int = 30,
                         tolerance: float = 1e-7) -> SuiteResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(2, n_max))
        rtot = sp.total_resistance(g)
        sigma = np.linalg.eigvalsh(gr.laplacian(g))
        via_spectrum = g.n * float(np.sum(1.0 / sigma[1:]))
        worst = max(worst, abs(rtot - via_spectrum) / max(rtot, 1e-30))
    return SuiteResult("trace-identity", worst <= tolerance, worst, tolerance)


def suite_triple_route(seed: int = 0, trials: int = 50, n_max: int = 15,
                       tolerance: float = 1e-7) -> SuiteResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(2, n_max))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                r0 = sp.effective_resistance(g, u, v)
                r1 = sp.effective_resistance_normalized(g, u, v)
                r2 = sp.effective_resistance_flow(g, u, v)
                worst = max(worst, abs(r0 - r1), abs(r0 - r2))
    return SuiteResult("triple-route", worst <= tolerance, worst, tolerance)


def suite_woodbury(seed: int = 0, n: int = 40, insertions: int = 50,
                   tolerance: float = 1e-8) -> SuiteResult:
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    state = ResistanceState(g)
    candidates = rw.same_component_non_edges(g)
    monotone = True
    for _ in range(insertions):
        pair = pop_random(rng, candidates)
        if pair is None:
            break
        before = state.rtot
        state.apply_edge(*pair)
        if not state.rtot < before:
            monotone = False
    fresh = ResistanceState(state.current_graph())
    pairs = list(zip(state.comps, fresh.comps))
    dev_m = max(float(np.max(np.abs(a.m - b.m))) for a, b in pairs)
    dev_n = max(float(np.max(np.abs(a.n2 - b.n2))) for a, b in pairs)
    dev_r = abs(state.rtot - fresh.rtot) / fresh.rtot
    worst = max(dev_m, dev_n, dev_r)
    return SuiteResult(
        "woodbury", worst <= tolerance and monotone, worst, tolerance,
        f"M dev={dev_m:.3g}, N dev={dev_n:.3g}, rtot rel dev={dev_r:.3g}, "
        f"monotone={monotone}",
    )


def suite_series(seed: int = 0, trials: int = 50, n_max: int = 15,
                 tolerance: float = 1e-6) -> SuiteResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        g = random_nonbipartite_connected_graph(rng, rng.randint(3, n_max))
        u, v = rng.sample(range(g.n), 2)
        approx = sp.resistance_series_truncated(g, u, v, tolerance)
        exact = sp.effective_resistance(g, u, v)
        worst = max(worst, abs(approx - exact))
    return SuiteResult("series", worst <= tolerance, worst, tolerance)


def suite_monotonicity(seed: int = 0, trials: int = 50, n_max: int = 25,
                       insertions: int = 5) -> SuiteResult:
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        g = random_connected_graph(rng, rng.randint(3, n_max))
        state = ResistanceState(g)
        candidates = rw.same_component_non_edges(g)
        for _ in range(insertions):
            pair = pop_random(rng, candidates)
            if pair is None:
                break
            before = state.rtot
            state.apply_edge(*pair)
            if not state.rtot < before:
                violations += 1
    return SuiteResult(
        "rayleigh-monotonicity", violations == 0, float(violations), 0.0,
        f"{violations} violations",
    )


def suite_p20_nonmonotonicity(seed: int = 0, tolerance: float = 1e-6) -> SuiteResult:
    # exact values for the witness edge: 91/3 ~= 30.33 before adding f and
    # 285/7 ~= 40.71 after; the after-value is also checked against a
    # from-scratch recompute of R_tot
    p20 = path_graph(20)
    f = (0, 19)
    g1 = p20.with_edges([f])
    before = rw.delta_table(p20)
    after = rw.delta_table(g1)
    increased = [e for e in after if e in before and e != f and after[e] > before[e]]
    detail = f"{len(increased)} edges increased"
    worst = float("inf")
    if increased:
        e = min(increased, key=lambda x: abs(before[x] - 91 / 3))
        recompute = sp.total_resistance(g1) - sp.total_resistance(g1.with_edges([e]))
        worst = max(
            abs(before[e] - 91 / 3),
            abs(after[e] - 285 / 7),
            abs(after[e] - recompute),
        )
        detail += f"; witness {e}: {before[e]:.4f} -> {after[e]:.4f}"
    return SuiteResult("p20-nonmonotonicity", worst <= tolerance, worst, tolerance, detail)


def suite_bound_ordering(seed: int = 0, trials: int = 100, n_max: int = 20,
                         tolerance: float = 1e-9) -> SuiteResult:
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for _ in range(trials):
        g = random_nonbipartite_connected_graph(rng, rng.randint(3, n_max))
        r_layers = rng.choice([0, 1, 2, 4])
        p = BoundParams(alpha=1.0, beta=1.0, r=r_layers)
        u, v = rng.sample(range(g.n), 2)
        adj = jacobian_bound_adjacency(g, u, v, p)
        res = jacobian_bound_resistance(g, u, v, p)
        worst = max(worst, adj - res)
        if adj > res + tolerance:
            ok = False
        tot = total_jacobian_bound(g, p)
        gap = spectral_gap_jacobian_bound(g, p)
        worst = max(worst, tot - gap)
        if tot > gap + tolerance:
            ok = False
        sigma2 = sp.spectral_gap(g)
        r_max = sp.rmax(g)
        if not (1.0 / (g.n * sigma2) <= r_max + tolerance
                and r_max <= 2.0 / sigma2 + tolerance):
            ok = False
    return SuiteResult("bound-ordering", ok, worst, tolerance)


SUITES = {
    "p5-counterexample": suite_p5_counterexample,
    "theorem-delta": suite_delta_exactness,
    "trace-identity": suite_trace_identity,
    "triple-route": suite_triple_route,
    "woodbury": suite_woodbury,
    "series": suite_series,
    "rayleigh-monotonicity": suite_monotonicity,
    "p20-nonmonotonicity": suite_p20_nonmonotonicity,
    "bound-ordering": suite_bound_ordering,
}


def run_suites(names=None, seed: int = 0, **overrides) -> list[SuiteResult]:
    names = list(SUITES) if names is None else list(names)
    results = []
    for name in names:
        fn = SUITES[name]
        kwargs = {"seed": seed}
        params = inspect.signature(fn).parameters
        for key, val in overrides.items():
            if key in params and val is not None:
                kwargs[key] = val
        results.append(fn(**kwargs))
    return results
