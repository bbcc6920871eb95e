"""Independent oracles, self-check suites and the path-graph fixtures.

Each suite generates its own instances from a seed and reports the maximum
observed deviation against an independent route (pseudoinverse, minimum-norm
flow, power series, exhaustive search, from-scratch recompute). These are
the same oracles the test suite freezes its expected values with, and the
helpers they share: the sorted non-edge list of a graph (`non_edges`) and
the graph a state has grown to (`current_graph`). Only `reswire verify` and
the tests load this module.
"""

from __future__ import annotations

import inspect
import itertools
import math
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
from .errors import BipartiteGraphError, InfeasibleSearchError
from .state import ResistanceState

SERIES_MAX_TERMS = 10**5
BRUTE_FORCE_CAP = 10**6


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


def random_nonbipartite_connected_graph(rng: random.Random, n: int,
                                        extra_edge_prob: float = 0.35) -> gr.Graph:
    assert n >= 3
    while True:
        g = random_connected_graph(rng, n, extra_edge_prob)
        if not gr.is_bipartite(g)[0]:
            return g


def non_edges(g: gr.Graph) -> list[tuple[int, int]]:
    """Sorted (u, v), u < v, in one component of `g` and not an edge of it."""
    existing = set(g.edges)
    return sorted(p for verts, sub in gr.components(g) if sub.n > 1
                  for p in itertools.combinations(verts.tolist(), 2) if p not in existing)


def current_graph(state: ResistanceState) -> gr.Graph:
    """The state's graph with the edges it has added."""
    return state.original.with_edges(state.added_edges)


def random_non_edge(rng: random.Random, g: gr.Graph):
    return pop_random(rng, non_edges(g))


def pop_random(rng: random.Random, candidates: list):
    """Remove and return a uniform draw from `candidates`, None if empty.
    Adding the drawn edge removes exactly it from the sorted non-edge list,
    so a run that keeps one list draws as `random_non_edge` on each graph."""
    if not candidates:
        return None
    return candidates.pop(rng.randrange(len(candidates)))


def normalized_laplacian(g: gr.Graph) -> np.ndarray:
    ahat = gr.normalized_adjacency(g)
    return np.eye(ahat.shape[0]) - ahat


def boundary_matrix(g: gr.Graph) -> np.ndarray:
    """n x m vertex-edge incidence, +1 at the lower-index endpoint."""
    b = np.zeros((g.n, g.m))
    for j, (u, v) in enumerate(g.edges):
        b[u, j] = 1.0
        b[v, j] = -1.0
    return b


def pseudo_inverse(mat: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via symmetric eigendecomposition."""
    w, v = np.linalg.eigh(mat)
    cutoff = 1e-10 * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    inv = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    out = (v * inv) @ v.T
    return (out + out.T) / 2.0


def _component_pair(g: gr.Graph, u: int, v: int):
    """(own graph of u's component, local u, local v)."""
    verts, sub = gr.components(g)[gr._component_label(g, u, v)]
    return (sub, *np.searchsorted(verts, (u, v)).tolist())


def effective_resistance_normalized(g: gr.Graph, u: int, v: int) -> float:
    """Resistance via the normalized-Laplacian pseudoinverse route."""
    if u == v:
        gr._component_label(g, u, v)
        return 0.0
    sub, lu, lv = _component_pair(g, u, v)
    lhat_pinv = pseudo_inverse(normalized_laplacian(sub))
    d = gr.degrees(sub).astype(float)
    x = np.zeros(sub.n)
    x[lu] = 1.0 / np.sqrt(d[lu])
    x[lv] -= 1.0 / np.sqrt(d[lv])
    return float(x @ lhat_pinv @ x)


def effective_resistance_flow(g: gr.Graph, u: int, v: int) -> float:
    """Resistance as the minimum squared 2-norm of a unit u->v flow."""
    if u == v:
        gr._component_label(g, u, v)
        return 0.0
    sub, lu, lv = _component_pair(g, u, v)
    b = boundary_matrix(sub)
    rhs = np.zeros(sub.n)
    rhs[lu] = 1.0
    rhs[lv] = -1.0
    f, *_ = np.linalg.lstsq(b, rhs, rcond=None)
    return float(f @ f)


def resistance_series_truncated(g: gr.Graph, u: int, v: int, tol: float) -> float:
    """Resistance via the normalized-adjacency power series with a spectral
    tail-bound stopping rule. Requires the component to be non-bipartite."""
    if u == v:
        raise ValueError("series form requires u != v")
    sub, lu, lv = _component_pair(g, u, v)
    if gr.is_bipartite(sub)[0]:
        raise BipartiteGraphError(
            "power series diverges on bipartite components (mu_n = -1)"
        )
    _, ahat = gr.normalized_adjacency_edges(sub)  # a component has no isolated vertex
    mu = sp.mu_bound(sub)
    if mu >= 1.0:
        raise BipartiteGraphError(f"spectral bound mu={mu} >= 1; series diverges")
    d = gr.degrees(sub).astype(float)
    du, dv = d[lu], d[lv]
    d_min = min(du, dv)
    # term_i = (A^i)_uu/du + (A^i)_vv/dv - 2 (A^i)_uv / sqrt(du dv)
    xu = np.zeros(sub.n)
    xu[lu] = 1.0
    xv = np.zeros(sub.n)
    xv[lv] = 1.0
    total = 0.0
    for i in range(SERIES_MAX_TERMS):
        total += xu[lu] / du + xv[lv] / dv - 2.0 * xv[lu] / np.sqrt(du * dv)
        tail = 2.0 * mu ** (i + 1) / (d_min * (1.0 - mu))
        if tail < tol:
            return total
        xu = ahat @ xu
        xv = ahat @ xv
    raise ArithmeticError(
        f"series did not reach tolerance {tol} within {SERIES_MAX_TERMS} terms"
    )


def brute_force_optimal(g: gr.Graph, k: int, cap: int = BRUTE_FORCE_CAP):
    """Exhaustive search for the k same-component non-edges minimizing the
    total resistance of the augmented graph. Returns (edge tuple, rtot).

    Ties break by lexicographic edge-set order (the first minimizer found
    when iterating sorted combinations)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    candidates = non_edges(g)
    if k > len(candidates):
        raise InfeasibleSearchError(
            f"k={k} exceeds the {len(candidates)} available non-edges"
        )
    n_combos = math.comb(len(candidates), k)
    if n_combos > cap:
        raise InfeasibleSearchError(
            f"{n_combos} candidate sets exceed the cap of {cap}"
        )
    best_edges: tuple = ()
    best_rtot = math.inf
    for combo in itertools.combinations(candidates, k):
        rtot = sp.total_resistance(g.with_edges(combo))
        if rtot < best_rtot:
            best_rtot = rtot
            best_edges = combo
    if k == 0:
        best_rtot = sp.total_resistance(g)
    return best_edges, best_rtot


def delta_table(g: gr.Graph) -> dict[tuple[int, int], float]:
    """Exact total-resistance decrease for every same-component non-edge."""
    state = ResistanceState(g)
    return {(u, v): state.pair_scores(u, v)[2] for u, v in non_edges(g)}


def nonmonotonicity_witness(g: gr.Graph, margin: float = 1e-9):
    """First (e, f) pair, scanning f then e lexicographically, where the
    decrease from adding e strictly grows after f is added. None if the
    exhaustive scan finds no witness."""
    base = delta_table(g)
    for f in sorted(base):
        after = delta_table(g.with_edges([f]))
        for e in sorted(after):  # the non-edges of g but f
            if after[e] > base[e] + margin:
                return e, f
    return None


def suite_p5_counterexample(seed: int = 0, tolerance: float = 1e-6) -> SuiteResult:
    # exact values: GTR ends at 90/11 ~= 8.18, the optimum is 23/3 ~= 7.67
    p5 = path_graph(5)
    plan = rw.gtr(p5, 2)
    _, opt_rtot = brute_force_optimal(p5, 2)
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
                r1 = effective_resistance_normalized(g, u, v)
                r2 = effective_resistance_flow(g, u, v)
                worst = max(worst, abs(r0 - r1), abs(r0 - r2))
    return SuiteResult("triple-route", worst <= tolerance, worst, tolerance)


def suite_woodbury(seed: int = 0, n: int = 40, insertions: int = 50,
                   tolerance: float = 1e-8) -> SuiteResult:
    # beside the n-vertex component, one of 300 vertices, whose M and N
    # share one array with a middle block mirrored onto itself
    rng = random.Random(seed)
    small, large = random_connected_graph(rng, n), random_connected_graph(rng, 300, 0.01)
    g = gr.build_graph(n + 300, list(small.edges) + [(u + n, v + n) for u, v in large.edges])
    state = ResistanceState(g)
    state.best_candidate()  # builds N, so every insertion updates M and N at once
    candidates = non_edges(g)
    monotone = True
    for _ in range(insertions):
        pair = pop_random(rng, candidates)
        if pair is None:
            break
        before = state.rtot
        state.apply_edge(*pair)
        if not state.rtot < before:
            monotone = False
    fresh = ResistanceState(current_graph(state))
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
        approx = resistance_series_truncated(g, u, v, tolerance)
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
        candidates = non_edges(g)
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
    before = delta_table(p20)
    after = delta_table(g1)
    increased = [e for e in after if e in before and e != f and after[e] > before[e]]
    detail = f"{len(increased)} edges increased"
    worst = float("inf")
    if increased:
        # (0, 2) and its mirror image (17, 19) both rise from exactly 91/3:
        # take the first edge within tolerance, not the one roundoff favours
        e = next((x for x in increased if abs(before[x] - 91 / 3) <= tolerance),
                 min(increased, key=lambda x: abs(before[x] - 91 / 3)))
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


def suite_mu_certificate(seed: int = 0, trials: int = 30, n_max: int = 150,
                         tolerance: float = 1e-9) -> SuiteResult:
    # on sparse and dense graphs mu <= mu_bound <= mu (1 + tolerance) for eigvalsh's mu,
    # and certifying from theta = mu (1 - 1e-6) still ends at or above mu; exactly 1.0
    # for a tree and for two components with edges
    rng, worst, ok = random.Random(seed), 0.0, True
    for _ in range(trials):
        n = rng.randint(3, n_max)
        g = random_nonbipartite_connected_graph(rng, n, rng.choice((2.0 / n, 0.35)))
        mu = np.abs(np.linalg.eigvalsh(gr.normalized_adjacency(g))[[0, -2]]).max()
        ahat = gr.normalized_adjacency_edges(g)[1]
        from_below = sp._certified(ahat, gr.degrees(g), mu * (1.0 - 1e-6), 0.0)
        two = gr.build_graph(2 * n, [(u + s, v + s) for u, v in g.edges for s in (0, n)])
        worst = max(worst, sp.mu_bound(g) / mu - 1.0)
        ok = (ok and mu <= sp.mu_bound(g) and mu <= from_below
              and sp.mu_bound(random_tree(rng, n)) == sp.mu_bound(two) == 1.0)
    return SuiteResult("mu-certificate", ok and worst <= tolerance, worst, tolerance)


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
    "mu-certificate": suite_mu_certificate,
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
