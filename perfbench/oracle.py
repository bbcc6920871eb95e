"""Output oracle, independent of `reswire`.

Every quantity is recomputed from the edge list with
`numpy.linalg.pinv` of the Laplacian (and `eigvalsh` for spectra), never
through the program's regularized inverse or its incremental updates.
Each check returns a list of problems; an empty list means the output
passed.

Edge identity is never compared: on inputs with exact ties (paths,
cycles) the program's tie-break depends on roundoff, so only tie-invariant
quantities (Delta values and R_tot trajectories) are checked.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from workloads import two_coloring

RTOL = 1e-8          # R_tot, R, Delta: dense float64 round-off is ~1e-13
SPECTRAL_RTOL = 1e-6  # eigenvalue-based quantities
PINV_RCOND = 1e-10    # far below 1/lambda_max of any benchmark input
TIE_RTOL = 1e-9       # Delta values this close are treated as a tie


def laplacian(n, edges):
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return lap


def components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    roots = [find(x) for x in range(n)]
    labels = {r: i for i, r in enumerate(dict.fromkeys(roots))}
    return np.array([labels[r] for r in roots])


class Reference:
    """Pseudoinverse P = L^+ of one graph and the quantities read from it."""

    def __init__(self, n, edges):
        self.n, self.edges = n, list(edges)
        self.edge_set = {(min(u, v), max(u, v)) for u, v in self.edges}
        self.comp = components(n, self.edges)
        self.comp_size = np.bincount(self.comp)[self.comp]
        self.p = np.linalg.pinv(laplacian(n, self.edges), rcond=PINV_RCOND,
                                hermitian=True)

    @property
    def rtot(self) -> float:
        # within a component, R_tot = n_c * tr(P_c) because P_c 1 = 0
        return float(np.sum(self.comp_size * np.diag(self.p)))

    def resistance(self):
        d = np.diag(self.p)
        return d[:, None] + d[None, :] - 2.0 * self.p

    def deltas(self):
        """Delta = n_c B^2 / (1 + R) for every pair, -inf off candidates."""
        q = self.p @ self.p
        dq = np.diag(q)
        bsq = dq[:, None] + dq[None, :] - 2.0 * q
        delta = self.comp_size[:, None] * bsq / (1.0 + self.resistance())
        ok = np.triu(self.comp[:, None] == self.comp[None, :], k=1)
        for u, v in self.edge_set:
            ok[u, v] = False
        return np.where(ok, delta, -np.inf)

    def shape_after(self, u, v) -> bytes:
        """Relabelling-invariant key of the resistance matrix after adding
        {u, v}: its rows, each sorted, in lexicographic order, rounded."""
        w = self.p[:, u] - self.p[:, v]
        p = self.p - np.outer(w, w) / (1.0 + w[u] - w[v])
        d = np.diag(p)
        rows = np.round(np.sort(d[:, None] + d[None, :] - 2.0 * p, axis=1), 7)
        return rows[np.lexsort(rows.T[::-1])].tobytes()


def _close(a, b, rtol, scale=None):
    return abs(a - b) <= rtol * max(abs(b), abs(scale or 0.0), 1e-300)


def check_rewire(n, edges, plan_text, edge_list_text, method, k) -> list[str]:
    problems = []
    try:
        plan = json.loads(plan_text)
    except ValueError as exc:
        return [f"plan is not JSON: {exc}"]
    ref = Reference(n, edges)
    if plan.get("method") != method or plan.get("k") != k:
        problems.append(f"method/k {plan.get('method')}/{plan.get('k')} != {method}/{k}")
    added = [(e["u"], e["v"]) for e in plan.get("edges", [])]
    if len(added) != k or plan.get("truncated"):
        problems.append(f"{len(added)} edges added, truncated={plan.get('truncated')}")
    seen = set()
    for u, v in added:
        key = (min(u, v), max(u, v))
        if not (0 <= u < n and 0 <= v < n) or u == v:
            problems.append(f"edge {key} out of range")
        elif ref.comp[u] != ref.comp[v]:
            problems.append(f"edge {key} joins two components")
        elif key in ref.edge_set or key in seen:
            problems.append(f"edge {key} is not a new non-edge")
        seen.add(key)
    if problems:
        return problems
    r0 = ref.rtot
    if not _close(plan["rtot_initial"], r0, RTOL):
        problems.append(f"rtot_initial {plan['rtot_initial']!r} != oracle {r0!r}")
    prev = plan["rtot_initial"]
    for i, e in enumerate(plan["edges"]):
        if not (e["delta"] > 0 and _close(e["rtot_after"], prev - e["delta"], RTOL, r0)):
            problems.append(f"step {i}: rtot_after {e['rtot_after']!r} != "
                            f"{prev!r} - delta {e['delta']!r}")
        prev = e["rtot_after"]
    if added and method == "gtr":
        deltas = ref.deltas()
        best = float(deltas.max())
        u, v = min(added[0]), max(added[0])
        if not (_close(plan["edges"][0]["delta"], best, RTOL)
                and _close(float(deltas[u, v]), best, RTOL)):
            problems.append(f"first edge delta {plan['edges'][0]['delta']!r} "
                            f"(oracle {float(deltas[u, v])!r}) != max delta {best!r}")
    final = Reference(n, list(ref.edge_set | seen)).rtot
    if not _close(plan["rtot_final"], final, RTOL) or plan["rtot_final"] != prev:
        problems.append(f"rtot_final {plan['rtot_final']!r} != recomputed {final!r}")
    typed = [line.split() for line in edge_list_text.splitlines()[1:]]
    if sorted((int(a), int(b)) for a, b, t in typed if t == "1") != sorted(
            (min(e), max(e)) for e in added):
        problems.append("rewired edge list does not match the plan")
    if sum(1 for *_, t in typed if t == "0") != len(ref.edge_set):
        problems.append("rewired edge list lost original edges")
    return problems


def check_stats(n, edges, text) -> list[str]:
    try:
        got = json.loads(text)
    except ValueError as exc:
        return [f"stats is not JSON: {exc}"]
    ref = Reference(n, edges)
    ncomp = int(ref.comp.max()) + 1
    _, odd = two_coloring(n, ref.edges)
    bip = [True] * ncomp
    for s in odd:
        bip[ref.comp[s]] = False
    gap = float(np.linalg.eigvalsh(laplacian(n, ref.edges))[1])
    want_exact = {"n": n, "m": len(ref.edge_set), "components": ncomp,
                  "bipartite_per_component": bip, "bipartite": all(bip)}
    problems = [f"{key} {got.get(key)!r} != {val!r}"
                for key, val in want_exact.items() if got.get(key) != val]
    for key, val, tol in (("rtot", ref.rtot, RTOL),
                          ("rmax", float(ref.resistance().max()), RTOL),
                          ("spectral_gap", gap, SPECTRAL_RTOL)):
        if not isinstance(got.get(key), float) or not _close(got[key], val, tol):
            problems.append(f"{key} {got.get(key)!r} != oracle {val!r}")
    return problems


def check_bounds(n, edges, text, pair, r) -> list[str]:
    """Jacobian bounds recomputed from their closed forms, at the CLI's
    default alpha = beta = 1 (so the layer factor is 2^r)."""
    try:
        got = json.loads(text)
    except ValueError as exc:
        return [f"bounds is not JSON: {exc}"]
    ref = Reference(n, edges)
    adj = -laplacian(n, ref.edges)
    np.fill_diagonal(adj, 0.0)
    deg = adj.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    ahat = inv_sqrt[:, None] * adj * inv_sqrt[None, :]
    mu_all = np.linalg.eigvalsh(ahat)
    mu = float(max(abs(mu_all[-2]), abs(mu_all[0])))
    gap = float(np.linalg.eigvalsh(laplacian(n, ref.edges))[1])
    scale = 2.0 ** r
    tail = r + 1 + mu ** (r + 1) / (1.0 - mu)
    dmin, dmax = float(deg.min()), float(deg.max())
    agg = n * (n - 1) / dmin * tail
    u, v = pair
    r_uv = float(ref.resistance()[u, v])
    power, x = 0.0, np.eye(n)[v]
    for _ in range(r + 1):
        power += x[u]
        x = ahat @ x
    pdmin, pdmax = min(deg[u], deg[v]), max(deg[u], deg[v])
    want = {
        "total_bound": scale * dmax / 2.0 * (agg - ref.rtot),
        "spectral_gap_bound": scale * dmax / 2.0 * (agg - 1.0 / (n * gap)),
        "adjacency_bound": scale * power,
        "resistance_bound": scale * pdmax / 2.0 * (2.0 / pdmin * tail - r_uv),
    }
    have = dict(got, **got.get("pair", {}))
    problems = [f"{key} {have.get(key)!r} != oracle {val!r}"
                for key, val in want.items()
                if not isinstance(have.get(key), float)
                or not _close(have[key], val, SPECTRAL_RTOL)]
    if have.get("u") != u or have.get("v") != v:
        problems.append(f"pair {have.get('u')}, {have.get('v')} != {pair}")
    if have.get("resistance_bound_negative") != (want["resistance_bound"] < 0):
        problems.append("resistance_bound_negative flag is wrong")
    return problems


def greedy_range(n, edges, k):
    """Lowest and highest R_tot after 0..k greedy insertions over every
    tie-break. All candidates within TIE_RTOL of the best Delta are
    followed; branches whose resistance matrices agree up to relabelling
    are merged. Each R_tot is recomputed from scratch."""
    frontier = [Reference(n, edges)]
    lo, hi = [frontier[0].rtot], [frontier[0].rtot]
    for _ in range(k):
        branches = {}
        for ref in frontier:
            deltas = ref.deltas()
            best = deltas.max()
            if not np.isfinite(best):
                continue
            for u, v in np.argwhere(deltas >= best - TIE_RTOL * best):
                branches.setdefault(ref.shape_after(u, v), (ref, int(u), int(v)))
        if not branches:
            break
        frontier = [Reference(n, ref.edges + [(u, v)]) for ref, u, v in branches.values()]
        lo.append(min(r.rtot for r in frontier))
        hi.append(max(r.rtot for r in frontier))
    return lo, hi


def check_curve(graphs, text, k) -> list[str]:
    """`graphs` is a list of (n, edges), one per input file. The CLI prints
    only the mean trajectory, so each row is checked against the range the
    mean can take over all tie-breaks."""
    ranges = [greedy_range(n, edges, k) for n, edges in graphs]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["edges_added", "mean_rtot", "graph_count"]:
        return [f"unexpected curve header {rows[:1]!r}"]
    steps = max(len(lo) for lo, _ in ranges)
    problems = []
    if len(rows) - 1 != steps:
        problems.append(f"{len(rows) - 1} curve rows, oracle has {steps}")
    for i, row in enumerate(rows[1:steps + 1]):
        live = [(lo[i], hi[i]) for lo, hi in ranges if i < len(lo)]
        low = sum(a for a, _ in live) / len(live)
        high = sum(b for _, b in live) / len(live)
        mean = float(row[1])
        if (row[0] != str(i) or row[2] != str(len(live))
                or not low - RTOL * low <= mean <= high + RTOL * high):
            problems.append(f"curve row {row!r} outside oracle "
                            f"({i}, [{low!r}, {high!r}], {len(live)})")
    return problems
