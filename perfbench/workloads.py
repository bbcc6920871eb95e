"""Seeded inputs and CLI invocations for the benchmark workloads.

Inputs come from `random.Random` seeded with a string, so the same seed
gives byte-identical edge-list files on every machine and Python build.
The program under test only ever sees these files.
"""

from __future__ import annotations

import random
from pathlib import Path

# A part is one set of inputs and the CLI calls made on them. A workload
# is the parts one benchmark sample runs, in order: gtr-large and
# random-writes share one workload so that each run measures longer,
# which is what keeps run-to-run spread within the bounds on a host whose
# speed drifts by ~15% over tens of seconds.
PARTS = ("gtr-large", "random-writes", "stats-bounds", "curve-many-small")
WORKLOADS = {
    "rewire-large": ("gtr-large", "random-writes"),
    "stats-bounds": ("stats-bounds",),
    "curve-many-small": ("curve-many-small",),
}

AVG_DEGREE = 6
GTR_N, GTR_K = 1600, 16
RANDOM_N, RANDOM_K = 800, 300
STATS_N, BOUNDS_PAIR, BOUNDS_R = 1600, (0, 5), 2
CURVE_FILES, CURVE_K, CURVE_N = 200, 10, (20, 120)
SWEEP_SIZES = (400, 800, 1600, 3200)


def random_connected(n: int, avg_degree: float, rng: random.Random):
    """Random recursive tree plus uniform extra edges, randomly relabelled."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = max(n - 1, min(int(avg_degree * n / 2), n * (n - 1) // 2))
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return _relabel(n, edges, rng)


def _relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def two_coloring(n, edges):
    """BFS colour per vertex, and the start vertices of the components
    that have an odd cycle (no proper 2-colouring)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color, odd = [-1] * n, set()
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    odd.add(s)
    return color, odd


def non_bipartite_connected(n, avg_degree, rng):
    edges = random_connected(n, avg_degree, rng)
    color, odd = two_coloring(n, edges)
    if not odd:
        # close an odd cycle between two same-coloured non-adjacent vertices
        have = set(edges)
        same = [v for v in range(1, n) if color[v] == color[0] and (0, v) not in have]
        edges = sorted(have | {(0, same[0])})
    return edges


def _small_graph(kind, n, rng):
    if kind == "path":
        return _relabel(n, {(i, i + 1) for i in range(n - 1)}, rng)
    if kind == "cycle":
        return _relabel(n, {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}, rng)
    if kind == "sparse":
        return random_connected(n, 3, rng)
    parts = 2 if kind == "two-components" else 3
    sizes = [n // parts] * parts
    sizes[-1] += n - sum(sizes)
    edges, offset = set(), 0
    for s in sizes:
        edges |= {(u + offset, v + offset) for u, v in random_connected(s, 3, rng)}
        offset += s
    return _relabel(n, edges, rng)


# cycles and paths carry exact ties between symmetric candidate edges
CURVE_KINDS = ("sparse", "sparse", "sparse", "sparse",
               "two-components", "three-components", "path", "cycle")


def make_inputs(part: str, seed: int) -> dict[str, tuple[int, list]]:
    """File name -> (n, sorted edge list) for one part (or the size sweep)
    and seed."""
    rng = random.Random(f"{part}:{seed}")
    if part == "gtr-large":
        return {"g.el": (GTR_N, random_connected(GTR_N, AVG_DEGREE, rng))}
    if part == "random-writes":
        return {"g.el": (RANDOM_N, random_connected(RANDOM_N, AVG_DEGREE, rng))}
    if part == "stats-bounds":
        return {"g.el": (STATS_N, non_bipartite_connected(STATS_N, AVG_DEGREE, rng))}
    if part == "curve-many-small":
        out = {}
        for i in range(CURVE_FILES):
            n = rng.randint(*CURVE_N)
            out[f"g{i:03d}.el"] = (n, _small_graph(rng.choice(CURVE_KINDS), n, rng))
        return out
    if part == "sweep":
        return {f"n{n}.el": (n, random_connected(n, AVG_DEGREE, rng))
                for n in SWEEP_SIZES}
    raise ValueError(f"unknown part {part!r}")


def edge_list_text(n: int, edges) -> str:
    return f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def write_inputs(inputs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, (n, edges) in inputs.items():
        (directory / name).write_text(edge_list_text(n, edges))


def invocations(part: str, seed: int, inputs: Path, out: Path):
    """(CLI argv, output path) for each CLI call of one part."""
    g = str(inputs / "g.el")
    if part == "gtr-large":
        return [(["rewire", "--input", g, "--method", "gtr", "--k", str(GTR_K),
                  "--output", str(out / "rewired.el")], out / "rewired.el")]
    if part == "random-writes":
        return [(["rewire", "--input", g, "--method", "random", "--k", str(RANDOM_K),
                  "--seed", str(seed), "--output", str(out / "rewired.el")],
                 out / "rewired.el")]
    if part == "stats-bounds":
        u, v = BOUNDS_PAIR
        return [(["stats", "--input", g, "--output", str(out / "stats.json")],
                 out / "stats.json"),
                (["bounds", "--input", g, "--pair", str(u), str(v),
                  "--r", str(BOUNDS_R), "--output", str(out / "bounds.json")],
                 out / "bounds.json")]
    if part == "curve-many-small":
        return [(["curve", "--input-dir", str(inputs), "--method", "gtr",
                  "--k", str(CURVE_K), "--output", str(out / "curve.csv")],
                 out / "curve.csv")]
    raise ValueError(f"unknown part {part!r}")
