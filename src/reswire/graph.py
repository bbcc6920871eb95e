"""Simple undirected graph representation and matrix constructors.

Vertices are 0-indexed. Edges are stored as sorted (u, v) tuples with u < v.
Graphs are immutable after construction; all matrix constructors return dense
numpy arrays that are exactly symmetric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EdgeListParseError


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    component_id: tuple[int, ...] = field(compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def num_components(self) -> int:
        return 1 + max(self.component_id) if self.n else 0

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def with_edges(self, extra) -> "Graph":
        """New graph with additional edges (deduplicated, revalidated)."""
        return build_graph(self.n, list(self.edges) + list(extra))


def _label_components(n: int, edges) -> list[int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    label = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = label
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if comp[y] == -1:
                    comp[y] = label
                    stack.append(y)
        label += 1
    return comp


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge collection into a Graph."""
    seen = set()
    for u, v in edges:
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise EdgeListParseError(f"negative vertex index in edge ({u}, {v})")
        if u >= n or v >= n:
            raise EdgeListParseError(
                f"edge ({u}, {v}) out of range for n={n}"
            )
        seen.add((min(u, v), max(u, v)))
    canon = tuple(sorted(seen))
    return Graph(n=n, edges=canon, component_id=tuple(_label_components(n, canon)))


def from_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list.

    Format: two whitespace-separated non-negative integers per line; lines
    starting with '#' are ignored; an optional first non-comment line
    "n=<int>" forces the vertex count (needed for trailing isolated vertices).
    Duplicate edges collapse with a warning; self-loops are hard errors.
    """
    edges = []
    forced_n = None
    saw_edge = False
    seen = set()
    dup_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n=") and not saw_edge and forced_n is None:
            try:
                forced_n = int(line[2:])
            except ValueError:
                raise EdgeListParseError("bad vertex-count header", line=lineno)
            if forced_n < 0:
                raise EdgeListParseError("negative vertex count", line=lineno)
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise EdgeListParseError("expected two integer tokens", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {tokens[:2]}", line=lineno)
        if u < 0 or v < 0:
            raise EdgeListParseError("negative vertex index", line=lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", line=lineno)
        saw_edge = True
        key = (min(u, v), max(u, v))
        if key in seen:
            dup_lines.append(lineno)
            continue
        seen.add(key)
        edges.append(key)
    if dup_lines:
        warnings.warn(
            f"duplicate edges collapsed (lines {dup_lines})", stacklevel=2
        )
    max_idx = max((v for _, v in edges), default=-1)
    n = max_idx + 1
    if forced_n is not None:
        if forced_n < n:
            raise EdgeListParseError(
                f"header n={forced_n} smaller than max vertex index {max_idx}"
            )
        n = forced_n
    return build_graph(n, edges)


def to_edge_list(g: Graph, added=()) -> str:
    """Serialize as an edge list with a relational type column.

    Original edges come first with type 0, added edges follow with type 1.
    """
    lines = [f"n={g.n}"]
    for u, v in g.edges:
        lines.append(f"{u} {v} 0")
    for u, v in added:
        lines.append(f"{min(u, v)} {max(u, v)} 1")
    return "\n".join(lines) + "\n"


def degrees(g: Graph) -> np.ndarray:
    d = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        d[u] += 1
        d[v] += 1
    return d


def adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A, written straight from the edges into one n x n array."""
    e = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    lap = np.zeros((g.n, g.n))
    lap[e[:, 0], e[:, 1]] = lap[e[:, 1], e[:, 0]] = -1.0
    np.fill_diagonal(lap, np.bincount(e.ravel(), minlength=g.n))
    return lap


def nonisolated(g: Graph) -> np.ndarray:
    """Indices of vertices with degree >= 1, in increasing order."""
    return np.flatnonzero(degrees(g) > 0)


def normalized_adjacency(g: Graph) -> np.ndarray:
    """D^(-1/2) A D^(-1/2) restricted to non-isolated vertices."""
    keep = nonisolated(g)
    a = adjacency(g)[np.ix_(keep, keep)]
    inv_sqrt = 1.0 / np.sqrt(degrees(g)[keep].astype(float))
    ahat = inv_sqrt[:, None] * a * inv_sqrt[None, :]
    return (ahat + ahat.T) / 2.0


def normalized_laplacian(g: Graph) -> np.ndarray:
    ahat = normalized_adjacency(g)
    return np.eye(ahat.shape[0]) - ahat


def boundary_matrix(g: Graph) -> np.ndarray:
    """n x m vertex-edge incidence, +1 at the lower-index endpoint."""
    b = np.zeros((g.n, g.m))
    for j, (u, v) in enumerate(g.edges):
        b[u, j] = 1.0
        b[v, j] = -1.0
    return b


def components(g: Graph):
    """Vertex arrays of each connected component, ordered by label."""
    out = [[] for _ in range(g.num_components)]
    for v, c in enumerate(g.component_id):
        out[c].append(v)
    return [np.array(vs, dtype=np.int64) for vs in out]


def is_bipartite(g: Graph) -> list[bool]:
    """Two-colorability of each connected component, indexed by label."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * g.n
    result = [True] * g.num_components
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    result[g.component_id[start]] = False
    return result
