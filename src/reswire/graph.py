"""Simple undirected graph representation and matrix constructors.

Vertices are 0-indexed. Edges are stored as sorted (u, v) tuples with u < v.
Graphs are immutable after construction; all matrix constructors return dense
numpy arrays that are exactly symmetric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossComponentError, EdgeListParseError


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


def _traverse(n: int, edges) -> tuple[list[int], list[int]]:
    """Component label and 2-colour of each vertex, from one depth-first
    walk; labels count up in order of each component's smallest vertex."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp, colour = [-1] * n, [0] * n
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
                    comp[y], colour[y] = label, 1 - colour[x]
                    stack.append(y)
        label += 1
    return comp, colour


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
    return Graph(n=n, edges=canon, component_id=tuple(_traverse(n, canon)[0]))


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
    return np.bincount(_edge_array(g).ravel(), minlength=g.n)


def _edge_array(g: Graph) -> np.ndarray:
    return np.array(g.edges, dtype=np.int64).reshape(-1, 2)


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A, written straight from the edges into one n x n array."""
    e = _edge_array(g)
    lap = np.zeros((g.n, g.n))
    lap[e[:, 0], e[:, 1]] = lap[e[:, 1], e[:, 0]] = -1.0
    np.fill_diagonal(lap, np.bincount(e.ravel(), minlength=g.n))
    return lap


@dataclass(frozen=True, eq=False)
class EdgeMatrix:
    """Symmetric n x n matrix with a zero diagonal, held as its upper
    triangle: `weights[k]` at (rows[k], cols[k]) and (cols[k], rows[k])."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product in O(n + m), read from the edge list."""
        return (np.bincount(self.rows, self.weights * x[self.cols], minlength=self.n)
                + np.bincount(self.cols, self.weights * x[self.rows], minlength=self.n))


def normalized_adjacency_edges(g: Graph) -> tuple[np.ndarray, EdgeMatrix]:
    """(keep, Ahat): the non-isolated vertices in increasing order, and
    D^(-1/2) A D^(-1/2) on them as an EdgeMatrix whose indices are
    positions in `keep`; the entry of an edge is d_i^-1/2 d_j^-1/2."""
    e = _edge_array(g)
    d = np.bincount(e.ravel(), minlength=g.n)
    keep = np.flatnonzero(d)
    inv_sqrt = 1.0 / np.sqrt(d[keep].astype(float))
    a, b = np.searchsorted(keep, e).T
    return keep, EdgeMatrix(len(keep), a, b, inv_sqrt[a] * inv_sqrt[b])


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Dense D^(-1/2) A D^(-1/2) restricted to non-isolated vertices."""
    _, e = normalized_adjacency_edges(g)
    ahat = np.zeros((e.n, e.n))
    ahat[e.rows, e.cols] = ahat[e.cols, e.rows] = e.weights
    return ahat


_SINGLETON = Graph(n=1, edges=(), component_id=(0,))  # shared by every isolated vertex


def components(g: Graph) -> list[tuple[np.ndarray, Graph]]:
    """(sorted vertex array, own Graph on local labels 0..n_c-1) of each
    connected component, ordered by label, from one O(n + m) pass. A
    connected graph is its own component: its labels are already local."""
    if g.num_components == 1:
        return [(np.arange(g.n), g)]
    label = np.asarray(g.component_id, dtype=np.int64)
    sizes = np.bincount(label, minlength=g.num_components)
    order = np.argsort(label, kind="stable")
    local = np.empty(g.n, dtype=np.int64)
    local[order] = np.arange(g.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    e = _edge_array(g)
    e_label = label[e[:, 0]]
    e_local = local[e[np.argsort(e_label, kind="stable")]].tolist()
    v_end = np.cumsum(sizes).tolist()
    e_end = np.cumsum(np.bincount(e_label, minlength=g.num_components)).tolist()
    out = []
    for v_lo, v_hi, e_lo, e_hi in zip([0] + v_end, v_end, [0] + e_end, e_end):
        # No build_graph: relabelling a validated graph's sorted edges by a
        # monotone map keeps them canonical, and a component is connected.
        sub = _SINGLETON if v_hi - v_lo == 1 else Graph(
            n=v_hi - v_lo, edges=tuple(map(tuple, e_local[e_lo:e_hi])),
            component_id=(0,) * (v_hi - v_lo))
        out.append((order[v_lo:v_hi], sub))
    return out


def _check_range(g: Graph, u: int, v: int) -> None:
    """ValueError unless both vertices lie in 0..n-1."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertex out of range: ({u}, {v}) for n={g.n}")


def _component_label(g: Graph, u: int, v: int) -> int:
    """Label of the component holding both u and v; ValueError if either
    is out of range, CrossComponentError if they lie apart."""
    _check_range(g, u, v)
    if g.component_id[u] != g.component_id[v]:
        raise CrossComponentError(
            f"vertices {u} and {v} lie in different components; "
            "resistance is not defined across components"
        )
    return g.component_id[u]


def is_bipartite(g: Graph) -> list[bool]:
    """Two-colorability of each connected component, indexed by label: a
    component is bipartite unless an edge joins two vertices of one colour."""
    label, colour = _traverse(g.n, g.edges)
    result = [True] * g.num_components
    for u, v in g.edges:
        if colour[u] == colour[v]:
            result[label[u]] = False
    return result
