"""Simple undirected graph representation and matrix constructors.

Vertices are 0-indexed. Edges are stored as sorted (u, v) tuples with u < v.
Graphs are immutable after construction; all matrix constructors return dense
numpy arrays that are exactly symmetric.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

from .errors import CrossComponentError, EdgeListParseError

_INT64_MAX = 2 ** 63 - 1  # the largest vertex count; every index lies below it
_BLOCK_LINES = 1024  # lines read at a time by `from_edge_list`
_PLAIN = re.compile(r"[0-9]+ [0-9]+(?:\n[0-9]+ [0-9]+)*")  # lines of two plain decimals


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

    def with_edges(self, extra) -> "Graph":
        """New graph with additional edges (deduplicated, revalidated)."""
        return build_graph(self.n, list(self.edges) + list(extra))

    # Computed once per graph, or set by `_graph` from its own work.
    _edge_array = cached_property(lambda self: np.array(self.edges, dtype=np.int64).reshape(-1, 2))
    _colour = cached_property(lambda self: _traverse(self.n, self.edges)[1])


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


def _graph(n: int, e: np.ndarray) -> Graph:
    """The Graph of a canonical edge array (rows u < v, sorted, no repeats)."""
    edges = tuple(zip(*np.arange(n, dtype=object)[e].T.tolist()))  # one int per vertex
    comp, colour = _traverse(n, edges)
    g = Graph(n=n, edges=edges, component_id=tuple(comp))
    g.__dict__.update(_edge_array=e, _colour=colour)
    return g


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
    return _graph(n, np.array(sorted(seen), dtype=np.int64).reshape(-1, 2))


def from_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list.

    Format: two whitespace-separated integers in 0..2^63-2 per line, as int()
    reads them, further columns ignored; lines starting with '#' are ignored;
    an optional first non-comment line "n=<int>" forces the vertex count
    (needed for trailing isolated vertices), at most 2^63-1. Duplicate edges
    collapse with a warning; self-loops are hard errors.
    """
    lines, forced_n, skip = text.splitlines(), None, 0
    first = next((i for i, s in enumerate(lines) if s.lstrip()[:1] not in ("", "#")), None)
    if first is not None and lines[first].lstrip().startswith("n="):
        try:
            forced_n = int(lines[first].strip()[2:])
        except ValueError:
            raise EdgeListParseError("bad vertex-count header", line=first + 1) from None
        if not 0 <= forced_n <= _INT64_MAX:
            raise EdgeListParseError("negative vertex count" if forced_n < 0 else
                                     "vertex count does not fit in int64", line=first + 1)
        skip = first + 1  # the lines before the header are blank or comments
    e, at = map(np.concatenate, zip(*[_read_block(lines[i:i + _BLOCK_LINES], i + 1)
                                      for i in range(skip, len(lines) + 1, _BLOCK_LINES)]))
    del lines
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    order = np.lexsort((hi, lo))  # by u, then v, then line
    e, at = np.stack((lo[order], hi[order]), axis=1), at[order]
    dup = np.flatnonzero((e[1:] == e[:-1]).all(axis=1)) + 1
    if len(dup):
        warnings.warn(f"duplicate edges collapsed (lines {sorted(at[dup].tolist())})", stacklevel=2)
        e = np.delete(e, dup, axis=0)
    max_idx = int(e[:, 1].max()) if len(e) else -1
    if forced_n is not None and forced_n <= max_idx:
        raise EdgeListParseError(f"header n={forced_n} smaller than max vertex index {max_idx}")
    return _graph(max_idx + 1 if forced_n is None else forced_n, e)


def _read_block(block: list[str], first: int) -> tuple[np.ndarray, np.ndarray]:
    """(edges, line numbers) of the lines in `block`, from line `first` on;
    EdgeListParseError at the first faulty line, with that line's first fault."""
    chunk, fault = "\n".join(block), None
    if _PLAIN.fullmatch(chunk):  # strtoll reads plain decimals as int() does, up to _INT64_MAX
        e, at = np.fromstring(chunk, dtype=np.int64, sep=" "), np.arange(first, first + len(block))
    else:
        rows, vals = list(map(str.split, block, repeat(None), repeat(2))), []  # <= 3 tokens
        keep = np.fromiter(map(bool, rows), bool, len(rows)) & ~np.fromiter(
            map(str.startswith, map(str.lstrip, block), repeat("#")), bool, len(block))
        at, rows = np.flatnonzero(keep) + first, list(compress(rows, keep.tolist()))
        try:  # a row at a time; on an error, vals keeps the tokens converted before it
            vals.extend(map(int, chain.from_iterable(map(itemgetter(0, 1), rows))))
        except (IndexError, ValueError) as exc:
            j = len(vals) // 2
            fault = j, (f"non-integer token in {rows[j][:2]}" if isinstance(exc, ValueError)
                        else "expected two integer tokens")
            del vals[2 * j:]
        e = np.array(vals, dtype=object).clip(-1, _INT64_MAX).astype(np.int64)  # faults kept
    e = e.reshape(-1, 2)  # rows before any token fault: a fault found here comes first
    bad = (e[:, 0] == e[:, 1]) | ((e < 0) | (e == _INT64_MAX)).any(axis=1)
    if bad.any():
        j = int(bad.argmax())
        fault = j, ("negative vertex index" if e[j].min() < 0 else "vertex index too large"
                    if e[j].max() == _INT64_MAX else f"self-loop at vertex {e[j, 0]}")
    if fault:
        raise EdgeListParseError(fault[1], line=int(at[fault[0]]))
    return e, at


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
    return np.bincount(g._edge_array.ravel(), minlength=g.n)


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A, written straight from the edges into one n x n array."""
    e = g._edge_array
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
    e = g._edge_array
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
    e_label = label[g._edge_array[:, 0]]
    e_local = local[g._edge_array[np.argsort(e_label, kind="stable")]]
    rows = e_local.tolist()
    v_end = np.cumsum(sizes).tolist()
    e_end = np.cumsum(np.bincount(e_label, minlength=g.num_components)).tolist()
    out = []
    for v_lo, v_hi, e_lo, e_hi in zip([0] + v_end, v_end, [0] + e_end, e_end):
        sub = _SINGLETON
        if v_hi - v_lo > 1:
            # No build_graph: relabelling a validated graph's sorted edges by a
            # monotone map keeps them canonical, and a component is connected.
            sub = Graph(n=v_hi - v_lo, edges=tuple(map(tuple, rows[e_lo:e_hi])),
                        component_id=(0,) * (v_hi - v_lo))
            sub.__dict__.update(_edge_array=e_local[e_lo:e_hi])
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
    (u, v), colour = g._edge_array.T, np.array(g._colour, dtype=bool)
    return (np.bincount(np.array(g.component_id, dtype=np.int64)[u], colour[u] == colour[v],
                        minlength=g.num_components) == 0).tolist()
