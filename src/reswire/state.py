"""Mutable per-component cache of M = (L + 11^T/n)^{-1} and N = M^2.

O(n^2) in-place scans and insertions, block of rows by block of rows. The
scan scores the upper triangle under a persistent candidate mask; N is read
on and above its diagonal only, so roundoff asymmetry in N never matters.
Adding {u, v} takes the column difference w = M[:, u] - M[:, v], R = w_u -
w_v, B^2 = w^T w, c = 1/(1 + R) and one product Mw, all from the pre-update M:

    M' = M - c w w^T
    N' = M'^2 = N + U S U^T,  U = [w, Mw],  S = [[c^2 B^2, -c], [-c, 0]]

Each component works on local indices: its vertex array, its own graph
and its M come from one `spectral.component_inverses` call (one split of
the graph), and a vertex's local index is its position in that array.
"""

from __future__ import annotations

import numpy as np

from . import graph as gr
from . import spectral as sp


class _Component:
    __slots__ = ("verts", "size", "m", "n2", "cand")

    def __init__(self, verts: np.ndarray, sub: gr.Graph, m: np.ndarray):
        self.verts, self.size = verts, sub.n
        self.m, self.n2 = m, m @ m
        self.cand = ~np.tri(self.size, dtype=bool)
        a, b = np.array(sub.edges, dtype=np.int64).reshape(-1, 2).T
        self.cand[a, b] = False

    def rtot(self) -> float:
        return self.size * float(np.trace(self.m)) - self.size

    def scores(self, a, b):
        """R, B^2 and delta for local index pairs (a, b), scalars or arrays."""
        m, n2 = self.m, self.n2
        r = m[a, a] + m[b, b] - 2.0 * m[a, b]
        bsq = n2[a, a] + n2[b, b] - 2.0 * n2[a, b]
        return r, bsq, self.size * bsq / (1.0 + r)

    def top(self):
        """(delta, a, b) of the first best candidate in row-major order, delta
        -inf if none. Working at half scale is exact: scores match `scores`."""
        n = self.size
        hm, hn = 0.5 * np.diag(self.m), 0.5 * np.diag(self.n2)
        rows = min(sp.BLOCK_ROWS, n)
        buf = np.empty((2, rows * n))
        best = (-np.inf, 0, 0)
        for lo in range(0, n, rows):
            h, width = min(rows, n - lo), n - lo
            b, t = buf[:, :h * width].reshape(2, h, width)
            np.add(hn[lo:lo + h, None], hn[lo:], out=b)
            b -= self.n2[lo:lo + h, lo:]
            b *= n
            np.add(hm[lo:lo + h, None], hm[lo:], out=t)
            t -= self.m[lo:lo + h, lo:]
            t += 0.5
            b /= t
            t.fill(-np.inf)
            np.copyto(t, b, where=self.cand[lo:lo + h, lo:])
            k = int(t.argmax())
            if t.flat[k] > best[0]:
                best = (float(t.flat[k]), lo + k // width, lo + k % width)
        return best

    def insert(self, a: int, b: int) -> tuple[float, float]:
        """Add the local edge (a, b) to M and N in place; returns (B^2, c)."""
        m, n2, n = self.m, self.n2, self.size
        w = m[:, a] - m[:, b]
        bsq = float(w @ w)
        cc = 1.0 / (1.0 + float(w[a] - w[b]))
        u2 = np.stack([w, m @ w], axis=1)
        v2 = np.array([[cc * cc * bsq, -cc], [-cc, 0.0]]) @ u2.T
        rows = min(sp.BLOCK_ROWS, n)
        buf = np.empty((rows, n))
        for lo in range(0, n, rows):
            blk, t = slice(lo, lo + rows), buf[:min(rows, n - lo)]
            # outer product before the scale keeps M exactly symmetric
            np.multiply(w[blk, None], w, out=t)
            t *= cc
            m[blk] -= t
            np.matmul(u2[blk], v2, out=t)
            n2[blk] += t
        self.cand[a, b] = False
        return bsq, cc


class ResistanceState:
    """Single-writer cache; pair_scores/all_pair_scores are read-only."""

    def __init__(self, g: gr.Graph):
        self.original = g
        self.comps = [_Component(verts, sub, m)
                      for verts, sub, m in sp.component_inverses(g)]
        self.rtot = sum(c.rtot() for c in self.comps)
        self.added_edges: list[tuple[int, int]] = []

    def current_graph(self) -> gr.Graph:
        return self.original.with_edges(self.added_edges)

    def _locate(self, u: int, v: int):
        if u == v:
            raise ValueError(f"pair requires distinct vertices, got ({u}, {v})")
        c = self.comps[gr._component_label(self.original, u, v)]
        a, b = sorted(c.verts.searchsorted((u, v)).tolist())
        if not c.cand[a, b]:
            raise ValueError(f"edge ({u}, {v}) already present")
        return c, a, b

    def pair_scores(self, u: int, v: int) -> tuple[float, float, float]:
        """(R, B^2, delta) for a same-component non-edge.

        delta = n_c * B^2 / (1 + R) is the exact total-resistance decrease
        from adding {u, v}.
        """
        c, a, b = self._locate(u, v)
        return tuple(float(x) for x in c.scores(a, b))

    def apply_edge(self, u: int, v: int) -> None:
        c, a, b = self._locate(u, v)
        bsq, cc = c.insert(a, b)
        self.rtot -= c.size * bsq * cc
        self.added_edges.append((min(u, v), max(u, v)))

    def all_pair_scores(self):
        """One row (u, v, R, Bsq, delta) per same-component non-edge,
        sorted lexicographically by (u, v)."""
        rows = []
        for c in self.comps:
            a, b = np.nonzero(c.cand)
            rows += zip(c.verts[a].tolist(), c.verts[b].tolist(),
                        *(x.tolist() for x in c.scores(a, b)))
        rows.sort(key=lambda t: (t[0], t[1]))
        return rows

    def best_candidate(self):
        """(u, v, R, Bsq, delta) maximizing delta; ties broken by (u, v).

        Returns None when every component is complete.
        """
        tops = [(top, int(c.verts[a]), int(c.verts[b]))
                for c in self.comps for top, a, b in [c.top()]]
        top, u, v = max(tops, key=lambda t: (t[0], -t[1], -t[2]),
                        default=(-np.inf, 0, 0))
        if top == -np.inf:
            return None
        return (u, v, *self.pair_scores(u, v))
