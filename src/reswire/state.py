"""Mutable per-component cache of M = (L + 11^T/n)^{-1} and N = M^2.

O(n^2) in-place scans and insertions, block of rows by block of rows. The
scan scores the upper triangle under a persistent candidate mask; N is read
on and above its diagonal only, so roundoff asymmetry in N never matters.
Adding {u, v} takes the column difference w = M[:, u] - M[:, v], R = w_u -
w_v, B^2 = w^T w, c = 1/(1 + R) and one product Mw, all from the pre-update M:

    M' = M - c w w^T
    N' = M'^2 = N + U S U^T,  U = [w, Mw],  S = [[c^2 B^2, -c], [-c, 0]]

N is built from M only when a scan, `all_pair_scores` or a read of `n2`
first needs it; the random baseline never does. Until then an insertion
is delayed (Hager, "Updating the inverse of a matrix", SIAM Review 31,
1989): with p pending rows v_i = sqrt(c_i) w_i stacked as V (p x n_c),

    M_true = M - sum_i c_i w_i w_i^T = M - V^T V
    w      = M_true (e_u - e_v) = M[:, u] - M[:, v] - V^T (V[:, u] - V[:, v])

so w, and with it R, B^2 and the R_tot drop, costs O(n_c p) instead of a
dense O(n_c^2) update. The pending rows go into M as one BLAS-3 product
M -= V^T V, in row blocks, whenever dense M is read and when p reaches
n_c, where V fills the n_c^2 doubles that N would take. Building N
applies them first; after that every insertion updates M and N at once.

Each component works on local indices: its vertex array, its own graph
and its M come from one `spectral.component_inverses` call (one split of
the graph), and a vertex's local index is its position in that array.
"""

from __future__ import annotations

import numpy as np

from . import graph as gr
from . import spectral as sp


class _Component:
    __slots__ = ("verts", "size", "cand", "_m", "_n2", "_v", "_p")

    def __init__(self, verts: np.ndarray, sub: gr.Graph, m: np.ndarray):
        self.verts, self.size = verts, sub.n
        self._m, self._n2 = m, None
        self._v, self._p = None, 0  # pending rows, allocated on the first delay
        self.cand = ~np.tri(self.size, dtype=bool)
        a, b = np.array(sub.edges, dtype=np.int64).reshape(-1, 2).T
        self.cand[a, b] = False

    @property
    def m(self) -> np.ndarray:
        """M with every pending insertion applied."""
        self._flush()
        return self._m

    @property
    def n2(self) -> np.ndarray:
        """N = M^2, built on the first read."""
        if self._n2 is None:
            m = self.m
            self._v = None  # from here on insertions update M and N at once
            self._n2 = m.T @ m  # syrk: N exactly symmetric
        return self._n2

    def _flush(self) -> None:
        """M -= V^T V for the p pending rows, one block of rows at a time."""
        p, n = self._p, self.size
        if not p:
            return
        v = self._v[:p]
        rows = min(sp.BLOCK_ROWS, n)
        buf = np.empty((rows, n))
        for lo in range(0, n, rows):
            t = buf[:min(rows, n - lo)]
            np.matmul(v[:, lo:lo + rows].T, v, out=t)
            self._m[lo:lo + rows] -= t
        self._p = 0

    def _diff(self, a: int, b: int) -> np.ndarray:
        """w = M_true[:, a] - M_true[:, b], through the pending rows."""
        w = self._m[:, a] - self._m[:, b]
        if self._p:
            v = self._v[:self._p]
            w -= (v[:, a] - v[:, b]) @ v
        return w

    def rtot(self) -> float:
        return self.size * float(np.trace(self.m)) - self.size

    def scores(self, a, b):
        """R, B^2 and delta for local index pairs (a, b), scalars or arrays."""
        m, n2 = self.m, self.n2
        r = m[a, a] + m[b, b] - 2.0 * m[a, b]
        bsq = n2[a, a] + n2[b, b] - 2.0 * n2[a, b]
        return r, bsq, self.size * bsq / (1.0 + r)

    def pair(self, a: int, b: int):
        """`scores` of one pair; from w while N does not exist, so N is not
        built for it."""
        if self._n2 is not None:
            return self.scores(a, b)
        w = self._diff(a, b)
        r, bsq = w[a] - w[b], w @ w
        return r, bsq, self.size * bsq / (1.0 + r)

    def top(self):
        """(delta, a, b) of the first best candidate in row-major order, delta
        -inf if none. Working at half scale is exact: scores match `scores`."""
        n, m, n2 = self.size, self.m, self.n2
        hm, hn = 0.5 * np.diag(m), 0.5 * np.diag(n2)
        rows = min(sp.BLOCK_ROWS, n)
        buf = np.empty((2, rows * n))
        best = (-np.inf, 0, 0)
        for lo in range(0, n, rows):
            h, width = min(rows, n - lo), n - lo
            b, t = buf[:, :h * width].reshape(2, h, width)
            np.add(hn[lo:lo + h, None], hn[lo:], out=b)
            b -= n2[lo:lo + h, lo:]
            b *= n
            np.add(hm[lo:lo + h, None], hm[lo:], out=t)
            t -= m[lo:lo + h, lo:]
            t += 0.5
            b /= t
            t.fill(-np.inf)
            np.copyto(t, b, where=self.cand[lo:lo + h, lo:])
            k = int(t.argmax())
            if t.flat[k] > best[0]:
                best = (float(t.flat[k]), lo + k // width, lo + k % width)
        return best

    def insert(self, a: int, b: int) -> tuple[float, float]:
        """Add the local edge (a, b): in place to M and N once N exists,
        else as one more pending row. Returns (B^2, c)."""
        n, w = self.size, self._diff(a, b)
        bsq = float(w @ w)
        cc = 1.0 / (1.0 + float(w[a] - w[b]))
        self.cand[a, b] = False
        if self._n2 is None:
            if self._v is None:
                self._v = np.empty((n, n))  # pages become resident only when written
            np.multiply(w, np.sqrt(cc), out=self._v[self._p])
            self._p += 1
            if self._p == n:
                self._flush()
            return bsq, cc
        m, n2 = self._m, self._n2
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
        return bsq, cc


class ResistanceState:
    """Single-writer cache. pair_scores/all_pair_scores change no value a
    caller can read, though they may apply pending insertions or build N."""

    def __init__(self, g: gr.Graph):
        self.original = g
        # No candidate lies in a one-vertex component, and it adds 0 to R_tot.
        self._by_label = {label: _Component(verts, sub, m) for label, (verts, sub, m)
                          in enumerate(sp.component_inverses(g)) if sub.n > 1}
        self.comps = list(self._by_label.values())
        self.rtot = sum((c.rtot() for c in self.comps), 0.0)
        self.added_edges: list[tuple[int, int]] = []

    def current_graph(self) -> gr.Graph:
        return self.original.with_edges(self.added_edges)

    def _locate(self, u: int, v: int):
        if u == v:
            raise ValueError(f"pair requires distinct vertices, got ({u}, {v})")
        c = self._by_label[gr._component_label(self.original, u, v)]
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
        return tuple(float(x) for x in c.pair(a, b))

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
