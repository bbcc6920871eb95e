"""Mutable per-component cache of M = (L + 11^T/n)^{-1} and N = M^2.

O(n^2) in-place scans and insertions, block of rows by block of rows. The
scan scores the upper triangle and writes -inf at the non-candidates in
its own buffer: each chunk's front square on and below the diagonal, and
the edges, original and added, kept per chunk as offsets into its scores
and per vertex as sorted lists of the neighbours above it. N is read on
and above its diagonal only, so roundoff asymmetry in N never matters.
Adding {u, v} takes the column difference w = M[:, u] - M[:, v], R = w_u -
w_v, B^2 = w^T w, c = 1/(1 + R) and Mw = N (e_u - e_v), all from the
pre-update M and N:

    M' = M - c w w^T
    N' = M'^2 = N + U S U^T,  U = [w, Mw],  S = [[c^2 B^2, -c], [-c, 0]]

N is built from M only when a scan or a read of `n2` first needs it; the
random baseline never does. Until then an insertion is delayed (Hager,
"Updating the inverse of a matrix", SIAM Review 31, 1989): with p pending
rows v_i = sqrt(c_i) w_i stacked as V (p x n_c),

    M_true = M - sum_i c_i w_i w_i^T = M - V^T V
    w      = M_true (e_u - e_v) = M[:, u] - M[:, v] - V^T (V[:, u] - V[:, v])

so w, and with it R, B^2 and the R_tot drop, costs O(n_c p) instead of a
dense O(n_c^2) update. The pending rows go into M as one BLAS-3 product
M -= V^T V, in row blocks, whenever dense M is read and when p reaches
n_c, where V fills the n_c^2 doubles that N would take. Building N
applies them first; after that every insertion updates M and N at once.

Layout. Rows are cut into diagonal blocks of at most CHOLESKY_ROWS (128)
rows on a grid that is symmetric under i -> n-1-i: multiples of 128 from
each end, and the middle rest split at n/2 when it exceeds 128 rows. A
component of at most 128 vertices is one block: it keeps M in the
Laplacian's array and N = M^T M (syrk) beside it. A larger component keeps
both matrices in n_c^2 + n_c doubles: the n_c^2 array P that the set-up
returned, and N's diagonal in one vector (symmetric packed storage in the
spirit of LAPACK's RFP format: Gustavson, Wasniewski, Dongarra & Langou,
ACM TOMS 37(2), 2010). With [lo(i), hi(i)) the block of row i and
s(i) = n - lo(i) - hi(i):

    M_ij = P[i, j]                 for j >= i      (the upper triangle)
    N_ij = P[j, i]                 for i < j < hi(i)  (diagonal blocks)
    N_ij = P[i + s(i), j - hi(i)]  for j >= hi(i)  (the block lower triangle)

Row i + s(i) sits at i's offset in the mirror block [n - hi(i), n - lo(i))
(s = 0 in a middle block that mirrors itself), so the symmetric grid
leaves it exactly n - hi(i) free places left of its block: row i of N
right of its block is stored there, forward. i -> i + s(i) is its own
inverse. A scan chunk of rows [r0, r1) in block [lo, hi) reads M from
P[r0:r1, r0:], N in the block from P[r0:hi, r0:r1].T and N right of it
from P[r0+s:r1+s, :n-hi], all plain slices. N is built in place from M's
upper triangle and diagonal blocks, which hold M until the last loop.
Block row I = [lo, hi) of N right of I is P[:lo, I]^T P[:lo, hi:] (the
blocks K above I), formed straight in rows [n-hi, n-lo), plus, for each
block J right of I, P[I, lo:hi_J] P[lo:hi_J, J] (K from I to J) and
P[I, hi_J:] P[J, hi_J:]^T (K below J). Each diagonal block comes last,
N_II = P[:lo, I]^T P[:lo, I] + M_II^2 + P[I, hi:] P[I, hi:]^T, into the
strict lower triangle of P[I, I] and, on the diagonal, the vector. The
build's temporaries are one block square. An insertion then writes M's
rank-1 term from each row's diagonal on and N's rank-2 term left of it,
taking U's rows left of row i's block from row i + s(i); Mw is a
difference of two columns of N, gathered from the pieces in O(n_c).
Outside the scan only these column gathers (also behind the `m` and `n2`
copies) and `_n_at`, one entry of N for `pair`, read the layout.

Tie band. `best_candidate` returns the lexicographically first pair whose
delta lies within |delta_max| * TIE_BAND * eps * kappa of the largest, so
exact ties do not break by roundoff. kappa = ||A||_inf ||M||_inf of the
pair's component (A = L + J/n), with ||A||_inf from the degrees by
`spectral._shifted_norm`, the one definition the set-up's rcond bound also
reads, and M as N is built: for GTR, the set-up's M. Each scan block keeps
its maximum and its first pair within the band of that maximum; the global
band can only be narrower, so that pair is the block's answer unless its
delta falls outside, and only then is the block scored again. A component
keeps these answers until its next insertion, so a step scans only the
component that took the last edge.

Each component works on local indices: its vertex array, its own graph
and its M come from one `spectral.component_inverses` call (one split of
the graph), and a vertex's local index is its position in that array.
"""

from __future__ import annotations

import bisect
from functools import lru_cache

import numpy as np

from . import graph as gr
from . import spectral as sp

TIE_BAND = 16  # band in units of eps * kappa; see `best_candidate`
PACKED_ROWS = 32  # rows per scan and update chunk once M and N share P


def _block_bounds(n: int) -> tuple[int, ...]:
    """Diagonal block boundaries, symmetric under x -> n - x, blocks of at
    most CHOLESKY_ROWS rows."""
    b = sp.CHOLESKY_ROWS
    if n <= b:
        return 0, n
    top = list(range(0, n // 2 + 1, b))
    middle = n - 2 * top[-1]
    cuts = top + [n - x for x in top] + ([n // 2, n - n // 2] if middle > b else [])
    return tuple(sorted(set(cuts)))


@lru_cache(maxsize=None)
def _tri(h: int, k: int = 0) -> np.ndarray:
    """np.tri(h, k=k) as a read-only bool mask, made once per (h, k): on
    and below the k-th diagonal."""
    mask = np.tri(h, k=k, dtype=bool)
    mask.flags.writeable = False
    return mask


class _Component:
    __slots__ = ("verts", "size", "band", "_above", "_edges", "_norm_a", "_m", "_n2", "_v",
                 "_p", "_bounds", "_chunks", "_rows", "_packed", "_block", "_mirror", "_top")

    def __init__(self, verts: np.ndarray, sub: gr.Graph, m: np.ndarray):
        n = sub.n
        self.verts, self.size = verts, n
        self._m, self._n2 = m, None  # N, or N's diagonal once packed: see `_build_n`
        self._v, self._p = None, 0  # pending rows, allocated on the first delay
        a, b = sub._edge_array.T
        # the band waits for ||M||_inf, read when N is built (never in the random baseline)
        self._norm_a = sp._shifted_norm(gr.degrees(sub).max(), n)
        self.band = None
        self._bounds = bounds = _block_bounds(n)
        self._rows = rows = min(n, sp.BLOCK_ROWS if len(bounds) == 2 else PACKED_ROWS)
        # (first row, end row, block start, block end, index) of each chunk of rows
        spans = [(r0, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
                 for r0 in range(lo, hi, rows)]
        self._chunks = [(r0, min(r0 + rows, hi), lo, hi, i)
                        for i, (r0, lo, hi) in enumerate(spans)]
        # the edges: per vertex its sorted neighbours above it, per chunk their
        # flat offsets into its (h, n - r0) scores
        self._above = [[] for _ in range(n)]
        for x, y in sub.edges:
            self._above[x].append(y)
        starts = np.array([chunk[0] for chunk in self._chunks])
        k = starts.searchsorted(a, side="right") - 1
        r0 = starts[k]
        self._edges = np.split((a - r0) * (n - r0) + b - r0,
                               k.searchsorted(np.arange(1, len(starts))))
        self._packed, self._block, self._mirror = False, None, None  # set when N is built
        self._top = None  # `top()`'s list, kept until the next `insert`

    @property
    def m(self) -> np.ndarray:
        """M with every pending insertion applied, as a copy gathered
        column by column."""
        self._flush()
        return np.stack([self._mcol(a) for a in range(self.size)], axis=1)

    @property
    def n2(self) -> np.ndarray:
        """N = M^2, built on the first read, as the symmetric copy of its
        upper triangle, gathered column by column."""
        if self._n2 is None:
            self._build_n()
        out = np.stack([self._ncol(a) for a in range(self.size)], axis=1)
        return np.triu(out) + np.triu(out, 1).T

    def _build_n(self) -> None:
        """N from M after a flush: syrk for one block, else in place in P
        and N's diagonal (see the module docstring)."""
        self._flush()
        self._v = None  # from here on insertions update M and N at once
        p, n, bounds = self._m, self.size, self._bounds
        self.band = TIE_BAND * np.finfo(float).eps * self._norm_a * sp._inf_norm(p)
        if len(bounds) == 2:
            self._n2 = np.matmul(p.T, p)  # syrk: N exactly symmetric
            return
        blocks = list(zip(bounds[:-1], bounds[1:]))
        for lo, hi in blocks:  # N right of block I, in the rows of its mirror
            t = np.matmul(p[:lo, lo:hi].T, p[:lo, hi:], out=p[n - hi:n - lo, :n - hi])
            for lo2, hi2 in blocks:
                if lo2 >= hi:  # block J: the terms M_IK M_KJ for K in [I, J], then K > J
                    t[:, lo2 - hi:hi2 - hi] += p[lo:hi, lo:hi2] @ p[lo:hi2, lo2:hi2]
                    t[:, lo2 - hi:hi2 - hi] += p[lo:hi, hi2:] @ p[lo2:hi2, hi2:].T
        self._n2 = nd = np.empty(n)
        for lo, hi in blocks:  # each diagonal block last: the loop above reads M there
            x, y = p[:lo, lo:hi], p[lo:hi, hi:]
            d = x.T @ x + p[lo:hi, lo:hi] @ p[lo:hi, lo:hi] + y @ y.T
            np.copyto(p[lo:hi, lo:hi], d.T, where=_tri(hi - lo, -1))
            nd[lo:hi] = d.diagonal()
        self._packed = True
        size = np.diff(bounds)
        self._block = np.repeat(np.arange(len(size)), size)
        self._mirror = np.arange(n) + np.repeat(n - np.add(bounds[:-1], bounds[1:]), size)

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

    def _mcol(self, a: int) -> np.ndarray:
        """Column a of M as stored (without the pending rows)."""
        if not self._packed:
            return self._m[:, a]
        return np.concatenate((self._m[:a + 1, a], self._m[a, a + 1:]))

    def _ncol(self, a: int) -> np.ndarray:
        """Column a of N, gathered from its five pieces in the packed layout."""
        p, n = self._m, self.size
        if not self._packed:
            return self._n2[:, a]
        k = self._block[a]
        lo, hi = self._bounds[k], self._bounds[k + 1]
        ends = np.array(self._bounds[1:])[self._block[:lo]]
        return np.concatenate((p[self._mirror[:lo], a - ends], p[a, lo:a], self._n2[a:a + 1],
                               p[a + 1:hi, a], p[self._mirror[a], :n - hi]))

    def _diff(self, a: int, b: int) -> np.ndarray:
        """w = M_true[:, a] - M_true[:, b], through the pending rows."""
        w = self._mcol(a) - self._mcol(b)
        if self._p:
            v = self._v[:self._p]
            w -= (v[:, a] - v[:, b]) @ v
        return w

    def rtot(self) -> float:
        self._flush()
        return self.size * float(np.trace(self._m)) - self.size

    def _n_at(self, a: int, b: int) -> float:
        """N_ab for local indices a <= b."""
        if not self._packed:
            return self._n2[a, b]
        if a == b:
            return self._n2[a]
        hi = self._bounds[self._block[a] + 1]
        return self._m[b, a] if b < hi else self._m[self._mirror[a], b - hi]

    def pair(self, a: int, b: int):
        """R, B^2 and delta of the local pair a < b: from M and N once N
        exists, else from w, so N is not built for it."""
        if self._n2 is None:
            w = self._diff(a, b)
            r, bsq = w[a] - w[b], w @ w
        else:
            m = self._m
            r = m[a, a] + m[b, b] - 2.0 * m[a, b]
            bsq = self._n_at(a, a) + self._n_at(b, b) - 2.0 * self._n_at(a, b)
        return r, bsq, self.size * bsq / (1.0 + r)

    def _scan_setup(self):
        """Half the diagonals of M and N, and a buffer of two chunks."""
        nd = self._n2 if self._packed else np.diag(self._n2)
        return 0.5 * np.diag(self._m), 0.5 * nd, np.empty((2, self._rows * self.size))

    def _chunk_scores(self, chunk, hm, hn, buf) -> np.ndarray:
        """delta of the chunk's rows against the columns from its first row
        on, -inf at non-candidates, as an (h, n - r0) view of buf[1].
        Working at half scale is exact: scores match `scores`."""
        r0, r1, lo, hi, i = chunk
        n, m = self.size, self._m
        h, width = r1 - r0, n - r0
        b, t = buf[:, :h * width].reshape(2, h, width)
        np.add(hn[r0:r1, None], hn[r0:], out=b)
        # the front square's entries on and below the diagonal are no
        # candidates: what is read there does not matter
        b[:, :hi - r0] -= m[r0:hi, r0:r1].T if self._packed else self._n2[r0:r1, r0:]
        if hi < n:
            f = self._mirror[r0]
            b[:, hi - r0:] -= m[f:f + h, :n - hi]
        b *= n
        np.add(hm[r0:r1, None], hm[r0:], out=t)
        t -= m[r0:r1, r0:]
        t += 0.5
        np.divide(b, t, out=t)
        np.copyto(t[:, :h], -np.inf, where=_tri(h))
        t.reshape(-1)[self._edges[i]] = -np.inf
        return t

    def top(self):
        """(max delta, a, b, delta_ab, chunk) for the chunks of rows whose
        maximum lies within the band of every earlier chunk's (the caller
        filters them against the global maximum), where (a, b) is the
        chunk's first pair in row-major order within the band of the
        chunk's maximum. Empty if the component is complete. Kept until the
        next `insert`: nothing else changes the scores, and the band is
        fixed once N is built."""
        if self._top is not None:
            return self._top
        if self._n2 is None:
            self._build_n()
        hm, hn, buf = self._scan_setup()
        flags = buf[0].view(bool)  # buf[0] is free once the scores are in buf[1]
        out, best = [], -np.inf
        for chunk in self._chunks:
            t = self._chunk_scores(chunk, hm, hn, buf)
            width, flat = t.shape[1], t.reshape(-1)
            i = int(flat.argmax())
            top = float(flat[i])
            if top == -np.inf or top < best - abs(best) * self.band:
                continue  # no candidate, or outside the band of an earlier chunk
            best = max(best, top)
            f = int(np.greater_equal(flat[:i + 1], top - abs(top) * self.band,
                                     out=flags[:i + 1]).argmax())
            r0 = chunk[0]
            out.append((top, r0 + f // width, r0 + f % width, float(flat[f]), chunk))
        self._top = out
        return out

    def first_at_least(self, chunk, floor: float):
        """(a, b, delta_ab) of the chunk's first pair in row-major order with
        delta_ab >= floor; the chunk must hold one."""
        t = self._chunk_scores(chunk, *self._scan_setup())
        width, flat = t.shape[1], t.reshape(-1)
        f = int((flat >= floor).argmax())
        return chunk[0] + f // width, chunk[0] + f % width, float(flat[f])

    def insert(self, a: int, b: int) -> tuple[float, float]:
        """Add the local edge (a, b): in place to M and N once N exists,
        else as one more pending row. Returns (B^2, c)."""
        n, w = self.size, self._diff(a, b)
        self._top = None
        bsq = float(w @ w)
        cc = 1.0 / (1.0 + float(w[a] - w[b]))
        bisect.insort(self._above[a], b)
        i = bisect.bisect_right(self._chunks, a, key=lambda chunk: chunk[0]) - 1
        r0 = self._chunks[i][0]
        self._edges[i] = np.append(self._edges[i], (a - r0) * (n - r0) + b - r0)
        if self._n2 is None:
            if self._v is None:
                self._v = np.empty((n, n))  # pages become resident only when written
            np.multiply(w, np.sqrt(cc), out=self._v[self._p])
            self._p += 1
            if self._p == n:
                self._flush()
            return bsq, cc
        p, n2 = self._m, self._n2
        mw = self._ncol(a) - self._ncol(b) if self._packed else p @ w
        u2 = np.stack([w, mw], axis=1)
        v2 = np.array([[cc * cc * bsq, -cc], [-cc, 0.0]]) @ u2.T
        buf = np.empty(self._rows * n)
        for r0, r1, lo, hi, _ in self._chunks:
            h = r1 - r0
            # outer product before the scale keeps M exactly symmetric; adding
            # -c w w^T gives the bits of subtracting c w w^T
            t = np.multiply(w[r0:r1, None], w[lo:], out=sp._work(buf, h, n - lo))
            t *= -cc
            if not self._packed:  # one block: M and N whole, apart
                p[r0:r1] += t
                n2[r0:r1] += np.matmul(u2[r0:r1], v2, out=sp._work(buf, h, n))
                continue
            p[r0:r1, r1:] += t[:, r1 - lo:]
            # N_ij = u_i . v_j at P[j, i] for i < j in the block, as the scan
            # reads it, and M on and above the diagonal; N's diagonal apart
            s = np.matmul(v2[:, r0:r1].T, u2[lo:r1].T)
            p[r0:r1, lo:r0] += s[:, :r0 - lo]
            p[r0:r1, r0:r1] += np.where(_tri(h, -1), s[:, r0 - lo:], t[:, r0 - lo:r1 - lo])
            n2[r0:r1] += s[:, r0 - lo:].diagonal()
            if lo:  # left of row i's block, P[i, c] = N[i + s(i), c + n - lo]
                f = self._mirror[r0]
                p[r0:r1, :lo] += np.matmul(u2[f:f + h], v2[:, n - lo:], out=sp._work(buf, h, lo))
        return bsq, cc


class ResistanceState:
    """Single-writer cache. pair_scores writes nothing; best_candidate may
    apply pending insertions and build N. Until N exists, pair_scores
    scores from w = M[:, u] - M[:, v]; from then on from the entries of M
    and N that the scan reads, so it returns the scan's delta to the bit.
    The two routes agree to a few ulps, not to the bit: on 1500 sampled
    pairs of 30 random graphs (n = 20..300), 1338 scores changed once
    best_candidate had run, by at most 3.8e-15 relative."""

    def __init__(self, g: gr.Graph):
        self.original = g
        # No candidate lies in a one-vertex component, and it adds 0 to R_tot.
        self._by_label = {label: _Component(verts, sub, m) for label, (verts, sub, m)
                          in enumerate(sp.component_inverses(g)) if sub.n > 1}
        self.comps = list(self._by_label.values())
        self.rtot = sum((c.rtot() for c in self.comps), 0.0)
        self.added_edges: list[tuple[int, int]] = []

    def _locate(self, u: int, v: int):
        if u == v:
            raise ValueError(f"pair requires distinct vertices, got ({u}, {v})")
        c = self._by_label[gr._component_label(self.original, u, v)]
        a, b = sorted(c.verts.searchsorted((u, v)).tolist())
        if b in c._above[a]:
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

    def best_candidate(self):
        """(u, v, R, Bsq, delta) for the lexicographically first (u, v)
        whose delta lies within the tie band of the largest delta:
        delta >= delta_max - |delta_max| * band of (u, v)'s component.

        Returns None when every component is complete.
        """
        found = [(c, *top) for c in self.comps for top in c.top()]
        if not found:
            return None
        best = max(x[1] for x in found)
        # a chunk's first pair within its own, narrower, band is its answer
        # unless that pair lies outside the global band; then it is re-scored
        live = [[int(c.verts[a]), int(c.verts[b]), delta, c, chunk]
                for c, top, a, b, delta, chunk in found if top >= best - abs(best) * c.band]
        while True:
            first = min(live, key=lambda x: x[:2])
            u, v, delta, c, chunk = first
            floor = best - abs(best) * c.band
            if delta >= floor:
                return (u, v, *self.pair_scores(u, v))
            a, b, first[2] = c.first_at_least(chunk, floor)
            first[:2] = int(c.verts[a]), int(c.verts[b])
