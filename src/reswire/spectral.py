"""Resistance quantities and the two extreme eigenvalues the bounds need.

Everything here is batch (from scratch). The closed forms follow the
regularized-inverse identities: with M = (L + 11^T/n)^{-1} on a connected
component,

    R_{u,v} = M_uu + M_vv - 2 M_uv
    R_tot   = n * tr(M) - n

M itself is formed without an LU solve: L + 11^T/n is symmetric positive
definite on a connected component, so `regularized_inverse_dense` factors it
as C C^T and inverts C in the Laplacian's own storage (left to right over
CHOLESKY_ROWS-row panels, each diagonal block by LAPACK's trtri loop over
TRIANGLE_LEAF rows), then forms M = C^{-T} C^{-1} there too (top down,
LAPACK's lauum) in its lower triangle and diagonal panels, mirrored for the state
by `component_inverses`. Every product goes a panel at a time, so the set-up
holds n^2 doubles plus one CHOLESKY_ROWS * n workspace, where an LU inverse
needs 4 n^2; its rcond bound reads ||A||_inf from the degrees.
The independent routes to the same quantities (pseudoinverses, minimum-norm
flows, the power series) live in `verify`.

sigma_2 and mu are extreme eigenvalues, read by Lanczos (Golub & Van Loan,
Matrix Computations, ch. 10): sigma_2 from the cached M, and mu from the
normalized adjacency as an edge list, certified by Cholesky factorizations
with a floating-point margin (Rump, BIT 46, 2006): one of t^2 I - B^2 on
sparse graphs, one each of t I - B and t I + B on dense ones. mu is then
never below its true value. A dense eigensolve runs only in the
fallback of `spectral_gap` and `mu_bound`, when Lanczos gives up. `stats` and
`bounds` keep M and mu's matrix as one triangle each (`_triangle_array`).

The per-component M list and mu are computed once per graph: each sits in
an lru_cache(maxsize=1) keyed on the (immutable, hashable) Graph, so it
holds one graph's results until a different graph is passed. The cached
M are read-only; errors are raised again on every call, never cached.
Components, their own graphs and the pair checks come from `graph`; a
vertex's local index is its position in its component's vertex array.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from . import graph as gr
from .errors import DisconnectedGraphError, IllConditionedError

RCOND_LIMIT = 1e-12
BLOCK_ROWS = 64  # rows per block of the dense O(n^2) kernels (no n x n temporaries)
CHOLESKY_ROWS = 128  # rows per panel of the set-up's loops and per block of the certificate
TRIANGLE_LEAF = 32  # rows per panel of `_invert_lower`'s trtri loop, each inverted by LU
LANCZOS_TOL = 1e-10  # Ritz residual relative to the largest |Ritz value|
LANCZOS_CHECK = 8  # least steps between Ritz extractions (one k x k eigh each)
LANCZOS_MAX_STEPS = 256  # sigma_2 and mu take 40 and 150 at n=1600, degree 6; mu 176 at n=3200
MU_STEP_GROWTH = 10.0  # factor on t - theta after a failed certificate
UNIT_ROUNDOFF = 2.0 ** -53


def regularized_inverse_dense(lap: np.ndarray) -> np.ndarray:
    """M = (L + 11^T/n)^{-1} for the Laplacian of one connected component,
    formed in `lap`'s lower triangle and diagonal panels alone; returns `lap`.

    A = L + J/n is symmetric positive definite, so M is formed as LAPACK's
    potri forms it (Du Croz & Higham, IMA J. Numer. Anal. 12, 1992): A =
    C C^T and X = C^{-1} in place (`_factor_inverse`), then the lower
    triangle of M = X^T X in place by one top-down loop over panels of
    CHOLESKY_ROWS rows (LAPACK's lauum), each diagonal panel then made
    exactly symmetric. Every product goes a panel at a time, so beside `lap`
    the route holds one workspace of CHOLESKY_ROWS * n doubles; up to
    CHOLESKY_ROWS rows it holds none, and one syrk forms all of M.
    IllConditionedError if a pivot is not positive, or if M is not finite
    or the rcond lower bound 1/(||A||_inf ||M||_inf), with ||A||_inf read
    from L's diagonal, the degrees (`_shifted_norm`), is below RCOND_LIMIT."""
    n = len(lap)
    norm_a = _shifted_norm(lap.diagonal().max(), n)  # before the shift
    for r0, r1 in _panels(n):
        lap[r0:r1, :r1] += 1.0 / n
    work = np.empty(CHOLESKY_ROWS * n) if n > CHOLESKY_ROWS else None
    try:
        _factor_inverse(lap, work)
    except np.linalg.LinAlgError:
        raise IllConditionedError("regularized Laplacian is not positive definite") from None
    if work is None:
        lap[...] = lap.T @ lap
    else:
        for r0, r1 in _panels(n):  # top-down: M's rows r0:r1 read X's rows >= r0 only
            lap[r0:r1, :r1] = np.matmul(lap[r0:, r0:r1].T, lap[r0:, :r1],
                                        out=_work(work, r1 - r0, r1))
        del work  # before the mirror's temporaries; not kept alive by an rcond error
        for r0, r1 in _panels(n):  # each diagonal panel: its lower triangle mirrored up
            d = lap[r0:r1, r0:r1]
            d[...] = np.tril(d) + np.tril(d, -1).T
    rcond = 1.0 / (norm_a * _inf_norm(lap))
    if not rcond >= RCOND_LIMIT:
        raise IllConditionedError(
            f"reciprocal condition estimate {rcond:.3e} below {RCOND_LIMIT:.0e}"
        )
    return lap


def _shifted_norm(d_max: float, n: int) -> float:
    """||L + J/n||_inf for a Laplacian of n > 1 vertices and largest degree
    d_max: each row of |L + J/n| sums to 1 + 2 d (1 - 1/n), d its degree."""
    return 1.0 + 2.0 * d_max * (1.0 - 1.0 / n)


def _inf_norm(m: np.ndarray) -> float:
    """||M||_inf of a symmetric M: rows [r0, r1) sum |M| left of r1 along their rows and
    right of it down their columns, each through one buffer; NaN or inf if not finite."""
    n = len(m)
    sums, buf = np.empty(n), np.empty(min(BLOCK_ROWS, n) * n)
    for r0, r1 in _panels(n, BLOCK_ROWS):
        left = np.abs(m[r0:r1, :r1], out=_work(buf, r1 - r0, r1)).sum(axis=1)
        sums[r0:r1] = left + np.abs(m[r1:, r0:r1].T, out=_work(buf, r1 - r0, n - r1)).sum(axis=1)
    return float(sums.max())


def _triangle_array(n: int, upper: bool) -> np.ndarray:
    """n x n zeros for one triangle and the diagonal panels: past CHOLESKY_ROWS rows in an
    anonymous mapping advised MADV_NOHUGEPAGE (numpy's 2 MB pages straddle the diagonal),
    rows whole pages apart, each one's start (lower) or end (`upper`) on a page boundary."""
    if n <= CHOLESKY_ROWS:  # one diagonal panel
        return np.zeros((n, n))
    import mmap  # here: at import it raises every CLI call's peak
    stride = -(-8 * n // mmap.PAGESIZE) * mmap.PAGESIZE // 8
    buf = mmap.mmap(-1, 8 * stride * n)
    buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf).reshape(n, stride)[:, stride - n if upper else 0:][:, :n]


def _work(work: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A rows x cols view of the front of the flat workspace."""
    return work[:rows * cols].reshape(rows, cols)


def _panels(rows: int, height: int = CHOLESKY_ROWS) -> list[tuple[int, int]]:
    """(first row, end row) of each `height`-row panel of `rows` rows."""
    return [(r0, min(r0 + height, rows)) for r0 in range(0, rows, height)]


def _factor_inverse(a: np.ndarray, work: np.ndarray | None) -> None:
    """A = C C^T, then X = C^{-1}, in place: the lower triangle of `a` (the
    only part read) becomes X, with zeros above the diagonal inside each
    diagonal block. One left-to-right loop over panels of CHOLESKY_ROWS
    rows (LAPACK's blocked potrf, left-looking, and trtri): panel [r0, r1)
    takes A[r0:, r0:r1] -= C[r0:, :r0] C[r0:r1, :r0]^T, factors its diagonal
    block into X11 = C11^{-1} (np.linalg.cholesky, then `_invert_lower`),
    forms C21 = A21 X11^T, and last sets X[r0:r1, :r0] = -X11 C[r0:r1, :r0]
    X[:r0, :r0], so it reads C only in its own rows and below. Each product
    goes a panel of rows through `work` (None up to CHOLESKY_ROWS rows,
    where the loop is one cholesky and one `_invert_lower`). LinAlgError
    if a pivot is not positive."""
    n = len(a)
    panels = _panels(n)
    for p, (r0, r1) in enumerate(panels):
        for s0, s1 in panels[p:] if p else ():  # none for panel 0 (no work when n <= CHOLESKY_ROWS)
            a[s0:s1, r0:r1] -= np.matmul(a[s0:s1, :r0], a[r0:r1, :r0].T,
                                         out=_work(work, s1 - s0, r1 - r0))
        x11 = a[r0:r1, r0:r1]
        x11[...] = np.linalg.cholesky(x11)
        _invert_lower(x11)
        for s0, s1 in panels[p + 1:]:  # C21 = A21 X11^T
            c21 = a[s0:s1, r0:r1]
            c21[...] = np.matmul(c21, x11.T, out=_work(work, s1 - s0, r1 - r0))
        for c0, c1 in panels[:p]:  # X[:r0, :r0] is lower triangular: its panel c0 starts at row c0
            t = np.matmul(a[r0:r1, c0:r0], a[c0:r0, c0:c1], out=_work(work, r1 - r0, c1 - c0))
            np.matmul(x11, np.negative(t, out=t), out=a[r0:r1, c0:c1])


def _invert_lower(c: np.ndarray) -> None:
    """C <- C^{-1} in place for a lower-triangular C with a positive
    diagonal and zeros above it, by LAPACK's blocked trtri: top down, each
    TRIANGLE_LEAF-row panel [r0, r1) inverts its leaf X11 = C11^{-1}, then
    sets X[r0:r1, :r0] = -X11 (C[r0:r1, :r0] X[:r0, :r0]) from rows above."""
    for r0, r1 in _panels(len(c), TRIANGLE_LEAF):
        x11 = c[r0:r1, r0:r1]
        # LU keeps the zeros above the diagonal unless it pivots (none of
        # 1328 leaves did on random graphs, trees, paths, cycles and
        # cliques); a pivot would leave entries there of the size of the
        # inverse's own roundoff
        x11[...] = np.linalg.inv(x11)
        if r0:  # none left of panel 0; nothing right of a leaf is written
            c[r0:r1, :r0] = -x11 @ (c[r0:r1, :r0] @ c[:r0, :r0])


_SINGLETON_M = np.ones((1, 1))
_SINGLETON_M.flags.writeable = False


def component_inverses(g: gr.Graph):
    """Per-component (vertex array, own graph, M) triples from one split
    of `g`, ordered by component label, each M from the Laplacian of that
    component's own graph, its lower triangle mirrored up exactly. A
    one-vertex component has L + 11^T/n = [[1]], so its M = [[1.0]] is not
    inverted: every one-vertex component shares one read-only array."""
    out = [(verts, sub, _SINGLETON_M if sub.n == 1
            else regularized_inverse_dense(gr.laplacian(sub)))
           for verts, sub in gr.components(g)]
    for _, sub, m in out:
        for r0, r1 in _panels(sub.n)[:-1]:
            m[r0:r1, r1:] = m[r1:, r0:r1].T
    return out


def _lower_laplacian(g: gr.Graph) -> np.ndarray:
    """L's lower triangle and diagonal in a `_triangle_array`."""
    e, lap = g._edge_array, _triangle_array(g.n, upper=False)
    lap[e[:, 1], e[:, 0]] = -1.0  # rows u < v
    np.fill_diagonal(lap, gr.degrees(g))
    return lap


@lru_cache(maxsize=1)
def _inverses(g: gr.Graph):
    """(vertex array, read-only M) per component, M unmirrored from `_lower_laplacian`."""
    pairs = tuple((verts, _SINGLETON_M if sub.n == 1
                   else regularized_inverse_dense(_lower_laplacian(sub)))
                  for verts, sub in gr.components(g))
    for _, m in pairs:
        m.flags.writeable = False
    return pairs


def effective_resistance(g: gr.Graph, u: int, v: int) -> float:
    label = gr._component_label(g, u, v)  # before any inverse is computed
    if u == v:
        return 0.0
    verts, m = _inverses(g)[label]
    lu, lv = sorted(np.searchsorted(verts, (u, v)).tolist())
    return float(m[lu, lu] + m[lv, lv] - 2.0 * m[lv, lu])


def total_resistance(g: gr.Graph) -> float:
    """Sum of pairwise resistances within each component; a one-vertex
    component adds exactly 0 and is skipped."""
    total = 0.0
    for verts, m in _inverses(g):
        nc = len(verts)
        if nc > 1:
            total += nc * float(np.trace(m)) - nc
    return total


def spectral_gap(g: gr.Graph) -> float:
    """sigma_2 of L for a connected graph, as 1/lambda_max(M - J/n) from the
    cached M: on 1-perp M has the eigenvalues 1/sigma_i, and J/n removes its
    eigenvalue 1 on 1. The Ritz value never exceeds lambda_max, so up to
    roundoff in M sigma_2 is never under-read."""
    if g.num_components != 1:
        raise DisconnectedGraphError("spectral gap requires a connected graph")
    if g.n == 1:  # L = [0] has no sigma_2
        raise ValueError("spectral gap requires at least two vertices")
    (_, m), = _inverses(g)

    def matvec(x):  # M x - mean(x): a panel of rows also adds its left part, transposed, above
        y = np.empty(g.n)
        for r0, r1 in _panels(g.n):
            y[r0:r1] = m[r0:r1, :r1] @ x[:r1]
            y[:r0] += x[r0:r1] @ m[r0:r1, :r0]
        return y - x.mean()
    ritz = _lanczos(matvec, g.n, both=False)
    if ritz is None:
        return float(np.linalg.eigvalsh(gr.laplacian(g))[1])
    return 1.0 / ritz[1]


def mu_bound(g: gr.Graph) -> float:
    """max(|mu_2|, |mu_n|) for the normalized adjacency, certified from
    above and at most 1."""
    return _mu(g)


@lru_cache(maxsize=1)
def _mu(g: gr.Graph) -> float:
    """Lanczos estimate theta of mu = max|lambda(B)|, B = Ahat - v v^T, v = D^(1/2) 1 /
    ||D^(1/2) 1|| (Ahat v = v: B has Ahat's spectrum with one 1 replaced by 0; a dense
    eigvalsh when Lanczos gives up), certified from above by `_certified`."""
    keep, ahat = gr.normalized_adjacency_edges(g)
    n = len(keep)
    if n == 0:
        return 0.0
    d = np.bincount(np.concatenate([ahat.rows, ahat.cols]), minlength=n)
    v = np.sqrt(d / d.sum())
    ritz = _lanczos(lambda x: ahat @ x - v * (v @ x), n, both=True)
    if ritz is None:
        mu_all = np.linalg.eigvalsh(gr.normalized_adjacency(g))
        return _certified(ahat, d, max(abs(mu_all[0]), abs(mu_all[-2])), 0.0)
    lo, hi, res = ritz
    return _certified(ahat, d, max(-lo, hi), res)


def _certified(ahat: gr.EdgeMatrix, d: np.ndarray, theta: float, res: float) -> float:
    """min(1, a bound never below mu) from an estimate theta of mu with Ritz residual res,
    for `ahat` with degrees `d`: t is raised from theta until Cholesky proves |lambda(B)|^p
    <= T = t^p, with p = 2 (one factorization of F = T I - Ahat^2 + v v^T) when sum_k d_k^2,
    the count of Ahat^2's neighbour pairs, is at most n^2 / 2, else p = 1 (T I - B and
    T I + B, whose O(n^2) fill is then the cheaper). Each success proves mu^p <= T + c + e,
    c from `_cholesky_margin`, e >= ||fl(F) - F||_2: for p = 2 an entry of F sums <= d_max + 2
    terms (T, v_i v_j, w_ik w_kj over common neighbours k) of <= 11 roundings each (w has 5,
    v_i 2), so e = gamma_{d_max+12} ||T I + v v^T + Ahat^2||_2 = gamma_{d_max+12} (T + 2);
    for p = 1 an entry has <= 6, so e = 8u (T + 2) >= gamma_6 ||T I + |Ahat| + v v^T||_2."""
    n, v = len(d), np.sqrt(d / d.sum())
    square = d @ d <= n * n / 2
    p, err = (2, (d.max() + 13) * UNIT_ROUNDOFF) if square else (1, 8 * UNIT_ROUNDOFF)
    # (theta + res)^p - theta^p, ~ the margin (~ n^2 u / 2 of the diagonal) and err
    step = ((theta + res) ** p - theta ** p
            + (n * n / 2 * UNIT_ROUNDOFF + err) * theta ** p + 3 * err)
    f = _triangle_array(n, upper=True)
    while theta ** p + step < 1.0:
        tp, bound = theta ** p + step, 0.0
        for sign in (1.0,) if square else (1.0, -1.0):
            _fill_certificate(f, ahat, v, tp, sign, square)
            margin = _cholesky_margin(f)
            if margin is None:
                break
            bound = max(bound, tp + margin + err * (tp + 2.0))
        else:
            return min(1.0, float(np.sqrt(bound) if square else bound) * (1.0 + 8 * UNIT_ROUNDOFF))
        step *= MU_STEP_GROWTH
    return 1.0


def _fill_certificate(f: np.ndarray, ahat: gr.EdgeMatrix, v: np.ndarray, tp: float,
                      sign: float, square: bool) -> None:
    """f = tp I - sign (Ahat^p - v v^T), p = 2 if `square` else 1, in f's upper triangle and
    diagonal panels: Ahat^2 from the neighbour pairs (i, j >= i) of each k, over runs of
    <= BLOCK_ROWS / 4 * n pairs."""
    n = len(v)
    for r0, r1 in _panels(n):
        np.multiply.outer(sign * v[r0:r1], v[r0:], out=f[r0:r1, r0:])
    if not square:
        f[ahat.rows, ahat.cols] -= sign * ahat.weights
    else:
        src, dst = np.concatenate([ahat.rows, ahat.cols]), np.concatenate([ahat.cols, ahat.rows])
        order = np.argsort(src, kind="stable")
        src, dst, w = src[order], dst[order], np.tile(ahat.weights, 2)[order]
        d = np.bincount(src, minlength=n)
        first = np.cumsum(d) - d  # k's neighbours are dst[first[k]:first[k] + d[k]]
        for e0, e1 in _panels(len(src), max(1, BLOCK_ROWS // 4 * n // int(d.max()))):
            cnt = d[dst[e0:e1]]
            pos = np.arange(cnt.sum()) + np.repeat(first[dst[e0:e1]] - np.cumsum(cnt) + cnt, cnt)
            rows, cols = np.repeat(src[e0:e1], cnt), dst[pos]
            up = cols >= rows
            np.subtract.at(f, (rows[up], cols[up]), sign * (np.repeat(w[e0:e1], cnt) * w[pos])[up])
    f.flat[::n + 1] += tp


def _lanczos(matvec, n: int, both: bool) -> tuple[float, float, float] | None:
    """(lowest, highest) Ritz value of the symmetric operator `matvec` on
    R^n, and the largest Ritz residual of the end asked for: the top, or
    both ends when `both`. Each Ritz value lies in [lambda_min, lambda_max]
    and within its residual of an eigenvalue.

    Full reorthogonalisation and a fixed start vector keep the result
    deterministic. It stops when the residual is at most LANCZOS_TOL of the
    largest |Ritz value| (checked after LANCZOS_CHECK steps, then every
    max(LANCZOS_CHECK, k/4) steps), or when the Krylov space is full (then
    exact up to roundoff). None after LANCZOS_MAX_STEPS steps without
    either: on long paths and cycles the extremes need O(n) steps, and the
    callers' dense eigensolve is then cheaper.
    """
    steps = min(n, LANCZOS_MAX_STEPS)
    basis = np.empty((steps, n))  # rows not written stay out of RSS only if freshly mapped
    rng = random.Random(0)  # numpy.random costs ~8 MB of resident memory to import
    x = np.array([rng.random() - 0.5 for _ in range(n)])
    basis[0] = x / np.linalg.norm(x)
    alpha, beta = [], []
    check = LANCZOS_CHECK
    for k in range(1, steps + 1):
        q = basis[:k]
        w = matvec(q[-1])
        alpha.append(float(q[-1] @ w))
        for _ in range(2):
            w -= q.T @ (q @ w)
        b = float(np.linalg.norm(w))
        # b below LANCZOS_TOL * max|T_ij| <= LANCZOS_TOL * ||T|| is a breakdown: stop
        if k in (check, steps) or b <= LANCZOS_TOL * max(map(abs, alpha + beta)):
            check = k + max(LANCZOS_CHECK, k // 4)
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            res = b * np.abs(s[-1, [0, -1] if both else [-1]])
            if k == n or res.max() <= LANCZOS_TOL * np.abs(theta).max():
                return float(theta[0]), float(theta[-1]), float(res.max())
        if k < steps:
            basis[k] = w / b
        beta.append(b)
    return None


def _cholesky_margin(a: np.ndarray) -> float | None:
    """Factor the symmetric `a` (read from its upper triangle) as R^T R in place;
    None when a pivot is not positive, else c with lambda_min(a) >= -c. Each block of
    CHOLESKY_ROWS rows takes R's rows above it 2 * CHOLESKY_ROWS at a time (deeper
    products touch more of OpenBLAS's buffers); a row loop factors each leaf of
    TRIANGLE_LEAF rows, and one product updates the block's rows below it. Every
    product goes through one CHOLESKY_ROWS * n workspace.

    The computed R satisfies R^T R = a + E with |E_ij| <= gamma_{min(i,j)+1}
    |r_i|^T |r_j| in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3), and ||r_i||^2 <= a_ii / (1 - gamma_{i+1}),
    so ||E||_2 <= sum_i gamma_{i+1} / (1 - gamma_{i+1}) a_ii (Rump,
    "Verification of positive definiteness", BIT 46, 2006). The returned c is
    that sum, raised by 1e-6 of itself to cover its own rounding and any
    underflow. Every r_ij is a true division by r_ii, as the bound assumes.
    """
    n = len(a)
    ku = np.arange(2, n + 2) * UNIT_ROUNDOFF
    gamma = ku / (1.0 - ku)  # gamma_{i+1}, i = 1..n
    c = float(gamma / (1.0 - gamma) @ a.diagonal()) * (1.0 + 1e-6)
    work = np.empty(min(CHOLESKY_ROWS, n) * n)

    def update(p0, p1, s0, s1):  # rows s0:s1 from column s0 on, less R[p0:p1]'s part
        a[s0:s1, s0:] -= np.matmul(a[p0:p1, s0:s1].T, a[p0:p1, s0:],
                                   out=_work(work, s1 - s0, n - s0))
    for k0, k1 in _panels(n):
        for p0, p1 in _panels(k0, 2 * CHOLESKY_ROWS):
            update(p0, p1, k0, k1)
        for l0, l1 in _panels(k1, TRIANGLE_LEAF)[k0 // TRIANGLE_LEAF:]:  # the block's leaves
            for i in range(l0, l1):
                row = a[i, i:]
                row -= a[l0:i, i] @ a[l0:i, i:]
                if not row[0] > 0.0:
                    return None
                np.sqrt(row[:1], out=row[:1])
                row[1:] /= row[0]
            update(l0, l1, l1, k1)
    return c


def rmax(g: gr.Graph) -> float:
    """Largest pairwise resistance of a connected graph, BLOCK_ROWS / 4 rows
    at a time: the (at most three) temporaries stay under one BLOCK_ROWS x n block."""
    if g.num_components != 1:
        raise DisconnectedGraphError("resistance matrix requires a connected graph")
    (_, m), = _inverses(g)
    d, rows = np.diag(m), BLOCK_ROWS // 4
    return float(max(np.max(d[lo:hi, None] + d[:hi] - 2.0 * m[lo:hi, :hi])
                     for lo, hi in _panels(len(d), rows)))

