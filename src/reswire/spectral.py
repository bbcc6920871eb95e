"""Eigendecompositions, pseudoinverses, and resistance quantities.

Everything here is batch (from scratch). The closed forms follow the
regularized-inverse identities: with M = (L + 11^T/n)^{-1} on a connected
component,

    R_{u,v}   = M_uu + M_vv - 2 M_uv
    B^2_{u,v} = ||M (1_u - 1_v)||^2
    R_tot     = n * tr(M) - n

Eigendecomposition is used only for Spectrum, oracles, and sigma/mu
quantities, never on the rewiring hot path.

The per-component M list and mu are computed once per graph: each sits in
an lru_cache(maxsize=1) keyed on the (immutable, hashable) Graph, so it
holds one graph's results until a different graph is passed. The cached
M are read-only; errors are raised again on every call, never cached.
Components, their own graphs and the pair checks come from `graph`; a
vertex's local index is its position in its component's vertex array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import graph as gr
from .errors import (
    BipartiteGraphError,
    DisconnectedGraphError,
    IllConditionedError,
)

RCOND_LIMIT = 1e-12
SERIES_MAX_TERMS = 10**5
BLOCK_ROWS = 64  # rows per block of the dense O(n^2) kernels (no n x n temporaries)


@dataclass
class Spectrum:
    """Eigenvalues of L (sigma, ascending), of the normalized Laplacian
    (lam, ascending), of the normalized adjacency (mu, descending), and the
    shared orthonormal eigenvector basis z of the normalized matrices."""

    sigma: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    z: np.ndarray


def spectrum(g: gr.Graph) -> Spectrum:
    sigma = np.linalg.eigvalsh(gr.laplacian(g))
    lhat = gr.normalized_laplacian(g)
    lam, z = np.linalg.eigh(lhat)
    return Spectrum(sigma=sigma, lam=lam, mu=1.0 - lam, z=z)


def pseudo_inverse(mat: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via symmetric eigendecomposition."""
    w, v = np.linalg.eigh(mat)
    cutoff = 1e-10 * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    inv = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    out = (v * inv) @ v.T
    return (out + out.T) / 2.0


def regularized_inverse_dense(lap: np.ndarray) -> np.ndarray:
    """M = (L + 11^T/n)^{-1} for the Laplacian of one connected component,
    returned in `lap`'s storage. IllConditionedError if M is not finite or
    the rcond lower bound 1/(||A||_inf ||M||_inf) is below RCOND_LIMIT."""
    lap += 1.0 / lap.shape[0]
    try:
        m = np.linalg.inv(lap)
    except np.linalg.LinAlgError:
        raise IllConditionedError("regularized Laplacian is singular") from None
    rcond = _rcond_lower_bound(lap, m)
    if not rcond >= RCOND_LIMIT:
        raise IllConditionedError(
            f"reciprocal condition estimate {rcond:.3e} below {RCOND_LIMIT:.0e}"
        )
    return np.multiply(np.add(m, m.T, out=lap), 0.5, out=lap)


def _rcond_lower_bound(a: np.ndarray, m: np.ndarray) -> float:
    """1/(||A||_inf ||M||_inf) for M = A^{-1}; NaN or 0 if M is not finite."""
    return 1.0 / np.prod([max(float(np.abs(x[i:i + BLOCK_ROWS]).sum(axis=1).max())
                              for i in range(0, len(x), BLOCK_ROWS)) for x in (a, m)])


def component_inverses(g: gr.Graph):
    """Per-component (vertex array, M) pairs, ordered by component label,
    each from the Laplacian of that component's own graph."""
    return [(verts, regularized_inverse_dense(gr.laplacian(sub)))
            for verts, sub in gr.components(g)]


@lru_cache(maxsize=1)
def _inverses(g: gr.Graph):
    """The (vertex array, read-only M) pairs of `component_inverses`."""
    pairs = tuple(component_inverses(g))
    for _, m in pairs:
        m.flags.writeable = False
    return pairs


def regularized_inverse(g: gr.Graph) -> np.ndarray:
    """M for a connected graph."""
    if g.num_components != 1:
        raise DisconnectedGraphError("regularized_inverse requires a connected graph")
    return regularized_inverse_dense(gr.laplacian(g))


def _component_pair(g: gr.Graph, u: int, v: int):
    """(own graph of u's component, local u, local v)."""
    verts, sub = gr.components(g)[gr._component_label(g, u, v)]
    return (sub, *np.searchsorted(verts, (u, v)).tolist())


def _inverse_pair(g: gr.Graph, u: int, v: int):
    """(cached M of u's component, local u, local v)."""
    label = gr._component_label(g, u, v)  # before any inverse is computed
    verts, m = _inverses(g)[label]
    return (m, *np.searchsorted(verts, (u, v)).tolist())


def effective_resistance(g: gr.Graph, u: int, v: int) -> float:
    if u == v:
        gr._component_label(g, u, v)
        return 0.0
    m, lu, lv = _inverse_pair(g, u, v)
    return float(m[lu, lu] + m[lv, lv] - 2.0 * m[lu, lv])


def effective_resistance_normalized(g: gr.Graph, u: int, v: int) -> float:
    """Resistance via the normalized-Laplacian pseudoinverse route."""
    if u == v:
        gr._component_label(g, u, v)
        return 0.0
    sub, lu, lv = _component_pair(g, u, v)
    lhat_pinv = pseudo_inverse(gr.normalized_laplacian(sub))
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
    b = gr.boundary_matrix(sub)
    rhs = np.zeros(sub.n)
    rhs[lu] = 1.0
    rhs[lv] = -1.0
    f, *_ = np.linalg.lstsq(b, rhs, rcond=None)
    return float(f @ f)


def biharmonic_distance_sq(g: gr.Graph, u: int, v: int) -> float:
    if u == v:
        gr._component_label(g, u, v)
        return 0.0
    m, lu, lv = _inverse_pair(g, u, v)
    w = m[:, lu] - m[:, lv]
    return float(w @ w)


def total_resistance(g: gr.Graph) -> float:
    """Sum of pairwise resistances within each component."""
    total = 0.0
    for verts, m in _inverses(g):
        nc = len(verts)
        total += nc * float(np.trace(m)) - nc
    return total


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
    ahat = gr.normalized_adjacency(sub)
    mu = mu_bound(sub)
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


def spectral_gap(g: gr.Graph) -> float:
    if g.num_components != 1:
        raise DisconnectedGraphError("spectral gap requires a connected graph")
    sigma = np.linalg.eigvalsh(gr.laplacian(g))
    return float(sigma[1])


def mu_bound(g: gr.Graph) -> float:
    """max(|mu_2|, |mu_n|) for the normalized adjacency."""
    return _mu(g)


@lru_cache(maxsize=1)
def _mu(g: gr.Graph) -> float:
    ahat = gr.normalized_adjacency(g)
    mu = np.sort(np.linalg.eigvalsh(ahat))[::-1]
    if len(mu) < 2:
        return 0.0
    return float(max(abs(mu[1]), abs(mu[-1])))


def rmax(g: gr.Graph) -> float:
    """Largest pairwise resistance of a connected graph, taken block of
    rows by block of rows (no n x n temporary)."""
    if g.num_components != 1:
        raise DisconnectedGraphError("resistance matrix requires a connected graph")
    (_, m), = _inverses(g)
    d = np.diag(m)
    return float(max(np.max(d[lo:lo + BLOCK_ROWS, None] + d - 2.0 * m[lo:lo + BLOCK_ROWS])
                     for lo in range(0, len(d), BLOCK_ROWS)))


def format_sig(x: float) -> str:
    return format(x, ".17g")
