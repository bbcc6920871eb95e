"""Closed-form Jacobian upper bounds for message-passing networks.

Two families: adjacency-power bounds (valid for any graph) and
resistance-form bounds (require a non-bipartite graph so the tail series
converges). The resistance-form bound can be negative for large R; the raw
value is returned and callers may flag negativity, never clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as gr
from . import spectral as sp
from .errors import BipartiteGraphError, DisconnectedGraphError


@dataclass
class BoundParams:
    """Lipschitz and spectral inputs.

    alpha bounds the update-map gradient, beta = max(message-map gradient, 1),
    r is the layer count. mu/d_min/d_max default to graph-derived values:
    pairwise bounds use the degrees of the endpoints, aggregate bounds use
    the global degree extremes.
    """

    alpha: float = 1.0
    beta: float = 1.0
    r: int = 0
    mu: float | None = None
    d_min: int | None = None
    d_max: int | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 1:
            raise ValueError("beta must be at least 1")
        if self.r < 0:
            raise ValueError("layer count r must be non-negative")
        if self.mu is not None and not (0.0 <= self.mu):
            raise ValueError("mu must be non-negative")


def _resolve_mu(g: gr.Graph, p: BoundParams, component: int | None = None) -> float:
    # bipartiteness is decided structurally; the eigenvalue -1 is only
    # reproduced up to roundoff
    bip = gr.is_bipartite(g)
    bad = bip[component] if component is not None else any(bip)
    if bad:
        raise BipartiteGraphError(
            "resistance-form bounds require a non-bipartite graph (mu_n = -1)"
        )
    mu = p.mu if p.mu is not None else sp.mu_bound(g)
    if mu >= 1.0:
        raise BipartiteGraphError(
            f"resistance-form bounds require mu < 1, got mu={mu}"
        )
    return mu


def adjacency_power_sum(g: gr.Graph, u: int, v: int, r: int) -> float:
    """sum_{l=0}^{r} (Ahat^l)_{uv} via iterated mat-vec, no eigensolve."""
    keep = gr.nonisolated(g)
    pos = {int(x): i for i, x in enumerate(keep)}
    if u not in pos or v not in pos:
        return 1.0 if (u == v and r >= 0) else 0.0
    ahat = gr.normalized_adjacency(g)
    x = np.zeros(len(keep))
    x[pos[v]] = 1.0
    total = x[pos[u]]
    for _ in range(r):
        x = ahat @ x
        total += x[pos[u]]
    return float(total)


def jacobian_bound_adjacency(g: gr.Graph, u: int, v: int, p: BoundParams) -> float:
    """(2 alpha beta)^r * sum_{l<=r} (Ahat^l)_{uv}."""
    return (2.0 * p.alpha * p.beta) ** p.r * adjacency_power_sum(g, u, v, p.r)


def _resistance_form(g: gr.Graph, p: BoundParams, lead: float, quantity,
                     pair=None) -> float:
    """(2ab)^r * (d_max/2) * (lead/d_min * (r+1 + mu^{r+1}/(1-mu)) - quantity()).

    mu, d_min and d_max default to graph values: those of the pair's
    component and endpoints, else of the whole graph. The checks on mu
    run before the degrees are read and `quantity` is called.
    """
    mu = _resolve_mu(g, p, component=None if pair is None else g.component_id[pair[0]])
    d = gr.degrees(g) if pair is None else gr.degrees(g)[list(pair)]
    d_min = p.d_min if p.d_min is not None else int(d.min())
    d_max = p.d_max if p.d_max is not None else int(d.max())
    q = quantity()
    tail = p.r + 1 + mu ** (p.r + 1) / (1.0 - mu)
    return (2.0 * p.alpha * p.beta) ** p.r * (d_max / 2.0) * (lead / d_min * tail - q)


def jacobian_bound_resistance(g: gr.Graph, u: int, v: int, p: BoundParams) -> float:
    """(2ab)^r * (d_max/2) * (2/d_min * (r+1 + mu^{r+1}/(1-mu)) - R_{u,v})."""
    return _resistance_form(g, p, 2.0, lambda: sp.effective_resistance(g, u, v),
                            pair=(u, v))


def total_jacobian_bound(g: gr.Graph, p: BoundParams) -> float:
    """(2ab)^r * (d_max/2) * (n(n-1)/d_min * (r+1 + mu^{r+1}/(1-mu)) - R_tot)."""
    if g.num_components != 1:
        raise DisconnectedGraphError("aggregate bound requires a connected graph")
    return _resistance_form(g, p, g.n * (g.n - 1), lambda: sp.total_resistance(g))


def spectral_gap_jacobian_bound(g: gr.Graph, p: BoundParams) -> float:
    """Looser aggregate bound with R_tot replaced by 1/(n sigma_2)."""
    if g.num_components != 1:
        raise DisconnectedGraphError("aggregate bound requires a connected graph")
    return _resistance_form(g, p, g.n * (g.n - 1),
                            lambda: 1.0 / (g.n * sp.spectral_gap(g)))
