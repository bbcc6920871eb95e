"""Closed-form Jacobian upper bounds for message-passing networks.

Two families: adjacency-power bounds (valid for any graph) and
resistance-form bounds (require a non-bipartite graph so the tail series
converges). The resistance-form bound can be negative for large R; the raw
value is returned and callers may flag negativity, never clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as gr
from . import spectral as sp
from .errors import BipartiteGraphError, DisconnectedGraphError


@dataclass
class BoundParams:
    """Lipschitz and spectral inputs.

    alpha bounds the update-map gradient, beta = max(message-map gradient, 1),
    r is the layer count. mu defaults to the graph's certified value.
    """

    alpha: float = 1.0
    beta: float = 1.0
    r: int = 0
    mu: float | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 1 <= self.beta < math.inf:
            raise ValueError("beta must be finite and at least 1")
        if self.r < 0:
            raise ValueError("layer count r must be non-negative")
        if self.mu is not None and not 0 <= self.mu < 1:
            raise ValueError("mu must lie in [0, 1)")


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
    """sum_{l=0}^{r} (Ahat^l)_{uv} via iterated products with the edge
    list, no eigensolve. ValueError if u or v is out of range."""
    gr._check_range(g, u, v)
    keep, ahat = gr.normalized_adjacency_edges(g)
    if u not in keep or v not in keep:  # an isolated endpoint: only l = 0 counts
        return float(u == v)
    lu, lv = np.searchsorted(keep, (u, v))
    x = np.zeros(len(keep))
    x[lv] = 1.0
    total = x[lu]
    for _ in range(r):
        x = ahat @ x
        total += x[lu]
    return float(total)


def _scaled(p: BoundParams, bound) -> float:
    """bound(s) for the scale s = (2 alpha beta)^r, called only once s fits
    a float. ValueError naming the overflow when s or the bound does not."""
    try:
        scale = (2.0 * p.alpha * p.beta) ** p.r
    except OverflowError:
        scale = math.inf
    out = bound(scale) if scale < math.inf else scale
    if not math.isfinite(out):
        raise ValueError(f"bound overflows a float: (2 alpha beta)^r with alpha={p.alpha}, "
                         f"beta={p.beta}, r={p.r}")
    return out


def jacobian_bound_adjacency(g: gr.Graph, u: int, v: int, p: BoundParams) -> float:
    """(2 alpha beta)^r * sum_{l<=r} (Ahat^l)_{uv}."""
    return _scaled(p, lambda s: s * adjacency_power_sum(g, u, v, p.r))


def _resistance_form(g: gr.Graph, p: BoundParams, lead: float, quantity,
                     pair=None) -> float:
    """(2ab)^r * (d_max/2) * (lead/d_min * (r+1 + mu^{r+1}/(1-mu)) - quantity()).

    mu defaults to the graph's value. d_min and d_max are the degrees of
    the pair's endpoints, else the whole graph's extremes. The checks on mu
    run before the degrees are read and `quantity` is called.
    """
    if pair is not None:
        gr._check_range(g, *pair)
    mu = _resolve_mu(g, p, component=None if pair is None else g.component_id[pair[0]])
    d = gr.degrees(g) if pair is None else gr.degrees(g)[list(pair)]
    d_min, d_max = int(d.min()), int(d.max())
    tail = p.r + 1 + mu ** (p.r + 1) / (1.0 - mu)
    return _scaled(p, lambda s: s * (d_max / 2.0) * (lead / d_min * tail - quantity()))


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
