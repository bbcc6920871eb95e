"""Greedy total-resistance rewiring and the seeded random baseline.

Both score candidates through one `ResistanceState`; the exhaustive
searches that check them live in `verify`.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass

from . import graph as gr
from .state import ResistanceState


@dataclass
class AddedEdge:
    u: int
    v: int
    r_before: float
    bsq_before: float
    delta: float


@dataclass
class RewirePlan:
    method: str
    k: int
    added: list[AddedEdge]
    rtot_trajectory: list[float]
    seed: int | None = None
    truncated: bool = False

    @property
    def rtot_initial(self) -> float:
        return self.rtot_trajectory[0]

    @property
    def rtot_final(self) -> float:
        return self.rtot_trajectory[-1]

    def edge_list(self) -> list[tuple[int, int]]:
        return [(e.u, e.v) for e in self.added]


def same_component_non_edges(g: gr.Graph, *, vertex_arrays=None) -> list[tuple[int, int]]:
    """Sorted (u, v), u < v, in one component and not an edge of `g`, from
    `g`'s component `vertex_arrays` if given, else from `graph.components`."""
    if vertex_arrays is None:
        vertex_arrays = (verts for verts, sub in gr.components(g) if sub.n > 1)
    existing = g.edge_set()
    out = []
    for verts in vertex_arrays:
        out += (p for p in itertools.combinations(verts.tolist(), 2)
                if p not in existing)
    out.sort()
    return out


def gtr(g: gr.Graph, k: int) -> RewirePlan:
    """Greedily add k edges, each maximizing B^2/(1+R) over all
    same-component non-edges. Ties break lexicographically by (u, v)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    state = ResistanceState(g)
    added: list[AddedEdge] = []
    trajectory = [state.rtot]
    truncated = False
    for _ in range(k):
        cand = state.best_candidate()
        if cand is None:
            warnings.warn(
                f"all components complete after {len(added)} of {k} edges; "
                "plan truncated", stacklevel=2
            )
            truncated = True
            break
        u, v, r, bsq, delta = cand
        state.apply_edge(u, v)
        added.append(AddedEdge(u, v, r, bsq, delta))
        trajectory.append(state.rtot)
    return RewirePlan(method="gtr", k=k, added=added,
                      rtot_trajectory=trajectory, truncated=truncated)


def random_baseline(g: gr.Graph, k: int, seed: int) -> RewirePlan:
    """Add k uniformly random same-component non-edges, sequentially
    without replacement, scoring through the same state machinery."""
    if k < 0:
        raise ValueError("k must be non-negative")
    rng = random.Random(seed)
    state = ResistanceState(g)
    added: list[AddedEdge] = []
    trajectory = [state.rtot]
    truncated = False
    candidates = same_component_non_edges(g, vertex_arrays=[c.verts for c in state.comps])
    for _ in range(k):
        if not candidates:
            warnings.warn(
                f"no candidates left after {len(added)} of {k} edges; "
                "plan truncated", stacklevel=2
            )
            truncated = True
            break
        u, v = candidates.pop(rng.randrange(len(candidates)))
        r, bsq, delta = state.pair_scores(u, v)
        state.apply_edge(u, v)
        added.append(AddedEdge(u, v, r, bsq, delta))
        trajectory.append(state.rtot)
    return RewirePlan(method="random", k=k, added=added,
                      rtot_trajectory=trajectory, seed=seed,
                      truncated=truncated)


def rewire(g: gr.Graph, k: int, method: str = "gtr", seed: int = 0) -> RewirePlan:
    if method == "gtr":
        return gtr(g, k)
    if method == "random":
        return random_baseline(g, k, seed)
    raise ValueError(f"unknown method {method!r}")

