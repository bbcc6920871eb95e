"""Greedy total-resistance rewiring and the seeded random baseline.

Both score candidates through one `ResistanceState`; the exhaustive
searches that check them live in `verify`.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass

import numpy as np

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


def same_component_non_edges(g: gr.Graph, *, state: ResistanceState | None = None):
    """Sorted (u, v), u < v, in one component and not an edge of `g`, as a
    list; given `g`'s `state`, as a `_MaskedCandidates` over the pairs the
    state has not added, read from its candidate masks."""
    if state is not None:
        return _MaskedCandidates(state)
    existing = g.edge_set()
    out = []
    for verts, sub in gr.components(g):
        if sub.n > 1:
            out += (p for p in itertools.combinations(verts.tolist(), 2)
                    if p not in existing)
    out.sort()
    return out


class _MaskedCandidates:
    """`len` and `pop(i)` of the sorted list of the pairs a state has not
    added, without the list: the i-th pair is found from per-vertex counts
    of the remaining candidates (their prefix sum gives u) and u's row of
    its component's mask (its nonzeros give v). `pop` only counts the pair
    as taken; the caller adds it by `apply_edge`, which clears its mask
    entry, before the next `pop`."""

    def __init__(self, state: ResistanceState):
        n = state.original.n
        self._comps = state.comps
        self._owner = np.zeros(n, dtype=np.int64)
        self._local = np.zeros(n, dtype=np.int64)
        self._counts = np.zeros(n, dtype=np.int64)
        for i, c in enumerate(state.comps):
            self._owner[c.verts], self._local[c.verts] = i, np.arange(c.size)
            self._counts[c.verts] = c.cand.sum(axis=1)
        self._len = int(self._counts.sum())

    def __len__(self) -> int:
        return self._len

    def pop(self, i: int) -> tuple[int, int]:
        ends = np.cumsum(self._counts)
        u = int(np.searchsorted(ends, i, side="right"))
        c = self._comps[self._owner[u]]
        b = np.flatnonzero(c.cand[self._local[u]])[i - int(ends[u]) + int(self._counts[u])]
        self._counts[u] -= 1
        self._len -= 1
        return u, int(c.verts[b])


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
    candidates = same_component_non_edges(g, state=state)
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

