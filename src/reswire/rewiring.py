"""Greedy total-resistance rewiring and the seeded random baseline.

Both score candidates through one `ResistanceState`; the sorted non-edge
list and the exhaustive searches that check them live in `verify`.
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

    @property
    def truncated(self) -> bool:
        return len(self.added) < self.k

    @property
    def rtot_initial(self) -> float:
        return self.rtot_trajectory[0]

    @property
    def rtot_final(self) -> float:
        return self.rtot_trajectory[-1]

    def edge_list(self) -> list[tuple[int, int]]:
        return [(e.u, e.v) for e in self.added]


def same_component_non_edges(state: ResistanceState) -> "_MaskedCandidates":
    """The pairs (u, v), u < v, in one component of the state's graph that
    are neither its edges nor added by the state, in sorted order, as a
    `_MaskedCandidates` view read from the state's lists of neighbours."""
    return _MaskedCandidates(state)


class _MaskedCandidates:
    """`len` and `pop(i)` of the sorted list of the pairs a state has not
    added, without the list: the i-th pair is found from per-vertex counts
    of the remaining candidates (their prefix sum gives u) and the sorted
    neighbours above u in its component (skipping them gives v, in
    O(deg u)). `pop` only counts the pair as taken; the caller adds it by
    `apply_edge`, which adds v to u's neighbours, before the next `pop`."""

    def __init__(self, state: ResistanceState):
        n = state.original.n
        self._comps = state.comps
        self._owner = np.zeros(n, dtype=np.int64)
        self._local = np.zeros(n, dtype=np.int64)
        self._counts = np.zeros(n, dtype=np.int64)
        for i, c in enumerate(state.comps):
            self._owner[c.verts], self._local[c.verts] = i, np.arange(c.size)
            self._counts[c.verts] = (np.arange(c.size - 1, -1, -1)
                                     - np.fromiter(map(len, c._above), np.int64, c.size))
        self._len = int(self._counts.sum())

    def __len__(self) -> int:
        return self._len

    def pop(self, i: int) -> tuple[int, int]:
        ends = np.cumsum(self._counts)
        u = int(np.searchsorted(ends, i, side="right"))
        c, a = self._comps[self._owner[u]], int(self._local[u])
        b = a + 1 + i - int(ends[u]) + int(self._counts[u])
        for x in c._above[a]:  # the neighbours at or before b push it on
            if x > b:
                break
            b += 1
        self._counts[u] -= 1
        self._len -= 1
        return u, int(c.verts[b])


def _plan(g: gr.Graph, k: int, picks, exhausted: str, method: str,
          seed: int | None = None) -> RewirePlan:
    """Add up to k edges to `g`, each the next (u, v, R, B^2, Delta) that
    `picks(state)` yields for the current state. A plan cut short by the
    end of the picks warns "`exhausted` after ... plan truncated", naming
    the caller of `gtr`/`random_baseline`."""
    if k < 0:
        raise ValueError("k must be non-negative")
    state = ResistanceState(g)
    plan = RewirePlan(method=method, k=k, added=[], rtot_trajectory=[state.rtot],
                      seed=seed)
    for u, v, r, bsq, delta in itertools.islice(picks(state), k):
        state.apply_edge(u, v)
        plan.added.append(AddedEdge(u, v, r, bsq, delta))
        plan.rtot_trajectory.append(state.rtot)
    if plan.truncated:
        warnings.warn(f"{exhausted} after {len(plan.added)} of {k} edges; "
                      "plan truncated", stacklevel=3)
    return plan


def gtr(g: gr.Graph, k: int) -> RewirePlan:
    """Greedily add k edges, each maximizing B^2/(1+R) over all
    same-component non-edges. Ties break lexicographically by (u, v)."""
    return _plan(g, k, lambda state: iter(state.best_candidate, None),
                 "all components complete", "gtr")


def random_baseline(g: gr.Graph, k: int, seed: int) -> RewirePlan:
    """Add k uniformly random same-component non-edges, sequentially
    without replacement, scoring through the same state machinery."""
    def picks(state):
        rng = random.Random(seed)
        candidates = same_component_non_edges(state)
        while candidates:
            u, v = candidates.pop(rng.randrange(len(candidates)))
            yield u, v, *state.pair_scores(u, v)

    return _plan(g, k, picks, "no candidates left", "random", seed)


def rewire(g: gr.Graph, k: int, method: str = "gtr", seed: int = 0) -> RewirePlan:
    if method == "gtr":
        return gtr(g, k)
    if method == "random":
        return random_baseline(g, k, seed)
    raise ValueError(f"unknown method {method!r}")

