"""Reference implementation for the differential tests: the numpy seed scorer.

This is the body of `drim.strategies.select_seed` from before the scorer
moved into `drim/wave.c`, kept verbatim except that BF's neighbour sums
(once `drim.network.neighbor_sums`) are inlined. Each strategy is scored
once over the stacked arrays of the replicas that chose it; BF sums one
weight per neighbour along each view's edges, shifted to its replica's
users, with a free neighbour weighing 2**_FREE_BIT and an aligned one 1.
Tests run it beside `select_seed` and require equal picks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from drim.network import Graph
from drim.population import Party, PopulationState, Role, free_mask
from drim.strategies import StrategyKind

# A free neighbor weighs 2**_FREE_BIT in BF's neighbor sums: more than
# any user's aligned neighbors together, and every sum stays exact in a
# float64.
_FREE_BIT = 32


def neighbor_sums(edge_u: np.ndarray, edge_v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of weights over every node's neighbors along the edges
    (edge_u[i], edge_v[i])."""
    size = weights.size
    return (np.bincount(edge_u, weights=weights.take(edge_v), minlength=size)
            + np.bincount(edge_v, weights=weights.take(edge_u), minlength=size))


def select_seed(
    kinds: Sequence[StrategyKind],
    party: Party,
    state: PopulationState,
    views: Sequence[Graph],
    pool_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per replica r, the user that strategy kinds[r] picks among replica
    r's users, or -1 where it has no candidate."""
    replicas, n = len(views), views[0].n
    eligible = state.role == Role.LEGITIMATE.value
    if pool_mask is not None:
        eligible &= pool_mask
    eligible = eligible.reshape(replicas, n)
    rows_of: dict[StrategyKind, list[int]] = {}
    for r, kind in enumerate(kinds):
        rows_of.setdefault(kind, []).append(r)
    scores = np.empty((replicas, n))
    for kind, rows in rows_of.items():
        if kind is StrategyKind.AF:
            scores[rows] = (state.p_read * state.p_share).reshape(replicas, n)[rows]
        elif kind is StrategyKind.CF:
            scores[rows] = [views[r].degrees() for r in rows]
        elif kind is StrategyKind.SGF:
            scores[rows] = [views[r].within2_counts() for r in rows]
        else:  # BF: candidates adjacent to opponent-aligned users, strict projection
            pb, pd = state.projected()
            aligned = pb > 0.5 if party is Party.FALSE_PARTY else pd > 0.5
            # One sum over each user's neighbors counts both: its free
            # neighbors above bit _FREE_BIT, its aligned ones below it.
            mark = np.where(free_mask(state), float(1 << _FREE_BIT), 0.0) + aligned
            # the rows' views, stacked as their users are
            eu = np.concatenate([views[r].edge_u + r * n for r in rows])
            ev = np.concatenate([views[r].edge_v + r * n for r in rows])
            around = neighbor_sums(eu, ev, mark).astype(np.int64).reshape(replicas, n)[rows]
            eligible[rows] &= (around & ((1 << _FREE_BIT) - 1)) > 0
            scores[rows] = around >> _FREE_BIT
    masked = np.where(eligible, scores, -1.0)
    best = masked.argmax(axis=1)  # ties to the lowest id
    return np.where(masked[np.arange(replicas), best] < 0.0, -1, best)
