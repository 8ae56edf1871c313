"""Seed-selection strategies and the agent interface.

Four heuristics form the action set both parties draw from; RL agents
fire them by index, and the random agent draws one uniformly per step.

    AF  most active user: highest p_read · p_share
    BF  blocking: neighbor of an opponent-aligned node with the highest
        free degree (free neighbors of the candidate itself)
    SGF subgreedy: largest 1-to-2-hop neighborhood
    CF  highest visible degree centrality

All candidate pools exclude existing seeds of either party; planning
statistics come from the observable (possibly masked) graph. Ties break
to the lowest user id. Seeds are chosen for a lockstep batch at once:
an agent picks a strategy for every episode it plays, and
`select_seed` scores every replica's strategy on its own view in one
C call (`wave.c`'s `drim_select_seeds`). A miss is signalled by -1;
`Episode.resolve_seed` resolves it in two steps: a BF miss falls back
to SGF, and an exhausted community pool is dropped.
"""

from __future__ import annotations

import ctypes
from enum import Enum
from typing import Sequence

import numpy as np

from drim import population
from drim.network import Graph
from drim.opinion import _LIBRARY, _address
from drim.population import Party, PopulationState


class StrategyKind(Enum):
    AF = "af"
    BF = "bf"
    SGF = "sgf"
    CF = "cf"


class Scheme(Enum):
    DRIM_A = "drim-a"
    DRIM_NA = "drim-na"
    STORM = "storm"
    C_STORM = "cstorm"


_ACTION_SPACES = {
    Scheme.DRIM_A: (StrategyKind.AF, StrategyKind.BF, StrategyKind.SGF, StrategyKind.CF),
    Scheme.DRIM_NA: (StrategyKind.BF, StrategyKind.SGF, StrategyKind.CF),
    Scheme.STORM: (StrategyKind.CF, StrategyKind.BF),
    Scheme.C_STORM: (StrategyKind.CF, StrategyKind.BF),
}


def action_space(scheme: Scheme) -> tuple[StrategyKind, ...]:
    """The scheme's ordered strategy list (order fixes policy indices)."""
    return _ACTION_SPACES[scheme]


_KINDS = list(StrategyKind)  # wave.c's strategy codes are their positions here

_SELECT = _LIBRARY.drim_select_seeds
_SELECT.restype = ctypes.c_int
_SELECT.argtypes = (
    [ctypes.c_int64] * 2  # replicas, n
    + [ctypes.c_void_p, ctypes.c_int]  # kind codes, whether the party blocks true-aligned users
    + [ctypes.c_void_p] * 3  # per replica: its view's indptr and indices, its 2-hop counts
    + [ctypes.c_void_p] * 7  # b, u, a, p_read, p_share, role, pool
    + [ctypes.c_double, ctypes.c_void_p]  # the free-vacuity threshold, picks
)


def select_seed(
    kinds: Sequence[StrategyKind],
    party: Party,
    state: PopulationState,
    views: Sequence[Graph],
    pool_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per replica r, the user (an id in 0 … n-1) that strategy kinds[r]
    picks among replica r's users, or -1 where it has no candidate.

    state holds R = len(views) replicas of n users stacked, replica r's
    as r·n … r·n+n-1, and replica r plans on views[r]. pool_mask, a bool
    array over all R·n users, optionally restricts candidates
    (community-based agents). SGF reads the views' cached
    `within2_counts`. Every array is checked before C reads it.
    """
    replicas, n = len(views), views[0].n
    size = replicas * n
    if len(kinds) != replicas or state.n != size or any(view.n != n for view in views):
        raise ValueError(f"{len(kinds)} strategies and a state of {state.n} users do not match "
                         f"{replicas} views of {sorted({view.n for view in views})} users")
    if pool_mask is not None and getattr(pool_mask, "dtype", None) != np.bool_:
        raise ValueError(f"pool_mask must be a bool array of {size} entries")
    csr = {id(view): (_address(view.indptr, np.int64, n + 1, "indptr"),  # once per view
                      _address(view.indices, np.int64, int(view.indptr[-1]), "indices"))
           for view in {id(view): view for view in views}.values()}
    pointers = [(*csr[id(view)], _address(view.within2_counts(), np.int64, n, "2-hop counts")
                 if kind is StrategyKind.SGF else None) for kind, view in zip(kinds, views)]
    indptrs, indices, within2 = ((ctypes.c_void_p * replicas)(*column) for column in zip(*pointers))
    arrays = [
        *(_address(getattr(state, name), np.float64, size, name)
          for name in ("b", "u", "a", "p_read", "p_share")),
        _address(state.role, np.int8, size, "role"),
        None if pool_mask is None else _address(pool_mask, np.bool_, size, "pool_mask"),
    ]
    codes = (ctypes.c_int32 * replicas)(*map(_KINDS.index, kinds))
    picks = np.empty(replicas, dtype=np.int64)
    if _SELECT(replicas, n, codes, party is Party.FALSE_PARTY, indptrs, indices, within2,
               *arrays, population.FREE_VACUITY_THRESHOLD, picks.ctypes.data):
        raise MemoryError("seed selection could not allocate its scratch array")
    return picks


class Agent:
    """Picks a strategy for each episode of a batch it plays, each step;
    the driver resolves them to seeds. No agent's choice depends on the
    party it plays, so it is not told which."""

    def select(self, episodes: Sequence) -> list[StrategyKind]:
        raise NotImplementedError

    def pool(self, episode) -> np.ndarray | None:
        return None


class FixedStrategyAgent(Agent):
    def __init__(self, kind: StrategyKind):
        self.kind = kind

    def select(self, episodes: Sequence) -> list[StrategyKind]:
        return [self.kind] * len(episodes)


class RandomStrategyAgent(Agent):
    """Draws one of DRIM-A's four strategies uniformly per episode and step."""

    def select(self, episodes: Sequence) -> list[StrategyKind]:
        kinds = _ACTION_SPACES[Scheme.DRIM_A]
        return [kinds[int(ep.rng.integers(len(kinds)))] for ep in episodes]


def make_heuristic_agent(name: str) -> Agent:
    """Agent factory for the CLI strategy names: af, bf, sgf, cf, random."""
    if name == "random":
        return RandomStrategyAgent()
    return FixedStrategyAgent(StrategyKind(name))
