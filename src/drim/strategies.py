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
`select_seed` scores each strategy once over the stacked population
and planning views of the replicas that chose it. A miss is signalled
by -1; `Episode.resolve_seed` resolves it in two steps: a BF miss falls
back to SGF, and an exhausted community pool is dropped.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from drim.network import Graph, neighbor_sums
from drim.population import Party, PopulationState, Role, free_mask


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


# A free neighbor weighs 2**_FREE_BIT in BF's neighbor sums: more than
# any user's aligned neighbors together, and every sum stays exact in a
# float64.
_FREE_BIT = 32


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
    as r·n … r·n+n-1, and replica r plans on views[r]. Each kind is
    scored once, on the stacked arrays of all the replicas that chose
    it. pool_mask, over all R·n users, optionally restricts candidates
    (community-based agents).
    """
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
