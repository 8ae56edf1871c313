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
to the lowest user id. An empty pool is signalled by returning None; the
episode driver owns the fallback chain.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from drim.network import Graph, free_degrees
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


def _masked_lowest_argmax(scores: np.ndarray, eligible: np.ndarray) -> int | None:
    """Argmax over eligible entries, ties to the lowest index."""
    if not np.any(eligible):
        return None
    masked = np.where(eligible, scores.astype(float), -1.0)
    best = int(np.argmax(masked))
    if masked[best] < 0.0:
        return None
    return best


def select_seed(
    kind: StrategyKind,
    party: Party,
    state: PopulationState,
    g_observable: Graph,
    pool_mask: np.ndarray | None = None,
) -> int | None:
    """Pick a seed user by the given strategy, or None if no candidate.

    pool_mask optionally restricts candidates (community-based agents).
    """
    eligible = state.role == Role.LEGITIMATE.value
    if pool_mask is not None:
        eligible = eligible & pool_mask

    if kind is StrategyKind.AF:
        return _masked_lowest_argmax(state.p_read * state.p_share, eligible)

    if kind is StrategyKind.CF:
        return _masked_lowest_argmax(g_observable.degrees(), eligible)

    if kind is StrategyKind.SGF:
        return _masked_lowest_argmax(g_observable.within2_counts(), eligible)

    # BF: candidates adjacent to opponent-aligned users, strict projection.
    pb, pd = state.projected()
    aligned = pb > 0.5 if party is Party.FALSE_PARTY else pd > 0.5
    if not np.any(aligned):
        return None
    eu, ev = g_observable.edge_u, g_observable.edge_v
    adjacent = np.zeros(state.n, dtype=bool)
    adjacent[ev[aligned[eu]]] = True
    adjacent[eu[aligned[ev]]] = True
    candidates = eligible & adjacent
    if not np.any(candidates):
        return None
    return _masked_lowest_argmax(free_degrees(g_observable, free_mask(state)), candidates)


class Agent:
    """Picks a strategy each step; the episode resolves it to a seed."""

    def select(self, episode, party: Party) -> StrategyKind:
        raise NotImplementedError

    def candidate_pool(self, episode, party: Party) -> np.ndarray | None:
        return None


class FixedStrategyAgent(Agent):
    def __init__(self, kind: StrategyKind):
        self.kind = kind

    def select(self, episode, party: Party) -> StrategyKind:
        return self.kind


class RandomStrategyAgent(Agent):
    def __init__(self, action_set: tuple[StrategyKind, ...] | None = None):
        self.action_set = action_set or _ACTION_SPACES[Scheme.DRIM_A]

    def select(self, episode, party: Party) -> StrategyKind:
        return self.action_set[int(episode.rng.integers(len(self.action_set)))]


def make_heuristic_agent(name: str) -> Agent:
    """Agent factory for the CLI strategy names: af, bf, sgf, cf, random."""
    if name == "random":
        return RandomStrategyAgent()
    return FixedStrategyAgent(StrategyKind(name))
