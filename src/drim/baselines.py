"""STORM and C-STORM agents adapted to the shared environment.

Both reuse the PPO shell and the free-node definition (vacuity >= 0.5).
STORM's action space collapses to {CF, BF}: max-weight and max-degree
coincide on an unweighted graph, and the blocking action is kept. C-STORM
adds a community step: spectral communities are computed once per episode
on the observable graph, and before each selection the candidate pool is
restricted to the community currently holding the most free nodes.
Building a C-STORM agent is what loads scipy into a drim process.
"""

from __future__ import annotations

import numpy as np

from drim.network import spectral_communities
from drim.population import Party, free_mask
from drim.propagation import Episode
from drim.strategies import Agent, Scheme, StrategyKind, action_space

DEFAULT_COMMUNITIES = 8


class CommunityRestriction:
    """Per-episode spectral communities plus the best-community pool."""

    def __init__(self, k: int = DEFAULT_COMMUNITIES):
        if k < 1:
            raise ValueError("community count must be >= 1")
        # Load spectral_communities' scipy modules here: C-STORM agents are
        # built in the parent, so forked pool workers inherit them instead
        # of each importing them again.
        import scipy.cluster.vq  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        self.k = k
        self.labels: np.ndarray | None = None

    def begin_episode(self, episode: Episode, party: Party) -> None:
        k = min(self.k, episode.graph.n)
        self.labels = spectral_communities(episode.obs, k,
                                           np.random.default_rng(episode.community_seed))

    def pool(self, episode: Episode) -> np.ndarray:
        assert self.labels is not None, "begin_episode not called"
        counts = np.bincount(self.labels[free_mask(episode.pop)], minlength=self.labels.max() + 1)
        best = int(np.argmax(counts))
        return self.labels == best


class CommunityAgent(Agent):
    """Wrap any agent with the C-STORM community pool restriction."""

    def __init__(self, inner: Agent, restriction: CommunityRestriction):
        self.inner = inner
        self.restriction = restriction
        self.name = inner.name

    def begin_episode(self, episode: Episode, party: Party) -> None:
        self.inner.begin_episode(episode, party)
        self.restriction.begin_episode(episode, party)

    def select(self, episode: Episode, party: Party) -> StrategyKind:
        return self.inner.select(episode, party)

    def candidate_pool(self, episode: Episode, party: Party) -> np.ndarray | None:
        return self.restriction.pool(episode)


def scheme_agent(scheme: Scheme, agent: Agent, communities: int = DEFAULT_COMMUNITIES) -> Agent:
    """agent as the scheme plays it: C-STORM restricts it to the best community."""
    if scheme is Scheme.C_STORM:
        return CommunityAgent(agent, CommunityRestriction(communities))
    return agent


def make_scheme_agent(scheme: Scheme, params, communities: int = DEFAULT_COMMUNITIES) -> Agent:
    """Evaluation agent for any scheme from trained parameters."""
    from drim.rl import PolicyAgent

    return scheme_agent(scheme, PolicyAgent(params, action_space(scheme)), communities)
