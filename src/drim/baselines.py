"""STORM and C-STORM agents adapted to the shared environment.

Both reuse the PPO shell and the free-node definition (vacuity >= 0.5).
STORM's action space collapses to {CF, BF}: max-weight and max-degree
coincide on an unweighted graph, and the blocking action is kept. C-STORM
adds a community step: the view's `COMMUNITIES` spectral communities are
computed on the episode's first selection and kept on the episode
(`Episode.communities`, one label per user), and before each selection
the candidate pool is restricted to the community currently holding the
most free nodes. The view's spectral embedding is solved once and cached
on the view, so at p_nv = 1 (the view is the graph) a process solves
once per graph and each episode only runs its seeded k-means. The agent
itself keeps no per-episode state, so one serves any number of
episodes. Building a C-STORM agent is what loads scipy into a drim
process, and only the pieces of it the spectral step uses: sparse
matrices, csgraph's components and normalized Laplacian
(`scipy.sparse.csgraph`) and ARPACK (`scipy.sparse.linalg`). The k-means
step is numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from drim.network import spectral_communities
from drim.population import free_mask
from drim.propagation import Episode
from drim.strategies import Agent, Scheme, StrategyKind

COMMUNITIES = 8


class CommunityRestriction(Agent):
    """C-STORM: inner's strategy, restricted to the best of `COMMUNITIES`
    communities."""

    def __init__(self, inner: Agent):
        # Load spectral_communities' scipy modules (csgraph and ARPACK)
        # here: C-STORM agents are built in the parent, so forked pool
        # workers inherit them instead of each importing them again.
        import scipy.sparse.csgraph  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        self.inner = inner

    def select(self, episodes: Sequence[Episode]) -> list[StrategyKind]:
        return self.inner.select(episodes)

    def pool(self, episode: Episode) -> np.ndarray:
        """The community of the episode's view holding the most free nodes."""
        labels = episode.communities
        if labels is None:
            labels = episode.communities = spectral_communities(
                episode.obs, min(COMMUNITIES, episode.graph.n),
                np.random.default_rng(episode.community_seed))
        counts = np.bincount(labels[free_mask(episode.pop)], minlength=labels.max() + 1)
        best = int(np.argmax(counts))
        return labels == best


def scheme_agent(scheme: Scheme, agent: Agent) -> Agent:
    """agent as the scheme plays it: C-STORM restricts it to the best community."""
    if scheme is Scheme.C_STORM:
        return CommunityRestriction(agent)
    return agent
