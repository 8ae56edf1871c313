"""STORM / C-STORM agent adaptations."""

from __future__ import annotations

import pytest

from drim import baselines
from drim.baselines import CommunityRestriction
from drim.datasets import load_urv_email
from drim.network import Graph
from drim.opinion import NOM, UOM
from drim.propagation import Episode, EpisodeConfig, run_episode, run_lockstep
from drim.rl import PolicyAgent, init_params, make_scheme_agent
from drim.strategies import Scheme, StrategyKind, action_space, make_heuristic_agent


def cstorm_agent(params) -> CommunityRestriction:
    """A C-STORM policy agent restricted to the best of its communities."""
    return CommunityRestriction(PolicyAgent(params, action_space(Scheme.C_STORM)))


def two_triangles():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestActionSpaces:
    def test_storm_has_two_actions(self):
        assert len(action_space(Scheme.STORM)) == 2
        assert set(action_space(Scheme.STORM)) == {StrategyKind.CF, StrategyKind.BF}

    def test_agents_check_param_shape(self):
        params = init_params(4, 8, rng_seed=0)  # wrong size for STORM
        with pytest.raises(ValueError):
            make_scheme_agent(Scheme.STORM, params)


class TestCommunityRestriction:
    def test_pool_is_community_with_most_free_nodes(self, monkeypatch):
        monkeypatch.setattr(baselines, "COMMUNITIES", 2)
        g = two_triangles()
        cfg = EpisodeConfig(k=1, opinion_model=NOM, rng_seed=0)
        ep = Episode(g, cfg)
        # second triangle fully decided: no free nodes there
        for i in (3, 4, 5):
            ep.pop.u[i] = 0.1
            ep.pop.b[i] = 0.9
        restriction = CommunityRestriction(make_heuristic_agent("cf"))
        pool = restriction.pool(ep)
        assert pool[:3].all()
        assert not pool[3:].any()
        assert ep.communities.max() == 1  # the two triangles' labels live on the episode

    def test_seed_selected_inside_best_community(self, monkeypatch):
        monkeypatch.setattr(baselines, "COMMUNITIES", 2)
        g = two_triangles()
        cfg = EpisodeConfig(k=1, opinion_model=NOM, rng_seed=0)
        ep = Episode(g, cfg)
        for i in (3, 4, 5):
            ep.pop.u[i] = 0.1
            ep.pop.b[i] = 0.9
        params = init_params(2, 8, rng_seed=1)
        agent = cstorm_agent(params)
        # BF for the false party blocks next to the decided-true triangle
        run_lockstep([ep], agent, make_heuristic_agent("bf"))
        fp_entry, entry = ep.logs
        assert fp_entry.seed in (3, 4, 5)
        assert entry.seed in (0, 1, 2)


class TestCstormReducesToStorm:
    def test_single_community_matches_storm_selections(self, monkeypatch):
        monkeypatch.setattr(baselines, "COMMUNITIES", 1)
        g = load_urv_email()
        cfg = EpisodeConfig(k=6, opinion_model=UOM, rng_seed=21)
        params = init_params(2, 16, rng_seed=2)
        fp = make_heuristic_agent("cf")

        storm_ep = run_episode(g, cfg, make_scheme_agent(Scheme.STORM, params), fp)
        cstorm_ep = run_episode(g, cfg, cstorm_agent(params), fp)
        assert [e.seed for e in storm_ep.logs] == [e.seed for e in cstorm_ep.logs]
        assert [e.strategy for e in storm_ep.logs] == [e.strategy for e in cstorm_ep.logs]


class TestDeterminism:
    def test_cstorm_reproducible(self, monkeypatch):
        monkeypatch.setattr(baselines, "COMMUNITIES", 4)
        g = load_urv_email()
        cfg = EpisodeConfig(k=4, opinion_model=UOM, rng_seed=9)
        params = init_params(2, 16, rng_seed=3)
        runs = []
        for _ in range(2):
            ep = run_episode(
                g, cfg, cstorm_agent(params),
                make_heuristic_agent("random"),
            )
            runs.append([e.seed for e in ep.logs])
        assert runs[0] == runs[1]


class TestSchemeAgentFactory:
    def test_drim_agent(self):
        params = init_params(4, 8, rng_seed=0)
        agent = make_scheme_agent(Scheme.DRIM_A, params)
        assert isinstance(agent, PolicyAgent)

    def test_cstorm_agent_wrapped(self):
        params = init_params(2, 8, rng_seed=0)
        agent = make_scheme_agent(Scheme.C_STORM, params)
        assert isinstance(agent, CommunityRestriction)
        assert isinstance(agent.inner, PolicyAgent)
