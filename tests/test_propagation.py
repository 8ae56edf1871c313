"""Cascade waves, round scheduling, state extraction, and rewards.

The wave oracle recomputes expected opinions by applying the scalar
reference operators (`reference_wave`) step by step in the test,
independent of the engine's BFS bookkeeping and of its C operators.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from reference_wave import fuse, trust_coefficient

from drim.datasets import load_urv_email
from drim.network import Graph, full_view
from drim.opinion import NOM, UOM, Opinion, opinion_from_evidence
from drim.population import (
    TIP_EVIDENCE,
    Party,
    decided_influence_counts,
    free_mask,
    init_population,
    promote_seed,
)
from drim.propagation import (
    Episode,
    EpisodeConfig,
    extract_state,
    normalized_states,
    propagate_wave,
    run_episode,
    run_lockstep,
)
from drim.strategies import FixedStrategyAgent, RandomStrategyAgent, StrategyKind

TOL = 1e-9


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class PoolAgent(FixedStrategyAgent):
    """A fixed strategy restricted to one user."""

    def __init__(self, kind: StrategyKind, user: int):
        super().__init__(kind)
        self.user = user

    def pool(self, episode):
        return np.arange(episode.pop.n) == self.user


def all_on_population(n, seed=0):
    state = init_population(n, rng_seed=seed)
    state.p_read[:] = 1.0
    state.p_share[:] = 1.0
    return state


class TestPropagateWave:
    def test_path_cascade_matches_fusion_oracle(self):
        g = path_graph(3)
        state = all_on_population(3)
        fresh = Opinion(*state.bdua[:, 1])
        promote_seed(state, 0, Party.TRUE_PARTY)
        tip = Opinion(*state.bdua[:, 0])

        # oracle: b updates from the tip, then c updates from the updated b
        expect_1 = fuse(fresh, tip, trust_coefficient(NOM, fresh, tip))
        expect_2 = fuse(fresh, expect_1, trust_coefficient(NOM, fresh, expect_1))

        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        got_1 = Opinion(*state.bdua[:, 1])
        got_2 = Opinion(*state.bdua[:, 2])
        for got, expect in ((got_1, expect_1), (got_2, expect_2)):
            for x, y in zip(got, expect):
                assert x == pytest.approx(y, abs=TOL)
        assert got_1.u < fresh.u
        assert got_2.u < fresh.u

    def test_no_readers_no_change(self):
        g = path_graph(4)
        state = init_population(4, rng_seed=0)
        state.p_read[:] = 0.0
        promote_seed(state, 0, Party.TRUE_PARTY)
        before = state.b.copy(), state.d.copy(), state.u.copy()
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        assert np.array_equal(state.b[1:], before[0][1:])
        assert np.array_equal(state.u[1:], before[2][1:])

    def test_isolated_seed_no_change(self):
        g = Graph(3, [(1, 2)])
        state = all_on_population(3)
        promote_seed(state, 0, Party.TRUE_PARTY)
        before = state.u.copy()
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        assert np.array_equal(state.u[1:], before[1:])

    def test_no_seed_is_noop(self):
        g = path_graph(3)
        state = all_on_population(3)
        before = state.u.copy()
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        assert np.array_equal(state.u, before)

    def test_wave_covers_exactly_the_seed_component(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        state = all_on_population(6)
        promote_seed(state, 0, Party.TRUE_PARTY)
        fresh_u = state.u[3]
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        assert state.u[1] < fresh_u and state.u[2] < fresh_u
        assert state.u[3] == fresh_u and state.u[4] == fresh_u and state.u[5] == fresh_u

    def test_opponent_seeds_do_not_update_or_forward(self):
        g = path_graph(3)
        state = all_on_population(3)
        promote_seed(state, 0, Party.TRUE_PARTY)
        promote_seed(state, 1, Party.FALSE_PARTY)
        fip_before = Opinion(*state.bdua[:, 1])
        fresh_u = state.u[2]
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        assert Opinion(*state.bdua[:, 1]) == fip_before
        assert state.u[2] == fresh_u  # the wave stops at the inert opponent seed

    def test_frozen_users_keep_opinions_but_can_forward(self):
        g = path_graph(3)
        state = all_on_population(3)
        promote_seed(state, 0, Party.TRUE_PARTY)
        state.frozen[1] = True
        frozen_before = Opinion(*state.bdua[:, 1])
        fresh = Opinion(*state.bdua[:, 2])
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        assert Opinion(*state.bdua[:, 1]) == frozen_before
        # node 2 received node 1's (unchanged) fresh-ish opinion
        expect = fuse(fresh, frozen_before, trust_coefficient(NOM, fresh, frozen_before))
        for x, y in zip(Opinion(*state.bdua[:, 2]), expect):
            assert x == pytest.approx(y, abs=TOL)

    def test_multi_sender_fusion_in_ascending_order(self):
        # both 0 and 1 are seeds adjacent to 2
        g = Graph(3, [(0, 2), (1, 2)])
        state = all_on_population(3)
        promote_seed(state, 1, Party.TRUE_PARTY)
        fresh = Opinion(*state.bdua[:, 2])
        promote_seed(state, 0, Party.TRUE_PARTY)
        tip = Opinion(*state.bdua[:, 0])
        expect = fuse(fresh, tip, trust_coefficient(NOM, fresh, tip))
        expect = fuse(expect, tip, trust_coefficient(NOM, expect, tip))
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        for x, y in zip(Opinion(*state.bdua[:, 2]), expect):
            assert x == pytest.approx(y, abs=TOL)

    def test_wave_processes_each_user_once(self):
        # cycle: both BFS arms meet; the meeting node still reads once
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        state = all_on_population(4)
        promote_seed(state, 0, Party.TRUE_PARTY)
        tip = Opinion(*state.bdua[:, 0])
        fresh = Opinion(*state.bdua[:, 2])
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (np.random.default_rng(0),))
        # node 2 is reached by senders 1 and 3 in one layer: two fusions, one read
        op1 = fuse(fresh, tip, trust_coefficient(NOM, fresh, tip))
        got = Opinion(*state.bdua[:, 2])
        assert got.u < op1.u  # more than one fusion happened

    def test_free_nodes_shrink_monotonically_under_fusion_only_models(self):
        g = load_urv_email()
        cfg = EpisodeConfig(k=10, opinion_model=NOM, rng_seed=5)
        counts = []

        class CountingAgent(FixedStrategyAgent):
            """The false party moves first, so it sees every round's start."""

            def select(self, episodes):
                (episode,) = episodes
                counts.append(int(np.count_nonzero(free_mask(episode.pop))))
                return super().select(episodes)

        tp, fp = FixedStrategyAgent(StrategyKind.CF), CountingAgent(StrategyKind.SGF)
        ep = run_episode(g, cfg, tp, fp)
        counts.append(int(np.count_nonzero(free_mask(ep.pop))))
        assert len(counts) == cfg.k + 1
        assert all(b <= a for a, b in zip(counts, counts[1:]))


class TestRoundSchedule:
    def test_false_party_moves_first(self):
        g = path_graph(6)
        cfg = EpisodeConfig(k=1, opinion_model=NOM, rng_seed=0)
        ep = run_episode(g, cfg, FixedStrategyAgent(StrategyKind.CF),
                         FixedStrategyAgent(StrategyKind.CF))
        assert ep.logs[0].party is Party.FALSE_PARTY
        assert ep.logs[1].party is Party.TRUE_PARTY
        assert len(ep.logs) == 2

    def test_episode_seed_counts(self):
        g = load_urv_email()
        cfg = EpisodeConfig(k=50, opinion_model=UOM, rng_seed=1)
        ep = run_episode(g, cfg, RandomStrategyAgent(), RandomStrategyAgent())
        assert len(ep.pop.seed_ids(Party.TRUE_PARTY)) == 50
        assert len(ep.pop.seed_ids(Party.FALSE_PARTY)) == 50
        assert len(ep.logs) == 100

    def test_seed_sets_disjoint_no_duplicates(self):
        g = load_urv_email()
        cfg = EpisodeConfig(k=25, opinion_model=UOM, rng_seed=3)
        ep = run_episode(g, cfg, RandomStrategyAgent(), RandomStrategyAgent())
        seeds = [e.seed for e in ep.logs]
        assert len(seeds) == len(set(seeds))
        tp = set(ep.pop.seed_ids(Party.TRUE_PARTY).tolist())
        fp = set(ep.pop.seed_ids(Party.FALSE_PARTY).tolist())
        assert not (tp & fp)

    def test_wave_budget_applied_per_party(self):
        # p_t=2 must fuse the seed's opinion twice into its neighbor; the
        # false party seeds the isolated user 2, so its wave reaches no one
        g = Graph(3, [(0, 1)])
        cfg = EpisodeConfig(k=1, p_t=2, p_f=1, opinion_model=NOM, rng_seed=0)
        ep = Episode(g, cfg)
        ep.pop.p_read[:] = 1.0
        ep.pop.p_share[:] = 1.0
        fresh = Opinion(*ep.pop.bdua[:, 1])
        tip = opinion_from_evidence(TIP_EVIDENCE, 1.0)
        once = fuse(fresh, tip, trust_coefficient(NOM, fresh, tip))
        twice = fuse(once, tip, trust_coefficient(NOM, once, tip))
        run_lockstep([ep], [(FixedStrategyAgent(StrategyKind.CF), PoolAgent(StrategyKind.CF, 2))])
        assert [e.seed for e in ep.logs] == [2, 0]
        got = Opinion(*ep.pop.bdua[:, 1])
        for x, y in zip(got, twice):
            assert x == pytest.approx(y, abs=TOL)

    def test_determinism(self):
        g = load_urv_email()
        cfg = EpisodeConfig(k=8, opinion_model=UOM, rng_seed=11, p_nv=0.7)
        a = run_episode(g, cfg, RandomStrategyAgent(), FixedStrategyAgent(StrategyKind.BF))
        b = run_episode(g, cfg, RandomStrategyAgent(), FixedStrategyAgent(StrategyKind.BF))
        assert a.logs == b.logs
        assert np.array_equal(a.pop.u, b.pop.u)

    def test_fallback_when_strategy_has_no_candidate(self):
        # BF has no opponent-aligned nodes at the very first step
        g = path_graph(8)
        cfg = EpisodeConfig(k=1, opinion_model=NOM, rng_seed=0)
        ep = run_episode(g, cfg, FixedStrategyAgent(StrategyKind.CF),
                         FixedStrategyAgent(StrategyKind.BF))
        entry = ep.logs[0]
        assert entry.party is Party.FALSE_PARTY
        assert entry.strategy == "sgf"

    def test_exhausted_pool_retries_unrestricted(self):
        # Users 6 and 7 are isolated beside the path 0-...-5. Each party's
        # pool is one isolated user, seeded in round 1, so in round 2 its
        # strategy picks again among all users. The true party's CF then
        # takes the first degree-2 user left. The false party's BF has no
        # candidate in either round (its only opponent-aligned user is the
        # isolated true seed), so it falls back to SGF both times: in its
        # pool in round 1, and on the largest 2-hop count (user 2) in round 2.
        g = Graph(8, [(i, i + 1) for i in range(5)])
        cfg = EpisodeConfig(k=2, opinion_model=NOM, rng_seed=0)
        ep = run_episode(g, cfg, PoolAgent(StrategyKind.CF, 6), PoolAgent(StrategyKind.BF, 7))
        assert [(e.party, e.seed, e.strategy) for e in ep.logs] == [
            (Party.FALSE_PARTY, 7, "sgf"), (Party.TRUE_PARTY, 6, "cf"),
            (Party.FALSE_PARTY, 2, "sgf"), (Party.TRUE_PARTY, 1, "cf"),
        ]


class TestExtractState:
    def test_urv_all_free(self):
        g = load_urv_email()
        state = init_population(g.n, rng_seed=0)
        assert extract_state(free_mask(state), [g]).tolist() == [[5452, 71]]

    def test_no_free_nodes(self):
        g = path_graph(3)
        state = init_population(3, rng_seed=0)
        state.u[:] = 0.0
        state.b[:] = 1.0
        assert extract_state(free_mask(state), [g]).tolist() == [[0, 0]]

    def test_triangle_partial_free(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        state = init_population(3, rng_seed=0)
        state.u[2] = 0.1
        state.b[2] = 0.9
        assert extract_state(free_mask(state), [g]).tolist() == [[1, 2]]

    def test_normalized_state_starts_at_unity(self):
        g = load_urv_email()
        ep = Episode(g, EpisodeConfig(k=1, rng_seed=0))
        assert normalized_states([ep]).tolist() == [[1.0, 1.0]]


def edgeless_episode(n: int, k: int = 1) -> Episode:
    """No edges, so a step changes only its own seed's opinion; CF ties
    break to the lowest id, so seeds go to users 0, 1, 2, ... in turn."""
    return Episode(Graph(n, []), EpisodeConfig(k=k, opinion_model=NOM, rng_seed=0))


def run_cf(ep: Episode) -> Episode:
    """Play ep to the end with CF on both sides."""
    cf = FixedStrategyAgent(StrategyKind.CF)
    return run_lockstep([ep], [(cf, cf)])[0]


class TestRewards:
    def test_false_party_first_step_boundary(self):
        # FP moves first: its t=1 reward is against the pre-game baseline n_0
        ep = run_cf(edgeless_episode(4))
        entry = ep.logs[0]
        assert (entry.t, entry.n_false) == (1, 1)
        assert entry.reward == 1.0

    def test_true_party_first_step(self):
        # TP's first step is t=2, also rewarded against n_0, not n_1
        ep = edgeless_episode(4)
        ep.pop.bdua[:, 3] = Opinion(0.8, 0.0, 0.2, 0.5)  # user 3 decided true
        run_cf(ep)  # FP seeds 0: n_T 1; TP seeds 1: n_T 2
        entry = ep.logs[1]
        assert (entry.t, [e.n_true for e in ep.logs]) == (2, [1, 2])
        assert entry.reward == 2.0

    def test_stagnant_counts(self):
        ep = edgeless_episode(4, k=2)
        ep.pop.bdua[:, 1] = Opinion(0.0, 0.8, 0.2, 0.5)  # user 1 decided false
        # FP seeds 0: n_F 2; TP seeds 1: n_F 1; FP seeds 2: n_F 2; TP seeds 3
        run_cf(ep)
        entry = ep.logs[2]
        # net change since FP's own previous step (t=1), not since t=2
        assert [e.n_false for e in ep.logs[:3]] == [2, 1, 2]
        assert entry.reward == 0.0

    def test_reward_telescoping_over_episode(self):
        g = load_urv_email()
        cfg = EpisodeConfig(k=12, opinion_model=UOM, rng_seed=2)
        ep = run_episode(g, cfg, RandomStrategyAgent(), RandomStrategyAgent())
        # each party's rewards telescope to the count at its own last step
        for party, last in (
            (Party.TRUE_PARTY, ep.logs[-1].n_true),
            (Party.FALSE_PARTY, ep.logs[-2].n_false),
        ):
            rewards = [e.reward for e in ep.logs if e.party is party]
            assert sum(rewards) == pytest.approx(last)

    def test_logged_counts_are_decided_counts(self):
        g = load_urv_email()
        cfg = EpisodeConfig(k=5, opinion_model=UOM, rng_seed=9)
        ep = run_episode(g, cfg, RandomStrategyAgent(), RandomStrategyAgent())
        (nt, nf), = decided_influence_counts(ep.pop).tolist()
        assert ep.logs[-1].n_true == nt
        assert ep.logs[-1].n_false == nf
        metrics = ep.final_metrics()
        assert (metrics["decided_n_true"], metrics["decided_n_false"]) == (nt, nf)
        assert metrics["n_true"] + metrics["n_false"] == g.n
        assert all(type(value) is int for value in metrics.values())
        assert all(type(entry.reward) is int for entry in ep.logs)


class TestEpisodeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(k=0)
        with pytest.raises(ValueError):
            EpisodeConfig(p_t=0)
        for name in ("k", "p_t", "p_f"):
            for value in (2.5, 2.0, True):
                with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                    EpisodeConfig(**{name: value})
        assert EpisodeConfig(k=np.int64(3)).k == 3

    def test_with_seed(self):
        cfg = EpisodeConfig(k=3, rng_seed=1)
        assert cfg.with_seed(9).rng_seed == 9
        assert cfg.with_seed(9).k == 3

    def test_episode_rejects_more_seeds_than_users(self):
        ring = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(ValueError, match=r"k=3 .* n=5"):
            Episode(ring, EpisodeConfig(k=3))
        Episode(Graph(6, [(i, (i + 1) % 6) for i in range(6)]), EpisodeConfig(k=3))


class TestFreshEpisode:
    """What `Episode` takes for granted instead of counting: a fresh user's
    vacuity is 101/103, so every user starts free and none decided."""

    @pytest.mark.parametrize("prior_a", [0.0, 0.5, 1.0])
    def test_every_user_free_and_none_decided(self, prior_a):
        ep = Episode(load_urv_email(), EpisodeConfig(prior_a=prior_a, rng_seed=3))
        assert free_mask(ep.pop).all()
        assert decided_influence_counts(ep.pop).tolist() == [[0, 0]]
        assert ep.logs == []
        metrics = ep.final_metrics()
        assert (metrics["decided_n_true"], metrics["decided_n_false"]) == (0, 0)

    @pytest.mark.parametrize("p_nv", [1.0, 0.6])
    def test_state_norm_is_the_views_edges_and_largest_degree(self, p_nv):
        ep = Episode(load_urv_email(), EpisodeConfig(p_nv=p_nv, rng_seed=3))
        view = (ep.obs.num_edges, int(ep.obs.degrees().max()))
        assert ep.state_norm.tolist() == list(view)
        assert extract_state(free_mask(ep.pop), [ep.obs]).tolist() == [list(view)]


class TestEpisodeView:
    def test_episodes_share_the_full_view_and_mask_below_it(self):
        g = path_graph(6)
        cfgs = [EpisodeConfig(k=1, rng_seed=seed) for seed in (0, 1)]
        assert all(Episode(g, cfg).obs is full_view(g) for cfg in cfgs)
        masked = [Episode(g, replace(cfg, p_nv=0.5)).obs for cfg in cfgs]
        assert all(ov is not full_view(g) for ov in masked) and masked[0] is not masked[1]
