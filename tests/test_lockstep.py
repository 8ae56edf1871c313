"""Lockstep replica batching against solo episodes.

Oracle: a replica run by `run_lockstep` beside R - 1 others must end
exactly as the same episode run alone (`run_episode`, the R = 1 case
of the same driver): equal opinions, latches, roles, generator state,
wave counters and round logs. The harness built on it must write the
same result CSVs at any worker count.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_wave import SIMPLEX_TOL

from drim import harness, network, propagation, rl
from drim.baselines import CommunityRestriction, make_scheme_agent
from drim.datasets import load_urv_email
from drim.network import Graph, spectral_communities
from drim.opinion import (
    HOM,
    NOM,
    UOM,
    TrustModel,
    TrustVariant,
    opinion_from_evidence,
)
from drim.population import (
    FIP_EVIDENCE,
    TIP_EVIDENCE,
    Party,
    init_population,
    stack_populations,
)
from drim.propagation import Episode, EpisodeConfig, run_episode, run_lockstep
from drim.strategies import RandomStrategyAgent, Scheme, action_space, make_heuristic_agent

LATCH_OFF = [TrustModel(variant, t_u=0.0) for variant in TrustVariant]


def _make_dogmatic(ep: Episode, share: float) -> None:
    """Turn about `share` of the users dogmatic (u = 0), seeded by the episode."""
    rng = np.random.default_rng(ep.cfg.rng_seed + 1)
    pick = rng.random(ep.pop.n) < share
    belief = rng.random(ep.pop.n)
    ep.pop.b[pick] = belief[pick]
    ep.pop.d[pick] = 1.0 - belief[pick]
    ep.pop.u[pick] = 0.0


def _episodes(g: Graph, cfgs, dogmatic: float) -> list[Episode]:
    episodes = [Episode(g, cfg) for cfg in cfgs]
    for ep in episodes:
        _make_dogmatic(ep, dogmatic)
    return episodes


def _agents(count: int, fp: str) -> list[tuple]:
    """One (random TP, heuristic FP) pair per episode."""
    return [(RandomStrategyAgent(), make_heuristic_agent(fp)) for _ in range(count)]


def _assert_same_episode(got: Episode, want: Episode) -> None:
    assert np.array_equal(got.pop.bdua, want.pop.bdua, equal_nan=True)
    assert np.array_equal(got.pop.frozen, want.pop.frozen)
    assert np.array_equal(got.pop.role, want.pop.role)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state
    assert asdict(got.counters) == asdict(want.counters)
    assert got.logs == want.logs
    assert got.final_metrics() == want.final_metrics()


@st.composite
def lockstep_cases(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2 * k + 1, max_value=20))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, min_size=1, max_size=3 * n))
    model = draw(st.sampled_from([UOM, HOM, NOM, *LATCH_OFF]))
    replicas = draw(st.integers(min_value=1, max_value=5))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=replicas, max_size=replicas))
    p_nv = draw(st.sampled_from([1.0, 0.6]))
    fp = draw(st.sampled_from(["random", "af", "bf", "sgf", "cf"]))
    dogmatic = 0.3 if model.t_u == 0.0 else draw(st.sampled_from([0.0, 0.3]))
    return k, n, edges, model, seeds, p_nv, fp, dogmatic


class TestLockstepMatchesSolo:
    @given(lockstep_cases())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_replica_equals_its_solo_run(self, case):
        k, n, edges, model, seeds, p_nv, fp, dogmatic = case
        g = Graph(n, edges)
        cfg = EpisodeConfig(k=k, opinion_model=model, p_nv=p_nv)
        cfgs = [cfg.with_seed(seed) for seed in seeds]
        batched = run_lockstep(_episodes(g, cfgs, dogmatic), _agents(len(cfgs), fp))
        for got, want in zip(batched, _episodes(g, cfgs, dogmatic)):
            run_lockstep([want], _agents(1, fp))
            _assert_same_episode(got, want)

    def test_degenerate_fusions_are_reached(self):
        # The t_u = 0 cases with dogmatic users exercise the skipped-fusion path.
        g = Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9)])
        cfg = EpisodeConfig(k=4, opinion_model=LATCH_OFF[2])
        cfgs = [cfg.with_seed(seed) for seed in range(4)]
        batched = run_lockstep(_episodes(g, cfgs, 0.5), _agents(len(cfgs), "cf"))
        assert sum(ep.counters.degenerate for ep in batched) > 0
        for got, want in zip(batched, _episodes(g, cfgs, 0.5)):
            run_lockstep([want], _agents(1, "cf"))
            _assert_same_episode(got, want)

    def test_replicas_past_sixteen_bit_ids(self):
        # 58 replicas of the bundled graph hold 65 714 users, so each level
        # groups its pairs on uint32 keys: numpy's stable sort, not radix.
        g = load_urv_email()
        replicas = 65_536 // g.n + 1
        assert np.min_scalar_type(replicas * g.n) == np.uint32
        cfgs = [EpisodeConfig(k=2, rng_seed=seed) for seed in range(replicas)]
        batched = run_lockstep([Episode(g, cfg) for cfg in cfgs], _agents(replicas, "cf"))
        for got, cfg in zip(batched, cfgs):
            _assert_same_episode(got, run_episode(g, cfg, *_agents(1, "cf")[0]))

    def test_rejects_mixed_scenarios(self):
        g = Graph(6, [(0, 1), (1, 2)])
        episodes = [Episode(g, EpisodeConfig(k=2)), Episode(g, EpisodeConfig(k=3))]
        with pytest.raises(ValueError, match="scenario"):
            run_lockstep(episodes, _agents(2, "random"))

    def test_rejects_an_agent_pair_count_other_than_the_episode_count(self):
        g = Graph(6, [(0, 1), (1, 2)])
        episodes = [Episode(g, EpisodeConfig(k=2, rng_seed=seed)) for seed in range(2)]
        with pytest.raises(ValueError, match="1 agent pairs for 2 episodes"):
            run_lockstep(episodes, _agents(1, "random"))


class TestStacking:
    def test_stacked_state_and_replica_views_share_memory(self):
        states = [init_population(4, seed) for seed in range(3)]
        before = [copy.deepcopy(s) for s in states]
        stacked = stack_populations(states)
        assert stacked.n == 12
        for r, (s, b) in enumerate(zip(states, before)):
            assert np.array_equal(s.bdua, b.bdua) and np.array_equal(s.p_read, b.p_read)
            s.u[1] = 0.25
            s.frozen[2] = True
            assert stacked.u[4 * r + 1] == 0.25 and stacked.frozen[4 * r + 2]
        stacked.role[5] = 2
        assert states[1].role[1] == 2

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValueError):
            stack_populations([init_population(3, 0), init_population(4, 0)])

    def test_wave_rejects_a_state_of_another_size(self):
        g = Graph(4, [(0, 1), (1, 2)])
        stacked = stack_populations([init_population(4, seed) for seed in range(3)])
        rngs = [np.random.default_rng(seed) for seed in range(2)]
        with pytest.raises(ValueError, match="2 replicas of 4 users"):
            propagation.propagate_wave(stacked, g, Party.TRUE_PARTY, UOM, rngs)


class TestBatchedEpisodeInvariants:
    """The traced benchmark's per-episode invariants, on lockstep episodes."""

    def test_invariants_hold_per_replica(self, monkeypatch):
        promoted: dict[int, dict[int, tuple]] = {}
        latch_problems: list[str] = []
        last_frozen: dict[int, np.ndarray] = {}
        real_wave, real_promote = propagation.propagate_wave, propagation.promote_seed

        def promote_seed(state, user, party):
            real_promote(state, user, party)
            promoted.setdefault(id(state), {})[int(user)] = tuple(state.bdua[:, user])

        def propagate_wave(state, *args, **kwargs):
            before = state.frozen.copy()
            if id(state) in last_frozen and np.any(last_frozen[id(state)] & ~before):
                latch_problems.append("cleared between waves")
            result = real_wave(state, *args, **kwargs)
            if np.any(before & ~state.frozen):
                latch_problems.append("cleared in a wave")
            last_frozen[id(state)] = state.frozen.copy()
            return result

        monkeypatch.setattr(propagation, "promote_seed", promote_seed)
        monkeypatch.setattr(propagation, "propagate_wave", propagate_wave)
        g = load_urv_email()
        cfg = EpisodeConfig(k=6)
        episodes = [Episode(g, cfg.with_seed(seed)) for seed in range(3)]
        run_lockstep(episodes, _agents(len(episodes), "bf"))

        assert not latch_problems
        tip = opinion_from_evidence(TIP_EVIDENCE, 1.0)
        fip = opinion_from_evidence(FIP_EVIDENCE, 0.0)
        for ep in episodes:
            pop = ep.pop
            assert np.all(np.abs(pop.b + pop.d + pop.u - 1.0) <= SIMPLEX_TOL)
            assert np.all((pop.bdua >= 0.0) & (pop.bdua <= 1.0))
            seeds = {party: pop.seed_ids(party) for party in Party}
            assert all(ids.size == cfg.k for ids in seeds.values())
            recorded = promoted[id(pop)]
            assert sorted(recorded) == sorted(np.concatenate(list(seeds.values())).tolist())
            for user, op in recorded.items():
                assert tuple(pop.bdua[:, user]) == op
                assert op == (tuple(tip) if user in seeds[Party.TRUE_PARTY] else tuple(fip))
            assert np.all(pop.frozen[np.concatenate(list(seeds.values()))])


class TestCommunityLabelsPerReplica:
    def test_masked_cstorm_replicas_plan_on_their_own_communities(self, monkeypatch):
        begun: dict[int, Episode] = {}
        pooled: list[tuple[int, Episode]] = []
        real_begin, real_pool = CommunityRestriction.begin_episode, CommunityRestriction.pool

        def begin_episode(self, episode, party):
            real_begin(self, episode, party)
            begun[id(self)] = episode
            want = spectral_communities(episode.obs, min(self.k, episode.graph.n),
                                        np.random.default_rng(episode.community_seed))
            assert np.array_equal(self.labels, want)

        def pool(self, episode):
            pooled.append((id(self), episode))
            return real_pool(self, episode)

        monkeypatch.setattr(CommunityRestriction, "begin_episode", begin_episode)
        monkeypatch.setattr(CommunityRestriction, "pool", pool)
        rng = np.random.default_rng(11)
        edges = [(i, j) for i in range(30) for j in range(i + 1, 30)
                 if (i < 15) == (j < 15) and rng.random() < 0.3]
        g = Graph(30, edges + [(0, 15)])
        params = rl.init_params(len(action_space(Scheme.C_STORM)), 8, 3)
        cfg = EpisodeConfig(k=4, opinion_model=NOM, p_nv=0.6)
        cfgs = [cfg.with_seed(seed) for seed in (5, 6, 7)]
        agent = make_scheme_agent(Scheme.C_STORM, params, communities=3)
        pairs = [(copy.deepcopy(agent), make_heuristic_agent("random")) for _ in cfgs]
        episodes = run_lockstep([Episode(g, c) for c in cfgs], pairs)

        assert agent.restriction.labels is None  # the template is never used, only its copies
        assert len(begun) == 3
        assert {id(ep) for ep in begun.values()} == {id(ep) for ep in episodes}
        assert pooled and all(begun[key] is ep for key, ep in pooled)
        for got, c in zip(episodes, cfgs):
            want = run_episode(g, c, make_scheme_agent(Scheme.C_STORM, params, communities=3),
                               make_heuristic_agent("random"))
            _assert_same_episode(got, want)


def _seeded_spec(tmp_path: Path, **kw) -> harness.ExperimentSpec:
    """A spec on the bundled graph whose policy is seeded and untrained."""
    spec = harness.ExperimentSpec(out_dir=tmp_path / "out", policy_dir=tmp_path / "policies",
                                  auto_train=False, **kw)
    tp_path, _ = harness.policy_paths(spec, spec.scheme, spec.fp_strategy)
    tp_path.parent.mkdir(parents=True, exist_ok=True)
    params = rl.init_params(len(action_space(spec.scheme)), spec.ppo.hidden, 17)
    rl.save_params(params, tp_path)
    return spec


class TestPooledCells:
    def test_uneven_worker_batches_write_the_same_csvs(self, tmp_path):
        spec = _seeded_spec(tmp_path, runs=5, k=4, fp_strategy="random")
        outs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            harness.run_grid(replace(spec, out_dir=out), workers=workers)
            outs[workers] = out
        for name in ("results.csv", "raw_runs.csv", "counters.csv"):
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
        timings = (outs[2] / "timings.csv").read_text().splitlines()[1:]
        assert [line.split(",")[5] for line in timings] == ["0", "1", "2", "3", "4"]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the counting patch reaches workers only when they fork")
    def test_within2_counts_computed_once_per_worker(self, tmp_path, monkeypatch):
        log = tmp_path / "within2.log"
        real = network.Graph.within2_counts

        def within2_counts(self):
            if self._within2 is None:
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return real(self)

        monkeypatch.setattr(network.Graph, "within2_counts", within2_counts)
        spec = _seeded_spec(tmp_path, runs=6, k=3, fp_strategy="sgf")
        harness.run_grid(spec, workers=2)
        pids = log.read_text().split()
        assert pids and len(pids) == len(set(pids)) <= 2


class TestCallerGraph:
    def test_missing_policy_with_caller_graph_raises_before_training(self, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a policy")

        monkeypatch.setattr(harness, "train_policy", no_training)
        monkeypatch.setattr(harness, "load_graph", no_training)
        ring = Graph(30, [(i, (i + 1) % 30) for i in range(30)])
        spec = harness.ExperimentSpec(out_dir=tmp_path / "out", runs=2, k=3)
        tp_path, _ = harness.policy_paths(spec, spec.scheme, spec.fp_strategy)
        with pytest.raises(ValueError, match=tp_path.name):
            harness.run_grid(spec, graph=ring, workers=1)
        assert not tp_path.exists()
        assert not spec.out_dir.exists()

    def test_caller_graph_with_policies_in_place_evaluates(self, tmp_path):
        ring = Graph(30, [(i, (i + 1) % 30) for i in range(30)])
        spec = _seeded_spec(tmp_path, runs=2, k=3)
        rows = harness.run_grid(spec, graph=ring, workers=1)
        assert rows[0].mean_n_true + rows[0].mean_n_false == 30
