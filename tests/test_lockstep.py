"""Lockstep replica batching against solo episodes.

Oracle: a replica run by `run_lockstep` beside R - 1 others must end
exactly as the same episode run alone (`run_episode`, the R = 1 case
of the same driver): equal opinions, latches, roles, generator state,
wave counters and round logs. The harness built on it must write the
same result CSVs at any worker count. Each batched piece of a party
turn (the stacked policy forward, observations, seed scores and
decided counts) must equal its per-episode value computed the way the
per-episode driver did, and a turn is one kernel call.
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

from drim import baselines, harness, network, propagation, rl
from drim.baselines import CommunityRestriction
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
    Role,
    decided_influence_counts,
    free_mask,
    init_population,
    stack_populations,
)
from drim.propagation import (
    Episode,
    EpisodeConfig,
    normalized_states,
    run_episode,
    run_lockstep,
)
from drim.rl import PolicyAgent, make_scheme_agent
from drim.strategies import (
    RandomStrategyAgent,
    Scheme,
    StrategyKind,
    action_space,
    make_heuristic_agent,
    select_seed,
)

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


def _agents(fp: str) -> tuple:
    """A random TP agent and a heuristic FP agent, to play every episode of a batch."""
    return RandomStrategyAgent(), make_heuristic_agent(fp)


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
        batched = run_lockstep(_episodes(g, cfgs, dogmatic), *_agents(fp))
        for got, want in zip(batched, _episodes(g, cfgs, dogmatic)):
            run_lockstep([want], *_agents(fp))
            _assert_same_episode(got, want)

    def test_degenerate_fusions_are_reached(self):
        # The t_u = 0 cases with dogmatic users exercise the skipped-fusion path.
        g = Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9)])
        cfg = EpisodeConfig(k=4, opinion_model=LATCH_OFF[2])
        cfgs = [cfg.with_seed(seed) for seed in range(4)]
        batched = run_lockstep(_episodes(g, cfgs, 0.5), *_agents("cf"))
        assert sum(ep.counters.degenerate for ep in batched) > 0
        for got, want in zip(batched, _episodes(g, cfgs, 0.5)):
            run_lockstep([want], *_agents("cf"))
            _assert_same_episode(got, want)

    def test_replicas_past_sixteen_bit_ids(self):
        # 58 replicas of the bundled graph hold 65 714 users, more than
        # 16-bit ids can number.
        g = load_urv_email()
        replicas = 65_536 // g.n + 1
        assert np.min_scalar_type(replicas * g.n) == np.uint32
        cfgs = [EpisodeConfig(k=2, rng_seed=seed) for seed in range(replicas)]
        batched = run_lockstep([Episode(g, cfg) for cfg in cfgs], *_agents("cf"))
        for got, cfg in zip(batched, cfgs):
            _assert_same_episode(got, run_episode(g, cfg, *_agents("cf")))

    def test_rejects_mixed_scenarios(self):
        g = Graph(6, [(0, 1), (1, 2)])
        for other in (EpisodeConfig(k=3), EpisodeConfig(k=2, p_nv=0.6)):
            episodes = [Episode(g, EpisodeConfig(k=2)), Episode(g, other)]
            with pytest.raises(ValueError, match="scenario"):
                run_lockstep(episodes, *_agents("random"))

    def test_rejects_an_episode_that_has_played(self):
        g = Graph(8, [(i, i + 1) for i in range(7)])
        played = Episode(g, EpisodeConfig(k=2, rng_seed=3))
        run_lockstep([played], *_agents("cf"))
        logs = list(played.logs)
        fresh = Episode(g, EpisodeConfig(k=2, rng_seed=4))
        with pytest.raises(ValueError, match="episode 1 is not fresh"):
            run_lockstep([fresh, played], *_agents("cf"))
        assert played.logs == logs and not fresh.logs

    def test_rejects_an_episode_listed_twice(self):
        g = Graph(8, [(i, i + 1) for i in range(7)])
        ep = Episode(g, EpisodeConfig(k=2, rng_seed=3))
        with pytest.raises(ValueError, match="episode 2 is not fresh"):
            run_lockstep([ep, Episode(g, EpisodeConfig(k=2, rng_seed=4)), ep], *_agents("cf"))
        assert not ep.logs


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
        for s, b in ((states[0], before[0]), (states[2], before[2])):
            assert np.array_equal(s.role, b.role)  # the write stays in replica 1

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
        run_lockstep(episodes, *_agents("bf"))

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


class TestReachIsBlindToOpinions:
    """Whether a user is reached, reads or shares depends only on the
    graph, the seeds, p_read, p_share and the draws; its opinion and its
    freeze latch decide only what it fuses. So with agents that never
    read opinions (fixed AF, SGF or CF on each side), a seeded batch
    plays the same seeds, reaches and reads the same users and ends with
    the same generator state under every trust model. BF, the random
    agent (which may pick BF) and policies (whose state counts free
    users) read opinions and are out of scope. A change that lets
    opinions steer reach, such as frozen users that stop sharing, must
    change this test."""

    @pytest.mark.parametrize("p_nv", [1.0, 0.6])
    @pytest.mark.parametrize("tp, fp", [("cf", "cf"), ("af", "cf"), ("sgf", "cf"),
                                        ("cf", "sgf"), ("af", "af"), ("sgf", "af")])
    def test_seeds_reach_and_draws_match_across_trust_models(self, tp, fp, p_nv):
        g = load_urv_email()
        reach, outcome = set(), set()
        for model in (UOM, HOM, NOM, *LATCH_OFF):
            cfg = EpisodeConfig(k=10, opinion_model=model, p_nv=p_nv)
            episodes = run_lockstep([Episode(g, cfg.with_seed(seed)) for seed in (3, 11)],
                                    make_heuristic_agent(tp), make_heuristic_agent(fp))
            reach.add(tuple((tuple((e.party, e.seed, e.strategy) for e in ep.logs),
                             ep.counters.reached, ep.counters.reads,
                             str(ep.rng.bit_generator.state)) for ep in episodes))
            outcome.add(tuple((ep.counters.fusions, ep.logs[-1].n_true, ep.logs[-1].n_false)
                              for ep in episodes))
        assert len(reach) == 1
        assert len(outcome) > 1  # the models do convert differently


def _mid_game(p_nv: float, replicas: int = 4) -> list[Episode]:
    """Replicas of the bundled graph six rounds into a game, restacked."""
    g = load_urv_email()
    cfg = EpisodeConfig(k=6, opinion_model=NOM, p_nv=p_nv)
    episodes = [Episode(g, cfg.with_seed(seed)) for seed in range(replicas)]
    run_lockstep(episodes, *_agents("random"))
    return episodes


def _one_pick(kind, party, state, view, pool) -> int:
    """The per-episode selection rule, one strategy on one state: the
    best-scored eligible user, ties to the lowest id, or -1."""
    eligible = state.role == Role.LEGITIMATE.value
    if pool is not None:
        eligible = eligible & pool
    if kind is StrategyKind.AF:
        scores = state.p_read * state.p_share
    elif kind is StrategyKind.CF:
        scores = view.degrees()
    elif kind is StrategyKind.SGF:
        scores = view.within2_counts()
    else:
        pb, pd = state.projected()
        aligned = pb > 0.5 if party is Party.FALSE_PARTY else pd > 0.5
        free = free_mask(state)
        scores = np.zeros(state.n, dtype=np.int64)
        adjacent = np.zeros(state.n, dtype=bool)
        for u, v in zip(view.edge_u.tolist(), view.edge_v.tolist()):
            scores[u] += free[v]
            scores[v] += free[u]
            adjacent[u] |= aligned[v]
            adjacent[v] |= aligned[u]
        eligible = eligible & adjacent
    ids = np.flatnonzero(eligible)
    return int(ids[np.argmax(scores[ids])]) if ids.size else -1


class TestBatchedStep:
    @pytest.mark.parametrize("weights", range(5))
    def test_stacked_forward_matches_one_state_forward_bit_for_bit(self, weights):
        rng = np.random.default_rng(weights)
        params = rl.init_params(4, 64, rng)
        for mlp in (params.actor, params.critic):  # the initial head is zero: uniform
            mlp.w3[:] = rng.normal(0.0, 1.0, mlp.w3.shape)
            mlp.b3[:] = rng.normal(0.0, 0.3, mlp.b3.shape)
        states = rng.uniform(0.0, 1.2, size=(10, 2))
        probs = rl.policy_forward(params, states)
        values = rl.value_forward(params, states)
        assert not np.allclose(probs, 0.25)
        for state, row, value in zip(states, probs, values):
            logits, _ = params.actor.forward(state.reshape(1, 2))
            assert np.array_equal(row, rl._softmax(logits)[0])
            assert np.array_equal(row, rl.policy_forward(params, [state])[0])
            assert value == params.critic.forward(state.reshape(1, 2))[0][0, 0]

    @pytest.mark.parametrize("p_nv", [1.0, 0.6])
    def test_batched_observations_match_per_episode(self, p_nv):
        episodes = _mid_game(p_nv)
        got = normalized_states(episodes)
        for ep, row in zip(episodes, got):
            free = free_mask(ep.pop)
            edges = np.count_nonzero(free[ep.obs.edge_u] & free[ep.obs.edge_v])
            max_deg = int(ep.obs.degrees()[free].max()) if free.any() else 0
            start = ep.state_norm.tolist()
            assert row.tolist() == [edges / start[0], max_deg / start[1]]

    @pytest.mark.parametrize("p_nv", [1.0, 0.6])
    @pytest.mark.parametrize("party", list(Party))
    @pytest.mark.parametrize("pooled", [False, True])
    def test_batched_seed_scores_match_per_episode(self, p_nv, party, pooled):
        episodes = _mid_game(p_nv, replicas=5)
        pools = [None] * len(episodes)
        if pooled:  # C-STORM's pools: each replica's best community of its own view
            cstorm = make_scheme_agent(Scheme.C_STORM, rl.init_params(2, 8, 0))
            pools = [cstorm.pool(ep) for ep in episodes]
            pools[1] = None  # a replica whose stacked pool admits every user
        n = episodes[0].graph.n
        stacked_pool = (np.concatenate([np.ones(n, dtype=bool) if p is None else p for p in pools])
                        if pooled else None)
        pop = stack_populations([ep.pop for ep in episodes])
        views = [ep.obs for ep in episodes]
        kinds = list(StrategyKind)
        for shift in range(len(kinds)):  # every kind in every replica, mixed in each call
            chosen = [kinds[(r + shift) % len(kinds)] for r in range(len(episodes))]
            got = select_seed(chosen, party, pop, views, stacked_pool).tolist()
            want = [_one_pick(kind, party, ep.pop, ep.obs, pool)
                    for kind, ep, pool in zip(chosen, episodes, pools)]
            assert got == want

    def test_a_replica_without_candidates_falls_back_alone(self):
        # At the first step no user leans true, so the false party's BF has
        # no candidate in any replica; CF beside it still picks.
        g = load_urv_email()
        episodes = [Episode(g, EpisodeConfig(k=2, rng_seed=seed)) for seed in range(3)]
        pop = stack_populations([ep.pop for ep in episodes])
        views = [ep.obs for ep in episodes]
        kinds = [StrategyKind.BF, StrategyKind.CF, StrategyKind.BF]
        picks = select_seed(kinds, Party.FALSE_PARTY, pop, views).tolist()
        assert picks[0] == picks[2] == -1 and picks[1] >= 0
        fired = [ep.resolve_seed(kind, Party.FALSE_PARTY, None, pick)
                 for ep, kind, pick in zip(episodes, kinds, picks)]
        sgf = int(np.argmax(g.within2_counts()))
        assert fired == [("sgf", sgf), ("cf", picks[1]), ("sgf", sgf)]

    def test_decided_counts_per_replica(self):
        episodes = _mid_game(0.6)
        pop = stack_populations([ep.pop for ep in episodes])
        got = decided_influence_counts(pop, len(episodes)).tolist()
        for ep, row in zip(episodes, got):
            pb, _ = ep.pop.projected()
            decided = ep.pop.u < 0.5
            assert row == [np.count_nonzero(decided & (pb >= 0.5)),
                           np.count_nonzero(decided & (pb < 0.5))]
            assert row[0] == ep.logs[-1].n_true and row[1] == ep.logs[-1].n_false

    def test_one_kernel_call_per_party_turn(self, monkeypatch):
        calls = []
        real = propagation.propagate_wave

        def propagate_wave(state, g, party, model, rngs, counters=None, waves=1):
            calls.append((party, len(rngs), waves))
            return real(state, g, party, model, rngs, counters, waves)

        monkeypatch.setattr(propagation, "propagate_wave", propagate_wave)
        g = load_urv_email()
        cfg = EpisodeConfig(k=3, p_t=2, p_f=3)
        run_lockstep([Episode(g, cfg.with_seed(seed)) for seed in range(4)],
                     RandomStrategyAgent(), make_heuristic_agent("cf"))
        turn = [(Party.FALSE_PARTY, 4, 3), (Party.TRUE_PARTY, 4, 2)]
        assert calls == turn * cfg.k


class TestCommunityLabelsPerReplica:
    def test_full_view_batch_solves_once_per_graph(self, monkeypatch):
        import scipy.sparse.linalg as linalg

        calls = []
        solve = linalg.eigsh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(linalg, "eigsh", counted)
        base = load_urv_email()
        g = Graph(base.n, np.stack([base.edge_u, base.edge_v], axis=1))  # nothing cached yet
        params = rl.init_params(len(action_space(Scheme.C_STORM)), 8, 3)
        tp_agent = CommunityRestriction(PolicyAgent(params, action_space(Scheme.C_STORM)))
        cfg = EpisodeConfig(k=3, opinion_model=NOM)
        games = [Episode(g, cfg.with_seed(seed)) for seed in range(4)]
        run_lockstep(games, tp_agent, make_heuristic_agent("random"))
        k = baselines.COMMUNITIES
        assert len(calls) == 1 and set(g._embeddings) == {k}
        for game in games:
            assert game.obs is g
            assert np.array_equal(game.communities, spectral_communities(
                g, k, np.random.default_rng(game.community_seed)))
        assert len(calls) == 1

    def test_masked_cstorm_replicas_plan_on_their_own_communities(self, monkeypatch):
        monkeypatch.setattr(baselines, "COMMUNITIES", 3)
        rng = np.random.default_rng(11)
        edges = [(i, j) for i in range(30) for j in range(i + 1, 30)
                 if (i < 15) == (j < 15) and rng.random() < 0.3]
        g = Graph(30, edges + [(0, 15)])
        params = rl.init_params(len(action_space(Scheme.C_STORM)), 8, 3)
        cfg = EpisodeConfig(k=4, opinion_model=NOM, p_nv=0.6)
        cfgs = [cfg.with_seed(seed) for seed in (5, 6, 7)]
        tp_agent = CommunityRestriction(PolicyAgent(params, action_space(Scheme.C_STORM)))
        fp_agent = make_heuristic_agent("random")
        episodes = run_lockstep([Episode(g, c) for c in cfgs], tp_agent, fp_agent)

        labels = []
        for got, c in zip(episodes, cfgs):
            want = spectral_communities(got.obs, 3, np.random.default_rng(got.community_seed))
            assert np.array_equal(got.communities, want)
            labels.append(want)
            _assert_same_episode(got, run_episode(g, c, tp_agent, fp_agent))
        # the replicas' views differ, so one set of labels could not serve all three
        assert not all(np.array_equal(labels[0], other) for other in labels[1:])


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
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            harness.run_grid(replace(spec, out_dir=out), workers=workers)
            outs[workers] = out
            timings = [line.split(",") for line in
                       (out / "timings.csv").read_text().splitlines()[1:]]
            assert [line[5] for line in timings] == ["0", "1", "2", "3", "4"]
            batches = np.array_split(np.arange(5), workers)
            assert [int(line[7]) for line in timings] == [
                b for b, runs in enumerate(batches) for _ in runs]
        for name in ("results.csv", "raw_runs.csv", "counters.csv"):
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes() \
                == (outs[3] / name).read_bytes(), name

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
        spec = harness.ExperimentSpec(out_dir=tmp_path / "out", runs=2, k=3, auto_train=False)
        tp_path, _ = harness.policy_paths(spec, spec.scheme, spec.fp_strategy)
        with pytest.raises(harness.MissingPolicy, match=tp_path.name):
            harness.run_grid(spec, graph=ring, workers=1)
        assert not tp_path.exists()
        assert not spec.out_dir.exists()

    def test_caller_graph_with_auto_train_on_is_value_error(self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("loaded a graph or trained a policy")

        monkeypatch.setattr(harness, "train_policy", no_work)
        monkeypatch.setattr(harness, "load_graph", no_work)
        ring = Graph(30, [(i, (i + 1) % 30) for i in range(30)])
        spec = harness.ExperimentSpec(out_dir=tmp_path / "out", policy_dir=tmp_path / "pol",
                                      runs=2, k=3)
        with pytest.raises(ValueError, match="^policies are keyed by the spec's dataset, so a "
                                             "graph passed to run_grid needs auto_train=False$"):
            harness.run_grid(spec, graph=ring, workers=1)
        assert not spec.out_dir.exists() and not spec.policy_dir.exists()

    def test_caller_graph_with_policies_in_place_evaluates(self, tmp_path):
        ring = Graph(30, [(i, (i + 1) % 30) for i in range(30)])
        spec = _seeded_spec(tmp_path, runs=2, k=3)
        rows = harness.run_grid(spec, graph=ring, workers=1)
        assert rows[0].mean_n_true + rows[0].mean_n_false == 30
