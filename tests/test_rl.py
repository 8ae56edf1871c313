"""PPO machinery: forward passes, analytic gradients, updates, discounted
returns, persistence.

`discounted_return` below is the scalar oracle for the vectorized
`discounted_returns`.
"""

from __future__ import annotations

import numpy as np
import pytest

from drim import baselines, rl
from drim.config import parse_spec_file
from drim.datasets import load_urv_email
from drim.network import Graph
from drim.opinion import NOM, UOM
from drim.population import Party
from drim.propagation import Episode, EpisodeConfig, run_lockstep
from drim.rl import (
    Batch,
    LearnerAgent,
    Matchup,
    PolicyAgent,
    PPOConfig,
    actor_loss_and_grads,
    collect_episode,
    collect_rollouts,
    critic_loss_and_grads,
    discounted_returns,
    init_params,
    load_params,
    policy_forward,
    ppo_update,
    sample_action,
    save_params,
    train_loop,
    value_forward,
)
from drim.strategies import Scheme, StrategyKind, action_space, make_heuristic_agent


def bandit_rollouts(best: int = 2):
    """Stand-in for `rl.collect_rollouts` that ignores the matchup:
    `ppo_cfg.rollout_episodes` one-step episodes in which a single action
    pays 1 and the rest pay 0."""

    def collect_rollouts(params, matchup, ppo_cfg, seed_seq):
        episodes = ppo_cfg.rollout_episodes
        rng = np.random.default_rng(seed_seq)
        state = np.ones(2)
        (probs,) = policy_forward(params, [state])
        actions = np.array([sample_action(probs, rng) for _ in range(episodes)])
        rewards = (actions == best).astype(float)
        return Batch(
            states=np.ones((episodes, 2)),
            actions=actions,
            log_probs=np.log(probs[actions]),
            returns=ppo_cfg.gamma * rewards,
            values=np.full(episodes, value_forward(params, [state])[0]),
            episode_rewards=rewards.tolist(),
        )

    return collect_rollouts


def learner_episode(cfg, party, opponent, seed=1, gamma=0.95):
    """One DRIM-A learner episode on the bundled graph against a
    heuristic opponent, through `run_lockstep` and `collect_episode`."""
    g = load_urv_email()
    params = init_params(4, 16, rng_seed=0)
    ep = Episode(g, cfg)
    learner = LearnerAgent(params, action_space(Scheme.DRIM_A), {ep: np.random.default_rng(seed)})
    opponent = make_heuristic_agent(opponent)
    agents = (learner, opponent) if party is Party.TRUE_PARTY else (opponent, learner)
    run_lockstep([ep], [agents])
    return ep, collect_episode(ep, learner, party, gamma)


def matchup(cfg, party=Party.TRUE_PARTY, opponent="random", scheme=Scheme.DRIM_A):
    g = load_urv_email()
    return Matchup(g, cfg, party, scheme, make_heuristic_agent(opponent))


def random_batch(rng, n=48, n_actions=4):
    return Batch(
        states=rng.normal(0.5, 0.4, (n, 2)),
        actions=rng.integers(0, n_actions, n),
        log_probs=np.log(rng.uniform(0.1, 0.5, n)),
        returns=rng.normal(0.0, 5.0, n),
        values=rng.normal(0.0, 5.0, n),
    )


def discounted_return(rewards, T: int, gamma: float) -> float:
    """Discounted tail sum starting at index T: sum_t gamma^(t-T+1) R_t."""
    return sum(gamma ** (offset + 1) * r for offset, r in enumerate(rewards[T:]))


class TestPolicyForward:
    def test_valid_distribution(self):
        params = init_params(4, 16, rng_seed=0)
        (probs,) = policy_forward(params, [(0.3, 0.8)])
        assert probs.shape == (4,)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs >= 0)

    def test_zero_head_gives_uniform(self):
        params = init_params(5, 16, rng_seed=0)  # head initialized to zeros
        probs = policy_forward(params, [(0.2, 0.9)])
        assert np.allclose(probs, 0.2, atol=1e-12)

    def test_deterministic(self):
        params = init_params(3, 16, rng_seed=1)
        a = policy_forward(params, [(0.4, 0.5)])
        b = policy_forward(params, [(0.4, 0.5)])
        assert np.array_equal(a, b)

    def test_rejects_non_finite_state(self):
        params = init_params(3, 16, rng_seed=1)
        with pytest.raises(ValueError):
            policy_forward(params, [(np.nan, 0.5)])

    def test_value_forward_scalar(self):
        params = init_params(3, 16, rng_seed=1)
        assert value_forward(params, [(0.5, 0.5)]).tolist() == [0.0]  # zero head


class TestGradients:
    def test_actor_matches_finite_differences(self):
        cfg = PPOConfig(hidden=8)
        h = 1e-5
        for batch_seed in range(5):
            rng = np.random.default_rng(batch_seed)
            params = init_params(4, 8, rng)
            params.actor.w3[...] += rng.normal(0, 0.3, params.actor.w3.shape)
            params.actor.b3[...] += rng.normal(0, 0.3, params.actor.b3.shape)
            batch = random_batch(rng)
            adv = batch.returns - batch.values
            adv = (adv - adv.mean()) / adv.std()
            _, grads, _, _ = actor_loss_and_grads(params, batch, adv, cfg)
            names = rl.Mlp._fields
            for _ in range(10):
                name = names[rng.integers(len(names))]
                flat = getattr(params.actor, name).reshape(-1)
                idx = int(rng.integers(flat.size))
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _, _, _ = actor_loss_and_grads(params, batch, adv, cfg)
                flat[idx] = orig - h
                lm, _, _, _ = actor_loss_and_grads(params, batch, adv, cfg)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                an = getattr(grads, name).reshape(-1)[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert rel < 1e-4, f"{name}[{idx}]: fd={fd} analytic={an}"

    def test_critic_matches_finite_differences(self):
        h = 1e-5
        for batch_seed in range(5):
            rng = np.random.default_rng(100 + batch_seed)
            params = init_params(4, 8, rng)
            params.critic.w3[...] += rng.normal(0, 0.3, params.critic.w3.shape)
            batch = random_batch(rng)
            _, grads = critic_loss_and_grads(params, batch)
            names = rl.Mlp._fields
            for _ in range(10):
                name = names[rng.integers(len(names))]
                flat = getattr(params.critic, name).reshape(-1)
                idx = int(rng.integers(flat.size))
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = critic_loss_and_grads(params, batch)
                flat[idx] = orig - h
                lm, _ = critic_loss_and_grads(params, batch)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                an = getattr(grads, name).reshape(-1)[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert rel < 1e-4, f"{name}[{idx}]: fd={fd} analytic={an}"


class TestPpoUpdate:
    def test_rewarded_action_probability_increases(self):
        params = init_params(4, 16, rng_seed=0)
        n = 16
        actions = np.array([0, 1, 2, 3] * 4)
        returns = (actions == 2).astype(float)
        batch = Batch(
            states=np.ones((n, 2)),
            actions=actions,
            log_probs=np.full(n, np.log(0.25)),
            returns=returns,
            values=np.zeros(n),
        )
        before = policy_forward(params, [(1.0, 1.0)])[0, 2]
        cfg = PPOConfig(hidden=16, epochs=10, actor_lr=0.05)
        new, diag = ppo_update(params, batch, cfg)
        after = policy_forward(new, [(1.0, 1.0)])[0, 2]
        assert after > before
        assert np.isfinite(diag.surrogate_loss)

    def test_zero_advantage_leaves_actor_unchanged(self):
        params = init_params(4, 16, rng_seed=3)
        rng = np.random.default_rng(5)
        returns = rng.normal(0, 1, 12)
        batch = Batch(
            states=rng.normal(0, 1, (12, 2)),
            actions=rng.integers(0, 4, 12),
            log_probs=np.full(12, np.log(0.25)),
            returns=returns,
            values=returns.copy(),  # advantage identically zero
        )
        cfg = PPOConfig(hidden=16, epochs=5, entropy_coef=0.0)
        new, _ = ppo_update(params, batch, cfg)
        for a, b in zip(params.actor, new.actor):
            assert np.array_equal(a, b)

    def test_entropy_term_produces_drift_when_enabled(self):
        params = init_params(4, 16, rng_seed=3)
        params.actor.b3[...] += np.array([1.0, 0.0, -1.0, 0.0])
        rng = np.random.default_rng(5)
        returns = rng.normal(0, 1, 12)
        batch = Batch(
            states=rng.normal(0, 1, (12, 2)),
            actions=rng.integers(0, 4, 12),
            log_probs=np.full(12, np.log(0.25)),
            returns=returns,
            values=returns.copy(),
        )
        cfg = PPOConfig(hidden=16, epochs=5, entropy_coef=0.05)
        new, _ = ppo_update(params, batch, cfg)
        assert not np.array_equal(params.actor.b3, new.actor.b3)

    def test_empty_batch_rejected(self):
        params = init_params(4, 16, rng_seed=0)
        batch = Batch(
            states=np.zeros((0, 2)),
            actions=np.zeros(0, dtype=np.int64),
            log_probs=np.zeros(0),
            returns=np.zeros(0),
            values=np.zeros(0),
        )
        with pytest.raises(ValueError):
            ppo_update(params, batch, PPOConfig(hidden=16))

    def test_non_finite_loss_raises(self):
        params = init_params(4, 16, rng_seed=0)
        batch = Batch(
            states=np.ones((4, 2)),
            actions=np.arange(4),
            log_probs=np.full(4, np.log(0.25)),
            returns=np.array([0.0, 1.0, np.inf, 0.0]),
            values=np.zeros(4),
        )
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError,
                                                          match="non-finite PPO loss"):
            ppo_update(params, batch, PPOConfig(hidden=16))


class TestBanditTraining:
    def test_dominant_action_learned(self, monkeypatch):
        monkeypatch.setattr(rl, "collect_rollouts", bandit_rollouts(best=2))
        cfg = PPOConfig(hidden=16, rollout_episodes=16, updates=80, epochs=40, actor_lr=0.01)
        params = init_params(4, 16, np.random.default_rng(1))
        result = train_loop(params, None, cfg, np.random.SeedSequence(2), cfg.updates)
        (probs,) = policy_forward(result.params, np.ones((1, 2)))
        assert probs[2] > 0.95

    def test_training_reproducible(self, monkeypatch):
        monkeypatch.setattr(rl, "collect_rollouts", bandit_rollouts())
        cfg = PPOConfig(hidden=8, rollout_episodes=4, updates=5, epochs=5)
        curves = []
        for _ in range(2):
            params = init_params(4, 8, np.random.default_rng(1))
            result = train_loop(params, None, cfg, np.random.SeedSequence(3), cfg.updates)
            curves.append(result.curve)
        assert len(curves[0]) == cfg.updates
        assert curves[0] == curves[1]


class TestDiscountedReturn:
    def test_single_reward(self):
        assert discounted_returns([1.0], 0.95)[0] == pytest.approx(0.95)

    def test_two_rewards(self):
        assert discounted_returns([1.0, 1.0], 0.5).tolist() == pytest.approx([0.75, 0.5])

    def test_empty_tail(self):
        assert discounted_return([1.0, 2.0], 2, 0.95) == 0.0
        assert discounted_returns([], 0.95).size == 0

    def test_all_zero(self):
        assert not discounted_returns([0.0] * 5, 0.95).any()

    def test_vector_matches_scalar(self):
        rewards = [1.0, -2.0, 0.5, 3.0]
        vec = discounted_returns(rewards, 0.9)
        for T in range(4):
            assert vec[T] == pytest.approx(discounted_return(rewards, T, 0.9))

    def test_rejects_bad_gamma(self):
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError):
                discounted_returns([1.0], gamma)


class TestRollouts:
    def test_episode_has_k_learner_steps(self):
        cfg = EpisodeConfig(k=5, opinion_model=NOM, rng_seed=0)
        _, batch = learner_episode(cfg, Party.TRUE_PARTY, "cf", seed=0)
        assert len(batch) == 5
        assert batch.states.shape == (5, 2)

    def test_rollout_batch_reproducible(self):
        cfg = EpisodeConfig(k=3, opinion_model=NOM, rng_seed=0)
        params = init_params(4, 16, rng_seed=0)
        ppo = PPOConfig(rollout_episodes=2, gamma=0.95)
        a = collect_rollouts(params, matchup(cfg), ppo, np.random.SeedSequence(7))
        b = collect_rollouts(params, matchup(cfg), ppo, np.random.SeedSequence(7))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.returns, b.returns)

    def test_learner_rewards_telescope_to_decided_gain(self):
        cfg = EpisodeConfig(k=6, opinion_model=UOM, rng_seed=4)
        ep, batch = learner_episode(cfg, Party.TRUE_PARTY, "cf")
        rewards = [e.reward for e in ep.logs if e.party is Party.TRUE_PARTY]
        assert sum(rewards) == pytest.approx(ep.logs[-1].n_true)
        assert batch.episode_rewards == [pytest.approx(sum(rewards))]

    def test_fp_learner_steps_on_odd_parity(self):
        cfg = EpisodeConfig(k=4, opinion_model=NOM, rng_seed=2)
        ep, batch = learner_episode(cfg, Party.FALSE_PARTY, "cf")
        assert len(batch) == 4
        fp_steps = [e.t for e in ep.logs if e.party is Party.FALSE_PARTY]
        assert fp_steps == [1, 3, 5, 7]
        assert len(ep.logs) == 8  # opponent finished the final round

    def test_returns_use_paper_discounting(self):
        cfg = EpisodeConfig(k=3, opinion_model=NOM, rng_seed=0)
        ep, batch = learner_episode(cfg, Party.TRUE_PARTY, "cf", gamma=0.5)
        r = [e.reward for e in ep.logs if e.party is Party.TRUE_PARTY]
        expected_first = 0.5 * r[0] + 0.25 * r[1] + 0.125 * r[2]
        assert batch.returns[0] == pytest.approx(expected_first)

    @pytest.mark.parametrize("party, scheme, opponent, model", [
        (Party.TRUE_PARTY, Scheme.DRIM_A, "cf", UOM),
        (Party.TRUE_PARTY, Scheme.C_STORM, "random", NOM),
        (Party.FALSE_PARTY, Scheme.DRIM_A, "random", UOM),
    ])
    def test_lockstep_batch_equals_episodes_collected_alone(self, party, scheme, opponent, model):
        # R = rollout_episodes in one run_lockstep call against R calls of R = 1
        cfg = EpisodeConfig(k=4, opinion_model=model, p_nv=0.6)
        game = matchup(cfg, party, opponent, scheme)
        params = init_params(len(action_space(scheme)), 8, rng_seed=5)
        params.actor.b3[...] += np.linspace(-0.5, 0.5, params.n_actions)
        params.critic.b3[...] += 0.25
        seeds = np.random.SeedSequence(13)
        batched = collect_rollouts(params, game, PPOConfig(rollout_episodes=4, gamma=0.9), seeds)
        # collect_rollouts spawns one child per episode, so the i-th episode
        # alone is a one-episode batch from a parent whose one child is child i
        alone = []
        for child in np.random.SeedSequence(13).spawn(4):
            parent = np.random.SeedSequence(child.entropy, spawn_key=child.spawn_key[:-1],
                                            n_children_spawned=child.spawn_key[-1])
            alone.append(collect_rollouts(params, game, PPOConfig(rollout_episodes=1, gamma=0.9),
                                          parent))
        assert batched.episode_rewards == [r for b in alone for r in b.episode_rewards]
        for name in ("states", "actions", "log_probs", "values", "returns"):
            assert np.array_equal(getattr(batched, name),
                                  np.concatenate([getattr(b, name) for b in alone])), name


class TestOneLearnerPerBatch:
    def test_one_forward_per_learner_turn(self, monkeypatch):
        rows = []
        real = rl.policy_forward

        def policy_forward(params, states):
            rows.append(len(states))
            return real(params, states)

        monkeypatch.setattr(rl, "policy_forward", policy_forward)
        cfg = EpisodeConfig(k=3, opinion_model=NOM)
        collect_rollouts(init_params(4, 8, 0), matchup(cfg), PPOConfig(rollout_episodes=4),
                         np.random.SeedSequence(3))
        assert rows == [4] * cfg.k

    def test_one_learner_and_one_community_restriction_per_cstorm_batch(self, monkeypatch):
        built = []
        for cls in (LearnerAgent, baselines.CommunityRestriction):
            def init(self, *args, real=cls.__init__, **kwargs):
                built.append(self)
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        cfg = EpisodeConfig(k=2, opinion_model=NOM, p_nv=0.6)
        game = matchup(cfg, scheme=Scheme.C_STORM)
        collect_rollouts(init_params(2, 8, 0), game, PPOConfig(rollout_episodes=4),
                         np.random.SeedSequence(3))
        assert [type(agent) for agent in built] == [LearnerAgent, baselines.CommunityRestriction]
        assert not hasattr(built[0], "party")


class TestLearnerLoop:
    def test_collect_rollouts_reads_episodes_and_discount_from_ppo_config(self, monkeypatch):
        played = []
        real = rl.collect_episode

        def collect_episode(episode, learner, party, gamma):
            played.append(([e.reward for e in episode.logs if e.party is party], gamma))
            return real(episode, learner, party, gamma)

        monkeypatch.setattr(rl, "collect_episode", collect_episode)
        cfg = EpisodeConfig(k=3, opinion_model=NOM)
        batch = collect_rollouts(init_params(4, 8, 0), matchup(cfg, opponent="cf"),
                                 PPOConfig(rollout_episodes=3, gamma=0.5), np.random.SeedSequence(1))
        assert [gamma for _, gamma in played] == [0.5] * 3
        assert batch.episode_rewards == [pytest.approx(sum(r)) for r, _ in played]
        assert np.array_equal(batch.returns,
                              np.concatenate([discounted_returns(r, 0.5) for r, _ in played]))

    @pytest.mark.parametrize("fp, updates, alternations, parties", [
        ("cf", 3, 1, ("tp",) * 3),
        ("drl", 4, 2, ("tp", "fp") * 2),
    ], ids=["heuristic", "selfplay"])
    def test_train_agent_reaches_rollouts_and_updates_once_per_update(
            self, monkeypatch, fp, updates, alternations, parties):
        calls, tp_rewards = [], []
        real_collect, real_update = rl.collect_rollouts, rl.ppo_update

        def collect_rollouts(params, matchup, ppo_cfg, seed_seq):
            batch = real_collect(params, matchup, ppo_cfg, seed_seq)
            calls.append(matchup.party.value)
            if matchup.party is Party.TRUE_PARTY:
                tp_rewards.append(float(np.mean(batch.episode_rewards)))
            return batch

        def ppo_update(params, batch, cfg):
            calls.append("update")
            return real_update(params, batch, cfg)

        monkeypatch.setattr(rl, "collect_rollouts", collect_rollouts)
        monkeypatch.setattr(rl, "ppo_update", ppo_update)
        ring = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
        ppo = PPOConfig(updates=updates, selfplay_alternations=alternations, rollout_episodes=2,
                        epochs=1, hidden=4)
        result = rl.train_agent(Scheme.DRIM_A, fp, ring, EpisodeConfig(k=2, opinion_model=NOM),
                                ppo, 0)
        assert calls == [c for party in parties for c in (party, "update")]
        # one (mean return, entropy) row per true-party update, in order
        assert [reward for reward, _ in result.curve] == tp_rewards
        assert all(len(row) == 2 for row in result.curve)


@pytest.mark.parametrize("name", ["epochs", "rollout_episodes", "updates", "hidden",
                                  "selfplay_alternations"])
@pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
def test_ppo_config_rejects_non_integer_counts(name, value):
    pattern = f"{name} must be a whole number, got {value!r}"
    with pytest.raises(ValueError, match=pattern):
        PPOConfig(**{name: value})
    with pytest.raises(ValueError, match=pattern):
        parse_spec_file(None, {name: value})
    assert getattr(PPOConfig(**{name: np.int64(3)}), name) == 3


def test_selfplay_uneven_updates_is_value_error(monkeypatch):
    def no_rollouts(*args, **kwargs):
        raise AssertionError("collected a rollout")

    monkeypatch.setattr(rl, "collect_rollouts", no_rollouts)
    ppo = PPOConfig(updates=3, selfplay_alternations=1, rollout_episodes=1, epochs=1)
    with pytest.raises(ValueError, match="^updates=3 does not split evenly over 2 sides × "
                                         "selfplay_alternations=1$"):
        rl.train_agent(Scheme.STORM, "drl", load_urv_email(), EpisodeConfig(k=2), ppo, 0)
    assert PPOConfig(updates=4, selfplay_alternations=1).side_updates() == 2


class TestPolicyAgent:
    def test_action_set_size_checked(self):
        params = init_params(4, 8, rng_seed=0)
        with pytest.raises(ValueError):
            PolicyAgent(params, action_space(Scheme.DRIM_NA))

    def test_sample_action_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.7, 0.2, 0.1])
        draws = [sample_action(probs, rng) for _ in range(5000)]
        freq = np.bincount(draws, minlength=3) / 5000
        assert np.allclose(freq, probs, atol=0.03)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(4, 16, rng_seed=9)
        params.actor.w3[...] += 0.123456789
        path = tmp_path / "policy.bin"
        save_params(params, path)
        loaded = load_params(path)
        for a, b in zip([*params.actor, *params.critic], [*loaded.actor, *loaded.critic]):
            assert np.array_equal(a, np.asarray(b).reshape(a.shape))

    def test_action_space_mismatch_rejected(self, tmp_path):
        params = init_params(4, 16, rng_seed=9)
        path = tmp_path / "policy.bin"
        save_params(params, path)
        with pytest.raises(ValueError):
            load_params(path, expected_actions=3)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(4, 16, rng_seed=9)
        path = tmp_path / "policy.bin"
        save_params(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            load_params(path)

    @pytest.mark.parametrize("in_dim, out_dim, message", [
        (3, 1, "array 6 is 3x16, but .* make it 2x16"),
        (2, 2, "array 10 is 16x2, but .* make it 16x1"),
    ], ids=["3-wide-state", "2-output-critic"])
    def test_array_shape_off_its_layout_rejected(self, tmp_path, in_dim, out_dim, message):
        # the header (4 actions, hidden 16) holds; only the critic is off
        params = init_params(4, 16, rng_seed=9)
        params.critic = rl.Mlp.create(in_dim, 16, out_dim, np.random.default_rng(0))
        path = tmp_path / "policy.bin"
        save_params(params, path)
        with pytest.raises(ValueError, match=message):
            load_params(path)

    @pytest.mark.parametrize("field, value, message", [
        (1, 8, "array 0 is 2x16, but the header's 4 actions and hidden width 8 make it 2x8"),
        (2, 11, "expected 12 arrays, found 11"),
    ], ids=["hidden-width", "array-count"])
    def test_header_off_the_arrays_rejected(self, tmp_path, field, value, message):
        # the header is (action count, hidden width, array count), three uint32 after the magic
        path = tmp_path / "policy.bin"
        save_params(init_params(4, 16, rng_seed=9), path)
        blob = bytearray(path.read_bytes())
        at = len(rl._MAGIC) + 4 * field
        blob[at:at + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=message):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "policy.bin"
        save_params(init_params(4, 16, rng_seed=9), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_params(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "policy.bin"
        path.write_bytes(b"not a policy file at all")
        with pytest.raises(ValueError):
            load_params(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "policy.bin"
        save_params(init_params(4, 16, rng_seed=9), path)
        before = path.read_bytes()

        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        params = init_params(4, 16, rng_seed=10)
        params.critic = params.critic._replace(b3=Unwritable())  # the last of twelve arrays
        with pytest.raises(OSError, match="disk full"):
            save_params(params, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["policy.bin"]
