#!/usr/bin/env python3
"""Train a small PPO seed-selection agent and watch it specialize.

Uses a reduced budget (about ten seconds of CPU). The agent learns which
heuristic to fire from the 2-component cascade state; on this graph the
activity-first action is weak, so a trained policy learns to avoid it.
"""

import numpy as np

from drim.datasets import load_urv_email
from drim.harness import single_thread_blas
from drim.propagation import EpisodeConfig, run_episode
from drim.rl import PPOConfig, make_scheme_agent, policy_forward, save_params, train_agent
from drim.strategies import Scheme, action_space, make_heuristic_agent

graph = load_urv_email()
episode_cfg = EpisodeConfig(k=50, rng_seed=0)
ppo_cfg = PPOConfig(hidden=64, rollout_episodes=8, updates=12, epochs=60, actor_lr=0.05)

print("training drim-a against a centrality-first false party...")
with single_thread_blas():  # the same policy bytes on any core count
    result = train_agent(Scheme.DRIM_A, "cf", graph, episode_cfg, ppo_cfg, rng_seed=11)
print("update  mean_return  entropy")
for update, (mean_return, entropy) in enumerate(result.curve):
    print(f"{update:>6d}  {mean_return:>11.1f}  {entropy:.3f}")

names = [k.value for k in action_space(Scheme.DRIM_A)]
(probs,) = policy_forward(result.params, [(0.9, 0.95)])
print("\npolicy near episode start:",
      {n: round(float(p), 3) for n, p in zip(names, probs)})

save_params(result.params, "demo_policy.bin")
print("policy saved to demo_policy.bin")

scores = []
for seed in range(5):
    episode = run_episode(graph, episode_cfg.with_seed(100 + seed),
                          make_scheme_agent(Scheme.DRIM_A, result.params),
                          make_heuristic_agent("cf"))
    scores.append(episode.final_metrics()["decided_n_true"])
print(f"trained agent decided n^T over 5 episodes: {np.mean(scores):.0f} "
      f"(individual: {[int(s) for s in scores]})")
