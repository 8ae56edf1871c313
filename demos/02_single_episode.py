#!/usr/bin/env python3
"""Run one competitive episode on the bundled graph and narrate it.

The false party (CF strategy) moves first each round; the true party
(random strategy mix) follows with twice the propagation budget. Prints
the round log head, the decided-influence trajectory, and final counts
for each opinion model.
"""

from drim.datasets import load_urv_email
from drim.harness import write_roundlog_csv
from drim.opinion import HOM, NOM, UOM
from drim.propagation import EpisodeConfig, run_episode
from drim.strategies import RandomStrategyAgent, make_heuristic_agent

graph = load_urv_email()
print(f"graph: {graph.n} nodes, {graph.num_edges} edges")

for model, name in ((UOM, "UOM"), (HOM, "HOM"), (NOM, "NOM")):
    cfg = EpisodeConfig(k=50, p_t=2, p_f=1, opinion_model=model, rng_seed=7)
    episode = run_episode(graph, cfg, RandomStrategyAgent(), make_heuristic_agent("cf"))

    if name == "UOM":
        print("\nfirst rounds (UOM):")
        print("  t party strategy seed  n_true n_false reward")
        for entry in episode.logs[:6]:
            print(f"  {entry.t:<2d} {entry.party.value:<5s} {entry.strategy:<8s} "
                  f"{entry.seed:<5d} {entry.n_true:<6d} {entry.n_false:<7d} {entry.reward:+.0f}")
        marks = [1, 20, 40, 60, 80, 100]
        print("decided true-party counts after steps", marks, ":",
              [episode.logs[t - 1].n_true for t in marks])
        write_roundlog_csv("demo_roundlog.csv", [(0, episode.logs)])
        print("full audit trail written to demo_roundlog.csv")

    metrics = episode.final_metrics()
    print(f"\n{name}: decided n^T={metrics['decided_n_true']:.0f} "
          f"decided n^F={metrics['decided_n_false']:.0f}")

print("\nUOM keeps minds changeable; under HOM/NOM the first mover locks users in.")
