#!/usr/bin/env python3
"""A miniature of the full experiment pipeline: grid, sweep, reports.

Evaluates two schemes under all three opinion models against one false
party and sweeps the true party's propagation budget. Budgets are small;
the CLI runs the full versions, and `drim report` pivots their output
directories into the paper's layouts (table2 from the evaluation's
own `timings.csv`).
`drim train` fills the policy store that `eval` then reads; `eval`
would also train what is missing:

    drim train --scheme drim-a --fp drl --out results/table1
    drim eval  --scheme drim-a,drim-na,storm,cstorm --om uom,hom,nom \
               --fp random,af,bf,sgf,cf,drl --out results/table1
    drim eval  --axis ip --fp drl --out results/fig3a
    drim report --layout table1 --results results/table1
    drim report --layout table2 --results results/table1
"""

from pathlib import Path

from drim.harness import ExperimentSpec, run_grid
from drim.rl import PPOConfig
from drim.strategies import Scheme

ppo = PPOConfig(hidden=32, rollout_episodes=4, updates=6, epochs=40, actor_lr=0.05)
out = Path("demo_results")

spec = ExperimentSpec(runs=5, k=25, out_dir=out / "grid", master_seed=0, ppo=ppo)
rows = run_grid(spec, schemes=(Scheme.DRIM_A, Scheme.DRIM_NA),
                opinion_models=("uom", "hom", "nom"), fp_strategies=("cf",))
print("scheme/om vs cf -> mean decided n^T over 5 runs:")
for row in rows:
    print(f"  {row.scheme}/{row.opinion_model}: {row.mean_decided_n_true:.1f}")

sweep = ExperimentSpec(runs=5, k=25, out_dir=out / "ip_sweep", master_seed=0,
                       ppo=ppo, policy_dir=spec.policy_dir,
                       sweep_axis="ip", sweep_values=(1, 2, 3))
sweep_rows = run_grid(sweep, schemes=(Scheme.DRIM_A,))
print("\npropagation-budget sweep (drim-a/uom vs cf):")
for row in sweep_rows:
    print(f"  ip={row.sweep_value}: {row.mean_decided_n_true:.1f}")

print(f"\nCSV outputs under {out}/: results.csv, raw_runs.csv, timings.csv per run")
