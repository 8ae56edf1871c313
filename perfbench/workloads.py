"""Workloads of the drim benchmark: set-up, entry-point calls, output checks.

Each workload drives one public entry point of the package:
`harness.run_grid` for evaluation, `harness.ensure_policies` for training.
`setup` imports drim itself, so its clock starts before the first
`import drim`; run.py puts the checkout's `src/` on `sys.path` first.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

# Episodes per run_grid call: the paper's runs per Table 1 cell.
RUNS_PER_CALL = 20
# Turns --seconds into a PPO update count. A paper-default update took about
# 4.7 s on the 2-core box the benchmark was defined on, so the training call
# lasts about 1.3 x --seconds: as long as an eval run's calls, which overrun
# --seconds by up to one call.
SECONDS_PER_UPDATE = 3.5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "eval" drives run_grid, "train" drives ensure_policies
    scheme: str
    opinion_model: str
    fp_strategy: str
    p_nv: float


# Why each workload exists is in BENCHMARK.json and README.md: the first is
# fusion-heavy, the second spends its time on masked views, spectral
# communities and frozen users, the third on training without a pool.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-uom", "eval", "drim-a", "uom", "cf", 1.0),
        Workload("eval-cstorm-masked", "eval", "cstorm", "nom", "random", 0.6),
        Workload("train-uom", "train", "drim-a", "uom", "cf", 1.0),
    )
}


def train_updates(seconds: float) -> int:
    """PPO updates in one train-uom call, sized so the call lasts about `seconds`."""
    return max(2, round(seconds / SECONDS_PER_UPDATE))


@dataclass
class Ready:
    """Everything a measured call needs, and what set-up cost."""

    workload: Workload
    spec: object  # drim.harness.ExperimentSpec
    graph: object | None  # drim.network.Graph for eval, None for train
    setup_s: float
    load_s: float


def setup(workload: Workload, seed: int, seconds: float, work_dir: Path) -> Ready:
    """Import drim and make one workload ready to run.

    Eval: load the bundled dataset, write seeded untrained policies at the
    paths run_grid looks up and load them back. Forward cost does not depend
    on training, and this keeps set-up at seconds instead of a full training
    run per policy. Train: an empty policy directory, so ensure_policies trains.
    """
    start = time.perf_counter()
    from drim import harness, rl
    from drim.strategies import Scheme, action_space

    scheme = Scheme(workload.scheme)
    train = workload.kind == "train"
    ppo = rl.PPOConfig(updates=train_updates(seconds)) if train else rl.PPOConfig()
    spec = harness.ExperimentSpec(
        scheme=scheme,
        opinion_model=workload.opinion_model,
        fp_strategy=workload.fp_strategy,
        p_nv=workload.p_nv,
        runs=RUNS_PER_CALL,
        master_seed=seed,
        out_dir=work_dir / "out",
        policy_dir=work_dir / "policies",
        auto_train=train,
        ppo=ppo,
    )
    graph, load_s = None, 0.0
    if not train:
        t = time.perf_counter()
        graph = harness.load_graph(spec)
        load_s = time.perf_counter() - t
        tp_path, _ = harness.policy_paths(spec, scheme, workload.fp_strategy)
        tp_path.parent.mkdir(parents=True, exist_ok=True)
        policy_seed = harness.derive_seed(seed, "bench-policy", *spec.coordinates())
        rl.save_params(rl.init_params(len(action_space(scheme)), ppo.hidden, policy_seed), tp_path)
        harness.load_cell_agents(spec, scheme, workload.fp_strategy)
    return Ready(workload, spec, graph, time.perf_counter() - start, load_s)


# ----------------------------------------------------------------------
# Entry-point calls


def eval_call(
    ready: Ready, out_dir: Path, workers: int | None = None, runs: int | None = None
) -> float:
    """One run_grid call writing into out_dir; returns its wall clock."""
    from drim import harness

    spec = replace(ready.spec, out_dir=out_dir, runs=runs or ready.spec.runs)
    start = time.perf_counter()
    harness.run_grid(spec, graph=ready.graph, workers=workers)
    return time.perf_counter() - start


def train_call(ready: Ready, policy_dir: Path) -> float:
    """One ensure_policies call training into an empty policy_dir; returns its wall clock."""
    from drim import harness

    spec = replace(ready.spec, policy_dir=policy_dir)
    start = time.perf_counter()
    harness.ensure_policies(spec, [(spec.scheme, spec.fp_strategy)])
    return time.perf_counter() - start


def entry_call(ready: Ready, out_dir: Path, workers: int | None = None) -> float:
    """The workload's entry-point call writing into out_dir; returns its wall clock."""
    if ready.workload.kind == "eval":
        return eval_call(ready, out_dir, workers)
    return train_call(ready, out_dir)


def units_per_call(ready: Ready) -> int:
    """Episodes per eval call, PPO updates per train call."""
    return ready.spec.ppo.updates if ready.workload.kind == "train" else ready.spec.runs


# ----------------------------------------------------------------------
# Output checks: each returns the failed units and the problems it found


def check_eval_outputs(ready: Ready, out_dir: Path) -> tuple[int, list[str], list[float]]:
    """Check one run_grid call's CSVs; also return the per-episode seconds."""
    runs, n = ready.spec.runs, ready.graph.n
    problems: list[str] = []
    failed = 0
    with open(out_dir / "raw_runs.csv", encoding="utf-8", newline="") as fh:
        raw = list(csv.DictReader(fh))
    for row in raw:
        n_true, n_false = float(row["n_true"]), float(row["n_false"])
        dec_true, dec_false = float(row["decided_n_true"]), float(row["decided_n_false"])
        if n_true + n_false != n or dec_true > n_true or dec_false > n_false:
            failed += 1
            problems.append(f"raw_runs.csv run {row['run']}: inconsistent counts {dict(row)}")
    if len(raw) != runs:
        failed += abs(runs - len(raw))
        problems.append(f"raw_runs.csv has {len(raw)} rows, expected {runs}")
    with open(out_dir / "results.csv", encoding="utf-8", newline="") as fh:
        results = list(csv.DictReader(fh))
    if len(results) != 1 or int(results[0]["runs"]) != runs:
        problems.append(f"results.csv does not hold one row of {runs} runs")
    with open(out_dir / "timings.csv", encoding="utf-8", newline="") as fh:
        seconds = [float(r["seconds"]) for r in csv.DictReader(fh)]
    if len(seconds) != runs:
        problems.append(f"timings.csv has {len(seconds)} rows, expected {runs}")
    if problems and not failed:
        failed = runs
    return failed, problems, seconds


def result_bytes(ready: Ready, out_dir: Path) -> dict[str, bytes]:
    """The files that must repeat byte for byte for a fixed seed."""
    if ready.workload.kind == "eval":
        names = ("results.csv", "raw_runs.csv")
        return {name: (out_dir / name).read_bytes() for name in names}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def check_train_outputs(ready: Ready, policy_dir: Path) -> tuple[int, list[str]]:
    """The trained policy loads, and the curve has one finite row per update."""
    from drim import harness, rl
    from drim.strategies import action_space

    spec, updates = ready.spec, ready.spec.ppo.updates
    tp_path, _ = harness.policy_paths(replace(spec, policy_dir=policy_dir), spec.scheme,
                                      spec.fp_strategy)
    try:
        rl.load_params(tp_path, expected_actions=len(action_space(spec.scheme)))
    except (OSError, ValueError) as exc:
        return updates, [f"trained policy unusable: {exc}"]
    with open(tp_path.with_suffix(".curve.csv"), encoding="utf-8", newline="") as fh:
        curve = list(csv.DictReader(fh))
    problems = []
    good = 0
    for i, row in enumerate(curve):
        values = (float(row["mean_return"]), float(row["entropy"]))
        if int(row["update"]) == i and all(math.isfinite(v) for v in values):
            good += 1
        else:
            problems.append(f"curve row {i} invalid: {dict(row)}")
    if len(curve) != updates:
        problems.append(f"curve has {len(curve)} rows, expected {updates}")
    return updates - min(good, updates), problems


def check_outputs(ready: Ready, out_dir: Path) -> tuple[int, list[str], list[float]]:
    if ready.workload.kind == "eval":
        return check_eval_outputs(ready, out_dir)
    failed, problems = check_train_outputs(ready, out_dir)
    return failed, problems, []


def info_outputs(ready: Ready, out_dir: Path) -> dict[str, float]:
    """Program outputs recorded for information; never gated."""
    if ready.workload.kind == "eval":
        with open(out_dir / "results.csv", encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        return {k: float(row[k]) for k in ("mean_n_true", "mean_decided_n_true", "mean_n_false")}
    curves = list(out_dir.glob("*.curve.csv"))
    with open(curves[0], encoding="utf-8", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    return {"final_mean_return": float(last["mean_return"]), "final_entropy": float(last["entropy"])}
