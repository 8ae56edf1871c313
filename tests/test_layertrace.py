"""The benchmark's per-layer tracer still fits the package.

`perfbench/layertrace.py` rebinds drim's module-level names by name, so
a name dropped or renamed in the package would otherwise only show on
the next traced benchmark run. Here the tracer is installed around a
tiny evaluation grid and one episode.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from drim import harness, rl
from drim.network import Graph
from drim.propagation import EpisodeConfig
from drim.strategies import action_space, make_heuristic_agent

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_checks_episodes(tmp_path):
    layertrace = load_layertrace()
    ring = Graph(30, [(i, (i + 1) % 30) for i in range(30)])
    spec = harness.ExperimentSpec(k=3, runs=2, out_dir=tmp_path / "out",
                                  policy_dir=tmp_path / "policies", auto_train=False)
    tp_path, _ = harness.policy_paths(spec, spec.scheme, spec.fp_strategy)
    tp_path.parent.mkdir(parents=True)
    rl.save_params(rl.init_params(len(action_space(spec.scheme)), 8, 3), tp_path)

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        harness.run_grid(spec, graph=ring, workers=1)
        harness.run_episode(ring, EpisodeConfig(k=3, rng_seed=5), make_heuristic_agent("cf"),
                            make_heuristic_agent("sgf"))
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    assert tracer.checked_episodes >= 1
    assert (tmp_path / "out" / "results.csv").is_file()

    original = rl.collect_episode
    with layertrace.call_clock(rl, "collect_episode", []):
        assert rl.collect_episode is not original
    assert rl.collect_episode is original
