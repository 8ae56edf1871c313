"""Experiment harness: specs, seeds, CSV round trips, reports, determinism."""

from __future__ import annotations

import csv
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drim.baselines import CommunityRestriction
from drim.config import parse_spec_file
from drim.harness import (
    FP_STRATEGIES,
    OPINION_MODELS,
    SWEEP_DEFAULTS,
    ExperimentSpec,
    ResultRow,
    derive_seed,
    emit_report,
    ensure_policies,
    policy_paths,
    run_grid,
    worker_count,
    write_counters_csv,
    write_raw_csv,
    write_results_csv,
    write_roundlog_csv,
    write_timings_csv,
)
from drim.opinion import NOM
from drim.population import Party
from drim.propagation import EpisodeConfig, RoundLog, run_episode, run_lockstep
from drim.rl import PPOConfig, load_params, save_params
from drim.strategies import Scheme, make_heuristic_agent


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory) -> Path:
    """A 24-node two-community graph, 1-indexed edge list."""
    rng = np.random.default_rng(5)
    edges = set()
    for base in (0, 12):
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.4:
                    edges.add((base + i, base + j))
    for i in range(11):  # ensure connectivity inside each block
        edges.add((i, i + 1))
        edges.add((12 + i, 12 + i + 1))
    edges.add((0, 12))
    path = tmp_path_factory.mktemp("data") / "tiny.edges"
    with open(path, "w") as fh:
        for a, b in sorted(edges):
            fh.write(f"{a + 1} {b + 1}\n")
    return path


def tiny_spec(tmp_path: Path, dataset: Path, **kw) -> ExperimentSpec:
    defaults = dict(
        scheme=Scheme.DRIM_A,
        opinion_model="uom",
        fp_strategy="cf",
        runs=2,
        dataset=dataset,
        out_dir=tmp_path / "results",
        k=3,
        master_seed=0,
        ppo=PPOConfig(hidden=8, rollout_episodes=2, updates=1, epochs=3,
                      selfplay_alternations=1),
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(runs=0)
        with pytest.raises(ValueError):
            ExperimentSpec(opinion_model="bogus")
        with pytest.raises(ValueError):
            ExperimentSpec(fp_strategy="bogus")
        with pytest.raises(ValueError):
            ExperimentSpec(sweep_axis="bogus")

    @pytest.mark.parametrize("name", ["runs", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_counts_rejected(self, name, value):
        pattern = f"{name} must be a whole number, got {value!r}"
        with pytest.raises(ValueError, match=pattern):
            ExperimentSpec(**{name: value})
        with pytest.raises(ValueError, match=pattern):
            parse_spec_file(None, {name: value})
        assert getattr(ExperimentSpec(**{name: np.int64(3)}), name) == 3

    def test_sweep_defaults_fill_in(self):
        spec = ExperimentSpec(sweep_axis="p_nv")
        assert spec.sweep_values == SWEEP_DEFAULTS["p_nv"]

    def test_episode_config_applies_sweep_value(self):
        spec = ExperimentSpec(sweep_axis="ip", sweep_values=(1, 2.0, "3"))
        assert spec.sweep_values == (1, 2, 3)
        assert all(type(v) is int for v in spec.sweep_values)
        assert spec.episode_config(3).p_t == 3
        spec = ExperimentSpec(sweep_axis="prior_a", sweep_values=(0.1,))
        assert spec.episode_config(0.1).prior_a == 0.1

    @pytest.mark.parametrize("name", ["p_nv", "prior_a"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, 3.0, float("nan")])
    def test_probabilities_outside_unit_interval_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must lie in \\[0, 1\\]"):
            EpisodeConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            ExperimentSpec(**{name: value})

    @pytest.mark.parametrize("axis, values", [
        ("p_nv", (0.5, 1.5)), ("prior_a", (-0.2, 0.5)), ("ip", (2, 0)), ("ip", (1.5,)),
        ("p_nv", ()),
    ])
    def test_bad_sweep_value_rejected_at_construction(self, axis, values):
        with pytest.raises(ValueError):
            ExperimentSpec(sweep_axis=axis, sweep_values=values)

    @pytest.mark.parametrize("axis, values, named", [
        ("p_nv", (0.2, 0.4, 0.2), "0.2 and 0.2 share the coordinate sweep_value=0.2"),
        ("prior_a", (0.1234561, 0.1234564),
         "0.1234561 and 0.1234564 share the coordinate sweep_value=0.123456"),
        ("ip", (2, "2.0"), "2 and 2 share the coordinate sweep_value=2"),
    ])
    def test_sweep_points_sharing_a_coordinate_rejected(self, axis, values, named):
        with pytest.raises(ValueError, match=re.escape(f"sweep points {named}")):
            ExperimentSpec(sweep_axis=axis, sweep_values=values)

    def test_unit_interval_bounds_accepted(self):
        for value in (0.0, 1.0):
            assert EpisodeConfig(p_nv=value, prior_a=value).p_nv == value
        assert ExperimentSpec(sweep_axis="p_nv", sweep_values=(0.0, 1.0)).sweep_values == (0.0, 1.0)


class TestWorkerCount:
    def test_unset_defaults_to_cpu_bound(self):
        assert 1 <= worker_count() <= 4

    def test_environment_is_not_read(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("DRIM_WORKERS", "abc")
        assert worker_count() == 2

    def test_default_counts_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count() == 1  # e.g. under `taskset -c 0` on a many-core box
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert worker_count() == 4

    def test_explicit_value_used(self):
        assert worker_count(2) == 2

    @pytest.mark.parametrize("value", [0, -1])
    def test_explicit_below_one_rejected_before_training(self, tmp_path, tiny_dataset, value):
        spec = tiny_spec(tmp_path, tiny_dataset)
        with pytest.raises(ValueError, match=f"workers={value!r} is not an integer >= 1"):
            run_grid(spec, workers=value)
        assert not spec.policy_dir.exists() or not any(spec.policy_dir.iterdir())
        assert not spec.out_dir.exists() or not any(spec.out_dir.iterdir())


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_seed(0, scheme, om, fp, run)
            for scheme, om, fp, run in itertools.product(
                ("drim-a", "storm"), OPINION_MODELS, FP_STRATEGIES, range(5)
            )
        }
        assert len(seeds) == 2 * 3 * 6 * 5

    def test_master_seed_changes_everything(self):
        assert derive_seed(0, "x") != derive_seed(1, "x")


class TestRunGrid:
    def test_single_cell_files_and_aggregation(self, tmp_path, tiny_dataset):
        spec = tiny_spec(tmp_path, tiny_dataset, runs=3)
        rows = run_grid(spec, workers=1)
        assert len(rows) == 1
        out = spec.out_dir
        assert (out / "results.csv").exists()
        assert (out / "raw_runs.csv").exists()
        assert (out / "timings.csv").exists()
        # aggregated means equal arithmetic means of raw rows
        raw = (out / "raw_runs.csv").read_text().strip().splitlines()[1:]
        n_true = [float(line.split(",")[6]) for line in raw]
        assert rows[0].mean_n_true == pytest.approx(np.mean(n_true))
        decided = [float(line.split(",")[8]) for line in raw]
        assert rows[0].mean_decided_n_true == pytest.approx(np.mean(decided))

    def test_single_run_has_zero_std(self, tmp_path, tiny_dataset):
        spec = tiny_spec(tmp_path, tiny_dataset, runs=1)
        rows = run_grid(spec, workers=1)
        assert rows[0].std_n_true == 0.0

    def test_byte_identical_rerun(self, tmp_path, tiny_dataset):
        spec_a = tiny_spec(tmp_path / "a", tiny_dataset)
        rows_a = run_grid(spec_a, workers=1)
        spec_b = tiny_spec(
            tmp_path / "b", tiny_dataset, policy_dir=spec_a.policy_dir
        )
        rows_b = run_grid(spec_b, workers=1)
        a = (spec_a.out_dir / "results.csv").read_bytes()
        b = (spec_b.out_dir / "results.csv").read_bytes()
        assert a == b
        raw_a = (spec_a.out_dir / "raw_runs.csv").read_bytes()
        raw_b = (spec_b.out_dir / "raw_runs.csv").read_bytes()
        assert raw_a == raw_b
        counters_a = (spec_a.out_dir / "counters.csv").read_bytes()
        assert counters_a == (spec_b.out_dir / "counters.csv").read_bytes()
        assert [r.mean_n_true for r in rows_a] == [r.mean_n_true for r in rows_b]

    def test_counters_csv_one_row_per_run(self, tmp_path, tiny_dataset):
        spec = tiny_spec(tmp_path, tiny_dataset, runs=3)
        run_grid(spec, workers=1)
        lines = (spec.out_dir / "counters.csv").read_text().splitlines()
        assert lines[0] == ("scheme,opinion_model,fp_strategy,sweep_axis,sweep_value,run,"
                            "reached,reads,fusions,refreshes,frozen,degenerate")
        assert [line.split(",")[5] for line in lines[1:]] == ["0", "1", "2"]
        for line in lines[1:]:
            reached, reads, fusions, _, _, degenerate = map(int, line.split(",")[6:])
            assert 0 < reads <= reached
            assert 0 <= degenerate <= fusions

    def test_sweep_produces_one_row_per_point(self, tmp_path, tiny_dataset):
        spec = tiny_spec(
            tmp_path, tiny_dataset, sweep_axis="ip", sweep_values=(1, 2), runs=1
        )
        rows = run_grid(spec, workers=1)
        assert [r.sweep_value for r in rows] == ["1", "2"]

    def test_results_csv_round_trip(self, tmp_path, tiny_dataset):
        spec = tiny_spec(tmp_path, tiny_dataset)
        rows = run_grid(spec, workers=1)
        with open(spec.out_dir / "results.csv", newline="") as fh:
            loaded = list(csv.DictReader(fh))
        assert len(loaded) == len(rows)
        assert float(loaded[0]["mean_decided_n_true"]) == pytest.approx(
            round(rows[0].mean_decided_n_true, 4)
        )


@pytest.fixture(scope="module", autouse=True)
def c_storm_parent():
    """Load scipy's spectral stack in this process, as building a C-STORM
    agent does in the parent of a C-STORM pool. TestSingleThreadBlas
    probes pools forked from that state; TestLateLoadedBlas probes a
    parent without scipy, in a fresh interpreter."""
    CommunityRestriction(make_heuristic_agent("cf"))


def _blas_probe(seed: int) -> tuple[list[int], int]:
    """Spectral communities on a masked bundled view, then this process's
    OpenBLAS thread counts and OS thread count."""
    from drim.datasets import load_urv_email
    from drim.harness import _openblas_controls
    from drim.network import mask_network, spectral_communities

    spectral_communities(mask_network(load_urv_email(), 0.6, seed), 5, seed)
    return [get() for get, _ in _openblas_controls()], len(os.listdir("/proc/self/task"))


class TestSingleThreadBlas:
    def test_pool_workers_run_one_blas_thread(self):
        from drim.harness import _openblas_controls, _parallel_map

        controls = _openblas_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        before = [get() for get, _ in controls]
        reports = _parallel_map(_blas_probe, [0, 1], workers=2)
        assert reports == [([1] * len(controls), 1)] * 2
        assert [get() for get, _ in controls] == before

    def test_trained_policy_independent_of_blas_threads(self, tmp_path):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs 2 CPUs for OpenBLAS to thread")
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from drim.harness import ExperimentSpec, policy_paths, train_policy\n"
            "from drim.rl import PPOConfig\n"
            "from drim.strategies import Scheme\n"
            "ppo = PPOConfig(hidden=64, rollout_episodes=8, epochs=2, updates=1)\n"
            "spec = ExperimentSpec(k=50, ppo=ppo, policy_dir=Path(sys.argv[1]))\n"
            "train_policy(spec, Scheme.DRIM_A, 'cf')\n"
            "print(policy_paths(spec, Scheme.DRIM_A, 'cf')[0])\n"
        )
        root = Path(__file__).resolve().parents[1]
        policies = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)],
                                  env=env, check=True, timeout=300, capture_output=True, text=True)
            policies.append(Path(proc.stdout.strip()).read_bytes())
        assert policies[0] == policies[1]


class TestLateLoadedBlas:
    LATE_LOAD = (
        "import json, os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from drim.harness import _openblas_controls, _parallel_map\n"
        "from test_harness import _blas_probe\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        "if _openblas_controls():\n"
        "    reports = _parallel_map(_blas_probe, [0, 1], workers=2)\n"
        "    print(json.dumps([reports, os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )

    @pytest.mark.parametrize("prior", [None, "2"])
    def test_workers_load_scipy_at_one_blas_thread(self, prior):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if prior is not None:
            env["OPENBLAS_NUM_THREADS"] = prior
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.LATE_LOAD, str(root / "tests")], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        if not proc.stdout.strip():
            pytest.skip("no OpenBLAS loaded")
        reports, after = json.loads(proc.stdout.strip().splitlines()[-1])
        for threads, os_threads in reports:  # scipy's OpenBLAS among them, loaded in the worker
            assert threads == [1] * len(threads) and os_threads == 1
        assert after == prior


class TestPolicyCache:
    def test_reuses_existing_policy(self, tmp_path, tiny_dataset):
        spec = tiny_spec(tmp_path, tiny_dataset)
        cells = [(spec.scheme, spec.fp_strategy)]
        ensure_policies(spec, cells, workers=1)
        path, _ = policy_paths(spec, spec.scheme, spec.fp_strategy)
        stamp = path.stat().st_mtime_ns
        ensure_policies(spec, cells, workers=1)
        assert path.stat().st_mtime_ns == stamp

    def test_auto_train_disabled_fails_cleanly(self, tmp_path, tiny_dataset):
        spec = tiny_spec(tmp_path, tiny_dataset, auto_train=False)
        with pytest.raises(FileNotFoundError):
            ensure_policies(spec, [(spec.scheme, spec.fp_strategy)], workers=1)

    def test_selfplay_produces_both_sides(self, tmp_path, tiny_dataset):
        spec = tiny_spec(tmp_path, tiny_dataset, fp_strategy="drl")
        spec = replace(spec, ppo=replace(spec.ppo, updates=2))  # one update per side
        ensure_policies(spec, [(spec.scheme, "drl")], workers=1)
        tp_path, fp_path = policy_paths(spec, spec.scheme, "drl")
        assert tp_path.exists() and fp_path.exists()
        assert sorted(p.name for p in spec.policy_dir.iterdir()) == sorted(
            (tp_path.name, fp_path.name, tp_path.with_suffix(".curve.csv").name))

    def test_key_depends_on_dataset_bytes(self, tmp_path, tiny_dataset):
        other = tmp_path / "other.edges"
        other.write_bytes(tiny_dataset.read_bytes() + b"1 24\n")
        same = tmp_path / "same.edges"
        same.write_bytes(tiny_dataset.read_bytes())
        paths = {
            name: policy_paths(tiny_spec(tmp_path, data), Scheme.DRIM_A, "cf")[0]
            for name, data in (("tiny", tiny_dataset), ("other", other), ("same", same),
                               ("bundled", None))
        }
        assert paths["tiny"] == paths["same"]  # the file's bytes, not its name
        assert len({paths["tiny"], paths["other"], paths["bundled"]}) == 3

    # The default spec's tag. It moved from "baf6b1fa" when the draw-order
    # contract joined the key, so policies of the old stream are retrained,
    # and from "91710efc" when selfplay_updates_per_side left PPOConfig.
    PARENT_DEFAULT_TAG = "ae52b998"

    def test_tag_covers_every_ppo_field(self):
        # Each PPO field and each [episode] setting, changed alone, moves the tag.
        from dataclasses import fields

        from drim.config import SPEC_KEYS
        from drim.harness import _policy_tag

        spec = ExperimentSpec()
        assert _policy_tag(spec) == self.PARENT_DEFAULT_TAG
        changed = {"gamma": 0.9, "clip_epsilon": 0.3, "entropy_coef": 0.02, "p_nv": 0.5}
        variants = []
        for key, (section, _) in SPEC_KEYS.items():
            if section == "training":
                value = changed.get(key, getattr(spec.ppo, key) * 2)
                variants.append(replace(spec, ppo=replace(spec.ppo, **{key: value})))
            elif section == "episode":
                variants.append(replace(spec, **{key: changed.get(key, getattr(spec, key) * 2)}))
        tags = {_policy_tag(spec)} | {_policy_tag(variant) for variant in variants}
        assert len(variants) == len(fields(PPOConfig)) + 5  # k, p_t, p_f, p_nv, prior_a
        assert len(tags) == 1 + len(variants)

    def test_community_contract_moves_only_c_storm_paths(self, monkeypatch):
        from drim import harness

        spec = ExperimentSpec()
        before = {scheme: policy_paths(spec, scheme, "drl") for scheme in Scheme}
        assert before[Scheme.DRIM_A][0].name == f"drim-a_uom_vs_drl_{self.PARENT_DEFAULT_TAG}_s0.bin"
        monkeypatch.setattr(harness, "COMMUNITY_CONTRACT", "other community labels")
        after = {scheme: policy_paths(spec, scheme, "drl") for scheme in Scheme}
        assert harness._policy_tag(spec) == self.PARENT_DEFAULT_TAG
        for scheme in Scheme:
            moved = [a != b for a, b in zip(after[scheme], before[scheme])]
            assert moved == [scheme is Scheme.C_STORM] * 2, scheme

    def test_tag_covers_draw_contract(self, monkeypatch):
        from drim import harness

        spec = ExperimentSpec()
        before = harness._policy_tag(spec)
        monkeypatch.setattr(harness, "DRAW_CONTRACT", "another stream")
        assert harness._policy_tag(spec) != before

    def test_failed_write_leaves_no_policy_and_retrains(self, tmp_path, tiny_dataset, monkeypatch):
        from drim import harness

        spec = tiny_spec(tmp_path, tiny_dataset)
        tp_path, _ = policy_paths(spec, spec.scheme, spec.fp_strategy)

        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        def save_then_fail(params, path):
            params.critic.w3 = Unwritable()  # raises after ten of twelve arrays
            save_params(params, path)

        monkeypatch.setattr(harness, "save_params", save_then_fail)
        with pytest.raises(OSError, match="disk full"):
            ensure_policies(spec, [(spec.scheme, spec.fp_strategy)], workers=1)
        assert not tp_path.exists()
        curve = tp_path.with_suffix(".curve.csv")
        assert [p.name for p in spec.policy_dir.iterdir()] == [curve.name]  # no temp file

        monkeypatch.undo()
        ensure_policies(spec, [(spec.scheme, spec.fp_strategy)], workers=1)
        load_params(tp_path, expected_actions=4)


class TestBench:
    """Table 2's timings: the `timings.csv` of the evaluation's own
    lockstep batches."""

    def test_times_positive(self, tmp_path, tiny_dataset):
        spec = tiny_spec(tmp_path, tiny_dataset, runs=3)
        run_grid(spec, workers=1)
        with open(spec.out_dir / "timings.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["run"], r["batch"]) for r in rows] == [("0", "0"), ("1", "0"), ("2", "0")]
        assert all(float(r["seconds"]) > 0 for r in rows)
        # one batch: every run is timed as the batch's clock over its size
        assert len({r["seconds"] for r in rows}) == 1

    def test_episodes_run_one_blas_thread(self, tmp_path, tiny_dataset, monkeypatch):
        from drim import harness
        from drim.harness import _openblas_controls

        controls = _openblas_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        spec = tiny_spec(tmp_path, tiny_dataset, scheme=Scheme.STORM)
        ensure_policies(spec, [(Scheme.STORM, spec.fp_strategy)], workers=1)
        seen = []

        def probed(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return run_lockstep(*args, **kwargs)

        monkeypatch.setattr(harness, "run_lockstep", probed)
        before = [get() for get, _ in controls]
        try:
            for _, set_ in controls:
                set_(2)
            if [get() for get, _ in controls] != [2] * len(controls):
                pytest.skip("OpenBLAS would not run 2 threads")
            run_grid(spec, workers=1)
            after = [get() for get, _ in controls]
        finally:
            for (_, set_), threads in zip(controls, before):
                set_(threads)
        assert seen == [[1] * len(controls)]  # the cell's one in-process batch
        assert after == [2] * len(controls)


def synthetic_rows() -> list[ResultRow]:
    rows = []
    for scheme in ("drim-a", "drim-na", "storm", "cstorm"):
        for om in OPINION_MODELS:
            for fp in FP_STRATEGIES:
                rows.append(
                    ResultRow(scheme, om, fp, "none", "none", 2,
                              800.0, 10.0, 300.0, 750.0)
                )
    return rows


def results_dir(path: Path, rows: list[ResultRow]) -> list[Path]:
    """One output directory holding rows as its results.csv."""
    write_results_csv(path / "results.csv", rows)
    return [path]


def pinned_dir(path: Path) -> list[Path]:
    """One output directory for the layout pins: a results.csv of every
    Table 1 cell and each axis's five default points (uom vs drl), and a
    timings.csv of three runs, in two batches, of their cf and drl cells."""
    cells = [(scheme, om, fp, "none", "none") for scheme in ("drim-a", "drim-na", "storm", "cstorm")
             for om in OPINION_MODELS for fp in FP_STRATEGIES]
    cells += [(scheme, "uom", "drl", axis, f"{value:g}") for axis, values in SWEEP_DEFAULTS.items()
              for value in values for scheme in ("drim-a", "drim-na", "storm", "cstorm")]
    write_results_csv(path / "results.csv", [ResultRow(*cell, 2, 800.0 - 3.5 * i, 10.0, 300.0,
                                                       1000 / (i + 3))
                                             for i, cell in enumerate(cells)])
    write_timings_csv(path / "timings.csv", [(*cell, run, (i % 7 + 1) / (run + 3), run // 2)
                                             for i, cell in enumerate(cells)
                                             if cell[2] in ("cf", "drl") for run in range(3)])
    return [path]


# Each layout of pinned_dir, as drim wrote it before its layouts shared one
# reader; a change to any byte is a change to the report.
LAYOUT_PINS = {
    "table1": """\
scheme_om,random,af,bf,sgf,cf,drl
drim-a/uom,333.3333,250.0000,200.0000,166.6667,142.8571,125.0000
drim-a/hom,111.1111,100.0000,90.9091,83.3333,76.9231,71.4286
drim-a/nom,66.6667,62.5000,58.8235,55.5556,52.6316,50.0000
drim-na/uom,47.6190,45.4545,43.4783,41.6667,40.0000,38.4615
drim-na/hom,37.0370,35.7143,34.4828,33.3333,32.2581,31.2500
drim-na/nom,30.3030,29.4118,28.5714,27.7778,27.0270,26.3158
storm/uom,25.6410,25.0000,24.3902,23.8095,23.2558,22.7273
storm/hom,22.2222,21.7391,21.2766,20.8333,20.4082,20.0000
storm/nom,19.6078,19.2308,18.8679,18.5185,18.1818,17.8571
cstorm/uom,17.5439,17.2414,16.9492,16.6667,16.3934,16.1290
cstorm/hom,15.8730,15.6250,15.3846,15.1515,14.9254,14.7059
cstorm/nom,14.4928,14.2857,14.0845,13.8889,13.6986,13.5135
""",
    "fig2": """\
scheme,random,af,bf,sgf,cf,drl
drim-a,333.3333,250.0000,200.0000,166.6667,142.8571,125.0000
drim-na,47.6190,45.4545,43.4783,41.6667,40.0000,38.4615
storm,25.6410,25.0000,24.3902,23.8095,23.2558,22.7273
cstorm,17.5439,17.2414,16.9492,16.6667,16.3934,16.1290
""",
    "fig3a": """\
ip,drim-a,drim-na,storm,cstorm
1,13.3333,13.1579,12.9870,12.8205
2,12.6582,12.5000,12.3457,12.1951
3,12.0482,11.9048,11.7647,11.6279
4,11.4943,11.3636,11.2360,11.1111
5,10.9890,10.8696,10.7527,10.6383
""",
    "fig3b": """\
p_nv,drim-a,drim-na,storm,cstorm
0.2,10.5263,10.4167,10.3093,10.2041
0.4,10.1010,10.0000,9.9010,9.8039
0.6,9.7087,9.6154,9.5238,9.4340
0.8,9.3458,9.2593,9.1743,9.0909
1,9.0090,8.9286,8.8496,8.7719
""",
    "fig3c": """\
prior_a,drim-a,drim-na,storm,cstorm
0.1,8.6957,8.6207,8.5470,8.4746
0.3,8.4034,8.3333,8.2645,8.1967
0.5,8.1301,8.0645,8.0000,7.9365
0.7,7.8740,7.8125,7.7519,7.6923
0.9,7.6336,7.5758,7.5188,7.4627
""",
    "table2": """\
scheme,mean_episode_seconds,episodes_per_batch
drim-a,1.175000,1.5000
drim-na,0.696296,1.5000
storm,1.436111,1.5000
cstorm,0.652778,1.5000
""",
}


class TestEmitReport:
    def test_table1_shape(self, tmp_path):
        out = emit_report(results_dir(tmp_path, synthetic_rows()), "table1", tmp_path / "t1.csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 12
        assert lines[0].split(",") == ["scheme_om", *FP_STRATEGIES]
        assert lines[1].startswith("drim-a/uom,")

    def test_fig2_uses_uom_rows(self, tmp_path):
        out = emit_report(results_dir(tmp_path, synthetic_rows()), "fig2", tmp_path / "f2.csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_missing_cell_named(self, tmp_path):
        rows = [r for r in synthetic_rows() if not (r.scheme == "storm" and r.fp_strategy == "bf")]
        with pytest.raises(ValueError, match="scheme=storm.*fp_strategy=bf"):
            emit_report(results_dir(tmp_path, rows), "table1", tmp_path / "t1.csv")

    def test_fig3c_grid(self, tmp_path):
        rows = []
        for value in ("0.1", "0.3", "0.5", "0.7", "0.9"):
            for scheme in ("drim-a", "drim-na", "storm", "cstorm"):
                rows.append(
                    ResultRow(scheme, "uom", "drl", "prior_a", value, 2,
                              700.0, 5.0, 300.0, 650.0)
                )
        out = emit_report(results_dir(tmp_path, rows), "fig3c", tmp_path / "f3c.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "prior_a,drim-a,drim-na,storm,cstorm"
        assert len(lines) == 6

    def test_fig3_layout_without_its_axis_fails(self, tmp_path):
        # a results.csv of the other axes' sweeps only: no fig3a row at all
        rows = [ResultRow("storm", "uom", "cf", axis, "0.5", 2, 700.0, 5.0, 300.0, 650.0)
                for axis in ("p_nv", "prior_a")]
        with pytest.raises(ValueError, match="missing result cell: sweep_axis=ip"):
            emit_report(results_dir(tmp_path, rows + synthetic_rows()), "fig3a",
                        tmp_path / "f3a.csv")
        assert not (tmp_path / "f3a.csv").exists()

    @pytest.mark.parametrize("layout", ["table1", "fig3a"])
    def test_cell_in_two_directories_is_ambiguous(self, tmp_path, layout):
        # two sweeps (or two evaluations) of the same cells under different
        # opinion models: the report must not pick whichever came first
        dirs = []
        for om in ("uom", "nom"):
            rows = [ResultRow(scheme, om, "cf", "ip", value, 2, 800.0, 10.0, 300.0, 750.0)
                    for scheme in ("drim-a", "drim-na", "storm", "cstorm")
                    for value in ("1", "2")]
            dirs += results_dir(tmp_path / om, rows + synthetic_rows())
        with pytest.raises(ValueError, match="ambiguous result cell: scheme=drim-a"):
            emit_report(dirs, layout, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    @staticmethod
    def _timings_dir(path: Path, schemes, sweep_axis="none", sweep_value="none") -> Path:
        """An output directory whose timings.csv holds two runs, one
        batch each, of one cell per scheme."""
        write_timings_csv(path / "timings.csv", [
            (scheme, "uom", "cf", sweep_axis, sweep_value, run, 0.25 * (run + 1), run)
            for scheme in schemes for run in (0, 1)])
        return path

    def test_table2_scheme_in_two_directories_is_ambiguous(self, tmp_path):
        dirs = [self._timings_dir(tmp_path / name, ("drim-a", "drim-na", "storm", "cstorm"))
                for name in ("a", "b")]
        with pytest.raises(ValueError, match="ambiguous result cell: scheme=drim-a, "
                                             "opinion_model=uom, fp_strategy=cf"):
            emit_report(dirs, "table2", tmp_path / "t2.csv")
        assert not (tmp_path / "t2.csv").exists()

    def test_table2_pools_cells_across_directories(self, tmp_path):
        write_timings_csv(tmp_path / "b" / "timings.csv", [
            (scheme, om, "cf", "none", "none", run, 0.5, run // 2)
            for scheme in ("storm", "cstorm") for om in ("hom", "nom") for run in range(4)])
        dirs = [self._timings_dir(tmp_path / "a", ("drim-a", "drim-na")), tmp_path / "b",
                self._timings_dir(tmp_path / "sweep", ("storm",), "ip", "2")]
        out = emit_report(dirs, "table2", tmp_path / "t2.csv")
        assert out.read_text().splitlines() == [
            "scheme,mean_episode_seconds,episodes_per_batch",
            "drim-a,0.375000,1.0000",
            "drim-na,0.375000,1.0000",
            "storm,0.500000,2.0000",
            "cstorm,0.500000,2.0000",
        ]

    @pytest.mark.parametrize("dirs, missing", [
        ([("a", ("drim-a", "storm"), "none"), ("b", ("drim-na",), "none")], "cstorm"),
        ([("sweep", ("drim-a", "drim-na", "storm", "cstorm"), "ip")],
         "drim-a,drim-na,storm,cstorm"),
    ], ids=["absent-scheme", "sweep-only"])
    def test_table2_scheme_without_rows_is_missing(self, tmp_path, dirs, missing):
        paths = [self._timings_dir(tmp_path / name, schemes, axis,
                                   "none" if axis == "none" else "1")
                 for name, schemes, axis in dirs]
        with pytest.raises(ValueError, match=f"missing result cell: scheme={missing}$"):
            emit_report(paths, "table2", tmp_path / "t2.csv")
        assert not (tmp_path / "t2.csv").exists()

    @pytest.mark.parametrize("layout, name, text, missing", [
        ("table2", "timings.csv",  # as written before the batch column
         "scheme,opinion_model,fp_strategy,sweep_axis,sweep_value,run,seconds\n"
         "storm,uom,cf,none,none,0,0.5\n", "batch"),
        ("table1", "results.csv", "scheme,opinion_model\nstorm,uom\n",
         "fp_strategy, sweep_axis, sweep_value, runs"),
    ])
    def test_file_without_a_column_is_named(self, tmp_path, layout, name, text, missing):
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=f"{name} has no {missing}"):
            emit_report([tmp_path], layout, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_unknown_layout(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(results_dir(tmp_path, synthetic_rows()), "fig9", tmp_path / "x.csv")

    @pytest.mark.parametrize("layout", sorted(LAYOUT_PINS))
    def test_layout_bytes_pinned(self, tmp_path, layout):
        out = emit_report(pinned_dir(tmp_path), layout, tmp_path / "out.csv")
        assert out.read_bytes() == LAYOUT_PINS[layout].encode()

    @pytest.mark.parametrize("layout, name, duplicate_row, named", [
        ("table2", "timings.csv", False, "scheme=drim-a, opinion_model=uom, fp_strategy=cf, "
                                         "sweep_axis=none, sweep_value=none in {d}/timings.csv:2 "
                                         "and {d}/timings.csv:2"),
        ("table1", "results.csv", False, "scheme=drim-a, opinion_model=uom, fp_strategy=random, "
                                         "sweep_axis=none in {d}/results.csv:66 and "
                                         "{d}/results.csv:66"),
        ("fig3a", "results.csv", True, "scheme=drim-a, sweep_axis=ip, sweep_value=1 in "
                                       "{d}/results.csv:3 and {d}/results.csv:7"),
    ], ids=["table2-directory-twice", "table1-directory-twice", "fig3a-row-twice"])
    def test_cell_matched_twice_is_ambiguous(self, tmp_path, layout, name, duplicate_row, named):
        # one directory given twice counts as two; a results.csv cell is one row
        d = pinned_dir(tmp_path)[0]
        path = d / name
        lines = path.read_text().splitlines(keepends=True)
        if duplicate_row:
            path.write_text("".join(lines[:1] + [line for line in lines[1:] if ",ip,1," in line]
                                    * 2))
            dirs = [d]
        else:
            dirs = [d, d]
        with pytest.raises(ValueError) as exc:
            emit_report(dirs, layout, tmp_path / "out.csv")
        assert str(exc.value) == "ambiguous result cell: " + named.format(d=d)
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("layout, name, pick, column, value, named", [
        ("table1", "results.csv", ",none,none,", 0, "bogus", "'bogus' is not a valid Scheme"),
        ("table2", "timings.csv", ",none,none,", 0, "bogus", "'bogus' is not a valid Scheme"),
        ("table2", "timings.csv", ",none,none,", 1, "xom", "unknown opinion model 'xom'"),
        ("fig3a", "results.csv", ",ip,1,", 4, "none", "could not convert string to float: 'none'"),
        ("table1", "results.csv", ",none,none,", 4, "0.5",
         "sweep_values ('0.5',) given without a sweep_axis"),
    ], ids=["results-scheme", "timings-scheme", "timings-om", "sweep-value-word",
            "sweep-value-without-axis"])
    def test_cell_outside_the_grids_is_named(self, tmp_path, layout, name, pick, column, value,
                                             named):
        # the file keeps one row, the one `pick` finds, with one coordinate changed
        d = pinned_dir(tmp_path)[0]
        path = d / name
        header, *lines = path.read_text().splitlines()
        row = next(line for line in lines if pick in line).split(",")
        row[column] = value
        path.write_text(f"{header}\n{','.join(row)}\n")
        with pytest.raises(ValueError) as exc:
            emit_report([d], layout, tmp_path / "out.csv")
        assert str(exc.value) == f"{path}:2: {named}"
        assert not (tmp_path / "out.csv").exists()


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(
            "[experiment]\n"
            "scheme = storm\n"
            "opinion_model = hom\n"
            "fp_strategy = random\n"
            "runs = 4\n"
            "master_seed = 7\n"
            "[episode]\n"
            "k = 12\n"
            "p_nv = 0.6\n"
            "[training]\n"
            "updates = 3\n"
            "actor_lr = 0.01\n"
            "[sweep]\n"
            "axis = prior_a\n"
            "values = 0.2, 0.8\n"
        )
        spec = parse_spec_file(cfg)
        assert spec.scheme is Scheme.STORM
        assert spec.opinion_model == "hom"
        assert spec.runs == 4
        assert spec.k == 12
        assert spec.p_nv == 0.6
        assert spec.ppo.updates == 3
        assert spec.ppo.actor_lr == 0.01
        assert spec.sweep_axis == "prior_a"
        assert spec.sweep_values == (0.2, 0.8)

    def test_overrides_beat_file(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("[experiment]\nscheme = storm\nruns = 4\n")
        spec = parse_spec_file(cfg, {"runs": 9, "scheme": "drim-na"})
        assert spec.runs == 9
        assert spec.scheme is Scheme.DRIM_NA

    @pytest.mark.parametrize("text,name", [
        ("[experiment]\nbogus = 1\n", "bogus"),
        ("[experimnet]\nruns = 3\n", "experimnet"),
        ("[sweep]\naxes = ip\n", "axes"),
        ("[sweep]\nvalues = 0.1, 0.2\n", "sweep_axis"),
        ("[DEFAULT]\nruns = 3\n", "DEFAULT"),
    ], ids=["key", "section", "sweep-key", "values-without-axis", "default-section"])
    def test_unknown_key_rejected(self, tmp_path, text, name):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=name):
            parse_spec_file(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_spec_file(tmp_path / "nope.cfg")

    def test_percent_in_value_is_literal(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("[experiment]\ndataset = a%b.edges\n")
        assert parse_spec_file(cfg).dataset == "a%b.edges"

    @pytest.mark.parametrize("text,expected", [
        ("1", True), ("YES", True), ("true", True), ("On", True),
        ("0", False), ("no", False), ("FALSE", False), ("off", False),
    ])
    def test_auto_train_takes_boolean_words(self, tmp_path, text, expected):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(f"[experiment]\nauto_train = {text}\n")
        assert parse_spec_file(cfg).auto_train is expected
        assert parse_spec_file(None, {"auto_train": text}).auto_train is expected

    @pytest.mark.parametrize("text", ["ture", "", "2", "enabled"])
    def test_auto_train_rejects_other_text(self, tmp_path, text):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(f"[experiment]\nauto_train = {text}\n")
        pattern = f"auto_train.*{text!r}"
        with pytest.raises(ValueError, match=pattern):
            parse_spec_file(cfg)
        with pytest.raises(ValueError, match=pattern):
            parse_spec_file(None, {"auto_train": text})

    @pytest.mark.parametrize("key,text", [
        ("gamma", "1.0"), ("gamma", "1.5"), ("gamma", "0"),
        ("selfplay_alternations", "0"),
        ("actor_lr", "nan"), ("critic_lr", "inf"), ("entropy_coef", "-5.0"),
        ("entropy_coef", "nan"),
    ])
    def test_bad_training_values_rejected(self, tmp_path, key, text):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(f"[training]\n{key} = {text}\n")
        pattern = f"{key} must.*got {text}"
        with pytest.raises(ValueError, match=pattern):
            parse_spec_file(cfg)
        with pytest.raises(ValueError, match=pattern):
            parse_spec_file(None, {key: text})

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown spec override 'bogus'"):
            parse_spec_file(None, {"runs": 2, "bogus": 1})

    def test_no_file_defaults(self):
        spec = parse_spec_file(None, {"runs": 2})
        assert spec.runs == 2
        assert spec.scheme is Scheme.DRIM_A


class TestAuxCsvWriters:
    def test_roundlog_format(self, tmp_path):
        from drim.network import Graph

        g = Graph(8, [(i, i + 1) for i in range(7)])
        cfg = EpisodeConfig(k=2, opinion_model=NOM, rng_seed=0)
        ep = run_episode(g, cfg, make_heuristic_agent("cf"), make_heuristic_agent("sgf"))
        out = tmp_path / "rounds.csv"
        write_roundlog_csv(out, [(0, ep.logs)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "episode,t,party,strategy,seed_id,n_true,n_false,reward"
        assert len(lines) == 1 + 4  # 2 rounds x 2 parties

    def test_counts_print_as_integers(self, tmp_path):
        big = 1234567
        write_raw_csv(tmp_path / "raw.csv", [{**TestAtomicResultCsvs.GOOD_RAW, "n_true": big}])
        assert (tmp_path / "raw.csv").read_text().splitlines()[1] == \
            f"drim-a,uom,cf,none,none,0,{big},2,0,1"
        log = RoundLog(1, Party.FALSE_PARTY, 3, "cf", big, 1, big)
        write_roundlog_csv(tmp_path / "rounds.csv", [(0, [log])])
        assert (tmp_path / "rounds.csv").read_text().splitlines()[1] == \
            f"0,1,fp,cf,3,{big},1,{big}"


class TestAtomicResultCsvs:
    """A result CSV write that raises midway leaves the previous file and
    no temp file behind."""

    GOOD_RAW = {"scheme": "drim-a", "opinion_model": "uom", "fp_strategy": "cf",
                "sweep_axis": "none", "sweep_value": "none", "run": 0, "n_true": 1,
                "n_false": 2, "decided_n_true": 0, "decided_n_false": 1,
                "reached": 3, "reads": 2, "fusions": 1, "refreshes": 0, "frozen": 0,
                "degenerate": 0}

    @pytest.mark.parametrize("name, write, good, bad", [
        ("results.csv", write_results_csv, synthetic_rows(), [object()]),
        ("raw_runs.csv", write_raw_csv, [GOOD_RAW], [{"scheme": "x"}]),
        ("counters.csv", write_counters_csv, [GOOD_RAW], [{"scheme": "x"}]),
        ("timings.csv", write_timings_csv, [("a", "b", "c", "d", "e", 0, 0.5, 0)], [("x",)]),
        ("rounds.csv", write_roundlog_csv,
         [(0, [RoundLog(1, Party.FALSE_PARTY, 3, "cf", 0, 1, 1)])], [(1, [object()])]),
    ])
    def test_failed_write_keeps_previous_file(self, tmp_path, name, write, good, bad):
        path = tmp_path / name
        write(path, good)
        before = path.read_bytes()
        assert before.count(b"\n") == 1 + len(good)
        with pytest.raises((AttributeError, KeyError, ValueError)):
            write(path, good * 50 + bad)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_failed_report_keeps_previous_file(self, tmp_path, monkeypatch):
        from drim import harness

        class Unprintable:
            def __str__(self):
                raise ValueError("cannot format")

        dirs = results_dir(tmp_path / "in", synthetic_rows())
        out = tmp_path / "out" / "fig2.csv"
        emit_report(dirs, "fig2", out)
        before = out.read_bytes()
        header, *lines = csv.reader(before.decode().splitlines())
        monkeypatch.setattr(harness, "_pivot_results",
                            lambda index, layout: (header, lines * 50 + [[Unprintable()]]))
        with pytest.raises(ValueError, match="cannot format"):
            emit_report(dirs, "fig2", out)
        assert out.read_bytes() == before
        assert sorted(p.name for p in out.parent.iterdir()) == ["fig2.csv"]
