"""CLI surface: subcommands exist, run, and document their flags."""

from __future__ import annotations

import argparse
import csv
import re
from pathlib import Path

import numpy as np
import pytest

from drim import cli, harness
from drim.cli import build_parser, main


@pytest.fixture(scope="module")
def tiny_edges(tmp_path_factory):
    rng = np.random.default_rng(1)
    path = tmp_path_factory.mktemp("cli") / "g.edges"
    with open(path, "w") as fh:
        for i in range(1, 20):
            fh.write(f"{i} {i + 1}\n")
        for _ in range(20):
            a, b = rng.integers(1, 21, 2)
            if a != b:
                fh.write(f"{a} {b}\n")
    return path


TRAIN_FAST = [
    "--k", "3", "--updates", "1", "--rollout-episodes", "2", "--epochs", "2", "--hidden", "8",
]
FAST = [*TRAIN_FAST, "--workers", "1", "--runs", "2"]
# A self-play cell of one alternation; it trains updates / 2 updates per side.
SELFPLAY_FAST = [
    "--k", "3", "--selfplay-alternations", "1", "--rollout-episodes", "2", "--epochs", "2",
    "--hidden", "8",
]

# Every subcommand's option strings, pinned so no flag is added or lost
# unnoticed. SETTING_FLAGS are the flags of the experiment settings every
# command reads; train has no flag for a setting it ignores.
HELP_FLAGS = ["-h", "--help"]
SETTING_FLAGS = [
    "--actor-lr", "--clip-epsilon", "--critic-lr", "--dataset", "--entropy-coef", "--epochs",
    "--gamma", "--hidden", "--k", "--master-seed", "--om", "--p-f", "--p-nv", "--p-t",
    "--prior-a", "--rollout-episodes", "--selfplay-alternations", "--updates",
]
OPTION_STRINGS = {
    "train": [*HELP_FLAGS, *SETTING_FLAGS, "--fp", "--policies", "--scheme", "--out", "--spec"],
    "eval": [*HELP_FLAGS, *SETTING_FLAGS, "--fp", "--no-auto-train", "--policies", "--runs",
             "--scheme", "--axis", "--out", "--spec", "--values", "--workers"],
    "report": [*HELP_FLAGS, "--layout", "--out", "--results"],
}


class TestParser:
    @pytest.mark.parametrize("cmd", ["train", "eval", "report"])
    def test_help_available(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

    def test_option_strings_pinned(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {name: sorted(o for a in p._actions for o in a.option_strings)
               for name, p in sub.choices.items()}
        assert got == {name: sorted(flags) for name, flags in OPTION_STRINGS.items()}

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["destroy"])

    def test_sweep_command_is_gone(self, capsys):
        # `eval --axis` sweeps; there is no second command for it
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--axis", "ip", "--values", "1,2"])
        assert exc.value.code == 2
        assert "argument command: invalid choice: 'sweep'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["train", "--opponent", "cf"], "unrecognized arguments: --opponent cf"),
        (["train", "--fp", "cf", "--runs", "9"], "unrecognized arguments: --runs 9"),
        (["train", "--fp", "cf", "--no-auto-train"], "unrecognized arguments: --no-auto-train"),
        (["train", "--axis", "ip", "--values", "1"],
         "unrecognized arguments: --axis ip --values 1"),
        (["eval", "--axis", "ip", "--range", "1:5"], "unrecognized arguments: --range 1:5"),
        (["eval", "--axis", "p_t"], "argument --axis: invalid choice: 'p_t'"),
        (["eval", "--workers", "two"], "argument --workers: invalid int value: 'two'"),
        (["eval", "--scheme", "foo"], "argument --scheme: invalid choice: 'foo' (choose from "
                                      "drim-a, drim-na, storm, cstorm)"),
        (["eval", "--om", "uom,xyz"], "argument --om: invalid choice: 'xyz'"),
        (["eval", "--fp", "zzz"], "argument --fp: invalid choice: 'zzz'"),
        (["eval", "--fp", "cf,random,cf"], "argument --fp: 'cf' given twice"),
        (["eval", "--axis", "ip", "--scheme", "storm,storm"],
         "argument --scheme: 'storm' given twice"),
        (["eval", "--axis", "ip", "--scheme", "drim-a,"],
         "argument --scheme: invalid choice: ''"),
        (["eval", "--schemes", "drim-a"], "unrecognized arguments: --schemes drim-a"),
        (["train", "--scheme", "drim-a,storm"],
         "argument --scheme: invalid choice: 'drim-a,storm'"),
    ], ids=["train-opponent", "train-runs", "train-no-auto-train", "train-sweep", "sweep-range",
            "axis-unknown", "eval-workers-word", "eval-schemes-unknown", "eval-oms-unknown",
            "eval-fps-unknown", "eval-fps-repeated", "sweep-schemes-repeated",
            "sweep-schemes-empty-entry", "eval-schemes-gone", "train-scheme-list"])
    def test_ignored_settings_rejected(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,unknown", [
        (["train", "--opponent", "cf"], "--opponent cf"),
        (["eval", "--schemes", "drim-a"], "--schemes drim-a"),
        (["report", "--layout", "table2", "--results", "res", "--bogus", "1"], "--bogus 1"),
    ], ids=["train", "eval", "report"])
    def test_unknown_option_prints_subcommand_usage(self, argv, unknown, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: drim {argv[0]} ")
        assert err.endswith(f"drim {argv[0]}: error: unrecognized arguments: {unknown}\n")


class TestCommands:
    def test_eval_and_report(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main([
            "eval", "--scheme", "drim-a", "--om", "nom", "--fp", "cf",
            "--dataset", str(tiny_edges), "--out", str(out), *FAST,
        ])
        assert rc == 0
        assert (out / "results.csv").exists()
        capsys.readouterr()

    def test_eval_workers_zero_fails_before_training(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "res"
        args = list(FAST)
        args[args.index("--workers") + 1] = "0"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--dataset", str(tiny_edges), "--out", str(out), *args])
        assert exc.value.code == 2
        assert "drim eval: error: workers=0 is not an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_ignores_workers_in_environment(self, tiny_edges, tmp_path, monkeypatch):
        monkeypatch.setenv("DRIM_WORKERS", "0")
        out = tmp_path / "res"  # no --workers, so the pool size is the default's
        argv = ["eval", "--dataset", str(tiny_edges), "--out", str(out), *TRAIN_FAST, "--runs", "1"]
        assert main(argv) == 0
        assert (out / "results.csv").exists()

    def test_percent_in_spec_dataset_names_the_dataset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("spec.cfg").write_text("[experiment]\ndataset = a%b.edges\n")
        assert main(["eval", "--spec", "spec.cfg", "--out", "res"]) == 2
        assert capsys.readouterr().err.startswith("drim eval: error: --dataset a%b.edges: [Errno 2]")
        assert not Path("res").exists()

    def _ring_game(self, tmp_path, monkeypatch, command, *args):
        """`command` on a 5-node ring at k = 3: 2·k = 6 seeds would not fit."""
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool or trained a policy")

        monkeypatch.setattr(harness, "_parallel_map", no_pool)
        monkeypatch.setattr(harness, "train_agent", no_pool)
        ring = tmp_path / "ring.edges"
        ring.write_text("".join(f"{i} {i % 5 + 1}\n" for i in range(1, 6)))
        out, policies = tmp_path / "res", tmp_path / "policies"
        rc = main([command, *args, "--fp", "cf", "--dataset", str(ring), "--out", str(out),
                   "--policies", str(policies)])
        assert not out.exists()
        assert not policies.exists()
        return rc

    def test_train_fails_before_training_when_seeds_outnumber_users(self, tmp_path, capsys,
                                                                    monkeypatch):
        rc = self._ring_game(tmp_path, monkeypatch, "train", "--scheme", "storm", *TRAIN_FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert "drim train: error: --k 3" in err and "n=5" in err

    def test_eval_fails_before_training_when_seeds_outnumber_users(self, tmp_path, capsys,
                                                                   monkeypatch):
        rc = self._ring_game(tmp_path, monkeypatch, "eval", "--scheme", "storm", *FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert "drim eval: error: --k 3" in err and "n=5" in err

    def test_sweep_fails_before_training_when_seeds_outnumber_users(self, tmp_path, capsys,
                                                                    monkeypatch):
        rc = self._ring_game(tmp_path, monkeypatch, "eval", "--axis", "ip", "--values", "1",
                             "--scheme", "storm", *FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert "drim eval: error: --k 3" in err and "n=5" in err

    @pytest.mark.parametrize("command", [["train"], ["eval", "--runs", "2"]])
    @pytest.mark.parametrize("dataset, cause", [
        (None, "No such file or directory"),
        ("1 2\n0 3\n", "line 2: node ids start at 1, got '0 3'"),
    ], ids=["absent", "zero-id"])
    def test_bad_dataset_is_usage_error(self, tmp_path, capsys, monkeypatch, command, dataset,
                                        cause):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a policy")

        monkeypatch.setattr(harness, "train_agent", no_training)
        path = tmp_path / "g.edges"
        if dataset is not None:
            path.write_text(dataset)
        out = tmp_path / "res"
        rc = main([*command, "--fp", "cf", "--dataset", str(path), "--out", str(out),
                   *TRAIN_FAST])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"drim {command[0]}: error: --dataset {path}: ")
        assert cause in err
        assert not out.exists()

    def test_workers_help_names_processes(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval", "--help"])
        assert "worker processes" in capsys.readouterr().out

    def test_train_writes_policy(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main([
            "train", "--scheme", "storm", "--fp", "cf", "--om", "nom",
            "--dataset", str(tiny_edges), "--out", str(out), *TRAIN_FAST,
        ])
        assert rc == 0
        policy = Path(capsys.readouterr().out.split()[1])
        assert policy.parent == out / "policies" and policy.name.startswith("storm_nom_vs_cf_")
        assert sorted(p.name for p in policy.parent.iterdir()) == sorted(
            (policy.name, policy.with_suffix(".curve.csv").name))

    def test_eval_reads_the_policies_train_wrote(self, tiny_edges, tmp_path, capsys,
                                                monkeypatch):
        out = tmp_path / "res"
        cell = ["--scheme", "drim-a", "--om", "nom", "--fp", "drl", "--dataset", str(tiny_edges),
                "--out", str(out), *SELFPLAY_FAST, "--updates", "2"]
        assert main(["train", *cell]) == 0
        wrote = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert [path.endswith("_fp.bin") for path in wrote] == [True, False]
        policies = {path: (out / "policies" / path).read_bytes()
                    for path in sorted(p.name for p in (out / "policies").iterdir())}

        def no_training(*args, **kwargs):
            raise AssertionError("trained a policy")

        monkeypatch.setattr(harness, "train_agent", no_training)
        assert main(["eval", *cell, "--no-auto-train", "--runs", "2", "--workers", "1"]) == 0
        assert (out / "results.csv").read_text().splitlines()[1].startswith("drim-a,nom,drl,")
        assert policies == {path: (out / "policies" / path).read_bytes() for path in policies}
        assert sorted(str(out / "policies" / path) for path in policies if "curve" not in path) \
            == sorted(wrote)

    def test_selfplay_splits_updates_over_sides(self, tiny_edges, tmp_path):
        out = tmp_path / "res"
        rc = main(["train", "--scheme", "drim-a", "--fp", "drl", "--dataset", str(tiny_edges),
                   "--out", str(out), *SELFPLAY_FAST, "--updates", "4"])
        assert rc == 0
        curve = next((out / "policies").glob("*.curve.csv")).read_text().splitlines()
        assert [row.split(",")[0] for row in curve[1:]] == ["0", "1"]  # 4 = 2 sides · 2

    def test_selfplay_uneven_updates_is_usage_error(self, tiny_edges, tmp_path, capsys,
                                                    monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a policy")

        monkeypatch.setattr(harness, "train_agent", no_training)
        out = tmp_path / "res"
        rc = main(["train", "--scheme", "drim-a", "--fp", "drl", "--dataset", str(tiny_edges),
                   "--out", str(out), *SELFPLAY_FAST, "--updates", "3"])
        assert rc == 2
        assert ("drim train: error: --updates 3: self-play cannot split it evenly over 2 sides "
                "× 1 alternation(s)\n") in capsys.readouterr().err
        assert not out.exists()

    def test_train_rejects_workers(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--fp", "cf", "--dataset", str(tiny_edges),
                  "--out", str(out), *TRAIN_FAST, "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "1.0"), ("--selfplay-alternations", "0"), ("--actor-lr", "nan"),
        ("--critic-lr", "inf"), ("--entropy-coef", "-5.0"),
    ])
    def test_train_rejects_bad_ppo_values_before_training(self, tiny_edges, tmp_path, capsys,
                                                          flag, value):
        out = tmp_path / "res"
        field = flag[2:].replace("-", "_")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--scheme", "drim-a", "--fp", "drl", "--dataset",
                  str(tiny_edges), "--out", str(out), *TRAIN_FAST, flag, value])
        assert exc.value.code == 2
        assert re.search(f"drim train: error: {field} must.*got {value}", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv, spec_text, message", [
        (["eval", "--runs", "0"], None, "runs must be >= 1"),
        (["eval", "--p-nv", "2"], None, "p_nv must lie in [0, 1], got 2.0"),
        (["eval", "--axis", "p_nv", "--values", "0.2,7"], None,
         "p_nv must lie in [0, 1], got 7.0"),
        (["eval", "--axis", "p_nv", "--values", "0.2,0.2"], None,
         "sweep points 0.2 and 0.2 share the coordinate sweep_value=0.2"),
        (["eval", "--values", "1,2"], None,
         "sweep_values ('1', '2') given without a sweep_axis"),
        (["eval"], "[episode]\nk = 0\n", "k must be a whole number >= 1, got 0"),
        (["eval"], "[episode]\nk = three\n",
         "k: invalid literal for int() with base 10: 'three'"),
        (["train"], "[experiment]\nauto_train = ture\n",
         "auto_train: expected one of 1/yes/true/on or 0/no/false/off, got 'ture'"),
        (["eval"], "[experiment]\nrunz = 3\n", "unknown key 'runz' in [experiment]"),
        (["eval", "--spec", "absent.cfg"], None, "config file absent.cfg not found"),
        (["eval"], "[episode]\nk = 3\nk = 4\n",
         "config file spec.cfg: While reading from 'spec.cfg' [line 3]: option 'k' in section "
         "'episode' already exists"),
        (["eval"], "k = 3\n", "config file spec.cfg: File contains no section headers. "
                              "file: 'spec.cfg', line: 1 'k = 3\\n'"),
        (["eval"], "[episode]\nk\n", "config file spec.cfg: Source contains parsing "
                                     "errors: 'spec.cfg' [line 2]: 'k\\n'"),
        (["eval", "--axis", "ip", "--runs", "0"], None, "runs must be >= 1"),
        (["eval", "--workers", "0"], None, "workers=0 is not an integer >= 1"),
        (["eval", "--workers", "-1"], None, "workers=-1 is not an integer >= 1"),
        (["eval", "--axis", "ip", "--workers", "0"], None,
         "workers=0 is not an integer >= 1"),
    ], ids=["runs-zero", "p-nv-two", "sweep-point-out-of-range", "sweep-points-share-coordinate",
            "values-without-axis", "file-k-zero", "file-k-word", "file-auto-train-typo", "file-unknown-key",
            "missing-spec-file", "file-duplicate-key", "file-no-section-header",
            "file-key-without-equals", "sweep-runs-zero",
            "eval-workers-zero", "eval-workers-negative",
            "sweep-workers-zero"])
    def test_bad_setting_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, spec_text,
                                        message):
        def no_work(*args, **kwargs):
            raise AssertionError("loaded a graph or trained a policy")

        monkeypatch.setattr(harness, "load_graph", no_work)
        monkeypatch.setattr(harness, "train_agent", no_work)
        monkeypatch.chdir(tmp_path)
        if spec_text is not None:
            Path("spec.cfg").write_text(spec_text)
            argv = [*argv, "--spec", "spec.cfg"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", "res"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: drim {argv[0]}")
        assert f"drim {argv[0]}: error: {message}\n" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (["spec.cfg"] if spec_text else [])

    def test_missing_policy_without_auto_train_is_usage_error(self, tiny_edges, tmp_path,
                                                              capsys, monkeypatch):
        out = tmp_path / "res"
        argv = ["eval", "--dataset", str(tiny_edges), "--no-auto-train", "--out", str(out), *FAST]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"drim eval: error: missing policy file "
                            rf"{re.escape(str(out / 'policies'))}/drim-a_uom_vs_cf_\w+_s0\.bin "
                            rf"\(auto_train disabled\)\n", err)
        assert not out.exists()

        def absent(*args, **kwargs):  # any other missing file is not a usage error
            raise FileNotFoundError("elsewhere")

        monkeypatch.setattr(cli, "run_grid", absent)
        with pytest.raises(FileNotFoundError, match="elsewhere"):
            main(argv)

    def test_sweep_points_come_from_values_else_file_else_axis(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "run_grid", lambda spec, *args, **kwargs: specs.append(spec) or [])
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("[sweep]\naxis = ip\nvalues = 2 3\n")
        for argv in (["--values", "4"], ["--spec", str(cfg)], []):
            assert main(["eval", "--axis", "ip", "--out", str(tmp_path), *argv]) == 0
        assert [spec.sweep_values for spec in specs] == [(4,), (2, 3), (1, 2, 3, 4, 5)]

    def test_sweep(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main([
            "eval", "--axis", "ip", "--values", "1,2", "--scheme", "drim-na",
            "--om", "nom", "--fp", "cf", "--dataset", str(tiny_edges),
            "--out", str(out), *FAST,
        ])
        assert rc == 0
        text = (out / "results.csv").read_text()
        assert ",ip,1," in text and ",ip,2," in text
        assert "drim-na/nom vs cf @1: decided n^T" in capsys.readouterr().out

    def test_sweep_flags_match_spec_file(self, tiny_edges, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\naxis = ip\nvalues = 1 2\n")
        cell = ["--scheme", "drim-a", "--om", "nom", "--fp", "cf", "--dataset", str(tiny_edges),
                "--policies", str(tmp_path / "policies"), *FAST]
        assert main(["eval", "--axis", "ip", "--values", "1,2", "--out", str(tmp_path / "flags"),
                     *cell]) == 0
        assert main(["eval", "--spec", str(cfg), "--out", str(tmp_path / "file"), *cell]) == 0
        for name in ("results.csv", "raw_runs.csv", "counters.csv"):
            flags = (tmp_path / "flags" / name).read_bytes()
            assert flags == (tmp_path / "file" / name).read_bytes(), name
        assert b",ip,2," in (tmp_path / "flags" / "results.csv").read_bytes()

    def test_cell_flags_match_spec_file(self, tiny_edges, tmp_path, capsys):
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("[experiment]\nscheme = storm\nopinion_model = nom\nfp_strategy = cf\n")
        common = ["--dataset", str(tiny_edges), "--policies", str(tmp_path / "policies"), *FAST]
        assert main(["eval", "--scheme", "storm", "--om", "nom", "--fp", "cf",
                     "--out", str(tmp_path / "flags"), *common]) == 0
        assert main(["eval", "--spec", str(cfg), "--out", str(tmp_path / "file"), *common]) == 0
        for name in ("results.csv", "raw_runs.csv", "counters.csv"):
            flags = (tmp_path / "flags" / name).read_bytes()
            assert flags == (tmp_path / "file" / name).read_bytes(), name
        assert b"storm,nom,cf," in (tmp_path / "file" / "results.csv").read_bytes()

    def test_eval_then_table2_report(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "table2"
        assert main([
            "eval", "--scheme", "drim-a,drim-na,storm,cstorm", "--om", "nom",
            "--fp", "cf,random", "--dataset", str(tiny_edges), "--out", str(out),
            *TRAIN_FAST, "--runs", "3", "--workers", "2",
        ]) == 0
        capsys.readouterr()
        reports = tmp_path / "reports"
        assert main(["report", "--layout", "table2", "--results", str(out),
                     "--out", str(reports)]) == 0
        assert f"wrote {reports / 'table2.csv'}" in capsys.readouterr().out

        # per scheme: its runs' seconds over its runs, beside the mean batch size
        timings = list(csv.DictReader((out / "timings.csv").read_text().splitlines()))
        want = [["scheme", "mean_episode_seconds", "episodes_per_batch"]]
        for scheme in cli.SCHEMES:
            rows = [r for r in timings if r["scheme"] == scheme]
            assert len(rows) == 2 * 3
            batches = {(r["fp_strategy"], r["batch"]) for r in rows}
            assert len(batches) == 2 * 2  # two cells, each in batches of 2 and 1 runs
            want.append([scheme, f"{sum(float(r['seconds']) for r in rows) / len(rows):.6f}",
                         "1.5000"])
        got = list(csv.reader((reports / "table2.csv").read_text().splitlines()))
        assert got == want
        assert all(float(line[1]) > 0 for line in got[1:])

        # the same cells in a second directory: not a silent pick
        copy = tmp_path / "copy"
        copy.mkdir()
        (copy / "timings.csv").write_bytes((out / "timings.csv").read_bytes())
        rc = main(["report", "--layout", "table2", "--results", str(out), str(copy),
                   "--out", str(tmp_path / "twice")])
        assert rc == 2
        assert "ambiguous result cell: scheme=drim-a" in capsys.readouterr().err
        assert not (tmp_path / "twice").exists()

    def test_report_ambiguous_cell_fails(self, tmp_path, capsys):
        # the same sweep cells under two opinion models
        dirs = []
        for om in ("uom", "nom"):
            rows = [harness.ResultRow(scheme, om, "cf", "ip", "1", 2, 1.0, 0.0, 1.0, 1.0)
                    for scheme in ("drim-a", "drim-na", "storm", "cstorm")]
            harness.write_results_csv(tmp_path / om / "results.csv", rows)
            dirs.append(str(tmp_path / om))
        reports = tmp_path / "reports"
        rc = main(["report", "--layout", "fig3a", "--results", *dirs, "--out", str(reports)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("drim report: error: ambiguous result cell")
        assert "ambiguous result cell: scheme=drim-a" in err
        assert not (reports / "fig3a.csv").exists()

    def test_report_missing_cell_fails(self, tmp_path, capsys):
        rc = main([
            "report", "--layout", "table2", "--results", str(tmp_path),
            "--out", str(tmp_path / "reports"),
        ])
        assert rc == 2
