"""CLI surface: subcommands exist, run, and document their flags."""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
import pytest

from drim import harness
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
BENCH_FAST = [*TRAIN_FAST, "--workers", "1"]
FAST = [*BENCH_FAST, "--runs", "2"]

# Every subcommand's option strings, pinned so no flag is added or lost
# unnoticed. SETTING_FLAGS are the flags of the experiment settings every
# command reads; train and bench have no flag for a setting they ignore.
HELP_FLAGS = ["-h", "--help"]
SETTING_FLAGS = [
    "--actor-lr", "--clip-epsilon", "--critic-lr", "--dataset", "--entropy-coef", "--epochs",
    "--gamma", "--hidden", "--k", "--master-seed", "--om", "--p-f", "--p-nv", "--p-t",
    "--prior-a", "--rollout-episodes", "--selfplay-alternations", "--selfplay-updates-per-side",
    "--updates",
]
OPTION_STRINGS = {
    "train": [*HELP_FLAGS, *SETTING_FLAGS, "--fp", "--policies", "--scheme", "--out", "--spec"],
    "eval": [*HELP_FLAGS, *SETTING_FLAGS, "--fp", "--no-auto-train", "--policies", "--runs",
             "--scheme", "--fps", "--oms", "--out", "--schemes", "--spec", "--workers"],
    "sweep": [*HELP_FLAGS, *SETTING_FLAGS, "--fp", "--no-auto-train", "--policies", "--runs",
              "--scheme", "--axis", "--out", "--range", "--schemes", "--spec", "--values",
              "--workers"],
    "bench": [*HELP_FLAGS, *SETTING_FLAGS, "--fp", "--no-auto-train", "--policies",
              "--episodes", "--out", "--schemes", "--spec", "--workers"],
    "report": [*HELP_FLAGS, "--layout", "--out", "--results"],
}


class TestParser:
    @pytest.mark.parametrize("cmd", ["train", "eval", "sweep", "bench", "report"])
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

    @pytest.mark.parametrize("argv,message", [
        (["bench", "--scheme", "storm"], "unrecognized arguments: --scheme storm"),
        (["bench", "--runs", "7"], "unrecognized arguments: --runs 7"),
        (["train", "--opponent", "cf"], "unrecognized arguments: --opponent cf"),
        (["train", "--fp", "cf", "--runs", "9"], "unrecognized arguments: --runs 9"),
        (["train", "--fp", "cf", "--no-auto-train"], "unrecognized arguments: --no-auto-train"),
        (["sweep", "--axis", "ip", "--values", "1", "--range", "3:4"],
         "argument --range: not allowed with argument --values"),
        (["bench", "--episodes", "0"], "argument --episodes: expected an integer >= 1, got '0'"),
        (["bench", "--episodes", "-2"], "argument --episodes: expected an integer >= 1, got '-2'"),
        (["eval", "--workers", "0"], "argument --workers: expected an integer >= 1, got '0'"),
        (["sweep", "--axis", "ip", "--workers", "0"],
         "argument --workers: expected an integer >= 1, got '0'"),
        (["bench", "--workers", "-1"], "argument --workers: expected an integer >= 1, got '-1'"),
        (["eval", "--schemes", "foo"], "argument --schemes: invalid choice: 'foo' (choose from "
                                       "drim-a, drim-na, storm, cstorm)"),
        (["eval", "--oms", "uom,xyz"], "argument --oms: invalid choice: 'xyz'"),
        (["eval", "--fps", "zzz"], "argument --fps: invalid choice: 'zzz'"),
        (["eval", "--fps", "cf,random,cf"], "argument --fps: 'cf' given twice"),
        (["sweep", "--axis", "ip", "--schemes", "storm,storm"],
         "argument --schemes: 'storm' given twice"),
        (["bench", "--schemes", "drim-a,"], "argument --schemes: invalid choice: ''"),
    ], ids=["bench-scheme", "bench-runs", "train-opponent", "train-runs",
            "train-no-auto-train", "sweep-values-and-range", "bench-episodes-zero",
            "bench-episodes-negative", "eval-workers-zero", "sweep-workers-zero",
            "bench-workers-negative", "eval-schemes-unknown", "eval-oms-unknown",
            "eval-fps-unknown", "eval-fps-repeated", "sweep-schemes-repeated",
            "bench-schemes-empty-entry"])
    def test_ignored_settings_rejected(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


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
        assert "argument --workers: expected an integer >= 1, got '0'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_bench_fails_before_training_when_seeds_outnumber_users(self, tmp_path, capsys,
                                                                    monkeypatch):
        rc = self._ring_game(tmp_path, monkeypatch, "bench", "--schemes", "storm", *BENCH_FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert "drim bench: error: --k 3" in err and "n=5" in err

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
                "--out", str(out), *TRAIN_FAST, "--selfplay-updates-per-side", "1",
                "--selfplay-alternations", "1"]
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

    def test_train_rejects_workers(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--fp", "cf", "--dataset", str(tiny_edges),
                  "--out", str(out), *TRAIN_FAST, "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "1.0"), ("--selfplay-updates-per-side", "0"),
        ("--selfplay-alternations", "0"), ("--actor-lr", "nan"), ("--critic-lr", "inf"),
        ("--entropy-coef", "-5.0"),
    ])
    def test_train_rejects_bad_ppo_values_before_training(self, tiny_edges, tmp_path,
                                                          flag, value):
        out = tmp_path / "res"
        field = flag[2:].replace("-", "_")
        with pytest.raises(ValueError, match=f"{field} must.*got {value}"):
            main(["train", "--scheme", "drim-a", "--fp", "drl", "--dataset",
                  str(tiny_edges), "--out", str(out), *TRAIN_FAST, flag, value])
        assert not out.exists()

    def test_sweep(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--axis", "ip", "--values", "1,2", "--scheme", "drim-na",
            "--om", "nom", "--fp", "cf", "--dataset", str(tiny_edges),
            "--out", str(out), *FAST,
        ])
        assert rc == 0
        text = (out / "results.csv").read_text()
        assert ",ip,1," in text and ",ip,2," in text

    @pytest.mark.parametrize("axis, bad, message", [
        pytest.param("ip", "5", "expected lo:hi, two integers with lo <= hi, got '5'", id="5"),
        pytest.param("ip", "a:b", "expected lo:hi, two integers with lo <= hi, got 'a:b'",
                     id="a:b"),
        pytest.param("p_nv", "1:3", "only meaningful for --axis ip; use --values",
                     id="p_nv-1:3"),
    ])
    def test_sweep_rejects_bad_range(self, tmp_path, capsys, axis, bad, message):
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", axis, "--range", bad, "--out", str(out), *FAST])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: drim sweep")
        assert f"drim sweep: error: argument --range: {message}" in err
        assert not out.exists()

    def test_bench(self, tiny_edges, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main([
            "bench", "--episodes", "1", "--schemes", "drim-a", "--om", "nom",
            "--fp", "cf", "--dataset", str(tiny_edges), "--out", str(out), *BENCH_FAST,
        ])
        assert rc == 0
        assert (out / "bench.csv").exists()

    def test_bench_then_table2_report(self, tiny_edges, tmp_path, capsys):
        bench = tmp_path / "bench"
        rc = main([
            "bench", "--episodes", "1", "--om", "nom", "--fp", "cf",
            "--dataset", str(tiny_edges), "--out", str(bench), *BENCH_FAST,
        ])
        assert rc == 0
        bench_lines = (bench / "bench.csv").read_text().splitlines()
        reports = tmp_path / "reports"
        rc = main(["report", "--layout", "table2", "--results", str(bench),
                   "--out", str(reports)])
        assert rc == 0
        assert f"wrote {reports / 'table2.csv'}" in capsys.readouterr().out
        lines = (reports / "table2.csv").read_text().splitlines()
        assert lines == bench_lines  # bench order is the table's scheme order
        assert [line.split(",")[0] for line in lines[1:]] == [
            "drim-a", "drim-na", "storm", "cstorm"]
        assert all(float(line.split(",")[1]) > 0 for line in lines[1:])

        partial = tmp_path / "partial"
        assert main([
            "bench", "--episodes", "1", "--schemes", "drim-a,storm", "--om", "nom",
            "--fp", "cf", "--dataset", str(tiny_edges), "--out", str(partial),
            "--policies", str(bench / "policies"), *BENCH_FAST,
        ]) == 0
        capsys.readouterr()
        rc = main(["report", "--layout", "table2", "--results", str(partial),
                   "--out", str(tmp_path / "partial-report")])
        assert rc == 2
        assert "scheme=drim-na,cstorm" in capsys.readouterr().err

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
        assert "ambiguous result cell: scheme=drim-a" in capsys.readouterr().err
        assert not (reports / "fig3a.csv").exists()

    def test_report_missing_cell_fails(self, tmp_path, capsys):
        rc = main([
            "report", "--layout", "table2", "--results", str(tmp_path),
            "--out", str(tmp_path / "reports"),
        ])
        assert rc == 2
