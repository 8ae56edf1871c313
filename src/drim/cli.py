"""Command-line interface: train, eval, report.

`train` trains one cell (one scheme, opinion model and FP strategy);
`eval` evaluates a grid of them, so its `--scheme`, `--om` and `--fp`
take comma lists of distinct names. A config file names one cell.

`report --layout table2` (the paper's runtime table) reads the
`timings.csv` that `eval` writes, so it times the lockstep batches the
results came from. Every command reports a usage error one way:
`drim <cmd>: error: <message>` on stderr, exit 2, nothing written. The
CLI checks only settings: the graph, the output and policy directories
and the policy store are the harness's (`harness.check_playable`, then
`MissingPolicy`), so the library call fails the same way."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from drim.config import SPEC_KEYS, parse_spec_file
from drim.harness import (
    FP_STRATEGIES,
    LAYOUTS,
    OPINION_MODELS,
    SWEEP_DEFAULTS,
    ExperimentSpec,
    MissingPolicy,
    UnplayableSpec,
    emit_report,
    policy_paths,
    run_grid,
    train_policy,
    worker_count,
)
from drim.strategies import Scheme

SCHEMES = tuple(s.value for s in Scheme)
# What train and eval report as usage errors once the graph loads.
_RUN_FAILURES = (UnplayableSpec, MissingPolicy)

# Settings whose flag is not `--<key with dashes>` taking the key's
# converter: the historical short spellings, choice lists, help texts and
# auto_train, which the command line can only switch off. Their values
# stay text until `parse_spec_file` converts them.
_FLAG_OPTIONS = {
    "scheme": {"choices": SCHEMES},
    "opinion_model": {"flag": "--om", "choices": OPINION_MODELS},
    "fp_strategy": {"flag": "--fp", "choices": FP_STRATEGIES},
    "dataset": {"help": "edge-list path (default: bundled graph)"},
    "out_dir": {"flag": "--out", "help": "output directory"},
    "policy_dir": {"flag": "--policies", "help": "policy store directory (default: <out>/policies)"},
    "auto_train": {"flag": "--no-auto-train", "action": "store_false", "default": None,
                   "help": "fail instead of training missing policies"},
    "sweep_axis": {"flag": "--axis", "choices": tuple(SWEEP_DEFAULTS)},
    "sweep_values": {"flag": "--values", "help": "comma list of sweep points (default: the "
                                                 "config file's, else the axis's five)"},
}


def _add_common_overrides(p: argparse.ArgumentParser, evaluates: bool = True) -> None:
    """A flag for each setting in `SPEC_KEYS` that the command reads, so
    no flag is silently ignored: a command that only trains reads neither
    `runs`, `auto_train` nor [sweep], and takes no `--workers`. A command
    that evaluates reads a grid of cells: its cell flags take comma lists,
    kept as `<key>_grid` so they name the grid, not the spec's cell."""
    for key, (section, convert) in SPEC_KEYS.items():
        if not evaluates and (section == "sweep" or key in ("runs", "auto_train")):
            continue
        options = dict(_FLAG_OPTIONS.get(key, {"type": convert}), dest=key)
        if evaluates and key in ("scheme", "opinion_model", "fp_strategy"):
            choices = options.pop("choices")
            options.update(dest=key + "_grid", type=_comma_list(choices), metavar="LIST",
                           help=f"comma list of {', '.join(choices)} (default: the spec's one)")
        p.add_argument(options.pop("flag", "--" + key.replace("_", "-")), **options)
    if evaluates:
        p.add_argument("--workers", type=int,
                       help="worker processes (default: min(usable cpus, 4))")


def _spec_from_args(args) -> ExperimentSpec:
    """The one path from a command's input to its spec: its flags over
    its `--spec` file. Only settings are checked here: a value the spec
    rejects, a missing config file and, for a command that evaluates, a
    `--workers` below 1 are usage errors (usage line, exit 2). The world
    the run touches (graph, output and policy directories, policy store)
    is checked by the harness (`check_playable`, `MissingPolicy`)."""
    overrides = {key: getattr(args, key, None) for key in SPEC_KEYS}
    try:
        spec = parse_spec_file(args.spec, overrides)
        if "workers" in args:
            worker_count(args.workers)
    except (ValueError, FileNotFoundError) as exc:
        args.usage_error(str(exc))
    return spec


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    result = train_policy(spec, spec.scheme, spec.fp_strategy)
    tp_path, fp_path = policy_paths(spec, spec.scheme, spec.fp_strategy)
    if fp_path is not None:
        print(f"wrote {fp_path}")
    print(f"wrote {tp_path} (final mean return {result.curve[-1][0]:.1f})")
    return 0


def cmd_eval(args) -> int:
    spec = _spec_from_args(args)
    rows = run_grid(spec, args.scheme_grid, args.opinion_model_grid, args.fp_strategy_grid,
                    workers=args.workers)
    for row in rows:
        print(f"{row.scheme}/{row.opinion_model} vs {row.fp_strategy}"
              f"{'' if row.sweep_value == 'none' else ' @' + row.sweep_value}: "
              f"decided n^T {row.mean_decided_n_true:.1f}")
    print(f"wrote {spec.out_dir}/results.csv")
    return 0


def _comma_list(choices: tuple[str, ...]):
    """The argparse type of a comma list of distinct `choices`."""
    def parse(text: str) -> tuple[str, ...]:
        items = tuple(text.split(","))
        for i, item in enumerate(items):
            if item not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {item!r} (choose from {', '.join(choices)})")
            if item in items[:i]:
                raise argparse.ArgumentTypeError(f"{item!r} given twice")
        return items
    return parse


def cmd_report(args) -> int:
    out = Path(args.out) / f"{args.layout}.csv"
    emit_report(args.results, args.layout, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drim",
        description="Competitive influence maximization experiments "
                    "(subjective-logic opinions, PPO seed selection)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes whole flags only (allow_abbrev=False): with
    # abbreviations, `eval --value` would pass for `--values`.

    p = sub.add_parser("train", help="train one cell's policy into the policy store",
                       allow_abbrev=False)
    p.add_argument("--spec", help="config file with defaults")
    _add_common_overrides(p, evaluates=False)
    p.set_defaults(func=cmd_train, usage_error=p.error, failures=_RUN_FAILURES)

    p = sub.add_parser("eval", help="evaluate scheme/OM/FP cells", allow_abbrev=False)
    p.add_argument("--spec", help="config file")
    _add_common_overrides(p)
    p.set_defaults(func=cmd_eval, usage_error=p.error, failures=_RUN_FAILURES)

    p = sub.add_parser("report", help="pivot results into a layout CSV", allow_abbrev=False)
    p.add_argument("--layout", required=True, choices=LAYOUTS)
    p.add_argument("--results", nargs="+", required=True,
                   help="one or more eval output directories "
                        "(table2 reads their timings.csv)")
    p.add_argument("--out", default=".",
                   help="output directory, receives <layout>.csv (default: the working directory)")
    # A report fails on its paths and result files: a missing file, a file
    # given as a directory, a missing or ambiguous cell, a bad row.
    p.set_defaults(func=cmd_report, usage_error=p.error, failures=(ValueError, OSError))
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # parse_args would report a subcommand's leftovers under the top usage
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except args.failures as exc:  # usage errors found once the command runs
        print(f"drim {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
