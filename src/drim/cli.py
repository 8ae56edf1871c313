"""Command-line interface: train, eval, sweep, report.

`report --layout table2` (the paper's runtime table) reads the
`timings.csv` that `eval` writes, so it times the lockstep batches the
results came from."""

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
    UnplayableSpec,
    emit_report,
    policy_paths,
    run_grid,
    train_policy,
    worker_count,
)
from drim.strategies import Scheme

SCHEMES = tuple(s.value for s in Scheme)

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
}


def _add_common_overrides(p: argparse.ArgumentParser, evaluates: bool = True) -> None:
    """A flag for each setting in `SPEC_KEYS` outside [sweep] (the sweep
    command declares its own) that the command reads, so no flag is
    silently ignored: a command that only trains reads neither `runs` nor
    `auto_train`, and takes no `--workers`."""
    for key, (section, convert) in SPEC_KEYS.items():
        if section == "sweep" or (not evaluates and key in ("runs", "auto_train")):
            continue
        options = dict(_FLAG_OPTIONS.get(key, {"type": convert}))
        p.add_argument(options.pop("flag", "--" + key.replace("_", "-")), dest=key, **options)
    if evaluates:
        p.add_argument("--workers", type=_positive_int,
                       help="worker processes (default: $DRIM_WORKERS, else min(usable cpus, 4))")


def _spec_from_args(args, **extra) -> ExperimentSpec:
    """The one path from a command's input to its spec: its flags (and
    `extra`) over its `--spec` file. A value the spec rejects, a missing
    file and, for a command that evaluates, a bad `DRIM_WORKERS` are
    usage errors: exit 2 before anything is written."""
    overrides = {key: getattr(args, key, None) for key in SPEC_KEYS}
    try:
        spec = parse_spec_file(args.spec, {**overrides, **extra})
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
    print(f"wrote {tp_path} (final mean return {result.curve[-1][1]:.1f})")
    return 0


def cmd_eval(args) -> int:
    spec = _spec_from_args(args)
    schemes = tuple(map(Scheme, args.schemes)) if args.schemes else None
    rows = run_grid(spec, schemes, args.oms, args.fps, workers=args.workers)
    for row in rows:
        print(f"{row.scheme}/{row.opinion_model} vs {row.fp_strategy}"
              f"{'' if row.sweep_value == 'none' else ' @' + row.sweep_value}: "
              f"decided n^T {row.mean_decided_n_true:.1f} "
              f"(raw {row.mean_n_true:.1f} ± {row.std_n_true:.1f})")
    print(f"wrote {spec.out_dir}/results.csv")
    return 0


def _positive_int(text: str) -> int:
    """An integer flag that must be at least 1: `--workers`."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


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


def cmd_sweep(args) -> int:
    # --values is text: parse_spec_file splits it, ExperimentSpec types it
    spec = _spec_from_args(args, sweep_axis=args.axis, sweep_values=args.values)
    schemes = tuple(map(Scheme, args.schemes)) if args.schemes else None
    rows = run_grid(spec, schemes, workers=args.workers)
    for row in rows:
        print(f"{row.scheme} @ {row.sweep_axis}={row.sweep_value}: "
              f"decided n^T {row.mean_decided_n_true:.1f}")
    print(f"wrote {spec.out_dir}/results.csv")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out) / f"{args.layout}.csv"
    try:
        emit_report(args.results, args.layout, out)
    except (ValueError, FileNotFoundError) as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 2
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
    # abbreviations, `sweep --value` would pass for `--values`.

    p = sub.add_parser("train", help="train one cell's policy into the policy store",
                       allow_abbrev=False)
    p.add_argument("--spec", help="config file with defaults")
    _add_common_overrides(p, evaluates=False)
    p.set_defaults(func=cmd_train, usage_error=p.error)

    p = sub.add_parser("eval", help="evaluate scheme/OM/FP cells", allow_abbrev=False)
    p.add_argument("--spec", help="config file")
    p.add_argument("--schemes", type=_comma_list(SCHEMES), help="comma list (overrides --scheme)")
    p.add_argument("--oms", type=_comma_list(OPINION_MODELS), help="comma list of opinion models")
    p.add_argument("--fps", type=_comma_list(FP_STRATEGIES), help="comma list of FP strategies")
    _add_common_overrides(p)
    p.set_defaults(func=cmd_eval, usage_error=p.error)

    p = sub.add_parser("sweep", help="sweep one axis", allow_abbrev=False)
    p.add_argument("--axis", required=True, choices=tuple(SWEEP_DEFAULTS))
    p.add_argument("--values", help="comma list of sweep points (default: the config file's, "
                                    "else the axis's five)")
    p.add_argument("--spec", help="config file")
    p.add_argument("--schemes", type=_comma_list(SCHEMES), help="comma list of schemes")
    _add_common_overrides(p)
    p.set_defaults(func=cmd_sweep, usage_error=p.error)

    p = sub.add_parser("report", help="pivot results into a layout CSV", allow_abbrev=False)
    p.add_argument("--layout", required=True, choices=LAYOUTS)
    p.add_argument("--results", nargs="+", required=True,
                   help="one or more eval/sweep output directories "
                        "(table2 reads their timings.csv)")
    p.add_argument("--out", default=".",
                   help="output directory, receives <layout>.csv (default: the working directory)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnplayableSpec as exc:  # a usage error, found while the graph loads
        print(f"drim {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
