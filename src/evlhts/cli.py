"""Command-line runner: one experiment per invocation, files per run.

Exit codes: 0 all declared tolerance bands passed, 1 a band failed (the
report is still written), 2 configuration problem, 3 runtime failure.
"""

import argparse
import sys

from . import config as config_mod
from . import experiments
from .errors import ConfigError, EvlhtsError
from .measures import MEASURES

_SYSTEMS = (
    ("full_tent", "piecewise-linear tent on [0,1], interval metric, "
     "exact digit window"),
    ("doubling", "angle doubling on the circle, exact digit window"),
    ("rotation", "circle rotation (golden or decimal angle), 63-bit fixed "
     "point"),
    ("manneville_pomeau", "intermittent map x + x^(1+s) mod 1, float64"),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``evlhts`` parser for the arguments ``argv``.

    When ``argv`` starts with an experiment's name, only that experiment's
    subparser is built, beside ``list-systems`` and ``validate``, as the
    other experiments' would parse nothing.  Otherwise every experiment
    gets one, so ``--help`` and the error for an unknown command name them
    all.
    """
    names = experiments.EXPERIMENTS
    if argv and argv[0] in names:
        names = (argv[0],)
    parser = argparse.ArgumentParser(
        prog="evlhts",
        description="Block-maxima and hitting-time experiments on interval "
                    "maps, with verdicts against declared tolerance bands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True,
                        help="flat key = value config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override master_seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="override worker count (results unchanged)")
        sp.add_argument("--out", default=None, help="override out_dir")
    sub.add_parser("list-systems", help="show the available maps/measures")
    vp = sub.add_parser("validate", help="type-check a config file")
    vp.add_argument("--config", required=True)
    return parser


def _cmd_list_systems() -> int:
    for kind, blurb in _SYSTEMS:  # a MapKind equals its value
        measures = ", ".join(name for name, cls in MEASURES.items()
                             if kind in cls.maps)
        print(f"{kind:18s} {blurb}; measures: {measures}")
    return 0


def _cmd_validate(path: str) -> int:
    table = config_mod.parse_file(path)
    config_mod.resolve(table)
    print(f"{path}: {len(table)} keys valid "
          f"({len(config_mod.SCHEMA) - len(table)} defaults apply)")
    return 0


def _cmd_run(args) -> int:
    cfg = config_mod.ExperimentConfig.from_file(
        args.command, args.config,
        seed=args.seed, threads=args.threads, out_dir=args.out,
    )
    report = experiments.run(cfg)
    # a failed band only sets the verdict: the files are written either way
    experiments.write_report(report, cfg["out_dir"])
    print(f"{args.command}: {report.summary['verdict']} "
          f"(files in {cfg['out_dir']})")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if args.command == "list-systems":
            return _cmd_list_systems()
        if args.command == "validate":
            return _cmd_validate(args.config)
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EvlhtsError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
