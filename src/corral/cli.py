"""Command-line entry point: one subcommand per experiment scenario."""

from __future__ import annotations

import argparse
import json
import sys

from .core import CorralError
from .harness import execute, load_config

_SUBCOMMANDS = {
    "run": "corral-run",
    "standalone": "standalone-run",
    "stability-test": "stability-test",
    "lowerbound-demo": "lowerbound-demo",
    "sweep": "sweep",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corral",
        description=(
            "Bandit-ensemble simulation harness: run a master over base "
            "algorithms, standalone baselines, stability exponent tests, "
            "the linear-regret demonstration, or a sweep of configs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, scenario in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=f"execute a {scenario} config")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--seed-offset",
            type=int,
            default=0,
            help="shift every configured seed by this amount",
        )
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    expected = _SUBCOMMANDS[args.command]
    try:
        config = load_config(args.config)
        if config.scenario != expected:
            raise CorralError(
                f"config declares scenario {config.scenario!r}, "
                f"but the {args.command} subcommand expects {expected!r}"
            )
        if args.seed_offset:
            config = config.with_seed_offset(args.seed_offset)
        summary = execute(config, args.out)
    except (CorralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        line = {"scenario": summary.get("scenario"), "out": args.out}
        for key in ("mean_final_regret", "alpha_hat"):
            if key in summary:
                line[key] = summary[key]
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
