"""Command-line entry point: run the scenario a config names."""

from __future__ import annotations

import argparse
import json
import sys

from .core import CorralError
from .harness import execute, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corral",
        description=(
            "Bandit-ensemble simulation harness: run the scenario the config "
            "names, one of corral-run, standalone-run, stability-test, "
            "lowerbound-demo or sweep."
        ),
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--seed-offset",
        type=int,
        default=0,
        help="shift every configured seed by this amount",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
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
