"""Command-line entry point: run the scenario a config names and write its
outputs; ``summary.json`` in the output directory is the result."""

from __future__ import annotations

import argparse
import sys

from .core import CorralError
from .harness import execute, load_config


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)
    try:
        execute(load_config(args.config), args.out)
    except (CorralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
