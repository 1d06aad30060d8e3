"""Command-line driver: ``dpmod <kind> --config <file> [--out dir] [--seed N]``.

Exit codes: 0 success, 1 input error (bad config, bad files, bad arguments),
2 solver non-convergence or a failed scaling check.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .errors import DpmodError
from .experiments import EXIT_INPUT, run


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dpmod",
        description="Holder-capped p-energy distances between metrics on "
                    "simplicial meshes: generate example families, solve "
                    "distances, and run convergence studies.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    descriptions = {
        "gen": "write mesh/metric files for a generator family",
        "compute": "solve the configured vertex pairs at one (p, D)",
        "sweep-p": "solve one pair along an ascending list of p values",
        "sequence": "hypothesis functionals and discrepancies along a family",
        "scaling": "verify the lambda^((p-n)/p) scaling law",
        "class-check": "measure class functionals against configured bounds",
    }
    for kind, text in descriptions.items():
        sp = sub.add_parser(kind, help=text)
        sp.add_argument("--config", required=True, help="flat key = value config file")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed for random pair sets (overrides config)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return EXIT_INPUT
    try:
        cfg = parse_config(args.config, seed=args.seed, out=args.out)
        result = run(args.kind, cfg)
    except (DpmodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if result.summary:
        print(result.summary)
    for path in result.files:
        print(f"wrote {path}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
