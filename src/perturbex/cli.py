"""Command-line entry point.

Four subcommands::

    perturbex certify     --config cfg.json --out outdir [--seed N] [--require-gates]
    perturbex scaling     --config cfg.json --out outdir [--seed N]
    perturbex ridge-sweep --config cfg.json --out outdir [--seed N] [--require-gates]
    perturbex selftest    [--out outdir] [--seed N]

Exit codes: 0 all certified bounds verified, 1 error, 2 a certified bound
was violated, 3 a gate failed under --require-gates.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .harness import (
    EXIT_ERROR,
    cmd_certify,
    cmd_ridge_sweep,
    cmd_scaling,
    cmd_selftest,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbex",
        description=(
            "Certified expansions of a strongly convex minimizer under "
            "linear, ridge, and smooth perturbations."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, gates: bool) -> None:
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument(
            "--out", default="perturbex_out", help="directory for report artifacts"
        )
        p.add_argument(
            "--seed", type=int, default=None, help="override the config seed"
        )
        if gates:
            p.add_argument(
                "--require-gates",
                action="store_true",
                help="exit 3 when any precondition gate fails",
            )

    add_common(
        sub.add_parser("certify", help="run expansions and verify their bounds"),
        gates=True,
    )
    add_common(
        sub.add_parser("scaling", help="residual decay rates under a shrinking tilt"),
        gates=False,
    )
    add_common(
        sub.add_parser("ridge-sweep", help="bias bounds across ridge weights"),
        gates=True,
    )
    st = sub.add_parser("selftest", help="fast internal consistency battery")
    st.add_argument("--out", default=None, help="optional directory for the log")
    st.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "certify":
            return cmd_certify(args.config, args.out, args.seed, args.require_gates)
        if args.command == "scaling":
            return cmd_scaling(args.config, args.out, args.seed)
        if args.command == "ridge-sweep":
            return cmd_ridge_sweep(args.config, args.out, args.seed, args.require_gates)
        return cmd_selftest(args.out, args.seed)
    except Exception as exc:  # PerturbexError, ValueError (bad config), OSError, ...
        print(f"perturbex: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
