"""debye-forge command line: crystal / response / macro / multiscale /
bands / verify subcommands.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure,
4 regime violation or a multiscale Newton status other than "converged"
(with --strict-regime).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config


def _add_common(p):
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", help="override the configured output directory")
    p.add_argument(
        "--strict-regime",
        action="store_true",
        help="fail (exit 4) when the asymptotic regime conditions are violated "
        "or a multiscale Newton solve ends short of 'converged'",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="debye-forge",
        description=(
            "Finite-temperature crystal solver and homogenized "
            "Poisson-Boltzmann coefficient extractor"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("crystal", "solve or construct the periodic crystal state"),
        ("bands", "export the band structure and gap report"),
        ("response", "compute M fibers and homogenized coefficients"),
        ("macro", "solve the homogenized Poisson-Boltzmann equation"),
        ("multiscale", "run the deformed-crystal multiscale verification"),
    ]:
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        if name in ("bands", "response", "multiscale"):
            p.add_argument(
                "--state", help="crystal bundle directory (defaults to <out>/crystal)"
            )
    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--quick", action="store_true", help="skip the slow criteria")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "verify":
        from .acceptance import run_acceptance

        results = run_acceptance(quick=args.quick)
        failed = [r for r in results if not r.passed]
        return 0 if not failed else 3

    try:
        cfg = parse_config(args.config)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        cfg["output_dir"] = args.out
    if getattr(args, "state", None):
        cfg["_crystal_bundle"] = args.state

    from .pipeline import StageError, run_pipeline

    try:
        run_pipeline(cfg, {args.command}, strict_regime=args.strict_regime)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures surface as exit 3
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
