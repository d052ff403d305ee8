"""Command-line entry point for the benchmark harness.

Configuration comes from an optional JSON file plus flag overrides; flags
win.  Sweeps are written as comma-separated lists (exactly one of --K, --c,
--c0 may be a list).  Exit codes: 0 success (``--help`` included), 1 any
bad flag or configuration value (argparse's own exit code 2 is mapped to
1), 2 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import METHODS, ResourceCapError, config_from_dict, run, write_results


def _int_or_sweep(text: str):
    parts = [t.strip() for t in text.split(",") if t.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected an integer or comma-separated integers")
    try:
        values = [int(t) for t in parts]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    # A trailing comma ("2000,") forces a one-point sweep.
    return values if "," in text else values[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmm-bench",
        description="Benchmark randomized block matrix multiplication methods.",
    )
    parser.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    parser.add_argument("--case", choices=["I", "II"], help="instance family: I normal, II heavy-tailed")
    parser.add_argument(
        "--method",
        action="append",
        dest="methods",
        metavar="TAG",
        help="method tag (repeatable or comma-separated): " + ", ".join(METHODS),
    )
    parser.add_argument("--m", type=int, help="rows of the left factor")
    parser.add_argument("--n", type=int, help="inner dimension")
    parser.add_argument("--p", type=int, help="columns of the right factor")
    parser.add_argument("--K", type=_int_or_sweep, help="number of equal blocks (or sweep list)")
    parser.add_argument("--c", type=_int_or_sweep, help="total sample budget (or sweep list)")
    parser.add_argument("--c0", type=_int_or_sweep, help="pilot budget for two-step methods (or sweep list)")
    parser.add_argument("--reps", type=int, help="replications per sweep point and method")
    parser.add_argument("--seed", type=int, help="root seed; fixes instance and all draws")
    parser.add_argument("--out", help="output directory for raw.csv and summary.csv")
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="write 0.0 in the time columns (byte-reproducible output)",
    )
    parser.add_argument("--max-bytes", type=int, dest="max_bytes", help="memory cap in bytes")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a bad flag; 2 means the resource cap here
        return 1 if e.code else 0
    try:
        doc = {} if args.config is None else json.loads(args.config.read_text())
        if not isinstance(doc, dict):  # dict.update would take a list of pairs as keys and values
            raise ValueError(f"the config file must hold a JSON object, not a {type(doc).__name__}")
        for key in ("case", "m", "n", "p", "K", "c", "c0", "reps", "seed", "out", "max_bytes"):
            value = getattr(args, key)
            if value is not None:
                doc[key] = value
        if args.methods:
            doc["methods"] = ",".join(args.methods)
        if args.no_timing:
            doc["record_timing"] = False
        config = config_from_dict(doc)
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        raw, summary = run(config)
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    raw_path, summary_path = write_results(config.out, raw, summary)
    print(f"wrote {raw_path} ({len(raw)} rows) and {summary_path} ({len(summary)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
