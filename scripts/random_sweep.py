#!/usr/bin/env python3
"""Compose a sweep config from flags and run it without a config file.

Example:
    python scripts/random_sweep.py --seed 1 --count 500 --checks plgen,power
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from plab.cli import run_sweep, sweep_config_from_dict  # noqa: E402
from plab.errors import TheoremViolationError  # noqa: E402

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--k-max", type=int, default=4)
    parser.add_argument("--group-max", type=int, default=64)
    parser.add_argument("--set-max", type=int, default=8)
    parser.add_argument("--checks", default="plgen")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    cfg = sweep_config_from_dict({
        "seed": args.seed,
        "count": args.count,
        "k_range": [2, args.k_max],
        "l_rule": "all",
        "group_size_range": [2, args.group_max],
        "set_size_range": [1, args.set_max],
        "checks": args.checks.split(","),
    })
    try:
        text = run_sweep(cfg, workers=args.workers)
    except TheoremViolationError as exc:
        print(f"VIOLATION: {exc}", file=sys.stderr)
        json.dump(exc.instance_dump, sys.stderr)
        print(file=sys.stderr)
        raise SystemExit(1)
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {len(text.splitlines()) - 1} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
