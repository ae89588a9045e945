#!/usr/bin/env python3
"""Collect every exact tie of the benchmark's two sweep configs into a JSON corpus.

A tie is a sweep row whose two sides are equal: gamma exactly beta for plgen
and pldiff, lhs = rhs for restricted.  Both sweeps are run at their default
seeds, and every tie is kept; the power check's rows compare an identity,
not a bound, and are left out.  pldiff reads level 1 and restricted reads no
level, so their rows at the levels of one instance are one entry, filed at
level 1.

Each entry holds its sweep, instance index and check, the instance as a
replayable instance file (its "l" the level the check reads, and "S" for
restricted), and the exact pair of the row.  Usage:

    python scripts/harvest_ties.py [OUT]   # default tests/golden/ties.json
"""

import csv
import io
import json
import pathlib
import sys
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plab.alphabeta import EQ, BetaValue, cmp_ratio_vs_beta  # noqa: E402
from plab.cli import (_draw, generate_base, run_sweep, serialize_instance,  # noqa: E402
                      sweep_config_from_dict)

# the sweep configs of perfbench/inputs.py, at their default seeds
SWEEPS = {
    "sweep_plgen": {"seed": 20260808, "count": 1000, "k_range": [2, 4], "l_rule": "all",
                    "group_size_range": [2, 64], "set_size_range": [1, 8],
                    "checks": ["plgen"]},
    "sweep_power": {"seed": 71, "count": 100, "k_range": [2, 4], "l_rule": "all",
                    "group_size_range": [2, 48], "set_size_range": [1, 6],
                    "checks": ["plgen", "pldiff", "restricted", "power"]},
}


def harvest() -> str:
    """The corpus text: one entry a line, in sweep and row order."""
    entries = []
    for sweep, data in SWEEPS.items():
        cfg = sweep_config_from_dict(data)
        seen = set()
        for row in csv.DictReader(io.StringIO(run_sweep(cfg))):
            index, check = int(row["index"]), row["check"]
            if check == "restricted":
                detail = dict(item.split("=") for item in row["detail"].split(";"))
                pair = {"lhs": int(detail["lhs"]), "rhs": int(detail["rhs"])}
                tied = pair["lhs"] == pair["rhs"]
            elif check in ("plgen", "pldiff"):
                pair = {"gamma": row["gamma"], "beta_base": row["beta_base"],
                        "beta_expo_den": int(row["beta_expo_den"])}
                beta = BetaValue(Fraction(pair["beta_base"]), pair["beta_expo_den"])
                tied = cmp_ratio_vs_beta(Fraction(pair["gamma"]), beta) == EQ
            else:
                continue
            level = int(row["l"]) if check == "plgen" else 1
            if not tied or (index, check, level) in seen:
                continue
            seen.add((index, check, level))
            inst = generate_base(cfg, index)
            # the S that sweep_rows_for_index draws for the instance
            s = (_draw(inst.bk, cfg.seed * (1 << 40) + index * (1 << 8) + 3)
                 if check == "restricted" else None)
            entries.append({"sweep": sweep, "index": index, "check": check,
                            "instance": serialize_instance(inst, level, s), **pair})
    lines = (json.dumps(entry, sort_keys=True, separators=(",", ":")) for entry in entries)
    return "[\n" + ",\n".join(lines) + "\n]\n"


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else ROOT / "tests" / "golden" / "ties.json"
    pathlib.Path(out).write_text(harvest(), encoding="utf-8")
