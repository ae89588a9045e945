"""One abelian group, two representations: its moduli and its Cayley table.

A group given by moduli translates a set by shifts and masks, and one given
by a table sends each member through a row; both index elements mixed-radix,
last modulus lowest.  So every verify check reads the same element indices
either way and must exit, print and report alike; only the instance echo of
a --json report names the representation.  A fault in either translate path
shows as a difference, with no oracle.
"""

import json
import random
from functools import reduce
from math import prod

import pytest

from plab.cli import VERIFY_CHECKS, main

from cayley_tables import product_table

GROUPS = [[6], [2, 4], [2, 2, 2], [3, 3], [4, 4], [2, 8], [2, 3, 5], [64], [8, 8]]
RUNS = [["--check", check] for check in VERIFY_CHECKS] + [
    ["--check", "restricted", "--all-subsets"]]
SEEDS = range(4)


def instance_sets(moduli: list[int], table: list[list[int]], seed: int) -> dict:
    """Seeded A, B_i (each holding the identity), l and an S inside B_K."""
    rng = random.Random(seed)
    n, k = prod(moduli), rng.randint(2, 3)
    bs = [[0] + rng.sample(range(1, n), rng.randint(0, min(2, n - 1))) for _ in range(k)]
    s = {reduce(lambda x, y: table[x][y], map(rng.choice, bs)) for _ in range(rng.randint(1, 3))}
    return {"A": rng.sample(range(n), rng.randint(1, min(6, n))), "B": bs,
            "l": rng.randint(1, k - 1), "S": sorted(s)}


def run_verify(tmp_path, capsys, data: dict, run: list[str]):
    """Exit code, stdout, stderr and the --json report, or None when none
    was written, of one verify call; the report drops its group key."""
    path, report = tmp_path / "instance.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    report.unlink(missing_ok=True)
    code = main(["verify", str(path), *run, "--json", str(report)])
    out, err = capsys.readouterr()
    written = json.loads(report.read_text()) if report.exists() else None
    if written is not None:
        for key in ("group", "cayley"):
            written["instance"].pop(key, None)
    return code, out, err, written


@pytest.mark.parametrize("moduli", GROUPS, ids=lambda m: "x".join(map(str, m)))
def test_moduli_and_table_give_the_same_verify_output(moduli, tmp_path, capsys):
    table = product_table(moduli)
    for seed in SEEDS:
        sets = instance_sets(moduli, table, seed)
        for run in RUNS:
            by_moduli = run_verify(tmp_path, capsys, {"group": moduli, **sets}, run)
            by_table = run_verify(tmp_path, capsys, {"cayley": table, **sets}, run)
            assert by_moduli == by_table, (seed, run)
