"""The equality-case corpus: every exact tie of the benchmark's two sweeps.

A strict comparison where the theorem is non-strict flips a verdict only at
a tie, so each tie is run again through the check that the sweep ran."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from plab import EQ, GT, theorems
from plab.cli import CHECKS, parse_instance
from plab.theorems import TheoremVerdict

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "ties.json"


def _verdicts():
    """(entry, verdict) for every corpus entry, from the sweep's own check run."""
    out = []
    for entry in json.loads(CORPUS.read_text()):
        inst, l, s = parse_instance(entry["instance"])
        [(v, _, _)], _ = CHECKS[entry["check"]][0](inst, l, argparse.Namespace(
            s=s, all_subsets=False))
        out.append((entry, v))
    return out


def test_the_corpus_holds_every_tie_of_both_sweeps():
    entries = json.loads(CORPUS.read_text())
    plgen = [e for e in entries if e["sweep"] == "sweep_plgen"]
    power = [e for e in entries if e["sweep"] == "sweep_power"]
    assert len(plgen) == 169 and len({e["index"] for e in plgen}) == 120
    assert sum(e["beta_expo_den"] > 1 for e in plgen) == 49
    assert len(power) == 34 and len({e["index"] for e in power}) == 14
    assert sum(e["check"] == "restricted" for e in power) == 3


def test_every_tie_is_exact_and_holds():
    for entry, v in _verdicts():
        if entry["check"] == "restricted":
            assert v.lhs == v.rhs == entry["lhs"] == entry["rhs"], entry
        else:
            assert (str(v.lhs), str(v.rhs.base), v.rhs.expo_den) == (
                entry["gamma"], entry["beta_base"], entry["beta_expo_den"]), entry
            assert theorems.cmp_ratio_vs_beta(v.lhs, v.rhs) == EQ, entry
        assert v.holds, entry


def test_a_fresh_harvest_reproduces_the_corpus(tmp_path):
    out = tmp_path / "ties.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "harvest_ties.py"), str(out)],
                   check=True)
    assert out.read_bytes() == CORPUS.read_bytes()


def _strict_cmp(real):
    """cmp_ratio_vs_beta as a verdict of lhs < rhs reads it: a tie counts as GT."""
    return lambda *args: GT if real(*args) == EQ else real(*args)


def _strict_restricted(k, s_size, sa_size, s_prod):
    lhs, rhs = sa_size ** k, s_size * s_prod
    return TheoremVerdict(holds=lhs < rhs, lhs=lhs, rhs=rhs)


@pytest.mark.parametrize("name, strict, checks", [
    ("cmp_ratio_vs_beta", _strict_cmp(theorems.cmp_ratio_vs_beta), {"plgen", "pldiff"}),
    ("_restricted_verdict", _strict_restricted, {"restricted"}),
])
def test_a_strict_comparison_fails_some_tie(monkeypatch, name, strict, checks):
    monkeypatch.setattr(theorems, name, strict)
    failed = {entry["check"] for entry, v in _verdicts() if not v.holds}
    assert failed == checks
