"""Values are computed once per instance and key.

B_K, the alpha table, the A -> A+B_K graph, gamma and pldiff's verdict
depend on (A, B_1..B_k) only, and large cuts that one graph down at each
step instead of building another; plgen's verdict depends on the level too and is kept under
("plgen", l), gamma of the r-th direct power under ("power", r), and the
restricted verdict of a set S under ("restricted", S).  A level is an
argument of the checks, so every level of one instance reads them from
that instance's memo; the sweep draws its restricted S once per instance.
"""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plab.alphabeta as alphabeta
import plab.cli as cli
import plab.groups as groups
import plab.magnification as magnification
import plab.theorems as theorems
from plab import (Instance, UsageError, check_pldiff, check_plgen, check_restricted_sum,
                  check_single_summand, empirical_plgen2, large_subset)
from plab.cli import generate_base, load_instance, main, run_sweep, sweep_config_from_dict

from gen import rand_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def calls(monkeypatch):
    """Counts of gamma_flow calls per group order and of alpha_table calls."""
    counts = Counter()
    real_flow, real_alpha = magnification.gamma_flow, alphabeta.alpha_table

    def gamma_flow(graph):
        counts["gamma_flow", graph.group.order] += 1
        return real_flow(graph)

    def alpha_table(inst):
        counts["alpha_table"] += 1
        return real_alpha(inst)

    # theorems binds gamma_flow by name, so large and noncomm call its copy
    for module in (magnification, theorems):
        monkeypatch.setattr(module, "gamma_flow", gamma_flow)
    monkeypatch.setattr(alphabeta, "alpha_table", alpha_table)
    return counts


def test_memo_is_not_part_of_the_value(z9):
    fresh = Instance(z9.group, z9.a, z9.bs)
    check_plgen(z9, 2)
    assert "gamma" in z9.memo and "gamma" not in fresh.memo
    assert z9 == fresh and hash(z9) == hash(fresh)
    assert "memo" not in repr(z9)
    other = Instance(z9.group, z9.group.set_of([0, 3]), z9.bs)
    assert other.memo is not z9.memo
    assert check_plgen(other, 2) == check_plgen(Instance(z9.group, other.a, z9.bs), 2)


def test_sweep_runs_one_base_gamma_per_instance(calls):
    cfg = sweep_config_from_dict({
        "seed": 3, "count": 1, "k_range": [4, 4], "l_rule": "all",
        "group_size_range": [12, 12], "set_size_range": [2, 3],
        "checks": ["plgen", "pldiff", "restricted", "power", "plgen2"]})
    base = generate_base(cfg, 0)
    rows = run_sweep(cfg).splitlines()[1:]
    assert len(rows) == 3 * 5  # three levels, five checks
    # one gamma of the base instance and one of its square, for all 15 rows
    assert calls == Counter({("gamma_flow", base.group.order): 1,
                             ("gamma_flow", base.group.order ** 2): 1,
                             "alpha_table": 1})


def counting(monkeypatch, module, name, counts):
    """Replace module.name by a wrapper that counts its calls in counts[name]."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_sweep_levels_reuse_the_verdicts_that_do_not_depend_on_the_level(monkeypatch):
    cfg = sweep_config_from_dict({
        "seed": 3, "count": 1, "k_range": [4, 4], "l_rule": "all",
        "group_size_range": [12, 12], "set_size_range": [2, 3],
        "checks": ["plgen", "pldiff", "restricted", "power"]})
    counts = Counter()
    for module, name in ((theorems, "beta_value"), (theorems, "cmp_ratio_vs_beta"),
                         (theorems, "_restricted_verdict"), (cli, "_draw")):
        counting(monkeypatch, module, name, counts)
    rows = [row.split(",") for row in run_sweep(cfg).splitlines()[1:]]
    assert [(row[3], row[6]) for row in rows] == [
        (str(level), check) for level in (1, 2, 3)
        for check in ("plgen", "pldiff", "restricted", "power")]
    # plgen compares once per level, and pldiff reads plgen's level 1; the
    # restricted S is drawn and decided once for all three levels
    assert counts == Counter({"beta_value": 3, "cmp_ratio_vs_beta": 3,
                              "_restricted_verdict": 1, "_draw": 1})
    assert len({row[-1] for row in rows if row[6] == "restricted"}) == 1


def test_a_second_power_check_runs_no_flow(z9, calls):
    squared = magnification.multiplicativity_check(z9, 2)
    first = calls.copy()
    assert first[("gamma_flow", z9.group.order ** 2)] == 1
    assert magnification.multiplicativity_check(z9, 2) == squared
    assert calls == first


def test_a_second_restricted_check_builds_no_sumset(z5, monkeypatch):
    s = z5.group.set_of([0, 3])
    verdict = check_restricted_sum(z5, s)
    counts = Counter()
    counting(monkeypatch, theorems, "sumset", counts)
    assert check_restricted_sum(z5, s) == verdict
    assert counts == Counter()
    assert z5.memo[("restricted", s)] == verdict


def test_a_second_restricted_check_validates_nothing(z5, monkeypatch):
    # the memo answers before S is checked against B_K again
    s = z5.group.set_of([0, 3])
    verdict = check_restricted_sum(z5, s)
    counts = Counter()
    counting(monkeypatch, theorems, "_leave_one_out_product", counts)
    assert check_restricted_sum(z5, s) == verdict
    assert counts == Counter()


def test_a_rejected_restricted_s_is_not_kept(z5):
    s = z5.group.set_of([0, 4])  # 4 lies outside B_K = {0, 1, 2, 3}
    for _ in range(2):
        with pytest.raises(UsageError, match="^S must be a subset of the complete sum B_K$"):
            check_restricted_sum(z5, s)
    assert ("restricted", s) not in z5.memo


def test_verify_plgen_and_pldiff_at_level_one_compare_once(monkeypatch, capsys):
    counts = Counter()
    counting(monkeypatch, theorems, "cmp_ratio_vs_beta", counts)
    assert main(["verify", str(FIXTURES / "z5.json"), "--check", "plgen,pldiff"]) == 0
    assert capsys.readouterr().out == ("plgen: gamma=5/2 beta=3 HOLDS\n"
                                       "pldiff: gamma=5/2 beta=3 HOLDS\n")
    assert counts == Counter({"cmp_ratio_vs_beta": 1})


def test_a_large_call_builds_one_graph(tmp_path, monkeypatch, calls, capsys):
    # X grows in three steps, each on A minus X: every step's graph is the
    # instance's one graph cut down, not a graph built again, and each step
    # runs one flow, the first through magnification and the rest through theorems
    path = tmp_path / "inst.json"
    path.write_text('{"group": [64], "A": [1, 25, 32, 48, 52], '
                    '"B": [[0, 5, 26], [0, 3, 23]], "l": 1}')
    counts = Counter()
    for module in (magnification, theorems):
        counting(monkeypatch, module, "build_plun_graph", counts)
    assert main(["verify", str(path), "--check", "large", "--mode", "a", "--value", "5",
                 "--json", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out == (
        "large: mode=a value=5.0 |X|=5 lhs=35 bound=285.404166667 HOLDS\n")
    assert '"iterations":3' in (tmp_path / "report.json").read_text()
    assert counts == Counter({"build_plun_graph": 1})
    assert calls[("gamma_flow", 64)] == 3


def test_a_noncomm_call_runs_one_flow(calls, capsys):
    assert main(["verify", str(FIXTURES / "s3.json"), "--check", "noncomm"]) == 0
    assert capsys.readouterr().out == "noncomm: ratio=3 bound=3 HOLDS\n"
    assert calls[("gamma_flow", 6)] == 1


def test_sweep_single_runs_one_gamma_per_instance(calls):
    cfg = sweep_config_from_dict({
        "seed": 5, "count": 4, "k_range": [4, 4], "l_rule": "all",
        "group_size_range": [12, 12], "set_size_range": [2, 3], "checks": ["single"]})
    rows = run_sweep(cfg).splitlines()[1:]
    assert len(rows) == 4 * 3  # four instances, three levels
    # the equal-summand instance is built once per instance, not per level
    assert calls == Counter({("gamma_flow", 12): 4, "alpha_table": 4})


def test_restricted_all_subsets_builds_one_alpha_table(calls, capsys):
    assert main(["verify", str(FIXTURES / "z5.json"), "--check", "restricted",
                 "--all-subsets"]) == 0
    assert "15/15 subset checks HOLD" in capsys.readouterr().out
    assert calls["alpha_table"] == 1


def test_restricted_pipeline_builds_s_plus_a_once(monkeypatch):
    inst, _, _ = load_instance(str(FIXTURES / "z5.json"))
    operands = []
    real_sumset = theorems.sumset

    def sumset(x, y):
        operands.append((x, y))
        return real_sumset(x, y)

    monkeypatch.setattr(theorems, "sumset", sumset)
    s = inst.bk
    rep = theorems.restricted_pipeline(inst, s, 1)
    assert operands.count((s, inst.a)) == 1
    assert rep.sa_size == len(real_sumset(s, inst.a))


def test_complete_sum_takes_k_minus_1_sumsets(z9, monkeypatch):
    calls = []
    real_sumset = groups.sumset

    def sumset(x, y):
        calls.append((x, y))
        return real_sumset(x, y)

    monkeypatch.setattr(groups, "sumset", sumset)
    inst = Instance(z9.group, z9.a, z9.bs)
    assert inst.k == 3 and inst.bk == real_sumset(real_sumset(*z9.bs[:2]), z9.bs[2])
    assert len(calls) == 2


@given(st.integers(0, 10_000))
def test_levels_made_by_replace_match_fresh_instances(seed):
    inst, _ = rand_instance(random.Random(seed), n_range=(2, 32), k_range=(3, 4),
                            a_range=(1, 8), b_range=(1, 4), l=1)
    s, m = inst.bk, len(inst.a)
    check_plgen(inst, 1)  # fill the memo before the other levels read it
    for level in range(1, inst.k):
        # every level reads inst's one memo; a fresh instance computes anew
        fresh = Instance(inst.group, inst.a, inst.bs)
        assert "gamma" in inst.memo and "gamma" not in fresh.memo
        assert check_plgen(inst, level) == check_plgen(fresh, level)
        assert check_pldiff(inst) == check_pldiff(fresh)
        assert check_single_summand(inst, level) == check_single_summand(fresh, level)
        assert check_restricted_sum(inst, s) == check_restricted_sum(fresh, s)
        assert (empirical_plgen2(inst, level, Fraction(1, 2), samples=16)
                == empirical_plgen2(fresh, level, Fraction(1, 2), samples=16))
        assert large_subset(inst, level, "a", m) == large_subset(fresh, level, "a", m)
