"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every limit is pinned here.
"""

import random
import time
from fractions import Fraction

from plab import (Instance, alpha_table, beta_value,
                  build_plun_graph, check_noncommutative, check_plgen,
                  check_restricted_sum, cmp_ratio_vs_beta, direct_powers,
                  gamma_flow, iterated_sumset, large_subset,
                  lemma21_demo, make_cayley_group,
                  multiplicativity_check, sumset)
from plab.alphabeta import LT
from plab.cli import run_sweep, sweep_config_from_dict
from plab.magnification import instance_gamma

from cayley_tables import bundled_tables
from gen import rand_instance, rand_subset, synthetic_alpha_table
from oracles import beta_identity_holds, gamma_exhaustive, nonempty_subsets


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_acceptance_plgen_sweep():
    cfg = sweep_config_from_dict({
        "seed": 20260808, "count": 1000, "k_range": [2, 4], "l_rule": "all",
        "group_size_range": [2, 64], "set_size_range": [1, 8],
        "checks": ["plgen"]})
    start = time.perf_counter()
    text = run_sweep(cfg)  # raises on any violation
    elapsed = time.perf_counter() - start
    rows = text.splitlines()[1:]
    ok = len(rows) >= 1000 and all(",true," in row for row in rows) and elapsed < 300
    report("plgen-sweep", ok,
           f"{len(rows)} verdicts over 1000 instances, 0 violations, {elapsed:.1f}s")


def test_acceptance_oracle_equivalence():
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        inst, _ = rand_instance(rng, n_range=(2, 64), k_range=(2, 4),
                                a_range=(1, 12), b_range=(1, 8))
        bk = iterated_sumset(inst.bs)
        graph = build_plun_graph(inst.a, bk)
        ex, fl = gamma_exhaustive(graph), gamma_flow(graph)
        assert ex.gamma == fl.gamma, f"method mismatch on seed state {checked}"
        for res in (ex, fl):
            image = sumset(res.witness, bk)
            assert (len(image) * res.gamma.denominator
                    == len(res.witness) * res.gamma.numerator)
        checked += 1
    report("oracle-equivalence", checked == 200,
           f"{checked}/200 instances: identical reduced fractions, witnesses exact")


def test_acceptance_multiplicativity():
    rng = random.Random(43)
    for _ in range(50):
        inst, _ = rand_instance(rng, n_range=(2, 16), k_range=(2, 3),
                                a_range=(1, 5), b_range=(1, 4))
        gamma, squared = instance_gamma(inst).gamma, multiplicativity_check(inst, 2)
        assert squared == gamma ** 2, f"gamma^2 mismatch: {squared} against {gamma}^2"
    cubes = 0
    rng3 = random.Random(47)
    while cubes < 5:
        inst, _ = rand_instance(rng3, n_range=(2, 12), k_range=(2, 2),
                                a_range=(1, 2), b_range=(1, 2))
        gamma, cubed = instance_gamma(inst).gamma, multiplicativity_check(inst, 3)
        assert cubed == gamma ** 3, f"gamma^3 mismatch: {cubed} against {gamma}^3"
        cubes += 1
    report("multiplicativity", True,
           "50 instances exact at r=2, 5 more exact at r=3")


def test_acceptance_worked_fixtures(z5, z9):
    t5 = alpha_table(z5)
    b5 = beta_value(t5, z5.key_set, 1)
    g5 = gamma_exhaustive(build_plun_graph(z5.a, iterated_sumset(z5.bs)))
    ok5 = (Fraction(t5.sizes[frozenset({1})], t5.m) == Fraction(3, 2)
           and Fraction(t5.sizes[frozenset({2})], t5.m) == 2
           and b5.base == 3 and b5.expo_den == 1
           and g5.gamma == Fraction(5, 2) and sorted(g5.witness) == [0, 1])
    v9 = check_plgen(z9, 2)
    ok9 = (v9.lhs == Fraction(9, 2) and v9.rhs.base == 30 and v9.rhs.expo_den == 2
           and v9.lhs ** 2 == Fraction(81, 4)
           and cmp_ratio_vs_beta(v9.lhs, v9.rhs) == LT)
    report("worked-fixtures", ok5 and ok9,
           "Z5: alpha=(3/2,2) beta=3 gamma=5/2 witness {0,1}; Z9: 81/4 <= 30")


def _all_j_sets(k, l):
    from itertools import combinations
    for size in range(l + 1, k + 1):
        for combo in combinations(range(1, k + 1), size):
            yield frozenset(combo)


def test_acceptance_beta_identity():
    rng = random.Random(53)
    for _ in range(100):
        inst, l = rand_instance(rng, n_range=(2, 32), k_range=(2, 5),
                                a_range=(1, 6), b_range=(1, 4))
        table = alpha_table(inst)
        for j in _all_j_sets(inst.k, l):
            assert beta_identity_holds(table, j, l)
    for seed in range(100):
        srng = random.Random(1000 + seed)
        k = srng.randint(2, 5)
        table = synthetic_alpha_table(k, srng)
        l = srng.randint(1, k - 1)
        for j in _all_j_sets(k, l):
            assert beta_identity_holds(table, j, l)
    report("beta-identity", True,
           "all J exact on 100 random instances (k<=5) and 100 synthetic tables")


def test_acceptance_restricted_sums():
    rng = random.Random(59)
    accepted = 0
    tensor_checked = 0
    subsets_total = 0
    while accepted < 100:
        inst, _ = rand_instance(rng, n_range=(2, 32), k_range=(2, 3),
                                a_range=(1, 6), b_range=(1, 3))
        bk = iterated_sumset(inst.bs)
        if len(bk) > 12:
            continue
        accepted += 1
        for z in nonempty_subsets(bk):
            assert check_restricted_sum(inst, inst.group.set_of(z)).holds
            subsets_total += 1
        if tensor_checked < 10 and inst.group.order ** 3 <= (1 << 26):
            s = rand_subset(rng, bk)
            sa = len(sumset(s, inst.a))
            for r in (2, 3):
                s_r, a_r = direct_powers((s, inst.a), r)
                assert len(sumset(s_r, a_r)) == sa ** r
            tensor_checked += 1
    report("restricted-sums", True,
           f"100 instances, {subsets_total} subsets exact; tensor identity "
           f"exact for r<=3 on {tensor_checked} instances")


def test_acceptance_large_subset_bounds():
    rng = random.Random(61)
    grid_checks = 0
    for _ in range(200):
        inst, l = rand_instance(rng, n_range=(2, 32), k_range=(2, 3),
                                a_range=(1, 8), b_range=(1, 4))
        m = len(inst.a)
        beta = beta_value(alpha_table(inst), inst.key_set, l)
        res0 = large_subset(inst, l, "t", 0)
        assert res0.bound == beta.approx * len(res0.x), "t=0 must give beta*|X| exactly"
        assert res0.holds and res0.iterations <= m
        for a_target in sorted({1, (m + 1) // 2, m}):
            res = large_subset(inst, l, "a", a_target)
            assert res.holds and len(res.x) >= a_target and res.iterations <= m
            grid_checks += 1
        for t_target in sorted({0.0, 0.3 * m, 0.6 * m, m - 0.5}):
            if not 0 <= t_target < m:
                continue
            res = large_subset(inst, l, "t", t_target)
            assert res.holds and len(res.x) > t_target and res.iterations <= m
            grid_checks += 1
    report("large-subset-bounds", True,
           f"200 instances: t=0 exact, {grid_checks} grid points hold exactly, "
           f"constructor always ended within m rounds")


def test_acceptance_cyclic_extension_demo(z9):
    rep2 = lemma21_demo(z9, 2, 2)
    ok = (all(size == 240 for size in rep2.distinct_sizes.values())
          and rep2.expected_distinct == 240
          and rep2.union_holds and rep2.first_satisfying_q == 2)
    ratios = [rep2.repeated_to_distinct_ratio]
    for q in (4, 6):
        ratios.append(lemma21_demo(z9, 2, q).repeated_to_distinct_ratio)
    ok = ok and ratios[0] > ratios[1] > ratios[2]
    report("cyclic-extension-demo", ok,
           f"distinct sizes all 240 at q=2; union bound first holds at q=2; "
           f"repeated/distinct ratios {[float(r) for r in ratios]} decreasing")


def test_acceptance_noncommutative_search():
    rng = random.Random(67)
    findings = []
    trials = 0
    for name, table in bundled_tables(12):
        group = make_cayley_group(table)
        n = group.order
        for _ in range(50):
            a = group.set_of(rng.sample(range(n), rng.randint(1, n)))
            b1 = group.set_of(rng.sample(range(n), rng.randint(1, n)))
            b2 = group.set_of(rng.sample(range(n), rng.randint(1, n)))
            verdict = check_noncommutative(Instance(group, a, (b1, b2)))
            trials += 1
            if not verdict.holds:
                findings.append((name, sorted(a), sorted(b1), sorted(b2)))
    for finding in findings:
        print(f"[acceptance] noncommutative-search FINDING "
              f"(candidate counterexample, not a failure): {finding}")
    report("noncommutative-search", True,
           f"{trials} trials over {len(bundled_tables(12))} groups of order <= 12; "
           f"{len(findings)} candidate counterexamples")


def test_acceptance_sweep_determinism():
    cfg = sweep_config_from_dict({
        "seed": 71, "count": 100, "k_range": [2, 4], "l_rule": "all",
        "group_size_range": [2, 48], "set_size_range": [1, 6],
        "checks": ["plgen", "pldiff", "restricted", "power"]})
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    threaded = run_sweep(cfg, workers=4)
    ok = first == second == threaded
    report("sweep-determinism", ok,
           f"{len(first.splitlines()) - 1} rows byte-identical across two serial "
           f"runs and a 4-worker run")
