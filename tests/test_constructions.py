import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plab import (GT, Instance, ResourceError, UsageError, admissible_q, alpha_table,
                  beta_value, build_extension, check_plgen, cmp_ratio_vs_beta,
                  lemma21_demo, make_abelian_group, multiplicativity_check, sumset)
from plab.magnification import instance_gamma

from gen import rand_instance
from oracles import naive_sumset


def test_admissible_q_z9(z9):
    qs = admissible_q(alpha_table(z9), z9.group.order)[:4]
    assert qs == [2, 4, 6, 8]


def test_admissible_q_integer_alphas():
    g = make_abelian_group([6])
    e = g.set_of([g.identity])
    inst = Instance(g, g.set_of([0, 2]), (e, e))
    assert admissible_q(alpha_table(inst), g.order)[:3] == [1, 2, 3]


def test_admissible_q_cap_exceeded(z9, set_cap):
    set_cap("100")
    with pytest.raises(ResourceError):
        admissible_q(alpha_table(z9), z9.group.order)


def test_build_extension_preconditions(z9, z5):
    with pytest.raises(UsageError):
        build_extension(z9, 2, 3)   # inadmissible q (alpha*q not integral)
    with pytest.raises(UsageError, match="construction requires k = l\\+1, got k=3, l=1"):
        build_extension(z9, 1, 2)
    # z5 has k=l+1=2 with leave-one-out alphas (2, 3/2), so q=2 is the first
    assert build_extension(z5, 1, 2).n == (4, 3)
    with pytest.raises(UsageError, match="q must be >= 1, got 0"):
        build_extension(z9, 2, 0)


def test_extension_shape_z9_q2(z9):
    setup = build_extension(z9, 2, 2)
    assert setup.n == (8, 6, 5)
    assert setup.h_order == 240
    assert setup.gprime.order == 2160
    assert len(setup.aprime) == 2
    assert [len(b) for b in setup.bi_prime] == [16, 12, 10]


def test_demo_z9_q2_distinct_sizes(z9):
    rep = lemma21_demo(z9, 2, 2)
    assert rep.expected_distinct == 240
    assert all(size == 240 for size in rep.distinct_sizes.values())
    # |H| = beta^l * q^k exactly: 30 * 8
    beta_l_qk = Fraction(30) * 2 ** 3
    assert rep.setup.h_order == beta_l_qk == 240


def test_demo_z9_q2_identities_hold(z9):
    rep = lemma21_demo(z9, 2, 2)
    assert rep.identities_hold
    # one distinct-summand size off, or the apex identity broken, breaks it
    assert not rep._replace(distinct_sizes={**rep.distinct_sizes, 2: 241}).identities_hold
    assert not rep._replace(apex_equal=False).identities_hold


def test_demo_z9_q2_union_and_first_q(z9):
    rep = lemma21_demo(z9, 2, 2)
    assert rep.union_rhs == 1440
    assert rep.union_holds
    assert rep.first_satisfying_q == 2
    assert rep.union_size >= max(rep.distinct_sizes.values())


def test_demo_union_matches_bruteforce(z9):
    rep = lemma21_demo(z9, 2, 2)
    gp = rep.setup.gprime
    bprime = list(rep.setup.bprime)
    acc = set(rep.setup.aprime)
    for _ in range(z9.k - 1):
        acc = naive_sumset(gp, acc, bprime)
    assert rep.union_size == len(acc)


def test_demo_repeated_terms_z9_q2(z9):
    rep = lemma21_demo(z9, 2, 2)
    assert rep.repeated_sizes == {(1, 1): 32, (2, 2): 36, (3, 3): 25}


def test_demo_apex_identity(z9):
    rep = lemma21_demo(z9, 2, 2)
    assert rep.apex_equal
    assert rep.apex_lhs == 240 * 9


def test_demo_ratio_decreases_over_first_three_q(z9):
    ratios = [lemma21_demo(z9, 2, q).repeated_to_distinct_ratio for q in (2, 4, 6)]
    assert ratios[0] > ratios[1] > ratios[2]


@given(st.integers(0, 100_000))
def test_first_satisfying_q_is_the_first_in_a_plain_scan(seed):
    # the first of the first eight admissible q whose union sum |A'+(k-1)B'|
    # meets 2*k*m*(beta*q)^l, whichever q the demo is run at
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    inst, _ = rand_instance(rng, n_range=(2, 7), k_range=(k, k), a_range=(1, 3),
                            b_range=(1, 3), l=k - 1)
    table = alpha_table(inst)
    m, s_prod = table.m, math.prod(table.sizes[inst.key_set - {i}] for i in inst.key_set)
    qs = admissible_q(table, inst.group.order)

    def union_holds(q):
        setup = build_extension(inst, k - 1, q)
        union = setup.aprime
        for _ in range(k - 1):
            union = sumset(union, setup.bprime)
        return len(union) * m ** k <= 2 * k * m * q ** (k - 1) * s_prod

    first = next((q for q in qs if union_holds(q)), None)
    for q in rng.sample(qs, min(3, len(qs))):
        assert lemma21_demo(inst, k - 1, q).first_satisfying_q == first


def test_demo_identity_summands():
    g = make_abelian_group([4])
    e = g.set_of([g.identity])
    inst = Instance(g, g.set_of([0, 1]), (e, e))
    rep = lemma21_demo(inst, 1, 2)
    # all alphas are 1, so n_i = q and the distinct terms have size m*q
    assert rep.setup.n == (2, 2)
    assert rep.expected_distinct == 4
    assert all(size == 4 for size in rep.distinct_sizes.values())
    assert rep.apex_equal


def roots_bounded(inst, l, r):
    """gamma_r^(1/r) <= beta at level l, exactly: with gamma_r = gamma^r the root is gamma."""
    beta = beta_value(alpha_table(inst), inst.key_set, l)
    gamma = instance_gamma(inst).gamma
    return (multiplicativity_check(inst, r) == gamma ** r
            and cmp_ratio_vs_beta(gamma, beta) != GT)


def test_power_experiment_z5(z5):
    assert instance_gamma(z5).gamma == Fraction(5, 2)
    assert multiplicativity_check(z5, 2) == Fraction(25, 4)
    assert roots_bounded(z5, 1, 2)


def test_power_experiment_r1_matches_plgen(z9):
    assert multiplicativity_check(z9, 1) == check_plgen(z9, 2).lhs
    assert roots_bounded(z9, 2, 1)


def test_power_experiment_z9(z9):
    assert multiplicativity_check(z9, 2) == Fraction(81, 4) == instance_gamma(z9).gamma ** 2


def test_power_experiment_bad_r(z5):
    with pytest.raises(UsageError):
        multiplicativity_check(z5, 0)
