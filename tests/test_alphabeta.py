import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plab import (EQ, GT, LT, Instance, UsageError, alpha_table, beta_value,
                  cmp_ratio_vs_beta, iterated_sumset, make_abelian_group,
                  make_cayley_group)
from plab.alphabeta import BetaValue

from cayley_tables import bundled_tables
from gen import rand_instance, synthetic_alpha_table
from oracles import beta_identity_holds, beta_reference, naive_iterated, naive_sumset


def identity_instance(k=3):
    g = make_abelian_group([6])
    e = g.set_of([g.identity])
    return Instance(g, g.set_of([0, 2, 5]), tuple(e for _ in range(k)))


# -- alpha tables ---------------------------------------------------------------

def test_alpha_table_z5(z5):
    t = alpha_table(z5)
    assert t.m == 2
    assert t.sizes == {frozenset(): 2, frozenset({1}): 3, frozenset({2}): 4,
                       frozenset({1, 2}): 5}


def test_alpha_table_z9(z9):
    t = alpha_table(z9)
    assert t.m == 2
    assert t.sizes[frozenset({1, 2})] == 5
    assert t.sizes[frozenset({1, 3})] == 6
    assert t.sizes[frozenset({2, 3})] == 8
    assert t.sizes[frozenset({1, 2, 3})] == 9


def test_alpha_table_identity_sets():
    t = alpha_table(identity_instance())
    assert all(size == t.m for size in t.sizes.values())


def test_alpha_table_matches_oracle(z9):
    t = alpha_table(z9)
    b_lists = [sorted(b) for b in z9.bs]
    for key, size in t.sizes.items():
        expected = naive_sumset(z9.group, list(z9.a),
                                naive_iterated(z9.group, b_lists, key))
        assert size == len(expected)


def test_alpha_table_keeps_only_one_path_of_sets_alive():
    # each A+B_I here spans 2^20 bits (0.125 MB), since A holds the top
    # element; all 2^8 sets at once take 32 MB, the 9 of one path 1.1 MB
    g = make_abelian_group([1 << 20])
    b = g.set_of([0, 1])
    inst = Instance(g, g.set_of([0, (1 << 20) - 1]), [b] * 8)
    tracemalloc.start()
    try:
        table = alpha_table(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A+B_I = {-1, 0, ..., |I|}
    assert table.sizes == {frozenset(c): len(c) + 2
                           for size in range(9) for c in combinations(range(1, 9), size)}
    assert peak < 4 * 2 ** 20


def test_alpha_table_k_cap():
    g = make_abelian_group([3])
    b = g.set_of([0])
    with pytest.raises(UsageError):
        alpha_table(Instance(g, b, tuple(b for _ in range(9))))


@given(st.integers(0, 10_000))
def test_alpha_monotone(seed):
    inst, _ = rand_instance(random.Random(seed), n_range=(2, 24), k_range=(2, 4),
                            a_range=(1, 5), b_range=(1, 5))
    t = alpha_table(inst)
    for key, size in t.sizes.items():
        for extra in range(1, inst.k + 1):
            assert size <= t.sizes[key | {extra}]


NONCOMM = [make_cayley_group(table) for _, table in bundled_tables(12)
           if not make_cayley_group(table).is_abelian]


def test_alpha_table_multiplies_in_index_order_d3():
    # A*B1*B2 has 4 elements; A*B2*B1, the order the table once used, has 6
    g = make_cayley_group(dict(bundled_tables(12))["D3"])
    inst = Instance(g, g.set_of([0, 1, 4]), (g.set_of([0, 4]), g.set_of([2, 5])))
    assert alpha_table(inst).sizes[frozenset({1, 2})] == 4


@given(st.integers(0, len(NONCOMM) - 1), st.integers(0, 10_000))
def test_alpha_table_matches_iterated_sumsets_in_noncommutative_groups(which, seed):
    g = NONCOMM[which]
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    a = g.set_of(rng.sample(range(g.order), rng.randint(1, 6)))
    bs = tuple(g.set_of(rng.sample(range(g.order), rng.randint(1, 3))) for _ in range(k))
    inst = Instance(g, a, bs)
    assert inst.bk == g.set_of(naive_iterated(g, [list(b) for b in bs], inst.key_set))
    t = alpha_table(inst)
    for key, size in t.sizes.items():
        assert size == len(iterated_sumset([a, *(bs[i - 1] for i in sorted(key))]))


# -- beta values -----------------------------------------------------------------

CAYLEY = [make_cayley_group(table) for _, table in bundled_tables(12)]


@st.composite
def tables(draw):
    """An alpha table with k in 2..5: of a random Z_N instance, of random
    sets in a bundled Cayley group, or synthetic."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    k = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["abelian", "cayley", "synthetic"]))
    if kind == "synthetic":
        return synthetic_alpha_table(k, rng)
    if kind == "abelian":
        return alpha_table(rand_instance(rng, n_range=(2, 40), k_range=(k, k),
                                         a_range=(1, 8), b_range=(1, 5))[0])
    g = CAYLEY[draw(st.integers(0, len(CAYLEY) - 1))]
    a = g.set_of(rng.sample(range(g.order), rng.randint(1, min(6, g.order))))
    bs = tuple(g.set_of(rng.sample(range(g.order), rng.randint(1, min(3, g.order))))
               for _ in range(k))
    return alpha_table(Instance(g, a, bs))


@given(tables())
def test_beta_value_matches_fraction_product(t):
    # one Fraction of integer sizes gives the same base as the product of
    # the reduced alphas, and so the same display float, bit for bit
    full = range(1, t.k + 1)
    for l in full:
        for size in range(l, t.k + 1):
            for j in _subsets_of_size(full, size):
                got, (want, want_approx) = beta_value(t, j, l), beta_reference(t, j, l)
                assert (got.base, got.expo_den, got.approx.hex()) == (
                    want.base, want.expo_den, want_approx.hex()), (sorted(j), l)


def test_beta_z5_level1(z5):
    b = beta_value(alpha_table(z5), z5.key_set, 1)
    assert b.base == 3 and b.expo_den == 1
    assert b.approx == 3.0


def test_beta_z9_level2(z9):
    b = beta_value(alpha_table(z9), z9.key_set, 2)
    assert b.base == 30 and b.expo_den == 2
    assert b.approx == pytest.approx(math.sqrt(30), rel=1e-12)


def test_beta_identity_sets():
    t = alpha_table(identity_instance())
    for size in (1, 2):
        for j in ({1, 2}, {1, 3}, {1, 2, 3}):
            if len(j) >= size:
                assert beta_value(t, frozenset(j), size).base == 1


def test_beta_degenerate_j_equals_l(z9):
    b = beta_value(alpha_table(z9), frozenset({1, 2}), 2)
    assert b.base == Fraction(5, 2) and b.expo_den == 1


def test_beta_value_holds_only_the_exact_pair(z9):
    assert BetaValue._fields == ("base", "expo_den")
    got, want = beta_value(alpha_table(z9), z9.key_set, 2), BetaValue(Fraction(30), 2)
    assert got == want and hash(got) == hash(want)


def test_beta_errors(z9):
    t = alpha_table(z9)
    with pytest.raises(UsageError):
        beta_value(t, frozenset({1}), 2)       # |J| < l
    with pytest.raises(UsageError):
        beta_value(t, frozenset({1, 2, 9}), 1)  # outside 1..k
    with pytest.raises(UsageError):
        beta_value(t, frozenset({1, 4}), 1)     # index k+1, just outside


def test_equal_summand_reduction():
    # with every B_i equal, base = alpha^C(k,l) and the root C(k-1,l-1)
    # satisfy base^l == alpha^(k*C(k-1,l-1)) exactly
    g = make_abelian_group([16])
    a = g.set_of([0, 1, 5])
    b = g.set_of([0, 2, 3])
    for k in (2, 3, 4):
        inst = Instance(g, a, tuple(g.set_of(list(b)) for _ in range(k)))
        t = alpha_table(inst)
        for l in range(1, k):
            alpha = Fraction(t.sizes[frozenset(range(1, l + 1))], t.m)
            bv = beta_value(t, inst.key_set, l)
            assert bv.base == alpha ** math.comb(k, l)
            assert bv.base ** l == alpha ** (k * math.comb(k - 1, l - 1))


# -- exact comparisons --------------------------------------------------------------

def test_cmp_plain_rational():
    b = BetaValue(base=Fraction(3), expo_den=1)
    assert cmp_ratio_vs_beta(Fraction(5, 2), b) == LT
    assert cmp_ratio_vs_beta(Fraction(3), b) == EQ
    assert cmp_ratio_vs_beta(Fraction(7, 2), b) == GT


def test_cmp_square_root():
    b = BetaValue(base=Fraction(30), expo_den=2)
    assert cmp_ratio_vs_beta(Fraction(9, 2), b) == LT   # 81/4 < 30
    assert cmp_ratio_vs_beta(Fraction(6), b) == GT      # 36 > 30


def test_cmp_identity_case():
    b = BetaValue(base=Fraction(1), expo_den=1)
    assert cmp_ratio_vs_beta(Fraction(1), b) == EQ


def test_cmp_requires_positive():
    b = BetaValue(base=Fraction(1), expo_den=1)
    with pytest.raises(UsageError):
        cmp_ratio_vs_beta(Fraction(0), b)


@given(st.fractions(min_value="1/100", max_value="100"),
       st.fractions(min_value="1/100", max_value="100"),
       st.integers(1, 6))
def test_cmp_agrees_with_floats_off_boundary(ratio, base, root):
    b = BetaValue(base=base, expo_den=root)
    approx = math.exp((math.log(base.numerator) - math.log(base.denominator)) / root)
    gap = abs(float(ratio) - approx)
    if gap > 1e-6 * max(approx, 1.0):
        expected = LT if float(ratio) < approx else GT
        assert cmp_ratio_vs_beta(ratio, b) == expected


# -- the sub-bound product identity ---------------------------------------------------

def test_identity_z9(z9):
    t = alpha_table(z9)
    assert beta_identity_holds(t, z9.key_set, 2)
    # both sides are rational here: product of the three pair-alphas is 30
    assert (t.sizes[frozenset({1, 2})] * t.sizes[frozenset({1, 3})]
            * t.sizes[frozenset({2, 3})]) == 30 * t.m ** 3


def test_identity_trivial_k2(z5):
    assert beta_identity_holds(alpha_table(z5), z5.key_set, 1)


def test_identity_synthetic_k5():
    t = synthetic_alpha_table(5, random.Random(42))
    assert beta_identity_holds(t, frozenset(range(1, 6)), 2)


def test_identity_precondition(z9):
    with pytest.raises(UsageError):
        beta_identity_holds(alpha_table(z9), frozenset({1, 2}), 2)


@given(st.integers(0, 10_000), st.integers(2, 5))
def test_identity_on_synthetic_tables(seed, k):
    t = synthetic_alpha_table(k, random.Random(seed))
    full = frozenset(range(1, k + 1))
    for l in range(1, k):
        for size in range(l + 1, k + 1):
            for j in _subsets_of_size(full, size):
                assert beta_identity_holds(t, j, l)


def _subsets_of_size(full, size):
    from itertools import combinations
    return [frozenset(c) for c in combinations(sorted(full), size)]


@given(st.integers(0, 10_000))
def test_identity_on_random_instances(seed):
    inst, l = rand_instance(random.Random(seed), n_range=(2, 32), k_range=(2, 4),
                            a_range=(1, 5), b_range=(1, 4))
    t = alpha_table(inst)
    full = frozenset(range(1, inst.k + 1))
    for size in range(l + 1, inst.k + 1):
        for j in _subsets_of_size(full, size):
            assert beta_identity_holds(t, j, l)
