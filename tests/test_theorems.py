import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plab import (EQ, GT, LT, BetaValue, Instance, ResourceError, TheoremViolationError,
                  UsageError,
                  alpha_table, beta_value, build_plun_graph, check_noncommutative,
                  check_pldiff, check_plgen, check_restricted_sum, check_single_summand,
                  cmp_ratio_vs_beta, empirical_plgen2,
                  iterated_sumset, large_subset, make_abelian_group,
                  make_cayley_group, restricted_pipeline, sumset)
from plab import groups, theorems
from plab.alphabeta import instance_table
from plab.cli import _raise_if_violated, serialize_instance
from plab.theorems import TheoremVerdict

from cayley_tables import bundled_tables, cyclic_table, symmetric_table
from gen import rand_instance, rand_subset
from oracles import (gamma_exhaustive, large_subset_reference, naive_iterated, naive_sumset,
                     nonempty_subsets, plgen2_reference)


def identity_instance(k=2):
    g = make_abelian_group([6])
    e = g.set_of([g.identity])
    return Instance(g, g.set_of([0, 2, 5]), tuple(e for _ in range(k)))


# -- the central check --------------------------------------------------------------

def test_plgen_z5(z5):
    v = check_plgen(z5, 1)
    assert v.holds
    assert v.lhs == Fraction(5, 2)
    assert v.rhs.base == 3 and v.rhs.expo_den == 1
    assert sorted(v.witness) == [0, 1]


def test_plgen_z9_exact_square(z9):
    v = check_plgen(z9, 2)
    assert v.holds
    assert v.lhs == Fraction(9, 2)
    # the verdict is the integer comparison (9/2)^2 = 81/4 <= 30
    assert v.lhs ** 2 == Fraction(81, 4) <= 30
    assert cmp_ratio_vs_beta(v.lhs, v.rhs) == LT


def test_plgen_identity_equality():
    v = check_plgen(identity_instance(), 1)
    assert v.holds
    assert v.lhs == 1 and v.rhs.base == 1
    assert cmp_ratio_vs_beta(v.lhs, v.rhs) == EQ


def test_exhaustive_method_agrees(z5):
    assert gamma_exhaustive(build_plun_graph(z5.a, z5.bk)).gamma == check_plgen(z5, 1).lhs


@given(st.integers(0, 100_000))
def test_plgen_always_holds(seed):
    inst, l = rand_instance(random.Random(seed), n_range=(2, 64), k_range=(2, 4),
                            a_range=(1, 8), b_range=(1, 8))
    assert check_plgen(inst, l).holds


def test_ensure_holds_raises_on_guaranteed_failure(z5):
    fake = TheoremVerdict(holds=False, lhs=2, rhs=1)
    with pytest.raises(TheoremViolationError) as exc:
        _raise_if_violated("plgen", fake, z5, 1)
    assert exc.value.dump == serialize_instance(z5, 1)
    _raise_if_violated("noncomm", fake, z5, 1)  # unproved: a finding, not a violation


# -- equal summands -------------------------------------------------------------------

def test_single_summand_z4():
    g = make_abelian_group([4])
    a = g.set_of([0, 1])
    v = check_single_summand(Instance(g, a, (a, a)), 1)
    assert v.holds
    assert v.lhs == 2
    assert v.rhs.base == Fraction(9, 4) and v.rhs.expo_den == 1


def test_single_summand_identity():
    g = make_abelian_group([4])
    e = g.set_of([g.identity])
    v = check_single_summand(Instance(g, g.set_of([0, 1]), (e, e)), 1)
    assert v.holds and v.lhs == 1 and v.rhs.base == 1


def test_single_summand_z8_singleton_base():
    g = make_abelian_group([8])
    b = g.set_of([0, 1])
    v = check_single_summand(Instance(g, g.set_of([0]), (b, b, b)), 1)
    assert v.holds
    assert v.lhs == 4       # |{0} + 3B| = 4
    assert v.rhs.base == 8  # alpha^k = 2^3


def test_single_summand_needs_l_below_k():
    g = make_abelian_group([4])
    b = g.set_of([0])
    with pytest.raises(UsageError):
        check_single_summand(Instance(g, b, (b, b)), 2)


@given(st.integers(0, 10_000))
def test_single_agrees_with_plgen_on_equal_sets(seed):
    rng = random.Random(seed)
    inst, l = rand_instance(rng, n_range=(2, 24), k_range=(2, 3), a_range=(1, 5),
                            b_range=(1, 4))
    equal = Instance(inst.group, inst.a, tuple(inst.bs[0] for _ in range(inst.k)))
    v1 = check_single_summand(inst, l)
    v2 = check_plgen(equal, l)
    assert (v1.holds, v1.lhs, v1.rhs) == (v2.holds, v2.lhs, v2.rhs)


# -- product-of-alphas case ------------------------------------------------------------

def test_pldiff_z5(z5):
    v = check_pldiff(z5)
    assert v.holds and v.lhs == Fraction(5, 2) and v.rhs.base == 3


def test_pldiff_z9(z9):
    v = check_pldiff(z9)
    assert v.rhs.base == 6 and v.rhs.expo_den == 1
    assert v.lhs == Fraction(9, 2)
    assert v.holds


def test_pldiff_identity_equality():
    v = check_pldiff(identity_instance(3))
    assert v.holds and v.lhs == 1 == v.rhs.base


@given(st.integers(0, 10_000))
def test_pldiff_agrees_with_plgen_at_level_one(seed):
    inst, l = rand_instance(random.Random(seed), n_range=(2, 24), k_range=(2, 3),
                            a_range=(1, 5), b_range=(1, 4), l=1)
    v1, v2 = check_pldiff(inst), check_plgen(inst, l)
    assert (v1.holds, v1.lhs, v1.rhs) == (v2.holds, v2.lhs, v2.rhs)


# -- empirical near-full-size constant ---------------------------------------------------

def test_empirical_identity_sets():
    emp = empirical_plgen2(identity_instance(), 1, Fraction(1, 2))
    assert cmp_ratio_vs_beta(emp.ratio, emp.beta) == EQ
    assert emp.exhaustive


def test_empirical_epsilon_near_one(z5):
    emp = empirical_plgen2(z5, 1, Fraction(99, 100))
    assert emp.c_emp <= 4 / 3 + 1e-12


def test_empirical_z5_admits_all_nonempty(z5):
    # (1-0.6)*2 = 0.8 admits every nonempty X; X=A attains the minimum,
    # where the binding J is a singleton with ratio exactly beta_J
    emp = empirical_plgen2(z5, 1, Fraction(6, 10))
    assert emp.x == z5.a
    assert cmp_ratio_vs_beta(emp.ratio, emp.beta) == EQ


def test_empirical_epsilon_range(z5):
    with pytest.raises(UsageError):
        empirical_plgen2(z5, 1, Fraction(0))
    with pytest.raises(UsageError):
        empirical_plgen2(z5, 1, Fraction(3, 2))


def test_empirical_sampled_path():
    g = make_abelian_group([40])
    rng = random.Random(5)
    a = g.set_of(rng.sample(range(40), 18))
    bs = (g.set_of([0, 3]), g.set_of([0, 7]))
    emp = empirical_plgen2(Instance(g, a, bs), 1, Fraction(1, 2), samples=50, seed=9)
    assert not emp.exhaustive
    assert len(emp.x) > 9
    assert emp.c_emp > 0


@given(st.integers(0, 10_000))
def test_empirical_always_finite_with_admissible_witness(seed):
    rng = random.Random(seed)
    inst, l = rand_instance(rng, n_range=(2, 24), k_range=(2, 3), a_range=(1, 6),
                            b_range=(1, 4))
    eps = Fraction(rng.randint(1, 9), 10)
    emp = empirical_plgen2(inst, l, eps)
    assert len(emp.x) > (1 - eps) * len(inst.a)
    assert emp.c_emp < math.inf
    # the witness X reproduces the claimed constant at the binding J
    b = beta_value(alpha_table(inst), emp.argmax_j, l)
    x_plus_bj = iterated_sumset([emp.x, *(inst.bs[i - 1] for i in sorted(emp.argmax_j))])
    lhs = Fraction(len(x_plus_bj), len(emp.x))
    assert cmp_ratio_vs_beta(lhs, b, emp.ratio, emp.beta) == EQ


def test_root_ratio_ordering():
    # 2/sqrt(2) = sqrt(2) < 3/2, and 3/sqrt(4) = 3/2 exactly
    root2 = BetaValue(base=Fraction(2), expo_den=2)
    one = BetaValue(base=Fraction(1), expo_den=1)
    four = BetaValue(base=Fraction(4), expo_den=2)
    assert cmp_ratio_vs_beta(Fraction(2), root2, Fraction(3, 2), one) == LT
    assert cmp_ratio_vs_beta(Fraction(3, 2), one, Fraction(2), root2) == GT
    assert cmp_ratio_vs_beta(Fraction(2), root2, Fraction(2), root2) == EQ
    assert cmp_ratio_vs_beta(Fraction(3), four, Fraction(3, 2), one) == EQ


# -- constructive large subsets -----------------------------------------------------------

def test_large_subset_t0_reproduces_beta(z5):
    res = large_subset(z5, 1, "t", 0)
    beta = beta_value(alpha_table(z5), z5.key_set, 1)
    assert res.bound == beta.approx * len(res.x)
    assert res.x == check_plgen(z5, 1).witness
    assert res.holds


def test_large_subset_a1_reproduces_beta(z9):
    res = large_subset(z9, 2, "a", 1)
    beta = beta_value(alpha_table(z9), z9.key_set, 2)
    assert res.bound == beta.approx * len(res.x)
    assert res.holds


def test_large_subset_z5_a2(z5):
    res = large_subset(z5, 1, "a", 2)
    assert sorted(res.x) == [0, 1]
    assert res.lhs == 5
    assert res.bound == pytest.approx(15.0, rel=1e-12)
    assert res.holds


def test_large_subset_value_errors(z5):
    with pytest.raises(UsageError):
        large_subset(z5, 1, "a", 0)
    with pytest.raises(UsageError):
        large_subset(z5, 1, "a", 3)
    with pytest.raises(UsageError):
        large_subset(z5, 1, "t", 2.0)
    with pytest.raises(UsageError):
        large_subset(z5, 1, "x", 1)


@given(st.integers(0, 10_000))
def test_large_subset_growth_and_termination(seed):
    rng = random.Random(seed)
    inst, l = rand_instance(rng, n_range=(2, 32), k_range=(2, 3), a_range=(1, 8),
                            b_range=(1, 4))
    m = len(inst.a)
    a_target = rng.randint(1, m)
    res = large_subset(inst, l, "a", a_target)
    assert len(res.x) >= a_target
    assert res.iterations <= m
    assert res.holds
    t_target = rng.uniform(0, m - 0.01)
    res_t = large_subset(inst, l, "t", t_target)
    assert len(res_t.x) > t_target
    assert res_t.iterations <= m
    assert res_t.holds


@given(st.integers(0, 100_000))
@example(1040)  # mode "a" at a = |A| takes five steps at level 1
def test_large_subset_matches_a_fresh_graph_at_every_step(seed):
    # each step's graph is the base graph cut down to A minus X, and |X+B_K|
    # is read off the images: X, lhs, steps and bound are the fresh loop's
    rng = random.Random(seed)
    g = make_abelian_group([rng.randint(2, 30) for _ in range(rng.randint(1, 2))])
    a = g.set_of(rng.sample(range(g.order), rng.randint(1, min(g.order, 12))))
    # small summands leave A's witness small, so that X grows in several steps
    bs = [g.set_of([0, *rng.sample(range(1, g.order), rng.randint(0, min(g.order - 1, 2)))])
          for _ in range(rng.randint(2, 4))]
    inst = Instance(g, a, bs)
    m = len(a)
    for l in range(1, inst.k):
        for mode, value in (("a", rng.randint(1, m)), ("a", m), ("t", 0),
                            ("t", Fraction(rng.randrange(4 * m), 4))):
            assert (large_subset(inst, l, mode, value)
                    == large_subset_reference(inst, l, mode, value))


# -- restricted sums --------------------------------------------------------------------

def test_restricted_z5(z5):
    s = z5.group.set_of([0, 3])
    v = check_restricted_sum(z5, s)
    assert v.holds
    assert v.lhs == 16 and v.rhs == 24


def test_restricted_complete_sum(z5):
    bk = iterated_sumset(z5.bs)
    v = check_restricted_sum(z5, bk)
    assert v.holds
    assert v.lhs == len(sumset(bk, z5.a)) ** 2


def test_restricted_singleton(z9):
    bk = iterated_sumset(z9.bs)
    v = check_restricted_sum(z9, z9.group.set_of([next(iter(bk))]))
    assert v.holds
    assert v.lhs == len(z9.a) ** 3


def test_every_subset_restricted_refuses_13_members_before_any_subset(monkeypatch):
    # B_K = {0..15}; one S of 13 members would take 8,191 verdicts
    g = make_abelian_group([64])
    inst = Instance(g, g.set_of([0, 1]), (g.set_of([0, 1, 2, 3]), g.set_of([0, 4, 8, 12])))
    # the walk's budget check is the first step of the every-subset kernel
    def entered(*args):
        raise AssertionError("every-subset kernel entered")
    monkeypatch.setattr(theorems, "check_budget", entered)
    with pytest.raises(UsageError, match=r"^checking every subset of S needs \|S\| <= 12, got 13$"):
        check_restricted_sum(inst, g.set_of(range(13)), every_subset=True)
    with pytest.raises(AssertionError, match="every-subset kernel entered"):
        check_restricted_sum(inst, g.set_of(range(12)), every_subset=True)
    # the cap bounds the subsets, not the one verdict on S itself
    assert check_restricted_sum(inst, g.set_of(range(16))).holds


# -- every subset of S: inclusion-exclusion over the intersections of the t+A ----

def _every_subset_naive(inst, s):
    """(T, lhs, rhs, holds) for every nonempty T inside the sorted list s, in
    increasing mask order, with T+A the union of the naive sumsets t+A."""
    g, a = inst.group, list(inst.a)
    s_prod = math.prod(alpha_table(inst).leave_one_out_sizes())
    translates = [naive_sumset(g, [t], a) for t in s]
    rows = []
    for mask in range(1, 1 << len(s)):
        chosen = [i for i in range(len(s)) if mask >> i & 1]
        lhs = len(set().union(*(translates[i] for i in chosen))) ** inst.k
        rhs = len(chosen) * s_prod
        rows.append(([s[i] for i in chosen], lhs, rhs, lhs <= rhs))
    return rows


def _every_subset_rows(inst, s):
    return [(t, v.lhs, v.rhs, v.holds)
            for t, v in check_restricted_sum(inst, inst.group.set_of(s), every_subset=True)]


WIDE_MODULI = [(256, 256), (3, 1, 50), (4096,)]


@given(st.data())
def test_every_subset_restricted_matches_naive_sumsets(data):
    # groups of more than one word, and bundled Cayley tables, which only the
    # library takes; A is sparse over the group, or a run of consecutive
    # indices whose translates by the small elements of B_K overlap
    moduli = data.draw(st.sampled_from([*WIDE_MODULI, None]))
    if moduli is None:
        g = make_cayley_group(data.draw(st.sampled_from(bundled_tables(24)))[1])
    else:
        g = make_abelian_group(moduli)
    small = st.lists(st.integers(0, min(g.order, 16) - 1), min_size=1, max_size=4, unique=True)
    bs = [g.set_of(data.draw(small)) for _ in range(2)]
    if data.draw(st.booleans()):
        start, width = data.draw(st.integers(0, g.order - 1)), data.draw(st.integers(1, 200))
        a = {(start + i) % g.order for i in range(min(width, g.order))}
    else:
        a = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=20))
    inst = Instance(g, g.set_of(a), bs)
    bk = list(inst.bk)
    size = data.draw(st.integers(1, min(12, len(bk))))
    s = sorted(data.draw(st.lists(st.sampled_from(bk), min_size=size, max_size=size,
                                  unique=True)))
    assert _every_subset_rows(inst, s) == _every_subset_naive(inst, s)


@pytest.mark.parametrize("moduli", WIDE_MODULI)
@pytest.mark.parametrize("dense", [False, True])
def test_every_subset_restricted_at_twelve_members(moduli, dense):
    # S = B_K of 12 members, the most that every_subset takes
    rng = random.Random(12)
    g = make_abelian_group(moduli)
    a = range(150) if dense else rng.sample(range(g.order), 40)
    inst = Instance(g, g.set_of(a), (g.set_of([0, 1, 2]), g.set_of([0, 12, 24, 36])))
    s = list(inst.bk)
    assert len(s) == 12
    assert _every_subset_rows(inst, s) == _every_subset_naive(inst, s)


def test_every_subset_restricted_stops_at_disjoint_pairs(monkeypatch):
    # the translates {t, t+1000} of A over the 12 members t of B_K, all below
    # 51, are pairwise disjoint: the walk takes the 66 pairs and stops there
    g = make_abelian_group([256, 256])
    inst = Instance(g, g.set_of([0, 1000]), (g.set_of([0, 1, 2]), g.set_of([0, 16, 32, 48])))
    s = list(inst.bk)
    instance_table(inst)  # the leave-one-out sizes, before translates are counted

    class Counted(int):
        meets = 0

        def __and__(self, other):
            Counted.meets += 1
            return int(self) & int(other)

        __rand__ = __and__  # a meet below depth 2 has a plain int on the left

    translate_bits = groups.Group.translate_bits
    monkeypatch.setattr(groups.Group, "translate_bits",
                        lambda self, bits, a: Counted(translate_bits(self, bits, a)))
    rows = _every_subset_rows(inst, s)
    assert Counted.meets == 66
    assert [lhs for _, lhs, _, _ in rows] == [(2 * len(t)) ** 2 for t, _, _, _ in rows]
    assert rows == _every_subset_naive(inst, s)


def test_every_subset_restricted_refuses_before_any_translate(set_cap, monkeypatch):
    # 2 * 12 members ints of ceil(4096/64) = 64 words each, counted from the
    # group order, so no translate is computed
    g = make_abelian_group([4096])
    inst = Instance(g, g.set_of([0, 5, 77]), (g.set_of([0, 1, 2]), g.set_of([0, 256, 512, 768])))
    s = inst.bk
    instance_table(inst)  # the leave-one-out sizes come first, and from the table
    set_cap("1535")

    def translate_bits(self, bits, a):
        raise AssertionError("a translate was computed before the budget check")

    monkeypatch.setattr(groups.Group, "translate_bits", translate_bits)
    with pytest.raises(ResourceError) as exc:
        check_restricted_sum(inst, s, every_subset=True)
    assert str(exc.value) == "1536 64-bit words of subset sumsets exceed the element cap 1535"


def test_every_subset_restricted_exact_tie():
    # S = {0, 2, 6, 8} has |S+A| = 8, and |S| * |A+B_1| * |A+B_2| = 4 * 4 * 4:
    # 8^2 = 64 on both sides, which holds, as every other subset of B_K does
    g = make_abelian_group([10])
    inst = Instance(g, g.set_of([1, 4]), (g.set_of([0, 3, 6]), g.set_of([0, 2])))
    rows = _every_subset_rows(inst, list(inst.bk))
    assert len(rows) == 63 and all(holds for _, _, _, holds in rows)
    assert ([0, 2, 6, 8], 64, 64, True) in rows


def test_restricted_requires_subset(z5):
    with pytest.raises(UsageError):
        check_restricted_sum(z5, z5.group.set_of([4]))
    with pytest.raises(UsageError):
        check_restricted_sum(z5, z5.group.set_of([]))


@given(st.integers(0, 10_000))
def test_restricted_all_subsets_small(seed):
    inst, _ = rand_instance(random.Random(seed), n_range=(2, 16), k_range=(2, 3),
                            a_range=(1, 4), b_range=(1, 2))
    bk = iterated_sumset(inst.bs)
    if len(bk) > 8:
        return
    for z in nonempty_subsets(bk):
        assert check_restricted_sum(inst, inst.group.set_of(z)).holds


# -- the proof-chain pipeline ---------------------------------------------------------------

def test_pipeline_small_branch(z5):
    s = z5.group.set_of([0, 3])
    rep = restricted_pipeline(z5, s, 2)
    assert rep.branch == "small"
    assert rep.all_hold
    assert rep.power_rows[1].power_size == 16 == rep.sa_size ** 2
    assert rep.power_rows[1].bound == pytest.approx(
        math.sqrt(2) * math.sqrt(rep.s_prod * rep.s_size), rel=1e-12)


def test_pipeline_large_branch_complete_sum(z5):
    bk = iterated_sumset(z5.bs)
    rep = restricted_pipeline(z5, bk, 2)
    assert rep.branch == "large"
    assert rep.t is not None and 0 <= rep.t < len(z5.a)
    assert rep.all_hold
    names = [st.name for st in rep.steps]
    assert "witness_term_bound" in names and "kth_power_bound" in names


def test_pipeline_bounds_decrease(z9):
    bk = iterated_sumset(z9.bs)
    rep = restricted_pipeline(z9, bk, 3)
    bounds = [row.bound for row in rep.power_rows]
    assert bounds == sorted(bounds, reverse=True)
    assert rep.all_hold


@given(st.integers(0, 10_000))
def test_pipeline_power_identity(seed):
    rng = random.Random(seed)
    inst, _ = rand_instance(rng, n_range=(2, 24), k_range=(2, 3), a_range=(1, 4),
                            b_range=(1, 3))
    bk = iterated_sumset(inst.bs)
    s = rand_subset(rng, bk)
    rep = restricted_pipeline(inst, s, 2)
    assert all(row.identity_holds for row in rep.power_rows)
    assert rep.all_hold


def _pipeline_at(monkeypatch, inst, s, s_prod, r_max):
    """The pipeline with the leave-one-out product s replaced by s_prod."""
    monkeypatch.setattr(theorems, "_leave_one_out_product", lambda inst, s: s_prod)
    return restricted_pipeline(inst, s, r_max)


@pytest.mark.parametrize("s_prod, holds", [(2, True), (1, False)])
def test_pipeline_relaxed_bound_at_equality(monkeypatch, z5, s_prod, holds):
    # S = {0, 3} has |S+A| = 4 and |S| = 2, so |S+A|^2 <= 2^2 * s * |S| is
    # 16 <= 8s: a tie at s = 2, and one unit below it fails
    rep = _pipeline_at(monkeypatch, z5, z5.group.set_of([0, 3]), s_prod, 1)
    assert (rep.branch, rep.sa_size, rep.s_size) == ("large", 4, 2)
    [step] = [st for st in rep.steps if st.name == "relaxed_bound"]
    assert step.exact and step.holds is holds


@pytest.mark.parametrize("s_prod, holds", [(4, True), (3, False)])
def test_pipeline_power_row_at_equality(monkeypatch, z5, s_prod, holds):
    # at r = 2, |S+A|^4 <= 2^2 * (s * |S|)^2 is 256 <= 16 s^2: a tie at s = 4
    rep = _pipeline_at(monkeypatch, z5, z5.group.set_of([0, 3]), s_prod, 2)
    assert (rep.sa_size, rep.s_size) == (4, 2)
    assert rep.power_rows[1].bound_holds is holds


@given(st.integers(0, 10_000), st.one_of(st.none(), st.integers(1, 200)))
@example(seed=0, s_prod=None)
def test_pipeline_root_bounds_match_integer_forms(seed, s_prod):
    # relaxed_bound is |S+A|^k <= k^k s |S|, and the power row at r is
    # |S+A|^(rk) <= k^k (s |S|)^r; s_prod None keeps the instance's own s
    rng = random.Random(seed)
    inst, _ = rand_instance(rng, n_range=(2, 12), k_range=(2, 3), a_range=(1, 4),
                            b_range=(1, 3))
    s = rand_subset(rng, inst.bk)
    with pytest.MonkeyPatch.context() as mp:
        rep = (restricted_pipeline(inst, s, 3) if s_prod is None
               else _pipeline_at(mp, inst, s, s_prod, 3))
    k, sa, size, s_prod = inst.k, rep.sa_size, rep.s_size, rep.s_prod
    relaxed = [st.holds for st in rep.steps if st.name == "relaxed_bound"]
    assert relaxed == ([] if rep.branch == "small" else [sa ** k <= k ** k * s_prod * size])
    assert [row.bound_holds for row in rep.power_rows] == [
        sa ** (r * k) <= k ** k * (s_prod * size) ** r for r in (1, 2, 3)]


# -- noncommutative two-sided bound ------------------------------------------------------------

def test_noncomm_identity_sets():
    g = make_cayley_group(symmetric_table(3))
    a = g.set_of([0, 1, 3])
    e = g.set_of([g.identity])
    v = check_noncommutative(Instance(g, a, (e, e)))
    assert v.holds
    assert v.lhs == 1 == v.rhs


def test_noncomm_s3_matches_bruteforce():
    g = make_cayley_group(symmetric_table(3))
    a, b1, b2 = g.set_of([0, 3]), g.set_of([0, 1]), g.set_of([0, 4])
    v = check_noncommutative(Instance(g, a, (b1, b2)))
    best = None
    for z in nonempty_subsets(a):
        mid = naive_sumset(g, list(b1), z)
        out = naive_sumset(g, mid, list(b2))
        ratio = Fraction(len(out), len(z))
        best = ratio if best is None else min(best, ratio)
    assert v.lhs == best
    assert v.holds == (best <= v.rhs)


def test_noncomm_abelian_cross_check():
    g = make_cayley_group(cyclic_table(8))
    rng = random.Random(3)
    a = g.set_of(rng.sample(range(8), 3))
    b1 = g.set_of([0] + rng.sample(range(1, 8), 2))
    b2 = g.set_of([0] + rng.sample(range(1, 8), 2))
    v = check_noncommutative(Instance(g, a, (b1, b2)))
    assert v.holds
    # on a commutative group the product-of-alphas witness guarantees this
    za = make_abelian_group([8])
    inst = Instance(za, za.set_of(a), (za.set_of(b1), za.set_of(b2)))
    v2 = check_pldiff(inst)
    assert v2.holds and v2.rhs.base == v.rhs


def test_noncomm_needs_two_summand_sets():
    g = make_cayley_group(symmetric_table(3))
    e = g.set_of([g.identity])
    with pytest.raises(UsageError, match="noncomm check needs exactly two summand sets"):
        check_noncommutative(Instance(g, g.set_of([0, 1]), (e, e, e)))


def test_noncomm_size_cap():
    # |A| has no cap below the group order.  In C24, A = {0..20} and
    # B1 = B2 = {0, 1}: every X in A has |X + {0, 1, 2}| >= |X| + 2 (no
    # wrap-around), so the least ratio is 23/21, attained only by X = A.
    g = make_cayley_group(cyclic_table(24))
    a, b = g.set_of(range(21)), g.set_of([0, 1])
    v = check_noncommutative(Instance(g, a, (b, b)))
    assert v.lhs == Fraction(23, 21) and v.witness == a
    assert v.rhs == Fraction(22 * 22, 21 * 21) and v.holds


BUNDLED = [make_cayley_group(table) for _, table in bundled_tables(12)]


@given(st.integers(0, len(BUNDLED) - 1), st.integers(0, 10_000))
def test_noncomm_matches_bruteforce_on_bundled_tables(which, seed):
    g = BUNDLED[which]
    rng = random.Random(seed)
    n = g.order
    a, b1, b2 = (g.set_of(rng.sample(range(n), rng.randint(1, min(n, cap))))
                 for cap in (10, n, n))
    v = check_noncommutative(Instance(g, a, (b1, b2)))

    def ratio(z):
        return Fraction(len(naive_sumset(g, naive_sumset(g, list(b1), z), list(b2))), len(z))

    best = min(ratio(z) for z in nonempty_subsets(a))
    assert v.lhs == best
    assert v.holds == (best <= v.rhs)
    assert v.witness and v.witness.issubset(a)
    assert ratio(list(v.witness)) == v.lhs


# -- sumsets over subset lattices -----------------------------------------------------------

def _small_instance(rng):
    """Tiny sets in Z_n (n <= 12) or in a bundled Cayley table, so that
    ratios often tie and operand order matters, and a level."""
    g = rng.choice(BUNDLED) if rng.random() < 0.5 else make_abelian_group([rng.randint(2, 12)])
    k = rng.randint(2, 3)
    a = g.set_of(rng.sample(range(g.order), rng.randint(1, min(g.order, 7))))
    bs = tuple(g.set_of(rng.sample(range(g.order), rng.randint(1, min(g.order, 3))))
               for _ in range(k))
    return Instance(g, a, bs), rng.randint(1, k - 1)


def _plgen2_by_enumeration(inst, l, eps):
    """empirical_plgen2's exhaustive answer from one naive sumset per X and J:
    X = A first, then the admissible X in increasing mask order, each
    replacing the best only when strictly smaller; within one X the first J
    wins among equal maxima."""
    g, m, members = inst.group, len(inst.a), list(inst.a)
    table = alpha_table(inst)
    b_lists = [list(b) for b in inst.bs]
    j_sets = [frozenset(c) for size in range(l, inst.k + 1)
              for c in combinations(range(1, inst.k + 1), size)]
    candidates = [members] + [[e for i, e in enumerate(members) if mask >> i & 1]
                              for mask in range(1, (1 << m) - 1)
                              if mask.bit_count() > (1 - eps) * m]
    best = None
    for x in candidates:
        top = None
        for j in j_sets:
            ratio = Fraction(len(naive_sumset(g, x, naive_iterated(g, b_lists, j))), len(x))
            beta = beta_value(table, j, l)
            if top is None or cmp_ratio_vs_beta(top[0], top[1], ratio, beta) == LT:
                top = (ratio, beta, j)
        if best is None or cmp_ratio_vs_beta(top[0], top[1], best[0], best[1]) == LT:
            best = (*top, x)
    return best


@given(st.integers(0, 100_000))
@example(seed=2434)  # its best changes after limits against the old best were found
def test_subset_lattice_matches_per_subset_sumsets(seed):
    rng = random.Random(seed)
    inst, l = _small_instance(rng)
    g, a = inst.group, list(inst.a)
    # restricted over every nonempty S in B_K, in increasing mask order; the
    # product of the |A+B_(K-i)| comes from the alpha table, which the
    # lattice does not compute
    table = alpha_table(inst)
    s_prod = math.prod(table.leave_one_out_sizes())
    bk = sorted(naive_iterated(g, [list(b) for b in inst.bs], inst.key_set))
    expected = []
    for mask in range(1, 1 << len(bk)):
        s = [e for i, e in enumerate(bk) if mask >> i & 1]
        lhs, rhs = len(naive_sumset(g, s, a)) ** inst.k, len(s) * s_prod
        expected.append((s, lhs, rhs, lhs <= rhs))
    got = check_restricted_sum(inst, inst.bk, every_subset=True)
    assert [(s, v.lhs, v.rhs, v.holds) for s, v in got] == expected
    # plgen2, exhaustive
    eps = Fraction(rng.randint(1, 9), 10)
    emp = empirical_plgen2(inst, l, eps)
    assert emp.exhaustive
    assert (emp.ratio, emp.beta, emp.argmax_j, list(emp.x)) == _plgen2_by_enumeration(inst, l, eps)


def test_plgen2_ties_go_to_the_lowest_mask():
    # B_1 = B_2 = {0, 1} and |X| >= 3: X = {0, 1, 4} and X = {0, 1, 8} both
    # reach |X+B_1| / (beta_1 |X|) = (5/3) / (7/4) = 20/21, below A's 1;
    # {0, 1, 4} has the lower mask over A's sorted members (0b0111 < 0b1011)
    g = make_abelian_group([12])
    b = g.set_of([0, 1])
    inst = Instance(g, g.set_of([0, 1, 4, 8]), (b, b))
    emp = empirical_plgen2(inst, 1, Fraction(1, 2))
    assert (emp.ratio, emp.argmax_j, list(emp.x)) == (Fraction(5, 3), frozenset({1}), [0, 1, 4])
    assert cmp_ratio_vs_beta(emp.ratio, emp.beta, Fraction(20, 21), BetaValue(Fraction(1), 1)) == EQ
    # B_i = {0}: every X ties with A, which is examined first and stays
    one = g.set_of([0])
    inst = Instance(g, g.set_of([1, 4, 9]), (one, one))
    assert empirical_plgen2(inst, 1, Fraction(1, 2)).x == inst.a


def test_plgen2_search_makes_a_fixed_number_of_exact_comparisons(monkeypatch):
    # pins the search's work as well as its result: each limit is found once
    # per best by binary search, and c_of compares each J after the first once
    calls = []
    real = theorems.cmp_ratio_vs_beta
    monkeypatch.setattr(theorems, "cmp_ratio_vs_beta",
                        lambda *args: calls.append(args) or real(*args))
    for seed in range(40):
        inst, l = rand_instance(random.Random(seed), n_range=(16, 64), a_range=(6, 12),
                                b_range=(1, 4))
        empirical_plgen2(inst, l, Fraction(1, 2))
    assert len(calls) == 1205


# every (k, l) with k from 2 to 4, so roots beta_J with exponents above 1 occur
_K_L = [(k, l) for k in range(2, 5) for l in range(1, k)]


def _search_result(emp):
    return emp.ratio, emp.beta, emp.x, emp.argmax_j, emp.exhaustive


@pytest.mark.parametrize("k, l", _K_L)
@given(st.integers(0, 100_000))
def test_plgen2_search_matches_the_full_maximum(k, l, seed):
    # tiny sets, half of them in noncommutative tables, so ratios often tie
    rng = random.Random(seed)
    g = rng.choice(BUNDLED) if rng.random() < 0.5 else make_abelian_group([rng.randint(2, 16)])
    a = g.set_of(rng.sample(range(g.order), rng.randint(1, min(g.order, 8))))
    bs = tuple(g.set_of(rng.sample(range(g.order), rng.randint(1, min(g.order, 3))))
               for _ in range(k))
    inst, eps = Instance(g, a, bs), Fraction(rng.randint(1, 9), 10)
    emp = empirical_plgen2(inst, l, eps)
    assert emp.exhaustive
    assert _search_result(emp) == _search_result(plgen2_reference(inst, l, eps))


@pytest.mark.parametrize("k, l", _K_L)
@given(st.integers(0, 100_000))
def test_plgen2_sampled_search_matches_the_full_maximum(k, l, seed):
    rng = random.Random(seed)
    inst, _ = rand_instance(rng, n_range=(20, 64), k_range=(k, k), a_range=(17, 20),
                            b_range=(1, 3), l=l)
    eps, samples = Fraction(rng.randint(1, 9), 10), rng.randint(1, 24)
    emp = empirical_plgen2(inst, l, eps, samples=samples, seed=seed)
    assert not emp.exhaustive
    assert _search_result(emp) == _search_result(
        plgen2_reference(inst, l, eps, samples=samples, seed=seed))

