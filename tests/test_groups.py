import random
import re
import sys
import tracemalloc
from itertools import product
from math import prod
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plab import (GSet, Instance, ResourceError, UsageError, ValidationError,
                  direct_powers, element_cap, integer_group, iterated_sumset,
                  make_abelian_group, make_cayley_group, sumset)
from plab import check_plgen, groups
from plab.alphabeta import require_level
from plab.groups import WORD_WALK_MIN_BITS, WORD_WALK_MIN_MEMBERS, subset_sumsets, walk_bits

from cayley_tables import bundled_tables, cyclic_table, dihedral_table, symmetric_table
from oracles import (first_associativity_failure, integer_iterated, is_group_table,
                     greedy_generators, naive_iterated, naive_members, naive_power_index_set,
                     naive_sumset, naive_translate)


# -- strategies ------------------------------------------------------------------

CAYLEY_GROUPS = [make_cayley_group(table) for _, table in bundled_tables(12)]


@st.composite
def abelian_groups(draw):
    d = draw(st.integers(1, 3))
    moduli = tuple(draw(st.integers(1, 9)) for _ in range(d))
    assume(prod(moduli) <= 60)
    return make_abelian_group(moduli)


@st.composite
def group_with_sets(draw, n_sets=2):
    g = draw(abelian_groups())
    sets = []
    for _ in range(n_sets):
        elems = draw(st.sets(st.integers(0, g.order - 1), min_size=1))
        sets.append(g.set_of(elems))
    return g, sets


# -- constructors ------------------------------------------------------------------

def test_make_abelian_group_basic():
    g = make_abelian_group([5])
    assert g.order == 5
    assert g.identity == 0
    assert g.is_abelian


def test_power_group_order():
    g = make_abelian_group([5])
    assert direct_powers((g.set_of([0]),), 2)[0].group.order == 25


def test_make_abelian_group_errors(set_cap):
    with pytest.raises(UsageError):
        make_abelian_group([])
    with pytest.raises(UsageError):
        make_abelian_group([3, 0])
    with pytest.raises(ResourceError):
        make_abelian_group([1 << 27])
    set_cap("64")
    with pytest.raises(ResourceError):
        make_abelian_group([100])


def test_cap_env_override(set_cap):
    set_cap("32")
    assert element_cap() == 32
    with pytest.raises(ResourceError):
        make_abelian_group([64])
    assert element_cap.cache_info().misses == 1
    # a bad value is not cached: every call reads it again and refuses
    set_cap("zzz")
    for _ in range(2):
        with pytest.raises(UsageError, match="^PLAB_MEM_CAP must be an integer, got 'zzz'$"):
            element_cap()
    assert element_cap.cache_info().misses == 2


# -- integer embedding ---------------------------------------------------------------

def test_embed_modulus_small():
    assert integer_group([0, 1], [[0, 1], [0, 2]]).order == 5


def test_embed_modulus_three_sets():
    assert integer_group([0, 1], [[0, 1], [0, 2], [0, 4]]).order == 9


def test_embed_degenerate():
    assert integer_group([0], [[0]]).order == 1
    # an empty set counts 0 and is left to Instance to refuse
    assert integer_group([], [[2], []]).order == 3


def test_embed_rejects_negative():
    with pytest.raises(UsageError):
        integer_group([-1, 0], [[0]])
    with pytest.raises(UsageError):
        integer_group([0], [[0], [3, -2]])


@given(st.data())
def test_embed_never_wraps(data):
    a_ints = data.draw(st.sets(st.integers(0, 12), min_size=1, max_size=4))
    k = data.draw(st.integers(2, 3))
    b_ints = [data.draw(st.sets(st.integers(0, 12), min_size=1, max_size=4))
              for _ in range(k)]
    g = integer_group(list(a_ints), [list(b) for b in b_ints])
    a, bs = g.set_of(a_ints), [g.set_of(b) for b in b_ints]
    idxs = data.draw(st.sets(st.integers(1, k)))
    expected = integer_iterated(a_ints, b_ints, idxs)
    got = iterated_sumset([a, *(bs[i - 1] for i in sorted(idxs))])
    assert len(got) == len(expected)
    assert sorted(got) == sorted(expected)


# -- bitset conversions --------------------------------------------------------------

# product groups of order 1, 63, 64, 65, 127, 128, 129, 2304 and 65536: one
# machine word and either side of it, and the sizes verify works in
CONVERSION_GROUPS = [make_abelian_group(m) for m in
                     ((1,), (63,), (8, 8), (65,), (127,), (128,), (129,), (48, 48), (256, 256))]


@settings(deadline=None)
@pytest.mark.parametrize("groups", [st.just(g) for g in CONVERSION_GROUPS]
                         + [st.sampled_from(CAYLEY_GROUPS)],
                         ids=[repr(g) for g in CONVERSION_GROUPS] + ["cayley"])
@given(data=st.data())
def test_set_of_and_iteration_round_trip(groups, data):
    # elements with repeats, in any order, at a density anywhere from one
    # member to the whole group
    g = data.draw(groups)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    density = data.draw(st.sampled_from([0.0, 0.001, 0.01, 0.1, 0.5, 0.9, 1.0]))
    members = [e for e in range(g.order) if rng.random() < density] or [rng.randrange(g.order)]
    elems = members + rng.choices(members, k=data.draw(st.integers(0, 5)))
    rng.shuffle(elems)
    gs = g.set_of(elems)
    assert list(gs) == sorted(set(elems)) == naive_members(gs.bits)
    assert len(gs) == len(set(elems))
    assert list(GSet(g, gs.bits)) == list(gs)
    assert g.set_of(gs) == gs
    # past one machine word, strictly increasing members are kept and
    # iterated as given; any other input, and a set made from bits, walks
    # the bits to the same members
    ordered = g.set_of(sorted(set(elems)))
    wide = g.order > 64
    assert ordered._members == (tuple(sorted(set(elems))) if wide else None)
    assert (gs._members is not None) == (wide and elems == sorted(set(elems)))
    for other in (gs, GSet(g, gs.bits)):
        assert ordered == other and hash(ordered) == hash(other)
        assert list(ordered) == list(other) and len(ordered) == len(other)
        assert repr(ordered) == repr(other)


@pytest.mark.parametrize("top", [WORD_WALK_MIN_BITS - 1, WORD_WALK_MIN_BITS])
@pytest.mark.parametrize("members", [WORD_WALK_MIN_MEMBERS, WORD_WALK_MIN_MEMBERS + 1])
def test_iteration_on_both_sides_of_the_word_walk(top, members):
    # the highest member sets the bit length; the rest are spread below it
    g = make_abelian_group([2 * WORD_WALK_MIN_BITS])
    elems = [top] + [i * 97 % top for i in range(1, members)]
    assert len(set(elems)) == members
    gs = g.set_of(elems)
    assert list(gs) == sorted(elems) == naive_members(gs.bits)
    # the same walk lists a raw int, as a certificate dump does
    bits = sum(1 << e for e in elems)
    assert list(walk_bits(bits, members)) == naive_members(bits)


@pytest.mark.parametrize("g", [make_abelian_group([64]), make_abelian_group([65]),
                               make_abelian_group([256, 256]), CAYLEY_GROUPS[-1]],
                         ids=repr)
def test_set_of_names_the_first_element_out_of_range(g):
    top = g.order - 1
    with pytest.raises(UsageError) as exc:
        g.set_of([0, top, g.order, -1])
    assert str(exc.value) == f"element index {g.order} out of range 0..{top}"
    with pytest.raises(UsageError) as exc:
        g.set_of([top, -1, g.order])
    assert str(exc.value) == f"element index -1 out of range 0..{top}"
    # strictly increasing input is checked at its two ends, and names the same
    # element as a scan in order
    with pytest.raises(UsageError) as exc:
        g.set_of([0, 1, g.order, g.order + 1])
    assert str(exc.value) == f"element index {g.order} out of range 0..{top}"
    with pytest.raises(UsageError) as exc:
        g.set_of([-2, -1, 0])
    assert str(exc.value) == f"element index -2 out of range 0..{top}"


# -- sumsets -----------------------------------------------------------------------

def test_sumset_z5_example():
    g = make_abelian_group([5])
    s, t = g.set_of([0, 1]), g.set_of([0, 2])
    expected = naive_sumset(g, [0, 1], [0, 2])
    assert sorted(sumset(s, t)) == sorted(expected) == [0, 1, 2, 3]


def test_sumset_identity_neutral():
    g = make_abelian_group([7])
    s = g.set_of([1, 3, 4])
    assert sumset(s, g.set_of([g.identity])) == s


def test_sumset_absorbs_whole_group():
    g = make_abelian_group([2])
    s = g.set_of([0, 1])
    assert sorted(sumset(s, s)) == [0, 1]


def test_sumset_group_mismatch():
    g1, g2 = make_abelian_group([5]), make_abelian_group([7])
    with pytest.raises(UsageError):
        sumset(g1.set_of([0]), g2.set_of([0]))


def test_sumset_empty_operand():
    g = make_abelian_group([5])
    assert len(sumset(g.set_of([]), g.set_of([1]))) == 0


@given(group_with_sets())
def test_sumset_matches_oracle(gs):
    g, (s, t) = gs
    assert sorted(sumset(s, t)) == sorted(naive_sumset(g, list(s), list(t)))


@given(group_with_sets())
def test_sumset_cardinality_bounds(gs):
    g, (s, t) = gs
    n = len(sumset(s, t))
    assert max(len(s), len(t)) <= n <= min(g.order, len(s) * len(t))


@given(group_with_sets())
def test_sumset_commutes(gs):
    _, (s, t) = gs
    assert sumset(s, t) == sumset(t, s)


@given(st.one_of(abelian_groups(), st.sampled_from(CAYLEY_GROUPS)), st.data())
def test_translate_matches_oracle(g, data):
    elems = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1))
    a = data.draw(st.integers(0, g.order - 1))
    got = GSet(g, g.translate_bits(g.set_of(elems).bits, a))
    assert sorted(got) == sorted(naive_translate(g, elems, a))


@pytest.mark.parametrize("moduli", [(65,), (128,), (2, 64), (3, 1, 50), (1, 7), (256, 256),
                                    (5, 3, 7)])
def test_translate_matches_oracle_above_one_word(moduli):
    # the outer axis rotates the whole bitset, here wider than a machine
    # word; an axis of size 1 has only the coordinate 0.  Every a whose
    # coordinates are 0, 1 or n-1, then random ones
    g = make_abelian_group(moduli)
    rng = random.Random(repr(moduli))
    strides = [prod(moduli[j + 1:]) for j in range(len(moduli))]
    corners = sorted({sum(v % n * s for v, n, s in zip(c, moduli, strides))
                      for c in product(*((0, 1, n - 1) for n in moduli))})
    sets = [[0], [g.order - 1], [0, g.order - 1], range(min(g.order, 300)),
            rng.sample(range(g.order), min(g.order // 3, 400))]
    for a in corners + [rng.randrange(g.order) for _ in range(8)]:
        for elems in sets:
            got = GSet(g, g.translate_bits(g.set_of(elems).bits, a))
            assert sorted(got) == sorted(naive_translate(g, elems, a)), (a, len(elems))


@given(st.booleans(), st.data())
def test_subset_sumsets_match_oracle(cayley, data):
    # every subset X of the ground set with >= min_size members, in
    # increasing mask order, with X*T for each base T; S3 makes the left
    # translates x*T differ from the right ones
    g = make_cayley_group(symmetric_table(3)) if cayley else data.draw(abelian_groups())
    elems = st.sets(st.integers(0, g.order - 1), min_size=1, max_size=7)
    ground = sorted(data.draw(elems))
    bases = [sorted(data.draw(elems)) for _ in range(data.draw(st.integers(1, 3)))]
    min_size = data.draw(st.integers(0, len(ground) + 1))
    got = list(subset_sumsets(g.set_of(ground), [g.set_of(b) for b in bases], min_size))
    expected = []
    for mask in range(1, 1 << len(ground)):
        x = [e for i, e in enumerate(ground) if mask >> i & 1]
        if len(x) >= min_size:
            expected.append((mask, tuple(sorted(naive_sumset(g, x, b)) for b in bases)))
    assert [(mask, tuple(sorted(GSet(g, u)) for u in unions))
            for mask, unions in got] == expected


def test_subset_sumsets_refuse_before_any_translate(set_cap, monkeypatch):
    # 2 * 16 members * 15 bases ints of ceil(4096/64) = 64 words each: the
    # words are counted from the group order, so no translate is computed
    def translate_bits(self, bits, a):
        raise AssertionError("a translate was computed before the budget check")

    g = make_abelian_group([4096])
    set_cap("4096")
    monkeypatch.setattr(groups.Group, "translate_bits", translate_bits)
    walk = subset_sumsets(g.set_of(range(16)), [g.set_of([0, 1])] * 15)
    with pytest.raises(ResourceError) as exc:
        next(walk)
    assert str(exc.value) == "30720 64-bit words of subset sumsets exceed the element cap 4096"


# -- iterated sumsets -----------------------------------------------------------------

def test_iterated_pair():
    g = make_abelian_group([5])
    bs = [g.set_of([0, 1]), g.set_of([0, 2])]
    assert sorted(iterated_sumset(bs)) == sorted(naive_iterated(g, [[0, 1], [0, 2]], [1, 2]))


def test_iterated_triple_z9():
    g = integer_group([0, 1], [[0, 1], [0, 2], [0, 4]])
    got = iterated_sumset([g.set_of([0, 1]), g.set_of([0, 2]), g.set_of([0, 4])])
    assert sorted(got) == list(range(8))


@given(st.data())
def test_iterated_fold_order_irrelevant(data):
    g = data.draw(abelian_groups())
    k = data.draw(st.integers(2, 3))
    bs = [g.set_of(data.draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=4)))
          for _ in range(k)]
    forward = iterated_sumset(bs)
    backward = bs[-1]
    for b in reversed(bs[:-1]):
        backward = sumset(backward, b)
    assert forward == backward


@given(st.data())
def test_monotone_in_index_set(data):
    g = data.draw(abelian_groups())
    k = data.draw(st.integers(2, 4))
    bs = [g.set_of(data.draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=4)))
          for _ in range(k)]
    a = g.set_of(data.draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=4)))
    small = data.draw(st.sets(st.integers(1, k)))
    extra = data.draw(st.sets(st.integers(1, k)))
    big = small | extra
    lo = len(iterated_sumset([a, *(bs[i - 1] for i in sorted(small))]))
    hi = len(iterated_sumset([a, *(bs[i - 1] for i in sorted(big))]))
    assert lo <= hi


# -- direct powers ------------------------------------------------------------------

def test_direct_power_unit(z5):
    assert direct_powers((z5.a, *z5.bs), 1) == (z5.a, *z5.bs)


def test_direct_power_orders(z5):
    (a2,) = direct_powers((z5.a,), 2)
    assert a2.group.order == 25
    assert len(a2) == 4


def test_direct_power_cap(set_cap):
    g = make_abelian_group([64])
    inst = Instance(g, g.set_of([0]), (g.set_of([0]), g.set_of([0])))
    set_cap("100")
    with pytest.raises(ResourceError):
        direct_powers((inst.a, *inst.bs), 2)


def test_direct_power_of_the_empty_set_is_empty():
    (e2,) = direct_powers((make_abelian_group([5]).set_of([]),), 2)
    assert e2.group.order == 25
    assert not e2


def test_direct_power_peak_memory_stays_near_the_result():
    # the shifted copies are ORed in one at a time, never held all at once
    g = make_abelian_group([1024])
    a = g.set_of(random.Random(0).sample(range(1024), 100))
    tracemalloc.start()
    try:
        (a2,) = direct_powers((a,), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * sys.getsizeof(a2.bits)


@given(group_with_sets(), st.integers(1, 3))
def test_power_law_and_power_of_sumset(gs, r):
    g, (s, t) = gs
    assume(g.order ** r <= 4096)
    s_r, t_r, st_r = direct_powers((s, t, sumset(s, t)), r)
    assert len(s_r) == len(s) ** r
    assert st_r == sumset(s_r, t_r)
    # members against the oracle's concatenated-radix indexing, which
    # covers groups with several axes
    for power, base in ((s_r, s), (t_r, t)):
        assert set(power) == naive_power_index_set(g.order, list(base), r)
        assert power.group.moduli == g.moduli * r


@pytest.mark.parametrize("sets, r, error, message", [
    ("cayley", 2, UsageError, "direct powers are only supported for abelian product groups"),
    ("cayley", 0, UsageError, "direct powers are only supported for abelian product groups"),
    ("z5", 0, UsageError, "power must be >= 1, got 0"),
    ("z64", 5, ResourceError, f"{64 ** 5} group elements exceed the element cap"),
    ("z5", 10 ** 7, ResourceError, "power 10000000 exceeds 27, the bit length of the element cap"),
    ("mixed", 2, UsageError, "set operands belong to different groups"),
], ids=["cayley", "cayley-r0", "r0", "cap", "r-over-cap-bits", "mixed-groups"])
def test_direct_powers_rejects(sets, r, error, message):
    z5, z64 = make_abelian_group([5]), make_abelian_group([64])
    c6 = make_cayley_group(cyclic_table(6))
    operands = {"cayley": (c6.set_of([1]),), "z5": (z5.set_of([1]),),
                "z64": (z64.set_of([1]),), "mixed": (z5.set_of([1]), z64.set_of([1]))}[sets]
    with pytest.raises(error, match=re.escape(message)):
        direct_powers(operands, r)


# -- cayley tables -----------------------------------------------------------------

def test_cayley_cyclic_ok():
    g = make_cayley_group(cyclic_table(3))
    assert g.is_abelian
    assert g.order == 3
    assert g.identity == 0


def test_group_identity_is_its_moduli_and_table():
    # Z6 as a product group and as a table are different groups
    z6, c6 = make_abelian_group([6]), make_cayley_group(cyclic_table(6))
    assert z6 != c6
    with pytest.raises(UsageError, match="different groups"):
        sumset(z6.set_of([1]), c6.set_of([1]))
    again = make_cayley_group(cyclic_table(6))
    assert again is not c6 and again == c6 and hash(again) == hash(c6)
    assert (repr(z6), repr(c6)) == ("Z6", "Cayley(order=6)")


def test_cayley_s3_noncommutative():
    g = make_cayley_group(symmetric_table(3))
    assert not g.is_abelian
    assert any(g.table[a][b] != g.table[b][a] for a in range(6) for b in range(6))


def test_cayley_order_respected_in_sumsets():
    g = make_cayley_group(symmetric_table(3))
    s, t = g.set_of([1, 3]), g.set_of([2, 4])
    assert sorted(sumset(s, t)) == sorted(naive_sumset(g, [1, 3], [2, 4]))
    assert sorted(sumset(t, s)) == sorted(naive_sumset(g, [2, 4], [1, 3]))


@given(st.sampled_from([g for g in CAYLEY_GROUPS if not g.is_abelian]), st.data())
def test_cayley_order_respected_in_sumsets_of_unequal_sizes(g, data):
    # S*T is the union of the left translates s*T whether S or T is larger
    elems = st.integers(0, g.order - 1)
    small = sorted(data.draw(st.sets(elems, min_size=1, max_size=g.order - 1)))
    large = sorted(data.draw(st.sets(elems, min_size=len(small) + 1)))
    for s, t in ((large, small), (small, large)):
        assert sorted(sumset(g.set_of(s), g.set_of(t))) == sorted(naive_sumset(g, s, t))


# order-5 loop: latin square with two-sided identity but a non-associative triple
_LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_cayley_rejects_non_associative():
    with pytest.raises(ValidationError) as exc:
        make_cayley_group(_LOOP5)
    assert str(exc.value) == "associativity fails at triple (1, 1, 2): (1*1)*2 = 2 but 1*(1*2) = 4"


@st.composite
def loops(draw):
    """Latin squares with a two-sided identity, of order 1 to 7, under a
    random relabelling: they pass every check before associativity, and
    most of those of order 5 and above are not groups."""
    n = draw(st.integers(1, 7))
    rng = draw(st.randoms(use_true_random=False))
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        symbols = [x for x in range(n) if x not in rows[i] and all(r[j] != x for r in rows)]
        rng.shuffle(symbols)
        for x in symbols:
            rows[i][j] = x
            if fill(k + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    label = rng.sample(range(n), n)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[label[a]][label[b]] = label[rows[a][b]]
    return table


@settings(deadline=None)
@given(loops())
def test_cayley_associativity_failure_matches_triple_loop(table):
    expected = first_associativity_failure(table)
    if expected is None:
        g, n = make_cayley_group(table), len(table)
        assert g.order == n
        assert all(table[g.identity][x] == x == table[x][g.identity] for x in range(n))
        assert g.is_abelian == all(table[a][b] == table[b][a] for a in range(n) for b in range(n))
    else:
        with pytest.raises(ValidationError) as exc:
            make_cayley_group(table)
        assert str(exc.value) == expected


def test_cayley_accepts_exactly_the_group_tables_of_order_up_to_3():
    # all 1 + 16 + 19,683 tables with entries in 0..n-1, against the axioms
    # checked triple by triple
    accepted = 0
    for n in (1, 2, 3):
        for cells in product(range(n), repeat=n * n):
            table = [cells[i * n:(i + 1) * n] for i in range(n)]
            if is_group_table(table):
                assert make_cayley_group(table).order == n
                accepted += 1
            else:
                with pytest.raises(ValidationError):
                    make_cayley_group(table)
    assert accepted == 1 + 2 + 3  # the labelled groups Z1, Z2 and Z3


def _reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1, so 0
    is a two-sided identity and only associativity can fail."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in rows]
            return
        i, j = cells[k]
        for x in range(n):
            if x not in rows[i][:j] and all(rows[r][j] != x for r in range(i)):
                rows[i][j] = x
                yield from fill(k + 1)
        rows[i][j] = None

    return fill(0)


def test_cayley_accepts_exactly_the_group_tables_among_reduced_latin_squares():
    # Light's test checks associativity on generators only; against every
    # reduced Latin square of order 4 to 6, checked triple by triple, it
    # accepts the groups and names the first failing triple of the rest
    for n, squares, group_tables in ((4, 4, 4), (5, 56, 6), (6, 9408, 80)):
        seen = accepted = 0
        for table in _reduced_latin_squares(n):
            seen += 1
            if is_group_table(table):
                assert make_cayley_group(table).order == n
                # the generators are those of a brute-force closure
                assert groups._generators(tuple(map(tuple, table)), 0) == greedy_generators(table, 0)
                accepted += 1
            else:
                with pytest.raises(ValidationError) as exc:
                    make_cayley_group(table)
                assert str(exc.value) == first_associativity_failure(table)
        assert (seen, accepted) == (squares, group_tables)


def test_cayley_validation_composes_rows_per_generator(monkeypatch):
    # D12 (order 24) is generated by a rotation and a reflection, so Light's
    # test composes 2 * 24 row pairs where a scan of every b would compose 24^2
    composed = []

    def counting_itemgetter(*items):
        getter = itemgetter(*items)

        def compose(row):
            composed.append(row)
            return getter(row)
        return compose

    monkeypatch.setattr(groups, "itemgetter", counting_itemgetter)
    assert make_cayley_group(dihedral_table(12)).order == 24
    assert len(composed) == 2 * 24


def test_cayley_generators_are_the_smallest_outside_the_subgroup_so_far():
    for g in CAYLEY_GROUPS + [make_cayley_group(dihedral_table(n)) for n in (8, 12)]:
        assert groups._generators(g.table, g.identity) == greedy_generators(g.table, g.identity)


@pytest.mark.parametrize("table, message", [
    ([], "empty multiplication table"),
    ([[0, 1], [1]], "row 1 has length 1, expected 2"),
], ids=["empty", "short-row"])
def test_cayley_rejects_malformed_table(table, message):
    with pytest.raises(ValidationError) as exc:
        make_cayley_group(table)
    assert str(exc.value) == message


def test_cayley_rejects_non_permutation_row():
    with pytest.raises(ValidationError, match="not a permutation"):
        make_cayley_group([[0, 0], [1, 1]])


def test_cayley_rejects_non_permutation_column():
    with pytest.raises(ValidationError) as exc:
        make_cayley_group([[0, 1, 2], [1, 2, 0], [0, 2, 1]])
    assert str(exc.value) == "column 0 is not a permutation of 0..2"


def test_cayley_rejects_missing_identity():
    # subtraction mod 3: cancellative but only a right identity
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(ValidationError, match="identity"):
        make_cayley_group(table)


def test_cayley_rejects_oversize():
    with pytest.raises(UsageError):
        make_cayley_group(cyclic_table(65))


# -- instances ----------------------------------------------------------------------

def test_instance_validation():
    g = make_abelian_group([5])
    a, b = g.set_of([0]), g.set_of([0, 1])
    with pytest.raises(UsageError):
        Instance(g, a, (b,))              # k < 2
    with pytest.raises(UsageError, match=re.escape("level must satisfy 1 <= l < k, got l=2, k=2")):
        require_level(2, 2)               # l >= k: the level is the checks' argument
    with pytest.raises(UsageError):
        Instance(g, g.set_of([]), (b, b))
    other = make_abelian_group([7])
    with pytest.raises(UsageError):
        Instance(g, a, (b, other.set_of([0])))


def test_instance_is_a_read_only_value_whose_levels_share_memo():
    g = make_abelian_group([5])
    a, b = g.set_of([0]), g.set_of([0, 1])
    inst = Instance(g, a, [b, b, b])
    assert inst.bs == (b, b, b) and not hasattr(inst, "l")
    for level in (0, 3):  # l < 1 and l = k
        with pytest.raises(UsageError):
            check_plgen(inst, level)
    inst.memo["x"] = 1
    # every level reads the one instance: its verdicts share the memo, each
    # under its level's key
    assert check_plgen(inst, 1).rhs != check_plgen(inst, 2).rhs
    assert {("plgen", 1), ("plgen", 2), "gamma"} <= inst.memo.keys()
    fresh = Instance(g, g.set_of([0, 2]), inst.bs)
    assert fresh.memo == {} and fresh != inst
    assert inst != (g, a, (b, b, b))
    for name in ("a", "l", "memo", "extra"):
        with pytest.raises(AttributeError):
            setattr(inst, name, None)
        with pytest.raises(AttributeError):
            delattr(inst, name)
    assert inst.a is a and inst.memo["x"] == 1
    assert repr(inst) == f"Instance(group=Z5, a={a!r}, bs={(b, b, b)!r})"
