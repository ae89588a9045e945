import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plab import (PlunGraph, UsageError, build_plun_graph,
                  gamma_flow, iterated_sumset, make_abelian_group, make_cayley_group,
                  multiplicativity_check, sumset)
from plab import magnification
from plab.magnification import flow_classes, instance_gamma

from cayley_tables import bundled_tables
from gen import rand_instance
from oracles import (gamma_exhaustive, naive_gamma, naive_iterated, naive_power_index_set,
                     naive_sumset, neighbourhood_partition)


def graph_of(inst):
    bk = iterated_sumset(inst.bs)
    return build_plun_graph(inst.a, bk), bk


# -- graph construction ----------------------------------------------------------

def test_graph_z5(z5):
    g, _ = graph_of(z5)
    assert len(g.left) == 2
    assert g.right_bits.bit_count() == 5
    assert all(bits.bit_count() == 4 for bits in g.adj_bits.values())


def test_graph_z9(z9):
    g, _ = graph_of(z9)
    assert len(g.left) == 2
    assert g.right_bits.bit_count() == 9
    assert all(bits.bit_count() == 8 for bits in g.adj_bits.values())


def test_graph_singleton():
    g = make_abelian_group([4])
    graph = build_plun_graph(g.set_of([0]), g.set_of([0]))
    assert graph.left == (0,)
    assert graph.adj_bits == {0: 0b1}


def test_graph_errors():
    g = make_abelian_group([4])
    with pytest.raises(UsageError):
        build_plun_graph(g.set_of([]), g.set_of([0]))
    # sets of two groups meet the refusal that every set operation shares
    a, bk = make_abelian_group([64]).set_of([0, 1]), make_abelian_group([7]).set_of([0, 2])
    with pytest.raises(UsageError) as shared:
        sumset(a, bk)
    with pytest.raises(UsageError) as graph:
        build_plun_graph(a, bk)
    assert str(graph.value) == str(shared.value) == "set operands belong to different groups"


@pytest.mark.parametrize("name, table", bundled_tables(12), ids=[n for n, _ in bundled_tables(12)])
def test_two_sided_graph_matches_an_oracle(name, table):
    # left=B_1 gives the noncomm check's graph x -> B_1*x*B_2
    g = make_cayley_group(table)
    rng = random.Random(name)
    a, b1, b2 = (sorted(rng.sample(range(g.order), rng.randint(1, min(g.order, size))))
                 for size in (8, 3, 3))
    graph = build_plun_graph(g.set_of(a), g.set_of(b2), left=g.set_of(b1))
    assert graph.adj_bits == {x: g.set_of(naive_sumset(g, naive_sumset(g, b1, [x]), b2)).bits
                              for x in a}
    assert graph.left == tuple(a)


@given(st.integers(0, 10_000))
def test_degree_and_image_invariants(seed):
    inst, _ = rand_instance(random.Random(seed), n_range=(2, 32), k_range=(2, 3),
                            a_range=(1, 6), b_range=(1, 4))
    graph, bk = graph_of(inst)
    for x in graph.left:
        assert graph.adj_bits[x].bit_count() == len(bk)
    rng = random.Random(seed + 1)
    members = list(inst.a)
    z = inst.group.set_of(rng.sample(members, rng.randint(1, len(members))))
    image = 0
    for x in z:
        image |= graph.adj_bits[x]
    assert image == sumset(z, bk).bits


# -- exhaustive minimum ------------------------------------------------------------

def test_exhaustive_z5(z5):
    res = gamma_exhaustive(graph_of(z5)[0])
    assert res.gamma == Fraction(5, 2)
    assert sorted(res.witness) == [0, 1]


def test_exhaustive_singleton():
    g = make_abelian_group([4])
    res = gamma_exhaustive(build_plun_graph(g.set_of([0]), g.set_of([0])))
    assert res.gamma == 1
    assert sorted(res.witness) == [0]


def test_exhaustive_z9(z9):
    res = gamma_exhaustive(graph_of(z9)[0])
    assert res.gamma == Fraction(9, 2)
    assert sorted(res.witness) == [0, 1]


def test_exhaustive_tie_break_smallest():
    # identity B_K gives ratio 1 for every subset; smallest subset with the
    # smallest member wins
    g = make_abelian_group([7])
    a = g.set_of([2, 4, 6])
    res = gamma_exhaustive(build_plun_graph(a, g.set_of([g.identity])))
    assert res.gamma == 1
    assert sorted(res.witness) == [2]


def test_exhaustive_cap():
    g = make_abelian_group([30])
    a = g.set_of(range(23))
    with pytest.raises(UsageError):
        gamma_exhaustive(build_plun_graph(a, g.set_of([0, 1])))


@given(st.integers(0, 10_000))
def test_exhaustive_matches_naive_oracle(seed):
    inst, _ = rand_instance(random.Random(seed), n_range=(2, 16), k_range=(2, 3),
                            a_range=(1, 5), b_range=(1, 3))
    graph, bk = graph_of(inst)
    assert gamma_exhaustive(graph).gamma == naive_gamma(inst.group, list(inst.a), list(bk))


# -- flow minimum -------------------------------------------------------------------

def test_flow_z5(z5):
    res = gamma_flow(graph_of(z5)[0])
    assert res.gamma == Fraction(5, 2)
    assert sorted(res.witness) == [0, 1]
    assert res.iterations >= 1


def test_flow_identity_bk():
    g = make_abelian_group([9])
    a = g.set_of([1, 5, 7])
    res = gamma_flow(build_plun_graph(a, g.set_of([g.identity])))
    assert res.gamma == 1
    assert res.witness == a


def test_flow_needs_multiple_rounds():
    # A has an outlier, so the whole-set ratio 7/3 is beaten by {0,1} at 2:
    # the first feasibility test must fail and hand back the better cut
    g = make_abelian_group([40])
    a = g.set_of([0, 1, 20])
    bk = g.set_of([0, 1, 2])
    res = gamma_flow(build_plun_graph(a, bk))
    assert res.gamma == 2
    assert sorted(res.witness) == [0, 1]
    assert res.iterations >= 2
    assert gamma_exhaustive(build_plun_graph(a, bk)).gamma == 2


def test_flow_power_of_z5(z5):
    from plab import direct_powers
    a2, *bs2 = direct_powers((z5.a, *z5.bs), 2)
    bk = iterated_sumset(bs2)
    res = gamma_flow(build_plun_graph(a2, bk))
    assert res.gamma == Fraction(25, 4)


@given(st.integers(0, 100_000))
def test_flow_equals_exhaustive(seed):
    inst, _ = rand_instance(random.Random(seed), n_range=(2, 48), k_range=(2, 4),
                            a_range=(1, 8), b_range=(1, 6))
    graph, bk = graph_of(inst)
    ex = gamma_exhaustive(graph)
    fl = gamma_flow(graph)
    assert fl.gamma == ex.gamma
    for res in (ex, fl):
        assert res.witness and res.witness.issubset(inst.a)
        image = sumset(res.witness, bk)
        assert len(image) * res.gamma.denominator == len(res.witness) * res.gamma.numerator


@given(st.integers(0, 100_000))
@example(69)  # every image empty: gamma 0, and a union of width 0
def test_flow_equals_exhaustive_on_arbitrary_adjacency(seed):
    # images that are not translates of one set: unions of a few random
    # blocks, so right vertices fall into many classes of uneven sizes
    rng = random.Random(seed)
    g = make_abelian_group([rng.randint(2, 60)])
    blocks = [rng.getrandbits(g.order) for _ in range(rng.randint(1, 5))]
    adj = {}
    for x in rng.sample(range(g.order), rng.randint(1, min(g.order, 10))):
        bits = rng.getrandbits(g.order) & rng.getrandbits(g.order) if rng.random() < 0.3 else 0
        for block in blocks:
            if rng.random() < 0.5:
                bits |= block
        adj[x] = bits
    graph = PlunGraph(g, adj)
    fl = gamma_flow(graph)
    assert fl.gamma == gamma_exhaustive(graph).gamma
    assert fl.witness and fl.witness.issubset(g.set_of(graph.left))
    image = 0
    for x in fl.witness:
        image |= adj[x]
    assert image.bit_count() * fl.gamma.denominator == len(fl.witness) * fl.gamma.numerator


def _classes_graph(kind, rng):
    """A graph of one of three kinds: x -> x+B_K in a product of one or two
    cyclic groups, x -> x*B_K or x -> B_1*x*B_2 in a bundled Cayley group,
    or arbitrary images, empty ones among them, over Z_n."""
    if kind == "abelian":
        g = make_abelian_group([rng.randint(1, 12) for _ in range(rng.randint(1, 2))])
    elif kind == "cayley":
        g = make_cayley_group(rng.choice(bundled_tables(12))[1])
    else:
        g = make_abelian_group([rng.randint(1, 40)])
        blocks = [rng.getrandbits(g.order) for _ in range(rng.randint(1, 4))]
        return PlunGraph(g, {x: sum(b for b in blocks if rng.random() < 0.5)
                                | rng.getrandbits(g.order) * (rng.random() < 0.3)
                             for x in sorted(rng.sample(range(g.order),
                                                        rng.randint(1, min(g.order, 10))))})
    a, b1, b2 = (g.set_of(rng.sample(range(g.order), rng.randint(1, min(g.order, size))))
                 for size in (10, 4, 4))
    if kind == "cayley" and rng.random() < 0.5:
        return build_plun_graph(a, b2, left=b1)
    return build_plun_graph(a, sumset(b1, b2))


@given(st.sampled_from(["abelian", "cayley", "arbitrary"]), st.integers(0, 100_000))
@example("arbitrary", 31)  # every image empty: one empty class
def test_flow_classes_partition_the_right_vertices_by_neighbourhood(kind, seed):
    graph = _classes_graph(kind, random.Random(seed))
    classes, owners = flow_classes(graph)
    union = graph.right_bits
    if not union:  # nothing to partition: at most one empty class, owned by none
        assert not any(classes) and len(classes) <= 1 and not any(owners)
        return
    # the classes are nonempty, pairwise disjoint and cover the union
    assert all(classes) and sum(c.bit_count() for c in classes) == union.bit_count()
    covered = 0
    for c in classes:
        covered |= c
    assert covered == union
    # two right vertices share a class exactly when the same left vertices
    # contain them, and owners[j] is exactly those left vertices' indices
    assert len(set(owners)) == len(owners)
    assert dict(zip(owners, classes)) == neighbourhood_partition(graph.adj_bits.values())


def test_flow_network_merges_right_vertices_by_neighbourhood():
    # 0+B_K = {0..9} and 1+B_K = {1..10}: the right vertices fall into the
    # classes {0} (seen by 0 only), {1..9} (by both) and {10} (by 1 only)
    rounds = []
    real = magnification._max_flow

    def recording(out_of, sizes, p, q):
        rounds.append((out_of, sizes, sorted(q * size for size in sizes)))
        return real(out_of, sizes, p, q)

    g = make_abelian_group([100])
    a = g.set_of([0, 1])
    with mock.patch("plab.magnification._max_flow", recording):
        res = gamma_flow(build_plun_graph(a, g.set_of(range(10))))
    assert res.gamma == Fraction(11, 2) and res.witness == a
    [(out_of, sizes, sink_caps)] = rounds
    assert len(out_of) == 2 and len(sizes) == 3
    assert sum(len(classes) for classes in out_of) == 4
    # each class's sink edge carries q = 2 per vertex it merges
    assert sink_caps == [2, 2, 18]


@given(st.integers(0, 10_000))
def test_gamma_upper_bounds(seed):
    inst, _ = rand_instance(random.Random(seed), n_range=(2, 32), k_range=(2, 3),
                            a_range=(1, 6), b_range=(1, 4))
    graph, bk = graph_of(inst)
    gamma = gamma_flow(graph).gamma
    assert 1 <= gamma <= len(bk)
    assert gamma <= Fraction(graph.right_bits.bit_count(), len(graph.left))


# -- multiplicativity ---------------------------------------------------------------

def test_multiplicativity_z5(z5):
    assert instance_gamma(z5).gamma == Fraction(5, 2)
    assert multiplicativity_check(z5, 2) == Fraction(25, 4)


def test_multiplicativity_r1(z5):
    assert multiplicativity_check(z5, 1) == instance_gamma(z5).gamma


def test_multiplicativity_z9(z9):
    assert multiplicativity_check(z9, 2) == Fraction(81, 4) == instance_gamma(z9).gamma ** 2


@given(st.integers(0, 100_000), st.sampled_from([2, 3]))
def test_multiplicativity_matches_an_oracle_power_graph(seed, r):
    # A^r, (B_K)^r and every a + (B_K)^r come from the oracles, so a fault
    # in plab's powers or translates cannot cancel out on both sides
    inst, _ = rand_instance(random.Random(seed), n_range=(2, 6), k_range=(2, 3),
                            a_range=(1, 3 if r == 2 else 2), b_range=(1, 3))
    group = inst.group
    powered = make_abelian_group(group.moduli * r)
    bk = naive_iterated(group, [list(b) for b in inst.bs], inst.key_set)
    bk_r = naive_power_index_set(group.order, bk, r)
    graph = PlunGraph(powered, {
        x: sum(1 << y for y in naive_sumset(powered, [x], bk_r))
        for x in sorted(naive_power_index_set(group.order, list(inst.a), r))})
    gamma = naive_gamma(group, list(inst.a), bk)
    assert instance_gamma(inst).gamma == gamma
    assert multiplicativity_check(inst, r) == gamma_exhaustive(graph).gamma == gamma ** r


# -- translates that coincide: one class -------------------------------------------

def assert_one_class(graph, res):
    """Every a+B_K is the same set: one class, which every left vertex fills
    with gamma's numerator in the first round."""
    assert res.classes == (graph.right_bits,)
    assert res.flow == tuple((x, 0, res.gamma.numerator) for x in graph.left)
    assert res.iterations == 1


@given(st.integers(0, 10_000))
def test_flow_shortcut_full_bk(seed):
    rng = random.Random(seed)
    g = make_abelian_group(rng.choice([[rng.randint(1, 16)], [2, rng.randint(1, 8)]]))
    a = g.set_of(rng.sample(range(g.order), rng.randint(1, min(g.order, 10))))
    graph = build_plun_graph(a, g.set_of(range(g.order)))
    fl = gamma_flow(graph)
    assert_one_class(graph, fl)
    ex = gamma_exhaustive(graph)
    assert (fl.gamma, fl.witness) == (ex.gamma, ex.witness)
    assert fl.gamma == Fraction(g.order, len(a))


@given(st.integers(0, 10_000))
def test_flow_shortcut_a_in_one_coset_of_the_stabilizer(seed):
    # H = <d> in Z_(d*h); B_K is a union of cosets of H, so H stabilizes it,
    # and A inside one coset x+H makes every a+B_K the same set
    rng = random.Random(seed)
    d, h = rng.randint(1, 6), rng.randint(2, 6)
    g = make_abelian_group([d * h])
    coset_reps = rng.sample(range(d), rng.randint(1, d))
    bk = g.set_of(c + d * j for c in coset_reps for j in range(h))
    x = rng.randrange(d)
    a = g.set_of(x + d * j for j in rng.sample(range(h), rng.randint(1, h)))
    graph = build_plun_graph(a, bk)
    fl = gamma_flow(graph)
    assert_one_class(graph, fl)
    ex = gamma_exhaustive(graph)
    assert (fl.gamma, fl.witness) == (ex.gamma, ex.witness)
    assert naive_gamma(g, list(a), list(bk)) == fl.gamma


def test_flow_shortcut_subgroup_bk():
    g = make_abelian_group([4, 6])
    h = g.set_of([0, 2, 4])  # (0, 0), (0, 2), (0, 4): the subgroup 0 x 2Z_6
    a = g.set_of([6, 10])    # (1, 0) and (1, 4), inside (1, 0) + H
    graph = build_plun_graph(a, h)
    res = gamma_flow(graph)
    assert_one_class(graph, res)
    assert res.gamma == Fraction(3, 2) and res.witness == a
    assert gamma_exhaustive(graph).witness == a


# -- Petridis: a minimizing witness controls every further sum ----------------------

@given(st.integers(0, 100_000))
def test_flow_witness_satisfies_petridis(seed):
    # if X minimizes |X+B|/|X| = K over the subsets of A, then
    # |X+B+C| <= K |X+C| for every C (Petridis, arXiv:1101.3507)
    rng = random.Random(seed)
    inst, _ = rand_instance(rng, n_range=(2, 64), k_range=(2, 3), a_range=(1, 30),
                            b_range=(1, 5), identity=rng.random() < 0.5)
    graph, bk = graph_of(inst)
    x = gamma_flow(graph).witness
    x_bk = sumset(x, bk)
    for _ in range(5):
        n = inst.group.order
        c = inst.group.set_of(rng.sample(range(n), rng.randint(1, min(n, 8))))
        assert len(sumset(x_bk, c)) * len(x) <= len(x_bk) * len(sumset(x, c))
