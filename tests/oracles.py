"""Independent brute-force oracles used to freeze expected test values.

Everything here works on plain Python sets of element indices (or plain
integers) and shares no arithmetic with plab: op rebuilds the group
operation from a Group's moduli or table, so the oracles stay independent
of the bitset, translation, and flow code paths they check.  The
exceptions are gamma_exhaustive, which enumerates the subsets of a
PlunGraph's left side to check the flow engine on the same graph,
plgen2_reference, which checks empirical_plgen2's search on the same
sumsets and exact comparisons, large_subset_reference, which checks
large_subset's greedy growth with the same flow engine on freshly built
graphs, beta_reference, which checks beta_value's
integer arithmetic on the same alpha table, and beta_identity_holds, which
checks an identity between beta_value's results.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, combinations, product

from plab import (LT, BetaValue, EmpiricalConstant, GSet, LargeSubsetResult, MagResult,
                  UsageError, alpha_table, beta_value, build_plun_graph, cmp_ratio_vs_beta,
                  gamma_flow, iterated_sumset, sumset)
from plab.groups import subset_sumsets
from plab.theorems import DEFAULT_SAMPLES, EXHAUSTIVE_M_MAX, NEAR_FLAG_TOL, REL_TOL

EXHAUSTIVE_MAX = 22


def op(group, a: int, b: int) -> int:
    """a * b: a row of the table, or coordinatewise addition of the
    mixed-radix digits, last modulus lowest."""
    if group.table is not None:
        return group.table[a][b]
    out, place = 0, 1
    for n in reversed(group.moduli):
        (a, x), (b, y) = divmod(a, n), divmod(b, n)
        out += (x + y) % n * place
        place *= n
    return out


def naive_sumset(group, s_elems, t_elems) -> set[int]:
    return {op(group, s, t) for s in s_elems for t in t_elems}


def naive_iterated(group, b_lists, idxs) -> set[int]:
    acc = {group.identity}
    for i in sorted(idxs):
        acc = naive_sumset(group, acc, b_lists[i - 1])
    return acc


def integer_iterated(a_ints, b_int_lists, idxs) -> set[int]:
    """Iterated sumset over the plain integers, by direct tuple enumeration."""
    chosen = [b_int_lists[i - 1] for i in sorted(idxs)]
    return {x + sum(t) for x in a_ints for t in product(*chosen)} if chosen \
        else set(a_ints)


def nonempty_subsets(elems):
    elems = list(elems)
    return chain.from_iterable(combinations(elems, r) for r in range(1, len(elems) + 1))


def naive_gamma(group, a_elems, bk_elems) -> Fraction:
    """Minimum of |Z + B_K| / |Z| over nonempty Z, via plain enumeration."""
    best = None
    for z in nonempty_subsets(a_elems):
        ratio = Fraction(len(naive_sumset(group, z, bk_elems)), len(z))
        if best is None or ratio < best:
            best = ratio
    return best


def naive_translate(group, elems, a) -> set[int]:
    return {op(group, a, x) for x in elems}


def naive_members(bits: int) -> list[int]:
    """Set bits of a nonnegative int in increasing order, read off its
    binary digits."""
    return [i for i, digit in enumerate(reversed(bin(bits))) if digit == "1"]


def neighbourhood_partition(adj_images) -> dict[int, int]:
    """The right vertices of a graph grouped by their left neighbours: for
    each left-vertex index mask that some right vertex has as its set of
    neighbours, the bitset of those right vertices, found one right vertex
    at a time."""
    images = list(adj_images)
    parts: dict[int, int] = {}
    for v in sorted(set().union(*map(naive_members, images))):
        mask = sum(1 << i for i, image in enumerate(images) if v in naive_members(image))
        parts[mask] = parts.get(mask, 0) | 1 << v
    return parts


def first_associativity_failure(rows) -> str | None:
    """The message make_cayley_group gives for the first triple (a, b, c),
    in lexicographic order, with (a*b)*c != a*(b*c); None if there is none."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left, right = rows[rows[a][b]][c], rows[a][rows[b][c]]
                if left != right:
                    return (f"associativity fails at triple ({a}, {b}, {c}): "
                            f"({a}*{b})*{c} = {left} but {a}*({b}*{c}) = {right}")
    return None


def is_group_table(rows) -> bool:
    """Whether an n x n table over 0..n-1 is a group's, by the axioms
    alone: a two-sided identity, a two-sided inverse of every element, and
    associativity of every triple."""
    n = len(rows)
    elems = range(n)
    identity = next((e for e in elems
                     if all(rows[e][x] == x == rows[x][e] for x in elems)), None)
    return (identity is not None
            and all(any(rows[a][b] == identity == rows[b][a] for b in elems) for a in elems)
            and all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
                    for a in elems for b in elems for c in elems))


def greedy_generators(rows, identity) -> list[int]:
    """Generators of a group table, each the smallest element outside the
    subgroup that those before it generate, that subgroup found by adding
    the product of every pair of its elements until none is new."""
    gens, subgroup = [], {identity}
    for g in range(len(rows)):
        if g not in subgroup:
            gens.append(g)
            grown = subgroup | {g}
            while grown != subgroup:
                subgroup = grown
                grown = subgroup | {rows[x][y] for x in subgroup for y in subgroup}
    return gens


def naive_power_index_set(base_order, elems, r) -> set[int]:
    """Indices of the r-fold cartesian power under concatenated-radix indexing."""
    out = {0}
    for _ in range(r):
        out = {p * base_order + e for p in out for e in elems}
    return out


def gamma_exhaustive(graph) -> MagResult:
    """gamma of a PlunGraph by enumerating every nonempty subset Z of its
    left vertices; ties go to the smallest |Z|, then to the smallest sorted
    member tuple."""
    n = len(graph.left)
    if n > EXHAUSTIVE_MAX:
        raise UsageError(
            f"|A| = {n} exceeds the exhaustive cap {EXHAUSTIVE_MAX}; use gamma_flow")
    adj = [graph.adj_bits[x] for x in graph.left]
    elem_bit = [1 << x for x in graph.left]
    best = None  # (|N(Z)|, |Z|, Z as a bitset)

    def members_key(bits: int) -> list[int]:
        return [i for i in range(bits.bit_length()) if bits >> i & 1]

    def improves(p: int, q: int, members: int) -> bool:
        bp, bq, bmembers = best
        if p * bq != bp * q:
            return p * bq < bp * q
        if q != bq:
            return q < bq
        return members_key(members) < members_key(bmembers)

    def visit(i: int, im: int, members: int, count: int) -> None:
        nonlocal best
        if i == n:
            if count and (best is None or improves(im.bit_count(), count, members)):
                best = (im.bit_count(), count, members)
            return
        visit(i + 1, im, members, count)
        visit(i + 1, im | adj[i], members | elem_bit[i], count + 1)

    visit(0, 0, 0, 0)
    p, q, members = best
    return MagResult(gamma=Fraction(p, q), witness=GSet(graph.group, members), iterations=0)


def beta_reference(table, j_set, l) -> tuple[BetaValue, float]:
    """beta_value as the product of one Fraction alpha_L per l-subset L of
    J, beside the display float that its approx must give."""
    j = len(j_set)
    base = Fraction(1)
    for combo in combinations(sorted(j_set), l):
        base *= Fraction(table.sizes[frozenset(combo)], table.m)
    expo_den = math.comb(j - 1, l - 1)
    if expo_den == 1:
        approx = float(base)
    else:
        approx = math.exp((math.log(base.numerator) - math.log(base.denominator)) / expo_den)
    return BetaValue(base=base, expo_den=expo_den), approx


def beta_identity_holds(table, j_set, l) -> bool:
    """Whether the product of the |J|-1 sub-bounds equals beta_J ** (|J|-1).

    Both sides become rational after raising to the product of the two root
    denominators; the check is exact.
    """
    j_key = frozenset(j_set)
    j = len(j_key)
    if j < l + 1:
        raise UsageError(f"identity needs |J| >= l+1, got |J|={j}, l={l}")
    beta_j = beta_value(table, j_key, l)
    sub_root = math.comb(j - 2, l - 1)
    lhs_base = Fraction(1)
    for x in sorted(j_key):
        sub = beta_value(table, j_key - {x}, l)
        assert sub.expo_den == sub_root, "sub-bound root mismatch"
        lhs_base *= sub.base
    # (lhs_base ** (1/sub_root)) ** (D * sub_root) vs (base ** ((j-1)/D)) ** (D * sub_root)
    d = beta_j.expo_den
    return lhs_base ** d == beta_j.base ** ((j - 1) * sub_root)


def plgen2_reference(inst, l, epsilon, *, samples: int = DEFAULT_SAMPLES,
                     seed: int = 0) -> EmpiricalConstant:
    """empirical_plgen2 by its definition: the full max over J for every X
    examined (X = A first, then the admissible X in increasing mask order,
    or the same seeded samples), each replacing the best only when strictly
    smaller; within one X the first J wins among equal maxima."""
    eps = Fraction(epsilon)
    m = len(inst.a)
    table = alpha_table(inst)
    j_sets = [frozenset(c)
              for size in range(l, inst.k + 1)
              for c in combinations(range(1, inst.k + 1), size)]
    betas = [beta_value(table, j, l) for j in j_sets]
    b_sets = [iterated_sumset(inst.bs[i - 1] for i in sorted(j)) for j in j_sets]

    def c_of(size, image_sizes):
        top = None
        for j, beta, image_size in zip(j_sets, betas, image_sizes):
            ratio = Fraction(image_size, size)
            if top is None or cmp_ratio_vs_beta(top[0], top[1], ratio, beta) == LT:
                top = (ratio, beta, j)
        return top

    def improves(c, best) -> bool:
        return cmp_ratio_vs_beta(c[0], c[1], best[0], best[1]) == LT

    x = inst.a
    best = c_of(m, [table.sizes[j] for j in j_sets])
    min_size = math.floor((1 - eps) * m) + 1
    members = list(inst.a)
    exhaustive = m <= EXHAUSTIVE_M_MAX
    if exhaustive:
        full = best_mask = (1 << m) - 1
        for mask, unions in subset_sumsets(inst.a, b_sets, min_size):
            if mask != full:
                c = c_of(mask.bit_count(), [u.bit_count() for u in unions])
                if improves(c, best):
                    best, best_mask = c, mask
        if best_mask != full:
            x = inst.group.set_of(members[i] for i in range(m) if best_mask >> i & 1)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            sample = inst.group.set_of(rng.sample(members, rng.randint(min_size, m)))
            c = c_of(len(sample), [len(sumset(sample, b)) for b in b_sets])
            if improves(c, best):
                best, x = c, sample
    ratio, beta, j = best
    return EmpiricalConstant(epsilon=eps, ratio=ratio, beta=beta, x=x, argmax_j=j,
                             exhaustive=exhaustive)


def large_subset_reference(inst, l, mode, value) -> LargeSubsetResult:
    """large_subset as its loop was first written: X starts as the witness
    of all of A and, while it is too small, adjoins the witness of a graph
    built afresh on A minus X; |X+B_K| is one sumset at the end.  Nothing
    is read from the instance's memo.  The bound is the same float formula."""
    m, k = len(inst.a), inst.k
    target = Fraction(value)
    bk = iterated_sumset(inst.bs)
    x = gamma_flow(build_plun_graph(inst.a, bk)).witness
    iterations = 1
    while len(x) < target if mode == "a" else len(x) <= target:
        x = x | gamma_flow(build_plun_graph(inst.a - x, bk)).witness
        iterations += 1
    lhs = len(sumset(x, bk))
    kl = k / l
    if mode == "a":
        a = int(target)
        total = sum((m / (m - i)) ** kl for i in range(a))
        total += (len(x) - a) * (m / (m - a + 1)) ** kl
    else:
        gap = float(m - target)
        head = m ** kl * (l / (k - l)) * (gap ** (1 - kl) - m ** (1 - kl))
        total = head + float(len(x) - target) * (m / gap) ** kl
    bound = beta_value(alpha_table(inst), frozenset(range(1, k + 1)), l).approx * total
    return LargeSubsetResult(x=x, bound=bound, holds=lhs <= bound * (1 + REL_TOL), lhs=lhs,
                             iterations=iterations,
                             near_boundary=abs(lhs - bound) <= NEAR_FLAG_TOL * max(bound, 1.0))
