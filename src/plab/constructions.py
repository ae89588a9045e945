"""Proof-machinery constructions made concrete.

The cyclic-extension device turns a different-summands instance read at
level l = k-1 into an equal-summands one: append cyclic factors H_1..H_k of
orders n_i = alpha_(K minus i) * q to the group and replace each B_i by
B_i x H_i.  All distinct-summand sums A + B'_(K minus i) then share the
exact cardinality m * (beta*q)^l, while every repeated-summand term grows
a factor of q slower, which is the point of the construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, takewhile
from operator import or_
from typing import NamedTuple

from .alphabeta import AlphaTable, instance_table, require_level
from .errors import UsageError
from .groups import (GSet, Group, Instance, check_budget, element_cap, iterated_sumset,
                     make_abelian_group)
from .magnification import instance_gamma


def admissible_q(table: AlphaTable, base_order: int) -> list[int]:
    """The first eight q making every n_i = alpha_(K minus i) * q an integer,
    cut short where the extended group would exceed the element cap, which
    check_budget refuses when even the smallest q's group exceeds it."""
    sizes, m = table.leave_one_out_sizes(), table.m
    # size / m in lowest terms has denominator m / gcd(size, m)
    step = math.lcm(*(m // math.gcd(size, m) for size in sizes))

    def ext_order(q: int) -> int:
        return base_order * math.prod(size * q // m for size in sizes)

    check_budget(ext_order(step), f"group elements of the extension at its smallest q={step}")
    limit = element_cap()
    return list(takewhile(lambda q: ext_order(q) <= limit, range(step, 9 * step, step)))


class Lemma21Setup(NamedTuple):
    """The extended group with its per-summand cyclic paddings."""

    q: int
    n: tuple[int, ...]
    gprime: Group
    aprime: GSet
    bprime: GSet
    bi_prime: tuple[GSet, ...]

    @property
    def h_order(self) -> int:
        return math.prod(self.n)


class Lemma21Report(NamedTuple):
    setup: Lemma21Setup
    expected_distinct: int
    distinct_sizes: dict[int, int]
    union_size: int
    union_rhs: int
    union_holds: bool
    first_satisfying_q: int | None
    repeated_sizes: dict[tuple[int, ...], int]
    apex_lhs: int
    apex_rhs: int
    apex_equal: bool

    @property
    def identities_hold(self) -> bool:
        """Every distinct-summand size is expected_distinct, and the apex identity holds."""
        return self.apex_equal and set(self.distinct_sizes.values()) == {self.expected_distinct}

    @property
    def repeated_to_distinct_ratio(self) -> Fraction:
        return Fraction(sum(self.repeated_sizes.values()),
                        sum(self.distinct_sizes.values()))


def build_extension(inst: Instance, l: int, q: int) -> Lemma21Setup:
    """Extend the instance's group by the cyclic paddings for q, at level l = k-1."""
    require_level(inst.k, l)
    if q < 1:
        raise UsageError(f"q must be >= 1, got {q}")
    if inst.group.table is not None:
        raise UsageError("the extension construction needs an abelian product group")
    if l != inst.k - 1:
        raise UsageError(f"construction requires k = l+1, got k={inst.k}, l={l}")
    table = instance_table(inst)
    n = []
    for size in table.leave_one_out_sizes():
        if size * q % table.m:
            raise UsageError(f"q={q} is not admissible: "
                             f"alpha*q = {Fraction(size * q, table.m)} is not integral")
        n.append(size * q // table.m)
    gprime = make_abelian_group(inst.group.moduli + tuple(n))
    h_order = math.prod(n)
    aprime = gprime.set_of(x * h_order for x in inst.a)
    bi_prime = []
    for i, b in enumerate(inst.bs):
        stride = math.prod(n[i + 1:])  # index step along H_i's axis
        bi_prime.append(gprime.set_of(x * h_order + h * stride for x in b for h in range(n[i])))
    bprime = GSet(gprime, reduce(or_, (bp.bits for bp in bi_prime)))
    return Lemma21Setup(q=q, n=tuple(n), gprime=gprime, aprime=aprime,
                        bprime=bprime, bi_prime=tuple(bi_prime))


def lemma21_demo(inst: Instance, l: int, q: int) -> Lemma21Report:
    """Measure the construction at q: the k distinct-summand sums must all
    equal m*(beta*q)^l exactly; the (k-1)-fold sum of the union B' is
    compared against twice their total, and the first of the first eight
    admissible q satisfying that bound is reported alongside the
    repeated-summand diagnostics and the apex identity
    |X + (B_K x H)| = |H| * |X + B_K|."""
    setup = build_extension(inst, l, q)
    k = inst.k
    table = instance_table(inst)
    h_order = setup.h_order

    expected = _expected_at(table, l, q)

    distinct_sizes = {
        i: len(iterated_sumset([setup.aprime, *setup.bi_prime[:i - 1], *setup.bi_prime[i:]]))
        for i in range(1, k + 1)}

    def union_size_of(st: Lemma21Setup) -> int:
        return len(iterated_sumset([st.aprime] + [st.bprime] * (k - 1)))

    union_size = union_size_of(setup)
    union_rhs = 2 * k * expected
    union_holds = union_size <= union_rhs

    first_q = None
    for cand in admissible_q(table, inst.group.order):
        size = union_size if cand == q else union_size_of(build_extension(inst, l, cand))
        if size <= 2 * k * _expected_at(table, l, cand):
            first_q = cand
            break

    repeated_sizes: dict[tuple[int, ...], int] = {}
    for multiset in combinations_with_replacement(range(1, k + 1), k - 1):
        if len(set(multiset)) == k - 1:
            continue  # distinct-summand terms reported separately
        repeated_sizes[multiset] = len(iterated_sumset(
            [setup.aprime, *(setup.bi_prime[j - 1] for j in multiset)]))

    res = instance_gamma(inst)  # its certificate proved |X+B_K| = gamma*|X|
    wprime = setup.gprime.set_of(x * h_order for x in res.witness)
    apex_lhs = len(iterated_sumset([wprime, *setup.bi_prime]))
    apex_rhs = h_order * int(res.gamma * len(res.witness))

    return Lemma21Report(setup=setup, expected_distinct=expected,
                         distinct_sizes=distinct_sizes, union_size=union_size,
                         union_rhs=union_rhs, union_holds=union_holds,
                         first_satisfying_q=first_q, repeated_sizes=repeated_sizes,
                         apex_lhs=apex_lhs, apex_rhs=apex_rhs,
                         apex_equal=apex_lhs == apex_rhs)


def _expected_at(table: AlphaTable, l: int, q: int) -> int:
    """m * (beta*q)^l as an exact integer via the leave-one-out product,
    m * q^l * (product of the sizes) / m^k."""
    expected, rest = divmod(table.m * q ** l * math.prod(table.leave_one_out_sizes()),
                            table.m ** table.k)
    if rest:
        raise AssertionError("distinct-summand size must be integral for admissible q")
    return expected
