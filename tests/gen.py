"""Seeded random instance generation for tests that need many instances."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from plab import AlphaTable, Instance, make_abelian_group


def rand_instance(rng: random.Random, *, n_range=(4, 64), k_range=(2, 4),
                  a_range=(1, 8), b_range=(1, 8), identity=True,
                  l: int | None = None) -> tuple[Instance, int]:
    """A random instance and a level: l, or one drawn from 1..k-1."""
    n = rng.randint(*n_range)
    k = rng.randint(*k_range)
    g = make_abelian_group([n])
    size_a = rng.randint(a_range[0], min(a_range[1], n))
    a = g.set_of(rng.sample(range(n), size_a))
    bs = []
    for _ in range(k):
        size = rng.randint(b_range[0], min(b_range[1], n))
        if identity:
            elems = [0] + (rng.sample(range(1, n), size - 1) if size > 1 else [])
        else:
            elems = rng.sample(range(n), size)
        bs.append(g.set_of(elems))
    level = l if l is not None else rng.randint(1, k - 1)
    return Instance(g, a, bs), level


def rand_subset(rng: random.Random, gset, *, min_size=1):
    members = list(gset)
    size = rng.randint(min_size, len(members))
    return gset.group.set_of(rng.sample(members, size))


def synthetic_alpha_table(k: int, rng: random.Random, *, max_part: int = 60) -> AlphaTable:
    """A coherent table with arbitrary positive rational entries, for
    exercising purely algebraic identities.  Not monotone in general."""
    alphas = {frozenset(): Fraction(1)}
    indices = list(range(1, k + 1))
    for size in range(1, k + 1):
        for combo in combinations(indices, size):
            alphas[frozenset(combo)] = Fraction(rng.randint(1, max_part),
                                                rng.randint(1, max_part))
    m = math.lcm(*(a.denominator for a in alphas.values()))
    sizes = {key: int(a * m) for key, a in alphas.items()}
    return AlphaTable(k=k, m=m, sizes=sizes)
