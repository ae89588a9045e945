"""Exact normalized sumset ratios and their fractional-power bounds.

For an instance (A, B_1..B_k) the table keeps the integer size |A+B_I|
of every index subset I, so alpha_I = |A+B_I| / |A| is exact.  The bound

    beta_J = (prod of alpha_L over L subset of J, |L| = l) ** (1 / C(|J|-1, l-1))

is irrational in general, so it is kept as an exact (base, root) pair and
every order decision is made by raising to the integer root and
cross-multiplying big integers; a float is only derived, for display.  A
bound that is a sum of rational multiples of such roots is ordered by
cmp_ratio_vs_sum, in integers too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import CertificateError, UsageError
from .groups import Instance, sumset

MAX_K = 8
ROOT_BITS_MAX = 1 << 14  # the finest bracket of a root in cmp_ratio_vs_sum, in bits

LT, EQ, GT = -1, 0, 1


class AlphaTable(NamedTuple):
    """The integer sizes |A+B_I| for every I subset of {1..k}, with m = |A|."""

    k: int
    m: int
    sizes: dict[frozenset[int], int]

    def leave_one_out_sizes(self) -> list[int]:
        """|A+B_(K minus i)| for i = 1..k, so alpha_(K minus i) = size / m."""
        full = frozenset(range(1, self.k + 1))
        return [self.sizes[full - {i}] for i in range(1, self.k + 1)]


class BetaValue(NamedTuple):
    """Exact root bound base ** (1 / expo_den); approx is for display."""

    base: Fraction
    expo_den: int

    @property
    def approx(self) -> float:
        """The root as a float, for display only."""
        if self.expo_den == 1:
            return float(self.base)
        return math.exp(log_fraction(self.base) / self.expo_den)

    def __repr__(self) -> str:
        if self.expo_den == 1:
            return f"BetaValue({self.base})"
        return f"BetaValue({self.base}^(1/{self.expo_den}) approx {self.approx:.12g})"


def alpha_table(inst: Instance) -> AlphaTable:
    """All 2^k sumset sizes, walked depth first: a child of I adds one index
    above max I with one extra sumset, so that in a noncommutative group
    A+B_I is A*B_i1*...*B_ij in increasing index order, the product that
    iterated_sumset([A, B_i1, ..., B_ij]) forms.  The table keeps only
    sizes, so at most the k+1 sets of one path are alive."""
    k = inst.k
    if k > MAX_K:
        raise UsageError(f"alpha tables are capped at k <= {MAX_K}, got k={k}")
    sizes = {frozenset(): len(inst.a)}
    # (I, A+B_(I minus max I)) for the index sets still to walk; each holds
    # a set of the current path, so the stack keeps no other set alive
    stack = [((i,), inst.a) for i in range(k, 0, -1)]
    while stack:
        combo, parent = stack.pop()
        cur = sumset(parent, inst.bs[combo[-1] - 1])
        sizes[frozenset(combo)] = len(cur)
        stack.extend((combo + (i,), cur) for i in range(k, combo[-1], -1))
    return AlphaTable(k=k, m=len(inst.a), sizes=sizes)


def instance_table(inst: Instance) -> AlphaTable:
    """The instance's alpha table, built once per instance."""
    return inst.cached("alpha", alpha_table)


def log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def require_level(k: int, l: int) -> None:
    """The rule on a level: 1 <= l < k, for k summand sets."""
    if not 1 <= l < k:
        raise UsageError(f"level must satisfy 1 <= l < k, got l={l}, k={k}")


def beta_value(table: AlphaTable, j_set: frozenset[int] | set[int], l: int) -> BetaValue:
    """The root bound for index set J at level l; for |J| = l it degenerates
    to alpha_J with exponent 1.  The base, the product of the C(|J|, l)
    alphas alpha_L, is one Fraction of the integer sizes over m ** C(|J|, l)."""
    j_key = frozenset(j_set)
    j = len(j_key)
    if not j_key <= frozenset(range(1, table.k + 1)):
        raise UsageError(f"index set {sorted(j_set)} not within 1..{table.k}")
    if l < 1 or j < l:
        raise UsageError(f"need 1 <= l <= |J|, got l={l}, |J|={j}")
    sizes = table.sizes
    base = Fraction(math.prod(sizes[frozenset(combo)] for combo in combinations(j_key, l)),
                    table.m ** math.comb(j, l))
    return BetaValue(base=base, expo_den=math.comb(j - 1, l - 1))


_UNIT = BetaValue(base=Fraction(1), expo_den=1)


def cmp_ratio_vs_beta(ratio: Fraction, b: BetaValue,
                      ratio2: Fraction = _UNIT.base, b2: BetaValue = _UNIT) -> int:
    """Exact order of a positive rational against a root bound: LT, EQ or GT.

    More generally, the order of the quotient ratio / b against ratio2 / b2
    (by default 1 / 1).  Both sides are raised to the lcm d of the two roots
    and cross-multiplied as integers; no floating point is involved.
    """
    if ratio.numerator <= 0:
        raise UsageError(f"ratio must be positive, got {ratio}")
    d = math.lcm(b.expo_den, b2.expo_den)
    e1, e2 = d // b.expo_den, d // b2.expo_den
    lhs = (ratio.numerator * ratio2.denominator) ** d * (
        b.base.denominator ** e1 * b2.base.numerator ** e2)
    rhs = (ratio2.numerator * ratio.denominator) ** d * (
        b.base.numerator ** e1 * b2.base.denominator ** e2)
    if lhs < rhs:
        return LT
    if lhs > rhs:
        return GT
    return EQ


def iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) for integers x >= 0 and n >= 1.  A float guess of
    the root's top bits is refined by Newton's method; the first integer
    step lands at or above the floor from any guess, and each later one
    goes down until it would stop."""
    if x < 2 or n == 1:
        return x
    shift = max(0, x.bit_length() // n - 48)  # root bits below a float's reach
    r = int(math.exp(math.log(x >> shift * n) / n) + 1) << shift
    r = ((n - 1) * r + x // r ** (n - 1)) // n
    while (s := ((n - 1) * r + x // r ** (n - 1)) // n) < r:
        r = s
    return r


def rational_root(b: BetaValue) -> Fraction | None:
    """b's value when it is rational, else None: the reduced base is a
    perfect power exactly when its numerator and denominator are."""
    n, num, den = b.expo_den, b.base.numerator, b.base.denominator
    p, q = iroot(num, n), iroot(den, n)
    return Fraction(p, q) if p ** n == num and q ** n == den else None


def root_product(*roots: BetaValue) -> BetaValue:
    """A product of roots as one root, over the lcm of their roots."""
    n = math.lcm(*(b.expo_den for b in roots))
    return BetaValue(math.prod(b.base ** (n // b.expo_den) for b in roots), n)


def cmp_ratio_vs_sum(lhs: Fraction, terms: Sequence[tuple[Fraction, BetaValue]]) -> int:
    """Exact order of a rational lhs against the sum of c * b over (c, b)
    in terms, each b a positive root: LT, EQ or GT.  Rational roots are
    summed as Fractions.  If the other coefficients differ in sign, roots
    with a rational ratio are merged, so that what cancels cancels exactly.
    A lone irrational root goes to cmp_ratio_vs_beta; several are bracketed
    between integer n-th roots, at double the bits each round up to
    ROOT_BITS_MAX, past which CertificateError carries lhs and the terms.
    """
    rest, roots = Fraction(lhs), {}
    for c, b in terms:
        if (exact := rational_root(b)) is not None:
            rest -= c * exact
        elif c:
            roots[b] = roots.get(b, 0) + c
    if len({c > 0 for c in roots.values() if c}) > 1:
        merged: dict[BetaValue, Fraction] = {}
        for b, c in roots.items():
            for b0 in merged:
                if ratio := rational_root(root_product(b, BetaValue(1 / b0.base, b0.expo_den))):
                    merged[b0] += c * ratio
                    break
            else:
                merged[b] = c
        roots = merged
    roots = [(c, b) for b, c in roots.items() if c]
    if not roots:
        return (rest > 0) - (rest < 0)
    if len(roots) == 1:
        [(c, b)] = roots
        order = cmp_ratio_vs_beta(rest / c, b) if rest / c > 0 else LT
        return order if c > 0 else -order
    bits = 64
    while bits <= ROOT_BITS_MAX:
        lo = hi = 0  # 2^bits times the sum lies strictly between them
        for c, b in roots:
            n = b.expo_den
            f = iroot((b.base.numerator << bits * n) // b.base.denominator, n)
            lo, hi = (lo + c * f, hi + c * (f + 1)) if c > 0 else (lo + c * (f + 1), hi + c * f)
        if rest * (1 << bits) <= lo:
            return LT
        if rest * (1 << bits) >= hi:
            return GT
        bits *= 2
    raise CertificateError(f"exact comparison undecided at {ROOT_BITS_MAX} bits", {
        "lhs": str(lhs), "terms": [[str(c), str(b.base), b.expo_den] for c, b in terms]})
