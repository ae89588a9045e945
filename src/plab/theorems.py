"""Verdict operations: each inequality the library checks, with witnesses.

Each check returns its verdict and leaves its consequences to the caller:
which checks the paper proves, and so which failures are violations and
which are findings, is recorded once, in ``cli.CHECKS``, through which
every command refuses a proved check on a noncommutative group.  A check
whose bound reads a level l takes it as an argument, and each check refuses
the inputs it cannot take for every caller, such as more than
EVERY_SUBSET_MAX members of an every-subset S.  Verdicts are exact, except
the bounds that are sums of roots, checked in floats at a fixed relative
tolerance: ``large_subset``'s, which the restricted proof chain reuses as its
``witness_term_bound``, and that chain's ``combined_bound``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations
from operator import add
from typing import NamedTuple

from .alphabeta import (BetaValue, GT, LT, beta_value, cmp_ratio_vs_beta,
                        instance_table, log_fraction, require_level)
from .errors import UsageError
from .groups import (GSet, Instance, check_budget, direct_powers, iterated_sumset,
                     subset_sumsets, sumset)
from .magnification import build_plun_graph, gamma_flow, instance_gamma, instance_graph

REL_TOL = 1e-9        # float checks of the sum-of-roots bounds
NEAR_FLAG_TOL = 1e-6  # flag verdicts this close to the boundary
EVERY_SUBSET_MAX = 12  # |S| for check_restricted_sum's 2^|S| - 1 subset verdicts


class TheoremVerdict(NamedTuple):
    holds: bool
    lhs: object
    rhs: object
    witness: GSet | None = None


def check_plgen(inst: Instance, l: int) -> TheoremVerdict:
    """Some nonempty X in A has |X+B_K| <= beta * |X|, beta at level l:
    verified by comparing the exact magnification ratio against beta.  The
    verdict is kept in the memo under ("plgen", l)."""
    require_level(inst.k, l)
    def compare(inst: Instance) -> TheoremVerdict:
        beta = beta_value(instance_table(inst), inst.key_set, l)
        mag = instance_gamma(inst)
        holds = cmp_ratio_vs_beta(mag.gamma, beta) != GT
        return TheoremVerdict(holds=holds, lhs=mag.gamma, rhs=beta, witness=mag.witness)
    return inst.cached(("plgen", l), compare)


def check_single_summand(inst: Instance, l: int) -> TheoremVerdict:
    """Equal-summand case on B = B_1: some X has |X + kB| <= alpha^(k/l) |X|
    with alpha = |A+lB|/|A|.  Reduces to the general check on the instance
    with every B_i = B_1, which is kept in the memo like B_K, so every level
    shares its gamma and alpha table."""
    equal = inst.cached("single", lambda i: Instance(i.group, i.a, (i.bs[0],) * i.k))
    return check_plgen(equal, l)


def check_pldiff(inst: Instance) -> TheoremVerdict:
    """Product-of-alphas case: the bound is the plain rational
    alpha_1 * ... * alpha_k, so the verdict is plgen's at level 1."""
    return check_plgen(inst, 1)


# -- empirical large-subset constant ------------------------------------------

class EmpiricalConstant(NamedTuple):
    """Smallest observed c with |X+B_J| <= c * beta_J * |X| for all J with
    |J| >= l, over subsets X larger than (1-epsilon) * |A|.  The constant
    is exactly ratio / beta, with ratio = |X+B_J| / |X| at the binding J."""

    epsilon: Fraction
    ratio: Fraction
    beta: BetaValue
    x: GSet
    argmax_j: frozenset[int]
    exhaustive: bool

    @property
    def c_emp(self) -> float:
        """The constant, as a float for display."""
        return math.exp(log_fraction(self.ratio)
                        - log_fraction(self.beta.base) / self.beta.expo_den)


EXHAUSTIVE_M_MAX = 16
DEFAULT_SAMPLES = 10_000


def empirical_plgen2(inst: Instance, l: int, epsilon, *, samples: int = DEFAULT_SAMPLES,
                     seed: int = 0) -> EmpiricalConstant:
    """Measure min over admissible X of max over |J| >= l of |X+B_J| / (beta_J |X|).

    Exhaustive over all admissible subsets when |A| <= 16, otherwise seeded
    random sampling; X = A is always examined, so the result is finite.
    X beats the best on J exactly when |X+B_J| lies below a limit that
    depends only on |X|, J and the best, so an X costs integer compares up
    to the first J that it does not beat.  Each limit is found once per best
    by exact comparisons, and c_of, also exact, runs only on an X that beats
    the best on every J.
    """
    require_level(inst.k, l)
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise UsageError(f"epsilon must lie strictly between 0 and 1, got {epsilon}")
    m = len(inst.a)
    table = instance_table(inst)
    j_sets = [frozenset(c)
              for size in range(l, inst.k + 1)
              for c in combinations(range(1, inst.k + 1), size)]
    betas = [beta_value(table, j, l) for j in j_sets]
    b_sets = [iterated_sumset(inst.bs[i - 1] for i in sorted(j)) for j in j_sets]

    def c_of(size: int, image_sizes: list[int]) -> tuple[Fraction, BetaValue, frozenset[int]]:
        """The max over J of |X+B_J| / (beta_J |X|), from |X| and each |X+B_J|
        in j_sets order; max keeps the first of equal maxima, so the first J
        wins a tie."""
        return max(((Fraction(image_size, size), beta, j)
                    for j, beta, image_size in zip(j_sets, betas, image_sizes)),
                   key=cmp_to_key(lambda s, t: cmp_ratio_vs_beta(s[0], s[1], t[0], t[1])))

    @cache
    def limit(size: int, i: int) -> int:
        """The least |X+B_J| with J = j_sets[i] at which an X of this size no
        longer beats the best on J, cached until the best changes.  Binary
        search, every step an exact comparison, over the sizes X+B_J can
        take: at most |X|*|B_J| and |A+B_J|, as X lies in A, and at least
        |X| and |A+B_J| - |A minus X|*|B_J|.  A limit at either end of that
        range decides every X of this size alike."""
        b_size, a_image = len(b_sets[i]), table.sizes[j_sets[i]]
        lo = max(size, a_image - (m - size) * b_size)
        hi = min(size * b_size, a_image) + 1
        return bisect_left(range(hi), True, lo, key=lambda n: cmp_ratio_vs_beta(
            Fraction(n, size), betas[i], best[0], best[1]) != LT)

    def improves(size: int, image_sizes) -> bool:
        """Whether c_of of an X lies strictly below the best, and if so make
        it the best.  The max lies below the best only if every J does, so
        the lazy image_sizes are read and tested against their limits in
        j_sets order up to the first J that does not."""
        nonlocal best
        seen = []
        for i, image_size in enumerate(image_sizes):
            if image_size >= limit(size, i):
                return False
            seen.append(image_size)
        best = c_of(size, seen)
        limit.cache_clear()
        return True

    # X = A first, whose |A+B_J| the alpha table holds; a later X replaces
    # the best only when strictly smaller
    x = inst.a
    best = c_of(m, [table.sizes[j] for j in j_sets])
    min_size = math.floor((1 - eps) * m) + 1  # admissible: |X| > (1 - epsilon) |A|
    members = list(inst.a)
    exhaustive = m <= EXHAUSTIVE_M_MAX
    if exhaustive:
        full = best_mask = (1 << m) - 1
        for mask, unions in subset_sumsets(inst.a, b_sets, min_size):
            if mask != full and improves(mask.bit_count(), map(int.bit_count, unions)):
                best_mask = mask
        if best_mask != full:
            x = inst.group.set_of(members[i] for i in range(m) if best_mask >> i & 1)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            sample = inst.group.set_of(rng.sample(members, rng.randint(min_size, m)))
            if improves(len(sample), (len(sumset(sample, b)) for b in b_sets)):
                x = sample
    ratio, beta, j = best
    return EmpiricalConstant(epsilon=eps, ratio=ratio, beta=beta, x=x, argmax_j=j,
                             exhaustive=exhaustive)


# -- constructive large subsets -------------------------------------------------

class LargeSubsetResult(NamedTuple):
    x: GSet
    bound: float
    holds: bool
    lhs: int
    iterations: int
    near_boundary: bool


def large_subset(inst: Instance, l: int, mode: str, value) -> LargeSubsetResult:
    """Grow a subset to the requested size by repeatedly adjoining the
    magnification witness of what remains of A, then test the bound at level l.

    mode "a": integer target 1 <= a <= |A|, result has |X| >= a.
    mode "t": real target 0 <= t < |A|, result has |X| > t.
    The value may be any exact real (int, Fraction, Decimal or float); the
    target and size tests compare it exactly.  The bound is evaluated in
    floats (the inner powers are irrational) and checked at 1e-9 relative
    tolerance, with a near-boundary flag at 1e-6.
    """
    require_level(inst.k, l)
    m = len(inst.a)
    if mode not in ("a", "t"):
        raise UsageError(f"mode must be 'a' or 't', got {mode!r}")
    try:
        target = Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"value must be a finite number, got {value}") from None
    if mode == "a" and not (target.denominator == 1 and 1 <= target <= m):
        raise UsageError(f"mode 'a' needs an integer 1 <= a <= {m}, got {value}")
    if mode == "t" and not 0 <= target < m:
        raise UsageError(f"mode 't' needs 0 <= t < {m}, got {value}")
    size = math.floor(target) + (mode == "t")  # the least |X| that meets the target

    start = check_plgen(inst, l)  # beta, and the witness of all of A
    graph, x = instance_graph(inst), start.witness
    iterations = 1
    while len(x) < size:
        x = x | gamma_flow(graph.restricted(inst.a - x)).witness
        iterations += 1
    lhs = graph.restricted(x).right_bits.bit_count()  # |X+B_K|

    kl = inst.k / l
    if mode == "a":
        total = sum((m / (m - i)) ** kl for i in range(size))
        total += (len(x) - size) * (m / (m - size + 1)) ** kl
    else:
        gap = float(m - target)  # rounded once, so positive even for t next to |A|
        head = m ** kl * (l / (inst.k - l)) * (gap ** (1 - kl) - m ** (1 - kl))
        total = head + float(len(x) - target) * (m / gap) ** kl
    bound = start.rhs.approx * total
    holds = lhs <= bound * (1 + REL_TOL)
    near = abs(lhs - bound) <= NEAR_FLAG_TOL * max(bound, 1.0)
    return LargeSubsetResult(x=x, bound=bound, holds=holds, lhs=lhs,
                             iterations=iterations, near_boundary=near)


# -- restricted sums ------------------------------------------------------------

def _leave_one_out_product(inst: Instance, s: GSet) -> int:
    """The product over i of |A + B_(K minus i)|, once S is found to be a
    nonempty subset of the complete sum B_K."""
    if not s:
        raise UsageError("S must be nonempty")
    if not s.issubset(inst.bk):
        raise UsageError("S must be a subset of the complete sum B_K")
    return math.prod(instance_table(inst).leave_one_out_sizes())


def _restricted_verdict(k: int, s_size: int, sa_size: int, s_prod: int) -> TheoremVerdict:
    lhs, rhs = sa_size ** k, s_size * s_prod
    return TheoremVerdict(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def _count_meets(counts: list[int], translates: list[int], mask: int, bits: int,
                 sign: int) -> None:
    """Depth first below the members that mask selects, whose translates meet
    in bits: counts[mask | 1 << j] = sign * |bits & translates[j]| for each
    j above mask's top bit, the sign alternating with depth.  An empty
    intersection ends its branch and leaves 0, as do all its supersets.  A
    nested function that called itself would be a reference cycle, keeping
    the translates alive after the check until the cyclic collector ran."""
    for j in range(mask.bit_length(), len(translates)):
        if both := bits & translates[j]:
            counts[mask | 1 << j] = sign * both.bit_count()
            _count_meets(counts, translates, mask | 1 << j, both, -sign)


def check_restricted_sum(inst: Instance, s: GSet, *, every_subset: bool = False
                         ) -> TheoremVerdict | list[tuple[list[int], TheoremVerdict]]:
    """For S inside the complete sum B_K:
    |S+A|^k <= |S| * prod over i of |A + B_(K minus i)|, checked in integers.

    Returns the verdict for S, kept under ("restricted", S), or with
    every_subset a (members of T, verdict) pair for every nonempty subset T
    of S, in increasing order of T's mask over the sorted members of S.
    Each t+A is translated once; by inclusion-exclusion the signed sizes of
    their intersections (_count_meets) sum to every |T+A|.  Time and list
    double with each member: above EVERY_SUBSET_MAX members S is refused,
    then 2*|S| ints of ceil(|G|/64) words are budgeted, before any translate.
    """
    if not every_subset:
        def verdict(i: Instance) -> TheoremVerdict:
            s_prod = _leave_one_out_product(i, s)  # a bad S raises and is not stored
            return _restricted_verdict(i.k, len(s), len(sumset(s, i.a)), s_prod)
        return inst.cached(("restricted", s), verdict)
    if len(s) > EVERY_SUBSET_MAX:
        raise UsageError(f"checking every subset of S needs |S| <= {EVERY_SUBSET_MAX}, "
                         f"got {len(s)}")
    s_prod = _leave_one_out_product(inst, s)
    group, n = inst.group, len(s)
    check_budget(2 * n * ((group.order + 63) >> 6), "64-bit words of subset sumsets")
    translates = [group.translate_bits(inst.a.bits, t) for t in s]
    counts = [0] * (1 << n)
    for i, bits in enumerate(translates):
        counts[1 << i] = len(inst.a)  # |t+A| = |A|
        _count_meets(counts, translates, 1 << i, bits, -1)
    # the subset-sum transform: each pass adds the masks without the lowest
    # bit into those with it, then moves that bit to the top of the index
    for _ in range(n):
        without = counts[0::2]
        counts = without + list(map(add, without, counts[1::2]))
    subsets = [[]]  # the members of every mask, in increasing mask order
    for t in s:
        subsets += [u + [t] for u in subsets]
    return [(u, _restricted_verdict(inst.k, len(u), size, s_prod))
            for u, size in zip(subsets[1:], counts[1:])]


class PipelineStep(NamedTuple):
    name: str
    lhs: float
    rhs: float
    holds: bool
    exact: bool


class PowerRow(NamedTuple):
    r: int
    power_size: int
    identity_holds: bool
    bound: float
    bound_holds: bool


class RestrictedPipelineReport(NamedTuple):
    branch: str
    s_size: int
    sa_size: int
    s_prod: int
    t: float | None
    steps: tuple[PipelineStep, ...]
    power_rows: tuple[PowerRow, ...]
    all_hold: bool


def restricted_pipeline(inst: Instance, s: GSet, r_max: int) -> RestrictedPipelineReport:
    """Walk the proof chain of the restricted-sum bound on a concrete
    instance: branch on |S| against the threshold, evaluate every
    intermediate inequality, and confirm the tensor-power identity
    |S^r + A^r| = |S+A|^r for r up to r_max.  The chain is proved for
    commutative groups; on another group a step may fail."""
    s_prod = _leave_one_out_product(inst, s)
    k, m = inst.k, len(inst.a)
    s_size, sa_size = len(s), len(sumset(s, inst.a))
    steps: list[PipelineStep] = []

    def add(name: str, lhs: float, rhs: float, exact: bool) -> None:
        holds = lhs <= rhs if exact else lhs <= rhs * (1 + REL_TOL)
        steps.append(PipelineStep(name=name, lhs=lhs, rhs=rhs, holds=holds, exact=exact))

    # exact branch test: |S|^(k-1) <= s_prod / m^k
    small_branch = s_size ** (k - 1) * m ** k <= s_prod
    t = None
    if small_branch:
        branch = "small"
        add("product_bound", sa_size, s_size * m, True)
    else:
        branch = "large"
        t = m - (s_prod / s_size ** (k - 1)) ** (1 / k)
        res = large_subset(inst, k - 1, "t", t)
        x, r_x = res.x, len(res.x)
        sx = len(sumset(s, x)) if r_x < m else sa_size
        add("witness_term_subset", sx, res.lhs, True)  # res.lhs is |X+B_K|
        # large_subset's verdict: a second float test could differ in the last bit
        steps.append(PipelineStep("witness_term_bound", res.lhs, res.bound, res.holds, False))
        rest = len(sumset(s, inst.a - x)) if r_x < m else 0
        add("complement_term", rest, s_size * (m - r_x), True)
        add("split", sa_size, sx + rest, True)
        relaxed = k * (s_prod * s_size) ** (1 / k)
        add("combined_bound", sa_size, relaxed - (k - 1) * (s_prod / m) ** (1 / (k - 1)), False)
        relaxed_holds = cmp_ratio_vs_beta(Fraction(sa_size, k),
                                          BetaValue(Fraction(s_prod * s_size), k)) != GT
        steps.append(PipelineStep("relaxed_bound", sa_size, relaxed, relaxed_holds, True))
    final = _restricted_verdict(k, s_size, sa_size, s_prod)
    add("kth_power_bound", final.lhs, final.rhs, True)

    power_rows: list[PowerRow] = []
    for r in range(1, r_max + 1):
        size_r = len(sumset(*direct_powers((s, inst.a), r))) if r > 1 else sa_size
        root = BetaValue(Fraction(k ** k * (s_prod * s_size) ** r), r * k)  # the bound as one root
        power_rows.append(PowerRow(
            r=r, power_size=size_r, identity_holds=size_r == sa_size ** r,
            bound=k ** (1 / r) * (s_prod * s_size) ** (1 / k),
            bound_holds=cmp_ratio_vs_beta(Fraction(sa_size), root) != GT))

    all_hold = (all(st.holds for st in steps)
                and all(row.identity_holds and row.bound_holds for row in power_rows))
    return RestrictedPipelineReport(branch=branch, s_size=s_size, sa_size=sa_size,
                                    s_prod=s_prod, t=t, steps=tuple(steps),
                                    power_rows=tuple(power_rows), all_hold=all_hold)


# -- noncommutative two-sided search --------------------------------------------

def check_noncommutative(inst: Instance) -> TheoremVerdict:
    """Whether some nonempty X in A has |B1 * X * B2| <= alpha1 * alpha2 * |X|,
    with alpha1 = |B1*A|/|A| (left) and alpha2 = |A*B2|/|A| (right).  Since
    B1 * X * B2 is the union of B1 * (x * B2) over x in X, the least ratio
    is gamma_flow's on the graph x -> B1 * (x * B2).  The inequality is unproved
    for noncommutative groups: a failed check is reported as a candidate
    counterexample, not raised as an error.
    """
    if inst.k != 2:
        raise UsageError("noncomm check needs exactly two summand sets")
    a, (b1, b2) = inst.a, inst.bs
    mag = gamma_flow(build_plun_graph(a, b2, left=b1))
    bound = Fraction(len(sumset(b1, a)) * len(sumset(a, b2)), len(a) ** 2)
    return TheoremVerdict(holds=mag.gamma <= bound, lhs=mag.gamma, rhs=bound,
                          witness=mag.witness)
