"""Finite groups, bitset subsets, and exact sumset arithmetic.

Abelian groups are products of cyclic groups Z_{n_1} x ... x Z_{n_d} with
mixed-radix element indexing, so index 0 is the identity.  Arbitrary small
groups (order <= 64) can instead be described by an explicit
multiplication table, validated for the group axioms at construction.
Plain nonnegative-integer sets live in integer_group's Z_N, where no sum
wraps; the sets of every group are built by Group.set_of.

A GSet is an immutable subset of one group, stored as a bitset in a single
Python int (bit i set <=> element i is a member).  The sumset S*T is the
union of the left translates s*T over the members s of S; in a commutative
group the operands are first swapped so that the smaller one supplies the
translates.  A product-group translate is a handful of big-int shifts, so it
costs O(d * N / wordsize) rather than |S|*|T| pairs: the outermost axis is one
block spanning the whole bitset, so its translate is a single rotate under the
group's full mask, and each inner axis shifts its blocks under comb masks
cached per group.  A table translate sends each member through one row of the
table.

Converting between members and bitsets is linear in the set and the group,
not in their product: in groups of more than 64 elements set_of fills a
byte buffer and converts it once, O(|S| + N/8), and keeps strictly
increasing members, as instance files list them, for iteration; every
other set is iterated by walk_bits, O(|S| + N/64) on a wide dense int.
"""

from __future__ import annotations

import os
import struct
from functools import cache, reduce
from itertools import compress, count, islice
from math import prod
from operator import itemgetter, lt, or_
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import ResourceError, UsageError, ValidationError

DEFAULT_ELEMENT_CAP = 1 << 26
CAP_ENV_VAR = "PLAB_MEM_CAP"
CAYLEY_MAX_ORDER = 64
# walk_bits walks an int 64-bit word by word once it is wider than this many
# bits and has more than this many members; below either, scanning the whole
# int member by member is faster
WORD_WALK_MIN_BITS = 2048
WORD_WALK_MIN_MEMBERS = 16

T = TypeVar("T")


@cache
def element_cap() -> int:
    """Per-group element budget (default 2**26); PLAB_MEM_CAP overrides.  It
    is read once per process, at first use; a bad value raises on every call,
    since a call that raises is not cached."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ELEMENT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise UsageError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise UsageError(f"{CAP_ENV_VAR} must be positive, got {cap}")
    return cap


def check_budget(count: int, what: str) -> None:
    """Every element budget: count of what (group elements, 64-bit words or
    flow edges) over element_cap() raises a one-line ResourceError."""
    limit = element_cap()
    if count > limit:
        raise ResourceError(f"{count} {what} exceed the element cap {limit}")


class Group:
    """A finite group with elements indexed 0..order-1.

    Either a product of cyclic groups (moduli set, table None, identity at
    index 0) or an explicit multiplication table (table set, moduli None,
    identity wherever the table puts it).  Instances are immutable; shared
    caches are fill-once.
    """

    __slots__ = ("moduli", "table", "order", "identity", "is_abelian",
                 "_strides", "_full", "_combs", "_masks")

    def __init__(self, *, moduli: tuple[int, ...] | None = None,
                 table: tuple[tuple[int, ...], ...] | None = None,
                 identity: int = 0, is_abelian: bool = True):
        self.moduli = moduli
        self.table = table
        self.identity = identity
        self.is_abelian = is_abelian
        if table is None:
            self.order = prod(moduli)
            # stride of axis j = product of the moduli after it
            strides = [1] * len(moduli)
            for j in range(len(moduli) - 2, -1, -1):
                strides[j] = strides[j + 1] * moduli[j + 1]
            self._strides = tuple(strides)
        else:
            self.order = len(table)
            self._strides = ()
        self._full = (1 << self.order) - 1
        self._combs = None   # per-axis block comb masks, built lazily
        self._masks = {}     # (axis, shift) -> (low_mask, high_mask)

    # -- bitset translation ------------------------------------------------

    def _axis_combs(self) -> tuple[int, ...]:
        """Per axis, bit 0 of every block of n*s bits; the blocks tile the
        bitset.  Each comb doubles its teeth by a shift and an OR until it
        spans the bitset, then drops the teeth past the top."""
        if self._combs is None:
            combs = []
            for n, s in zip(self.moduli, self._strides):
                comb, width = 1, n * s
                while width < self.order:
                    comb |= comb << width
                    width <<= 1
                combs.append(comb & self._full)
            self._combs = tuple(combs)
        return self._combs

    def _axis_masks(self, axis: int, c: int) -> tuple[int, int]:
        """The masks of a shift by c along an axis of n coordinates and
        stride s: low takes the coordinates below n-c of every block, which
        move up by c*s, and high the c places they wrap down into.  The low
        w bits of every block are (1 << w) - 1 at each tooth of the comb,
        that is (comb << w) - comb, with no big-int product."""
        key = (axis, c)
        cached = self._masks.get(key)
        if cached is None:
            n = self.moduli[axis]
            s = self._strides[axis]
            comb = self._axis_combs()[axis]
            low = (comb << (n - c) * s) - comb
            high = (comb << c * s) - comb
            cached = (low, high)
            self._masks[key] = cached
        return cached

    def translate_bits(self, bits: int, a: int) -> int:
        """Bitset of the left translate {a * x : x in bits}: one rotate of
        the whole bitset for axis 0 and masked shifts for each inner axis of
        a product group, row a of the table in a cayley group."""
        if a == self.identity or bits == 0:
            return bits
        if self.table is not None:
            row = self.table[a]
            out = 0
            while bits:
                lsb = bits & -bits
                out |= 1 << row[lsb.bit_length() - 1]
                bits ^= lsb
            return out
        moduli = self.moduli
        for axis in range(len(moduli) - 1, 0, -1):
            a, c = divmod(a, moduli[axis])
            if c:
                s = self._strides[axis]
                low, high = self._axis_masks(axis, c)
                bits = ((bits & low) << c * s) | ((bits >> (moduli[axis] - c) * s) & high)
        if a:
            # axis 0 is one block spanning the whole bitset: a rotate
            shift = a * self._strides[0]
            bits = ((bits << shift) & self._full) | (bits >> (self.order - shift))
        return bits

    # -- set constructors ----------------------------------------------------

    def set_of(self, elems: Iterable[int]) -> "GSet":
        """The set of elems, in any order and with repeats.  In a group
        wider than one machine word, strictly increasing elems are kept as
        the set's members, so that iterating the set returns them instead of
        walking its bits."""
        order = self.order
        if order <= 64:  # the bitset is one machine word, cheap to walk
            bits = 0
            for e in elems:
                if not 0 <= e < order:
                    raise _out_of_range(e, order)
                bits |= 1 << e
            return GSet(self, bits)
        if not isinstance(elems, (list, tuple)):
            elems = tuple(elems)
        # ORing 1 << e into a growing int costs O(order) per member; set the
        # bits in a little-endian byte buffer and convert once instead
        buf = bytearray((order + 7) >> 3)
        if not all(map(lt, elems, islice(elems, 1, None))):
            for e in elems:
                if not 0 <= e < order:
                    raise _out_of_range(e, order)
                buf[e >> 3] |= 1 << (e & 7)
            return GSet(self, int.from_bytes(buf, "little"))
        # strictly increasing: an element out of range sits at an end, and
        # is the first element or the first of those past the top
        if elems and not (0 <= elems[0] and elems[-1] < order):
            raise _out_of_range(elems[0] if elems[0] < 0 else
                                next(e for e in elems if e >= order), order)
        for e in elems:
            buf[e >> 3] |= 1 << (e & 7)
        gs = GSet(self, int.from_bytes(buf, "little"))
        gs._members = tuple(elems)
        return gs

    # -- identity / equality -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self.moduli == other.moduli and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.moduli, self.table))

    def __repr__(self) -> str:
        if self.table is None:
            return "Z" + "xZ".join(str(n) for n in self.moduli)
        return f"Cayley(order={self.order})"


class GSet:
    """An immutable subset of a finite group, stored as a bitset.

    A set that Group.set_of built from strictly increasing members, in a
    group of more than 64 elements, also keeps them as a tuple, which
    __iter__ returns.  Every other set keeps none and walks its bits:
    sumsets, translates, unions, differences and powers among them.  The
    tuple costs 8 bytes a member and keeps the caller's int objects alive,
    about 36 bytes a member in all; the element cap bounds it as it bounds
    the bitset.  Equality, hashing and len read the bits only.
    """

    __slots__ = ("group", "bits", "_card", "_members")

    def __init__(self, group: Group, bits: int):
        if bits < 0 or bits >> group.order:
            raise UsageError("bitset has bits outside the group's index range")
        self.group = group
        self.bits = bits
        self._card = bits.bit_count()
        self._members = None

    def __len__(self) -> int:
        return self._card

    def __iter__(self) -> Iterator[int]:
        """Members in increasing order: those that set_of kept, else a walk
        of the bits."""
        if self._members is not None:
            return iter(self._members)
        return walk_bits(self.bits, self._card)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group == other.group and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.group, self.bits))

    def __or__(self, other: "GSet") -> "GSet":
        require_same_group(self, other)
        return GSet(self.group, self.bits | other.bits)

    def __sub__(self, other: "GSet") -> "GSet":
        require_same_group(self, other)
        return GSet(self.group, self.bits & ~other.bits)

    def issubset(self, other: "GSet") -> bool:
        require_same_group(self, other)
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        inner = ",".join(map(str, self)) if self._card <= 12 else f"...{self._card} elements..."
        return f"GSet({{{inner}}} in {self.group!r})"


def _out_of_range(e: int, order: int) -> UsageError:
    return UsageError(f"element index {e} out of range 0..{order - 1}")


def walk_bits(bits: int, card: int) -> Iterator[int]:
    """The card set bits of bits in increasing order.  Clearing the lowest
    bit of the whole int costs O(N/64) per member; a wide int with many
    members is instead converted once and walked word by word, O(card +
    N/64) in all."""
    if card > WORD_WALK_MIN_MEMBERS and bits.bit_length() > WORD_WALK_MIN_BITS:
        nwords = (bits.bit_length() + 63) >> 6
        words = struct.unpack(f"<{nwords}Q", bits.to_bytes(nwords * 8, "little"))
        for base, word in compress(zip(count(0, 64), words), words):
            while word:
                lsb = word & -word
                yield base + lsb.bit_length() - 1
                word ^= lsb
        return
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def require_same_group(s: GSet, t: GSet) -> None:
    """The one refusal of two sets from different groups."""
    if s.group is not t.group and s.group != t.group:
        raise UsageError("set operands belong to different groups")


# -- public constructors ----------------------------------------------------

def make_abelian_group(moduli: Sequence[int]) -> Group:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_d}; index 0 is identity."""
    mods = tuple(int(n) for n in moduli)
    if not mods:
        raise UsageError("moduli must be a nonempty list")
    if any(n < 1 for n in mods):
        raise UsageError(f"cyclic orders must be >= 1, got {mods}")
    check_budget(prod(mods), "group elements")
    return Group(moduli=mods)


def make_cayley_group(table: Sequence[Sequence[int]]) -> Group:
    """Group from an explicit N x N multiplication table (N <= 64).

    The table is checked for well-formedness, cancellativity (rows and
    columns are permutations), a two-sided identity and associativity; the
    first failure raises ValidationError.  Inverses follow: rows give
    a*b = e and b*d = e, so a = a*(b*d) = (a*b)*d = d and b*a = e.

    Associativity is Light's test: the b with (a*b)*c = a*(b*c) for all a, c
    include e and are closed, as (a*bd)*c = ((a*b)*d)*c = (a*b)*(d*c) =
    a*(b*(d*c)) = a*(bd*c), so checking b over generators checks every b.
    Only a failure runs the scan of all triples, which names the first.
    """
    rows = tuple(tuple(map(int, row)) for row in table)
    n = len(rows)
    if n == 0:
        raise ValidationError("empty multiplication table")
    if n > CAYLEY_MAX_ORDER:
        raise UsageError(f"table order {n} exceeds the cayley limit {CAYLEY_MAX_ORDER}")
    full = frozenset(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        if frozenset(row) != full:
            raise ValidationError(f"row {i} is not a permutation of 0..{n - 1}")
    columns = tuple(zip(*rows))
    for j, column in enumerate(columns):
        if frozenset(column) != full:
            raise ValidationError(f"column {j} is not a permutation of 0..{n - 1}")
    plain = tuple(range(n))
    identity = next((e for e in range(n) if rows[e] == plain and columns[e] == plain), None)
    if identity is None:
        raise ValidationError("no two-sided identity element")

    def associates(b: int) -> bool:
        # (a*b)*c = a*(b*c) for every c says that row a*b is row b sent
        # through row a; n > 1 here, so itemgetter returns a tuple
        through_b = itemgetter(*rows[b])
        return all(rows[row_a[b]] == through_b(row_a) for row_a in rows)

    if not all(map(associates, _generators(rows, identity))):
        for a, row_a in enumerate(rows):
            for b in range(n):
                for c in range(n):
                    if rows[row_a[b]][c] != row_a[rows[b][c]]:
                        raise ValidationError(
                            f"associativity fails at triple ({a}, {b}, {c}): "
                            f"({a}*{b})*{c} = {rows[row_a[b]][c]} but "
                            f"{a}*({b}*{c}) = {row_a[rows[b][c]]}")
    abelian = rows == columns
    return Group(table=rows, identity=identity, is_abelian=abelian)


def _generators(rows: tuple[tuple[int, ...], ...], identity: int) -> list[int]:
    """Elements whose left-to-right products reach every element: each is
    the smallest element not yet reached, and after each one is added the
    reached set is closed again, from every reached element, under right
    multiplication by the generators so far."""
    reached, gens = {identity}, []
    for g in range(len(rows)):
        if g not in reached:
            gens.append(g)
            new = reached
            while new:
                new = {rows[x][h] for x in new for h in gens} - reached
                reached |= new
    return gens


def integer_group(a: Sequence[int], bs: Sequence[Sequence[int]]) -> Group:
    """Z_N into which set_of maps nonnegative-integer sets A, B_1..B_k so
    that no sum wraps: N = 1 + max(A) + sum_i max(B_i), an empty set counting
    0, exceeds every reachable sum, so every iterated-sumset cardinality over
    the images equals the plain integer-set result."""
    if any(x < 0 for x in a) or any(x < 0 for b in bs for x in b):
        raise UsageError("integer elements must be nonnegative; translate first")
    return make_abelian_group([1 + max(a, default=0) + sum(max(b, default=0) for b in bs)])


# -- sumsets ------------------------------------------------------------------

def sumset(s: GSet, t: GSet) -> GSet:
    """{x * y : x in S, y in T}, the union of the left translates x * T;
    operand order matters in noncommutative groups."""
    require_same_group(s, t)
    g = s.group
    if g.is_abelian and len(s) > len(t):
        s, t = t, s
    out = 0
    for a in s:
        out |= g.translate_bits(t.bits, a)
    return GSet(g, out)


def subset_sumsets(ground: GSet, bases: Sequence[GSet],
                   min_size: int = 1) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The sumsets X*T of every subset X of ground with at least min_size
    members, against every T in bases, as (mask, unions) in increasing mask
    order: bit i of mask selects the i-th smallest member of ground, and
    unions[j] is the bitset of X*bases[j].

    X*T is the union of the translates x*T over x in X, so each translate
    is computed once and each subset costs one OR per base.  The walk is
    depth first: a subset extends its parent, the subset without its
    smallest member, and only the unions on the current path are kept, at
    most |ground| per base.  Branches that cannot reach min_size members
    are not entered.  Those two lists of |ground| * |bases| ints are
    budgeted at ceil(|G|/64) words each, from the group order alone, before
    any translate is computed.  empirical_plgen2 is its one caller.
    """
    group = ground.group
    for t in bases:
        require_same_group(ground, t)
    check_budget(2 * len(ground) * len(bases) * ((group.order + 63) >> 6),
                 "64-bit words of subset sumsets")
    steps = [tuple(group.translate_bits(t.bits, x) for t in bases) for x in ground]
    # frame: mask, size and unions of a path node, then the next member
    # index to add below its smallest and the end of that range
    frames = [[0, 0, (0,) * len(bases), max(min_size - 1, 0), len(steps)]]
    while frames:
        frame = frames[-1]
        mask, size, unions, i, stop = frame
        if i == stop:
            frames.pop()
            continue
        frame[3] = i + 1
        mask |= 1 << i
        size += 1
        unions = tuple(map(or_, unions, steps[i]))
        if size >= min_size:
            yield mask, unions
        if i:
            frames.append([mask, size, unions, max(min_size - size - 1, 0), i])


def iterated_sumset(sets: Iterable[GSet]) -> GSet:
    """S_1 * S_2 * ... * S_n over one or more sets, multiplied left to right."""
    return reduce(sumset, sets)


# -- instances, and the Cartesian powers behind the tensor-power identities ---

class Instance:
    """A base set A and summand sets B_1..B_k with k >= 2.

    The level l that a bound reads is not part of an instance: the checks
    that read one take it as an argument.  memo holds values fixed by
    (A, B_1..B_k) and by their key, filled on first use through cached();
    it takes no part in equality, hashing or repr.  A key names what its
    value depends on besides the sets, and one function fills it: "bk"
    Instance.bk, "alpha" instance_table, "graph" instance_graph, "gamma"
    instance_gamma, ("power", r) multiplicativity_check, ("plgen", l)
    check_plgen, "single" check_single_summand and ("restricted", S)
    check_restricted_sum.  A new Instance starts an empty memo.
    """

    __slots__ = ("group", "a", "bs", "memo")

    def __init__(self, group: Group, a: GSet, bs: Iterable[GSet]):
        bs = tuple(bs)
        if len(bs) < 2:
            raise UsageError("need at least two summand sets")
        if not a:
            raise UsageError("base set A must be nonempty")
        if any(not b for b in bs):
            raise UsageError("every summand set must be nonempty")
        for gs in (a, *bs):
            if gs.group != group:
                raise UsageError("all sets must live in the instance's group")
        for name, value in zip(Instance.__slots__, (group, a, bs, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of an Instance")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.group, self.a, self.bs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Instance(group={self.group!r}, a={self.a!r}, bs={self.bs!r})"

    @property
    def k(self) -> int:
        return len(self.bs)

    @property
    def key_set(self) -> frozenset[int]:
        """The full index set {1, ..., k}."""
        return frozenset(range(1, len(self.bs) + 1))

    @property
    def bk(self) -> GSet:
        """The complete sum B_K = B_1 + ... + B_k."""
        return self.cached("bk", lambda inst: iterated_sumset(inst.bs))

    def cached(self, key: Hashable, compute: Callable[["Instance"], T]) -> T:
        """compute(self), stored under key on first use.  The value must be
        fixed by the sets and the key: one that depends on a level l names l
        in its key."""
        memo = self.memo
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]


def direct_powers(sets: Sequence[GSet], r: int) -> tuple[GSet, ...]:
    """The Cartesian r-th powers of sets of one product group G, inside G^r
    with G's moduli repeated r times: (e_1, ..., e_r) has index
    e_1*|G|^(r-1) + ... + e_r."""
    group = sets[0].group
    for s in sets:
        require_same_group(sets[0], s)
    if group.table is not None:
        raise UsageError("direct powers are only supported for abelian product groups")
    if r < 1:
        raise UsageError(f"power must be >= 1, got {r}")
    limit = element_cap()
    if r > limit.bit_length():  # the order check's bound, for a one-element group too
        raise ResourceError(f"power {r} exceeds {limit.bit_length()}, the bit length "
                            f"of the element cap {limit}")
    powered, n = make_abelian_group(group.moduli * r), group.order
    powers = [s.bits for s in sets]
    for j in range(1, r):  # prefix a digit e: a copy of the bits so far shifted by e*n^j
        powers = [reduce(or_, (bits << e * n ** j for e in s), 0) for bits, s in zip(powers, sets)]
    return tuple(GSet(powered, bits) for bits in powers)
