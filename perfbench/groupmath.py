"""Group arithmetic for the benchmark, written independently of plab.

Elements are indexed the way plab's instance files index them: an abelian
product Z_n1 x ... x Z_nd uses mixed radix with the first modulus most
significant, and a Cayley table names element i by row i.  Sets are
bitsets in Python ints, so the benchmark can generate inputs and recompute
verdicts without importing the program it measures.
"""

from __future__ import annotations


class Abelian:
    """Z_n1 x ... x Z_nd with mixed-radix element indices."""

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        self.order = 1
        for n in self.moduli:
            self.order *= n

    def coords(self, x: int) -> tuple[int, ...]:
        out = []
        for n in reversed(self.moduli):
            x, r = divmod(x, n)
            out.append(r)
        return tuple(reversed(out))

    def translate(self, elems, x: int) -> int:
        """Bitset of {x + e : e in elems}."""
        shift = self.coords(x)
        bitmap = bytearray(self.order // 8 + 1)
        for e in elems:
            index = 0
            for c, s, n in zip(self.coords(e), shift, self.moduli):
                index = index * n + (c + s) % n
            bitmap[index >> 3] |= 1 << (index & 7)
        return int.from_bytes(bitmap, "little")


class Table:
    """A group given by its multiplication table."""

    def __init__(self, table):
        self.table = [list(row) for row in table]
        self.order = len(self.table)

    def product(self, s, t) -> int:
        """Bitset of {x * y : x in S, y in T}."""
        bits = 0
        for x in s:
            row = self.table[x]
            for y in t:
                bits |= 1 << row[y]
        return bits


def members(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def sumset(group: Abelian, s, t) -> int:
    """Bitset of S + T in an abelian group, translating the larger operand."""
    if len(s) > len(t):
        s, t = t, s
    bits = 0
    for x in s:
        bits |= group.translate(t, x)
    return bits


def subset_unions(images: list[int]) -> list[int]:
    """unions[mask] = OR of images[i] over the bits i of mask."""
    unions = [0] * (1 << len(images))
    for mask in range(1, len(unions)):
        low = mask & -mask
        unions[mask] = unions[mask ^ low] | images[low.bit_length() - 1]
    return unions


# -- small noncommutative groups, identity at index 0 -------------------------

def _closure_table(gens, compose, identity):
    elems = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    index = {e: i for i, e in enumerate(elems)}
    return [[index[compose(x, y)] for y in elems] for x in elems]


def _perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def dihedral(n: int):
    """Symmetries of a regular n-gon (order 2n)."""
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return _closure_table([rot, flip], _perm_compose, tuple(range(n)))


def alternating4():
    return _closure_table([(1, 2, 0, 3), (1, 0, 3, 2)], _perm_compose, (0, 1, 2, 3))


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def quaternion8():
    return _closure_table([(0, 1, 0, 0), (0, 0, 1, 0)], _hamilton, (1, 0, 0, 0))


NONCOMM_GROUPS = {"D8": lambda: dihedral(8), "D12": lambda: dihedral(12),
                  "A4": alternating4, "Q8": quaternion8}

