"""Multiplication tables of small groups for the tests.

Builders return plain list-of-list tables; feed them to
plab.make_cayley_group for validation.  Identity sits at index 0 in
every bundled table.
"""

from __future__ import annotations

from itertools import permutations, product


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(moduli: list[int]) -> list[list[int]]:
    """Z_n1 x ... x Z_nd, indexed as plab.make_abelian_group(moduli) indexes
    it: mixed-radix digits, last modulus lowest."""
    digits = list(product(*map(range, moduli)))  # the last digit turns fastest
    index = {d: i for i, d in enumerate(digits)}
    return [[index[tuple((x + y) % n for x, y, n in zip(dx, dy, moduli))] for dy in digits]
            for dx in digits]


def dihedral_table(n: int) -> list[list[int]]:
    """Symmetries of a regular n-gon, order 2n.  Index a encodes a rotation,
    index n+a the reflection following it."""
    def mul(x: int, y: int) -> int:
        a, s = x % n, x // n
        c, d = y % n, y // n
        rot = (a - c) % n if s else (a + c) % n
        return rot + n * (s ^ d)

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def _perm_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    index = {p: i for i, p in enumerate(perms)}
    # composition (p o q)(x) = p(q(x))
    return [[index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms]


def symmetric_table(n: int) -> list[list[int]]:
    """All permutations of n points; identity first."""
    return _perm_table(sorted(permutations(range(n))))


def alternating_table(n: int) -> list[list[int]]:
    """Even permutations of n points; identity first."""
    evens = [p for p in sorted(permutations(range(n))) if _parity(p) == 0]
    return _perm_table(evens)


def _parity(p: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


# unit products for the quaternion group: _QUNITS[u][v] = (sign flip, unit)
# with units 0=1, 1=i, 2=j, 3=k
_QUNITS = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 0), (0, 3), (1, 2)),
    ((0, 2), (1, 3), (1, 0), (0, 1)),
    ((0, 3), (0, 2), (1, 1), (1, 0)),
)


def quaternion_table() -> list[list[int]]:
    """The eight quaternion units; index = unit + 4*sign."""

    def mul(x: int, y: int) -> int:
        s1, u1 = x // 4, x % 4
        s2, u2 = y // 4, y % 4
        flip, u = _QUNITS[u1][u2]
        return u + 4 * (s1 ^ s2 ^ flip)

    return [[mul(x, y) for y in range(8)] for x in range(8)]


def bundled_tables(max_order: int = 12) -> list[tuple[str, list[list[int]]]]:
    """Named tables of every bundled group with order <= max_order."""
    out: list[tuple[str, list[list[int]]]] = []
    for n in range(1, max_order + 1):
        out.append((f"C{n}", cyclic_table(n)))
    for n in range(3, max_order // 2 + 1):
        out.append((f"D{n}", dihedral_table(n)))
    if max_order >= 6:
        out.append(("S3", symmetric_table(3)))
    if max_order >= 8:
        out.append(("Q8", quaternion_table()))
    if max_order >= 12:
        out.append(("A4", alternating_table(4)))
    return out
