"""An independent check of gamma's certificate.

gamma = p/q is claimed to be the least |N(Z)|/|Z| over nonempty sets Z of
left vertices, where N(Z) is the union of the images adj_bits[x], x in Z.
A witness W with q*|N(W)| = p*|W| shows the value is attained.  A flow
that sends exactly p from every left vertex x into classes, pairwise
disjoint sets of right vertices each inside adj_bits[x], with at most
q*|C| into each class C, shows no Z does better: Z's p*|Z| units land in
classes inside N(Z), which hold at most q*|N(Z)|.  See McConnell,
Mehlhorn, Näher and Schweitzer, "Certifying algorithms", Computer Science
Review 5(2), 2011.

The checks read only the ints they are given and use nothing from the
solver that made them.  Only a rejection's dump, which lists each bitset's
members for replay, reads them with the set layer's groups.walk_bits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import CertificateError
from .groups import walk_bits


def check_certificate(adj_bits: dict[int, int], gamma: Fraction, witness_bits: int,
                      classes: Sequence[int], flow: Sequence[tuple[int, int, int]]) -> None:
    """Raise CertificateError unless witness and flow prove gamma; flow holds
    (left vertex, index into classes, amount) triples."""
    def reject(why: str):
        def members(bits: int) -> list[int]:
            return list(walk_bits(bits, bits.bit_count()))
        raise CertificateError(f"gamma certificate rejected: {why}", {
            "left": list(adj_bits), "images": [members(b) for b in adj_bits.values()],
            "gamma": str(gamma), "witness": members(witness_bits),
            "classes": [members(c) for c in classes], "flow": [list(f) for f in flow]})

    p, q = gamma.numerator, gamma.denominator
    union = 0
    for c in classes:
        if union & c:
            reject("classes overlap")
        union |= c
    sent = dict.fromkeys(adj_bits, 0)
    into = [0] * len(classes)
    for x, j, amount in flow:
        if x not in sent or not 0 <= j < len(classes) or amount <= 0:
            reject(f"malformed flow entry {(x, j, amount)}")
        if classes[j] & ~adj_bits[x]:
            reject(f"class {j} is not inside the image of {x}")
        sent[x] += amount
        into[j] += amount
    if any(total != p for total in sent.values()):
        reject(f"some left vertex does not send exactly {p}")
    if any(into[j] > q * c.bit_count() for j, c in enumerate(classes)):
        reject("some class receives more than its capacity")
    members = [x for x in adj_bits if witness_bits >> x & 1]
    if not members or len(members) != witness_bits.bit_count():
        reject("the witness is empty or not among the left vertices")
    image = 0
    for x in members:
        image |= adj_bits[x]
    if q * image.bit_count() != p * len(members):
        reject(f"the witness has ratio {image.bit_count()}/{len(members)}, not {gamma}")
