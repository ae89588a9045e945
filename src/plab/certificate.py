"""An independent check of gamma's certificate.

gamma = p/q is claimed to be the least |N(Z)|/|Z| over nonempty sets Z of
left vertices, where N(Z) is the union of the images adj_bits[x], x in Z.
A witness W with q*|N(W)| = p*|W| shows the value is attained.  A flow
that sends exactly p from every left vertex x into classes, pairwise
disjoint sets of right vertices each inside adj_bits[x], with at most
q*|C| into each class C, shows no Z does better: Z's p*|Z| units land in
classes inside N(Z), which hold at most q*|N(Z)|.  See McConnell,
Mehlhorn, Näher and Schweitzer, "Certifying algorithms", Computer Science
Review 5(2), 2011.  Nothing here comes from the solver that made them.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import compress, count
from typing import Sequence

from .errors import CertificateError


def _elements(bits: int) -> list[int]:
    """The set bits in increasing order, from one conversion to 64-bit words
    of which only the nonzero ones are walked: O(|set| + N/64), not N
    shifts of the whole int."""
    nwords = (bits.bit_length() + 63) >> 6
    words = struct.unpack(f"<{nwords}Q", bits.to_bytes(nwords * 8, "little"))
    out = []
    for base, word in compress(zip(count(0, 64), words), words):
        while word:
            lsb = word & -word
            out.append(base + lsb.bit_length() - 1)
            word ^= lsb
    return out


def check_certificate(adj_bits: dict[int, int], gamma: Fraction, witness_bits: int,
                      classes: Sequence[int], flow: Sequence[tuple[int, int, int]]) -> None:
    """Raise CertificateError unless witness and flow prove gamma; flow holds
    (left vertex, index into classes, amount) triples."""
    def reject(why: str):
        raise CertificateError(f"gamma certificate rejected: {why}", {
            "left": list(adj_bits), "images": [_elements(b) for b in adj_bits.values()],
            "gamma": str(gamma), "witness": _elements(witness_bits),
            "classes": [_elements(c) for c in classes], "flow": [list(f) for f in flow]})

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
