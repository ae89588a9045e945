"""Magnification ratio of the A -> A+B_K bipartite graph.

gamma = min over nonempty Z subset of A of |Z + B_K| / |Z|, computed
exactly by a discrete-Newton loop that tests each candidate ratio p/q with
an integer max-flow and reads the better subset off the min cut.  It
returns the reduced fraction together with a witness subset attaining it
and a flow that proves no subset does better.

The flow network does not keep one node per element of A+B_K.  Right
vertices with the same set of left neighbours are merged into one class
(flow_classes) whose sink capacity counts them all, which leaves every cut
value, and so the answer and its witness, unchanged.  An instance's graph
is built once, by instance_graph, and kept in its memo under "graph".

The network is bipartite, source -(p)-> a -(inf)-> class -(q*|class|)->
sink, so max-flow is a greedy fill followed by short augmenting paths
(_max_flow).  Every gamma is returned only after
certificate.check_certificate, which shares no code with the solver, has
accepted its witness and flow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from typing import NamedTuple

from .certificate import check_certificate
from .errors import UsageError
from .groups import (GSet, Group, Instance, check_budget, direct_powers, element_cap,
                     require_same_group, sumset)

class PlunGraph(NamedTuple):
    """Left vertices x, each joined to its image, the bitset adj_bits[x]: a+B_K
    for a in A in the Plünnecke graph, B_1*x*B_2 in the noncomm check's.  The
    right vertices are right_bits, the union of the images."""

    group: Group
    adj_bits: dict[int, int]

    @property
    def left(self) -> tuple[int, ...]:
        return tuple(self.adj_bits)

    @property
    def right_bits(self) -> int:
        return reduce(or_, self.adj_bits.values(), 0)

    def restricted(self, left: GSet) -> PlunGraph:
        """The subgraph on left's members, in increasing order, with these images."""
        return PlunGraph(self.group, {x: self.adj_bits[x] for x in left})


class MagResult(NamedTuple):
    """An exact magnification ratio with a subset that attains it.  classes
    (bitsets of right vertices) and flow ((left vertex, class index, amount)
    triples, positive amounts only) are the final round's flow, which sends
    gamma.numerator from every left vertex within the sink capacities
    gamma.denominator * |class|."""

    gamma: Fraction
    witness: GSet
    iterations: int = 0
    classes: tuple[int, ...] = ()
    flow: tuple[tuple[int, int, int], ...] = ()


def build_plun_graph(a: GSet, bk: GSet, *, left: GSet | None = None) -> PlunGraph:
    """The graph x -> x*B_K over x in A, or x -> L*x*B_K given left=L."""
    if not a or not bk:
        raise UsageError("both A and B_K must be nonempty")
    require_same_group(a, bk)
    g = a.group
    check_budget(len(a) * ((g.order + 63) // 64),
                 f"64-bit words of graph images ({len(a)} x {g.order} bits)")
    if left is None:
        return PlunGraph(g, {x: g.translate_bits(bk.bits, x) for x in a})
    return PlunGraph(g, {x: sumset(left, GSet(g, g.translate_bits(bk.bits, x))).bits for x in a})


def _max_flow(out_of: list[list[int]], sizes: list[int], p: int,
              q: int) -> tuple[list[dict[int, int]], list[int]]:
    """Max-flow on source -(p)-> left i -(inf)-> class j -(q*sizes[j])-> sink,
    where out_of[i] lists the classes inside left vertex i's image.  Returns
    gets, a maximum flow, and the left vertices that the residual network
    reaches from the source, empty when every left vertex sends p.  gets[j]
    maps each left vertex sending flow into class j to its positive amount.

    A breadth-first search from a left vertex that still has need, which
    finds no class with room, has reached a set with no residual edge
    leaving it: later paths cannot enter and leave it, so its flow stays
    put and it is closed for good.  The closed sets together are the
    vertices reachable from the source, the source side of the least min
    cut, which is the same for every maximum flow."""
    room = [q * size for size in sizes]
    gets: list[dict[int, int]] = [{} for _ in room]
    need = []
    for i, classes in enumerate(out_of):
        left = p
        for j in classes:
            if not left:
                break
            r = room[j]
            if r:
                take = r if r < left else left
                room[j] = r - take
                gets[j][i] = take
                left -= take
        need.append(left)
    closed = [False] * len(out_of)
    reached = []
    for i, left in enumerate(need):
        while left and not closed[i]:
            via_left = {}          # class -> the left vertex it was reached from
            via_class = {i: -1}    # left vertex -> the class it was reached from
            queue = [i]
            found = -1
            for u in queue:
                for j in out_of[u]:
                    if j in via_left:
                        continue
                    via_left[j] = u
                    if room[j]:
                        found = j
                        break
                    for v in gets[j]:
                        if v not in via_class and not closed[v]:
                            via_class[v] = j
                            queue.append(v)
                if found >= 0:
                    break
            if found < 0:
                for v in queue:
                    closed[v] = True
                reached.extend(queue)
                break
            amount = min(left, room[found])
            j = found
            while (u := via_left[j]) != i:
                j = via_class[u]
                amount = min(amount, gets[j][u])
            room[found] -= amount
            left -= amount
            j = found
            while True:
                u = via_left[j]
                gets[j][u] = gets[j].get(u, 0) + amount
                if u == i:
                    break
                j = via_class[u]
                rest = gets[j][u] - amount
                if rest:
                    gets[j][u] = rest
                else:
                    del gets[j][u]
    return gets, reached


def flow_classes(graph: PlunGraph) -> tuple[list[int], list[int]]:
    """The right vertices grouped by their left neighbours, refining the
    union of the images by each image in turn: classes[j] is a bitset of
    right vertices that lies inside exactly the images of the indices i into
    graph.left that owners[j] masks; an empty union is the one class 0.  The
    image budget does not bound the classes: check_budget refuses their
    words, each as wide as the union, as they are created."""
    classes, owners = [graph.right_bits], [0]
    words = (classes[0].bit_length() + 63) >> 6 or 1
    room = element_cap() // words  # more classes than this are over the budget
    for i, adj in enumerate(graph.adj_bits.values()):
        for j in range(len(classes)):
            inside = classes[j] & adj
            if not inside:
                continue
            if inside != classes[j]:
                classes.append(classes[j] ^ inside)
                if len(classes) > room:
                    check_budget(len(classes) * words, "64-bit words of class bitsets")
                owners.append(owners[j])
                classes[j] = inside
            owners[j] |= 1 << i
    return classes, owners


def gamma_flow(graph: PlunGraph) -> MagResult:
    """Exact minimum ratio by repeated feasibility tests, with a certificate.

    A candidate t = p/q is feasible iff the flow network
    source -(p)-> a -(inf)-> w -(q)-> sink saturates p*|A|; an infeasible
    round's min cut yields a subset with a strictly smaller ratio, which
    becomes the next candidate.  Candidates strictly decrease inside a
    finite set, so the loop terminates at the true minimum.  A set Z of left
    vertices cuts p*|A - Z| + q*|N(Z)| whether or not the right vertices
    are merged into the classes of flow_classes, so the min cut and the
    source side its residual network reaches are those of the unmerged
    network.

    Each round runs _max_flow afresh on the classes built once per call.
    Its greedy fill offers each left vertex's classes fewest owners first,
    so that a class few left vertices reach is not taken by one that has
    other choices; the short augmenting paths that follow then have little
    left to move.  The source side it reaches is the least min cut's
    whichever maximum flow it finds, so witnesses and rounds do not depend
    on that order.

    The final round's flow and the witness go to check_certificate before
    the result is returned; a rejected certificate raises CertificateError.
    """
    lefts = graph.left
    witness_bits = sum(1 << x for x in lefts)
    classes, owners = flow_classes(graph)
    # the middle edges, which each round's flow dicts grow with
    check_budget(sum(owner.bit_count() for owner in owners), "middle edges of the flow network")
    out_of: list[list[int]] = [[] for _ in lefts]
    for j in sorted(range(len(classes)), key=lambda j: owners[j].bit_count()):
        mask = owners[j]
        while mask:
            low = mask & -mask
            out_of[low.bit_length() - 1].append(j)
            mask ^= low
    sizes = [bits.bit_count() for bits in classes]
    t = Fraction(sum(sizes), len(lefts))
    iterations = 0
    while True:
        iterations += 1
        flows, reached = _max_flow(out_of, sizes, t.numerator, t.denominator)
        if not reached:
            # tuple() of a list, whose length is known: of a generator it
            # grows by resizes, which kept a sweep's resident memory rising
            # pass after pass
            classes, flow = tuple(classes), tuple([(lefts[i], j, amount)
                                                   for j, gets in enumerate(flows)
                                                   for i, amount in gets.items()])
            check_certificate(graph.adj_bits, t, witness_bits, classes, flow)
            return MagResult(gamma=t, witness=GSet(graph.group, witness_bits),
                             iterations=iterations, classes=classes, flow=flow)
        z_bits = im_bits = 0
        for i in reached:
            z_bits |= 1 << lefts[i]
            im_bits |= graph.adj_bits[lefts[i]]
        nxt = Fraction(im_bits.bit_count(), z_bits.bit_count())
        if nxt >= t:
            raise AssertionError("candidate ratios must strictly decrease")
        t = nxt
        witness_bits = z_bits


def instance_graph(inst: Instance) -> PlunGraph:
    """The instance's A -> A+B_K graph, built once per instance."""
    return inst.cached("graph", lambda i: build_plun_graph(i.a, i.bk))


def instance_gamma(inst: Instance) -> MagResult:
    """gamma of the instance's A -> A+B_K graph, computed once per instance."""
    return inst.cached("gamma", lambda i: gamma_flow(instance_graph(i)))


def multiplicativity_check(inst: Instance, r: int) -> Fraction:
    """gamma of the r-th direct power, exactly, kept under ("power", r); the
    callers compare it with instance_gamma(inst).gamma ** r.  In G^r the
    complete sum B_1^r + ... + B_k^r is (B_K)^r, so the power's graph is
    built from A^r and (B_K)^r alone; r = 1 is the instance's gamma."""
    return inst.cached(("power", r), lambda i: instance_gamma(i).gamma if r == 1 else
                       gamma_flow(build_plun_graph(*direct_powers((i.a, i.bk), r))).gamma)
