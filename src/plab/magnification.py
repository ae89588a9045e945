"""Magnification ratio of the A -> A+B_K bipartite graph.

gamma = min over nonempty Z subset of A of |Z + B_K| / |Z|, computed
exactly by a discrete-Newton loop that tests each candidate ratio p/q with
an integer max-flow and reads the better subset off the min cut.  It
returns the reduced fraction together with a witness subset attaining it.

The flow network does not keep one node per element of A+B_K.  Right
vertices with the same set of left neighbours are merged into one node
whose sink capacity counts them all, which leaves every cut value, and so
the answer and its witness, unchanged.  When all of A+B_K is one such
class (every a+B_K is the same set) no network is built at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UsageError
from .groups import GSet, Group, Instance, direct_power

@dataclass(frozen=True)
class PlunGraph:
    """Left vertices x, each joined to its image, the bitset adj_bits[x]; in
    the Plünnecke graph x runs over A and the image of a is a+B_K.  The
    right vertices are right_bits, the union of the images."""

    group: Group = field(repr=False)
    left: tuple[int, ...]
    right_bits: int
    adj_bits: dict[int, int] = field(repr=False)

    @classmethod
    def of(cls, group: Group, adj_bits: dict[int, int]) -> "PlunGraph":
        """The graph with left vertices adj_bits' keys, in order."""
        right_bits = 0
        for bits in adj_bits.values():
            right_bits |= bits
        return cls(group, tuple(adj_bits), right_bits, adj_bits)


@dataclass(frozen=True)
class MagResult:
    """An exact magnification ratio with a subset that attains it."""

    gamma: Fraction
    witness: GSet
    iterations: int = 0


def build_plun_graph(a: GSet, bk: GSet) -> PlunGraph:
    if not a or not bk:
        raise UsageError("both A and B_K must be nonempty")
    if a.group != bk.group:
        raise UsageError("A and B_K must live in the same group")
    g = a.group
    translate = g.translate_bits if g.kind == "abelian" else g._translate_left
    return PlunGraph.of(g, {x: translate(bk.bits, x) for x in a})


class _Dinic:
    """Integer max-flow; the final BFS gives the source side of a min cut."""

    __slots__ = ("n", "to", "cap", "adj")

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _levels(self, s: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _push(self, u: int, t: int, limit: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            eid = self.adj[u][it[u]]
            v = self.to[eid]
            if self.cap[eid] > 0 and level[v] == level[u] + 1:
                pushed = self._push(v, t, min(limit, self.cap[eid]), level, it)
                if pushed:
                    self.cap[eid] -= pushed
                    self.cap[eid ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> tuple[int, list[int]]:
        """The flow value and the level array of the final, failed BFS, in
        which level[v] >= 0 exactly when the residual network reaches v from s."""
        flow = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return flow, level
            it = [0] * self.n
            while True:
                pushed = self._push(s, t, 1 << 62, level, it)
                if not pushed:
                    break
                flow += pushed


def gamma_flow(graph: PlunGraph) -> MagResult:
    """Exact minimum ratio by repeated feasibility tests.

    A candidate t = p/q is feasible iff the flow network
    source -(p)-> a -(inf)-> w -(q)-> sink saturates p*|A|; an infeasible
    round's min cut yields a subset with a strictly smaller ratio, which
    becomes the next candidate.  Candidates strictly decrease inside a
    finite set, so the loop terminates at the true minimum.

    Right vertices with the same left neighbours are one node of the
    network, with sink capacity q times their number.  A set Z of left
    vertices then cuts p*|A - Z| + q*|N(Z)| as before, so the min cut and
    the source side its final BFS reaches are those of the unmerged
    network.  The classes come from partition refinement of the union of
    the images by each adj_bits[a].  A single class means every a+B_K is
    the same set (B_K = G, or A inside one coset of the stabilizer of
    B_K), so every nonempty Z has |Z+B_K| = |A+B_K| and the first
    candidate |A+B_K|/|A| with witness A is returned as that first round
    would return it, without a network.
    """
    lefts = graph.left
    nl = len(lefts)
    witness_bits = sum(1 << x for x in lefts)
    t = Fraction(graph.right_bits.bit_count(), nl)
    # classes[j] is a set of right vertices and owners[j] the mask of the
    # indices i whose image contains all of it; every other image misses it
    classes, owners = [graph.right_bits], [0]
    for i, x in enumerate(lefts):
        adj = graph.adj_bits[x]
        for j in range(len(classes)):
            inside = classes[j] & adj
            if not inside:
                continue
            if inside != classes[j]:
                classes.append(classes[j] ^ inside)
                owners.append(owners[j])
                classes[j] = inside
            owners[j] |= 1 << i
    if len(classes) == 1 and owners[0] == (1 << nl) - 1:
        return MagResult(gamma=t, witness=GSet(graph.group, witness_bits), iterations=1)
    middle = [(1 + i, 1 + nl + j) for j, mask in enumerate(owners)
              for i in range(nl) if mask >> i & 1]
    iterations = 0
    while True:
        iterations += 1
        p, q = t.numerator, t.denominator
        source = 0
        sink = 1 + nl + len(classes)
        net = _Dinic(sink + 1)
        inf_cap = p * nl + 1  # strictly above any useful cut through the middle
        for i in range(nl):
            net.add_edge(source, 1 + i, p)
        for u, v in middle:
            net.add_edge(u, v, inf_cap)
        for j, bits in enumerate(classes):
            net.add_edge(1 + nl + j, sink, q * bits.bit_count())
        flow, level = net.max_flow(source, sink)
        if flow == p * nl:
            return MagResult(gamma=t, witness=GSet(graph.group, witness_bits),
                             iterations=iterations)
        z_bits = im_bits = 0
        for i, x in enumerate(lefts):
            if level[1 + i] >= 0:
                z_bits |= 1 << x
                im_bits |= graph.adj_bits[x]
        nz = z_bits.bit_count()
        if nz == 0:
            raise AssertionError("infeasible round must expose a nonempty subset")
        nxt = Fraction(im_bits.bit_count(), nz)
        if nxt >= t:
            raise AssertionError("candidate ratios must strictly decrease")
        t = nxt
        witness_bits = z_bits


@dataclass(frozen=True)
class MultiplicativityReport:
    gamma_base: Fraction
    gamma_power: Fraction
    r: int
    equal: bool


def instance_gamma(inst: Instance) -> MagResult:
    """gamma of the instance's A -> A+B_K graph, computed once per instance."""
    return inst.cached("gamma", lambda i: gamma_flow(build_plun_graph(i.a, i.bk)))


def multiplicativity_check(inst: Instance, r: int) -> MultiplicativityReport:
    """Compare gamma of the r-th direct power against gamma ** r, exactly."""
    g1 = instance_gamma(inst)
    gr = instance_gamma(direct_power(inst, r))
    return MultiplicativityReport(gamma_base=g1.gamma, gamma_power=gr.gamma, r=r,
                                  equal=gr.gamma == g1.gamma ** r)
