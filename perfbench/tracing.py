"""Spans and counters around plab's public functions, from outside plab.

`Tracer.install` replaces each traced function in every loaded plab module
that binds it (modules import `sumset`, `alpha_table`, `gamma_flow` and
friends by name, so patching the defining module alone would miss most
calls) and each traced method on its class.  Spans (name, start, end,
parent) are kept in flat arrays and written out by `write_spans`; self
times are derived from them.  Hot kernels (`translate_bits`,
`iterated_sumset`) are counted, not spanned, so their time stays in the
caller's self time.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from importlib import import_module
from time import perf_counter

# (layer name, module, attribute, class or None, span?)
TARGETS = (
    ("cli.main", "plab.cli", "main", None, True),
    ("cli.run_sweep", "plab.cli", "run_sweep", None, True),
    ("cli.sweep_rows_for_index", "plab.cli", "sweep_rows_for_index", None, True),
    ("cli.generate_base", "plab.cli", "generate_base", None, True),
    ("theorems.check_plgen", "plab.theorems", "check_plgen", None, True),
    ("theorems.check_pldiff", "plab.theorems", "check_pldiff", None, True),
    ("theorems.check_restricted_sum", "plab.theorems", "check_restricted_sum", None, True),
    ("theorems.empirical_plgen2", "plab.theorems", "empirical_plgen2", None, True),
    ("theorems.check_noncommutative", "plab.theorems", "check_noncommutative", None, True),
    ("theorems.RootRatio.cmp", "plab.theorems", "cmp", "RootRatio", True),
    ("alphabeta.alpha_table", "plab.alphabeta", "alpha_table", None, True),
    ("alphabeta.cmp_ratio_vs_beta", "plab.alphabeta", "cmp_ratio_vs_beta", None, True),
    ("magnification.multiplicativity_check", "plab.magnification", "multiplicativity_check",
     None, True),
    ("magnification.build_plun_graph", "plab.magnification", "build_plun_graph", None, True),
    ("magnification.gamma_flow", "plab.magnification", "gamma_flow", None, True),
    ("groups.sumset", "plab.groups", "sumset", None, True),
    ("groups.iterated_sumset", "plab.groups", "iterated_sumset", None, False),
    ("groups.translate_bits", "plab.groups", "translate_bits", "Group", False),
)


def _after_gamma_flow(tracer: "Tracer", args, result) -> None:
    graph = args[0]
    image = graph.adj_bits[graph.left[0]]  # first a + B_K; with A it fixes B_K
    tracer.counts["magnification.gamma_flow.newton_rounds"] += result.iterations
    tracer.distinct["magnification.gamma_flow"].add((graph.group, graph.left, image))
    if image == (1 << graph.group.order) - 1:
        tracer.counts["magnification.gamma_flow.full_bk"] += 1


def _after_build(tracer: "Tracer", args, result) -> None:
    edges = len(args[0]) * len(args[1])
    tracer.counts["magnification.build_plun_graph.edges"] += edges
    key = "magnification.build_plun_graph.edges_max"
    tracer.counts[key] = max(tracer.counts[key], edges)


def _after_alpha(tracer: "Tracer", args, result) -> None:
    inst = args[0]
    tracer.distinct["alphabeta.alpha_table"].add(
        (inst.group, inst.a.bits, tuple(b.bits for b in inst.bs)))


AFTER = {"magnification.gamma_flow": _after_gamma_flow,
         "magnification.build_plun_graph": _after_build,
         "alphabeta.alpha_table": _after_alpha}


class Tracer:
    """Span and counter store for one traced pass at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {"magnification.gamma_flow": set(),
                                         "alphabeta.alpha_table": set()}

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            i = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self._stack.append(i)
            self.span_end.append(0.0)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = perf_counter()
                self._stack.pop()
            if after is not None:
                try:
                    after(self, args, result)
                except AttributeError:
                    pass  # a reshaped result only loses its extra counters
            return result

        return traced

    def _count(self, name: str, fn):
        if name == "groups.translate_bits":
            def counted(group, bits, a):
                self.counts["groups.translate_bits.calls"] += 1
                self.counts["groups.translate_bits.bits"] += group.order
                return fn(group, bits, a)
            return counted

        def counted(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that the loaded plab modules define."""
        homes = {module: import_module(module) for _, module, _, _, _ in TARGETS}
        plab_modules = [m for name, m in sys.modules.items()
                        if m is not None and (name == "plab" or name.startswith("plab."))]
        for name, module_name, attr, cls, spanned in TARGETS:
            home = homes[module_name]
            owner = getattr(home, cls, None) if cls else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # a later plab may drop a function; its metrics read 0
            wrapper = self._span(name, original) if spanned else self._count(name, original)
            if cls:
                self._patch(owner, attr, wrapper)
                continue
            for module in plab_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds): each span's duration less the part
        its child spans cover."""
        n = len(self.span_start)
        child = [0.0] * n
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.span_name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += durations[i] - child[i]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def write_spans(self, path: str) -> int:
        """Write the current spans as gzipped TSV rows: id, name, start, end, parent."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\t"
                         f"{self.span_parent[i]}\n")
        return len(self.span_start)
