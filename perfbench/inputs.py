"""Seeded inputs for the three benchmark workloads.

A plan lists the files to write (sweep configs and instance files, as
deterministic JSON text) and the `plab` command lines that use them.  The
same workload and seed always give byte-identical files.

sweep_plgen
    The acceptance-sweep config: 1000 instances, k 2..4, every level,
    N 2..64, sets 1..8, check plgen.  Many tiny instances, so per-instance
    overhead and work repeated per level dominate.
sweep_power
    The determinism-sweep config: seed 71, 100 instances, N 2..48, sets 1..6,
    checks plgen, pldiff, restricted and power.  The squared networks of
    `power` dominate, so max-flow and graph build show here.  A few large
    instances set the cost of the power check, so a 100-instance sweep at
    another seed costs anywhere from half to twice as much; the workload
    therefore always runs the determinism sweep itself and takes its seed
    only for a companion sweep of the same config without `power`.
verify_kernel
    A batch of single-instance `plab verify` calls that never reach
    max-flow, in a fixed rotation of three kinds: restricted --all-subsets
    on a 65536-element group (big-integer translates), exhaustive plgen2 on
    256-element groups (many small translates and exact root comparisons)
    and noncomm on bundled Cayley tables (table translates).  Sizes cycle
    through fixed variants, so a batch costs about the same for every seed
    and each kind takes a comparable share of the time.
"""

from __future__ import annotations

import json
import random

from groupmath import NONCOMM_GROUPS, Abelian, sumset

DEFAULT_SEEDS = {"sweep_plgen": 20260808, "sweep_power": 71, "verify_kernel": 2008}
WORKLOADS = tuple(DEFAULT_SEEDS)

PLGEN_CONFIG = {"count": 1000, "k_range": [2, 4], "l_rule": "all",
                "group_size_range": [2, 64], "set_size_range": [1, 8],
                "checks": ["plgen"]}
POWER_CONFIG = {"count": 100, "k_range": [2, 4], "l_rule": "all",
                "group_size_range": [2, 48], "set_size_range": [1, 6],
                "checks": ["plgen", "pldiff", "restricted", "power"]}
POWER_SEED = 71

VERIFY_CALLS = 102
RESTRICTED_MODULI = (256, 256)
# (|A|, |B_1|, |B_2|): |B_K| = |B_1| * |B_2| sets the 2^|B_K| - 1 subsets checked
RESTRICTED_VARIANTS = ((500, 2, 3), (1000, 2, 3), (1000, 2, 2))
PLGEN2_MODULI = ((256,), (16, 16), (4, 64), (2, 8, 16))
# (|A|, k, |B_i|)
PLGEN2_VARIANTS = ((8, 2, 3), (9, 2, 3), (7, 3, 3))
# (group, |A|) with |B_1| = |B_2| = 3; D8 and D12 are the symmetries of the
# 8-gon and the 12-gon (orders 16 and 24), named as plab.cayley names them
NONCOMM_VARIANTS = (("D12", 16), ("D8", 15), ("D12", 15), ("A4", 12), ("D12", 14), ("Q8", 8))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _sweep_plan(configs: list[dict]) -> dict:
    files, calls = {}, []
    for i, cfg in enumerate(configs):
        name, out = f"sweep{i}.json", f"sweep{i}.csv"
        files[name] = _dump(cfg)
        calls.append({"kind": "sweep", "input": name, "output": out,
                      "argv": ["sweep", name, "--workers", "1", "--timing", "--out", out]})
    return {"files": files, "calls": calls,
            "sizes": {"sweeps": len(configs), "instances": sum(c["count"] for c in configs)}}


def _sample(rng: random.Random, lo: int, hi: int, size: int, *, identity: bool) -> list[int]:
    if identity:
        return sorted([0] + rng.sample(range(max(lo, 1), hi), size - 1))
    return sorted(rng.sample(range(lo, hi), size))


def _restricted_instance(rng: random.Random, variant) -> tuple[dict, int]:
    a_size, p, q = variant
    group = Abelian(RESTRICTED_MODULI)
    while True:
        b1 = _sample(rng, 0, group.order, p, identity=True)
        b2 = _sample(rng, 0, group.order, q, identity=True)
        if sumset(group, b1, b2).bit_count() == p * q:
            break
    a = _sample(rng, 0, group.order, a_size, identity=False)
    return {"group": list(RESTRICTED_MODULI), "A": a, "B": [b1, b2], "l": 1}, (1 << p * q) - 1


def _plgen2_instance(rng: random.Random, variant, moduli) -> dict:
    m, k, b = variant
    order = 1
    for n in moduli:
        order *= n
    bs = [_sample(rng, 0, order, b, identity=True) for _ in range(k)]
    return {"group": list(moduli), "A": _sample(rng, 0, order, m, identity=False),
            "B": bs, "l": 1}


def _noncomm_instance(rng: random.Random, variant) -> dict:
    name, a_size = variant
    table = NONCOMM_GROUPS[name]()
    order = len(table)
    return {"cayley": table, "A": _sample(rng, 0, order, min(a_size, order), identity=False),
            "B": [_sample(rng, 0, order, 3, identity=False) for _ in range(2)], "l": 1}


def _verify_plan(seed: int) -> dict:
    rng = random.Random(seed)
    files, calls = {}, []
    counts = {"restricted": 0, "plgen2": 0, "noncomm": 0}
    for i in range(VERIFY_CALLS):
        kind = ("restricted", "plgen2", "noncomm")[i % 3]
        j = counts[kind]
        counts[kind] += 1
        verdicts = 1
        extra = []
        if kind == "restricted":
            data, verdicts = _restricted_instance(rng, RESTRICTED_VARIANTS[j % len(RESTRICTED_VARIANTS)])
            extra = ["--all-subsets"]
        elif kind == "plgen2":
            data = _plgen2_instance(rng, PLGEN2_VARIANTS[j % len(PLGEN2_VARIANTS)],
                                    PLGEN2_MODULI[j % len(PLGEN2_MODULI)])
        else:
            data = _noncomm_instance(rng, NONCOMM_VARIANTS[j % len(NONCOMM_VARIANTS)])
        name, out = f"inst{i:03d}.json", f"report{i:03d}.json"
        files[name] = _dump(data)
        calls.append({"kind": kind, "input": name, "output": out, "verdicts": verdicts,
                      "argv": ["verify", name, "--check", kind, *extra, "--json", out]})
    return {"files": files, "calls": calls,
            "sizes": {"calls": VERIFY_CALLS, **{f"{k}_calls": v for k, v in counts.items()},
                      "verdicts": sum(c["verdicts"] for c in calls)}}


def make_plan(workload: str, seed: int) -> dict:
    """Files and command lines for one workload; deterministic in seed."""
    if workload == "sweep_plgen":
        plan = _sweep_plan([{"seed": seed, **PLGEN_CONFIG}])
    elif workload == "sweep_power":
        companion = [c for c in POWER_CONFIG["checks"] if c != "power"]
        plan = _sweep_plan([{"seed": POWER_SEED, **POWER_CONFIG},
                            {**POWER_CONFIG, "seed": seed, "checks": companion}])
    elif workload == "verify_kernel":
        plan = _verify_plan(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, **plan}
