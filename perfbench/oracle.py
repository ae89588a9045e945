"""Recompute every verdict the benchmark asks plab for, without plab.

Sweeps: the expected CSV is rebuilt row by row from the sweep config.  The
instance draw and the restricted-subset draw follow the order that the
sweep documents (k, N, A, then each B_i; S from its own per-instance
stream), gamma comes from enumerating every subset of A, and beta from
sumset sizes.  The power check is expected to report gamma^2, which is the
product theorem for magnification ratios.

Verify calls: restricted verdicts are recomputed for every subset; the
plgen2 constant and the noncomm ratio are recomputed by exhaustive search,
and the reported witness X is checked by recomputing its own ratio rather
than by comparing it with a particular minimiser.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations

from groupmath import Abelian, Table, members, subset_unions, sumset

CSV_COLUMNS = ("index", "group", "k", "l", "m", "b_sizes", "check",
               "gamma", "beta_base", "beta_expo_den", "holds", "detail")


# -- sweeps ------------------------------------------------------------------

def _rotate(bits: int, x: int, n: int, full: int) -> int:
    """Bitset of {e + x mod n : e in bits}."""
    return ((bits << x) | (bits >> (n - x))) & full if x else bits


def _sum_bits(bits: int, elems, n: int, full: int) -> int:
    out = 0
    for x in elems:
        out |= _rotate(bits, x, n, full)
    return out


def _min_ratio(images: list[int]) -> Fraction:
    """min over nonempty masks of |union of images| / |mask|."""
    best_p, best_q = None, 1
    for mask, union in enumerate(subset_unions(images)):
        if mask:
            p, q = union.bit_count(), mask.bit_count()
            if best_p is None or p * best_q < best_p * q:
                best_p, best_q = p, q
    return Fraction(best_p, best_q)


def _draw_instance(cfg: dict, index: int):
    k_lo, k_hi = cfg["k_range"]
    g_lo, g_hi = cfg["group_size_range"]
    s_lo, s_hi = cfg["set_size_range"]
    rng = random.Random(cfg["seed"] * (1 << 32) + index)
    k = rng.randint(k_lo, k_hi)
    n = rng.randint(g_lo, g_hi)
    a = rng.sample(range(n), rng.randint(s_lo, min(s_hi, n)))
    bs = []
    for _ in range(k):
        size = rng.randint(s_lo, min(s_hi, n))
        bs.append([0] + rng.sample(range(1, n), size - 1) if size > 1 else [0])
    return n, a, bs


def _sweep_rows(cfg: dict, index: int) -> list[list[str]]:
    if cfg.get("l_rule", "all") != "all" or not cfg.get("insert_identity", True):
        raise ValueError("the oracle covers sweeps with l_rule 'all' and the identity inserted")
    n, a, bs = _draw_instance(cfg, index)
    k, m, full = len(bs), len(a), (1 << n) - 1
    a_bits = sum(1 << x for x in a)

    sizes = {}  # |A + B_I| for every nonempty I, built from I minus its largest index
    sums = {(): a_bits}
    for size in range(1, k + 1):
        for combo in combinations(range(1, k + 1), size):
            sums[combo] = _sum_bits(sums[combo[:-1]], bs[combo[-1] - 1], n, full)
            sizes[combo] = sums[combo].bit_count()
    bk = 1
    for b in bs:
        bk = _sum_bits(bk, b, n, full)
    gamma = _min_ratio([_rotate(bk, x, n, full) for x in a])

    def plgen_cells(level: int) -> list[str]:
        base = Fraction(1)
        for combo in combinations(range(1, k + 1), level):
            base *= Fraction(sizes[combo], m)
        expo = math.comb(k - 1, level - 1)
        holds = gamma ** expo <= base
        return [str(gamma), str(base), str(expo), "true" if holds else "false", ""]

    rows = []
    b_sizes = ";".join(str(len(b)) for b in bs)
    for level in range(1, k):
        for check in cfg["checks"]:
            if check == "plgen":
                cells = plgen_cells(level)
            elif check == "pldiff":
                cells = plgen_cells(1)
            elif check == "restricted":
                rng = random.Random(cfg["seed"] * (1 << 40) + index * (1 << 8) + 3)
                bk_members = members(bk)
                s = rng.sample(bk_members, rng.randint(1, len(bk_members)))
                lhs = _sum_bits(a_bits, s, n, full).bit_count() ** k
                rhs = len(s)
                for i in range(1, k + 1):
                    rhs *= sizes[tuple(j for j in range(1, k + 1) if j != i)]
                cells = ["", "", "", "true" if lhs <= rhs else "false",
                         f"s_size={len(s)};lhs={lhs};rhs={rhs}"]
            elif check == "power":
                cells = [str(gamma), "", "", "true", f"r=2;gamma_r={gamma ** 2}"]
            else:
                raise ValueError(f"the oracle does not cover sweep check {check!r}")
            rows.append([str(index), str(n), str(k), str(level), str(m), b_sizes, check, *cells])
    return rows


def expected_sweep_rows(cfg: dict) -> list[str]:
    """The CSV lines (header first) a correct sweep writes for cfg."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for index in range(cfg["count"]):
        writer.writerows(_sweep_rows(cfg, index))
    return buf.getvalue().splitlines()


def split_timing(text: str) -> tuple[str, list[float]]:
    """A `plab sweep --timing` CSV as (the same CSV without its ms column,
    seconds per row); ValueError when the column is missing."""
    lines = text.splitlines()
    if not lines or not lines[0].endswith(",ms"):
        raise ValueError("the CSV header has no ms column")
    plain, seconds = [lines[0][:-len(",ms")]], []
    for line in lines[1:]:
        head, _, ms = line.rpartition(",")
        plain.append(head)
        seconds.append(float(ms) / 1000.0)
    return "\n".join(plain) + "\n", seconds


# -- exact roots ---------------------------------------------------------------

def _root_cmp(x: tuple[Fraction, Fraction, int], y: tuple[Fraction, Fraction, int]) -> int:
    """Order of r1 / b1^(1/d1) against r2 / b2^(1/d2), exactly."""
    (r1, b1, d1), (r2, b2, d2) = x, y
    d = math.lcm(d1, d2)
    lhs = r1 ** d * b2 ** (d // d2)
    rhs = r2 ** d * b1 ** (d // d1)
    return (lhs > rhs) - (lhs < rhs)


# -- verify calls --------------------------------------------------------------

def _iterated(group: Abelian, sets) -> list[int]:
    acc = [0]
    for s in sets:
        acc = members(sumset(group, acc, s))
    return acc


def _check_restricted(inst: dict, checks: list[dict]) -> list[str]:
    group = Abelian(inst["group"])
    a, bs = inst["A"], inst["B"]
    k = len(bs)
    bk = _iterated(group, bs)
    prod = 1
    for i in range(k):
        prod *= sumset(group, a, _iterated(group, bs[:i] + bs[i + 1:])).bit_count()
    unions = subset_unions([group.translate(a, x) for x in bk])
    if len(checks) != len(unions) - 1:
        return [f"restricted: {len(checks)} verdicts, expected {len(unions) - 1}"]
    problems = []
    for mask in range(1, len(unions)):
        got = checks[mask - 1]
        s = [x for i, x in enumerate(bk) if (mask >> i) & 1]
        lhs = unions[mask].bit_count() ** k
        rhs = len(s) * prod
        want = {"check": "restricted", "S": s, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}
        if {key: got.get(key) for key in want} != want:
            problems.append(f"restricted S={s}: got {got}, expected {want}")
    return problems


def _check_plgen2(inst: dict, checks: list[dict]) -> list[str]:
    if len(checks) != 1:
        return [f"plgen2: {len(checks)} verdicts, expected 1"]
    got = checks[0]
    group = Abelian(inst["group"])
    a, bs, l = sorted(inst["A"]), inst["B"], inst["l"]
    m, k = len(a), len(bs)
    alpha = {}
    for size in range(1, k + 1):
        for combo in combinations(range(1, k + 1), size):
            b_sum = _iterated(group, [bs[i - 1] for i in combo])
            alpha[combo] = (b_sum, Fraction(sumset(group, a, b_sum).bit_count(), m))
    js = [combo for combo in alpha if len(combo) >= l]
    beta = {}
    for j in js:
        base = Fraction(1)
        for sub in combinations(j, l):
            base *= alpha[sub][1]
        beta[j] = (base, math.comb(len(j) - 1, l - 1))
    sizes = {j: [u.bit_count() for u in subset_unions([group.translate(alpha[j][0], x) for x in a])]
             for j in js}

    def exact(mask: int, j) -> tuple[Fraction, Fraction, int]:
        return Fraction(sizes[j][mask], mask.bit_count()), beta[j][0], beta[j][1]

    def exact_max(mask: int) -> tuple[Fraction, Fraction, int]:
        best = None
        for j in js:
            v = exact(mask, j)
            if best is None or _root_cmp(v, best) > 0:
                best = v
        return best

    logs = {j: math.log(beta[j][0]) / beta[j][1] for j in js}
    admissible = [mask for mask in range(1, 1 << m) if 2 * mask.bit_count() > m]
    floats = {mask: max(math.log(sizes[j][mask] / mask.bit_count()) - logs[j] for j in js)
              for mask in admissible}
    low = min(floats.values())
    best = None
    for mask, value in floats.items():
        if value <= low + 1e-9:
            v = exact_max(mask)
            if best is None or _root_cmp(v, best) < 0:
                best = v

    problems = []
    x = got.get("X", [])
    index = {e: i for i, e in enumerate(a)}
    if not x or any(e not in index for e in x) or 2 * len(set(x)) <= m:
        return [f"plgen2: X={x} is not an admissible subset of A"]
    x_mask = sum(1 << index[e] for e in set(x))
    x_value = exact_max(x_mask)
    if _root_cmp(x_value, best) != 0:
        problems.append(f"plgen2: X={x} attains {x_value}, the minimum is {best}")
    j_got = tuple(sorted(got.get("argmax_j", [])))
    if j_got not in js or _root_cmp(exact(x_mask, j_got), x_value) != 0:
        problems.append(f"plgen2: argmax_j={list(j_got)} does not attain the maximum for X")
    want_float = math.exp(math.log(best[0]) - math.log(best[1]) / best[2])
    try:
        c_emp = float(got.get("c_emp"))
    except (TypeError, ValueError):
        c_emp = math.nan
    if not abs(c_emp - want_float) <= 1e-9 * want_float:
        problems.append(f"plgen2: c_emp={got.get('c_emp')}, expected about {want_float:.12g}")
    if (got.get("holds"), got.get("epsilon"), got.get("exhaustive")) != (True, "1/2", True):
        problems.append(f"plgen2: holds/epsilon/exhaustive fields are {got}")
    return problems


def _check_noncomm(inst: dict, checks: list[dict]) -> list[str]:
    if len(checks) != 1:
        return [f"noncomm: {len(checks)} verdicts, expected 1"]
    got = checks[0]
    group = Table(inst["cayley"])
    a = sorted(inst["A"])
    b1, b2 = inst["B"]
    n = len(a)

    def image(xs) -> int:
        return group.product(members(group.product(b1, xs)), b2)

    ratio = _min_ratio([image([x]) for x in a])
    bound = Fraction(group.product(b1, a).bit_count() * group.product(a, b2).bit_count(), n * n)

    problems = []
    w = got.get("witness", [])
    if not w or any(e not in a for e in w):
        return [f"noncomm: witness {w} is not a nonempty subset of A"]
    w_ratio = Fraction(image(sorted(set(w))).bit_count(), len(set(w)))
    if w_ratio != ratio:
        problems.append(f"noncomm: witness {w} attains {w_ratio}, the minimum is {ratio}")
    holds = ratio <= bound
    if (got.get("ratio"), got.get("bound"), got.get("holds")) != (str(ratio), str(bound), holds):
        problems.append(f"noncomm: got {got}, expected ratio={ratio} bound={bound} holds={holds}")
    return problems


VERIFY_CHECKERS = {"restricted": _check_restricted, "plgen2": _check_plgen2,
                   "noncomm": _check_noncomm}
# fields that are verdicts rather than witnesses; the reference pins them exactly
VERDICT_FIELDS = ("check", "holds", "gamma", "beta_base", "beta_expo_den",
                  "lhs", "rhs", "ratio", "bound", "c_emp")


def verdict_digest(report_text: str) -> str:
    """sha256 of the verdict fields of a `plab verify --json` report."""
    checks = json.loads(report_text)["checks"]
    fields = [{key: c[key] for key in VERDICT_FIELDS if key in c} for c in checks]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def check_verify(kind: str, instance_text: str, report_text: str) -> list[str]:
    """Problems found in one verify report; empty when every verdict is right."""
    try:
        report = json.loads(report_text)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{kind}: unreadable report ({exc})"]
    problems = VERIFY_CHECKERS[kind](json.loads(instance_text), checks)
    if report.get("all_hold") != all(c.get("holds") for c in checks):
        problems.append(f"{kind}: all_hold={report.get('all_hold')} disagrees with the verdicts")
    return problems
