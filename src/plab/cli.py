"""Command-line interface: verify, sweep, demo, find-x.

Instance files are JSON: {"group": [moduli] | "integers", "A": [..],
"B": [[..], ..], "l": int} with optional "S" for restricted-sum checks, or
{"cayley": [[..], ..], ...} for an explicit multiplication table.  Exact
rationals serialize as "p/q" strings; sweep output is CSV with a fixed
column order (see README) and is byte-identical across runs of the same
config and seed.

Exit codes, set by main alone for every command, demos included: 0 no proved
check failed (a failed noncomm is a finding, not a violation), 1 a proved
inequality failed (the instance is dumped to stderr for replay) or an internal
error (a rejected gamma certificate, dumped likewise), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import re
import sys
import time
from decimal import Decimal, InvalidOperation
from functools import cache, partial
from typing import Iterable, NamedTuple, Sequence

from . import constructions, theorems
from .alphabeta import BetaValue, require_level
from .errors import (ExitOneError, ResourceError, TheoremViolationError, UsageError,
                     ValidationError)
from .groups import GSet, Instance, integer_group, make_abelian_group, make_cayley_group
from .magnification import instance_gamma, multiplicativity_check

CSV_COLUMNS = ("index", "group", "k", "l", "m", "b_sizes", "check",
               "gamma", "beta_base", "beta_expo_den", "holds", "detail")
DECIMAL_MAX_DIGITS = 30


# -- instance files -------------------------------------------------------------

def _int(value, what: str) -> int:
    if type(value) is not int:
        raise UsageError(f"{what} must be an integer")
    return value


def _ints(value, what: str) -> list[int]:
    if not isinstance(value, (list, tuple)) or not set(map(type, value)) <= {int}:
        raise UsageError(f"{what} must be a list of integers")
    return list(value)


def _int_lists(value, what: str) -> list[list[int]]:
    if not isinstance(value, (list, tuple)):
        raise UsageError(f"{what} must be a list of integer lists")
    return [_ints(v, f"each entry of {what}") for v in value]


def _require_keys(data, what: str, valid) -> None:
    """Refuse anything but a JSON object whose keys all lie in valid."""
    if not isinstance(data, dict):
        raise UsageError(f"{what} must contain a JSON object")
    for key in data:
        if key not in valid:
            raise UsageError(f"unknown {what} key {json.dumps(key)}; valid: {', '.join(valid)}")


def parse_instance(data: dict) -> tuple[Instance, int, GSet | None]:
    """An Instance, its level l and the optional restricted set S, from parsed JSON."""
    _require_keys(data, "instance file", ("group", "cayley", "A", "B", "l", "S"))
    if "A" not in data or "B" not in data or "l" not in data:
        raise UsageError('instance file needs "A", "B" and "l" fields')
    a_elems = _ints(data["A"], '"A"')
    b_lists = _int_lists(data["B"], '"B"')
    level = _int(data["l"], '"l"')
    if "cayley" in data:
        table = _int_lists(data["cayley"], '"cayley"')
        if "group" in data:
            raise UsageError('instance file has both "cayley" and "group"; give only one')
        group = make_cayley_group(table)
    elif data.get("group") == "integers":
        group = integer_group(a_elems, b_lists)
    elif isinstance(data.get("group"), list):
        group = make_abelian_group(_ints(data["group"], '"group"'))
    else:
        raise UsageError('"group" must be a moduli list or "integers"')
    inst = Instance(group, group.set_of(a_elems), [group.set_of(b) for b in b_lists])
    require_level(inst.k, level)
    s = group.set_of(_ints(data["S"], '"S"')) if "S" in data else None
    return inst, level, s


def serialize_instance(inst: Instance, l: int, s: Iterable[int] | None = None) -> dict:
    out: dict = {}
    if inst.group.table is not None:
        out["cayley"] = [list(row) for row in inst.group.table]
    else:
        out["group"] = list(inst.group.moduli)
    out["A"] = list(inst.a)
    out["B"] = [list(b) for b in inst.bs]
    out["l"] = l
    if s is not None:
        out["S"] = list(s)
    return out


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 text: {exc}") from exc
        except (RecursionError, ValueError) as exc:  # too deep, or an integer too long
            raise UsageError(f"{path}: unreadable JSON: {exc}") from exc


def load_instance(path: str) -> tuple[Instance, int, GSet | None]:
    return parse_instance(_load_json(path))


def _float_str(x: float) -> str:
    return f"{x:.12g}"


# -- the check table ---------------------------------------------------------------
#
# Each check is one function run(inst, l, opts) -> (results, line): one
# (verdict, fields, cells) triple per verdict, where fields are the check's
# verify --json result fields and cells its sweep CSV cells (gamma, beta_base,
# beta_expo_den, detail), and the check's verify text line after its name.
# opts carries what verify and sweep choose differently: the restricted
# subsets (s, all_subsets), plgen2's epsilon, samples and seed, large's mode
# and value, and power's r.

def _holds(v: theorems.TheoremVerdict) -> str:
    return "HOLDS" if v.holds else "FAILS"


def _bound(check):
    """plgen, pldiff and single: the magnification ratio against beta."""
    def run(inst: Instance, l: int, opts):
        v = check(inst, l)
        gamma, base, expo = str(v.lhs), str(v.rhs.base), v.rhs.expo_den
        beta = base if expo == 1 else f"{base}^(1/{expo})"
        fields = {"gamma": gamma, "beta_base": base, "beta_expo_den": expo,
                  "witness": v.witness}
        return ([(v, fields, (gamma, base, str(expo), ""))],
                f"gamma={gamma} beta={beta} {_holds(v)}")
    return run


def _restricted(inst: Instance, l: int, opts):
    bk = inst.bk
    if opts.all_subsets:
        results = [(v, {"S": members, "lhs": v.lhs, "rhs": v.rhs}, None)
                   for members, v in theorems.check_restricted_sum(inst, bk, every_subset=True)]
        held = sum(1 for v, _, _ in results if v.holds)
        return results, f"{held}/{len(results)} subset checks HOLD"
    s = bk if opts.s is None else opts.s
    v = theorems.check_restricted_sum(inst, s)
    return ([(v, {"S": s, "lhs": v.lhs, "rhs": v.rhs},
              ("", "", "", f"s_size={len(s)};lhs={v.lhs};rhs={v.rhs}"))],
            f"|S|={len(s)} lhs={v.lhs} rhs={v.rhs} {_holds(v)}")


def _power(inst: Instance, l: int, opts):
    r = opts.r
    gamma, gamma_r = instance_gamma(inst).gamma, multiplicativity_check(inst, r)
    v = theorems.TheoremVerdict(holds=gamma_r == gamma ** r, lhs=gamma_r, rhs=gamma ** r)
    return [(v, {}, (str(gamma), "", "", f"r={r};gamma_r={gamma_r}"))], None


def _decimal(text: str, flag: str) -> Decimal:
    """A flag's number exactly as typed: a finite decimal with at most
    DECIMAL_MAX_DIGITS digits on either side of the point, so that its
    Fraction stays small (1e-999999999 would need a billion digits).  The
    check that reads the number checks its range."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise UsageError(f"{flag} must be a decimal number, got {text}") from None
    if not value.is_finite():
        raise UsageError(f"{flag} must be finite, got {text}")
    if value.as_tuple().exponent < -DECIMAL_MAX_DIGITS or value.adjusted() >= DECIMAL_MAX_DIGITS:
        raise UsageError(f"{flag} must have at most {DECIMAL_MAX_DIGITS} digits before and "
                         f"after the decimal point, got {text}")
    return value


def _plgen2(inst: Instance, l: int, opts):
    emp = theorems.empirical_plgen2(inst, l, _decimal(opts.epsilon, "epsilon"),
                                    samples=opts.samples, seed=opts.seed)
    v = theorems.TheoremVerdict(holds=True, lhs=emp.ratio, rhs=emp.beta, witness=emp.x)
    c_emp, argmax_j = _float_str(emp.c_emp), sorted(emp.argmax_j)
    fields = {"epsilon": str(emp.epsilon), "c_emp": c_emp, "argmax_j": argmax_j,
              "X": emp.x, "exhaustive": emp.exhaustive}
    cells = ("", "", "", f"epsilon={emp.epsilon};c_emp={c_emp};x_size={len(emp.x)}")
    return [(v, fields, cells)], (f"epsilon={emp.epsilon} c_emp~{c_emp} "
                                  f"argmax_J={argmax_j} |X|={len(emp.x)} {_holds(v)}")


def _large(inst: Instance, l: int, opts):
    value = _decimal(opts.value, "value")
    res = theorems.large_subset(inst, l, opts.mode, value)
    # a value that a float holds exactly is shown as that float, so reports stay byte-stable
    shown = float(value) if Decimal(float(value)) == value else str(value)
    v = theorems.TheoremVerdict(holds=res.holds, lhs=res.lhs, rhs=res.bound, witness=res.x)
    bound = _float_str(res.bound)
    fields = {"mode": opts.mode, "value": shown, "lhs": res.lhs, "bound": bound,
              "X": res.x, "iterations": res.iterations,
              "near_boundary": res.near_boundary}
    return [(v, fields, None)], (f"mode={opts.mode} value={shown} "
                                 f"|X|={len(res.x)} lhs={res.lhs} bound={bound} {_holds(v)}")


def _noncomm(inst: Instance, l: int, opts):
    """Unproved for noncommutative groups: a failure is a finding."""
    v = theorems.check_noncommutative(inst)
    notes = "" if v.holds else "candidate counterexample: no subset meets the bound"
    fields = {"ratio": str(v.lhs), "bound": str(v.rhs), "witness": v.witness,
              "notes": notes}
    tail = f" ({notes})" if notes else ""
    return [(v, fields, None)], f"ratio={v.lhs} bound={v.rhs} {_holds(v)}{tail}"


# name -> (run, offered by verify, offered by sweep, proved).  The paper
# proves a check for commutative groups only: every command refuses it on a
# noncommutative one (_require_commutative; sweep draws cyclic groups only),
# and its failure is a violation.
# The lambdas read theorems.check_* at each call, so a tracer or test that
# replaces one sees it.
CHECKS = {
    "plgen": (_bound(lambda inst, l: theorems.check_plgen(inst, l)), True, True, True),
    "pldiff": (_bound(lambda inst, l: theorems.check_pldiff(inst)), True, True, True),
    "single": (_bound(lambda inst, l: theorems.check_single_summand(inst, l)), True, True, True),
    "restricted": (_restricted, True, True, True),
    "power": (_power, False, True, True),
    "plgen2": (_plgen2, True, True, False),
    "large": (_large, True, False, True),
    "noncomm": (_noncomm, True, False, False),
}
VERIFY_CHECKS = tuple(name for name, (_, verify, _, _) in CHECKS.items() if verify)
SWEEP_CHECKS = tuple(name for name, (_, _, sweep, _) in CHECKS.items() if sweep)


def _require_commutative(check: str, inst: Instance) -> None:
    """Refuse a proved check on a noncommutative group."""
    if CHECKS[check][3] and not inst.group.is_abelian:
        raise UsageError(f"check {check!r} requires a commutative group")


def _raise_if_violated(check: str, v: theorems.TheoremVerdict, inst: Instance, l: int,
                       s: Iterable[int] | None = None) -> None:
    """Raise for a failed proved check, with the instance, l and S for replay."""
    if not v.holds and CHECKS[check][3]:
        raise TheoremViolationError(
            f"guaranteed check {check!r} failed: lhs={v.lhs} rhs={v.rhs}",
            serialize_instance(inst, l, s))


# -- verify -----------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> None:
    inst, l, s = load_instance(args.instance)
    opts = argparse.Namespace(**vars(args), s=s, samples=theorems.DEFAULT_SAMPLES, seed=0)
    checks = []
    for chunk in args.check or ["plgen"]:
        checks.extend(c.strip() for c in chunk.split(",") if c.strip())
    if not checks:
        raise UsageError(f"--check names no check; valid: {', '.join(VERIFY_CHECKS)}")
    runs = []  # every check runs and the report is written before any output
    for check in checks:
        if check not in VERIFY_CHECKS:
            raise UsageError(f"unknown check {check!r}; valid: {', '.join(VERIFY_CHECKS)}")
        _require_commutative(check, inst)
        runs.append((check, *CHECKS[check][0](inst, l, opts)))
    results = [{"check": check, "holds": v.holds, **fields}
               for check, batch, _ in runs for v, fields, _ in batch]
    if args.json:
        report = {"instance": serialize_instance(inst, l, s), "checks": results,
                  "all_hold": all(r["holds"] for r in results)}
        # witness, X and S are GSets, listed here: a sweep row drops its fields
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), default=list) + "\n"
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    for check, _, line in runs:
        print(f"{check}: {line}")
    for check, batch, _ in runs:
        for v, fields, _ in batch:  # each of --all-subsets' verdicts checked its own S
            _raise_if_violated(check, v, inst, l, fields.get("S", s) if args.all_subsets else s)


# -- sweep ------------------------------------------------------------------------

class SweepConfig(NamedTuple):
    """A sweep config; a field that its file leaves out takes its default."""
    seed: int = 0
    count: int = 100
    k_range: tuple[int, int] = (2, 4)
    l_rule: str | int = "all"
    group_size_range: tuple[int, int] = (4, 64)
    set_size_range: tuple[int, int] = (1, 8)
    checks: tuple[str, ...] = ("plgen",)
    insert_identity: bool = True


def load_sweep_config(path: str, **overrides) -> SweepConfig:
    return sweep_config_from_dict(_load_json(path), **overrides)


def _range(data: dict, key: str) -> tuple[int, int]:
    pair = _ints(data[key], f'"{key}"')
    if len(pair) != 2:
        raise UsageError(f'"{key}" must be a [min, max] pair')
    return tuple(pair)


def sweep_config_from_dict(data: dict, **overrides) -> SweepConfig:
    """Parse and validate a sweep config.  overrides, keyed like the file's
    fields, replace them before anything is checked, so a value from the
    command line is held to the same rules as the same value in the file."""
    _require_keys(data, "sweep config", SweepConfig._fields)
    data = {**SweepConfig._field_defaults, **data, **overrides}
    k_range = _range(data, "k_range")
    g_range = _range(data, "group_size_range")
    s_range = _range(data, "set_size_range")
    checks = data["checks"]
    if not isinstance(checks, (list, tuple)):
        raise UsageError('"checks" must be a list of check names')
    if not checks:
        raise UsageError(f'"checks" names no check; valid: {", ".join(SWEEP_CHECKS)}')
    for c in checks:
        if c not in SWEEP_CHECKS:
            raise UsageError(f"unknown sweep check {c!r}; valid: {', '.join(SWEEP_CHECKS)}")
    l_rule = data["l_rule"]
    if l_rule != "all":
        _int(l_rule, '"l_rule" (when not "all")')
    if type(data["insert_identity"]) is not bool:
        raise UsageError('"insert_identity" must be true or false')
    cfg = SweepConfig(seed=_int(data["seed"], '"seed"'),
                      count=_int(data["count"], '"count"'),
                      k_range=k_range, l_rule=l_rule, group_size_range=g_range,
                      set_size_range=s_range, checks=tuple(checks),
                      insert_identity=data["insert_identity"])
    (k_min, k_max), (g_min, g_max), (s_min, s_max) = k_range, g_range, s_range
    if cfg.count < 0 or k_min < 2 or k_max < k_min:
        raise UsageError("bad sweep config: need count >= 0 and 2 <= k_min <= k_max")
    if g_min < 1 or g_max < g_min or s_min < 1 or s_max < s_min:
        raise UsageError('bad sweep config: "group_size_range" and "set_size_range" '
                         "need 1 <= min <= max")
    if l_rule != "all" and l_rule < 1:
        raise UsageError(f'bad sweep config: "l_rule" must be "all" or >= 1, got {l_rule}')
    return cfg


def generate_base(cfg: SweepConfig, index: int) -> Instance:
    """Deterministic random instance #index, read at every level of the sweep.

    Draw order is fixed: k, then N, then A's size and elements, then each
    B_i's size and elements.  Set sizes are drawn from the set range
    clipped to N.  The identity is inserted into every B_i unless
    insert_identity is off.
    """
    rng = random.Random(cfg.seed * (1 << 32) + index)
    k = rng.randint(*cfg.k_range)
    n = rng.randint(*cfg.group_size_range)
    group = make_abelian_group([n])
    set_min, set_max = cfg.set_size_range
    size_lo, size_hi = min(set_min, n), min(set_max, n)
    a = group.set_of(rng.sample(range(n), rng.randint(size_lo, size_hi)))
    bs = []
    for _ in range(k):
        size = rng.randint(size_lo, size_hi)
        if cfg.insert_identity:
            elems = [0] + rng.sample(range(1, n), size - 1) if size > 1 else [0]
        else:
            elems = rng.sample(range(n), size)
        bs.append(group.set_of(elems))
    return Instance(group, a, bs)


def _levels(cfg: SweepConfig, k: int) -> list[int]:
    if cfg.l_rule == "all":
        return list(range(1, k))
    return [int(cfg.l_rule)] if int(cfg.l_rule) < k else []


def _draw(cfg: SweepConfig, index: int, bk: GSet) -> GSet:
    """The sweep's random nonempty S inside B_K of instance #index, drawn
    from a seed of its own, so that no other cell depends on the draw."""
    rng = random.Random(cfg.seed * (1 << 40) + index * (1 << 8) + 3)
    members = list(bk)
    return bk.group.set_of(rng.sample(members, rng.randint(1, len(members))))


def sweep_rows_for_index(cfg: SweepConfig, index: int, timing: bool) -> list[list[str]]:
    """CSV rows of instance #index; raises TheoremViolationError with a
    replayable instance dump when a guaranteed check fails."""
    inst = generate_base(cfg, index)
    rows = []
    moduli = "x".join(str(n) for n in inst.group.moduli)
    b_sizes = ";".join(str(len(b)) for b in inst.bs)
    levels = _levels(cfg, inst.k)
    # restricted's S does not depend on the level: drawn once, before any row
    s = _draw(cfg, index, inst.bk) if levels and "restricted" in cfg.checks else None
    opts = argparse.Namespace(s=s, all_subsets=False, epsilon="0.5", samples=128,
                              seed=cfg.seed * 1009 + index, r=2)
    for l in levels:
        for check in cfg.checks:
            start = time.perf_counter()
            [(verdict, fields, (gamma, base, expo, detail))], _ = CHECKS[check][0](inst, l, opts)
            _raise_if_violated(check, verdict, inst, l, fields.get("S"))
            row = [str(index), moduli, str(inst.k), str(l), str(len(inst.a)),
                   b_sizes, check, gamma, base, expo,
                   "true" if verdict.holds else "false", detail]
            if timing:
                row.append(_float_str((time.perf_counter() - start) * 1000.0))
            rows.append(row)
    return rows


def run_sweep(cfg: SweepConfig, *, workers: int = 1, timing: bool = False) -> str:
    """All CSV text for a config; deterministic for fixed (config, seed)
    regardless of worker count.  Raises TheoremViolationError on the
    lowest-index guaranteed-check failure."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS + (("ms",) if timing else ()))
    rows_of = partial(sweep_rows_for_index, cfg, timing=timing)
    # more workers than CPUs only add interpreters
    workers = min(workers, cfg.count, os.cpu_count() or 1)
    if workers <= 1:
        for index in range(cfg.count):
            writer.writerows(rows_of(index))
    else:
        # imported here: these modules cost a single-worker run about 1.8 MB
        # of resident memory.  Spawn, not fork: fork copies locks that other
        # threads of the caller may hold, and they stay held in the worker.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
            # about four chunks per worker: few round trips, even load
            for rows in pool.map(rows_of, range(cfg.count),
                                 chunksize=-(-cfg.count // (4 * workers))):
                writer.writerows(rows)
    return buf.getvalue()


def cmd_sweep(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    overrides = {"seed": args.seed, "count": args.count,
                 "insert_identity": False if args.allow_no_identity else None}
    cfg = load_sweep_config(args.config, **{key: value for key, value in overrides.items()
                                            if value is not None})
    text = run_sweep(cfg, workers=args.workers, timing=args.timing)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- demo -------------------------------------------------------------------------

def cmd_demo(args: argparse.Namespace) -> None:
    inst, l, s = load_instance(args.instance)
    if args.what != "lemma21" and args.r < 1:  # power and pipeline
        raise UsageError(f"r_max must be >= 1, got {args.r}")
    if args.what == "lemma21":
        if args.q is None:
            raise UsageError("demo lemma21 needs --q")
        rep = constructions.lemma21_demo(inst, l, args.q)
        print(f"q={rep.setup.q} n={list(rep.setup.n)} |H|={rep.setup.h_order} "
              f"|G'|={rep.setup.gprime.order}")
        print(f"expected distinct-summand size m*(beta*q)^l = {rep.expected_distinct}")
        for i, size in sorted(rep.distinct_sizes.items()):
            print(f"  |A + B'_(K-{{{i}}})| = {size}")
        print(f"union sum |A+(k-1)B'| = {rep.union_size} vs 2*k*m*(beta*q)^l = "
              f"{rep.union_rhs} -> {'HOLDS' if rep.union_holds else 'fails at this q'}")
        print(f"first admissible q satisfying the union bound: {rep.first_satisfying_q}")
        for term, size in sorted(rep.repeated_sizes.items()):
            summands = "+".join("B'%d" % j for j in term)
            print(f"  repeated term A+{summands} = {size}")
        print(f"repeated/distinct cardinality ratio = "
              f"{_float_str(float(rep.repeated_to_distinct_ratio))}")
        print(f"apex identity |X+(B_K x H)| = {rep.apex_lhs}, |H|*|X+B_K| = "
              f"{rep.apex_rhs} -> {'EQUAL' if rep.apex_equal else 'MISMATCH'}")
        if not rep.identities_hold:
            raise TheoremViolationError(f"cyclic extension at q={args.q} broke a guaranteed "
                                        "identity", serialize_instance(inst, l))
    elif args.what == "power":
        _require_commutative("power", inst)
        beta = theorems.check_plgen(inst, l).rhs
        verdicts = [CHECKS["power"][0](inst, l, argparse.Namespace(r=r))[0][0][0]
                    for r in range(1, args.r + 1)]  # every row before any output
        for r, v in enumerate(verdicts, 1):
            print(f"r={r} gamma_r={v.lhs} equals gamma^r: {'yes' if v.holds else 'NO'} "
                  f"root={_float_str(BetaValue(v.lhs, r).approx)} beta~{_float_str(beta.approx)}")
        print(f"all powers exact: {'yes' if all(v.holds for v in verdicts) else 'NO'}")
        for v in verdicts:
            _raise_if_violated("power", v, inst, l)
    else:
        _require_commutative("restricted", inst)  # the pipeline walks restricted's proof
        subset = s if s is not None else inst.bk
        rep = theorems.restricted_pipeline(inst, subset, args.r)
        print(f"branch={rep.branch} |S|={rep.s_size} |S+A|={rep.sa_size} "
              f"s={rep.s_prod}" + (f" t={_float_str(rep.t)}" if rep.t is not None else ""))
        for st in rep.steps:  # every step is decided exactly; a float rhs is shown
            rhs = _float_str(st.rhs) if isinstance(st.rhs, float) else st.rhs
            print(f"  {st.name}: {st.lhs} <= {rhs} [exact] {'HOLDS' if st.holds else 'FAILS'}")
        for row in rep.power_rows:
            print(f"  r={row.r}: |S^r+A^r|={row.power_size} "
                  f"identity {'HOLDS' if row.identity_holds else 'FAILS'}; "
                  f"bound k^(1/r)(s|S|)^(1/k)={_float_str(row.bound)} "
                  f"{'HOLDS' if row.bound_holds else 'FAILS'}")
        print(f"pipeline: {'ALL HOLD' if rep.all_hold else 'SOME STEP FAILED'}")
        if not rep.all_hold:
            raise TheoremViolationError(f"restricted-sum pipeline failed up to r={args.r}",
                                        serialize_instance(inst, l, subset))


def cmd_find_x(args: argparse.Namespace) -> None:
    inst, _, _ = load_instance(args.instance)
    res = instance_gamma(inst)
    size = len(res.witness)  # the certificate proved |X+B_K| = gamma*|X|
    print(f"X = {sorted(res.witness)}")
    print(f"|X| = {size}  |X+B_K| = {res.gamma * size}  ratio = {res.gamma}")


# -- entry point --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with the program's error format, one 'error: ...' line and
    exit 2, in every subcommand.  An argument that reads as a signed number,
    such as -1, -.5, -1e400 or -inf, is a flag's value and not an unknown
    flag, so --epsilon -inf reaches the check that rejects it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse tells negative numbers from flags with this attribute
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan|snan)", re.IGNORECASE)

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process, built on the first;
    parse_args keeps no state between calls."""
    parser = _Parser(
        prog="plab",
        description="Exact sumset-inequality checks over finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run checks on an instance file")
    p_verify.add_argument("instance")
    p_verify.add_argument("--check", action="append",
                          help=f"comma-separated tokens from: {', '.join(VERIFY_CHECKS)}")
    p_verify.add_argument("--json", help="write a JSON report to this path")
    p_verify.add_argument("--all-subsets", action="store_true",
                          help="restricted check over every nonempty S in B_K")
    p_verify.add_argument("--epsilon", default="0.5",
                          help="admissible-size parameter for plgen2")
    p_verify.add_argument("--mode", choices=("a", "t"), default="t",
                          help="target kind for the large check")
    p_verify.add_argument("--value", default="0",
                          help="target value for the large check, read exactly as typed")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="seeded random instance sweep to CSV")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--count", type=int, default=None)
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--allow-no-identity", action="store_true",
                         help="sample summand sets without forcing the identity in")
    p_sweep.add_argument("--timing", action="store_true",
                         help="append a per-row ms column (breaks byte determinism)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="construction walkthroughs")
    p_demo.add_argument("what", choices=("lemma21", "power", "pipeline"))
    p_demo.add_argument("instance")
    p_demo.add_argument("--q", type=int, default=None,
                        help="cyclic-extension scale for lemma21")
    p_demo.add_argument("-r", type=int, default=2,
                        help="max direct power for power/pipeline")
    p_demo.set_defaults(func=cmd_demo)

    p_find = sub.add_parser("find-x", help="print the magnification witness")
    p_find.add_argument("instance")
    p_find.set_defaults(func=cmd_find_x)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except ExitOneError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        if exc.dump is not None:
            json.dump(exc.dump, sys.stderr)
            print(file=sys.stderr)
        return 1
    except (UsageError, ValidationError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
