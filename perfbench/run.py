#!/usr/bin/env python3
"""The plab benchmark: three seeded workloads, checked verdicts, per-layer trace.

Usage, from the root of a plab checkout:

    python3 perfbench/run.py --workload sweep_plgen --seed 7 --seconds 20 --trace 0

Workloads (see inputs.py): sweep_plgen, sweep_power, verify_kernel.  Every
operation goes through `plab.cli.main(argv)` in a worker process of its own
(worker.py), called serially, one client, closed loop.  An operation is a
verdict on the sweeps and a call on verify_kernel.

Whole passes over the workload's calls repeat for --seconds; a call's time
is the fastest of its repetitions, and a sweep's is put together from the
fastest repetition of each of its rows (see best_seconds).  --trace 0
prints the end-to-end metrics:
    verdicts_per_s  verdicts of one pass / the sum of its call times
    calls_per_s     calls of one pass / the same sum
    call_ms_p50     median call time across the workload's calls
    call_ms_p90     90th percentile of the same (verify_kernel: 102 calls)
    setup_s         importing plab.cli in a fresh interpreter and loading the
                    workload's inputs, median of SETUP_REPEATS probes
    peak_rss_mb     peak resident memory of the worker process
--trace 1 prints the per-layer metrics of LAYER_METRICS, from spans recorded
around plab's public functions (tracing.py), plus the tracing overhead.

Every output is checked against oracle.py, which recomputes each verdict
without plab, and, for the seeds in reference.json, against digests recorded
from the seed commit.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a fuller record, with quartiles,
machine details and input sizes, is written to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from inputs import DEFAULT_SEEDS, WORKLOADS, make_plan  # noqa: E402

SETUP_REPEATS = 16
TIME_LIMIT_S = 170

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("calls_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SPANNED = ("magnification.gamma_flow", "magnification.build_plun_graph",
            "magnification.multiplicativity_check", "alphabeta.alpha_table",
            "alphabeta.cmp_ratio_vs_beta", "theorems.RootRatio.cmp", "groups.sumset",
            "theorems.check_plgen", "theorems.check_pldiff",
            "theorems.check_restricted_sum", "theorems.empirical_plgen2",
            "theorems.check_noncommutative")
LAYER_METRICS = (
    *((f"{name}.{field}", unit) for name in _SPANNED
      for field, unit in (("calls", "count"), ("self_s", "s"))),
    ("magnification.gamma_flow.newton_rounds", "count"),
    ("magnification.gamma_flow.s_per_round", "s"),
    ("magnification.gamma_flow.distinct_share", "ratio"),
    ("magnification.gamma_flow.full_bk_share", "ratio"),
    ("magnification.build_plun_graph.edges", "count"),
    ("magnification.build_plun_graph.edges_max", "count"),
    ("alphabeta.alpha_table.distinct_share", "ratio"),
    ("groups.iterated_sumset.calls", "count"),
    ("groups.translate_bits.calls", "count"),
    ("groups.translate_bits.bytes_computed", "bytes"),
    ("cli.generate_base.self_s", "s"),
    ("cli.sweep_rows_for_index.self_s", "s"),
    ("cli.run_sweep.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
)


# -- machine and inputs --------------------------------------------------------------

def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "plab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "commit": commit, "plab_source_sha256": digest.hexdigest()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# -- correctness -----------------------------------------------------------------------

def check_first_pass(plan: dict, work: Path) -> tuple[list[int], list[str]]:
    """Failed operations per call in the first pass's outputs, and notes."""
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    pinned = reference.get(plan["workload"], {}).get(str(plan["seed"]))
    failed, problems = [], []
    for i, call in enumerate(plan["calls"]):
        path = work / ("first-" + call["output"])
        text = path.read_text(encoding="utf-8") if path.exists() else None
        if call["kind"] == "sweep":
            want = plan["expected_rows"][i]
            try:
                text = oracle.split_timing(text)[0] if text is not None else None
            except ValueError as exc:
                problems.append(f"{call['output']}: {exc}")
                text = None
            got = text.splitlines() if text is not None else []
            bad = sum(1 for j in range(1, len(want)) if j >= len(got) or got[j] != want[j])
            if got[:1] != want[:1] or len(got) != len(want):
                bad = len(want) - 1
            if bad:
                problems.append(f"{call['output']}: {bad} rows differ from the oracle")
            digest = hashlib.sha256(text.encode()).hexdigest() if text is not None else None
        else:
            if text is None:
                found = [f"{call['output']}: no report written"]
            else:
                instance = (work / call["input"]).read_text(encoding="utf-8")
                found = oracle.check_verify(call["kind"], instance, text)
            problems.extend(found)
            bad = 1 if found else 0
            digest = oracle.verdict_digest(text) if text is not None and not found else None
        if pinned is not None and digest != pinned[i]:
            problems.append(f"{call['output']}: differs from the reference recorded for seed "
                            f"{plan['seed']}")
            bad = bad or plan["ops"][i]
        failed.append(bad)
    return failed, problems


def count_failures(plan: dict, work: Path, worker: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass, traced ones included."""
    ops = plan["ops"]
    first_failed, problems = check_first_pass(plan, work)
    reference = worker["passes"][0]
    attempted = failed = 0
    for label, passes in (("pass", worker["passes"]), ("traced pass", worker["traced_passes"])):
        for p, result in enumerate(passes):
            for i, call in enumerate(plan["calls"]):
                attempted += ops[i]
                code, digest = result["codes"][i], result["digests"][i]
                if code != 0:
                    failed += ops[i]
                    problems.append(f"{label} {p}: {call['argv']} exited {code}: "
                                    f"{result['notes'][i][-300:]}")
                elif digest != reference["digests"][i]:
                    failed += ops[i]
                    problems.append(f"{label} {p}: {call['output']} differs from pass 0")
                else:
                    failed += first_failed[i]
    return attempted, failed, problems


# -- metrics ------------------------------------------------------------------------------

def best_seconds(passes: list[dict]) -> list[float]:
    """Each call's time from its fastest repetitions, one per pass.

    Other load on the machine only ever adds time, and it comes in bursts
    shorter than a second, so the fastest repetition of a short piece of
    work is steady where a median over a few passes is not.  A verify call
    is one piece.  A sweep runs for seconds, so it is taken apart: each CSV
    row (one check of one instance, timed by `plab sweep --timing`) counts
    with its fastest repetition, and the rest of the call (instance
    generation, sweep set-up, CSV output) with its own fastest."""
    best = []
    for i in range(len(passes[0]["seconds"])):
        rows = [p["rows"][i] for p in passes]
        if None in rows or len({len(r) for r in rows}) != 1:  # a verify call, or a failed sweep
            best.append(min(p["seconds"][i] for p in passes))
            continue
        rest = min(p["seconds"][i] - sum(r) for p, r in zip(passes, rows))
        best.append(sum(min(times) for times in zip(*rows)) + max(rest, 0.0))
    return best


def end_to_end(plan: dict, worker: dict, setup: list[float]) -> tuple[dict, dict]:
    best = best_seconds(worker["passes"])
    pass_s = sum(best)
    call_ms = [s * 1000.0 for s in best]
    values = {
        "verdicts_per_s": sum(plan["verdicts"]) / pass_s,
        "calls_per_s": len(best) / pass_s,
        "call_ms_p50": statistics.median(call_ms),
        "call_ms_p90": (statistics.quantiles(call_ms, n=10, method="inclusive")[8]
                        if len(call_ms) > 1 else call_ms[0]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
    }
    spread = {"pass_s": quartiles([sum(p["seconds"]) for p in worker["passes"]]),
              "call_ms": quartiles(call_ms), "setup_s": quartiles(setup)}
    notes = {"passes": len(worker["passes"]), "calls": len(best),
             "setup_probes": len(setup), "quartiles": spread}
    return values, notes


def per_layer(worker: dict) -> dict:
    layers = worker["layers"]
    first = layers[0]
    counts, distinct = first["counts"], first["distinct"]

    def calls(name: str) -> int:
        return first["self_times"].get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return statistics.median(layer["self_times"].get(name, (0, 0.0))[1]
                                 for layer in layers)

    values = {}
    for name in _SPANNED:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s(name)
    gf = "magnification.gamma_flow"
    rounds = counts.get(f"{gf}.newton_rounds", 0)
    values[f"{gf}.newton_rounds"] = rounds
    values[f"{gf}.s_per_round"] = self_s(gf) / rounds if rounds else 0.0
    values[f"{gf}.distinct_share"] = distinct[gf] / calls(gf) if calls(gf) else 0.0
    values[f"{gf}.full_bk_share"] = counts.get(f"{gf}.full_bk", 0) / calls(gf) if calls(gf) else 0.0
    for key in ("edges", "edges_max"):
        values[f"magnification.build_plun_graph.{key}"] = counts.get(
            f"magnification.build_plun_graph.{key}", 0)
    at = "alphabeta.alpha_table"
    values[f"{at}.distinct_share"] = distinct[at] / calls(at) if calls(at) else 0.0
    values["groups.iterated_sumset.calls"] = counts.get("groups.iterated_sumset.calls", 0)
    values["groups.translate_bits.calls"] = counts.get("groups.translate_bits.calls", 0)
    values["groups.translate_bits.bytes_computed"] = counts.get("groups.translate_bits.bits", 0) / 8
    for name in ("generate_base", "sweep_rows_for_index", "run_sweep", "main"):
        values[f"cli.{name}.self_s"] = self_s(f"cli.{name}")
    untraced = sum(best_seconds(worker["passes"]))
    overhead = sum(best_seconds(worker["traced_passes"])) - untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / untraced
    values["trace.spans"] = worker["spans"]
    return values


# -- driver -------------------------------------------------------------------------------

def run_child(args: list[str], work: Path, env: dict, timeout: float) -> str:
    done = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{Path(args[0]).name} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return done.stdout


PROBE = [str(BENCH / "probe.py"), "plan.json"]


def probe_setup(count: int, work: Path, env: dict) -> list[float]:
    """Set-up seconds of `count` fresh interpreters, spread over the CPUs
    this process may use (children inherit the affinity)."""
    cpus = sorted(os.sched_getaffinity(0))
    seconds = []
    try:
        for i in range(count):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            seconds.append(float(run_child(PROBE, work, env, 60)))
    finally:
        os.sched_setaffinity(0, cpus)
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own, see inputs.py)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed passes run (whole passes only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (ROOT / "src" / "plab" / "cli.py").is_file():
        print(f"error: no plab sources under {ROOT / 'src'}; run from a plab checkout",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    plan = make_plan(args.workload, seed)
    if args.workload.startswith("sweep"):
        plan["expected_rows"] = [oracle.expected_sweep_rows(json.loads(plan["files"][c["input"]]))
                                 for c in plan["calls"]]
        plan["verdicts"] = [len(rows) - 1 for rows in plan["expected_rows"]]
        plan["ops"] = plan["verdicts"]
    else:
        plan["verdicts"] = [c["verdicts"] for c in plan["calls"]]
        plan["ops"] = [1] * len(plan["calls"])

    work = ROOT / ".perfbench_work" / f"{args.workload}-{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in plan["files"].items():
        (work / name).write_text(text, encoding="utf-8")
    (work / "plan.json").write_text(json.dumps({"calls": plan["calls"]}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}

    try:
        run_child(PROBE, work, env, 60)  # compiles .pyc files once
        # half the set-up probes before the worker and half after, so one
        # burst of outside load cannot cover them all
        setup = probe_setup(SETUP_REPEATS // 2, work, env)
        run_child([str(BENCH / "worker.py"), "plan.json", str(args.seconds), str(args.trace),
                   "worker.json"], work, env, TIME_LIMIT_S - (time.perf_counter() - began))
        setup += probe_setup(SETUP_REPEATS - SETUP_REPEATS // 2, work, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worker = json.loads((work / "worker.json").read_text(encoding="utf-8"))

    attempted, failed, problems = count_failures(plan, work, worker)
    if args.trace:
        values = per_layer(worker)
        units = dict(LAYER_METRICS)
        notes = {"traced_passes": len(worker["traced_passes"]),
                 "spans_file": str(work / worker["spans_file"])}
    else:
        values, notes = end_to_end(plan, worker, setup)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(), "inputs": plan["sizes"],
              "attempted": attempted, "failed": failed,
              "fail_share": failed / attempted, "problems": problems[:50],
              "metrics": metrics, **notes}
    (work / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"inputs {json.dumps(plan['sizes'])}")
    print("machine " + json.dumps(record["machine"]))
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    for name, (q1, q2, q3) in notes.get("quartiles", {}).items():
        print(f"quartiles {name:34s} q1 {q1:.6g}  median {q2:.6g}  q3 {q3:.6g}")
    print(f"fail_share {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for problem in problems[:10]:
        print("problem: " + problem)
    print(f"record {work / 'result.json'}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
