"""Self-tests of the benchmark: inputs, oracle, reference, tracer, contract.

Run from the root of a plab checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from inputs import DEFAULT_SEEDS, WORKLOADS, make_plan  # noqa: E402
from record_reference import plan_digests  # noqa: E402
from tracing import Tracer  # noqa: E402


def _small(plan: dict) -> dict:
    """A cheap slice of a plan: 15-instance sweeps and one verify call per kind."""
    calls, files, kinds = [], {}, set()
    for call in plan["calls"]:
        text = plan["files"][call["input"]]
        if call["kind"] == "sweep":
            text = json.dumps({**json.loads(text), "count": 15})
        elif call["kind"] in kinds:
            continue
        kinds.add(call["kind"])
        calls.append(call)
        files[call["input"]] = text
    return {**plan, "calls": calls, "files": files}


def _run(plan: dict, work: Path, tracer: Tracer | None = None) -> list[str]:
    """Output of every call of a plan, optionally under the tracer; sweep
    CSVs without their --timing column."""
    if tracer is not None:
        tracer.install()
    try:
        plan_digests(plan, work)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outputs = [(work / call["output"]).read_text(encoding="utf-8") for call in plan["calls"]]
    return [oracle.split_timing(text)[0] if call["kind"] == "sweep" else text
            for call, text in zip(plan["calls"], outputs)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload):
    first = make_plan(workload, 11)
    assert make_plan(workload, 11) == first
    other = make_plan(workload, 12)
    assert other["files"] != first["files"]
    assert [c["argv"] for c in other["calls"]] == [c["argv"] for c in first["calls"]]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_oracle_reproduces_the_recorded_sweeps():
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    for workload in ("sweep_plgen", "sweep_power"):
        for seed, digests in reference[workload].items():
            plan = make_plan(workload, int(seed))
            for call, digest in zip(plan["calls"], digests):
                rows = oracle.expected_sweep_rows(json.loads(plan["files"][call["input"]]))
                text = "\n".join(rows) + "\n"
                assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_reports_pass_the_oracle_and_match_the_reference(tmp_path):
    seed = DEFAULT_SEEDS["verify_kernel"]
    plan = make_plan("verify_kernel", seed)
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    assert plan_digests(plan, tmp_path / "work") == reference["verify_kernel"][str(seed)]
    for call in plan["calls"]:
        report = (tmp_path / "work" / call["output"]).read_text(encoding="utf-8")
        assert oracle.check_verify(call["kind"], plan["files"][call["input"]], report) == []


def test_timing_column_comes_off_exactly(tmp_path):
    from plab import cli

    plan = _small(make_plan("sweep_power", 5))
    call = plan["calls"][0]
    (tmp_path / call["input"]).write_text(plan["files"][call["input"]], encoding="utf-8")
    outputs = {}
    for flags in ((), ("--timing",)):
        out = tmp_path / f"out{len(flags)}.csv"
        assert cli.main(["sweep", str(tmp_path / call["input"]), *flags, "--out", str(out)]) == 0
        outputs[flags] = out.read_text(encoding="utf-8")
    plain, seconds = oracle.split_timing(outputs[("--timing",)])
    assert plain == outputs[()]
    assert len(seconds) == plain.count("\n") - 1 and all(s >= 0 for s in seconds)
    with pytest.raises(ValueError):
        oracle.split_timing(outputs[()])


WRONG = {"restricted": lambda entry: entry.update(lhs=entry["lhs"] + 1),
         "plgen2": lambda entry: entry.update(c_emp=str(2 * float(entry["c_emp"]))),
         "noncomm": lambda entry: entry.update(ratio="1/1000")}


def test_oracle_rejects_wrong_verdicts(tmp_path):
    plan = _small(make_plan("verify_kernel", 3))
    for call, data in zip(plan["calls"], _run(plan, tmp_path)):
        report = json.loads(data)
        WRONG[call["kind"]](report["checks"][-1])
        assert oracle.check_verify(call["kind"], plan["files"][call["input"]],
                                   json.dumps(report)) != []


def test_wrappers_change_no_verdict(tmp_path):
    from plab import cli

    original_main = cli.main
    for workload in WORKLOADS:
        plan = _small(make_plan(workload, 5))
        tracer = Tracer()
        traced = _run(plan, tmp_path / f"{workload}-traced", tracer)
        assert traced == _run(plan, tmp_path / f"{workload}-plain")
        names = {name for name, (calls, _) in tracer.self_times().items() if calls}
        assert "cli.main" in names and "groups.sumset" in names
    assert cli.main is original_main


def test_run_refuses_a_directory_without_plab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_plgen",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
