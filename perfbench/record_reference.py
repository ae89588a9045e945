#!/usr/bin/env python3
"""Record reference digests of plab's outputs for the workloads' default seeds.

Usage, from the root of a plab checkout whose outputs are known good:

    python3 perfbench/record_reference.py

For each workload, the calls of its default-seed plan run in process and
reference.json stores, per call, the sha256 of the sweep CSV (without its
--timing column) or of the
verdict fields of the verify report (witness fields are left out, since a
correct change may pick another witness).
run.py compares against these digests whenever it runs a recorded seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from inputs import DEFAULT_SEEDS, make_plan  # noqa: E402


def plan_digests(plan: dict, work: Path) -> list[str]:
    from plab import cli

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in plan["files"].items():
        (work / name).write_text(text, encoding="utf-8")
    digests = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for call in plan["calls"]:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(call["argv"])
            if code != 0:
                raise SystemExit(f"{call['argv']} exited {code}; refusing to record")
            text = Path(call["output"]).read_text(encoding="utf-8")
            digests.append(hashlib.sha256(oracle.split_timing(text)[0].encode()).hexdigest()
                           if call["kind"] == "sweep" else oracle.verdict_digest(text))
    finally:
        os.chdir(cwd)
    return digests


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    reference = {"recorded_at": commit}
    for workload, seed in DEFAULT_SEEDS.items():
        work = ROOT / ".perfbench_work" / f"reference-{workload}-{seed}"
        reference[workload] = {str(seed): plan_digests(make_plan(workload, seed), work)}
        shutil.rmtree(work)
        print(f"{workload} seed {seed}: {len(reference[workload][str(seed)])} digests")
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
