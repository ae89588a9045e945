"""Run one workload's plab calls in a process of its own and time them.

Usage (from run.py, with src/ and perfbench/ on PYTHONPATH and the work
directory as the current directory):

    python3 worker.py PLAN_JSON SECONDS TRACE RESULT_JSON

Each call goes through `plab.cli.main(argv)`, in process, with stdout and
stderr captured.  One warm-up call per kind runs first.  Then whole passes
over the plan's calls repeat until SECONDS have passed.  With TRACE 1, each
round runs an untraced and a traced pass, and run.py takes the difference
of their best times as the tracing overhead.  Output files of the first pass are kept as
`first-<name>`; later passes are compared with them by digest.

Rounds alternate between the CPUs this process may run on: on a shared
host, outside load often slows one CPU for tens of seconds while another
runs at full speed, and a call's fastest repetition is what run.py reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from oracle import split_timing


def run_call(cli, argv: list[str]) -> tuple[float, object, str]:
    """(seconds, exit code or exception text, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code = f"exception: {exc!r}"
        seconds = time.perf_counter() - start
    return seconds, code, sink.getvalue()


def run_pass(cli, calls: list[dict]) -> dict:
    """Seconds, exit code and output digest per call; for sweeps also the
    seconds of each CSV row, read from its `--timing` column, which the
    digest leaves out."""
    seconds, codes, digests, notes, rows = [], [], [], [], []
    for call in calls:
        if os.path.exists(call["output"]):
            os.remove(call["output"])
        dt, code, text = run_call(cli, call["argv"])
        seconds.append(dt)
        row_s = None
        try:
            with open(call["output"], "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = None
        if data is not None and call["kind"] == "sweep":
            try:
                plain, row_s = split_timing(data.decode("utf-8"))
                data = plain.encode("utf-8")
            except ValueError as exc:
                code = code or f"unreadable timing column: {exc}"
        codes.append(code)
        notes.append(text[-2000:] if code != 0 else "")
        digests.append(hashlib.sha256(data).hexdigest() if data is not None else None)
        rows.append(row_s)
    return {"seconds": seconds, "codes": codes, "digests": digests, "notes": notes,
            "rows": rows}


def keep_outputs(calls: list[dict]) -> None:
    for call in calls:
        if os.path.exists(call["output"]):
            os.replace(call["output"], "first-" + call["output"])


def traced_pass(cli, calls: list[dict], tracer) -> tuple[dict, dict]:
    tracer.reset()
    tracer.install()
    try:
        result = run_pass(cli, calls)
    finally:
        tracer.uninstall()
    return result, {"self_times": tracer.self_times(), "counts": dict(tracer.counts),
                    "distinct": {k: len(v) for k, v in tracer.distinct.items()}}


def main() -> int:
    plan_path, seconds, trace, result_path = sys.argv[1:5]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    calls = plan["calls"]
    from plab import cli

    warm = {}
    for call in calls:
        warm.setdefault(call["kind"], call)
    run_pass(cli, list(warm.values()))

    untraced, traced, layers = [], [], []
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + float(seconds)
    while True:
        os.sched_setaffinity(0, {cpus[len(untraced) % len(cpus)]})
        untraced.append(run_pass(cli, calls))
        if len(untraced) == 1:
            keep_outputs(calls)
        if tracer is not None:
            result, layer = traced_pass(cli, calls, tracer)
            traced.append(result)
            layers.append(layer)
        if time.perf_counter() >= deadline:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"passes": untraced, "traced_passes": traced, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        out["layers"] = layers
        out["spans"] = tracer.write_spans("spans.tsv.gz")
        out["spans_file"] = "spans.tsv.gz"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
