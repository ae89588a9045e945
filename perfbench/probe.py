"""Set-up probe: import plab.cli in a fresh interpreter and load a plan's inputs.

Usage (from run.py, with src/ on PYTHONPATH and the work directory as the
current directory):

    python3 probe.py PLAN_JSON

Prints the seconds from just before the import to the last input loaded.
"""

import json
import sys
import time

if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    from plab import cli

    for call in plan["calls"]:
        if call["kind"] == "sweep":
            cli.load_sweep_config(call["input"])
        else:
            cli.load_instance(call["input"])
    print(time.perf_counter() - start)
