"""Malformed instance files and sweep configs fed to the CLI in process.

Whatever the file holds, `plab` (verify, find-x, sweep and each demo) must
exit 0 (the input was usable) or 2 (it was not), and no exception may escape
`main`.  Integers are kept small so that an input that happens to be valid
runs in milliseconds: a valid sweep with a huge "count" is slow, not
malformed.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from plab.cli import VERIFY_CHECKS, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

LEAVES = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
          | st.sampled_from(["integers", "all", "plgen", "power", "restricted"])
          | st.text(max_size=3))
JSON = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=12)
# well-typed but out-of-range values, which a generic JSON value rarely hits
SMALL_INTS = st.lists(st.integers(-3, 12), max_size=4)
FIELD_VALUES = JSON | SMALL_INTS | st.lists(SMALL_INTS, max_size=4)

INSTANCES = [json.loads((FIXTURES / name).read_text())
             for name in ("z5.json", "z9.json", "s3.json")]
INSTANCE_KEYS = ["group", "A", "B", "l", "S", "cayley", "x"]
SWEEP = {"seed": 1, "count": 3, "k_range": [2, 3], "l_rule": "all",
         "group_size_range": [2, 12], "set_size_range": [1, 4],
         "checks": ["plgen", "pldiff", "single", "restricted", "power", "plgen2"]}
SWEEP_KEYS = [*SWEEP, "insert_identity"]
DEMOS = ([[what, "-r", str(r)] for what in ("power", "pipeline") for r in (1, 2)]
         + [["lemma21", "--q", str(q)] for q in (1, 2, 3)])


@st.composite
def mutated(draw, bases, keys):
    """A valid document with a few fields deleted or replaced by any JSON."""
    data = dict(draw(st.sampled_from(bases)))
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            data.pop(key, None)
        else:
            data[key] = draw(FIELD_VALUES)
    return json.dumps(data).encode()


def documents(bases, keys):
    return (mutated(bases, keys) | JSON.map(lambda v: json.dumps(v).encode())
            | st.binary(max_size=12))


def run_cli(content: bytes, argv_tail: list[str], *command: str) -> int:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.json"
        path.write_bytes(content)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main([*command, str(path), *argv_tail])


@settings(max_examples=40)
@given(documents(INSTANCES, INSTANCE_KEYS),
       st.sampled_from([["--check", c] for c in VERIFY_CHECKS]
                       + [["--check", "restricted", "--all-subsets"]]))
def test_verify_fuzz_exits_0_or_2(content, flags):
    assert run_cli(content, flags, "verify") in (0, 2)


@settings(max_examples=15)
@given(documents(INSTANCES, INSTANCE_KEYS))
def test_find_x_fuzz_exits_0_or_2(content):
    assert run_cli(content, [], "find-x") in (0, 2)


@settings(max_examples=40)
@given(documents([SWEEP], SWEEP_KEYS))
def test_sweep_fuzz_exits_0_or_2(content):
    assert run_cli(content, [], "sweep") in (0, 2)


@settings(max_examples=40)
@given(documents(INSTANCES, INSTANCE_KEYS), st.sampled_from(DEMOS))
def test_demo_fuzz_exits_0_or_2(content, demo):
    # a demo exits 1 only when a guaranteed identity fails, never on input
    what, *flags = demo
    assert run_cli(content, flags, "demo", what) in (0, 2)
