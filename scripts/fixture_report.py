#!/usr/bin/env python3
"""Run the full check battery and both demos on the bundled fixtures."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from plab.cli import main  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(*argv: str) -> None:
    print(f"\n$ plab {' '.join(argv)}")
    code = main(list(argv))
    if code != 0:
        raise SystemExit(code)


if __name__ == "__main__":
    z5 = str(FIXTURES / "z5.json")
    z9 = str(FIXTURES / "z9.json")
    s3 = str(FIXTURES / "s3.json")
    run("verify", z5, "--check", "plgen,pldiff,single")
    run("verify", z5, "--check", "restricted", "--all-subsets")
    run("verify", z5, "--check", "plgen2", "--epsilon", "0.6")
    run("verify", z9, "--check", "plgen,pldiff,large", "--mode", "a", "--value", "2")
    run("verify", s3, "--check", "noncomm")
    run("find-x", z5)
    run("find-x", z9)
    run("demo", "lemma21", z9, "--q", "2")
    run("demo", "power", z9, "-r", "2")
    run("demo", "power", z5, "-r", "3")
    run("demo", "pipeline", z5, "-r", "3")
    run("demo", "pipeline", z9, "-r", "2")
    print("\nall fixture reports completed")
