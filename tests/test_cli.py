import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from plab import alphabeta, cli, element_cap
from plab.alphabeta import alpha_table, beta_value
from plab.cli import (VERIFY_CHECKS, SweepConfig, _raise_if_violated, build_parser,
                      generate_base, load_sweep_config, main, parse_instance, run_sweep,
                      serialize_instance, sweep_config_from_dict, sweep_rows_for_index)
from plab.errors import CertificateError, TheoremViolationError
from plab.theorems import TheoremVerdict

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- instance files -----------------------------------------------------------------

def test_round_trip_moduli(z5):
    inst, l, s = parse_instance(serialize_instance(z5, 1, z5.group.set_of([0, 3])))
    assert (inst, l) == (z5, 1)
    assert sorted(s) == [0, 3]


def test_round_trip_integers_mode(z9):
    data = {"group": "integers", "A": [0, 1], "B": [[0, 1], [0, 2], [0, 4]], "l": 2}
    inst, l, _ = parse_instance(data)
    assert (inst, l) == (z9, 2)
    again, l_again, _ = parse_instance(serialize_instance(inst, l))
    assert (again, l_again) == (inst, l)


def test_round_trip_cayley():
    data = json.loads((FIXTURES / "s3.json").read_text())
    inst, l, _ = parse_instance(data)
    assert inst.group.table is not None and not inst.group.is_abelian
    again, l_again, _ = parse_instance(serialize_instance(inst, l))
    assert (again, l_again) == (inst, l)


def test_parse_rejects_bad_shapes():
    from plab import UsageError
    with pytest.raises(UsageError):
        parse_instance({"A": [0], "l": 1})
    with pytest.raises(UsageError):
        parse_instance({"group": 7, "A": [0], "B": [[0], [0]], "l": 1})
    with pytest.raises(UsageError):
        parse_instance({"group": [5], "A": [0], "B": "nope", "l": 1})


@pytest.mark.parametrize("spec", [[5], "integers"], ids=["moduli", "integers"])
@pytest.mark.parametrize("a, bs, err", [
    ([], [[0, 1], [0, 2]], "base set A must be nonempty"),
    ([0, 1], [[0, 1], []], "every summand set must be nonempty"),
], ids=["empty-A", "empty-B_2"])
def test_empty_sets_are_refused_alike_under_every_group_spec(tmp_path, capsys, spec, a, bs, err):
    # an "integers" file builds its sets like any other, so Instance refuses them
    path = write_json(tmp_path, "inst.json", {"group": spec, "A": a, "B": bs, "l": 1})
    assert main(["verify", path]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("command, patch", [
    ("verify", {"l": "x"}), ("verify", {"A": [0.5]}), ("verify", {"A": "01"}),
    ("verify", {"cayley": "xx"}), ("verify", {"S": "x"}),
    ("sweep", {"k_range": "x"}), ("sweep", {"checks": "plgen"}),
    ("sweep", {"insert_identity": "no"}), ("sweep", {"set_size_range": [5, 3]}),
    ("sweep", {"l_rule": 0, "count": 0}), ("sweep", {"checks": []}),
    ("verify", ["--check", ","]),
    ("verify", ["--check", "plgen2", "--epsilon", "nan"]),
    ("verify", ["--check", "plgen2", "--epsilon", "inf"]),
    ("verify", ["--check", "plgen2", "--epsilon", "0"]),
    ("verify", ["--check", "plgen2", "--epsilon", "1"]),
    ("verify", ["--check", "plgen2", "--epsilon", "1e-999999999"]),
    ("verify", ["--check", "large", "--mode", "a", "--value", "1.7"]),
    ("verify", ["--check", "large", "--mode", "t", "--value", "1e400"]),
    ("verify", ["--check", "large", "--mode", "t", "--value", "nan"]),
    ("verify", ["--check", "large", "--mode", "a", "--value", "1.99999999999999999999"]),
    ("verify", ["--check", "plgen2", "--epsilon", "-inf"]),
    ("verify", ["--check", "large", "--mode", "x"]),
    ("verify", ["--check", "large", "--value"]),
    ("verify", ["--bogus"]),
    ("sweep", ["--count", "x"]),
    ("sweep", ["--workers", "0"]), ("sweep", ["--workers", "-1"]),
    ("sweep", {"check": ["power"]}), ("verify", {"s": [0]}),
    ("verify", {"cayley": [[(i + j) % 5 for j in range(5)] for i in range(5)]}),
], ids=["l-str", "A-float", "A-str", "cayley-str", "S-str", "k_range-str", "checks-str",
        "insert_identity-str", "set_size_range-reversed", "l_rule-zero", "checks-empty",
        "check-list-empty",
        "epsilon-nan", "epsilon-inf", "epsilon-zero", "epsilon-one", "epsilon-too-fine",
        "value-fractional-a", "value-1e400", "value-nan", "value-rounds-to-integer",
        "epsilon-minus-inf", "mode-bad-choice", "value-missing", "unknown-flag",
        "count-not-int", "workers-zero", "workers-negative", "sweep-unknown-key",
        "instance-unknown-key", "cayley-and-group"])
def test_malformed_input_exits_2(tmp_path, command, patch):
    """patch is either file fields to replace or command-line flags to add;
    the one-line error names the field or echoes the flag's value."""
    base = json.loads((FIXTURES / "z5.json").read_text()) if command == "verify" else BASE_CFG
    flags = patch if isinstance(patch, list) else []
    path = write_json(tmp_path, "input.json", {**base, **(patch if not flags else {})})
    proc = subprocess.run([sys.executable, "-m", "plab.cli", command, path, *flags],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert (flags[-1] if flags else f'"{next(iter(patch))}"') in proc.stderr


@pytest.mark.parametrize("command, text", [
    ("verify", '{"group": [5], "A": [%s], "B": [[0, 1], [0, 2]], "l": 1}'),
    ("sweep", '{"seed": %s}')], ids=["instance", "sweep-config"])
@pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "7" * 5_000],
                         ids=["deep-nesting", "huge-integer"])
def test_undecodable_json_exits_2(tmp_path, command, text, value):
    # the raw text, which json.dumps writes for neither: nesting deeper than
    # the decoder's stack, and an integer longer than the 4,300 digits that
    # int() reads by default
    path = tmp_path / "input.json"
    path.write_text(text % value)
    proc = subprocess.run([sys.executable, "-m", "plab.cli", command, str(path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: {path}: unreadable JSON: ")


@pytest.mark.parametrize("level", [0, 2])
@pytest.mark.parametrize("argv", [
    ["verify", "FILE", "--check", "restricted"], ["verify", "FILE", "--check", "pldiff"],
    ["verify", "FILE", "--check", "noncomm"], ["find-x", "FILE"],
    ["demo", "power", "FILE", "-r", "1"], ["demo", "pipeline", "FILE", "-r", "1"]],
    ids=["restricted", "pldiff", "noncomm", "find-x", "demo-power", "demo-pipeline"])
def test_bad_level_exits_2_under_every_command(tmp_path, capsys, level, argv):
    # the level is the checks' argument, not the instance's, but a file
    # with a bad l is refused also by the commands that never read it
    data = {**json.loads((FIXTURES / "z5.json").read_text()), "l": level}
    path = write_json(tmp_path, "inst.json", data)
    assert main([path if arg == "FILE" else arg for arg in argv]) == 2
    assert capsys.readouterr() == (
        "", f"error: level must satisfy 1 <= l < k, got l={level}, k=2\n")


# -- verify ------------------------------------------------------------------------

def test_verify_z5_plgen(capsys):
    code = main(["verify", str(FIXTURES / "z5.json"), "--check", "plgen"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gamma=5/2" in out and "beta=3" in out and "HOLDS" in out


def test_verify_default_check_is_plgen(capsys):
    assert main(["verify", str(FIXTURES / "z9.json")]) == 0
    assert "plgen" in capsys.readouterr().out


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    path.write_bytes(b"\xff\xfe{")
    assert main(["verify", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_verify_missing_file():
    assert main(["verify", "/nonexistent/file.json"]) == 2


def test_verify_unknown_check():
    assert main(["verify", str(FIXTURES / "z5.json"), "--check", "bogus"]) == 2


def test_verify_restricted_all_subsets(capsys):
    code = main(["verify", str(FIXTURES / "z5.json"), "--check", "restricted",
                 "--all-subsets"])
    assert code == 0
    assert "15/15 subset checks HOLD" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [(), ("--all-subsets",)])
def test_verify_restricted_on_noncommutative_group_rejected(tmp_path, capsys, flags):
    # on D3 two of the three subsets S of B1*B2 break the commutative bound
    from cayley_tables import bundled_tables
    path = write_json(tmp_path, "d3.json", {"cayley": dict(bundled_tables(12))["D3"],
                                            "A": [0, 1, 4], "B": [[0, 4], [2, 5]], "l": 1})
    assert main(["verify", path, "--check", "restricted", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: check 'restricted' requires a commutative group\n"


def test_verify_restricted_uses_s_field(capsys):
    code = main(["verify", str(FIXTURES / "z5.json"), "--check", "restricted"])
    assert code == 0
    assert "lhs=16 rhs=24" in capsys.readouterr().out


def test_verify_large_and_plgen2(capsys):
    code = main(["verify", str(FIXTURES / "z9.json"), "--check", "large,plgen2",
                 "--mode", "a", "--value", "2", "--epsilon", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "large:" in out and "plgen2:" in out


@pytest.mark.parametrize("typed, exact", [("1e-9", "1/1000000000"),
                                           ("0.9999999", "9999999/10000000")])
def test_verify_plgen2_takes_epsilon_as_typed(capsys, typed, exact):
    # values this close to 0 or 1 must not be rounded onto the boundary
    code = main(["verify", str(FIXTURES / "z9.json"), "--check", "plgen2", "--epsilon", typed])
    assert code == 0
    assert f"plgen2: epsilon={exact} " in capsys.readouterr().out


@pytest.mark.parametrize("mode, typed, shown, json_value", [
    ("a", "2", "2.0", 2.0), ("t", "0.5", "0.5", 0.5),
    # a float reads this as 2.0, which mode t rejects for |A| = 2
    ("t", "1.99999999999999999999", "1.99999999999999999999", "1.99999999999999999999")])
def test_verify_large_takes_value_as_typed(tmp_path, capsys, mode, typed, shown, json_value):
    report = tmp_path / "report.json"
    code = main(["verify", str(FIXTURES / "z5.json"), "--check", "large", "--mode", mode,
                 "--value", typed, "--json", str(report)])
    assert code == 0
    assert f"large: mode={mode} value={shown} " in capsys.readouterr().out
    assert json.loads(report.read_text())["checks"][0]["value"] == json_value


def test_all_subsets_memory_stays_small(tmp_path, capsys):
    # |B_K| = 12 in Z_256^2 gives 4,095 subsets; keeping a union for each
    # would take 4,095 * 8 KB, about 33 MB, where the walk keeps at most 12
    rng = random.Random(12)
    path = write_json(tmp_path, "inst.json", {
        "group": [256, 256], "A": sorted(rng.sample(range(1 << 16), 1000)),
        "B": [[0, 1, 2], [0, 256, 512, 768]], "l": 1})
    tracemalloc.start()
    try:
        code = main(["verify", path, "--check", "restricted", "--all-subsets"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "4095/4095 subset checks HOLD" in capsys.readouterr().out
    assert peak < 8_000_000


def test_verify_noncomm_s3(capsys):
    code = main(["verify", str(FIXTURES / "s3.json"), "--check", "noncomm"])
    assert code == 0
    assert "noncomm:" in capsys.readouterr().out


def test_verify_guaranteed_check_on_noncommutative_group_rejected():
    assert main(["verify", str(FIXTURES / "s3.json"), "--check", "plgen"]) == 2


def test_verify_large_on_noncommutative_group_rejected(tmp_path, capsys):
    # on D6 this bound fails (lhs=10 > 9.33); it is proved for commutative groups only
    from cayley_tables import bundled_tables
    path = write_json(tmp_path, "d6.json", {"cayley": dict(bundled_tables(12))["D6"],
                                            "A": [7, 4, 10], "B": [[5], [10, 7, 11], [2, 10]],
                                            "l": 1})
    assert main(["verify", path, "--check", "large", "--mode", "t", "--value", "0"]) == 2
    assert capsys.readouterr() == ("", "error: check 'large' requires a commutative group\n")


# the checks that the paper does not prove, and so run on a noncommutative group
UNPROVED = ("plgen2", "noncomm")


@pytest.mark.parametrize("fixture, checks, err", [
    ("s3.json", "noncomm,plgen", "error: check 'plgen' requires a commutative group\n"),
    ("z5.json", "plgen,bogus", "error: unknown check 'bogus'; valid: "
                               "plgen, pldiff, single, restricted, plgen2, large, noncomm\n"),
    *[("s3.json", check,
       None if check in UNPROVED else f"error: check {check!r} requires a commutative group\n")
      for check in VERIFY_CHECKS]],
    ids=["s3-noncomm-plgen", "z5-plgen-bogus", *[f"s3-{check}" for check in VERIFY_CHECKS]])
def test_verify_usage_error_prints_no_verdict(capsys, fixture, checks, err):
    code = main(["verify", str(FIXTURES / fixture), "--check", checks])
    out, got = capsys.readouterr()
    if err is None:
        assert (code, got) == (0, "") and out.startswith(f"{checks}: ")
    else:
        assert (code, out, got) == (2, "", err)


def test_verify_failed_noncomm_is_a_finding(tmp_path, monkeypatch, capsys):
    import plab.theorems as theorems_mod
    real = theorems_mod.check_noncommutative
    monkeypatch.setattr(theorems_mod, "check_noncommutative",
                        lambda inst: real(inst)._replace(holds=False))
    report_path = tmp_path / "r.json"
    assert main(["verify", str(FIXTURES / "s3.json"), "--check", "noncomm",
                 "--json", str(report_path)]) == 0
    out, err = capsys.readouterr()
    note = "candidate counterexample: no subset meets the bound"
    assert err == "" and out.endswith(f" FAILS ({note})\n")
    report = json.loads(report_path.read_text())
    assert report["all_hold"] is False
    assert [r["notes"] for r in report["checks"]] == [note]


# |B_K| = 16, above the 12 members whose every subset the restricted check walks
_BIG_BK = {"group": [64], "A": [0, 1], "B": [[0, 1, 2, 3], [0, 4, 8, 12]], "l": 1}
_MISSING_DIR = FIXTURES / "no-such-directory"


@pytest.mark.parametrize("instance, flags, err", [
    ("z9.json", ["--check", "plgen,noncomm"],
     "error: noncomm check needs exactly two summand sets\n"),
    ("z5.json", ["--check", "plgen,plgen2", "--epsilon", "2"],
     "error: epsilon must lie strictly between 0 and 1, got 2\n"),
    ("z5.json", ["--check", "plgen,plgen2", "--epsilon", "nan"],
     "error: epsilon must be finite, got nan\n"),
    ("z5.json", ["--check", "plgen,large", "--value", "nan"],
     "error: value must be finite, got nan\n"),
    ("z5.json", ["--check", "plgen,plgen2", "--epsilon", "abc"],
     "error: epsilon must be a decimal number, got abc\n"),
    ("z5.json", ["--check", "plgen,large", "--value", "1/2"],
     "error: value must be a decimal number, got 1/2\n"),
    (_BIG_BK, ["--check", "plgen,restricted", "--all-subsets"],
     "error: checking every subset of S needs |S| <= 12, got 16\n"),
    ("z5.json", ["--check", "plgen", "--json", str(_MISSING_DIR / "r.json")],
     f"error: [Errno 2] No such file or directory: '{_MISSING_DIR / 'r.json'}'\n")],
    ids=["noncomm-needs-k-2", "plgen2-bad-epsilon", "plgen2-epsilon-nan", "large-bad-value",
         "plgen2-epsilon-not-decimal", "large-value-not-decimal", "all-subsets-too-big",
         "json-path-unwritable"])
def test_verify_usage_error_of_a_later_check_prints_no_verdict(tmp_path, capsys, instance,
                                                                flags, err):
    # each error comes after plgen, which would hold: from a second check,
    # or from writing the report
    path = (str(FIXTURES / instance) if isinstance(instance, str)
            else write_json(tmp_path, "inst.json", instance))
    assert main(["verify", path, *flags]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_a_cap_below_1_is_refused(set_cap, capsys, cap):
    set_cap(cap)
    assert main(["verify", str(FIXTURES / "z5.json")]) == 2
    assert capsys.readouterr() == ("", f"error: PLAB_MEM_CAP must be positive, got {cap}\n")


def test_main_calls_in_one_process_share_no_state(tmp_path, capsys):
    z5, report = str(FIXTURES / "z5.json"), tmp_path / "r.json"
    assert main(["verify", z5, "--check", "plgen", "--check", "pldiff",
                 "--json", str(report)]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "plgen", "pldiff"]
    report.unlink()
    assert main(["verify", z5]) == 0
    assert capsys.readouterr().out == "plgen: gamma=5/2 beta=3 HOLDS\n"
    assert not report.exists()
    assert build_parser() is build_parser()


def test_verify_json_report_round_trips(tmp_path, capsys, z5):
    report_path = tmp_path / "report.json"
    code = main(["verify", str(FIXTURES / "z5.json"), "--check", "plgen,restricted",
                 "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["all_hold"] is True
    inst, l, s = parse_instance(report["instance"])
    assert inst == z5 and l == 1 and sorted(s) == [0, 3]
    plgen_row = next(r for r in report["checks"] if r["check"] == "plgen")
    assert plgen_row["gamma"] == "5/2"
    assert plgen_row["beta_base"] == "3"


def test_verify_json_report_does_not_depend_on_member_order(tmp_path, capsys):
    # sorted members are kept and echoed as given, shuffled and repeated ones
    # are read back off the bits; both give the same report bytes
    rng = random.Random(23)
    a, s = sorted(rng.sample(range(1 << 16), 300)), [1, 3, 256, 515, 771]  # S inside B_K
    base = {"group": [256, 256], "B": [[0, 1, 256], [0, 2, 515]], "l": 1}
    shuffled_a, shuffled_s = a + a[::7], s + s[::3]
    rng.shuffle(shuffled_a)
    rng.shuffle(shuffled_s)
    outputs = []
    for name, members in (("sorted", (a, s)), ("shuffled", (shuffled_a, shuffled_s))):
        path = write_json(tmp_path, f"{name}.json", {**base, "A": members[0], "S": members[1]})
        report = tmp_path / f"{name}.report.json"
        assert main(["verify", path, "--check", "restricted,plgen", "--json", str(report)]) == 0
        outputs.append((capsys.readouterr(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    echoed = json.loads(outputs[0][1])["instance"]
    assert echoed["A"] == a and echoed["S"] == s


@pytest.mark.parametrize("instance, flags, golden", [
    ("z5.json", ["--check", "plgen,restricted"], "report_z5_plgen_restricted.json"),
    ("z9.json", ["--check", "large,plgen2", "--epsilon", "0.6"], "report_z9_large_plgen2.json")])
def test_verify_json_report_is_compact(tmp_path, capsys, instance, flags, golden):
    # the golden files are the same reports as an indented encoder wrote them:
    # only whitespace may differ
    report_path = tmp_path / "report.json"
    assert main(["verify", str(FIXTURES / instance), *flags, "--json", str(report_path)]) == 0
    text = report_path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert report == json.loads((ROOT / "tests" / "golden" / golden).read_text(encoding="utf-8"))


def test_all_subsets_report_on_a_wide_group_matches_golden(tmp_path, capsys):
    # fixtures/z5.json fits in one word; Z_256^2 takes 1,024, and the golden
    # report, byte for byte, was written when each |S+A| was a union of
    # translates
    rng = random.Random(2008)
    a = sorted(rng.sample(range(1 << 16), 200))
    b = [sorted([0, *rng.sample(range(1, 1 << 16), 1)]),
         sorted([0, *rng.sample(range(1, 1 << 16), 2)])]
    path = write_json(tmp_path, "wide.json", {"group": [256, 256], "A": a, "B": b, "l": 1})
    report = tmp_path / "wide.report.json"
    assert main(["verify", path, "--check", "restricted", "--all-subsets",
                 "--json", str(report)]) == 0
    assert capsys.readouterr() == ("restricted: 63/63 subset checks HOLD\n", "")
    golden = ROOT / "tests" / "golden" / "report_z256x256_restricted_all_subsets.json"
    assert report.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("mode, typed", [("a", "100"), ("a", "100.0"), ("a", "1E+2"),
                                         ("t", "5"), ("t", "5.0")])
def test_verify_large_echoes_a_rejected_value_as_typed(capsys, mode, typed):
    assert main(["verify", str(FIXTURES / "z9.json"), "--check", "large", "--mode", mode,
                 "--value", typed]) == 2
    need = "an integer 1 <= a <= 2" if mode == "a" else "0 <= t < 2"
    assert capsys.readouterr() == ("", f"error: mode '{mode}' needs {need}, got {typed}\n")


def test_verify_violation_exit_code(monkeypatch, capsys):
    import plab.theorems as theorems_mod

    def fake_check(inst, l):
        return TheoremVerdict(holds=False, lhs=2,
                              rhs=beta_value(alpha_table(inst), inst.key_set, l),
                              witness=inst.a)

    monkeypatch.setattr(theorems_mod, "check_plgen", fake_check)
    code = main(["verify", str(FIXTURES / "z5.json"), "--check", "plgen"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILS" in captured.out
    assert "VIOLATION" in captured.err and "guaranteed check 'plgen' failed" in captured.err
    assert '"group": [5]' in captured.err.replace("'", '"')


# -- find-x ------------------------------------------------------------------------

@pytest.mark.parametrize("exc, err", [
    (TheoremViolationError("m", {"A": [0]}), 'VIOLATION: m\n{"A": [0]}\n'),
    (TheoremViolationError("m"), "VIOLATION: m\n"),
    (CertificateError("m", {"gamma": "1"}), 'internal error: m\n{"gamma": "1"}\n'),
], ids=["violation", "violation-no-dump", "certificate"])
def test_exit_1_errors_print_their_prefix_and_dump(monkeypatch, capsys, exc, err):
    def load_instance(path):
        raise exc

    monkeypatch.setattr(cli, "load_instance", load_instance)
    assert main(["find-x", str(FIXTURES / "z5.json")]) == 1
    assert capsys.readouterr() == ("", err)


def test_an_undecided_sum_of_roots_exits_1_with_its_terms(monkeypatch, capsys):
    # z9's large bound at a = 2 is sqrt 30 + sqrt 240 (the last term has no
    # weight at |X| = 2); with the precision cap below the first bracket it
    # stays undecided, which is an internal error and never a verdict
    monkeypatch.setattr(alphabeta, "ROOT_BITS_MAX", 32)
    code = main(["verify", str(FIXTURES / "z9.json"), "--check", "large", "--mode", "a",
                 "--value", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    head, dump = err.splitlines()
    assert head == "internal error: exact comparison undecided at 32 bits"
    assert json.loads(dump) == {"lhs": "9", "terms": [["1", "30", 2], ["1", "240", 2],
                                                      ["0", "240", 2]]}


def test_find_x(capsys):
    assert main(["find-x", str(FIXTURES / "z5.json")]) == 0
    out = capsys.readouterr().out
    assert "X = [0, 1]" in out
    assert "ratio = 5/2" in out


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_fixture_report_matches_golden(flags):
    proc = subprocess.run([sys.executable, *flags, str(ROOT / "scripts" / "fixture_report.py")],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines(keepends=True)
    report = "".join(line for line in lines if not line.startswith("$ plab "))
    assert report == (ROOT / "tests" / "golden" / "fixture_report.txt").read_text()


# -- demo --------------------------------------------------------------------------

def test_demo_lemma21(capsys):
    code = main(["demo", "lemma21", str(FIXTURES / "z9.json"), "--q", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n=[8, 6, 5]" in out
    assert out.count("240") >= 4
    assert "first admissible q satisfying the union bound: 2" in out
    assert "EQUAL" in out


def test_demo_lemma21_needs_q():
    assert main(["demo", "lemma21", str(FIXTURES / "z9.json")]) == 2


def test_demo_power(capsys):
    code = main(["demo", "power", str(FIXTURES / "z5.json"), "-r", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gamma_r=25/4" in out and "all powers exact: yes" in out
    assert main(["demo", "power", str(FIXTURES / "z5.json"), "-r", "0"]) == 2


def test_demo_power_on_cayley_group_prints_nothing(capsys):
    # power is proved for commutative groups only, at r = 1 as at r >= 2
    for r in ("1", "2"):
        assert main(["demo", "power", str(FIXTURES / "s3.json"), "-r", r]) == 2
        assert capsys.readouterr() == ("", "error: check 'power' requires a commutative group\n")


def test_demo_pipeline_complete_sum(capsys):
    code = main(["demo", "pipeline", str(FIXTURES / "z5.json"), "-r", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "branch=" in out and "ALL HOLD" in out


def test_demo_pipeline_on_noncommutative_group_prints_nothing(tmp_path, capsys):
    # on D6 this instance fails the pipeline's witness_term_bound step
    from cayley_tables import dihedral_table
    path = write_json(tmp_path, "d6.json", {"cayley": dihedral_table(6),
                                            "A": [7, 9, 5, 8, 2], "B": [[2], [10, 3]],
                                            "l": 1})
    assert main(["demo", "pipeline", path, "-r", "1"]) == 2
    assert capsys.readouterr() == ("", "error: check 'restricted' requires a commutative group\n")


@pytest.mark.parametrize("what", ["power", "pipeline"])
@pytest.mark.parametrize("r", ["0", "-3"])
def test_demo_rejects_r_below_1(capsys, what, r):
    assert main(["demo", what, str(FIXTURES / "z5.json"), "-r", r]) == 2
    assert capsys.readouterr() == ("", f"error: r_max must be >= 1, got {r}\n")


def test_demo_lemma21_needs_an_abelian_product_group(capsys):
    assert main(["demo", "lemma21", str(FIXTURES / "s3.json"), "--q", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: the extension construction needs an abelian product group\n")


@pytest.mark.parametrize("what", ["power", "pipeline"])
def test_demo_powers_of_a_one_element_group_are_budgeted(tmp_path, set_cap, capsys, what):
    # the powers of Z_1 never outgrow the element cap, so r itself is capped
    # at the cap's bit length, 27 at the default 2**26
    set_cap(None)
    path = write_json(tmp_path, "z1.json", {"group": [1], "A": [0], "B": [[0], [0]], "l": 1})
    assert main(["demo", what, path, "-r", "27"]) == 0
    capsys.readouterr()
    assert main(["demo", what, path, "-r", "28"]) == 2
    assert capsys.readouterr() == (
        "", f"error: power 28 exceeds 27, the bit length of the element cap {2 ** 26}\n")


def _violation_replay(err):
    """A demo's failure on stderr: one VIOLATION line, then one JSON dump
    line, read back as an instance file."""
    violation, dump_line, end = err.split("\n")
    assert violation.startswith("VIOLATION: ") and end == ""
    return violation, parse_instance(json.loads(dump_line))


def test_demo_power_violation_exit(monkeypatch, capsys):
    # a failed row leaves after the whole report, like a failed sweep row
    real = cli.multiplicativity_check
    monkeypatch.setattr(cli, "multiplicativity_check", lambda inst, r: real(inst, r) + (r == 2))
    assert main(["demo", "power", str(FIXTURES / "z5.json"), "-r", "3"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "r=1 gamma_r=5/2 equals gamma^r: yes root=2.5 beta~3",
        "r=2 gamma_r=29/4 equals gamma^r: NO root=2.69258240357 beta~3",
        "r=3 gamma_r=125/8 equals gamma^r: yes root=2.5 beta~3",
        "all powers exact: NO"]
    violation, (inst, l, s) = _violation_replay(err)
    assert violation == "VIOLATION: guaranteed check 'power' failed: lhs=29/4 rhs=25/4"
    assert (inst, l, s) == (*cli.load_instance(str(FIXTURES / "z5.json"))[:2], None)


def test_demo_pipeline_violation_exit(monkeypatch, capsys):
    import plab.theorems as theorems_mod
    real = theorems_mod.restricted_pipeline

    def first_step_fails(inst, s, r_max):
        rep = real(inst, s, r_max)
        return rep._replace(steps=(rep.steps[0]._replace(holds=False), *rep.steps[1:]),
                            all_hold=False)

    monkeypatch.setattr(theorems_mod, "restricted_pipeline", first_step_fails)
    assert main(["demo", "pipeline", str(FIXTURES / "z5.json"), "-r", "2"]) == 1
    out, err = capsys.readouterr()
    assert "  product_bound: 4 <= 4 [exact] FAILS\n" in out
    assert out.endswith("pipeline: SOME STEP FAILED\n")
    violation, (inst, l, s) = _violation_replay(err)
    assert violation == "VIOLATION: restricted-sum pipeline failed up to r=2"
    file_inst, file_l, file_s = cli.load_instance(str(FIXTURES / "z5.json"))
    assert (inst, l) == (file_inst, file_l) and sorted(s) == sorted(file_s) == [0, 3]


@pytest.mark.parametrize("broken", [
    lambda rep: rep._replace(distinct_sizes={i: 241 for i in rep.distinct_sizes}),
    lambda rep: rep._replace(apex_lhs=rep.apex_lhs + 1, apex_equal=False),
], ids=["distinct-size", "apex"])
def test_demo_lemma21_violation_exit(monkeypatch, capsys, broken):
    # the construction guarantees both identities, so a break is a violation
    import plab.constructions as constructions_mod
    real = constructions_mod.lemma21_demo
    monkeypatch.setattr(constructions_mod, "lemma21_demo",
                        lambda inst, l, q: broken(real(inst, l, q)))
    assert main(["demo", "lemma21", str(FIXTURES / "z9.json"), "--q", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("q=2 n=[8, 6, 5]") and "apex identity" in out
    violation, (inst, l, s) = _violation_replay(err)
    assert violation == "VIOLATION: cyclic extension at q=2 broke a guaranteed identity"
    assert (inst, l, s) == cli.load_instance(str(FIXTURES / "z9.json"))


def test_demo_lemma21_rejects_q_below_1(capsys):
    assert main(["demo", "lemma21", str(FIXTURES / "z9.json"), "--q", "0"]) == 2
    assert capsys.readouterr() == ("", "error: q must be >= 1, got 0\n")


def _line_instance(order, m):
    return {"group": [order], "A": list(range(m)), "B": [[0, 1], [0, 2]], "l": 1}


def _plgen2_instance():
    return {"group": [4096], "A": list(range(16)), "B": [[0, 4080], [0, 1], [0, 2], [0, 3]],
            "l": 1}


@pytest.mark.parametrize("cap, data, argv, err", [
    ("4096", _line_instance(4096, 100), ["verify", "FILE", "--check", "plgen"],
     "6400 64-bit words of graph images (100 x 4096 bits) exceed the element cap 4096"),
    ("4096", _line_instance(4096, 64), ["verify", "FILE", "--check", "plgen"], None),
    ("4096", _line_instance(64, 10), ["demo", "power", "FILE", "-r", "2"],
     "6400 64-bit words of graph images (100 x 4096 bits) exceed the element cap 4096"),
    # noncomm's x -> B_1*x*B_2 graph on S3: two images of one word each
    ("1", json.loads((FIXTURES / "s3.json").read_text()), ["verify", "FILE", "--check", "noncomm"],
     "2 64-bit words of graph images (2 x 6 bits) exceed the element cap 1"),
    # plgen2's walk keeps two lists of |A| x 15 translates x + B_J, k = 4 and
    # l = 1, each counted at ceil(4096/64) = 64 words from the group order
    # before any translate: 2*16*15*64 words, with 4080 in B_1 or without
    ("4096", _plgen2_instance(), ["verify", "FILE", "--check", "plgen2", "--epsilon", "0.1"],
     "30720 64-bit words of subset sumsets exceed the element cap 4096"),
    ("30720", _plgen2_instance(), ["verify", "FILE", "--check", "plgen2", "--epsilon", "0.1"],
     None),
    ("4096", {**_plgen2_instance(), "B": [[0, 16], [0, 1], [0, 2], [0, 3]]},
     ["verify", "FILE", "--check", "plgen2", "--epsilon", "0.1"],
     "30720 64-bit words of subset sumsets exceed the element cap 4096"),
], ids=["plgen-over", "plgen-at-cap", "power-square-over", "noncomm-over", "plgen2-over",
        "plgen2-at-cap", "plgen2-narrow-over"])
def test_graph_images_are_budgeted_by_the_element_cap(tmp_path, set_cap, capsys, cap, data,
                                                      argv, err):
    # a graph holds |A| images of ceil(|G|/64) words each; the square of Z_64
    # has 4,096 elements, inside the cap, but its 100 images take 6,400 words
    set_cap(cap)
    path = write_json(tmp_path, "inst.json", data)
    code = main([path if arg == "FILE" else arg for arg in argv])
    if err is None:
        assert code == 0
        return
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_flow_network_edges_are_budgeted_by_the_element_cap(tmp_path, set_cap, capsys):
    # 32 images of one word each fit a cap of 64, but each image meets 8 of
    # the 32 two-element classes: 256 middle edges
    path = write_json(tmp_path, "inst.json", {"group": [64], "A": list(range(0, 64, 2)),
                                              "B": [[0, 1, 2, 3], [0, 4, 8, 12]], "l": 1})
    set_cap("64")
    assert main(["verify", path, "--check", "plgen"]) == 2
    assert capsys.readouterr() == (
        "", "error: 256 middle edges of the flow network exceed the element cap 64\n")
    set_cap("256")
    assert main(["verify", path, "--check", "plgen"]) == 0


def test_flow_network_classes_are_budgeted_by_the_element_cap(tmp_path, set_cap, capsys):
    # the 64 images a + {0..3} of the plgen-at-cap instance meet in 67
    # classes; at the top of Z_4096 each class is an int of up to 4096 bits,
    # 64 words, and the 65th class passes the cap of 4096 words
    top = {"group": [4096], "A": list(range(4029, 4093)), "B": [[0, 1], [0, 2]], "l": 1}
    path = write_json(tmp_path, "inst.json", top)
    set_cap("4096")
    assert main(["verify", path, "--check", "plgen"]) == 2
    assert capsys.readouterr() == (
        "", "error: 4160 64-bit words of class bitsets exceed the element cap 4096\n")
    set_cap(str(67 * 64))
    assert main(["verify", path, "--check", "plgen"]) == 0


@pytest.mark.parametrize("argv", [[], ["--bogus"], ["demo"], ["find-x"],
                                  ["demo", "nope", str(FIXTURES / "z5.json")]])
def test_argparse_errors_are_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_exits_0(capsys):
    assert main(["verify", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: plab verify")


def test_bad_subcommand_flags():
    assert main(["sweep"]) == 2
    assert main(["demo", "nope", str(FIXTURES / "z5.json")]) == 2


# -- sweep -------------------------------------------------------------------------

BASE_CFG = {
    "seed": 11,
    "count": 12,
    "k_range": [2, 4],
    "l_rule": "all",
    "group_size_range": [4, 32],
    "set_size_range": [1, 6],
    "checks": ["plgen", "pldiff", "restricted"],
}


def test_a_sweep_reads_the_cap_from_the_environment_once(tmp_path, set_cap):
    # every group, graph and flow network is held to the cap, and the first
    # call reads PLAB_MEM_CAP for all of them
    set_cap(None)
    run_sweep(load_sweep_config(write_json(tmp_path, "cfg.json", BASE_CFG)))
    info = element_cap.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_sweep_deterministic_bytes(tmp_path):
    cfg_path = write_json(tmp_path, "cfg.json", BASE_CFG)
    cfg = load_sweep_config(cfg_path)
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    threaded = run_sweep(cfg, workers=3)
    assert first == second == threaded
    assert first.startswith("index,group,k,l,m,b_sizes,check,gamma,")


# N runs past 64, so some instances' bitsets span more than one machine word
GOLDEN_SWEEP = {"seed": 20260808, "count": 60, "k_range": [2, 4], "l_rule": "all",
                "group_size_range": [2, 96], "set_size_range": [1, 6],
                "checks": ["plgen", "pldiff", "restricted", "power"]}


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_matches_golden_bytes(workers):
    # the golden CSV was written by an earlier commit: a faster kernel or a
    # reordered computation may not move one byte of a sweep's output
    golden = (ROOT / "tests" / "golden" / "sweep_z2_96_seed20260808.csv").read_bytes()
    text = run_sweep(sweep_config_from_dict(GOLDEN_SWEEP), workers=workers)
    assert text.encode("utf-8") == golden


def test_sweep_workers_are_capped_by_the_cpus(monkeypatch):
    import concurrent.futures
    sizes = []

    class SerialPool:
        """Records its size and maps in this process."""

        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = sweep_config_from_dict(BASE_CFG)
    assert run_sweep(cfg, workers=10_000) == run_sweep(cfg)
    assert sizes == [2]


def test_sweep_config_defaults_spelled_out():
    assert sweep_config_from_dict({}) == SweepConfig(
        seed=0, count=100, k_range=(2, 4), l_rule="all", group_size_range=(4, 64),
        set_size_range=(1, 8), checks=("plgen",), insert_identity=True)


def test_sweep_without_optional_keys_writes_the_spelled_out_csv(tmp_path, capsys):
    spelled = {"seed": 0, "count": 20, "k_range": [2, 4], "l_rule": "all",
               "group_size_range": [4, 64], "set_size_range": [1, 8],
               "checks": ["plgen"], "insert_identity": True}
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", write_json(tmp_path, "bare.json", {"count": 20}),
                 "--out", str(out1)]) == 0
    assert main(["sweep", write_json(tmp_path, "spelled.json", spelled),
                 "--out", str(out2)]) == 0
    assert len(out1.read_text().splitlines()) > 20
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_cli_to_file(tmp_path, capsys):
    cfg_path = write_json(tmp_path, "cfg.json", BASE_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", cfg_path, "--out", str(out1)]) == 0
    assert main(["sweep", cfg_path, "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_count_zero(tmp_path, capsys):
    cfg_path = write_json(tmp_path, "cfg.json", {**BASE_CFG, "count": 0})
    assert main(["sweep", cfg_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["index,group,k,l,m,b_sizes,check,gamma,"
                                "beta_base,beta_expo_den,holds,detail"]


def test_sweep_overrides_change_output(tmp_path):
    cfg_path = write_json(tmp_path, "cfg.json", BASE_CFG)
    cfg = load_sweep_config(cfg_path)
    assert run_sweep(SweepConfig(**{**cfg._asdict(), "seed": 99})) != run_sweep(cfg)


def test_sweep_fixed_l_rule(tmp_path):
    cfg = sweep_config_from_dict({**BASE_CFG, "l_rule": 2, "count": 8})
    text = run_sweep(cfg)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert rows, "some instance with k > 2 must survive the fixed-l rule"
    assert all(row[3] == "2" for row in rows)


def test_sweep_timing_column(tmp_path):
    cfg = sweep_config_from_dict({**BASE_CFG, "count": 2})
    text = run_sweep(cfg, timing=True)
    assert text.splitlines()[0].endswith(",ms")


def test_sweep_allow_no_identity_changes_rows(tmp_path):
    cfg_path = write_json(tmp_path, "cfg.json", {**BASE_CFG, "count": 6})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", cfg_path, "--out", str(out1)]) == 0
    assert main(["sweep", cfg_path, "--out", str(out2), "--allow-no-identity"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_sweep_command_line_overrides_are_validated(tmp_path, capsys):
    cfg_path = write_json(tmp_path, "cfg.json", BASE_CFG)
    assert main(["sweep", cfg_path, "--count", "-4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "count >= 0" in captured.err
    negative_in_file = write_json(tmp_path, "neg.json", {**BASE_CFG, "count": -4})
    assert main(["sweep", negative_in_file]) == 2
    assert "count >= 0" in capsys.readouterr().err


def test_sweep_set_sizes_clipped_to_group_order(tmp_path):
    cfg = sweep_config_from_dict({**BASE_CFG, "group_size_range": [2, 4],
                                  "set_size_range": [5, 8], "count": 6})
    rows = [line.split(",") for line in run_sweep(cfg).splitlines()[1:]]
    assert rows
    for row in rows:
        n = int(row[1])
        assert int(row[4]) == n and all(int(b) == n for b in row[5].split(";"))


def test_sweep_rejects_unknown_check(tmp_path):
    cfg_path = write_json(tmp_path, "cfg.json", {**BASE_CFG, "checks": ["nope"]})
    assert main(["sweep", cfg_path]) == 2


def test_sweep_unknown_key_error_lists_the_valid_keys(tmp_path, capsys):
    # the valid keys are SweepConfig's fields, in their order
    assert main(["sweep", write_json(tmp_path, "cfg.json", {"check": ["power"]})]) == 2
    assert capsys.readouterr() == ("", 'error: unknown sweep config key "check"; valid: seed, '
                                   "count, k_range, l_rule, group_size_range, set_size_range, "
                                   "checks, insert_identity\n")


def test_sweep_violation_exit(tmp_path, monkeypatch, capsys):
    import plab.theorems as theorems_mod
    real = theorems_mod.check_plgen

    def fake_check(inst, l):
        v = real(inst, l)
        return TheoremVerdict(holds=False, lhs=v.lhs, rhs=v.rhs, witness=v.witness)

    monkeypatch.setattr(theorems_mod, "check_plgen", fake_check)
    cfg_path = write_json(tmp_path, "cfg.json", {**BASE_CFG, "checks": ["plgen"]})
    assert main(["sweep", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "VIOLATION" in err and '"A":' in err


def test_sweep_restricted_violation_replays_its_s(tmp_path, monkeypatch, capsys):
    # the dump carries the S that the sweep drew, so verify checks that S
    # and reports the same failure, not one for S = B_K
    import plab.theorems as theorems_mod
    real = theorems_mod._restricted_verdict

    def failing(*args):
        v = real(*args)
        return TheoremVerdict(holds=False, lhs=v.lhs, rhs=v.rhs)

    monkeypatch.setattr(theorems_mod, "_restricted_verdict", failing)
    cfg_path = write_json(tmp_path, "cfg.json", {"seed": 3, "count": 5, "k_range": [2, 3],
                                                 "checks": ["restricted"]})
    assert main(["sweep", cfg_path]) == 1
    violation, dump_line, end = capsys.readouterr().err.split("\n")
    assert violation.startswith("VIOLATION: ") and end == ""
    dump = json.loads(dump_line)
    assert "S" in dump
    assert main(["verify", write_json(tmp_path, "dump.json", dump), "--check", "restricted"]) == 1
    assert capsys.readouterr().err.split("\n")[0] == violation


def test_all_subsets_violation_replays_the_failing_subset(tmp_path, monkeypatch, capsys):
    # z5's file S is [0, 3], but the first subset to fail is [0, 1]: the dump
    # carries that subset, so verify on the dump reports the same failure
    import plab.theorems as theorems_mod
    real = theorems_mod._restricted_verdict

    def failing_pairs(k, s_size, sa_size, s_prod):
        v = real(k, s_size, sa_size, s_prod)
        return v._replace(holds=s_size != 2)

    monkeypatch.setattr(theorems_mod, "_restricted_verdict", failing_pairs)
    assert main(["verify", str(FIXTURES / "z5.json"), "--check", "restricted",
                 "--all-subsets"]) == 1
    violation, dump_line, end = capsys.readouterr().err.split("\n")
    assert violation == "VIOLATION: guaranteed check 'restricted' failed: lhs=9 rhs=24"
    dump = json.loads(dump_line)
    assert dump["S"] == [0, 1] and end == ""
    assert main(["verify", write_json(tmp_path, "dump.json", dump), "--check", "restricted"]) == 1
    assert capsys.readouterr().err.split("\n")[0] == violation


def test_restricted_violation_without_file_s_dumps_no_s(tmp_path, monkeypatch, capsys):
    # z9 names no S, so verify checks S = B_K and its dump names none either
    import plab.theorems as theorems_mod
    real = theorems_mod._restricted_verdict
    monkeypatch.setattr(theorems_mod, "_restricted_verdict",
                        lambda *args: real(*args)._replace(holds=False))
    assert main(["verify", str(FIXTURES / "z9.json"), "--check", "restricted"]) == 1
    violation, dump_line, end = capsys.readouterr().err.split("\n")
    assert violation.startswith("VIOLATION: ") and end == ""
    dump = json.loads(dump_line)
    assert "S" not in dump
    assert main(["verify", write_json(tmp_path, "dump.json", dump), "--check", "restricted"]) == 1
    assert capsys.readouterr().err.split("\n")[0] == violation


def violating_rows(cfg, index, timing):
    """sweep_rows_for_index as if plgen failed from index 3 on; defined at
    module level so that a worker process can load it."""
    if index < 3:
        return sweep_rows_for_index(cfg, index, timing)
    _raise_if_violated("plgen", TheoremVerdict(holds=False, lhs=1, rhs=0),
                       generate_base(cfg, index), 1)


def test_sweep_worker_violation_exit(tmp_path, monkeypatch, capsys):
    """A failure raised in a worker process reaches main with its instance
    dump, and it is the lowest failing index's, as in a serial run."""
    import plab.cli as cli_mod
    monkeypatch.setattr(cli_mod, "sweep_rows_for_index", violating_rows)
    cfg_path = write_json(tmp_path, "cfg.json", BASE_CFG)
    assert main(["sweep", cfg_path, "--workers", "2"]) == 1
    worker_err = capsys.readouterr().err
    assert "VIOLATION" in worker_err and '"A":' in worker_err
    assert main(["sweep", cfg_path]) == 1
    assert capsys.readouterr().err == worker_err


def test_sweep_power_violation_exit(tmp_path, monkeypatch, capsys):
    import plab.cli as cli_mod

    real = cli_mod.multiplicativity_check

    def fake_check(inst, r):
        return real(inst, r) + 1

    monkeypatch.setattr(cli_mod, "multiplicativity_check", fake_check)
    cfg_path = write_json(tmp_path, "cfg.json", {**BASE_CFG, "count": 3, "checks": ["power"]})
    assert main(["sweep", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "guaranteed check 'power' failed" in err and '"A":' in err
