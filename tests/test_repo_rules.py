"""Rules about the source tree itself, read from its syntax trees and a fresh import."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    """The scans name their paths relative to the repository root."""
    monkeypatch.chdir(ROOT)


def test_no_assert_statements_in_src():
    # python -O strips assert statements, and invariants must survive it
    found = [f"{path}:{node.lineno}" for path in sorted(pathlib.Path("src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "\n".join(found)


def test_importing_plab_loads_no_dataclasses():
    # every plab process imports the library before it reads its input.
    # dataclasses builds each class's methods with exec and loads inspect,
    # ast, dis and tokenize, which cost more than a small check; the records
    # are NamedTuples.  The rule counts modules, not time, so it cannot flake
    found = [f"{path}:{node.lineno}" for path in sorted(pathlib.Path("src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
             or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)]
    assert not found, "\n".join(found)
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, plab.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": "src"},
                         capture_output=True, text=True, check=True).stdout
    assert out == "\n", out


def test_library_names_have_library_callers():
    # a name in plab.__all__, or a public method or property of a class
    # in it, that only tests use belongs in tests/, and a module-level
    # function, class or constant of src/plab that nothing outside tests
    # reads is dead.  Record fields are data, not API, and are not scanned:
    # a NamedTuple's field getters are neither callables nor properties.  The scan is by name, so a method that shares its name
    # with another one in use (list.index) passes
    import plab
    paths = [p for d in ("src/plab", "scripts", "perfbench") for p in sorted(pathlib.Path(d).rglob("*.py"))
             if p != pathlib.Path("src/plab/__init__.py")]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attrs | {node.id for node in nodes if isinstance(node, ast.Name)}
    loaded = {node.attr if isinstance(node, ast.Attribute) else node.id for node in nodes
              if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load)}
    # a method is called as an attribute; a function or class may also be called by name
    unused = {name for name in plab.__all__ if name not in names} | {
        name for cls in map(plab.__dict__.get, plab.__all__) if isinstance(cls, type)
        for name, value in vars(cls).items()
        if (callable(value) or isinstance(value, (property, classmethod, staticmethod)))
        and not name.startswith("_") and name not in attrs}
    for path, tree in trees.items():
        if path.parts[:2] != ("src", "plab"):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused.update(f"{path}:{node.lineno} {name}" for name in defined if name not in loaded)
    assert not unused, "\n".join(sorted(unused))


def test_readme_plab_lines_parse():
    # every plab command in the README's code blocks parses, so a renamed
    # flag or subcommand fails here rather than leaving the README wrong;
    # parsing opens no file
    import shlex

    from plab.cli import build_parser
    lines, fenced = [], False
    for line in pathlib.Path("README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("plab "):
            lines.append(line)
    assert lines
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_tests_change_the_cap_only_through_set_cap():
    # element_cap keeps the cap that it read first, so a test that sets or
    # deletes PLAB_MEM_CAP with monkeypatch alone would not be seen; the
    # conftest fixture set_cap also clears the cache
    found = [f"{path}:{node.lineno}" for path in sorted(pathlib.Path("tests").glob("*.py"))
             if path.name != "conftest.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("setenv", "delenv") and node.args
             and isinstance(node.args[0], ast.Constant) and node.args[0].value == "PLAB_MEM_CAP"]
    assert not found, "\n".join(found)


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py wraps plab functions by name and skips a missing
    # one, so a rename would make its per-layer metrics read 0 with no check
    # failing.  The one stale target is named so that it stays in view; it
    # leaves this set when the benchmark drops it
    import importlib
    import importlib.util
    spec = importlib.util.spec_from_file_location("tracing", "perfbench/tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for name, module, attr, cls, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if getattr(owner, attr, None) is None:
            unresolved.add(name)
    assert unresolved == {"theorems.RootRatio.cmp"}
