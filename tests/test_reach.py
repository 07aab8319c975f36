"""Every function of `src/qprism` longer than a few lines is reached by a
command.

A fresh interpreter runs a fixed set of command lines through
`qprism.cli.run_command` under `sys.setprofile` and reports the code
objects of `src/qprism` that it entered.  The test lists every function or
method in the package's source longer than MAX_UNREACHED_LINES lines that
never ran, and asserts that the list is within ALLOWED_UNREACHED, and that
every name of ALLOWED_UNREACHED is on it, so a stale entry fails.  A fresh
interpreter matters: a cached function (`functools.cache`) runs its body on
its first call only.
"""

import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qprism"

# A function of at most this many lines (a conversion, an operator of a
# class the program uses) may stay unreached.
MAX_UNREACHED_LINES = 8

# qualified name -> why it stays in the package though no command reaches it
ALLOWED_UNREACHED = {
    "twisted_calculus.connection_apply": "wrapped by the benchmark's tracer",
    "homology.flatten_operator": "wrapped by the benchmark's tracer",
    "homology.cone_acyclic": "wrapped by the benchmark's tracer",
    "base_ring.w_invert": "exported in qprism.__all__",
}

WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _benchmark_command_lines() -> list[list[str]]:
    """Every op of the benchmark's cli_fixtures workload, read from
    `perfbench/workloads.py`, so that a new op is probed here too."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [list(op.argv) for op in module.cli_fixture_ops()]


def _command_lines(zpn_spec: str) -> list[list[str]]:
    lines = _benchmark_command_lines()
    lines.append(["adic", "--spec", zpn_spec])
    lines.append(["adic", "--spec", zpn_spec, "--grow"])
    lines.append(["q-int", "--r", "x", "5"])  # a malformed flag
    return lines


def _zpn_spec() -> dict:
    """A module over Z/27 with sparse relations drawn from a fixed seed."""
    rng = random.Random(0)
    generators = 40
    rows = []
    for _ in range(6):
        row = ["0"] * generators
        for j in rng.sample(range(generators), 3):
            row[j] = rng.choice(["3", "9", "6", "1", "18"])
        rows.append(row)
    return {"base": "Zpn", "p": 3, "n": 3, "generators": generators, "relations": rows,
            "f": "3", "g": "6"}


# Runs in a fresh interpreter: argv[1] is the JSON list of command lines.
# Prints the JSON list of [file, first line] of every code object of the
# package that was entered, the import of the CLI included.
PROBE = """
import contextlib, io, json, sys
src = sys.argv[2]
entered = set()


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
import qprism.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(qprism.cli.run_command(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _functions(path: Path):
    """(qualified name, first line, length) of every function or method in
    the module at path; the first line is that of its code object, so of
    its first decorator if it has one."""
    module = path.stem

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield name, first, child.end_lineno - child.lineno + 1
                yield from walk(child, name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}")

    yield from walk(ast.parse(path.read_text()), module)


def _unreached(tmp_path) -> tuple[list[int], list[str]]:
    spec = tmp_path / "zpn.json"
    spec.write_text(json.dumps(_zpn_spec()))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(_command_lines(str(spec))), str(SRC)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    probe = json.loads(out)
    entered = {(Path(f).resolve(), line) for f, line in probe["entered"]}
    unreached = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name, first, length in _functions(path)
        if length > MAX_UNREACHED_LINES and (path.resolve(), first) not in entered
    ]
    return probe["codes"], unreached


def test_every_long_function_is_reached_by_a_command(tmp_path):
    codes, unreached = _unreached(tmp_path)
    # the probe ran what it meant to: the exit-2 fixtures and the malformed flag
    # refuse, every other command line passes
    assert codes.count(2) == 4 and set(codes) == {0, 2}
    assert not set(unreached) - set(ALLOWED_UNREACHED), sorted(unreached)
    # each allowlisted name still exists, is long, and is still unreached
    assert not set(ALLOWED_UNREACHED) - set(unreached), sorted(unreached)
