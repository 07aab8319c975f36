"""Every function of `src/qprism` longer than a few lines is reached by a
command.

A fresh interpreter runs a fixed set of command lines through
`qprism.cli.run_command` under `sys.setprofile` and reports the code
objects of `src/qprism` that it entered.  The test lists every function or
method in the package's source longer than MAX_UNREACHED_LINES lines that
never ran, and asserts that the list is within ALLOWED_UNREACHED.  A fresh
interpreter matters: a cached function (`functools.cache`) runs its body on
its first call only.
"""

import ast
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
    "twisted_calculus.sigma": "called only by connection_apply",
    "twisted_calculus.twisted_derive": "called only by connection_apply",
    "homology.flatten_operator": "wrapped by the benchmark's tracer",
    "homology.cone_acyclic": "wrapped by the benchmark's tracer",
    "base_ring.w_invert": "exported in qprism.__all__",
}

# every op of the benchmark's cli_fixtures workload
CONNECTION_FIXTURES = [
    "bad_rank.json",
    "classical_p2_rank1.json",
    "cohomology_level0_trivial.json",
    "p2_rank1_nilpotent.json",
    "p2_rank1_seeded.json",
    "p2_rank1_trivial.json",
    "p2_rank2_mixed.json",
    "p2_rank2_seeded.json",
    "p2_rank2_trivial.json",
    "p3_rank1_nilpotent.json",
    "p3_rank1_seeded.json",
    "p3_rank1_trivial.json",
    "p3_rank2_mixed.json",
    "p3_rank2_seeded.json",
    "p3_rank2_trivial.json",
]
MODULE_FIXTURES = ["adic_w_quotient.json", "adic_z_torsion.json", "adic_zq_free.json"]


def _command_lines(zpn_spec: str) -> list[list[str]]:
    lines = []
    for name in CONNECTION_FIXTURES:
        for command in ("cohomology", "cartier"):
            lines.append([command, "--spec", f"fixtures/{name}", "--grow"])
    for name in MODULE_FIXTURES:
        lines.append(["adic", "--spec", f"fixtures/{name}", "--grow"])
    for p in ("2", "3"):
        for cap in ("4", "8"):
            lines.append(["poincare", "--p", p, "--cap", cap, "--grow"])
        for order in ("0", "1"):
            lines.append(["envelope", "--p", p, "--order", order])
    for order in ("2", "3"):
        lines.append(["envelope", "--p", "2", "--order", order])
    lines.append(["axioms"])
    lines.append(["q-int", "5"])
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
